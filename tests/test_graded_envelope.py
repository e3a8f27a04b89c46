"""The graded associativity sweep of the structure envelope.

``radical.structure_envelope`` builds a linking algebra [[A, f], [gbar, B]]
whose table vanishes outside 8 of its 64 corner blocks.  Where the dense loop
would run, its associativity check sweeps only the 16 composable triples of
corners, and must read what the dense loop reads: on the clean envelopes, on
corruptions inside the graded blocks, and, through the dense loop itself, on
tables with an entry outside them.
"""

import numpy as np
import pytest

from conftest import scramble
from test_sparse_sweeps import ABS, REL
from ternlab import matkernel as mk
from ternlab import radical as rad

A, F, G, B = range(4)


@pytest.fixture(scope="module")
def envelopes(catalog):
    """(name, table, grades) for the envelope of each catalog scramble; grades
    are the slices of A, f, gbar and B."""
    rng = np.random.default_rng(1803)
    out = []
    for name, m in catalog:
        alg, m_idx = rad.structure_envelope(scramble(m, rng)[0])
        dk, d = m_idx[0], len(m_idx)
        cuts = (0, dk, dk + d, dk + 2 * d, alg.dim)
        out.append((name, np.asarray(alg.table), tuple(map(slice, cuts[:-1], cuts[1:]))))
    return out


@pytest.fixture()
def graded_calls(monkeypatch):
    """Counts the calls of the graded sweep."""
    calls = []
    gap = rad._graded_gap

    def counted(blocks):
        calls.append(len(blocks))
        return gap(blocks)

    monkeypatch.setattr(rad, "_graded_gap", counted)
    return calls


def _dense(table):
    return rad.AssocAlgebra(table=table).associativity_residual()


def _sweeps_graded(table):
    # sparse_pays still picks the sparse path first, and the 16-triple loop
    # replaces the dense one only on a table of more than 16 dimensions
    t = table / mk.unit_scale(table)
    return len(table) > 16 and not mk.sparse_pays(t, *rad._ASSOC_SWEEP)


def _moved(table, grades, x, y, rng, size=1e-3):
    """table with one entry of the block of grade x times grade y moved."""
    t = np.array(table)
    block = t[grades[x], grades[y], grades[rad._product_grade(x, y)]]
    block[tuple(rng.integers(0, block.shape))] += size * np.abs(t).max()
    return t


def test_clean_envelopes_sweep_graded(envelopes, graded_calls):
    graded = 0
    for name, table, grades in envelopes:
        graded_calls.clear()
        resid = rad._assoc_residual(table, grades)
        assert graded_calls == ([8] if _sweeps_graded(table) else []), name
        graded += bool(graded_calls)
        assert resid == pytest.approx(_dense(table), rel=REL, abs=ABS), name
        assert resid < 1e-14, name
    assert graded == 8


@pytest.mark.parametrize("pair", rad._PAIRS, ids=lambda p: "-".join("AfgB"[g] for g in p))
def test_corrupted_blocks_read_as_the_dense_loop(envelopes, graded_calls, pair):
    # A·A→A, f·gbar→A and B·B→B among them; each graded block once per envelope
    rng = np.random.default_rng(1804 + 4 * pair[0] + pair[1])
    for name, table, grades in envelopes:
        if len(table) > 36 or not _sweeps_graded(table):
            continue
        bad = _moved(table, grades, *pair, rng)
        graded_calls.clear()
        resid = rad._assoc_residual(bad, grades)
        assert graded_calls == [8], name
        assert resid == pytest.approx(_dense(bad), rel=1e-12), name
        assert resid > 1e-6, name


def test_random_graded_tables_read_as_the_dense_loop(graded_calls):
    # arbitrary tables with the envelope's grading: the largest gap falls in a
    # different composable triple from table to table
    rng = np.random.default_rng(1806)
    for _ in range(128):
        cuts = np.cumsum([0, *rng.integers(3, 7, 4)])
        grades = tuple(map(slice, cuts[:-1], cuts[1:]))
        t = np.zeros((cuts[-1],) * 3, dtype=np.complex128)
        for x, y in rad._PAIRS:
            block = t[grades[x], grades[y], grades[rad._product_grade(x, y)]]
            block[...] = rng.standard_normal(block.shape) + 1j * rng.standard_normal(block.shape)
        graded_calls.clear()
        resid = rad._assoc_residual(t, grades)
        assert graded_calls == ([8] if _sweeps_graded(t) else []), cuts
        assert resid == pytest.approx(_dense(t), rel=1e-12), cuts


def test_entry_off_the_grading_reaches_the_dense_loop(envelopes, graded_calls):
    rng = np.random.default_rng(1805)
    for name, table, grades in envelopes:
        if len(table) > 36 or not _sweeps_graded(table):
            continue
        for x, y, z in ((A, A, F), (F, G, B), (B, A, A), (G, B, G)):
            t = np.array(table)
            block = t[grades[x], grades[y], grades[z]]
            assert not block.any()
            block[tuple(rng.integers(0, block.shape))] = 1e-3 * np.abs(t).max()
            graded_calls.clear()
            resid = rad._assoc_residual(t, grades)
            assert graded_calls == [], name
            assert resid == _dense(t) and resid > 1e-6, name


def test_radical_validates_the_envelope_graded(catalog, graded_calls):
    # full-4x2-tro, d = 8: an envelope of 16 + 8 + 8 + 4 = 36 dimensions
    m = scramble(dict(catalog)["full-4x2-tro"], np.random.default_rng(1806))[0]
    assert rad.ternary_radical(m).shape[1] == 0
    assert graded_calls == [8]

