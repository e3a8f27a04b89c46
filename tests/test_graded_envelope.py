"""The graded associativity sweep of the structure envelope.

``radical.structure_envelope`` builds a linking algebra [[A, f], [gbar, B]]
as the 8 corner blocks of composable pairs, and its table vanishes outside
them.  It hands those blocks, divided by their largest entry, straight to
``radical._graded_gap``, which sweeps only the 16 composable triples of
corners.  The hand-off must be the table's own blocks, and the sweep must
read what the dense loop reads on the table: on the clean envelopes, on
corruptions inside each of the 8 blocks, and on random graded tables.
"""

import numpy as np
import pytest

from conftest import no_certificate, scramble
from test_sparse_sweeps import ABS, REL
from ternlab import embedding as emb
from ternlab import matkernel as mk
from ternlab import radical as rad

# the grading of the linking algebra: the product corner of each composable
# pair of the corners A, f, gbar, B (the embedding's L, M, Mbar, R)
PRODUCT = {(x, y): t for x, y, t in emb.CORNER_PRODUCTS}


def _hand_off(m):
    """(algebra, M indices, blocks, residual) of ``structure_envelope(m)``:
    the blocks it hands to ``_graded_gap`` and the residual it gets back."""
    seen = []
    gap = rad._graded_gap

    def spy(blocks):
        seen.append((blocks, gap(blocks)))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rad, "_graded_gap", spy)
        alg, m_idx = rad.structure_envelope(m)
    ((blocks, resid),) = seen
    return alg, m_idx, blocks, resid


@pytest.fixture(scope="module")
def envelopes(catalog):
    """(name, table, grades, blocks, residual) for the envelope of each
    catalog scramble; grades are the slices of A, f, gbar and B."""
    rng = np.random.default_rng(1803)
    out = []
    for name, m in catalog:
        alg, m_idx, blocks, resid = _hand_off(scramble(m, rng)[0])
        dk, d = m_idx[0], len(m_idx)
        cuts = (0, dk, dk + d, dk + 2 * d, alg.dim)
        grades = tuple(map(slice, cuts[:-1], cuts[1:]))
        out.append((name, np.asarray(alg.table), grades, blocks, resid))
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


def _block(table, grades, x, y):
    return table[grades[x], grades[y], grades[PRODUCT[x, y]]]


def _gap(blocks):
    """``_graded_gap`` on blocks divided by their largest entry, as
    ``structure_envelope`` hands them over."""
    top = max(float(np.abs(v).max(initial=0.0)) for v in blocks.values())
    return rad._graded_gap({k: v / top for k, v in blocks.items()})


def test_clean_envelopes_sweep_graded(envelopes):
    for name, table, grades, blocks, resid in envelopes:
        assert sorted(blocks) == sorted(PRODUCT), name
        scale = mk.unit_scale(table)
        rest = np.array(table)
        for (x, y), block in blocks.items():
            assert block.flags.c_contiguous, name
            assert np.array_equal(block, _block(table, grades, x, y) / scale), (name, x, y)
            _block(rest, grades, x, y)[...] = 0.0
        # the table vanishes outside the blocks handed over
        assert not rest.any(), name
        assert resid == pytest.approx(_dense(table), rel=REL, abs=ABS), name
        assert resid < 1e-14, name


@pytest.mark.parametrize("pair", list(PRODUCT), ids=lambda p: "-".join("AfgB"[g] for g in p))
def test_corrupted_blocks_read_as_the_dense_loop(envelopes, pair):
    # A·A→A, f·gbar→A and B·B→B among them; each graded block once per envelope
    rng = np.random.default_rng(1804 + 4 * pair[0] + pair[1])
    for name, table, grades, blocks, _ in envelopes:
        if len(table) > 36:
            continue
        bad, t = dict(blocks), table / mk.unit_scale(table)
        at = tuple(rng.integers(0, blocks[pair].shape))
        bad[pair] = np.array(blocks[pair])
        bad[pair][at] += 1e-3
        _block(t, grades, *pair)[at] += 1e-3
        resid = _gap(bad)
        assert resid == pytest.approx(_dense(t), rel=1e-12), name
        assert resid > 1e-6, name


def test_random_graded_tables_read_as_the_dense_loop():
    # arbitrary tables with the envelope's grading: the largest gap falls in a
    # different composable triple from table to table
    rng = np.random.default_rng(1806)
    for _ in range(128):
        cuts = np.cumsum([0, *rng.integers(3, 7, 4)])
        grades = tuple(map(slice, cuts[:-1], cuts[1:]))
        t = np.zeros((cuts[-1],) * 3, dtype=np.complex128)
        blocks = {}
        for x, y in PRODUCT:
            shape = _block(t, grades, x, y).shape
            blocks[x, y] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            _block(t, grades, x, y)[...] = blocks[x, y]
        assert _gap(blocks) == pytest.approx(_dense(t), rel=1e-12), cuts


def test_radical_validates_the_envelope_graded(catalog, graded_calls, monkeypatch):
    # full-4x2-tro, d = 8: an envelope of 16 + 8 + 8 + 4 = 36 dimensions; its
    # trace form certifies the radical without one, so the envelope is built
    # only with the certificate taken out
    m = scramble(dict(catalog)["full-4x2-tro"], np.random.default_rng(1806))[0]
    assert rad.ternary_radical(m).shape[1] == 0
    assert graded_calls == []
    no_certificate(monkeypatch)
    assert rad.ternary_radical(m).shape[1] == 0
    assert graded_calls == [8]
