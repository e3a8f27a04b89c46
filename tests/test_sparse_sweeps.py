"""The sparse and dense paths of the two exact associativity sweeps.

``StructureConstants.associativity_residual`` and ``AssocAlgebra.validate``
pick between a dense matmul sweep and ``matkernel.sparse_gap`` by
``matkernel.sparse_pays``.  Each path is forced here through
``SPARSE_TERM_COST``: 0 takes the sparse path wherever its memory cap allows,
infinity never takes it.
"""

import numpy as np
import pytest

from conftest import scramble
from test_ternary import _assoc_residual_reference
from ternlab import embedding as emb
from ternlab import ideals as idl
from ternlab import matkernel as mk
from ternlab import radical as rad
from ternlab import ternary as tern
from ternlab.errors import InvalidInput

REL, ABS = 1e-12, 1e-14


@pytest.fixture()
def sparse_calls(monkeypatch):
    """Counts the calls of matkernel.sparse_gap."""
    calls = []
    gap = mk.sparse_gap

    def counted(*args):
        calls.append(args[1])
        return gap(*args)

    monkeypatch.setattr(mk, "sparse_gap", counted)
    return calls


@pytest.fixture()
def paths(monkeypatch, sparse_calls):
    """residuals(f) -> (sparse, dense, chosen) values of f() with each path forced.

    A zero term cost takes the sparse path where the memory cap allows it
    (``chosen``); past the cap ``sparse_pays`` itself is forced, so the sparse
    value always comes from the sparse join.
    """

    def run(f, ran):
        sparse_calls.clear()
        value = f()
        assert bool(sparse_calls) is ran
        return value

    def residuals(f):
        with monkeypatch.context() as mp:
            mp.setattr(mk, "SPARSE_TERM_COST", 0)
            sparse_calls.clear()
            sparse = f()
            chosen = bool(sparse_calls)
            if not chosen:
                mp.setattr(mk, "sparse_pays", lambda *args: True)
                sparse = run(f, True)
        with monkeypatch.context() as mp:
            mp.setattr(mk, "SPARSE_TERM_COST", float("inf"))
            dense = run(f, False)
        return sparse, dense, chosen

    return residuals


def _matrix_unit_sparse(a):
    """At most d^(n/2) nonzeros, as in a matrix-unit basis: the sparse path must be chosen."""
    return a.shape[0] > 1 and np.count_nonzero(a) <= a.shape[0] ** (a.ndim / 2)


def _monomial(c, rng):
    """c in the basis s_i b_p(i): a permuted, complex-rescaled basis keeps c's zeros."""
    p = rng.permutation(c.shape[0])
    s = rng.uniform(0.5, 2.0, c.shape[0]) * np.exp(2j * np.pi * rng.random(c.shape[0]))
    return c[np.ix_(p, p, p, p)] * (s[:, None, None, None] * s.conj()[:, None, None]
                                    * s[:, None] / s)


def _corrupted(a, rng, zero):
    """a with one zero (or nonzero) entry moved by 1e-3 of its largest entry."""
    a = np.array(a)
    where = np.argwhere((a == 0) if zero else (a != 0))
    a[tuple(where[rng.integers(len(where))])] += 1e-3 * np.abs(a).max()
    return a


def _table_reference(t):
    """Basis-level associativity residual of a table, one table slice at a time."""
    d = t.shape[0]
    worst = 0.0
    for i in range(d):
        for j in range(d):
            lhs = t[i, j] @ t.reshape(d, d * d)    # (b_i b_j) b_k for every k
            rhs = t[j] @ t[i]                      # b_i (b_j b_k) for every k
            worst = max(worst, np.abs(lhs.reshape(d, d) - rhs).max())
    return worst / np.abs(t).max() ** 2


def _structure_tensors(catalog):
    """Each catalog tensor and a monomial rebasing of it; for the smaller full
    matrix spaces, where every entry enters a product, two corruptions of that."""
    rng = np.random.default_rng(40)
    for name, m in catalog:
        c = np.asarray(tern.structure_constants_of(m).c)
        moved = _monomial(c, rng)
        yield name, c
        yield name + "/monomial", moved
        if name.startswith("full-") and m.dim <= 8:
            yield name + "/zero-hit", _corrupted(moved, rng, zero=True)
            yield name + "/nonzero-hit", _corrupted(moved, rng, zero=False)


def test_structure_sweep_paths_agree(catalog, paths):
    for name, c in _structure_tensors(catalog):
        d = c.shape[0]
        sparse, dense, chosen = paths(tern.StructureConstants(d, c).associativity_residual)
        assert sparse == pytest.approx(dense, rel=REL, abs=ABS), name
        assert chosen or not _matrix_unit_sparse(c), name
        if d <= 5:
            assert dense == pytest.approx(_assoc_residual_reference(c), rel=REL, abs=ABS), name
        if "hit" in name:
            assert min(sparse, dense) > 1e-6, name


def test_structure_sweep_catches_corruption(catalog, paths):
    rng = np.random.default_rng(41)
    c = np.asarray(tern.structure_constants_of(dict(catalog)["full-4x2-tro"]).c)
    for zero in (True, False):
        bad = tern.StructureConstants(8, _corrupted(c, rng, zero))
        paths(lambda: pytest.raises(InvalidInput, bad.validate))


def test_dense_scramble_keeps_the_dense_path(catalog, sparse_calls):
    ms, _ = scramble(dict(catalog)["full-4x4-tro"], np.random.default_rng(42))
    ms.structure.associativity_residual()
    assert not sparse_calls


def test_memory_cap_keeps_the_dense_path(sparse_calls, monkeypatch):
    # half the entries zero: the sparse terms outnumber a dense buffer's entries
    rng = np.random.default_rng(46)
    monkeypatch.setattr(mk, "SPARSE_TERM_COST", 0)
    c, t = ((rng.random(shape) < 0.5) * (rng.standard_normal(shape) + 1j)
            for shape in ((6,) * 4, (12,) * 3))
    tern.StructureConstants(6, c).associativity_residual()
    rad.AssocAlgebra(table=t).associativity_residual()
    assert not sparse_calls


def test_sparse_join_on_scrambles(catalog, paths):
    rng = np.random.default_rng(43)
    for name, m in catalog:
        if m.dim <= 6:
            sparse, dense, chosen = paths(scramble(m, rng)[0].structure.associativity_residual)
            assert sparse == pytest.approx(dense, rel=REL, abs=ABS), name
            assert not chosen, name


@pytest.fixture(scope="module")
def lattice_quotients():
    full, diag, scalar, dsum = (tern.full_matrix_space, tern.diagonal_space,
                                tern.scalar_space, tern.direct_sum)
    spaces = [dsum(full(3, 3, +1), full(2, 2, -1), diag(2, +1)),
              dsum(full(4, 4, +1), full(2, 2, -1)),
              dsum(full(2, 3, -1), full(3, 2, +1), scalar(-1))]
    out = []
    for m in spaces:
        for sl in m.block_slices:
            gen = np.eye(m.dim, dtype=np.complex128)[sl.start]
            out.append(idl.quotient(m, idl.generated_ideal(m, [gen])))
    assert len(out) == 8
    return out


def test_quotient_sweep_paths_agree(lattice_quotients, paths):
    assert max(q.dim for q in lattice_quotients) == 16
    for q in lattice_quotients:
        sparse, dense, chosen = paths(q.structure.associativity_residual)
        assert sparse == pytest.approx(dense, rel=REL, abs=ABS)
        assert chosen
        assert sparse <= 1e-9


def _tables(catalog):
    for name, m in catalog:
        yield name, np.asarray(emb.build_embedding(m).table)
    for n in range(1, 6):
        yield f"M{n}", np.asarray(rad.matrix_algebra(n).table)


def test_table_sweep_paths_agree(catalog, paths):
    rng = np.random.default_rng(44)
    for name, t in _tables(catalog):
        variants = [(name, t)]
        if 8 <= t.shape[0] <= 36:
            variants += [(name + "/zero-hit", _corrupted(t, rng, zero=True)),
                         (name + "/nonzero-hit", _corrupted(t, rng, zero=False))]
        for label, table in variants:
            alg = rad.AssocAlgebra(table=table)
            sparse, dense, chosen = paths(alg.associativity_residual)
            assert sparse == pytest.approx(dense, rel=REL, abs=ABS), label
            assert chosen or not _matrix_unit_sparse(table), label
            if table.shape[0] <= 36:
                assert dense == pytest.approx(_table_reference(table), rel=REL, abs=ABS), label
            if "hit" in label:
                assert min(sparse, dense) > 1e-6, label
                paths(lambda: pytest.raises(InvalidInput, alg.validate))


def test_residuals_are_scale_free_past_overflow(catalog, paths):
    rng = np.random.default_rng(45)
    c = _corrupted(tern.structure_constants_of(dict(catalog)["full-2x2-anti"]).c,
                   rng, zero=False)
    t = _corrupted(rad.matrix_algebra(3).table, rng, zero=True)
    for big, unit in ((tern.StructureConstants(4, 1e160 * c),
                       tern.StructureConstants(4, c / np.abs(c).max())),
                      (rad.AssocAlgebra(table=1e160 * t),
                       rad.AssocAlgebra(table=t / np.abs(t).max()))):
        for got, want in zip(paths(big.associativity_residual)[:2],
                             paths(unit.associativity_residual)[:2]):
            assert want > 1e-6
            assert got == pytest.approx(want, rel=REL)


def test_assoc_algebra_rejects_nonfinite_tables():
    for bad in (np.nan, np.inf):
        t = np.zeros((2, 2, 2), dtype=np.complex128)
        t[0, 0, 0], t[1, 1, 1] = 1.0, bad
        with pytest.raises(InvalidInput, match="non-finite"):
            rad.AssocAlgebra(table=t)
