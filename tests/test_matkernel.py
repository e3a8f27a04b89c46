import numpy as np
import pytest

from ternlab import matkernel as mk
from ternlab.errors import InvalidInput

SQRT2 = 1.4142135623730951  # singular value of [[1,1],[0,0]], rank one


def test_op_norm_zero_and_identity():
    assert mk.op_norm(np.zeros((2, 3))) == 0.0
    assert mk.op_norm(np.eye(3)) == pytest.approx(1.0)


def test_op_norm_rank_one():
    assert mk.op_norm([[1, 1], [0, 0]]) == pytest.approx(SQRT2, abs=1e-12)


def test_op_norm_rejects_nonfinite():
    with pytest.raises(InvalidInput):
        mk.op_norm([[np.nan, 0], [0, 1]])
    with pytest.raises(InvalidInput):
        mk.op_norm([1, 2, 3])


def test_solve_linear_examples():
    b = np.array([1.0, 2.0])
    assert np.allclose(mk.solve_linear(np.eye(2), b), b)
    assert mk.solve_linear(np.zeros((2, 2)), b) is None
    assert np.allclose(mk.solve_linear([[2.0]], [1.0]), [0.5])


def test_solve_linear_residual_contract():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    x0 = rng.standard_normal(3)
    b = a @ x0
    x = mk.solve_linear(a, b)
    assert x is not None
    assert np.linalg.norm(a @ x - b) <= 1e-9 * (mk.op_norm(a) * np.linalg.norm(x)
                                                + np.linalg.norm(b))


def test_norm_vs_hs_sandwich():
    # op_norm^2 <= <A,A> <= min(rows, cols) * op_norm^2
    rng = np.random.default_rng(3)
    for _ in range(200):
        r, c = rng.integers(1, 9, size=2)
        a = rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
        lo = mk.op_norm(a) ** 2
        mid = np.vdot(a, a).real
        hi = min(r, c) * lo
        assert lo <= mid * (1 + 1e-9)
        assert mid <= hi * (1 + 1e-9)


def test_subspace_helpers():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    q = mk.colspace(a)
    assert q.shape == (6, 2)
    assert np.allclose(q.conj().T @ q, np.eye(2))
    inter = mk.subspace_intersect(q, q[:, :1])
    assert inter.shape[1] == 1
    assert mk.subspace_distance(inter, q[:, :1]) <= 1e-10
    ns = mk.nullspace(q.conj().T)
    assert ns.shape[1] == 4
    coords, resid = mk.project_columns(q, a)
    assert resid <= 1e-10


def test_nullspace_matches_full_svd():
    rng = np.random.default_rng(17)

    def full_svd_nullspace(m, tol=1e-9):
        _, s, vh = np.linalg.svd(m, full_matrices=True)
        rank = int(np.sum(s > tol * s[0]))
        return vh[rank:].conj().T

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    cases = [cplx(40, 6), cplx(3, 7), cplx(6, 6),
             cplx(30, 2) @ cplx(2, 5),          # tall, rank 2
             cplx(4, 2) @ cplx(2, 9)]           # wide, rank 2
    for m in cases:
        got, want = mk.nullspace(m), full_svd_nullspace(m)
        assert got.shape == want.shape
        assert np.allclose(got.conj().T @ got, np.eye(got.shape[1]), atol=1e-12)
        assert mk.subspace_distance(got, want) <= 1e-10
        assert np.abs(m @ got).max(initial=0.0) <= 1e-10 * np.abs(m).max()
