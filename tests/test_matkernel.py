import numpy as np
import pytest

from ternlab import matkernel as mk
from ternlab.errors import InvalidInput, NotHermitian, ShapeError

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


def test_hs_inner_examples():
    assert mk.hs_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)
    e11 = np.diag([1.0, 0.0])
    e22 = np.diag([0.0, 1.0])
    assert mk.hs_inner(e11, e22) == 0.0
    assert mk.hs_inner([[1, 1], [0, 0]], [[1, 0], [0, 0]]) == pytest.approx(1.0)


def test_hs_inner_shape_mismatch():
    with pytest.raises(ShapeError):
        mk.hs_inner(np.eye(2), np.eye(3))


def test_hs_inner_conjugate_symmetric():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert mk.hs_inner(a, b) == pytest.approx(np.conj(mk.hs_inner(b, a)))
    assert mk.hs_inner(a, a).real > 0


def test_herm_eig_examples():
    res = mk.herm_eig(np.diag([-1.0, 1.0]))
    assert np.allclose(res.eigenvalues, [-1, 1])
    res = mk.herm_eig([[0, 1], [1, 0]])
    assert np.allclose(res.eigenvalues, [-1, 1])
    res = mk.herm_eig(np.zeros((2, 2)))
    assert np.allclose(res.eigenvalues, [0, 0])


def test_herm_eig_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        mk.herm_eig([[0, 1], [0, 0]])


def test_herm_eig_contract_on_random_matrices():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        n = rng.integers(1, 17)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = a + a.conj().T
        res = mk.herm_eig(h)
        v, w = res.eigenvectors, res.eigenvalues
        scale = max(mk.op_norm(h), 1e-300)
        assert mk.op_norm(h - v @ np.diag(w) @ v.conj().T) <= 1e-10 * scale
        assert mk.op_norm(v.conj().T @ v - np.eye(n)) <= 1e-10
        assert np.all(np.diff(w) >= -1e-12)


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
        mid = mk.hs_inner(a, a).real
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
