import numpy as np
import pytest

from ternlab import embedding as emb
from ternlab import radical as rad
from ternlab import ternary as tern
from ternlab import wedderburn as wed
from ternlab.errors import PreconditionFailed


@pytest.fixture(scope="module")
def anti_m2():
    e = emb.build_embedding(tern.scalar_space(-1))
    return rad.assoc_of_embedding(e)


@pytest.fixture(scope="module")
def m2x():
    return rad.matrix_algebra(2)


def test_closed_form_is_exact_isomorphism(anti_m2, m2x):
    rep = wed.verify_isomorphism(wed.m2_closed_form(), anti_m2, m2x)
    assert rep.max_residual <= 1e-12
    assert rep.invertible


def test_identity_on_matrix_algebra(m2x):
    rep = wed.verify_isomorphism(np.eye(4, dtype=np.complex128), m2x, m2x)
    assert rep.max_residual == 0.0


def test_random_linear_map_fails(anti_m2, m2x):
    rng = np.random.default_rng(0)
    fails = 0
    for _ in range(10):
        phi = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rep = wed.verify_isomorphism(phi, anti_m2, m2x)
        fails += rep.max_residual > 0.1
    assert fails >= 9


def test_solver_on_matrix_algebra_itself(m2x):
    sol = wed.solve_wedderburn(m2x, 2, seed=0)
    assert sol.residual <= 1e-8
    rep = wed.verify_isomorphism(sol.phi, m2x, m2x)
    assert rep.max_residual <= 1e-8


def test_solver_on_twisted_algebra(anti_m2, m2x):
    sol = wed.solve_wedderburn(anti_m2, 2, seed=0)
    assert sol.residual <= 1e-8
    assert np.isfinite(sol.condition)
    rep = wed.verify_isomorphism(sol.phi, anti_m2, m2x)
    assert rep.max_residual <= 1e-8
    # the unit diag(-1,-1) maps to the identity matrix
    unit = anti_m2.unit()
    assert np.allclose(sol.apply(unit), np.eye(2), atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_construction_onto_m_n(n):
    twisted = emb.build_embedding(tern.full_matrix_space(n // 2, n - n // 2, -1))
    for a in (rad.matrix_algebra(n), rad.assoc_of_embedding(twisted)):
        sol = wed.solve_wedderburn(a, n, seed=n)
        assert sol.residual <= 1e-8
        assert sol.condition < 1e8
        assert np.allclose(sol.apply(a.unit()), np.eye(n), atol=1e-10)


def test_construction_rejects_non_simple(catalog):
    # a direct sum of smaller matrix algebras whose dim happens to be 4^2
    e = emb.build_embedding(dict(catalog)["mix-closures"])
    assert e.dim == 16
    with pytest.raises(PreconditionFailed, match="not simple"):
        wed.solve_wedderburn(rad.assoc_of_embedding(e), 4)


def _epsilon(a, i, j, l):
    """The sign eps(ijl) with b_ij b_jl = eps(ijl) b_il in a's table (indices from 1)."""
    prod = a.table[(i - 1) * 2 + (j - 1), (j - 1) * 2 + (l - 1)]
    eps = prod[(i - 1) * 2 + (l - 1)]
    assert np.count_nonzero(prod) == 1 and abs(eps) == 1, (i, j, l)
    return eps


def test_solution_satisfies_quadratic_equation_system(anti_m2):
    # sum_q a_ijpq a_jlqs = eps(ijl) a_ilps over all p, s, i, j, l
    sol = wed.solve_wedderburn(anti_m2, 2, seed=1)

    def a(i, j, p, q):
        return sol.phi[(p - 1) * 2 + (q - 1), (i - 1) * 2 + (j - 1)]

    eqs = 0
    for i in (1, 2):
        for j in (1, 2):
            for l in (1, 2):
                eps = _epsilon(anti_m2, i, j, l)
                for p in (1, 2):
                    for s in (1, 2):
                        total = sum(a(i, j, p, q) * a(j, l, q, s) for q in (1, 2))
                        assert abs(total - eps * a(i, l, p, s)) <= 1e-8
                        eqs += 1
    assert eqs == 32


def test_epsilon_matches_table(anti_m2):
    expected = {
        (1, 1, 1): -1, (1, 1, 2): -1, (1, 2, 1): +1, (1, 2, 2): -1,
        (2, 1, 1): -1, (2, 1, 2): +1, (2, 2, 1): -1, (2, 2, 2): -1,
    }
    for key, val in expected.items():
        assert _epsilon(anti_m2, *key) == val


def test_star_obstruction_closed_form(anti_m2, m2x):
    phi = wed.m2_closed_form()
    # E12 witnesses deviation 2: phi(E12*) = E21 while phi(E12)* = -E21
    e12 = np.array([0, 1, 0, 0], dtype=np.complex128)
    lhs = phi @ (anti_m2.star @ e12.conj())
    rhs = m2x.star @ (phi @ e12).conj()
    assert np.linalg.norm(lhs - rhs) == pytest.approx(2.0)
    _, dev = wed.star_obstruction(phi, anti_m2, m2x)
    assert dev >= 2.0 - 1e-12


def test_star_obstruction_identity_map(m2x):
    _, dev = wed.star_obstruction(np.eye(4, dtype=np.complex128), m2x, m2x)
    assert dev == 0.0


def test_star_obstruction_any_solver_output(anti_m2, m2x):
    for seed in range(3):
        sol = wed.solve_wedderburn(anti_m2, 2, seed=seed)
        _, dev = wed.star_obstruction(sol.phi, anti_m2, m2x)
        assert dev > 0.1


def test_star_obstruction_is_exact_supremum(anti_m2, m2x):
    # x -> phi(x*) - phi(x)* is D conj(x), so the supremum over unit x is ||D||_2
    rng = np.random.default_rng(5)
    for _ in range(3):
        phi = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        top = np.linalg.norm(phi @ anti_m2.star - m2x.star @ phi.conj(), 2)
        x, dev = wed.star_obstruction(phi, anti_m2, m2x)
        assert dev == pytest.approx(top, rel=1e-12)
        assert np.linalg.norm(x) == pytest.approx(1.0, rel=1e-12)
        attained = np.linalg.norm(phi @ (anti_m2.star @ x.conj()) - m2x.star @ (phi @ x).conj())
        assert attained == pytest.approx(top, rel=1e-12)


def test_solver_preconditions(anti_m2):
    t = np.zeros((2, 2, 2), dtype=np.complex128)
    t[0, 0, 0] = t[0, 1, 1] = t[1, 0, 1] = 1.0
    nil = rad.AssocAlgebra(table=t)
    with pytest.raises(PreconditionFailed):
        wed.solve_wedderburn(nil, 2)
    with pytest.raises(PreconditionFailed):
        wed.solve_wedderburn(anti_m2, 3)


def test_det_invertibility_examples(anti_m2):
    # the unit diag(-1,-1) has "determinant" ad + bc = 1 and is its own inverse
    unit = np.array([-1, 0, 0, -1], dtype=np.complex128)
    assert wed.det_invertibility(anti_m2, unit)
    assert np.allclose(anti_m2.mul(unit, unit), unit)
    assert not wed.det_invertibility(anti_m2, [1, 0, 0, 0])
    assert not wed.det_invertibility(anti_m2, [0, 0, 0, 0])


def test_det_invertibility_agrees_with_solvability(anti_m2):
    rng = np.random.default_rng(1)
    for _ in range(200):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        wed.det_invertibility(anti_m2, v)  # raises on any disagreement
    # singular but nonzero element: ad + bc = 1 - 1 = 0
    assert not wed.det_invertibility(anti_m2, [1, 1, -1, 1])


def test_verify_isomorphism_matches_pairwise_products():
    a = rad.assoc_of_embedding(emb.build_embedding(tern.full_matrix_space(1, 2, -1)))
    b = rad.matrix_algebra(3)
    phi = np.random.default_rng(3).standard_normal((9, 9)) + 0j
    worst = max(np.abs(phi @ a.table[i, j] - b.mul(phi[:, i], phi[:, j])).max()
                for i in range(9) for j in range(9))
    rep = wed.verify_isomorphism(phi, a, b)
    assert rep.max_residual == pytest.approx(worst, rel=1e-12)
