import re
import warnings

import numpy as np
import pytest

from conftest import scramble
from ternlab import embedding as emb
from ternlab import matkernel as mk
from ternlab import radical as rad
from ternlab import ternary as tern
from ternlab.errors import (
    BorderlineWarning,
    DecompositionInconclusive,
    InvalidInput,
    PreconditionFailed,
)


@pytest.fixture(scope="module")
def scalar_c():
    return rad.AssocAlgebra(table=np.ones((1, 1, 1), dtype=np.complex128))


@pytest.fixture(scope="module")
def nilpotent_2d():
    # span{1, n} with n^2 = 0
    t = np.zeros((2, 2, 2), dtype=np.complex128)
    t[0, 0, 0] = t[0, 1, 1] = t[1, 0, 1] = 1.0
    return rad.AssocAlgebra(table=t)


@pytest.fixture(scope="module")
def anti_m2():
    e = emb.build_embedding(tern.scalar_space(-1))
    return rad.assoc_of_embedding(e)


def test_quasi_inverse_assoc_examples(scalar_c):
    assert rad.quasi_inverse_assoc(scalar_c, [0], [1]).y[0] == pytest.approx(0)
    assert rad.quasi_inverse_assoc(scalar_c, [1], [1]) is None
    cert = rad.quasi_inverse_assoc(scalar_c, [1], [0.5])
    assert cert.y[0] == pytest.approx(2.0)
    assert cert.relative_residual <= 1e-9


def test_quasi_inverse_ternary_examples():
    mp, mm = tern.scalar_space(+1), tern.scalar_space(-1)
    assert rad.quasi_inverse_ternary(mp, [1], [0.5]).y[0] == pytest.approx(2.0)
    assert rad.quasi_inverse_ternary(mm, [1], [1]).y[0] == pytest.approx(0.5)
    assert rad.quasi_inverse_ternary(mp, [1], [1]) is None


def test_certificate_residual_bounds(anti_m2):
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = anti_m2.random_element(rng)
        u = anti_m2.random_element(rng)
        cert = rad.quasi_inverse_assoc(anti_m2, x, u)
        if cert is not None:
            assert cert.relative_residual <= 1e-9


def test_jacobson_radical_simple(anti_m2):
    assert rad.jacobson_radical(rad.matrix_algebra(2)).shape[1] == 0
    assert rad.jacobson_radical(anti_m2).shape[1] == 0


def test_jacobson_radical_nilpotent(nilpotent_2d):
    basis = rad.jacobson_radical(nilpotent_2d)
    assert basis.shape[1] == 1
    # the radical is exactly span{n}
    assert abs(basis[0, 0]) <= 1e-12
    assert abs(abs(basis[1, 0]) - 1) <= 1e-12


def test_jacobson_radical_upper_triangular():
    # upper triangular 2x2 matrices: radical = span{E12}
    t = np.zeros((3, 3, 3), dtype=np.complex128)
    # basis: E11, E12, E22
    prods = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 2): {1: 1}, (2, 2): {2: 1}}
    for (i, j), out in prods.items():
        for l, v in out.items():
            t[i, j, l] = v
    alg = rad.AssocAlgebra(table=t)
    alg.validate()
    basis = rad.jacobson_radical(alg)
    assert basis.shape[1] == 1
    assert np.allclose(np.abs(basis[:, 0]), [0, 1, 0])


def _upper_triangular(n):
    """T_n, the upper-triangular n x n matrices on the basis E_ij, i <= j;
    also the coordinates of its strictly upper part, the radical."""
    idx = [(i, j) for i in range(n) for j in range(i, n)]
    pos = {p: k for k, p in enumerate(idx)}
    t = np.zeros((len(idx),) * 3, dtype=np.complex128)
    for (i, j), a in pos.items():
        for k in range(j, n):
            t[a, pos[j, k], pos[i, k]] = 1.0        # E_ij E_jk = E_ik
    return rad.AssocAlgebra(table=t), [pos[i, j] for i, j in idx if i < j]


def _rotated(cols, rng):
    # an orthonormal basis of the same span whose products carry rounding noise
    r = cols.shape[1]
    q, _ = np.linalg.qr(rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
    return cols @ q


@pytest.mark.parametrize("factor", [1e-12, 1e-6, 1.0, 1e6, 1e12])
def test_nilpotency_chain_accepts_strictly_upper(factor):
    rng = np.random.default_rng(17)
    for n, dim in ((4, 6), (6, 15), (8, 28)):
        alg, strict = _upper_triangular(n)
        assert len(strict) == dim
        scaled = rad.AssocAlgebra(table=factor * alg.table)
        exact = np.eye(alg.dim, dtype=np.complex128)[:, strict]
        rad._certify_nilpotent(scaled, exact, 1e-9)
        rad._certify_nilpotent(scaled, _rotated(exact, rng), 1e-9)


def _scalar_plus_strict_t3():
    # C e (e e = e) beside span{x, y, z} with x y = z: the powers of the whole
    # algebra are span{e, z}, then span{e}, which stays
    t = np.zeros((4, 4, 4), dtype=np.complex128)
    t[0, 0, 0] = t[1, 2, 3] = 1.0
    return rad.AssocAlgebra(table=t)


@pytest.mark.parametrize("factor", [1e-12, 1e-6, 1.0, 1e6, 1e12])
def test_nilpotency_chain_rejects_non_nilpotent_ideals(factor):
    rng = np.random.default_rng(18)
    cases = [(rad.matrix_algebra(2), "stalls at 4 after step 1"),
             (_upper_triangular(4)[0], "stalls at 10 after step 1"),
             (_scalar_plus_strict_t3(), "stalls at 1 after step 3")]
    for alg, message in cases:
        scaled = rad.AssocAlgebra(table=factor * alg.table)
        whole = np.eye(alg.dim, dtype=np.complex128)
        for basis in (whole, _rotated(whole, rng)):
            with pytest.raises(DecompositionInconclusive, match=message):
                rad._certify_nilpotent(scaled, basis, 1e-9)


def test_jacobson_radical_certifies_the_trace_form():
    # M_3 beside C with e e = 1e-8 e is semisimple, but the trace form of e
    # falls below tol against the M_3 traces, so the criterion alone calls e
    # radical; its powers never vanish
    t = np.zeros((10, 10, 10), dtype=np.complex128)
    t[:9, :9, :9] = rad.matrix_algebra(3).table
    t[9, 9, 9] = 1e-8
    with pytest.raises(DecompositionInconclusive, match="stalls at 1 after step 1"):
        rad.jacobson_radical(rad.AssocAlgebra(table=t))


def test_jacobson_radical_is_invariant_under_rescaling():
    for n, dim in ((4, 6), (8, 28)):
        alg, strict = _upper_triangular(n)
        for factor in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            basis = rad.jacobson_radical(rad.AssocAlgebra(table=factor * alg.table))
            assert basis.shape[1] == dim, (n, factor)
            assert np.abs(np.delete(basis, strict, axis=0)).max() <= 1e-12


def _nonzero_ternary_radicals():
    # c[0, 0, 0, 0] = 1 leaves b_1 outside every product: Rad = span{b_1};
    # the zero ring is its own radical
    c = np.zeros((2, 2, 2, 2), dtype=np.complex128)
    c[0, 0, 0, 0] = 1.0
    return [(tern.TernarySpace.from_structure(c), np.array([[0.0], [1.0]])),
            (tern.TernarySpace.from_structure(np.zeros((3,) * 4)), np.eye(3))]


def test_nonzero_ternary_radicals():
    for m, want in _nonzero_ternary_radicals():
        basis = rad.ternary_radical(m)
        assert basis.shape == want.shape
        assert mk.subspace_distance(basis, want) <= 1e-12


def test_radicals_solve_no_quasi_inverses(monkeypatch, catalog):
    def boom(*args, **kwargs):
        raise AssertionError("radicals are certified without quasi-inverse solves")

    monkeypatch.setattr(rad, "quasi_inverse_assoc", boom)
    monkeypatch.setattr(rad, "quasi_inverse_ternary", boom)
    monkeypatch.setattr(np.random, "default_rng", boom)
    assert rad.jacobson_radical(_upper_triangular(4)[0]).shape[1] == 6
    for m, want in _nonzero_ternary_radicals():
        assert rad.ternary_radical(m).shape[1] == want.shape[1]
    assert rad.ternary_radical(dict(catalog)["mix-full-scalar"]).shape[1] == 0


def test_radical_of_embeddings_vanishes(catalog):
    for _, m in catalog[:12]:
        e = emb.build_embedding(m)
        alg = rad.assoc_of_embedding(e)
        assert rad.jacobson_radical(alg).shape[1] == 0


def test_radical_star_invariance(anti_m2, nilpotent_2d):
    assert rad.radical_is_star_invariant(anti_m2, rad.jacobson_radical(anti_m2))
    with pytest.raises(PreconditionFailed):
        rad.radical_is_star_invariant(nilpotent_2d, np.zeros((2, 0)))


def test_ternary_radical_examples(catalog):
    for _, m in catalog[:10]:
        assert rad.ternary_radical(m).shape[1] == 0


def test_ternary_radical_structure_route():
    for m in (tern.scalar_space(+1), tern.scalar_space(-1),
              tern.direct_sum(tern.scalar_space(+1), tern.scalar_space(-1)),
              tern.diagonal_space(2, +1)):
        ms = tern.as_structure_space(m)
        assert rad.ternary_radical(ms).shape[1] == 0


def test_structure_envelope_reproduces_anti_table():
    ms = tern.as_structure_space(tern.scalar_space(-1))
    alg, m_idx = rad.structure_envelope(ms)
    assert alg.dim == 4
    alg.validate()
    # the embedded copy of M sits in the declared slot
    assert list(m_idx) == [1]
    unit = alg.unit()
    assert unit is not None
    pi = np.argmax(np.abs(unit))
    assert unit[pi] != 0


def test_radical_peirce_splitting():
    # Rad of the embedding algebra splits across the four corners (here all 0)
    m = tern.direct_sum(tern.full_matrix_space(2, 2, +1), tern.scalar_space(-1))
    e = emb.build_embedding(m)
    alg = rad.assoc_of_embedding(e)
    basis = rad.jacobson_radical(alg)
    assert basis.shape[1] == 0


def test_corner_equivalence_examples():
    mp = tern.scalar_space(+1)
    assert rad.check_corner_qi_equivalence(mp, [1], [0.5])
    assert rad.check_corner_qi_equivalence(mp, [1], [1])


def test_corner_equivalence_random(catalog):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BorderlineWarning)
        for _, m in catalog[:6]:
            e = emb.build_embedding(m)
            alg = rad.assoc_of_embedding(e)
            assert rad.check_corner_qi_equivalence(
                m, trials=30, seed=1, embedding=e, algebra=alg)


def test_symmetry_principle(anti_m2):
    c = rad.AssocAlgebra(table=np.ones((1, 1, 1), dtype=np.complex128))
    assert rad.check_symmetry_principle(c, [0], [1])
    assert rad.check_symmetry_principle(c, [1], [1])
    m2 = rad.matrix_algebra(2)
    rng = np.random.default_rng(2)
    for _ in range(100):
        x, y = m2.random_element(rng), m2.random_element(rng)
        assert rad.check_symmetry_principle(m2, x, y)
    for _ in range(100):
        x, y = anti_m2.random_element(rng), anti_m2.random_element(rng)
        assert rad.check_symmetry_principle(anti_m2, x, y)


def test_shifting_principle_identity_maps(anti_m2):
    rng = np.random.default_rng(3)
    eye = np.eye(4, dtype=np.complex128)
    x, y = anti_m2.random_element(rng), anti_m2.random_element(rng)
    assert rad.check_shifting_principle(anti_m2, eye, eye, x, y)


def test_shifting_principle_compressions():
    m = tern.direct_sum(tern.scalar_space(+1), tern.scalar_space(-1))
    e = emb.build_embedding(m)
    alg = rad.assoc_of_embedding(e)
    comp = rad.corner_compressions(e)
    rng = np.random.default_rng(4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BorderlineWarning)
        for _ in range(50):
            x, y = alg.random_element(rng), alg.random_element(rng)
            assert rad.check_shifting_principle(alg, comp["LL"], comp["LL"], x, y,
                                                validate=False)
            assert rad.check_shifting_principle(alg, comp["LR"], comp["RL"], x, y,
                                                validate=False)
    # the compression identities themselves validate
    rad._validate_shifting_maps(alg, comp["LL"], comp["LL"], tol=1e-8)
    rad._validate_shifting_maps(alg, comp["LR"], comp["RL"], tol=1e-8)


def test_shifting_principle_rejects_bad_maps(anti_m2):
    rng = np.random.default_rng(5)
    bad = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    with pytest.raises(PreconditionFailed):
        rad.check_shifting_principle(anti_m2, bad, bad, [1, 0, 0, 0], [0, 1, 0, 0])


def test_shifting_residual_matches_reference(anti_m2):
    # f(b_i) b_j f(b_k) against f(b_i g(b_j) b_k), one basis triple at a time;
    # the first pair (f, g) already fails, so its residual is the one reported
    rng = np.random.default_rng(6)
    f, g = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(2))
    eye, mul = np.eye(4, dtype=np.complex128), anti_m2.mul
    ref = max(np.abs(mul(mul(f @ x, y), f @ z) - f @ mul(mul(x, g @ y), z)).max()
              for x in eye for y in eye for z in eye)
    ref /= max(1.0, np.abs(anti_m2.table).max() ** 2)
    with pytest.raises(PreconditionFailed, match=re.escape(f"residual {ref:.2e}")):
        rad._validate_shifting_maps(anti_m2, f, g, tol=1e-8)


def test_unit_detection(anti_m2, nilpotent_2d, scalar_c):
    assert np.allclose(anti_m2.unit(), [-1, 0, 0, -1])
    assert np.allclose(nilpotent_2d.unit(), [1, 0])
    assert np.allclose(scalar_c.unit(), [1])
    # a unital-free algebra: 1-dim with zero product
    zero_alg = rad.AssocAlgebra(table=np.zeros((1, 1, 1), dtype=np.complex128))
    assert zero_alg.unit() is None


def test_principal_ideal_criterion_scalar_consistency():
    # On a 1-dim instance the principal-ideal radical criterion reduces to:
    # nonzero x has a homotope u = sign / conj(x) where the quasi-inverse
    # equation y (1 - sign conj(u) x) = x degenerates, so x is not radical.
    # In floats the witness lands next to the singular set, so the
    # signature is either no solve or a blown-up solution.
    rng = np.random.default_rng(6)
    for sign in (+1, -1):
        m = tern.scalar_space(sign)
        assert rad.ternary_radical(m).shape[1] == 0
        for _ in range(25):
            x = complex(rng.standard_normal(), rng.standard_normal())
            u = sign / np.conj(x)
            assert abs(1.0 - sign * np.conj(u) * x) <= 1e-12
            cert = rad.quasi_inverse_ternary(m, [x], [u])
            assert cert is None or np.abs(cert.y).max() >= 1e8
            # away from the witness the homotope solve is tame
            cert = rad.quasi_inverse_ternary(m, [x], [0.5 * u])
            assert cert is not None and np.abs(cert.y).max() <= 10 * abs(x)
        assert rad.quasi_inverse_ternary(m, [0.0], [1.0]).y[0] == 0


def test_borderline_warning_emitted():
    c = rad.AssocAlgebra(table=np.ones((1, 1, 1), dtype=np.complex128))
    # an acceptance threshold below machine precision lands every normal
    # solve in the gray band, which must warn instead of deciding
    with pytest.warns(BorderlineWarning):
        out = rad.quasi_inverse_assoc(c, [1.0], [0.5], tol=1e-18)
    assert out is None


def test_structure_envelope_reproduces_triple(catalog):
    # (x in M)(ybar in Mbar)(z in M) is [xyz] in the M slot, either way round
    rng = np.random.default_rng(12)
    for _, m in catalog:
        if m.dim > 6:
            continue
        ms, _ = scramble(m, rng)
        d = ms.dim
        alg, m_idx = rad.structure_envelope(ms)
        x, y, z = (rng.standard_normal((5, d)) + 1j * rng.standard_normal((5, d))
                   for _ in range(3))

        def put(v, idx):
            out = np.zeros((5, alg.dim), dtype=np.complex128)
            out[:, idx] = v
            return out

        # the Mbar slot follows M and stores conjugated coordinates
        xe, ye, ze = put(x, m_idx), put(y.conj(), m_idx + d), put(z, m_idx)
        want = put(tern._triple_coords(ms, x, y, z), m_idx)
        scale = max(1.0, float(np.abs(want).max()))
        for got in (alg.mul(alg.mul(xe, ye), ze), alg.mul(xe, alg.mul(ye, ze))):
            assert np.abs(got - want).max() <= 1e-10 * scale


def test_validate_detects_corruption():
    alg = rad.matrix_algebra(3)
    alg.validate()
    t = np.array(alg.table)
    t[1, 3, 0] += 1e-3
    with pytest.raises(InvalidInput, match="not associative"):
        rad.AssocAlgebra(table=t).validate()


def test_products_match_einsum(catalog):
    rng = np.random.default_rng(16)
    d = 5
    table = rng.standard_normal((d, d, d)) + 1j * rng.standard_normal((d, d, d))
    algebras = [rad.AssocAlgebra(table=table), rad.matrix_algebra(3),
                rad.assoc_of_embedding(emb.build_embedding(catalog[13][1]))]
    for alg in algebras:
        t, d = alg.table, alg.dim
        x, y = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(2))
        assert np.allclose(alg.left_op(x), np.einsum("ijl,i->lj", t, x), atol=1e-12)
        assert np.allclose(alg.right_op(x), np.einsum("ijl,j->li", t, x), atol=1e-12)
        for xs, ys in (((d,), (d,)), ((4, d), (4, d)), ((4, d), (d,)),
                       ((d,), (3, 4, d)), ((3, 1, d), (4, d))):
            xv = rng.standard_normal(xs) + 1j * rng.standard_normal(xs)
            yv = rng.standard_normal(ys) + 1j * rng.standard_normal(ys)
            want = np.einsum("ijl,...i,...j->...l", t, xv, yv)
            got = alg.mul(xv, yv)
            assert got.shape == want.shape
            assert np.allclose(got, want, atol=1e-12)


def test_matrix_algebra_matches_loop():
    for n in range(1, 6):
        d = n * n
        table = np.zeros((d, d, d), dtype=np.complex128)
        star = np.zeros((d, d), dtype=np.complex128)
        for i in range(n):
            for j in range(n):
                star[j * n + i, i * n + j] = 1.0
                for k in range(n):
                    for l in range(n):
                        if j == k:
                            table[i * n + j, k * n + l, i * n + l] = 1.0
        alg = rad.matrix_algebra(n)
        assert np.array_equal(alg.table, table)
        assert np.array_equal(alg.star, star)


def test_structure_envelope_fails_on_overflow():
    # c = 1e200: the 2-norms of the span check overflow, which must not pass it
    m = tern.TernarySpace.from_structure(np.full((1, 1, 1, 1), 1e200), validate=False)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DecompositionInconclusive):
        rad.ternary_radical(m)


@pytest.mark.parametrize("factor", [1e-4, 1e-8])
def test_table_validation_is_scale_invariant(factor):
    t = np.array(rad.matrix_algebra(2).table)
    rad.AssocAlgebra(table=factor * t).validate()
    t[0, 0, 1] += 0.1
    with pytest.raises(InvalidInput, match="not associative"):
        rad.AssocAlgebra(table=factor * t).validate()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_shifting_maps_validate_past_squared_overflow(anti_m2):
    eye = np.eye(4, dtype=np.complex128)
    rad._validate_shifting_maps(rad.AssocAlgebra(table=1e200 * anti_m2.table), eye, eye, tol=1e-8)
