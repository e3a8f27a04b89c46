import itertools

import numpy as np
import pytest

from conftest import scramble
from ternlab import matkernel as mk
from ternlab import ternary as tern
from ternlab.errors import (
    DecompositionInconclusive,
    InvalidInput,
    NormUnavailable,
    ShapeError,
)

E11 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
E12 = np.array([[0, 1], [0, 0]], dtype=np.complex128)
E21 = np.array([[0, 0], [1, 0]], dtype=np.complex128)


def test_triple_scalar_signs():
    mp, mm = tern.scalar_space(+1), tern.scalar_space(-1)
    assert tern.triple(mp, [1], [1], [1]).coords[0] == pytest.approx(1)
    assert tern.triple(mm, [1], [1], [1]).coords[0] == pytest.approx(-1)


def test_triple_mixed_blockwise():
    m = tern.direct_sum(tern.scalar_space(+1), tern.scalar_space(-1))
    out = tern.triple(m, [1, 2], [1, 2], [1, 2]).coords
    assert np.allclose(out, [1, -8])


def test_triple_conjugate_linear_middle():
    rng = np.random.default_rng(0)
    m = tern.full_matrix_space(2, 2, -1)
    for _ in range(100):
        x, y, z = (m.random_element(rng) for _ in range(3))
        lam = complex(rng.standard_normal(), rng.standard_normal())
        lhs = tern.triple(m, x, tern.TernaryElement(lam * y.coords), z).coords
        rhs = np.conj(lam) * tern.triple(m, x, y, z).coords
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1, np.linalg.norm(rhs))


def test_closure_examples():
    assert tern.ternary_closure([E11], +1).dim == 1
    assert tern.ternary_closure([E12, E21], +1).dim == 2
    with pytest.raises(InvalidInput):
        tern.ternary_closure([np.zeros((2, 2))], +1)
    with pytest.raises(InvalidInput):
        tern.ternary_closure([], +1)


def test_structure_constants_examples():
    assert tern.structure_constants_of(tern.scalar_space(+1)).c[0, 0, 0, 0] == 1
    assert tern.structure_constants_of(tern.scalar_space(-1)).c[0, 0, 0, 0] == -1
    c = tern.structure_constants_of(tern.diagonal_space(2, +1)).c
    assert c[0, 0, 0, 0] == 1 and c[1, 1, 1, 1] == 1
    mixed_mask = np.ones((2, 2, 2, 2), dtype=bool)
    mixed_mask[0, 0, 0, 0] = mixed_mask[1, 1, 1, 1] = False
    assert np.abs(c[mixed_mask]).max() == 0


def test_structure_constants_reproduce_triple(catalog):
    rng = np.random.default_rng(1)
    for _, m in catalog[:8]:
        c = tern.structure_constants_of(m)
        x, y, z = (m.random_element(rng).coords for _ in range(3))
        via_tensor = np.einsum("ijkl,i,j,k->l", c.c, x, y.conj(), z)
        direct = tern.triple(m, x, y, z).coords
        assert np.linalg.norm(via_tensor - direct) <= 1e-10 * max(
            1, np.linalg.norm(direct))


def test_cube_root_examples():
    mp, mm = tern.scalar_space(+1), tern.scalar_space(-1)
    assert tern.cube_root(mp, [8]).coords[0] == pytest.approx(2)
    assert tern.cube_root(mm, [8]).coords[0] == pytest.approx(-2)
    assert np.allclose(tern.cube_root(mp, [0]).coords, [0])


def test_cube_root_round_trip(catalog):
    rng = np.random.default_rng(2)
    for _, m in catalog:
        for _ in range(10):
            a = m.random_element(rng)
            b = tern.cube_root(m, a)
            err = m.norm(tern.triple(m, b, b, b).coords - a.coords)
            assert err <= 1e-8 * max(1.0, m.norm(a))


def test_cube_root_unavailable_for_structure():
    ms = tern.as_structure_space(tern.scalar_space(+1))
    with pytest.raises(NormUnavailable):
        tern.cube_root(ms, [8])


def test_check_axioms_block_instances(catalog):
    for _, m in catalog[:6]:
        rep = tern.check_axioms(m)
        assert rep.passed, rep.residuals
        assert set(rep.residuals) == {"closure"}


def test_check_axioms_structure_flags_norms():
    ms = tern.as_structure_space(tern.diagonal_space(2, +1))
    rep = tern.check_axioms(ms)
    assert rep.passed
    assert set(rep.residuals) == {"assoc_basis"}


def test_check_axioms_detects_corruption():
    c = np.array(tern.structure_constants_of(tern.diagonal_space(2, +1)).c)
    c[0, 1, 1, 0] += 0.1
    bad = tern.TernarySpace.from_structure(c, validate=False)
    rep = tern.check_axioms(bad)
    assert not rep.passed
    name, worst = rep.worst()
    assert worst >= 0.05
    assert name.startswith("assoc")


def test_from_structure_validates():
    c = np.array(tern.structure_constants_of(tern.diagonal_space(2, +1)).c)
    c[0, 1, 1, 0] += 0.1
    with pytest.raises(InvalidInput):
        tern.TernarySpace.from_structure(c)


def test_norm_axioms_sampled(catalog):
    # ||[xyz]|| <= ||x|| ||y|| ||z|| and ||[xxx]|| = ||x||^3
    rng = np.random.default_rng(6)
    for _, m in catalog[:10]:
        for _ in range(50):
            x, y, z = (m.random_element(rng) for _ in range(3))
            nx, ny, nz = m.norm(x), m.norm(y), m.norm(z)
            assert m.norm(tern.triple(m, x, y, z)) <= nx * ny * nz + 1e-8
            assert abs(m.norm(tern.triple(m, x, x, x)) - nx ** 3) <= 1e-8 * nx ** 3


def test_opposite_involution_and_signs():
    m = tern.direct_sum(tern.scalar_space(+1), tern.full_matrix_space(2, 2, -1))
    op = tern.opposite(m)
    assert [b.sign for b in op.blocks] == [-1, +1]
    opop = tern.opposite(op)
    assert [b.sign for b in opop.blocks] == [b.sign for b in m.blocks]
    for b1, b2 in zip(m.blocks, opop.blocks):
        assert all(np.array_equal(x, y) for x, y in zip(b1.basis, b2.basis))


def test_opposite_structure_tensor():
    ms = tern.as_structure_space(tern.scalar_space(+1))
    assert tern.opposite(ms).structure.c[0, 0, 0, 0] == -1


def test_zettl_block_cases():
    mp = tern.full_matrix_space(2, 2, +1)
    sp = tern.zettl_decompose(mp)
    assert (sp.plus.dim, sp.minus.dim) == (4, 0)
    mm = tern.full_matrix_space(2, 2, -1)
    sm = tern.zettl_decompose(mm)
    assert (sm.plus.dim, sm.minus.dim) == (0, 4)
    plus, minus = tern.zettl_decompose(tern.direct_sum(mp, mm))
    assert (plus.dim, minus.dim) == (4, 4)


def test_zettl_mixed_basis_recovery():
    m = tern.direct_sum(tern.scalar_space(+1), tern.scalar_space(-1))
    c = tern.structure_constants_of(m).c
    s = np.array([[1, 1], [1, -1]], dtype=np.complex128)
    si = np.linalg.inv(s)
    c2 = np.einsum("pqrs,pi,qj,rk,ls->ijkl", c, s, s.conj(), s, si)
    ms = tern.TernarySpace.from_structure(c2)
    split = tern.zettl_decompose(ms)
    assert (split.plus.dim, split.minus.dim) == (1, 1)
    e0 = np.zeros((2, 1)); e0[0, 0] = 1
    e1 = np.zeros((2, 1)); e1[1, 0] = 1
    p_orig = mk.colspace(s @ split.plus_coords)
    n_orig = mk.colspace(s @ split.minus_coords)
    assert mk.subspace_distance(p_orig, e0.astype(complex)) <= 1e-8
    assert mk.subspace_distance(n_orig, e1.astype(complex)) <= 1e-8


def test_zettl_idempotent():
    m = tern.full_matrix_space(2, 2, +1)
    split = tern.zettl_decompose(m)
    again = tern.zettl_decompose(split.plus)
    assert again.plus.dim == 4 and again.minus.dim == 0
    ms = tern.as_structure_space(m)
    again = tern.zettl_decompose(ms)
    assert again.plus is ms and again.minus.dim == 0


def test_zettl_cross_products_vanish():
    rng = np.random.default_rng(7)
    m = tern.direct_sum(tern.full_matrix_space(2, 2, +1), tern.diagonal_space(2, -1))
    split = tern.zettl_decompose(m)
    p, n = split.plus_coords, split.minus_coords
    for i in range(p.shape[1]):
        for j in range(n.shape[1]):
            for k in range(m.dim):
                e = np.zeros(m.dim); e[k] = 1
                for args in ((p[:, i], n[:, j], e), (n[:, j], p[:, i], e)):
                    out = tern.triple(m, *args).coords
                    assert np.abs(out).max() <= 1e-8


def test_zettl_quadratic_operator_sign(catalog):
    # r(f, f) has nonnegative spectrum on the plus part, nonpositive on minus
    def right_mult_operator(m, f):
        """Matrix of g -> [g f f] over the coordinate basis."""
        d = m.dim
        eye = np.eye(d, dtype=np.complex128)
        f = np.broadcast_to(f, (d, d))
        return tern._triple_coords(m, eye, f, f).T

    rng = np.random.default_rng(8)
    m = tern.direct_sum(tern.full_matrix_space(2, 1, +1), tern.scalar_space(-1))
    split = tern.zettl_decompose(m)
    for _ in range(20):
        fp = split.plus_coords @ (rng.standard_normal(split.plus.dim)
                                  + 1j * rng.standard_normal(split.plus.dim))
        w = right_mult_operator(m, fp)
        assert np.linalg.eigvals(w).real.min() >= -1e-8
        fm = split.minus_coords @ (rng.standard_normal(split.minus.dim)
                                   + 1j * rng.standard_normal(split.minus.dim))
        w = right_mult_operator(m, fm)
        assert np.linalg.eigvals(w).real.max() <= 1e-8


def test_zettl_opposite_swaps():
    m = tern.direct_sum(tern.full_matrix_space(2, 2, +1), tern.scalar_space(-1))
    sp = tern.zettl_decompose(m)
    so = tern.zettl_decompose(tern.opposite(m))
    assert (so.plus.dim, so.minus.dim) == (sp.minus.dim, sp.plus.dim)
    ms, s = tern.as_structure_space(m), None
    so = tern.zettl_decompose(tern.opposite(ms))
    assert (so.plus.dim, so.minus.dim) == (sp.minus.dim, sp.plus.dim)


def test_zettl_inconclusive_on_degenerate_tensor():
    # zero triple product is associative but carries no sign information
    z = tern.TernarySpace.from_structure(np.zeros((2, 2, 2, 2)))
    with pytest.raises(DecompositionInconclusive):
        tern.zettl_decompose(z)


def test_triple_shape_mismatch():
    with pytest.raises(ShapeError):
        tern.triple(tern.scalar_space(1), [1, 2], [1], [1])


def test_jbstar_box_examples():
    mp, mm = tern.scalar_space(+1), tern.scalar_space(-1)
    rp = tern.jbstar_box_check(mp, [1])
    assert rp.passed
    assert np.allclose(sorted(rp.eigenvalues.real), [0, 1], atol=1e-10)
    rm = tern.jbstar_box_check(mm, [1])
    assert not rm.passed
    assert np.allclose(sorted(rm.eigenvalues.real), [-1, 0], atol=1e-10)
    assert tern.jbstar_box_check(mm, [0]).passed


def test_jbstar_separates_parts():
    rng = np.random.default_rng(9)
    m = tern.direct_sum(tern.full_matrix_space(2, 2, +1), tern.diagonal_space(2, -1))
    split = tern.zettl_decompose(m)
    for _ in range(50):
        a = split.plus_coords @ (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        assert tern.jbstar_box_check(m, a).passed
        b = split.minus_coords @ (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        assert not tern.jbstar_box_check(m, b).passed


def test_associativity_on_random_quintuples(catalog):
    # [[xyz]uv] = [x[uzy]v] = [xy[zuv]] on 500 quintuples, relative to their
    # norms times the square of the product's size on them
    rng = np.random.default_rng(10)
    t = tern._triple_coords
    for _, m in catalog:
        shape = (5, 500, m.dim)
        xs, ys, zs, us, vs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        xyz = t(m, xs, ys, zs)
        lhs = t(m, xyz, us, vs)
        norms = [np.linalg.norm(w, axis=1) for w in (xs, ys, zs, us, vs)]
        size = np.max(np.linalg.norm(xyz, axis=1) / np.prod(norms[:3], axis=0))
        scale = np.prod(norms, axis=0) * size ** 2
        for rhs in (t(m, xs, t(m, us, zs, ys), vs), t(m, xs, ys, t(m, zs, us, vs))):
            assert np.max(np.linalg.norm(lhs - rhs, axis=1) / scale) <= 1e-8


@pytest.mark.parametrize("d", [0, 1, 3, 6, 16])
def test_structure_triple_matches_einsum(d):
    rng = np.random.default_rng(d)

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    c = draw(d, d, d, d)
    m = tern.TernarySpace(structure=tern.StructureConstants(d, c))
    n = 2 * d + 1
    # 1001 rows span several row chunks for d >= 6 and end in a partial one
    for shapes in (((d,),) * 3, ((1001, d),) * 3, ((2, 3, d),) * 3,
                   ((d,), (n, d), (2, n, d))):
        xs, ys, zs = (draw(*s) for s in shapes)
        got = tern._triple_coords(m, xs, ys, zs)
        ref = np.einsum("ijkl,...i,...j,...k->...l", c, xs, ys.conj(), zs,
                        optimize=False)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max(initial=0.0) <= 1e-12 * np.abs(ref).max(initial=0.0)


def test_basis_triples_match_reference(catalog):
    for _, m in catalog:
        for b in m.blocks:
            ref = np.einsum("iab,jcb,kcd->ijkad", b.stack, b.stack.conj(), b.stack)
            got = tern._basis_triples(b.stack)
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def _assoc_residual_reference(c):
    """The basis-level associativity residual, one quintuple at a time."""
    d = c.shape[0]
    worst = 0.0
    for i, j, k, u, v in itertools.product(range(d), repeat=5):
        lhs = c[i, j, k] @ c[:, u, v]           # [[b_i b_j b_k] b_u b_v]
        mid = c[u, k, j].conj() @ c[i, :, v]    # [b_i [b_u b_k b_j] b_v]
        rgt = c[k, u, v] @ c[i, j]              # [b_i b_j [b_k b_u b_v]]
        worst = max(worst, np.abs(lhs - mid).max(), np.abs(lhs - rgt).max())
    return worst / np.abs(c).max() ** 2


def test_associativity_residual_matches_reference(catalog):
    ms, _ = scramble(dict(catalog)["full-2x2-anti"], np.random.default_rng(8))
    c = np.array(ms.structure.c)
    ref = _assoc_residual_reference(c)
    assert ms.structure.associativity_residual() == pytest.approx(ref, rel=1e-12, abs=1e-14)
    c[1, 2, 0, 3] += 1e-3 * np.abs(c).max()
    bad = tern.StructureConstants(4, c)
    ref = _assoc_residual_reference(c)
    assert ref > 1e-5
    assert bad.associativity_residual() == pytest.approx(ref, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("factor", [1e-8, 1e5, 1e8, 1e100, 1e200])
def test_check_axioms_is_invariant_under_rescaling(factor):
    # the basis associativity residual is of degree 0 in c
    c = tern.structure_constants_of(tern.full_matrix_space(2, 2, +1)).c
    rep = tern.check_axioms(tern.TernarySpace.from_structure(factor * c))
    assert rep.passed, rep.residuals
    bad = np.array(c)
    bad[0, 1, 1, 0] += 0.1
    base = tern.check_axioms(tern.TernarySpace.from_structure(bad, validate=False)).residuals
    rep = tern.check_axioms(tern.TernarySpace.from_structure(factor * bad, validate=False))
    assert rep.residuals["assoc_basis"] > 1e-2
    assert rep.residuals["assoc_basis"] == pytest.approx(base["assoc_basis"], rel=1e-9)


@pytest.mark.parametrize("factor", [1e-4, 1e-8])
def test_structure_validation_is_scale_invariant(factor):
    # a 0.1 one-entry corruption fails at every scale: on the sparse sweep
    # (matrix units) and on the certificate and dense sweep (a scramble)
    m = tern.full_matrix_space(2, 2, +1)
    for c in (tern.structure_constants_of(m).c,
              scramble(m, np.random.default_rng(14))[0].structure.c):
        tern.StructureConstants(4, factor * c).validate()
        bad = np.array(c)
        bad[0, 1, 1, 0] += 0.1 * np.abs(c).max()
        with pytest.raises(InvalidInput, match="associativity"):
            tern.StructureConstants(4, factor * bad).validate()


@pytest.mark.parametrize("factor", [1.0, 1e-4, 1e-8])
def test_block_closure_is_scale_invariant(factor):
    e22 = np.diag([0.0, 1.0]).astype(np.complex128)
    tern.SignedBlock(+1, 2, 2, (factor * E11, factor * e22)).validate()
    with pytest.raises(InvalidInput, match="product-closed"):
        tern.SignedBlock(+1, 2, 2, (factor * np.diag([1.0, 2.0]),)).validate()


def test_raw_coordinates_must_be_finite():
    m = tern.full_matrix_space(1, 2, -1)
    for bad in ([np.nan, 0.0], [0.0, np.inf]):
        with pytest.raises(InvalidInput, match="non-finite"):
            tern.triple(m, bad, [1.0, 0.0], [1.0, 0.0])
