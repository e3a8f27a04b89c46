import dataclasses

import numpy as np
import pytest

from conftest import cstar_identity_residual
from ternlab import embedding as emb
from ternlab import ternary as tern
from ternlab.errors import DecompositionInconclusive, NormUnavailable, NotAnIdeal

EYE4 = np.eye(4, dtype=np.complex128)

# cell (i, j): product of basis elements E_i . E_j in the twisted algebra
ANTI_TABLE = {
    (0, 0): -EYE4[0], (0, 1): -EYE4[1], (0, 2): 0 * EYE4[0], (0, 3): 0 * EYE4[0],
    (1, 0): 0 * EYE4[0], (1, 1): 0 * EYE4[0], (1, 2): EYE4[0], (1, 3): -EYE4[1],
    (2, 0): -EYE4[2], (2, 1): EYE4[3], (2, 2): 0 * EYE4[0], (2, 3): 0 * EYE4[0],
    (3, 0): 0 * EYE4[0], (3, 1): 0 * EYE4[0], (3, 2): -EYE4[2], (3, 3): -EYE4[3],
}


@pytest.fixture(scope="module")
def anti_embedding():
    return emb.build_embedding(tern.scalar_space(-1))


@pytest.fixture(scope="module")
def tro_embedding():
    return emb.build_embedding(tern.scalar_space(+1))


def test_anti_multiplication_table(anti_embedding):
    e = anti_embedding
    assert e.dim == 4
    for (i, j), want in ANTI_TABLE.items():
        got = emb.emb_mul(e, EYE4[i], EYE4[j]).coords
        assert np.array_equal(got, want), (i, j, got, want)


def test_tro_embedding_is_matrix_product(tro_embedding):
    e = tro_embedding
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = (rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(2))
        got = emb.emb_mul(e, a, b).coords
        want = (a.reshape(2, 2) @ b.reshape(2, 2)).ravel()
        assert np.allclose(got, want, atol=1e-12)


def test_mixed_embedding_dimension():
    m = tern.direct_sum(tern.scalar_space(+1), tern.scalar_space(-1))
    e = emb.build_embedding(m)
    assert e.dim == 8
    assert {k: v.size for k, v in e.corner_indices.items()} == {
        "L": 2, "M": 2, "Mbar": 2, "R": 2}


def test_build_embedding_requires_blocks():
    ms = tern.as_structure_space(tern.scalar_space(+1))
    with pytest.raises(NormUnavailable):
        emb.build_embedding(ms)


def test_star_examples(anti_embedding):
    e = anti_embedding
    assert np.array_equal(emb.emb_star(e, EYE4[1]).coords, EYE4[2])  # E12* = E21
    # (E11 . E12)* = -E21
    p = emb.emb_mul(e, EYE4[0], EYE4[1]).coords
    assert np.array_equal(emb.emb_star(e, p).coords, -EYE4[2])


def test_twisted_product_matches_corner_formulas():
    # entrywise check of the sign-twisted rule on random elements
    rng = np.random.default_rng(11)
    m = tern.full_matrix_space(2, 2, -1)
    e = emb.build_embedding(m)
    for _ in range(50):
        x, y = e.random_element(rng).coords, e.random_element(rng).coords
        big_x, big_y = e.materialize(x)[0], e.materialize(y)[0]
        r = 2
        al, z, ws, be = big_x[:r, :r], big_x[:r, r:], big_x[r:, :r], big_x[r:, r:]
        al2, z2, ws2, be2 = big_y[:r, :r], big_y[:r, r:], big_y[r:, :r], big_y[r:, r:]
        want = np.block([
            [-al @ al2 + z @ ws2, -al @ z2 - z @ be2],
            [-ws @ al2 - be @ ws2, ws @ z2 - be @ be2]])
        got = e.materialize(e.mul_coords(x, y))[0]
        assert np.abs(got - want).max() <= 1e-9 * max(1.0, np.abs(want).max())


def test_star_involutive_and_antimultiplicative(catalog):
    rng = np.random.default_rng(1)
    for _, m in catalog[:8]:
        e = emb.build_embedding(m)
        for _ in range(63):
            a, b = e.random_element(rng), e.random_element(rng)
            again = emb.emb_star(e, emb.emb_star(e, a)).coords
            assert np.linalg.norm(again - a.coords) <= 1e-9 * max(
                1, np.linalg.norm(a.coords))
            lhs = emb.emb_star(e, emb.emb_mul(e, a, b)).coords
            rhs = emb.emb_mul(e, emb.emb_star(e, b), emb.emb_star(e, a)).coords
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(1, np.linalg.norm(lhs))


def test_star_conjugate_linear(anti_embedding):
    e = anti_embedding
    rng = np.random.default_rng(2)
    a = e.random_element(rng)
    lam = 0.7 - 1.3j
    lhs = emb.emb_star(e, lam * a.coords).coords
    rhs = np.conj(lam) * emb.emb_star(e, a).coords
    assert np.allclose(lhs, rhs)


def test_identity_examples(anti_embedding, tro_embedding):
    assert np.array_equal(emb.identity_of(anti_embedding).coords,
                          np.array([-1, 0, 0, -1], dtype=np.complex128))
    assert np.array_equal(emb.identity_of(tro_embedding).coords,
                          np.array([1, 0, 0, 1], dtype=np.complex128))
    m = tern.direct_sum(tern.scalar_space(+1), tern.scalar_space(-1))
    e = emb.build_embedding(m)
    unit = emb.identity_of(e)
    assert np.array_equal(unit.coords,
                          np.array([1, 0, 0, 1, -1, 0, 0, -1], dtype=np.complex128))


def test_identity_acts_as_unit(catalog):
    for _, m in catalog[:10]:
        e = emb.build_embedding(m)
        unit = emb.identity_of(e)
        eye = np.eye(e.dim, dtype=np.complex128)
        left = e.mul_coords(unit.coords, eye)
        right = e.mul_coords(eye, unit.coords)
        assert np.abs(left - eye).max() <= 1e-10
        assert np.abs(right - eye).max() <= 1e-10


def test_product_associative_on_basis(catalog):
    rng = np.random.default_rng(3)
    for _, m in catalog[:8]:
        e = emb.build_embedding(m)
        for _ in range(63):
            a, b, c = (e.random_element(rng).coords for _ in range(3))
            lhs = e.mul_coords(e.mul_coords(a, b), c)
            rhs = e.mul_coords(a, e.mul_coords(b, c))
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(1, np.linalg.norm(lhs))


def test_base_embeds_as_subtriple(catalog):
    # [xyz] in M equals the M-corner of x y* z computed in the embedding
    rng = np.random.default_rng(4)
    for _, m in catalog[:10]:
        e = emb.build_embedding(m)
        for _ in range(20):
            x, y, z = (m.random_element(rng) for _ in range(3))
            xh = e.embed_base(x).coords
            yh = e.embed_base(y).coords
            zh = e.embed_base(z).coords
            prod = e.mul_coords(e.mul_coords(xh, e.star_coords(yh)), zh)
            got = prod[e.corner_indices["M"]]
            rest = np.delete(prod, e.corner_indices["M"])
            want = tern.triple(m, x, y, z).coords
            assert np.linalg.norm(got - want) <= 1e-9 * max(1, np.linalg.norm(want))
            assert np.abs(rest).max(initial=0.0) <= 1e-9


def test_pi_examples(tro_embedding):
    e = tro_embedding
    # a = E11 acts as (f', B') -> (f', 0)
    pi = emb.pi_represent(e, EYE4[0])
    assert pi.dim_m == 1 and pi.dim_r == 1
    assert np.allclose(pi.matrix, np.diag([1.0, 0.0]))
    unit = emb.identity_of(e)
    pi_u = emb.pi_represent(e, unit)
    assert np.allclose(pi_u.matrix, np.eye(2))


def test_pi_identity_acts_as_identity(catalog):
    for _, m in catalog[:8]:
        e = emb.build_embedding(m)
        pi_u = emb.pi_represent(e, emb.identity_of(e))
        assert np.abs(pi_u.matrix - np.eye(pi_u.matrix.shape[0])).max() <= 1e-10


def test_pi_homomorphism_and_injectivity(catalog):
    rng = np.random.default_rng(5)
    for _, m in catalog[:10]:
        e = emb.build_embedding(m)
        assert emb.pi_kernel_gap(e) > 1e-9
        for _ in range(25):
            a, b = e.random_element(rng).coords, e.random_element(rng).coords
            lhs = emb.pi_represent(e, e.mul_coords(a, b)).matrix
            rhs = emb.pi_represent(e, a).matrix @ emb.pi_represent(e, b).matrix
            assert np.abs(lhs - rhs).max() <= 1e-9 * max(
                1.0, np.abs(lhs).max(), np.abs(rhs).max())


def test_table_matches_mul_coords(catalog):
    for name, m in catalog:
        e = emb.build_embedding(m)
        eye = np.eye(e.dim, dtype=np.complex128)
        assert e.table.shape == (e.dim,) * 3
        for i in range(e.dim):
            want = e.mul_coords(eye[i][None, :], eye)
            assert np.abs(e.table[i] - want).max() <= 1e-12, (name, i)


def _pi_slot_rows(e):
    idx = np.concatenate([e.corner_indices["M"], e.corner_indices["R"]])
    rows = np.zeros((idx.size, e.dim), dtype=np.complex128)
    rows[np.arange(idx.size), idx] = 1.0
    return rows, idx


def _pi_reference(e, a):
    """pi(a) from direct products of a with the M ⊕ R slot basis."""
    rows, idx = _pi_slot_rows(e)
    return e.mul_coords(a[None, :], rows)[:, idx].T


def _pi_kernel_gap_reference(e):
    rows, idx = _pi_slot_rows(e)
    cols = [e.mul_coords(unit[None, :], rows)[:, idx].ravel()
            for unit in np.eye(e.dim, dtype=np.complex128)]
    s = np.linalg.svd(np.stack(cols, axis=1), compute_uv=False)
    return float(s[-1] / s[0])


def test_pi_matches_slot_basis_reference(catalog):
    rng = np.random.default_rng(15)
    for name, m in catalog:
        e = emb.build_embedding(m)
        assert abs(emb.pi_kernel_gap(e) - _pi_kernel_gap_reference(e)) <= 1e-12, name
        for _ in range(50):
            a = e.random_element(rng).coords
            want = _pi_reference(e, a)
            got = emb.pi_represent(e, a).matrix
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max()), name
        # coordinates with leading batch axes
        batch = np.stack([[e.random_element(rng).coords for _ in range(3)] for _ in range(2)])
        want = np.stack([[_pi_reference(e, a) for a in row] for row in batch])
        got = emb.pi_represent(e, batch).matrix
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max()), name


def test_identity_rejects_corrupted_unit(catalog):
    for name, m in catalog[:10]:
        e = emb.build_embedding(m)
        b = e.blocks[0]
        bad = dataclasses.replace(e, blocks=(dataclasses.replace(b, l_unit=0.5 * b.l_unit),)
                                  + e.blocks[1:])
        with pytest.raises(DecompositionInconclusive, match="unit residual"):
            emb.identity_of(bad)


def test_pi_bounds_zero_element(anti_embedding):
    rep = emb.pi_norm_lower_bounds(anti_embedding, np.zeros(4, dtype=np.complex128))
    assert rep.estimate == 0.0 and rep.ok


def test_pi_bounds_single_slots(anti_embedding):
    e = anti_embedding
    rep = emb.pi_norm_lower_bounds(e, np.array([0, 2.5, 0, 0], dtype=np.complex128))
    assert rep.norm_upper == pytest.approx(2.5)
    assert rep.estimate >= 2.5 - 1e-8
    rep = emb.pi_norm_lower_bounds(e, np.array([1.5, 0, 0, 0], dtype=np.complex128))
    assert rep.norm_alpha == pytest.approx(1.5)
    assert rep.estimate >= 1.5 - 1e-8


def test_pi_bounds_random(catalog):
    rng = np.random.default_rng(6)
    for _, m in catalog[:10]:
        e = emb.build_embedding(m)
        for k in range(5):
            a = e.random_element(rng)
            rep = emb.pi_norm_lower_bounds(e, a)
            assert rep.ok, rep.to_dict()


def test_peirce_split_whole_and_zero():
    m = tern.direct_sum(tern.scalar_space(+1), tern.scalar_space(+1))
    e = emb.build_embedding(m)
    corners = emb.peirce_split(e, np.eye(e.dim, dtype=np.complex128))
    assert corners.dims == tuple(v.size for v in e.corner_indices.values())
    corners = emb.peirce_split(e, np.zeros((e.dim, 0), dtype=np.complex128))
    assert corners.dims == (0, 0, 0, 0)


def test_peirce_split_rejects_non_ideal(anti_embedding):
    with pytest.raises(NotAnIdeal):
        emb.peirce_split(anti_embedding, EYE4[1][:, None])


def test_cstar_witness_examples(anti_embedding, tro_embedding, catalog):
    out = emb.cstar_identity_witness(anti_embedding)
    assert out is not None
    a, gap = out
    assert gap > 0.1
    # (E11 + E21) / sqrt(2): alpha = 1 and lower-left 1
    assert np.allclose(a.coords, np.array([1, 0, 1, 0]) / np.sqrt(2), rtol=0, atol=1e-15)
    assert emb.cstar_identity_witness(tro_embedding) is None
    for name, m in catalog:
        if all(b.sign > 0 for b in m.blocks):
            continue
        e = emb.build_embedding(m)
        a, gap = emb.cstar_identity_witness(e)
        assert abs(e.norm(a) - 1.0) <= 1e-12, name
        assert e.norm(e.mul_coords(e.star_coords(a.coords), a.coords)) <= 1e-12, name
    # derived witness: alpha = 1, z = 1
    e = anti_embedding
    aw = np.array([1, 1, 0, 0], dtype=np.complex128)
    aa = e.mul_coords(e.star_coords(aw), aw)
    big = e.materialize(aa)[0]
    assert np.allclose(big, [[-1, -1], [-1, 1]])
    assert abs(e.norm(aa) - np.sqrt(2)) <= 1e-12
    assert abs(e.norm(aw) ** 2 - 2.0) <= 1e-12
    # E11 is not a witness: ||E11* . E11|| = 1 = ||E11||^2
    e11 = EYE4[0]
    assert abs(e.norm(e.mul_coords(e.star_coords(e11), e11)) - 1.0) <= 1e-12


def test_cstar_identity_holds_on_tro(catalog):
    for name, m in catalog[:10]:
        if any(b.sign < 0 for b in m.blocks):
            continue
        e = emb.build_embedding(m)
        assert cstar_identity_residual(e, samples=200, seed=7) <= 1e-8
