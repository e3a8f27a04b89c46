import dataclasses

import numpy as np
import pytest
import scipy.optimize

from conftest import lattice_spaces
from ternlab import embedding as emb
from ternlab import ideals as idl
from ternlab import matkernel as mk
from ternlab import ternary as tern
from ternlab.errors import InvalidInput, NormUnavailable, NotAnIdeal, ShapeError


@pytest.fixture(scope="module")
def cc_tro():
    return tern.direct_sum(tern.scalar_space(+1), tern.scalar_space(+1))


def _first_coordinate(m):
    return idl.generated_ideal(m, [np.eye(m.dim, dtype=np.complex128)[0]])


def test_is_ideal_trivial_cases(cc_tro):
    assert idl.is_ideal(cc_tro, np.zeros((2, 0)))
    assert idl.is_ideal(cc_tro, np.eye(2, dtype=np.complex128))


def test_is_ideal_first_coordinate(cc_tro):
    assert idl.is_ideal(cc_tro, np.array([[1.0], [0.0]], dtype=np.complex128))


def test_one_dimensional_span_is_a_shape_error():
    # a flat e11 is no column: it must not read as the empty span
    m = tern.full_matrix_space(2, 2, +1)
    e11 = np.eye(4, dtype=np.complex128)[0]
    assert not idl.is_ideal(m, e11[:, None])
    with pytest.raises(ShapeError):
        idl.is_ideal(m, e11)
    with pytest.raises(ShapeError):
        idl.TernaryIdeal(m, e11)


def test_span_with_the_wrong_number_of_rows_is_a_shape_error():
    m = tern.full_matrix_space(2, 2, +1)
    e = emb.build_embedding(m)
    for rows in (3, 5, e.dim):
        with pytest.raises(ShapeError, match="rows"):
            idl.is_ideal(m, np.eye(rows, 1, dtype=np.complex128))
    for rows in (m.dim, e.dim + 1):
        with pytest.raises(ShapeError, match="rows"):
            emb.peirce_split(e, np.eye(rows, 1, dtype=np.complex128))


def test_ideal_basis_with_the_wrong_number_of_rows_is_a_shape_error():
    # used to build an ideal of dimension 1 whose residual raised on first use
    mixed = tern.direct_sum(tern.scalar_space(+1), tern.scalar_space(-1))
    for rows in (1, 5):
        with pytest.raises(ShapeError, match="rows"):
            idl.TernaryIdeal(mixed, np.ones((rows, 1)))


def test_nonfinite_spans_are_invalid_input():
    # an infinite column used to pass is_ideal, make a 0-dimensional ideal
    # and split into the zero ideal
    m = tern.full_matrix_space(2, 2, +1)
    e = emb.build_embedding(m)
    for bad in (np.inf, -np.inf, np.nan):
        col, big = np.zeros((m.dim, 1)), np.zeros((e.dim, 1))
        col[0] = big[e.corner_indices["M"][0]] = bad
        with pytest.raises(InvalidInput):
            idl.is_ideal(m, col)
        with pytest.raises(InvalidInput):
            idl.TernaryIdeal(m, col)
        with pytest.raises(InvalidInput):
            emb.peirce_split(e, big)


def test_is_ideal_rejects_corner_span():
    m = tern.full_matrix_space(2, 2, +1)
    e11 = np.zeros((4, 1), dtype=np.complex128)
    e11[0] = 1.0  # E21 E11* E11 = E21 escapes span{E11}
    assert not idl.is_ideal(m, e11)


def test_generated_ideal_examples(cc_tro):
    assert idl.generated_ideal(cc_tro, [np.zeros(2, dtype=np.complex128)]).dim == 0
    first = _first_coordinate(cc_tro)
    assert first.dim == 1
    assert mk.subspace_distance(
        first.basis, np.array([[1.0], [0.0]], dtype=np.complex128)) <= 1e-10
    m = tern.full_matrix_space(2, 2, +1)
    rng = np.random.default_rng(0)
    g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert idl.generated_ideal(m, [g]).dim == 4


def test_generated_ideals_are_ideals(catalog):
    rng = np.random.default_rng(1)
    for _, m in catalog[:10]:
        g = m.random_element(rng).coords
        ideal = idl.generated_ideal(m, [g])
        assert idl.is_ideal(m, ideal.basis)


def test_embed_ideal_examples(cc_tro):
    e = emb.build_embedding(cc_tro)
    first = _first_coordinate(cc_tro)
    span = idl.embed_ideal(e, first)
    assert span.shape[1] == 4
    corners = emb.peirce_split(e, span)
    assert corners.dims == (1, 1, 1, 1)
    whole = idl.generated_ideal(cc_tro, list(np.eye(2, dtype=np.complex128)))
    assert idl.embed_ideal(e, whole).shape[1] == e.dim
    zero = idl.TernaryIdeal(cc_tro, np.zeros((2, 0), dtype=np.complex128))
    assert idl.embed_ideal(e, zero).shape[1] == 0


def test_embed_ideal_rejects_non_ideal():
    m = tern.full_matrix_space(2, 2, +1)
    e11 = np.zeros((4, 1), dtype=np.complex128)
    e11[0] = 1.0  # span{E11} is no ternary ideal of full(2, 2, +1)
    with pytest.raises(NotAnIdeal):
        idl.embed_ideal(emb.build_embedding(m), idl.TernaryIdeal(m, e11))


def test_embed_ideal_rejects_ideal_of_another_space():
    m = tern.direct_sum(tern.scalar_space(+1), tern.scalar_space(-1))
    e = emb.build_embedding(m)
    # another dimension: used to fail in numpy's broadcasting
    nine = tern.full_matrix_space(3, 3, +1)
    with pytest.raises(NotAnIdeal, match="does not belong"):
        idl.embed_ideal(e, _first_coordinate(nine))
    # the same dimension: used to be embedded by its coordinates alone
    with pytest.raises(NotAnIdeal, match="does not belong"):
        idl.embed_ideal(e, _first_coordinate(tern.diagonal_space(2, +1)))
    # a second copy of the same presentation is the same space
    twin = tern.direct_sum(tern.scalar_space(+1), tern.scalar_space(-1))
    assert idl.embed_ideal(e, _first_coordinate(twin)).shape[1] == 4


def test_embed_ideal_random(catalog):
    rng = np.random.default_rng(2)
    count = 0
    for _, m in catalog:
        if not m.is_block or m.dim > 9:
            continue
        e = emb.build_embedding(m)
        ideal = idl.generated_ideal(m, [m.random_element(rng).coords])
        span = idl.embed_ideal(e, ideal)
        corners = emb.peirce_split(e, span)
        assert corners.dims[1] == ideal.dim and corners.dims[2] == ideal.dim
        count += 1
        if count >= 6:
            break


def test_quotient_examples(cc_tro):
    whole = idl.generated_ideal(cc_tro, list(np.eye(2, dtype=np.complex128)))
    assert idl.quotient(cc_tro, whole).dim == 0
    zero = idl.TernaryIdeal(cc_tro, np.zeros((2, 0), dtype=np.complex128))
    q0 = idl.quotient(cc_tro, zero)
    assert q0.dim == 2
    first = _first_coordinate(cc_tro)
    q = idl.quotient(cc_tro, first)
    assert q.dim == 1
    assert q.structure.c[0, 0, 0, 0] == pytest.approx(1.0)


def test_quotient_rejects_non_ideal():
    m = tern.full_matrix_space(2, 2, +1)
    e11 = np.zeros((4, 1), dtype=np.complex128)
    e11[0] = 1.0
    with pytest.raises(NotAnIdeal):
        idl.quotient(m, idl.TernaryIdeal(m, e11))


def test_quotient_signs_preserved():
    m = tern.direct_sum(tern.scalar_space(+1), tern.scalar_space(+1),
                        tern.scalar_space(-1), tern.scalar_space(-1))
    ideal = idl.generated_ideal(
        m, [np.eye(4, dtype=np.complex128)[0], np.eye(4, dtype=np.complex128)[2]])
    assert idl.quotient_zettl_dims(m, ideal) == (1, 1)
    q = idl.quotient(m, ideal)
    split = tern.zettl_decompose(q)
    assert (split.plus.dim, split.minus.dim) == (1, 1)


def test_quotient_norm_examples(cc_tro):
    first = _first_coordinate(cc_tro)
    res = idl.quotient_norm(cc_tro, first, np.array([5.0, 3.0]))
    assert res.upper == pytest.approx(3.0, abs=1e-8)
    assert res.lower == pytest.approx(3.0, abs=1e-6)
    # f inside the ideal
    res = idl.quotient_norm(cc_tro, first, np.array([5.0, 0.0]))
    assert res.upper <= 1e-8
    # zero ideal: the plain norm
    zero = idl.TernaryIdeal(cc_tro, np.zeros((2, 0), dtype=np.complex128))
    res = idl.quotient_norm(cc_tro, zero, np.array([5.0, 3.0]))
    assert res.upper == pytest.approx(5.0)
    assert res.lower == pytest.approx(5.0)


def _direct_coset_norm(m, ideal, f):
    """inf_t ||f - J t|| by Nelder-Mead over the ideal's coefficients."""
    j = ideal.basis
    nj = j.shape[1]

    def objective(t):
        return m.norm(f - j @ (t[:nj] + 1j * t[nj:]))

    x, best = np.zeros(2 * nj), np.inf
    while True:  # restart the simplex until it stops improving
        res = scipy.optimize.minimize(objective, x, method="Nelder-Mead",
                                      options={"xatol": 1e-12, "fatol": 1e-14})
        if res.fun >= best - 1e-13:
            return min(best, res.fun)
        x, best = res.x, res.fun


@pytest.mark.parametrize("name", ["mixed-2", "mix-three-blocks", "offdiag-tro",
                                  "mix-closures"])
def test_quotient_norm_matches_direct_minimization(catalog, name):
    # offdiag-tro's first coordinate is E12: a proper ideal inside a single block
    m = dict(catalog)[name]
    ideal = _first_coordinate(m)
    assert 0 < ideal.dim < m.dim
    rng = np.random.default_rng(m.dim)
    for _ in range(2):
        f = m.random_element(rng).coords
        res = idl.quotient_norm(m, ideal, f)
        oracle = _direct_coset_norm(m, ideal, f)
        assert abs(res.upper - oracle) <= 1e-6
        assert res.upper <= oracle + 1e-12
        assert res.gap <= 1e-12


def test_quotient_norm_needs_blocks():
    ms = tern.as_structure_space(tern.scalar_space(+1))
    ideal = idl.TernaryIdeal(ms, np.zeros((1, 0), dtype=np.complex128))
    with pytest.raises(NormUnavailable):
        idl.quotient_norm(ms, ideal, [1.0])


def test_quotient_norm_inside_block():
    # ideal span{E12} inside the TRO span{E12, E21}
    e12 = np.zeros((2, 2), dtype=np.complex128)
    e12[0, 1] = 1.0
    e21 = e12.T.copy()
    m = tern.ternary_closure([e12, e21], +1)
    ideal = idl.generated_ideal(m, [np.array([1.0, 0.0])])
    assert ideal.dim == 1
    res = idl.quotient_norm(m, ideal, np.array([4.0, 3.0]))
    assert res.upper == pytest.approx(3.0, abs=1e-7)
    assert res.gap <= 1e-5


def test_quotient_cstar_identity():
    # the coset norm satisfies ||[fff]||_q = ||f||_q^3 within 1e-5
    rng = np.random.default_rng(3)
    m = tern.direct_sum(tern.full_matrix_space(2, 2, +1), tern.scalar_space(-1),
                        tern.scalar_space(+1))
    ideal = idl.generated_ideal(m, [np.eye(m.dim, dtype=np.complex128)[0]])
    for _ in range(5):
        f = m.random_element(rng).coords
        ub = idl.quotient_norm(m, ideal, f).upper
        if ub <= 1e-6:
            continue
        f = f / ub
        fff = tern.triple(m, f, f, f).coords
        ub3 = idl.quotient_norm(m, ideal, fff).upper
        assert abs(ub3 - 1.0) <= 1e-5


def test_quotient_rejects_ideal_of_another_space():
    e0 = np.eye(2, dtype=np.complex128)[0]
    mixed = tern.direct_sum(tern.scalar_space(+1), tern.scalar_space(-1))
    ideal = idl.generated_ideal(mixed, [e0])
    # same dimension, another space
    with pytest.raises(NotAnIdeal, match="does not belong"):
        idl.quotient(tern.diagonal_space(2, +1), ideal)
    # the same space in the other presentation
    with pytest.raises(NotAnIdeal, match="does not belong"):
        idl.quotient(tern.as_structure_space(mixed), ideal)
    # a second copy of the same presentation is the same space
    twin = tern.direct_sum(tern.scalar_space(+1), tern.scalar_space(-1))
    assert idl.quotient(twin, ideal).dim == 1
    s_ideal = idl.generated_ideal(tern.as_structure_space(mixed), [e0])
    assert idl.quotient(tern.as_structure_space(twin), s_ideal).dim == 1
    with pytest.raises(NotAnIdeal, match="does not belong"):
        idl.quotient(tern.as_structure_space(tern.diagonal_space(2, +1)), s_ideal)


def _block_first_coordinate_ideals(m):
    """The ideal generated by the first coordinate of each block."""
    eye = np.eye(m.dim, dtype=np.complex128)
    return [idl.generated_ideal(m, [eye[s.start]]) for s in m.block_slices]


def _embed_ideal_reference(e, ideal):
    """L(I) ⊕ I ⊕ Ibar ⊕ R(I) built block by block: the products x y* and
    x* y of each block's part of I, projected onto the L and R bases with
    their pinvs and placed at explicit corner offsets."""
    cols = ([e.embed_base(v).coords for v in ideal.basis.T]
            + [e.embed_base_conj(v).coords for v in ideal.basis.T])
    mats = [e.base.realize(v) for v in ideal.basis.T]
    for bi, (be, s) in enumerate(zip(e.blocks, e.block_slices)):
        xs = np.stack([mat[bi] for mat in mats])
        ll = np.einsum("iab,jcb->ijac", xs, xs.conj()).reshape(-1, be.rows ** 2)
        rr = np.einsum("iba,jbc->ijac", xs.conj(), xs).reshape(-1, be.cols ** 2)
        dl, dm, dw, dr = be.dims
        for flat, stack, start in ((ll, be.l_stack, s.start),
                                   (rr, be.r_stack, s.start + dl + dm + dw)):
            coords = flat @ np.linalg.pinv(stack.reshape(len(stack), -1).T).T
            for row in coords:
                v = np.zeros(e.dim, dtype=np.complex128)
                v[start:start + len(stack)] = row
                cols.append(v)
    return mk.colspace(np.stack(cols, axis=1))


def _complex_basis_diagonal():
    """diag(2, +1) on the basis E11 + E22, E11 + i E22, and its ideal
    span{E11}, whose coordinates (1, i) / sqrt(2) are no real vector up to a
    phase, so its conjugate spans another line."""
    e11, e22 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    m = tern.TernarySpace.from_blocks([tern.SignedBlock(+1, 2, 2, (e11 + e22, e11 + 1j * e22))])
    return m, idl.generated_ideal(m, [np.array([1.0, 1j])])


def _generator_sets(m, rng):
    """Generators in one block (its first and last coordinates, a random
    vector in it), in two neighbouring blocks (a random vector across both,
    and a first coordinate with a random 1e-6 tail in the next block, which
    pulls that block in), and in all blocks (a random vector, and every
    block's last coordinate as generators of their own)."""
    eye = np.eye(m.dim, dtype=np.complex128)

    def drawn(*blocks, t=1.0):
        g = np.zeros(m.dim, dtype=np.complex128)
        for sl in blocks:
            g[sl] = t * (rng.standard_normal(sl.stop - sl.start)
                         + 1j * rng.standard_normal(sl.stop - sl.start))
        return g

    sls = m.block_slices
    out = [[g] for sl in sls for g in (eye[sl.start], eye[sl.stop - 1], drawn(sl))]
    out += [[g] for a, b in zip(sls, sls[1:])
            for g in (drawn(a, b), eye[a.start] + drawn(b, t=1e-6))]
    return out + [[drawn(*sls)], [eye[sl.stop - 1] for sl in sls]]


def test_embed_ideal_matches_corner_reference(catalog):
    # the parts come side by side, L, M, Mbar and R, each zero outside its
    # corner: block-first-coordinate ideals of the catalog, and on its
    # multi-block spaces and the lattice spaces generators in one, two and
    # all blocks, random ones and 1e-6 tails
    rng = np.random.default_rng(33)
    twisted, line = _complex_basis_diagonal()
    assert line.dim == 1
    cases = [(name, m, _block_first_coordinate_ideals(m)) for name, m in catalog]
    multi = [(name, m) for name, m in catalog if len(m.blocks) > 1] + lattice_spaces()
    assert len(multi) == 8
    cases += [(name, m, [idl.generated_ideal(m, gens) for gens in _generator_sets(m, rng)])
              for name, m in multi]
    filled = one_short = 0
    for name, m, ideals in cases + [("diag-complex-basis", twisted, [line])]:
        e = emb.build_embedding(m)
        for ideal in ideals:
            span = idl.embed_ideal(e, ideal)
            want = emb._corner_parts(e, _embed_ideal_reference(e, ideal))
            assert span.shape == (e.dim, sum(want.dims)), name
            got = np.split(span, np.cumsum(want.dims)[:-1], axis=1)
            for corner, part, ref in zip(emb.CORNERS, got, want.parts):
                assert not np.delete(part, e.corner_indices[corner], axis=0).any(), name
                assert mk.subspace_distance(part, ref) <= 1e-12, (name, corner)
            assert emb.peirce_split(e, span).dims == want.dims, name
            for sl in m.block_slices:
                k, n = np.linalg.matrix_rank(ideal.basis[sl], 1e-9), sl.stop - sl.start
                filled += k == n
                one_short += 0 < k == n - 1
    # both rules run, the products also on parts one short of filling their block
    assert filled >= 100 and one_short >= 10


def test_filled_block_keeps_its_span_check(monkeypatch):
    # a block whose R basis misses one element: its whole ideal fills the
    # block, but x* y leaves R, so the filled rule must not take it
    m = dict(lattice_spaces())["f44p-f22m"]
    eye = np.eye(m.dim, dtype=np.complex128)
    e = emb.build_embedding(m)
    for k, sl in enumerate(m.block_slices):
        cut = dataclasses.replace(e.blocks[k], r_stack=e.blocks[k].r_stack[:-1])
        bad = dataclasses.replace(e, blocks=e.blocks[:k] + (cut,) + e.blocks[k + 1:])
        assert not cut.corners_closed
        with pytest.raises(NotAnIdeal):
            idl.embed_ideal(bad, idl.generated_ideal(m, [eye[sl.start]]))
    # the block check runs once per block, whatever the number of calls: 8
    # corner products each, and a filled block forms no other product
    calls = []
    fresh = emb.BlockEmbedding.corner_products

    def counted(self, *args, **kwargs):
        calls.append(self)
        return fresh(self, *args, **kwargs)

    monkeypatch.setattr(emb.BlockEmbedding, "corner_products", counted)
    e = emb.build_embedding(m)
    ideals = _block_first_coordinate_ideals(m) + [idl.generated_ideal(m, list(eye))]
    for _ in range(3):
        for ideal in ideals:
            idl.embed_ideal(e, ideal)
    assert len(calls) == 8 * len(e.blocks)
    assert {id(b) for b in calls} == {id(b) for b in e.blocks}


def test_each_ideal_is_checked_once(catalog, monkeypatch):
    calls = []
    fresh = idl._ternary_ideal_residual

    def counted(*args):
        calls.append(args)
        return fresh(*args)

    monkeypatch.setattr(idl, "_ternary_ideal_residual", counted)
    spaces = [m for _, m in catalog if 0 < _first_coordinate(m).dim < m.dim]
    spaces += [m for _, m in lattice_spaces()]
    assert len(spaces) >= 8
    for m in spaces:
        e = emb.build_embedding(m)
        for ideal in _block_first_coordinate_ideals(m):
            # generated_ideal records the residual of its closing round
            del calls[:]
            idl.embed_ideal(e, ideal)
            idl.quotient(m, ideal)
            assert not calls
            # a hand-made ideal computes it once, on first use
            made = idl.TernaryIdeal(m, ideal.basis)
            idl.embed_ideal(e, made)
            idl.quotient(m, made)
            assert len(calls) == 1
            assert idl.is_ideal(m, made) and len(calls) == 1


def test_cached_residual_above_tol_is_rejected():
    m = tern.direct_sum(tern.full_matrix_space(2, 2, +1), tern.scalar_space(-1))
    e = emb.build_embedding(m)
    ideal = _first_coordinate(m)
    assert ideal.dim == 4 and ideal.residual <= 1e-14
    idl.embed_ideal(e, ideal)
    vars(ideal)["residual"] = 1e-6
    assert not idl.is_ideal(m, ideal)
    # the same basis handed in as an array is judged afresh
    assert idl.is_ideal(m, ideal.basis)
    with pytest.raises(NotAnIdeal, match="containments"):
        idl.embed_ideal(e, ideal)
    with pytest.raises(NotAnIdeal, match="containments"):
        idl.quotient(m, ideal)


def _nearly_closed_line(eps):
    """C ⊕ C as structure constants with [e0 e0 e0] = e0 + eps e1: span{e0}
    misses being an ideal by eps in each of its three product groups."""
    c = tern.structure_constants_of(
        tern.direct_sum(tern.scalar_space(+1), tern.scalar_space(+1))).c.copy()
    c[0, 0, 0, 1] = eps
    return tern.TernarySpace.from_structure(c, validate=False)


def test_generated_ideal_records_the_per_group_residual():
    e0 = np.eye(2, dtype=np.complex128)[0]
    # eps = 1e-10: ||R||_F = sqrt(3) eps <= tol = 1e-9, so the one round skips
    # its chunk and records the worst group, eps, not the chunk's Frobenius norm
    eps = 1e-10
    m = _nearly_closed_line(eps)
    ideal = idl.generated_ideal(m, [e0])
    assert ideal.dim == 1
    assert "residual" in vars(ideal)
    assert abs(ideal.residual - eps) <= 1e-15
    assert abs(ideal.residual - emb._ternary_ideal_residual(m, ideal.basis)) <= 1e-15
    # eps = 1e-9: ||R||_F > tol, so the chunk is merged without growing the
    # span: nothing is recorded, and the residual is computed on first use
    eps = 1e-9
    m = _nearly_closed_line(eps)
    ideal = idl.generated_ideal(m, [e0])
    assert ideal.dim == 1
    assert "residual" not in vars(ideal)
    assert abs(ideal.residual - eps) <= 1e-15


def test_quotient_norm_and_zettl_dims_reject_ideal_of_another_space():
    e0 = np.eye(2, dtype=np.complex128)[0]
    mixed = tern.direct_sum(tern.scalar_space(+1), tern.scalar_space(-1))
    # another dimension: used to fail in numpy's concatenation
    nine = _first_coordinate(tern.full_matrix_space(3, 3, +1))
    # the same dimension: used to return an answer for the wrong space
    diag = _first_coordinate(tern.diagonal_space(2, +1))
    for ideal in (nine, diag):
        with pytest.raises(NotAnIdeal, match="does not belong"):
            idl.quotient_norm(mixed, ideal, e0)
        with pytest.raises(NotAnIdeal, match="does not belong"):
            idl.quotient_zettl_dims(mixed, ideal)
    twin = _first_coordinate(tern.direct_sum(tern.scalar_space(+1), tern.scalar_space(-1)))
    assert idl.quotient_zettl_dims(mixed, twin) == (0, 1)
    assert idl.quotient_norm(mixed, twin, e0).upper <= 1e-12


def test_quotient_matches_pinv_coset_coordinates(catalog, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("a quotient draws no random numbers")

    monkeypatch.setattr(np.random, "default_rng", boom)
    for name, m in catalog:
        for ideal in _block_first_coordinate_ideals(m):
            # coset coordinates from the pinv of [J | C], keeping the C part
            j = ideal.basis
            comp = mk.nullspace(j.conj().T)
            inv = np.linalg.pinv(np.hstack([j, comp]))
            cols = comp.T
            prods = tern._triple_coords(m, cols[:, None, None], cols[None, :, None],
                                        cols[None, None])
            want = (prods @ inv.T)[..., j.shape[1]:]
            got = idl.quotient(m, ideal).structure.c
            assert got.shape == want.shape, name
            assert np.abs(got - want).max(initial=0.0) <= 1e-12, name
