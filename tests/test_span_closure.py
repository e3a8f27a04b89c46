"""The chunked span-closure checks against per-column reference loops.

The reference functions below form the basis products of one span column
at a time, as the ideal checks did before they shared
``matkernel.span_residual``; the library versions must agree with them.
The Peirce check reads a span's corner parts, so its reference runs on the
parts' columns, with the products formed as whole block matrices.
They also pin the kernels' short cuts: ``span_residual`` read on the
complement of a wide span, and ``generated_ideal`` skipping a chunk whose
residual against the current basis is within tolerance.
"""

import numpy as np
import pytest

from conftest import data_scale, lattice_spaces, peirce_scale, scaled, scramble
from ternlab import embedding as emb
from ternlab import ideals as idl
from ternlab import matkernel as mk
from ternlab import radical as rad
from ternlab import ternary as tern
from ternlab.errors import DecompositionInconclusive, NotAnIdeal

TOL = 1e-12


def _worst(prods, q):
    resid = np.abs(prods - (prods @ q.conj()) @ q.T).max(initial=0.0)
    return float(resid) / max(1.0, float(np.abs(prods).max(initial=0.0)))


def _assoc_reference(e, corners):
    eye = np.eye(e.dim, dtype=np.complex128)
    span = np.hstack(corners.parts)
    worst = 0.0
    for x, part in enumerate(corners.parts):
        # divided by the block's data scale where M meets Mbar, as the check reads them
        scale = peirce_scale(e, x)[:, None]
        for j in range(part.shape[1]):
            s = np.broadcast_to(part[:, j], (e.dim, e.dim))
            for prods in (e.mul_coords(eye, s), e.mul_coords(s, eye)):
                worst = max(worst, _worst(prods / scale, span))
    return worst


def _column_products(m, s):
    d = m.dim
    eye = np.eye(d, dtype=np.complex128)
    s = np.broadcast_to(s, (d, d, d)).reshape(-1, d)
    x = np.broadcast_to(eye[:, None, :], (d, d, d)).reshape(-1, d)
    y = np.broadcast_to(eye[None, :, :], (d, d, d)).reshape(-1, d)
    # divided by the data scale, as the ideal checks read them
    return [tern._triple_coords(m, *args) / data_scale(m)
            for args in ((x, y, s), (s, x, y), (x, s, y))]


def _ternary_reference(m, span):
    q = mk.colspace(span)
    return max((_worst(prods, q) for j in range(q.shape[1])
                for prods in _column_products(m, q[:, j])), default=0.0)


def _audit_reference(a, span, tol=1e-8):
    eye = np.eye(a.dim, dtype=np.complex128)
    worst = 0.0
    for j in range(span.shape[1]):
        s = np.broadcast_to(span[:, j], (a.dim, a.dim))
        worst = max(worst, _worst(a.mul(eye, s), span), _worst(a.mul(s, eye), span))
    return worst <= tol


def _generated_reference(m, gens, tol=1e-9):
    span = mk.colspace(np.stack(gens, axis=1), tol)
    while 0 < span.shape[1] < m.dim:
        new = [span] + [p.T for j in range(span.shape[1])
                        for p in _column_products(m, span[:, j])]
        grown = mk.colspace(np.hstack(new), tol)
        if grown.shape[1] == span.shape[1]:
            break
        span = grown
    return span


def _audit_passes(a, span):
    try:
        rad._audit_ideal(a, span)
    except DecompositionInconclusive:
        return False
    return True


def _check_ternary(m, spans):
    for span in spans:
        want = _ternary_reference(m, span)
        assert abs(emb._ternary_ideal_residual(m, span) - want) <= TOL
        assert idl.is_ideal(m, span) == (want <= tern.AXIOM_TOL)


def _check_assoc(e, span):
    """The graded Peirce check on a span's corner parts against the
    per-column reference on the parts' columns; the residual it returns."""
    corners = emb._corner_parts(e, span)
    want = _assoc_reference(e, corners)
    assert abs(emb._assoc_ideal_residual(e, corners) - want) <= TOL
    return want


def _check_space(m):
    e0 = np.eye(m.dim, dtype=np.complex128)[0]
    ideal = idl.generated_ideal(m, [e0])
    ref = _generated_reference(m, [e0])
    assert ideal.dim == ref.shape[1]
    assert mk.subspace_distance(ideal.basis, ref) <= TOL
    _check_ternary(m, (ideal.basis, e0[:, None]))

    e = emb.build_embedding(m)
    a = rad.AssocAlgebra(table=e.table)
    eye = np.eye(e.dim, dtype=np.complex128)
    idx = e.corner_indices
    corner = eye[:, idx["M"]]
    # the block rows L ⊕ M form a right ideal and the block columns L ⊕ Mbar
    # a left one: each passes one of the two product orders only
    row = eye[:, np.concatenate([idx["L"], idx["M"]])]
    column = eye[:, np.concatenate([idx["L"], idx["Mbar"]])]
    embedded = idl.embed_ideal(e, ideal)
    for span in (embedded, corner, row, column):
        resid = _check_assoc(e, span)
        assert _audit_passes(a, span) == _audit_reference(a, span)
        assert (resid > 0.5) == (span is not embedded)
    # the ideal of each block's first coordinate
    for sl in m.block_slices[1:]:
        span = idl.embed_ideal(e, idl.generated_ideal(m, [np.eye(m.dim)[sl.start]]))
        assert _check_assoc(e, span) <= TOL
    return embedded, e


def test_span_closure_matches_reference_on_catalog(catalog):
    for name, m in catalog:
        _check_space(m)
        # the same spans through the structure-constant triple product
        s = tern.as_structure_space(m)
        e0 = np.eye(m.dim, dtype=np.complex128)[0]
        ideal = _generated_reference(s, [e0])
        assert mk.subspace_distance(idl.generated_ideal(s, [e0]).basis, ideal) <= TOL
        _check_ternary(s, (ideal, e0[:, None]))


def test_span_graded_by_corner_but_not_by_block():
    # the diagonal of two copies of full(2, 2, +1): each vector lies in one
    # corner, yet no block's unit keeps it
    m = tern.direct_sum(tern.full_matrix_space(2, 2, +1), tern.full_matrix_space(2, 2, +1))
    e = emb.build_embedding(m)
    first, second = e.block_slices
    diagonal = np.zeros((e.dim, first.stop), dtype=np.complex128)
    diagonal[first] = diagonal[second] = np.eye(first.stop) / np.sqrt(2)
    assert emb._corner_parts(e, diagonal).dims == (4, 4, 4, 4)
    assert abs(_check_assoc(e, diagonal) - 0.5 / np.sqrt(2)) <= TOL
    with pytest.raises(NotAnIdeal, match="ideal check"):
        emb.peirce_split(e, diagonal)


def test_ungraded_span_fails_before_any_product(catalog, monkeypatch):
    def boom(*args):
        raise AssertionError("an ungraded span needs no product")

    monkeypatch.setattr(emb, "_assoc_ideal_residual", boom)
    for name, m in catalog:
        e = emb.build_embedding(m)
        idx = e.corner_indices
        # the first M and Mbar coordinates summed: in no corner, so its parts
        # have twice its dimension
        v = np.zeros((e.dim, 1), dtype=np.complex128)
        v[idx["M"][0]] = v[idx["Mbar"][0]] = 1.0
        with pytest.raises(NotAnIdeal, match="not graded"):
            emb.peirce_split(e, v)


def test_span_closure_matches_reference_across_chunks():
    # the three lattice spaces, f44p-f22m = full(4, 4, +1) ⊕ full(2, 2, -1) among them
    checked = {name: _check_space(m) for name, m in lattice_spaces()}
    embedded, e = checked["f44p-f22m"]
    m = e.base
    assert embedded.shape[1] == 64
    # a corner column's group has about d / 2 rows, so at the default chunk
    # size every part fits one chunk; a smaller one splits them
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mk, "SPAN_CHUNK_ROWS", 2 * e.dim)
        assert _check_assoc(e, embedded) <= TOL
    # generators in both blocks: the first round spans more than one chunk
    gens = list(np.eye(m.dim, dtype=np.complex128)[[0, 5, 10, 16]])
    ideal = idl.generated_ideal(m, gens)
    assert ideal.dim == m.dim
    assert mk.subspace_distance(ideal.basis, _generated_reference(m, gens)) <= TOL


def _cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("d", [1, 2, 7, 20])
def test_span_residual_complement_matches_projection(d):
    # below 0.1 the bound is 1e-13 absolute: either side's projection rounds
    # at about d eps, up to 5e-15 here
    floor = 0.1
    rng = np.random.default_rng(1900 + d)
    for r in sorted({0, 1, d // 2, d // 2 + 1, d - 1, d} & set(range(d + 1))):
        q = mk.colspace(_cplx(rng, d, r)) if r else np.zeros((d, 0), dtype=np.complex128)
        assert q.shape[1] == r
        inside = _cplx(rng, 3, 5, r) @ q.T
        chunks = [_cplx(rng, 4, 6, d), inside, inside + 1e-6 * _cplx(rng, 3, 5, d),
                  1e6 * _cplx(rng, 2, 3, d), 1e-6 * _cplx(rng, 2, 3, d)]
        want = max(_worst(group, q) for chunk in chunks for group in chunk)
        got = mk.span_residual(iter(chunks), q)
        assert abs(got - want) <= 1e-12 * max(want, floor), (d, r)
        # the in-span groups alone leave only rounding
        assert mk.span_residual([inside], q) <= 1e-13, (d, r)


def _closure_counting_calls(m, gens):
    """generated_ideal(m, gens) and its calls of colspace and _ideal_products."""
    calls = {"colspace": 0, "products": 0}
    colspace, products = mk.colspace, idl._ideal_products

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mk, "colspace", counted("colspace", colspace))
        mp.setattr(idl, "_ideal_products", counted("products", products))
        ideal = idl.generated_ideal(m, gens)
    return ideal, calls


def test_generated_ideal_skip_rule_matches_reference(catalog):
    rng = np.random.default_rng(1901)
    scrambles = [scramble(m, rng)[0] for _, m in catalog]
    cases = [(m, [np.eye(m.dim, dtype=np.complex128)[0]])
             for m in [m for _, m in catalog] + scrambles]
    cases += [(m, [np.eye(m.dim, dtype=np.complex128)[sl.start]])
              for _, m in lattice_spaces() for sl in m.block_slices]
    closing = filled = 0
    for m, gens in cases:
        # the closure runs in the generator's block on block input, which
        # costs one more colspace call, and in the whole space on structure input
        at = int(np.argmax(np.abs(gens[0])))
        part, touched = m.dim, 0
        if m.is_block:
            part = next(b.dim for b, sl in zip(m.blocks, m.block_slices) if at in range(sl.start, sl.stop))
            touched = 1
        for t in (1.0, 1e6, 1e-6):
            space = scaled(m, t)
            ideal, calls = _closure_counting_calls(space, gens)
            ref = _generated_reference(space, gens)
            assert ideal.dim == ref.shape[1]
            assert mk.subspace_distance(ideal.basis, ref) <= 1e-10
            if t == 1.0:
                unscaled = ideal.dim, calls
                # colspace: the generators, the block's rows, each merge and the
                # ideal's basis; products: each merge and each skipped chunk
                if ideal.dim < part:
                    # an ideal short of its part closes on a skipped chunk,
                    # as mix-three-blocks' ideal of its first coordinate does
                    closing += 1
                    assert calls["colspace"] < calls["products"] + 2 + touched
                else:
                    # a part its closure fills needs no closing round: no chunk
                    # is skipped, f44p-f22m's 16-dim ideal of its first
                    # coordinate among them
                    filled += 1
                    assert calls["colspace"] == calls["products"] + 2 + touched
            else:
                # the products are divided by the data scale (t^2 on blocks, t on
                # structure constants): the closure takes the same steps at every t
                assert (ideal.dim, calls) == unscaled
    assert closing >= 5 and filled >= 40


def test_generated_ideal_records_the_residual_of_its_closing_round(catalog):
    # the residual generated_ideal records from its closing round against the
    # one _ternary_ideal_residual computes afresh on the returned basis
    fresh = emb._ternary_ideal_residual

    def boom(*args):
        raise AssertionError("a recorded residual is not computed again")

    recorded = 0
    for name, m in catalog + lattice_spaces():
        for space in (m, tern.as_structure_space(m)):
            for sl in m.block_slices:
                ideal = idl.generated_ideal(space, [np.eye(m.dim, dtype=np.complex128)[sl.start]])
                want = fresh(space, ideal.basis)
                with pytest.MonkeyPatch.context() as mp:
                    if 0 < ideal.dim < m.dim:
                        mp.setattr(idl, "_ternary_ideal_residual", boom)
                        recorded += 1
                    assert abs(ideal.residual - want) <= 1e-14, name
    # the 22 proper block ideals, in both presentations
    assert recorded == 44


def test_peirce_split_grades_at_its_tol():
    # every embedded block ideal of the lattice spaces with complex Gaussian
    # noise of scale 1e-10 in every entry: its residual is far inside tol =
    # 1e-8, and its parts cut at tol add up; cut at 1e-9, some did not
    rng = np.random.default_rng(2201)
    old_cut_rejects = 0
    for name, m in lattice_spaces():
        e = emb.build_embedding(m)
        for sl in m.block_slices:
            span = idl.embed_ideal(e, idl.generated_ideal(m, [np.eye(m.dim)[sl.start]]))
            exact = emb._corner_parts(e, span)
            noise = rng.standard_normal(span.shape) + 1j * rng.standard_normal(span.shape)
            noisy = mk.colspace(span + 1e-10 * noise)
            old_cut_rejects += sum(emb._corner_parts(e, noisy, 1e-9).dims) != span.shape[1]
            parts = emb.peirce_split(e, noisy)
            assert parts.dims == exact.dims, name
            for got, want in zip(parts.parts, exact.parts):
                assert mk.subspace_distance(got, want) <= 1e-9, name
            with pytest.raises(NotAnIdeal):
                emb.peirce_split(e, span + 1e-6 * noise)
    assert old_cut_rejects >= 2
