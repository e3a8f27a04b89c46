"""Peirce corner parts and corner units against the numerical constructions
they replace.

An ideal of a Peirce-graded algebra is the direct sum of its corner parts,
so ``peirce_split`` and ``radical.m_corner`` read each part from the span's
rows in that corner.  The references below compute the parts as
intersections (a nullspace of the rows outside the corner, then a column
space), and the corner units P and Q of ``build_embedding`` as the
projections onto the eigenvectors of sum x x* above 1e-10 of the largest.
The graded ideal check forms only the composable corner products of the
parts; its product groups are compared with the products of whole block
matrices that ``mul_coords`` forms, divided as the check divides them
(``conftest.peirce_scale``).
"""

import itertools

import numpy as np

from conftest import lattice_spaces, peirce_scale, random_closure_space
from test_radical import _nonzero_ternary_radicals
from ternlab import embedding as emb
from ternlab import ideals as idl
from ternlab import matkernel as mk
from ternlab import radical as rad
from ternlab import ternary as tern

TOL = 1e-12


def _slice_intersection(span, keep, tol=1e-9):
    """Vectors of a span supported on the given coordinate indices."""
    mask = np.ones(span.shape[0], dtype=bool)
    mask[keep] = False
    return mk.colspace(span @ mk.nullspace(span[mask], tol), tol)


def _support_projection(mats, dim_space, tol=1e-10):
    """Projection onto the joint column space of the given matrices."""
    s = np.zeros((dim_space, dim_space), dtype=np.complex128)
    for m in mats:
        s += m @ m.conj().T
    w, v = np.linalg.eigh(s)
    vk = v[:, w > tol * max(w.max(initial=0.0), 1e-300)]
    return vk @ vk.conj().T


def _block_spaces(catalog):
    return [(name, m) for name, m in list(catalog) + lattice_spaces() if m.is_block]


def _check_parts(parts, span, corners):
    """Each part (columns over the whole span's coordinates) against the
    intersection of the span with its corner."""
    assert sum(p.shape[1] for p in parts) == span.shape[1]
    for part, idx in zip(parts, corners):
        ref = _slice_intersection(span, idx)
        assert part.shape == ref.shape
        assert mk.subspace_distance(part, ref) <= TOL


def test_peirce_parts_match_intersections(catalog):
    checked = 0
    for name, m in _block_spaces(catalog):
        e = emb.build_embedding(m)
        idx = [e.corner_indices[c] for c in emb.CORNERS]
        eye = np.eye(m.dim, dtype=np.complex128)
        # the ideal of each block's first coordinate, and of all of them
        gens = [[eye[sl.start]] for sl in m.block_slices] + [list(eye)]
        for g in gens:
            span = idl.embed_ideal(e, idl.generated_ideal(m, g))
            corners = emb.peirce_split(e, span)
            _check_parts((corners.l, corners.m, corners.mbar, corners.r), span, idx)
            # outside its corner a part is exactly zero
            for part, keep in zip((corners.l, corners.m, corners.mbar, corners.r), idx):
                assert not np.delete(part, keep, axis=0).any(), name
            checked += 1
    assert checked >= 40


def _graded_spans(e, rng):
    """The embedded ideal of each block's first coordinate, and the graded
    hull of a random 2-dimensional span."""
    m, eye = e.base, np.eye(e.base.dim, dtype=np.complex128)
    spans = [idl.embed_ideal(e, idl.generated_ideal(m, [eye[sl.start]])) for sl in m.block_slices]
    hull = emb._corner_parts(e, mk.colspace(rng.standard_normal((e.dim, 2))
                                            + 1j * rng.standard_normal((e.dim, 2))))
    return spans + [np.hstack(hull.parts)]


def test_corner_groups_match_block_matrix_products(catalog):
    """Each group of the graded check against the products of its columns
    with the whole basis formed as block matrices by ``mul_coords``: equal on
    the group's rows and columns and zero elsewhere, so no composable pair is
    missing, misplaced or of the wrong sign."""
    rng = np.random.default_rng(2101)
    checked = set()
    for name, m in _block_spaces(catalog):
        e = emb.build_embedding(m)
        eye = np.eye(e.dim, dtype=np.complex128)
        signs = {b.sign for b in e.blocks}
        for span in _graded_spans(e, rng):
            corners = emb._corner_parts(e, span)
            every = np.hstack(corners.parts)
            for x, left in itertools.product(range(4), (True, False)):
                rows, cols, groups, q = emb._corner_groups(e, corners, x, left)
                got = np.concatenate(list(groups) or [np.zeros((0, len(rows), len(cols)))])
                part = corners.parts[x]
                assert len(got) == part.shape[1]
                for j, s in enumerate(part.T):
                    s = np.broadcast_to(s, eye.shape)
                    want = e.mul_coords(eye, s) if left else e.mul_coords(s, eye)
                    want /= peirce_scale(e, x)[:, None]
                    scale = max(1.0, float(np.abs(want).max()))
                    assert np.abs(got[j] - want[np.ix_(rows, cols)]).max() <= TOL * scale, name
                    want[np.ix_(rows, cols)] = 0.0
                    assert np.abs(want).max() <= TOL * scale, name
                    checked.update((x, left, sign) for sign in signs)
                # the product parts on cols: the projection onto all the parts there
                assert np.abs(q @ q.conj().T - (every @ every.conj().T)[np.ix_(cols, cols)]
                              ).max() <= TOL, name
    # every corner in both orders on both signs
    assert len(checked) == 16


def test_radical_parts_match_intersections():
    for m, want in _nonzero_ternary_radicals():
        alg, m_idx = rad._ambient(m)
        basis = rad.jacobson_radical(alg)
        dk, d = m_idx[0], len(m_idx)
        cuts = (0, dk, dk + d, dk + 2 * d, alg.dim)
        idx = [np.arange(a, b) for a, b in zip(cuts[:-1], cuts[1:])]
        _check_parts([emb._corner_part(basis, keep) for keep in idx], basis, idx)
        corner = rad.m_corner(basis, m_idx)
        assert corner.shape == want.shape
        assert mk.subspace_distance(corner, want) <= TOL


def test_corner_units_match_eigh_projections(catalog):
    for name, m in _block_spaces(catalog):
        for blk, be in zip(m.blocks, emb.build_embedding(m).blocks):
            p = _support_projection(list(blk.stack), blk.rows)
            q = _support_projection([x.conj().T for x in blk.stack], blk.cols)
            assert mk.op_norm(be.l_unit - p) <= TOL, name
            assert mk.op_norm(be.r_unit - q) <= TOL, name


def test_rank_deficient_units_match_eigh_projections():
    # a block mapped into a larger space by an isometry u: P = u u* is proper
    rng = np.random.default_rng(2001)
    for rows, cols in ((3, 2), (2, 4), (4, 4)):
        stack = random_closure_space(rng, rows, cols, +1).blocks[0].stack
        u = np.linalg.qr(rng.standard_normal((rows + 2, rows))
                         + 1j * rng.standard_normal((rows + 2, rows)))[0]
        m = tern.TernarySpace.from_blocks(
            [tern.SignedBlock(+1, rows + 2, cols, tuple(u @ stack))])
        be = emb.build_embedding(m).blocks[0]
        p = _support_projection(list(be.m_stack), rows + 2)
        assert mk.op_norm(be.l_unit - p) <= TOL
        assert round(np.trace(be.l_unit).real) <= rows
