"""Peirce corner parts and corner units against the numerical constructions
they replace.

An ideal of a Peirce-graded algebra is the direct sum of its corner parts,
so ``peirce_split`` and ``radical.m_corner`` read each part from the span's
rows in that corner.  The references below compute the parts as
intersections (a nullspace of the rows outside the corner, then a column
space), and the corner units P and Q of ``build_embedding`` as the
projections onto the eigenvectors of sum x x* above 1e-10 of the largest.
"""

import numpy as np

from conftest import lattice_spaces, random_closure_space
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
