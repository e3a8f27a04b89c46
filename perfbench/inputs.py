"""Frozen benchmark inputs and the expectations the checks compare against.

The 20-instance catalog and the basis scramble are copies, kept here on
purpose: the benchmark must measure the same inputs even when the test
suite's generators change.  Expected answers are derived from the block
structure with plain numpy (sign dimensions, and the ideal generated by a
vector computed by a span closure on the block matrices), never from the
ternlab routine that the operation under test runs.
"""

from __future__ import annotations

import numpy as np

from ternlab import ternary as tern

CATALOG_SEED = 20230520
MAX_SCRAMBLE_COND = 20.0


def _random_closure_space(rng, rows, cols, sign, n_gens=1):
    gens = [rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            for _ in range(n_gens)]
    return tern.ternary_closure(gens, sign)


def catalog():
    """The 20 named block instances (dims <= 16), in a fixed order."""
    rng = np.random.default_rng(CATALOG_SEED)
    e12 = np.zeros((2, 2), dtype=np.complex128)
    e12[0, 1] = 1.0
    e21 = e12.T.copy()
    full, diag, scalar, dsum = (tern.full_matrix_space, tern.diagonal_space,
                                tern.scalar_space, tern.direct_sum)
    out = [
        ("scalar-tro", scalar(+1)),
        ("scalar-anti", scalar(-1)),
        ("mixed-2", dsum(scalar(+1), scalar(-1))),
        ("full-2x2-tro", full(2, 2, +1)),
        ("full-2x2-anti", full(2, 2, -1)),
        ("full-2x3-tro", full(2, 3, +1)),
        ("full-3x2-anti", full(3, 2, -1)),
        ("diag-2-tro", diag(2, +1)),
        ("diag-3-anti", diag(3, -1)),
        ("offdiag-tro", tern.ternary_closure([e12, e21], +1)),
        ("closure-3x3-tro", _random_closure_space(rng, 3, 3, +1)),
        ("closure-3x3-anti", _random_closure_space(rng, 3, 3, -1)),
        ("closure-2x2-two-gens", _random_closure_space(rng, 2, 2, +1, n_gens=2)),
        ("mix-full-scalar", dsum(full(2, 2, +1), scalar(-1))),
        ("mix-anti-diag", dsum(full(2, 2, -1), diag(2, +1))),
        ("mix-closures", dsum(_random_closure_space(rng, 3, 2, +1),
                              _random_closure_space(rng, 2, 3, -1))),
        ("full-4x2-tro", full(4, 2, +1)),
        ("full-2x4-anti", full(2, 4, -1)),
        ("mix-three-blocks", dsum(diag(2, +1), diag(2, -1), scalar(+1))),
        ("full-4x4-tro", full(4, 4, +1)),
    ]
    if len(out) != 20 or any(m.dim > 16 for _, m in out):
        raise RuntimeError("frozen catalog changed shape")
    return out


def lattice_spaces():
    """The three multi-block spaces of the ideal-lattice workload."""
    full, diag, scalar, dsum = (tern.full_matrix_space, tern.diagonal_space,
                                tern.scalar_space, tern.direct_sum)
    return [
        ("f33p-f22m-d2p", dsum(full(3, 3, +1), full(2, 2, -1), diag(2, +1))),
        ("f44p-f22m", dsum(full(4, 4, +1), full(2, 2, -1))),
        ("f23m-f32p-sm", dsum(full(2, 3, -1), full(3, 2, +1), scalar(-1))),
    ]


def scramble(m, rng, max_cond=MAX_SCRAMBLE_COND):
    """Structure tensor of m in a random well-conditioned basis, and that basis.

    Column i of the returned matrix holds the old coordinates of new basis
    vector i.  The tensor is not validated here; parsing it is part of the
    measured work.
    """
    c = tern.structure_constants_of(m).c
    d = m.dim
    while True:
        s = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if np.linalg.cond(s) <= max_cond:
            break
    si = np.linalg.inv(s)
    c2 = np.einsum("pqrs,pi,qj,rk,ls->ijkl", c, s, s.conj(), s, si, optimize=True)
    return c2, s


def sign_dims(m):
    """(dim_plus, dim_minus) read off the block signs."""
    plus = sum(b.dim for b in m.blocks if b.sign > 0)
    return plus, m.dim - plus


def _rank(a, tol=1e-9):
    if a.shape[1] == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > tol * s[0])) if s[0] > 0 else 0


def ideal_closure(m, gen):
    """Ideal generated by a coordinate vector, by span closure on the blocks.

    Returns (dim, (dim_plus, dim_minus)) of the ideal.  An element is the
    concatenation of its flattened block matrices; every triple product is
    taken blockwise, so blocks never mix and signs do not affect spans.
    """
    mats = []
    for blk, sl in zip(m.blocks, m.block_slices):
        part = np.tensordot(np.asarray(gen, dtype=np.complex128)[sl], blk.stack,
                            axes=([0], [0]))
        mats.append(part)
    ideal_dims = []
    for blk, g in zip(m.blocks, mats):
        basis = blk.stack  # (k, r, c)
        span = g.reshape(-1, 1) if np.abs(g).max(initial=0.0) > 1e-12 else \
            np.zeros((g.size, 0), dtype=np.complex128)
        while span.shape[1]:
            q = np.linalg.svd(span, full_matrices=False)[0][:, :_rank(span)]
            ss = q.T.reshape(-1, blk.rows, blk.cols)
            new = [np.einsum("xab,ycb,scd->xysad", basis, basis.conj(), ss),
                   np.einsum("sab,xcb,ycd->sxyad", ss, basis.conj(), basis),
                   np.einsum("xab,scb,ycd->xsyad", basis, ss.conj(), basis)]
            grown = np.hstack([q] + [n.reshape(-1, g.size).T for n in new])
            if _rank(grown) == q.shape[1]:
                span = q
                break
            span = grown
        ideal_dims.append((blk.sign, _rank(span)))
    plus = sum(k for sign, k in ideal_dims if sign > 0)
    minus = sum(k for sign, k in ideal_dims if sign < 0)
    return plus + minus, (plus, minus)
