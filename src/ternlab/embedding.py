"""Standard embeddings of block-presented C*-ternary rings.

For each signed block M of r-by-c matrices the embedding is the space
of 2x2 block matrices

    [ alpha  z  ]      alpha in span(M M*),  z, w in M,
    [ w*     beta]      beta in span(M* M),

with the ordinary matrix product on +1 blocks and the sign-twisted
product on -1 blocks:

    [a z; w* b] . [a' z'; w'* b'] =
        [-aa' + zw'*,  -az' - zb';  -w*a' - bw'*,  w*z' - bb'],

that is, the ordinary product conjugated by the sign pattern
S = [[-1, -1], [+1, -1]]: S∘((S∘A) @ (S∘B)).

The involution is the honest adjoint of the block matrix in both cases.
Coordinates per block are laid out as [L | M | Mbar | R], where the
Mbar slot parametrizes the lower-left corner over the basis {m_i*};
``BlockEmbedding.materialize`` and ``BlockEmbedding.split`` are the one
map between that layout and block matrices.

The canonical norm is the block operator norm of this concrete
realization; whether it agrees isometrically with other norms on the
twisted part is deliberately not assumed anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import matkernel as mk
from .errors import DecompositionInconclusive, NotAnIdeal, ShapeError
from .ternary import (
    AXIOM_TOL,
    DEFAULT_TOL,
    TernaryElement,
    TernarySpace,
    _block_slices,
    _ideal_products,
    _span_coords,
    as_coords,
    random_coords,
)

UNIT_TOL = 1e-10  # identity_of's unit check

CORNERS = ("L", "M", "Mbar", "R")
#: Sign of each corner in the pattern S of the twisted product.
TWIST = (-1, -1, 1, -1)
#: The composable corner pairs (a, b, a·b) of the Peirce grading, by index
#: into CORNERS: L·L, L·M, M·Mbar, M·R, Mbar·L, Mbar·M, R·Mbar, R·R.
CORNER_PRODUCTS = ((0, 0, 0), (0, 1, 1), (1, 2, 0), (1, 3, 1),
                   (2, 0, 2), (2, 1, 3), (3, 2, 2), (3, 3, 3))
_MATRIX_LEAVES_SPAN = "block matrix leaves the embedding span"


@dataclass(frozen=True)
class BlockEmbedding:
    """Corner data of the embedding of one signed block.

    ``slots``, ``materialize``, ``split``, ``corner_coords`` and
    ``corner_products`` are the only code that knows a block's coordinate
    layout [L | M | Mbar | R]; everything else works on whole (r+c)x(r+c)
    block matrices or on corner indices.
    """

    sign: int
    rows: int
    cols: int
    m_stack: np.ndarray      # (dm, r, c) block basis
    l_stack: np.ndarray      # (dl, r, r) orthonormal basis of span(M M*)
    r_stack: np.ndarray      # (dr, c, c) orthonormal basis of span(M* M)
    l_unit: np.ndarray       # support projection P of span(M M*)
    r_unit: np.ndarray       # support projection Q of span(M* M)

    @property
    def dims(self):
        return (self.l_stack.shape[0], self.m_stack.shape[0],
                self.m_stack.shape[0], self.r_stack.shape[0])

    @property
    def dim(self) -> int:
        return sum(self.dims)

    @cached_property
    def _projectors(self):
        """(pinv, flat basis) of each corner; the L and R bases are
        orthonormal, so their pinvs are their conjugates."""
        l, m, r = (s.reshape(s.shape[0], -1) for s in (self.l_stack, self.m_stack, self.r_stack))
        m_pinv = np.linalg.pinv(m.T)
        return (l.conj(), l), (m_pinv, m), (m_pinv, m), (r.conj(), r)

    @cached_property
    def corner_blocks(self):
        """(rows, columns) of each corner [L | M | Mbar | R] in a block matrix."""
        top, bottom = slice(0, self.rows), slice(self.rows, self.rows + self.cols)
        return (top, top), (top, bottom), (bottom, top), (bottom, bottom)

    @cached_property
    def corner_stacks(self):
        """Basis matrices of each corner; the Mbar corner's are the m_i*."""
        return (self.l_stack, self.m_stack,
                np.swapaxes(self.m_stack, -1, -2).conj(), self.r_stack)

    @cached_property
    def unit(self):
        """The block matrix diag(P, Q) of the support projections."""
        r = self.rows
        u = np.zeros((r + self.cols,) * 2, dtype=np.complex128)
        u[:r, :r], u[r:, r:] = self.l_unit, self.r_unit
        return u

    @cached_property
    def _twist(self):
        # sign pattern S = [[-1, -1], [+1, -1]] of the twisted product
        s = np.empty((self.rows + self.cols,) * 2)
        for (rows, cols), sign in zip(self.corner_blocks, TWIST):
            s[rows, cols] = sign
        return s

    def slots(self, coords):
        """The [L | M | Mbar | R] slots of this block's coordinates (..., dim)."""
        return np.split(np.asarray(coords), np.cumsum(self.dims)[:-1], axis=-1)

    def materialize(self, coords):
        """Big block matrices from this block's coordinates (..., dim).

        The Mbar slot holds the lower-left corner over {m_i*}.
        """
        slots = self.slots(coords)
        out = np.zeros(slots[0].shape[:-1] + (self.rows + self.cols,) * 2, dtype=np.complex128)
        for (rows, cols), a, stack in zip(self.corner_blocks, slots, self.corner_stacks):
            out[..., rows, cols] = np.tensordot(a, stack, axes=([-1], [0]))
        return out

    def corner_coords(self, k, mats):
        """Coordinates (..., d_k) of matrices in corner k, and their largest
        distance from the corner span."""
        pinv, basis = self._projectors[k]
        if k == 2:
            # lower-left corner: X = sum_i s_i m_i*  <=>  X* = sum_i conj(s_i) m_i
            mats = np.swapaxes(mats, -1, -2).conj()
        flat = mats.reshape(mats.shape[:-2] + (basis.shape[1],))
        coords = flat @ pinv.T
        resid = float(np.linalg.norm(coords @ basis - flat, axis=-1).max(initial=0.0))
        return (coords.conj() if k == 2 else coords), resid

    def split(self, big):
        """This block's coordinates (..., dim) of big block matrices, and the
        largest distance of a corner from its corner span."""
        out, resid = zip(*(self.corner_coords(k, big[..., rows, cols])
                           for k, (rows, cols) in enumerate(self.corner_blocks)))
        return np.concatenate(out, axis=-1), max(resid)

    def corner_products(self, y, x, t, coords, left):
        """Coordinates (n, d_y, d_t) of the products of corner y's basis with
        the corner-x matrices of ``coords`` (n, d_x), basis first when
        ``left``, in their product corner t; InvalidInput when one leaves it.

        On a -1 block the sign pattern S is constant on each corner, so the
        twisted product of corner matrices is the ordinary one times the
        signs of x, y and t."""
        basis, stack = self.corner_stacks[y][None], self.corner_stacks[x]
        mats = (coords @ stack.reshape(len(stack), -1)).reshape((-1, 1) + stack.shape[1:])
        prods = basis @ mats if left else mats @ basis
        if self.sign < 0:
            prods *= TWIST[x] * TWIST[y] * TWIST[t]
        return _span_coords(lambda a: self.corner_coords(t, a), prods, (basis, mats),
                            DEFAULT_TOL, _MATRIX_LEAVES_SPAN)

    def mul_big(self, a, b):
        """Product of materialized block matrices under this block's rule;
        the twisted one is the ordinary product conjugated by the sign
        pattern S: S∘((S∘a) @ (S∘b))."""
        if self.sign > 0:
            return a @ b
        s = self._twist
        return s * ((s * a) @ (s * b))


@dataclass(frozen=True)
class StandardEmbedding:
    """The linking (+) / twisted (-) algebra containing a block space."""

    base: TernarySpace
    blocks: tuple

    @property
    def dim(self) -> int:
        return sum(b.dim for b in self.blocks)

    block_slices = cached_property(_block_slices)

    @cached_property
    def corner_indices(self) -> dict:
        """Coordinate indices of the four Peirce corners."""
        slots = [b.slots(np.arange(s.start, s.stop))
                 for b, s in zip(self.blocks, self.block_slices)]
        return {name: np.concatenate([np.zeros(0, dtype=int)] + [sl[k] for sl in slots])
                for k, name in enumerate(CORNERS)}

    # -- elements ----------------------------------------------------------

    def random_element(self, rng) -> TernaryElement:
        return TernaryElement(random_coords(rng, self.dim))

    def from_corners(self, la=None, ma=None, wa=None, ra=None) -> TernaryElement:
        v = np.zeros(self.dim, dtype=np.complex128)
        for name, val in zip(CORNERS, (la, ma, wa, ra)):
            if val is not None:
                v[self.corner_indices[name]] = np.asarray(val, dtype=np.complex128)
        return TernaryElement(v)

    def embed_base(self, x) -> TernaryElement:
        """Place a base element in the upper-right corner."""
        return self.from_corners(ma=as_coords(self.base, x))

    def embed_base_conj(self, u) -> TernaryElement:
        """Place the bar of a base element in the lower-left corner."""
        return self.from_corners(wa=as_coords(self.base, u).conj())

    def materialize(self, x) -> list:
        """Per-block big matrices of an element (or coordinate batch)."""
        coords = x.coords if isinstance(x, TernaryElement) else np.asarray(x)
        return [b.materialize(coords[..., s]) for b, s in zip(self.blocks, self.block_slices)]

    def _split(self, mats, factors):
        """Coordinates of per-block big matrices, each formed from its block's
        ``factors``; InvalidInput when one leaves its block's span."""
        return [_span_coords(b.split, big, f, DEFAULT_TOL, _MATRIX_LEAVES_SPAN)
                for b, big, f in zip(self.blocks, mats, factors)]

    def norm(self, x) -> float:
        """Block operator norm of the concrete realization."""
        mats = self.materialize(x)
        return max((mk.op_norm(m) for m in mats), default=0.0)

    # -- algebra operations --------------------------------------------------

    def mul_coords(self, xa, xb):
        """Batched product on coordinate arrays (..., dim)."""
        pairs = list(zip(self.materialize(xa), self.materialize(xb)))
        out = self._split([b.mul_big(x, y) for b, (x, y) in zip(self.blocks, pairs)], pairs)
        if not out:
            lead = np.broadcast_shapes(np.shape(xa)[:-1], np.shape(xb)[:-1])
            return np.zeros(lead + (0,), dtype=np.complex128)
        return np.concatenate(out, axis=-1)

    @cached_property
    def table(self) -> np.ndarray:
        """``table[i, j]`` = coordinates of e_i e_j, built block by block from
        the 8 composable corner products (``CORNER_PRODUCTS``), one batched
        ``BlockEmbedding.corner_products`` call each, so every basis product
        passes its corner's span check; all other entries are exactly 0."""
        d = self.dim
        table = np.zeros((d, d, d), dtype=np.complex128)
        for b, s in zip(self.blocks, self.block_slices):
            at = b.slots(np.arange(s.start, s.stop))
            for x, y, t in CORNER_PRODUCTS:
                table[np.ix_(at[x], at[y], at[t])] = b.corner_products(
                    y, x, t, np.eye(b.dims[x]), left=False)
        table.flags.writeable = False
        return table

    def star_coords(self, coords):
        """Involution on coordinates: the adjoint of the block matrix."""
        mats = [np.swapaxes(m, -1, -2).conj() for m in self.materialize(coords)]
        out = self._split(mats, [(m,) for m in mats])
        if not out:
            return np.zeros_like(np.asarray(coords))
        return np.concatenate(out, axis=-1)


def build_embedding(m: TernarySpace) -> StandardEmbedding:
    """Construct the standard embedding of a block-presented space."""
    m._need_blocks("build_embedding")
    blocks = []
    for blk in m.blocks:
        stack = blk.stack
        adj = np.swapaxes(stack, -1, -2).conj()
        ll = (stack[:, None] @ adj[None]).reshape(-1, blk.rows * blk.rows)   # x y*
        l_basis = mk.colspace(ll.T)
        l_stack = l_basis.T.reshape(-1, blk.rows, blk.rows)
        rr = (adj[:, None] @ stack[None]).reshape(-1, blk.cols * blk.cols)   # x* y
        r_basis = mk.colspace(rr.T)
        r_stack = r_basis.T.reshape(-1, blk.cols, blk.cols)
        # units P, Q: projections onto the joint column space of the basis
        # matrices, then of their adjoints, stacked side by side (a cut of 1e-5
        # on its singular values is one of 1e-10 on the eigenvalues of sum x x*)
        p, q = (u @ u.conj().T for u in (mk.colspace(
            a.transpose(1, 0, 2).reshape(a.shape[1], -1), 1e-5) for a in (stack, adj)))
        be = BlockEmbedding(sign=blk.sign, rows=blk.rows, cols=blk.cols,
                            m_stack=stack, l_stack=l_stack, r_stack=r_stack,
                            l_unit=p, r_unit=q)
        # support projections (of norm at most 1) must lie in their corner spans
        _, resid = be.split(be.unit)
        if resid > AXIOM_TOL:
            raise DecompositionInconclusive("support projection escapes the corner span")
        blocks.append(be)
    return StandardEmbedding(base=m, blocks=tuple(blocks))


def emb_mul(e: StandardEmbedding, a, b) -> TernaryElement:
    """Algebra product: linking on +1 blocks, twisted on -1 blocks."""
    return TernaryElement(e.mul_coords(as_coords(e, a), as_coords(e, b)))


def identity_of(e: StandardEmbedding) -> TernaryElement:
    """The exact unit: diagonal support projections, negated on -1 blocks."""
    chunks = [b.split(b.sign * b.unit)[0] for b in e.blocks]
    unit = TernaryElement(np.concatenate(chunks) if chunks
                          else np.zeros(0, dtype=np.complex128))
    eye = np.eye(e.dim, dtype=np.complex128)
    left = unit.coords @ e.table.swapaxes(0, 1)    # row j: u e_j
    right = unit.coords @ e.table                  # row i: e_i u
    resid = max(float(np.abs(left - eye).max(initial=0.0)),
                float(np.abs(right - eye).max(initial=0.0)))
    if resid > UNIT_TOL * max(1.0, float(np.abs(unit.coords).max(initial=0.0))):
        raise DecompositionInconclusive(f"unit residual {resid:.2e} exceeds tolerance")
    return unit


# ---------------------------------------------------------------------------
# The representation pi on M ⊕ R


@dataclass(frozen=True)
class PiOperator:
    """Matrix of the action (f', B') -> (A f' + f B', r(g, f') + B B')."""

    matrix: np.ndarray
    dim_m: int
    dim_r: int

    def apply(self, coords):
        return self.matrix @ np.asarray(coords, dtype=np.complex128)


def _pi_table(e: StandardEmbedding) -> np.ndarray:
    """(d, n, n) with [i, j, k] the coordinate k of e_i e_j, for j, k over M ⊕ R."""
    idx = np.concatenate([e.corner_indices["M"], e.corner_indices["R"]])
    return e.table[:, idx][:, :, idx]


def pi_represent(e: StandardEmbedding, a) -> PiOperator:
    """Left action of ``a`` on the M ⊕ R column, as a matrix; coordinates
    with leading batch axes give a matching batch of matrices."""
    ca = a.coords if isinstance(a, TernaryElement) else np.asarray(a, dtype=np.complex128)
    t = _pi_table(e)
    n = t.shape[1]
    mat = (ca @ t.reshape(e.dim, n * n)).reshape(ca.shape[:-1] + (n, n)).swapaxes(-1, -2)
    return PiOperator(matrix=mat, dim_m=e.corner_indices["M"].size,
                      dim_r=e.corner_indices["R"].size)


def pi_kernel_gap(e: StandardEmbedding) -> float:
    """Smallest over largest singular value of the map a -> pi(a)."""
    # column i: the entries of pi(e_i)
    stacked = _pi_table(e).reshape(e.dim, -1).T
    s = np.linalg.svd(stacked, compute_uv=False)
    return float(s[-1] / s[0]) if s.size and s[0] > 0 else 0.0


def _pi_vector_norm(e: StandardEmbedding, v) -> float:
    """Norm ((||f'||^2 + ||B'||^2))^(1/2) of a vector in M ⊕ R."""
    dim_m = e.corner_indices["M"].size
    r = np.zeros(e.dim, dtype=np.complex128)
    r[e.corner_indices["R"]] = v[dim_m:]
    return float(np.hypot(e.base.norm(v[:dim_m]), e.norm(r)))


@dataclass(frozen=True)
class BoundsReport:
    """Certified lower bounds on ||pi(a)|| from witness evaluations."""

    norm_alpha: float
    norm_beta: float
    norm_upper: float
    norm_lower: float
    estimate: float
    margin: float
    ok: bool
    witnesses: int

    def to_dict(self) -> dict:
        return {
            "norm_A": self.norm_alpha, "norm_B": self.norm_beta,
            "norm_f": self.norm_upper, "norm_g": self.norm_lower,
            "estimate": self.estimate, "margin": self.margin,
            "ok": self.ok, "witnesses": self.witnesses,
        }


def pi_norm_lower_bounds(e: StandardEmbedding, a, tol: float = 1e-8) -> BoundsReport:
    """Certify est(||pi(a)||) >= max(||A||, ||B||, ||f||, ||g||) - tol.

    The estimate is a supremum of ||pi(a) v|| / ||v|| over structured
    witnesses only: on each block the unit of R, the normalized g and a
    top-eigenspace image for the alpha corner.  Only lower bounds are
    certified; the exact Banach norm is never computed.
    """
    ca = as_coords(e, a)
    idx = np.concatenate([e.corner_indices["M"], e.corner_indices["R"]])
    pi_a = pi_represent(e, ca)

    def witness(s, b, big):
        """A block matrix of block b as a vector of M ⊕ R, and its residual."""
        v = np.zeros(e.dim, dtype=np.complex128)
        v[s], resid = b.split(big)
        return v[idx], resid

    norm_a = norm_b = norm_f = norm_g = 0.0
    witnesses = []

    for s, b, big in zip(e.block_slices, e.blocks, e.materialize(ca)):
        r = b.rows
        alpha, fmat, beta = big[:r, :r], big[:r, r:], big[r:, r:]
        gmat = big[r:, :r].conj().T
        norm_a = max(norm_a, mk.op_norm(alpha))
        norm_b = max(norm_b, mk.op_norm(beta))
        norm_f = max(norm_f, mk.op_norm(fmat))
        norm_g = max(norm_g, mk.op_norm(gmat))

        # witness B' = unit of R on this block: certifies ||f|| and ||B||
        wit = np.zeros_like(big)
        wit[r:, r:] = b.r_unit
        witnesses.append(witness(s, b, wit)[0])

        # witness f' = g / ||g||: certifies ||g|| via r(g, f') = g* f'
        if mk.op_norm(gmat) > 0:
            wit = np.zeros_like(big)
            wit[:r, r:] = gmat / mk.op_norm(gmat)
            witnesses.append(witness(s, b, wit)[0])

        # witness for ||A||: image of the top eigenspace of alpha* alpha
        if mk.op_norm(alpha) > 0:
            h = alpha.conj().T @ alpha
            w_eig, v_eig = np.linalg.eigh(h)
            top = w_eig >= w_eig[-1] * (1 - 1e-9)
            proj = v_eig[:, top] @ v_eig[:, top].conj().T
            best, best_norm = None, 0.0
            for seed_mat in b.m_stack:
                cand = proj @ seed_mat
                nn = mk.op_norm(cand)
                if nn > best_norm:
                    best, best_norm = cand, nn
            if best is not None and best_norm > 0:
                wit = np.zeros_like(big)
                wit[:r, r:] = best / best_norm
                wit, resid = witness(s, b, wit)
                if resid <= 1e-8 * max(1.0, 1.0 / best_norm):
                    witnesses.append(wit)

    est = 0.0
    for wit in witnesses:
        denom = _pi_vector_norm(e, wit)
        if denom <= 0:
            continue
        est = max(est, _pi_vector_norm(e, pi_a.apply(wit)) / denom)

    target = max(norm_a, norm_b, norm_f, norm_g)
    margin = est - target
    return BoundsReport(norm_alpha=norm_a, norm_beta=norm_b, norm_upper=norm_f,
                        norm_lower=norm_g, estimate=est, margin=margin,
                        ok=bool(margin >= -tol), witnesses=len(witnesses))


# ---------------------------------------------------------------------------
# Peirce splitting of ideals


@dataclass(frozen=True)
class PeirceCorners:
    """Corner parts of an ideal in L, M, Mbar, R (embedding coordinates)."""

    l: np.ndarray
    m: np.ndarray
    mbar: np.ndarray
    r: np.ndarray

    @property
    def parts(self):
        return self.l, self.m, self.mbar, self.r

    @property
    def dims(self):
        return tuple(p.shape[1] for p in self.parts)


def _corner_part(span: np.ndarray, idx: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns, zero outside ``idx``) of the part in the
    corner ``idx`` of a span with orthonormal columns that is the direct sum
    of its corner parts, as every ideal of a Peirce-graded algebra is.  The
    span's rows in the corner have singular values 1 on the part and 0 off
    it, so the part is their column space; rows all within tol of zero are
    rounding, and the corner has no part."""
    rows = span[idx]
    q = mk.colspace(rows, tol) if np.abs(rows).max(initial=0.0) > tol else rows[:, :0]
    part = np.zeros((len(span), q.shape[1]), dtype=np.complex128)
    part[idx] = q
    return part


def _corner_parts(e: StandardEmbedding, span: np.ndarray,
                  tol: float = DEFAULT_TOL) -> PeirceCorners:
    """The four corner parts of a span with orthonormal columns (see
    ``_corner_part``); their dimensions add up to the span's exactly when
    the span is graded by the corners."""
    return PeirceCorners(*(_corner_part(span, e.corner_indices[c], tol) for c in CORNERS))


def _corner_groups(e: StandardEmbedding, corners: PeirceCorners, x: int, left: bool):
    """The products of corner x's part columns with the basis, the basis
    first when ``left``, as (rows, cols, groups, q).

    The algebra is graded by the corners, so a column of part x has nonzero
    products only with the basis of the two corners composable with x on
    that side, each product in one corner of its block (``CORNER_PRODUCTS``).
    ``rows`` and ``cols`` are the embedding coordinates of those two basis
    corners and of their two product corners; a group of (n, rows, cols)
    holds column j's product with basis element rows[i] at [j, i], formed on
    corner blocks by ``BlockEmbedding.corner_products``.  ``q`` is the two
    product parts on ``cols``: zero outside their corners, so reading a
    product against it is reading it against the sum of all the parts.
    """
    idx = e.corner_indices
    # (basis corner, product corner) of each composable pair with x
    pairs = [(a if left else b, t) for a, b, t in CORNER_PRODUCTS if (b if left else a) == x]
    rows, cols = (np.concatenate([idx[CORNERS[pair[k]]] for pair in pairs]) for k in (0, 1))
    q = np.hstack([corners.parts[t] for _, t in pairs])[cols]
    # [block][corner]: the block's coordinates among the corner's
    cuts = np.cumsum([(0,) * len(CORNERS)] + [b.dims for b in e.blocks], axis=0)
    within = [[slice(lo, hi) for lo, hi in zip(*ends)] for ends in zip(cuts[:-1], cuts[1:])]
    starts = [np.cumsum([0] + [len(idx[CORNERS[pair[k]]]) for pair in pairs]) for k in (0, 1)]
    part = corners.parts[x][idx[CORNERS[x]]]

    def groups():
        for s in mk.span_chunks(part, len(rows)):
            group = np.zeros((len(s), len(rows), len(cols)), dtype=np.complex128)
            for (y, t), r0, c0 in zip(pairs, *starts):
                block = group[:, r0:, c0:]
                for b, at in zip(e.blocks, within):
                    block[:, at[y], at[t]] = b.corner_products(y, x, t, s[:, at[x]], left)
            yield group

    return rows, cols, groups(), q


def _assoc_ideal_residual(e: StandardEmbedding, corners: PeirceCorners) -> float:
    """Worst residual of the basis products e_i s and s e_i against the sum
    of the corner parts, s over the parts' columns: each corner's columns
    in each order, as ``_corner_groups`` forms them, through
    ``matkernel.span_residual``.  A group holds one column's products in one
    order, so the residual equals the per-column one of the products formed
    as whole block matrices (by ``mul_coords``) on the parts' columns.
    """
    return max((mk.span_residual(groups, q)
                for x in range(len(CORNERS)) for left in (True, False)
                for _, _, groups, q in [_corner_groups(e, corners, x, left)]), default=0.0)


def peirce_split(e: StandardEmbedding, span) -> PeirceCorners:
    """Split an ideal into its four corner parts (see ``_corner_part``).

    Every ideal is graded by the corners, as the corner units P and Q of
    each block lie in the algebra, so a span whose parts, cut at AXIOM_TOL,
    do not add up to its own dimension raises NotAnIdeal before any product
    is formed; the parts then pass the graded product check and the M part
    the ternary ideal check, both within AXIOM_TOL.  A span whose columns do
    not have ``e.dim`` entries raises ShapeError.
    """
    span = mk.colspace(np.asarray(span, dtype=np.complex128), DEFAULT_TOL)
    if span.shape[0] != e.dim:
        raise ShapeError(f"span has {span.shape[0]} rows, the embedding {e.dim} dimensions")
    corners = _corner_parts(e, span, AXIOM_TOL)
    if sum(corners.dims) != span.shape[1]:
        raise NotAnIdeal(f"subspace is not graded by the Peirce corners: parts {corners.dims} "
                         f"do not add up to {span.shape[1]}")
    resid = _assoc_ideal_residual(e, corners)
    if resid > AXIOM_TOL:
        raise NotAnIdeal(f"subspace fails the ideal check (residual {resid:.2e})")
    # the M-corner must be a ternary ideal of the base space
    mcols = corners.m[e.corner_indices["M"], :]
    resid = _ternary_ideal_residual(e.base, mcols)
    if resid > AXIOM_TOL:
        raise DecompositionInconclusive(
            f"M-corner fails the ternary ideal check (residual {resid:.2e})")
    return corners


def _ternary_ideal_residual(m: TernarySpace, span: np.ndarray) -> float:
    """Worst projection residual of [MMS], [SMM], [MSM] against span(S);
    ShapeError when the columns of S do not have ``m.dim`` entries."""
    q = mk.colspace(span)
    if q.shape[0] != m.dim:
        raise ShapeError(f"span has {q.shape[0]} rows, the space {m.dim} dimensions")
    chunks = mk.span_chunks(q, 3 * m.dim ** 2)
    return mk.span_residual((_ideal_products(m, s) for s in chunks), q)


# ---------------------------------------------------------------------------
# C*-identity failure witness


def cstar_identity_witness(e: StandardEmbedding):
    """A unit-norm a with a* a = 0, so | ||a* a|| - ||a||^2 | = 1.

    On the first -1 block, x = U V* from the SVD of the first basis
    matrix is a partial isometry; a = (x x* in the L slot, x* in the
    lower-left slot) / sqrt(2) has norm 1 and a* a = 0 under the twisted
    product, so the gap attains its supremum at unit norm.  The reported
    gap is measured with the algebra's own product and norm.

    Returns ``(a, gap)`` or None when the embedding has no -1 block, in
    which case the C*-identity holds in the block operator norm.
    """
    anti = [(sl, b) for sl, b in zip(e.block_slices, e.blocks) if b.sign < 0]
    if not anti:
        return None
    sl, b = anti[0]
    u, s, vh = np.linalg.svd(b.m_stack[0])
    rank = int(np.sum(s > 1e-10 * max(s.max(initial=0.0), 1e-300)))
    x = u[:, :rank] @ vh[:rank, :]
    r = b.rows
    big = np.zeros((r + b.cols,) * 2, dtype=np.complex128)
    big[:r, :r] = x @ x.conj().T
    big[r:, :r] = x.conj().T
    v = np.zeros(e.dim, dtype=np.complex128)
    v[sl], resid = b.split(big)
    if resid > 1e-8:
        raise DecompositionInconclusive(
            f"partial isometry escapes its corner span (residual {resid:.2e})")
    v /= e.norm(v)
    gap = abs(e.norm(e.mul_coords(e.star_coords(v), v)) - e.norm(v) ** 2)
    return TernaryElement(v), float(gap)
