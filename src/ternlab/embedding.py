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
from .errors import (
    DecompositionInconclusive,
    InvalidInput,
    NotAnIdeal,
)
from .ternary import (
    TernaryElement,
    TernarySpace,
    _block_slices,
    _ideal_products,
    as_coords,
    random_coords,
)

DEFAULT_TOL = 1e-9

CORNERS = ("L", "M", "Mbar", "R")


def _support_projection(mats, dim_space, tol=1e-10):
    """Projection onto the joint column space of the given matrices."""
    s = np.zeros((dim_space, dim_space), dtype=np.complex128)
    for m in mats:
        s += m @ m.conj().T
    w, v = np.linalg.eigh(s)
    keep = w > tol * max(w.max(initial=0.0), 1e-300)
    vk = v[:, keep]
    return vk @ vk.conj().T


@dataclass(frozen=True)
class BlockEmbedding:
    """Corner data of the embedding of one signed block.

    ``slots``, ``materialize`` and ``split`` are the only code that knows
    a block's coordinate layout [L | M | Mbar | R]; everything else works
    on whole (r+c)x(r+c) block matrices or on corner indices.
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
    def unit(self):
        """The block matrix diag(P, Q) of the support projections."""
        r = self.rows
        u = np.zeros((r + self.cols,) * 2, dtype=np.complex128)
        u[:r, :r], u[r:, r:] = self.l_unit, self.r_unit
        return u

    @cached_property
    def _twist(self):
        # sign pattern S = [[-1, -1], [+1, -1]] of the twisted product
        s = -np.ones((self.rows + self.cols,) * 2)
        s[self.rows:, :self.rows] = 1.0
        return s

    def slots(self, coords):
        """The [L | M | Mbar | R] slots of this block's coordinates (..., dim)."""
        return np.split(np.asarray(coords), np.cumsum(self.dims)[:-1], axis=-1)

    def materialize(self, coords):
        """Big block matrices from this block's coordinates (..., dim).

        The Mbar slot holds the lower-left corner over {m_i*}.
        """
        r, c = self.rows, self.cols
        la, ma, wa, ra = self.slots(coords)
        out = np.zeros(la.shape[:-1] + (r + c, r + c), dtype=np.complex128)
        out[..., :r, :r] = np.tensordot(la, self.l_stack, axes=([-1], [0]))
        out[..., :r, r:] = np.tensordot(ma, self.m_stack, axes=([-1], [0]))
        star = np.swapaxes(self.m_stack, -1, -2).conj()
        out[..., r:, :r] = np.tensordot(wa, star, axes=([-1], [0]))
        out[..., r:, r:] = np.tensordot(ra, self.r_stack, axes=([-1], [0]))
        return out

    def split(self, big):
        """This block's coordinates (..., dim) of big block matrices, and the
        largest distance of a corner from its corner span."""
        r = self.rows
        # lower-left corner: X = sum_i s_i m_i*  <=>  X* = sum_i conj(s_i) m_i
        corners = (big[..., :r, :r], big[..., :r, r:],
                   np.swapaxes(big[..., r:, :r], -1, -2).conj(), big[..., r:, r:])
        out, resid = [], 0.0
        for mats, (pinv, basis) in zip(corners, self._projectors):
            flat = mats.reshape(mats.shape[:-2] + (basis.shape[1],))
            coords = flat @ pinv.T
            resid = max(resid, float(np.linalg.norm(coords @ basis - flat, axis=-1)
                                     .max(initial=0.0)))
            out.append(coords)
        out[2] = out[2].conj()
        return np.concatenate(out, axis=-1), resid

    def mul_big(self, a, b):
        """Product of materialized block matrices under this block's rule;
        the twisted one is the ordinary product conjugated by the sign
        pattern S: S∘((S∘a) @ (S∘b))."""
        if self.sign > 0:
            return a @ b
        s = self._twist
        return s * ((s * a) @ (s * b))


def _split_checked(b: BlockEmbedding, big, tol):
    """``b.split(big)``'s coordinates; InvalidInput when a matrix leaves the
    block's span by more than tol relative to max(1, the largest entry)."""
    coords, resid = b.split(big)
    scale = max(1.0, float(np.abs(big).max(initial=0.0)))
    if resid > tol * scale:
        raise InvalidInput(f"block matrix leaves the embedding span "
                           f"(residual {resid / scale:.2e})")
    return coords


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

    def _split(self, mats, tol):
        """Coordinates of per-block big matrices; InvalidInput when one
        leaves its block's span."""
        return [_split_checked(b, big, tol) for b, big in zip(self.blocks, mats)]

    def norm(self, x) -> float:
        """Block operator norm of the concrete realization."""
        mats = self.materialize(x)
        return max((mk.op_norm(m) for m in mats), default=0.0)

    # -- algebra operations --------------------------------------------------

    def mul_coords(self, xa, xb, tol=DEFAULT_TOL):
        """Batched product on coordinate arrays (..., dim)."""
        out = self._split([b.mul_big(x, y) for b, x, y in
                           zip(self.blocks, self.materialize(xa), self.materialize(xb))], tol)
        if not out:
            lead = np.broadcast_shapes(np.shape(xa)[:-1], np.shape(xb)[:-1])
            return np.zeros(lead + (0,), dtype=np.complex128)
        return np.concatenate(out, axis=-1)

    @cached_property
    def table(self) -> np.ndarray:
        """``table[i, j]`` = coordinates of e_i e_j, built by ``mul_coords`` (so
        every basis product passes its span check) about 1024 products a call."""
        d = self.dim
        eye = np.eye(d, dtype=np.complex128)
        table = np.empty((d, d, d), dtype=np.complex128)
        step = max(1, 1024 // max(d, 1))
        for i in range(0, d, step):
            table[i:i + step] = self.mul_coords(eye[i:i + step, None], eye[None])
        table.flags.writeable = False
        return table

    def star_coords(self, coords):
        """Involution on coordinates: the adjoint of the block matrix."""
        out = self._split([np.swapaxes(m, -1, -2).conj() for m in self.materialize(coords)],
                          DEFAULT_TOL)
        if not out:
            return np.zeros_like(np.asarray(coords))
        return np.concatenate(out, axis=-1)


def build_embedding(m: TernarySpace, tol: float = DEFAULT_TOL) -> StandardEmbedding:
    """Construct the standard embedding of a block-presented space."""
    m._need_blocks("build_embedding")
    blocks = []
    for blk in m.blocks:
        stack = blk.stack
        adj = np.swapaxes(stack, -1, -2).conj()
        ll = (stack[:, None] @ adj[None]).reshape(-1, blk.rows * blk.rows)   # x y*
        l_basis = mk.colspace(ll.T, tol)
        l_stack = l_basis.T.reshape(-1, blk.rows, blk.rows)
        rr = (adj[:, None] @ stack[None]).reshape(-1, blk.cols * blk.cols)   # x* y
        r_basis = mk.colspace(rr.T, tol)
        r_stack = r_basis.T.reshape(-1, blk.cols, blk.cols)
        p = _support_projection(list(stack), blk.rows)
        q = _support_projection([x.conj().T for x in stack], blk.cols)
        be = BlockEmbedding(sign=blk.sign, rows=blk.rows, cols=blk.cols,
                            m_stack=stack, l_stack=l_stack, r_stack=r_stack,
                            l_unit=p, r_unit=q)
        # support projections must lie in their corner spans
        _, resid = be.split(be.unit)
        if resid > 1e-8 * max(1.0, mk.op_norm(p), mk.op_norm(q)):
            raise DecompositionInconclusive("support projection escapes the corner span")
        blocks.append(be)
    return StandardEmbedding(base=m, blocks=tuple(blocks))


def emb_mul(e: StandardEmbedding, a, b, tol: float = DEFAULT_TOL) -> TernaryElement:
    """Algebra product: linking on +1 blocks, twisted on -1 blocks."""
    return TernaryElement(e.mul_coords(as_coords(e, a), as_coords(e, b), tol))


def emb_star(e: StandardEmbedding, a) -> TernaryElement:
    """Involution a*: conjugate-linear, involutive, anti-multiplicative."""
    return TernaryElement(e.star_coords(as_coords(e, a)))


def identity_of(e: StandardEmbedding, tol: float = 1e-10) -> TernaryElement:
    """The exact unit: diagonal support projections, negated on -1 blocks."""
    chunks = [b.split(b.sign * b.unit)[0] for b in e.blocks]
    unit = TernaryElement(np.concatenate(chunks) if chunks
                          else np.zeros(0, dtype=np.complex128))
    eye = np.eye(e.dim, dtype=np.complex128)
    left = unit.coords @ e.table.swapaxes(0, 1)    # row j: u e_j
    right = unit.coords @ e.table                  # row i: e_i u
    resid = max(float(np.abs(left - eye).max(initial=0.0)),
                float(np.abs(right - eye).max(initial=0.0)))
    if resid > tol * max(1.0, float(np.abs(unit.coords).max(initial=0.0))):
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
    """Corner intersections of an ideal with L, M, Mbar, R."""

    l: np.ndarray
    m: np.ndarray
    mbar: np.ndarray
    r: np.ndarray

    @property
    def dims(self):
        return (self.l.shape[1], self.m.shape[1], self.mbar.shape[1], self.r.shape[1])


def _assoc_ideal_residual(e: StandardEmbedding, span: np.ndarray) -> float:
    """Worst residual of basis products e_i s_j, s_j e_i against span.

    Each block multiplies its materialized basis with the span rows' block
    matrices, in both orders; a basis element of one block times a row's
    part in another is zero, so those products are never formed.  About
    SPAN_CHUNK_ROWS / 4 rows a batch, as this check sets the peak memory of
    an ideal's embedding.
    """
    d, worst = e.dim, 0.0
    bases = [b.materialize(np.eye(b.dim, dtype=np.complex128))[None] for b in e.blocks]
    for s in mk.span_chunks(span, 4 * d):
        mats = [b.materialize(s[:, sl])[:, None] for b, sl in zip(e.blocks, e.block_slices)]
        for left in (True, False):
            # [row j, basis i]: coordinates of e_i s_j, then of s_j e_i
            prods = np.zeros((len(s), d, d), dtype=np.complex128)
            for b, sl, basis, mat in zip(e.blocks, e.block_slices, bases, mats):
                big = b.mul_big(basis, mat) if left else b.mul_big(mat, basis)
                prods[:, sl, sl] = _split_checked(b, big, DEFAULT_TOL)
            worst = max(worst, mk.span_residual(prods, span))
    return worst


def _slice_intersection(span: np.ndarray, keep: np.ndarray, tol=DEFAULT_TOL):
    """Vectors of a span supported on the given coordinate indices."""
    dim = span.shape[0]
    mask = np.ones(dim, dtype=bool)
    mask[keep] = False
    outside = span[mask, :]
    ns = mk.nullspace(outside, tol)
    return mk.colspace(span @ ns, tol)


def peirce_split(e: StandardEmbedding, span, tol: float = 1e-8) -> PeirceCorners:
    """Split a verified ideal into its four corner intersections."""
    span = mk.colspace(np.asarray(span, dtype=np.complex128), DEFAULT_TOL)
    resid = _assoc_ideal_residual(e, span)
    if resid > tol:
        raise NotAnIdeal(f"subspace fails the ideal check (residual {resid:.2e})")
    corners = PeirceCorners(
        l=_slice_intersection(span, e.corner_indices["L"]),
        m=_slice_intersection(span, e.corner_indices["M"]),
        mbar=_slice_intersection(span, e.corner_indices["Mbar"]),
        r=_slice_intersection(span, e.corner_indices["R"]),
    )
    if sum(corners.dims) != span.shape[1]:
        raise DecompositionInconclusive(
            f"corner dimensions {corners.dims} do not add up to {span.shape[1]}")
    # the M-corner must be a ternary ideal of the base space
    mcols = corners.m[e.corner_indices["M"], :]
    resid = _ternary_ideal_residual(e.base, mcols)
    if resid > tol:
        raise DecompositionInconclusive(
            f"M-corner fails the ternary ideal check (residual {resid:.2e})")
    return corners


def _ternary_ideal_residual(m: TernarySpace, span: np.ndarray) -> float:
    """Worst projection residual of [MMS], [SMM], [MSM] against span(S)."""
    q = mk.colspace(span)
    return max((mk.span_residual(_ideal_products(m, s), q)
                for s in mk.span_chunks(q, 3 * m.dim ** 2)), default=0.0)


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

