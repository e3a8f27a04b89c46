"""Standard embeddings of block-presented C*-ternary rings.

For each signed block M of r-by-c matrices the embedding is the space
of 2x2 block matrices

    [ alpha  z  ]      alpha in span(M M*),  z, w in M,
    [ w*     beta]      beta in span(M* M),

with the ordinary matrix product on +1 blocks and the sign-twisted
product on -1 blocks:

    [a z; w* b] . [a' z'; w'* b'] =
        [-aa' + zw'*,  -az' - zb';  -w*a' - bw'*,  w*z' - bb'].

The involution is the honest adjoint of the block matrix in both cases.
Coordinates per block are laid out as [L | M | Mbar | R], where the
Mbar slot parametrizes the lower-left corner over the basis {m_i*}.

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
    ShapeError,
)
from .ternary import TernarySpace, _ideal_products, as_coords

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
    """Corner data of the embedding of one signed block."""

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
    def _m_pinv(self):
        return np.linalg.pinv(self.m_stack.reshape(self.m_stack.shape[0], -1).T)

    @cached_property
    def _l_pinv(self):
        return np.linalg.pinv(self.l_stack.reshape(self.l_stack.shape[0], -1).T)

    @cached_property
    def _r_pinv(self):
        return np.linalg.pinv(self.r_stack.reshape(self.r_stack.shape[0], -1).T)

    def _proj(self, pinv, stack, mats):
        flat = np.asarray(mats).reshape(-1, stack.shape[1] * stack.shape[2])
        coords = flat @ pinv.T
        recon = coords @ stack.reshape(stack.shape[0], -1)
        resid = float(np.linalg.norm(recon - flat, axis=1).max(initial=0.0))
        return coords.reshape(np.shape(mats)[:-2] + (stack.shape[0],)), resid

    def materialize(self, la, ma, wa, ra):
        """Big block matrices from per-corner coordinate arrays.

        ``wa`` holds the lower-left corner coordinates over {m_i*}.
        """
        r, c = self.rows, self.cols
        lead = np.shape(la)[:-1]
        out = np.zeros(lead + (r + c, r + c), dtype=np.complex128)
        out[..., :r, :r] = np.tensordot(la, self.l_stack, axes=([-1], [0]))
        out[..., :r, r:] = np.tensordot(ma, self.m_stack, axes=([-1], [0]))
        star = np.swapaxes(self.m_stack, -1, -2).conj()
        out[..., r:, :r] = np.tensordot(wa, star, axes=([-1], [0]))
        out[..., r:, r:] = np.tensordot(ra, self.r_stack, axes=([-1], [0]))
        return out

    def split(self, big, tol=DEFAULT_TOL):
        """Per-corner coordinates of big block matrices, residual-checked."""
        r = self.rows
        la, res_l = self._proj(self._l_pinv, self.l_stack, big[..., :r, :r])
        ma, res_m = self._proj(self._m_pinv, self.m_stack, big[..., :r, r:])
        # lower-left corner: X = sum_i s_i m_i*  <=>  X* = sum_i conj(s_i) m_i
        ll = np.swapaxes(big[..., r:, :r], -1, -2).conj()
        ta, res_w = self._proj(self._m_pinv, self.m_stack, ll)
        wa = ta.conj()
        ra, res_r = self._proj(self._r_pinv, self.r_stack, big[..., r:, r:])
        resid = max(res_l, res_m, res_w, res_r)
        scale = max(1.0, float(np.abs(big).max(initial=0.0)))
        if resid > tol * scale:
            raise InvalidInput(f"block matrix leaves the embedding span "
                               f"(residual {resid / scale:.2e})")
        return la, ma, wa, ra

    @staticmethod
    def _diag_part(a, r):
        out = np.zeros_like(a)
        out[..., :r, :r] = a[..., :r, :r]
        out[..., r:, r:] = a[..., r:, r:]
        return out

    def mul_big(self, a, b):
        """Product of materialized block matrices under this block's rule."""
        if self.sign > 0:
            return a @ b
        # twisted rule: +1 on offdiag*offdiag contributions, -1 elsewhere
        a_even = self._diag_part(a, self.rows)
        b_even = self._diag_part(b, self.rows)
        a_odd = a - a_even
        b_odd = b - b_even
        return a_odd @ (b_odd - b_even) - a_even @ (b_odd + b_even)


@dataclass(frozen=True)
class EmbeddingElement:
    """Coordinates of an element of a StandardEmbedding."""

    coords: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.coords, dtype=np.complex128).ravel()
        if v.size and not np.all(np.isfinite(v)):
            raise InvalidInput("element has non-finite coordinates")
        v.flags.writeable = False
        object.__setattr__(self, "coords", v)


@dataclass(frozen=True)
class StandardEmbedding:
    """The linking (+) / twisted (-) algebra containing a block space."""

    base: TernarySpace
    blocks: tuple

    @property
    def dim(self) -> int:
        return sum(b.dim for b in self.blocks)

    @cached_property
    def block_slices(self) -> tuple:
        out, start = [], 0
        for b in self.blocks:
            out.append(slice(start, start + b.dim))
            start += b.dim
        return tuple(out)

    @cached_property
    def corner_indices(self) -> dict:
        """Coordinate indices of the four Peirce corners."""
        out = {name: [] for name in CORNERS}
        start = 0
        for b in self.blocks:
            dl, dm, dw, dr = b.dims
            out["L"].extend(range(start, start + dl))
            out["M"].extend(range(start + dl, start + dl + dm))
            out["Mbar"].extend(range(start + dl + dm, start + dl + dm + dw))
            out["R"].extend(range(start + dl + dm + dw, start + dl + dm + dw + dr))
            start += b.dim
        return {k: np.asarray(v, dtype=int) for k, v in out.items()}

    # -- elements ----------------------------------------------------------

    def element(self, coords) -> EmbeddingElement:
        e = EmbeddingElement(np.asarray(coords, dtype=np.complex128))
        if e.coords.shape != (self.dim,):
            raise ShapeError(f"element has {e.coords.shape[0]} coordinates, "
                             f"algebra has dim {self.dim}")
        return e

    def zero(self) -> EmbeddingElement:
        return EmbeddingElement(np.zeros(self.dim, dtype=np.complex128))

    def random_element(self, rng, scale=1.0) -> EmbeddingElement:
        v = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
        return EmbeddingElement(scale * v / np.sqrt(2.0))

    def from_corners(self, la=None, ma=None, wa=None, ra=None) -> EmbeddingElement:
        v = np.zeros(self.dim, dtype=np.complex128)
        for name, val in zip(CORNERS, (la, ma, wa, ra)):
            if val is not None:
                v[self.corner_indices[name]] = np.asarray(val, dtype=np.complex128)
        return EmbeddingElement(v)

    def embed_base(self, x) -> EmbeddingElement:
        """Place a base element in the upper-right corner."""
        return self.from_corners(ma=as_coords(self.base, x))

    def embed_base_conj(self, u) -> EmbeddingElement:
        """Place the bar of a base element in the lower-left corner."""
        return self.from_corners(wa=as_coords(self.base, u).conj())

    def _split_coords(self, coords):
        coords = np.asarray(coords, dtype=np.complex128)
        per_block = []
        for b, s in zip(self.blocks, self.block_slices):
            chunk = coords[..., s]
            dl, dm, dw, dr = b.dims
            per_block.append((chunk[..., :dl], chunk[..., dl:dl + dm],
                              chunk[..., dl + dm:dl + dm + dw],
                              chunk[..., dl + dm + dw:]))
        return per_block

    def materialize(self, x) -> list:
        """Per-block big matrices of an element (or coordinate batch)."""
        coords = x.coords if isinstance(x, EmbeddingElement) else np.asarray(x)
        return [b.materialize(*chunk)
                for b, chunk in zip(self.blocks, self._split_coords(coords))]

    def norm(self, x) -> float:
        """Block operator norm of the concrete realization."""
        mats = self.materialize(x)
        return max((mk.op_norm(m) for m in mats), default=0.0)

    # -- algebra operations --------------------------------------------------

    def mul_coords(self, xa, xb, tol=DEFAULT_TOL):
        """Batched product on coordinate arrays (..., dim)."""
        out = []
        for b, ca, cb in zip(self.blocks,
                             self._split_coords(xa), self._split_coords(xb)):
            big = b.mul_big(b.materialize(*ca), b.materialize(*cb))
            out.append(np.concatenate(b.split(big, tol), axis=-1))
        lead = np.broadcast_shapes(np.shape(xa)[:-1], np.shape(xb)[:-1])
        if not out:
            return np.zeros(lead + (0,), dtype=np.complex128)
        return np.concatenate([np.broadcast_to(o, lead + o.shape[-1:]) for o in out],
                              axis=-1)

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
        mats = self.materialize(coords)
        out = []
        for b, m in zip(self.blocks, mats):
            out.append(np.concatenate(b.split(np.swapaxes(m, -1, -2).conj()), axis=-1))
        if not out:
            return np.zeros_like(np.asarray(coords))
        return np.concatenate(out, axis=-1)


def build_embedding(m: TernarySpace, tol: float = DEFAULT_TOL) -> StandardEmbedding:
    """Construct the standard embedding of a block-presented space."""
    m._need_blocks("build_embedding")
    blocks = []
    for blk in m.blocks:
        stack = blk.stack
        ll = np.einsum("iab,jcb->ijac", stack, stack.conj(),
                       optimize=True).reshape(-1, blk.rows * blk.rows)
        l_basis = mk.colspace(ll.T, tol)
        l_stack = l_basis.T.reshape(-1, blk.rows, blk.rows)
        rr = np.einsum("iba,jbc->ijac", stack.conj(), stack,
                       optimize=True).reshape(-1, blk.cols * blk.cols)
        r_basis = mk.colspace(rr.T, tol)
        r_stack = r_basis.T.reshape(-1, blk.cols, blk.cols)
        p = _support_projection(list(stack), blk.rows)
        q = _support_projection([x.conj().T for x in stack], blk.cols)
        be = BlockEmbedding(sign=blk.sign, rows=blk.rows, cols=blk.cols,
                            m_stack=stack, l_stack=l_stack, r_stack=r_stack,
                            l_unit=p, r_unit=q)
        # support projections must lie in their corner spans
        _, res_p = be._proj(be._l_pinv, be.l_stack, p[None])
        _, res_q = be._proj(be._r_pinv, be.r_stack, q[None])
        if max(res_p, res_q) > 1e-8 * max(1.0, mk.op_norm(p), mk.op_norm(q)):
            raise DecompositionInconclusive("support projection escapes the corner span")
        blocks.append(be)
    return StandardEmbedding(base=m, blocks=tuple(blocks))


def emb_mul(e: StandardEmbedding, a, b, tol: float = DEFAULT_TOL) -> EmbeddingElement:
    """Algebra product: linking on +1 blocks, twisted on -1 blocks."""
    ca = a.coords if isinstance(a, EmbeddingElement) else np.asarray(a, dtype=np.complex128)
    cb = b.coords if isinstance(b, EmbeddingElement) else np.asarray(b, dtype=np.complex128)
    if ca.shape != (e.dim,) or cb.shape != (e.dim,):
        raise ShapeError("operands do not match the embedding dimension")
    return EmbeddingElement(e.mul_coords(ca, cb, tol))


def emb_star(e: StandardEmbedding, a) -> EmbeddingElement:
    """Involution a*: conjugate-linear, involutive, anti-multiplicative."""
    ca = a.coords if isinstance(a, EmbeddingElement) else np.asarray(a, dtype=np.complex128)
    return EmbeddingElement(e.star_coords(ca))


def identity_of(e: StandardEmbedding, tol: float = 1e-10) -> EmbeddingElement:
    """The exact unit: diagonal support projections, negated on -1 blocks."""
    chunks = []
    for b in e.blocks:
        la, _ = b._proj(b._l_pinv, b.l_stack, (b.sign * b.l_unit)[None])
        ra, _ = b._proj(b._r_pinv, b.r_stack, (b.sign * b.r_unit)[None])
        dl, dm, dw, dr = b.dims
        chunk = np.zeros(b.dim, dtype=np.complex128)
        chunk[:dl] = la[0]
        chunk[dl + dm + dw:] = ra[0]
        chunks.append(chunk)
    unit = EmbeddingElement(np.concatenate(chunks) if chunks
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
    ca = a.coords if isinstance(a, EmbeddingElement) else np.asarray(a, dtype=np.complex128)
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


def _pi_vector_norm(e: StandardEmbedding, mcoords, rcoords) -> float:
    """Norm ((||f'||^2 + ||B'||^2))^(1/2) of a vector in M ⊕ R."""
    nm = e.base.norm(mcoords)
    nr = 0.0
    for b, sl in zip(e.blocks, _r_slices(e)):
        beta = np.tensordot(rcoords[sl], b.r_stack, axes=([0], [0]))
        nr = max(nr, mk.op_norm(beta))
    return float(np.hypot(nm, nr))


def _r_slices(e: StandardEmbedding):
    out, start = [], 0
    for b in e.blocks:
        dr = b.dims[3]
        out.append(slice(start, start + dr))
        start += dr
    return out


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


def pi_norm_lower_bounds(e: StandardEmbedding, a, seed: int = 0,
                         n_random: int = 16, tol: float = 1e-8) -> BoundsReport:
    """Certify est(||pi(a)||) >= max(||A||, ||B||, ||f||, ||g||) - tol.

    The estimate is a supremum of ||pi(a) v|| / ||v|| over structured
    witnesses (the unit of R, the normalized g, top-eigenspace images
    for the alpha corner) plus random vectors.  Only lower bounds are
    certified; the exact Banach norm is never computed.
    """
    ca = a.coords if isinstance(a, EmbeddingElement) else np.asarray(a, dtype=np.complex128)
    per_block = e._split_coords(ca)
    dim_m, dim_r = e.corner_indices["M"].size, e.corner_indices["R"].size
    rng = np.random.default_rng(seed)
    pi_a = pi_represent(e, ca)

    norm_a = norm_b = norm_f = norm_g = 0.0
    witnesses = []

    m_off = 0
    r_slices = _r_slices(e)
    for bi, (b, (la, ma, wa, ra)) in enumerate(zip(e.blocks, per_block)):
        alpha = np.tensordot(la, b.l_stack, axes=([0], [0]))
        beta = np.tensordot(ra, b.r_stack, axes=([0], [0]))
        fmat = np.tensordot(ma, b.m_stack, axes=([0], [0]))
        gmat = np.tensordot(wa.conj(), b.m_stack, axes=([0], [0]))
        norm_a = max(norm_a, mk.op_norm(alpha))
        norm_b = max(norm_b, mk.op_norm(beta))
        norm_f = max(norm_f, mk.op_norm(fmat))
        norm_g = max(norm_g, mk.op_norm(gmat))

        dm = b.dims[1]
        # witness B' = unit of R on this block: certifies ||f|| and ||B||
        qa, _ = b._proj(b._r_pinv, b.r_stack, b.r_unit[None])
        wit = np.zeros(dim_m + dim_r, dtype=np.complex128)
        wit[dim_m + np.arange(r_slices[bi].start, r_slices[bi].stop)] = qa[0]
        witnesses.append(wit)

        # witness f' = g / ||g||: certifies ||g|| via r(g, f') = g* f'
        if mk.op_norm(gmat) > 0:
            gc = wa.conj() / mk.op_norm(gmat)
            wit = np.zeros(dim_m + dim_r, dtype=np.complex128)
            wit[m_off:m_off + dm] = gc
            witnesses.append(wit)

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
                coords, resid = b._proj(b._m_pinv, b.m_stack, (best / best_norm)[None])
                if resid <= 1e-8 * max(1.0, 1.0 / best_norm):
                    wit = np.zeros(dim_m + dim_r, dtype=np.complex128)
                    wit[m_off:m_off + dm] = coords[0]
                    witnesses.append(wit)
        m_off += dm

    for _ in range(n_random):
        v = rng.standard_normal(dim_m + dim_r) + 1j * rng.standard_normal(dim_m + dim_r)
        witnesses.append(v)

    est = 0.0
    for wit in witnesses:
        denom = _pi_vector_norm(e, wit[:dim_m], wit[dim_m:])
        if denom <= 0:
            continue
        out = pi_a.apply(wit)
        est = max(est, _pi_vector_norm(e, out[:dim_m], out[dim_m:]) / denom)

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
    """Worst residual of basis products e_i s_j, s_j e_i against span."""
    eye = np.eye(e.dim, dtype=np.complex128)
    return max((mk.span_residual(np.concatenate([e.mul_coords(eye, s[:, None]),
                                                 e.mul_coords(s[:, None], eye)]), span)
                for s in mk.span_chunks(span, 2 * e.dim)), default=0.0)


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
    anti = [i for i, b in enumerate(e.blocks) if b.sign < 0]
    if not anti:
        return None
    bi = anti[0]
    b = e.blocks[bi]
    u, s, vh = np.linalg.svd(b.m_stack[0])
    rank = int(np.sum(s > 1e-10 * max(s.max(initial=0.0), 1e-300)))
    x = u[:, :rank] @ vh[:rank, :]
    xcoords, res_x = b._proj(b._m_pinv, b.m_stack, x[None])
    acoords, res_a = b._proj(b._l_pinv, b.l_stack, (x @ x.conj().T)[None])
    if max(res_x, res_a) > 1e-8:
        raise DecompositionInconclusive(
            f"partial isometry escapes its corner span "
            f"(residuals {res_x:.2e}, {res_a:.2e})")
    dl, dm = b.dims[:2]
    v = np.zeros(e.dim, dtype=np.complex128)
    start = e.block_slices[bi].start
    v[start:start + dl] = acoords[0]
    # lower-left X = sum_i s_i m_i* equals x* when conj(s) are x's coordinates
    v[start + dl + dm:start + dl + 2 * dm] = xcoords[0].conj()
    v /= e.norm(v)
    gap = abs(e.norm(e.mul_coords(e.star_coords(v), v)) - e.norm(v) ** 2)
    return EmbeddingElement(v), float(gap)


def cstar_identity_residual(e: StandardEmbedding, samples: int = 200,
                            seed: int = 0) -> float:
    """Max | ||a* a|| - ||a||^2 | over random unit-norm a."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        v = rng.standard_normal(e.dim) + 1j * rng.standard_normal(e.dim)
        n = e.norm(v)
        if n == 0:
            continue
        v = v / n
        aa = e.mul_coords(e.star_coords(v), v)
        worst = max(worst, abs(e.norm(aa) - 1.0))
    return worst
