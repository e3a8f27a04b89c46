"""Finite-dimensional C*-ternary rings.

A space is presented either as a direct sum of signed matrix blocks,
where the triple product on a block is ``[xyz] = sign * x y* z``, or
abstractly by a structure-constants tensor that is conjugate-linear in
the middle slot.  Block presentations carry operator norms; structure
presentations support only the algebraic operations.

All values are immutable and all operations are pure.  Only
``random_element`` draws random numbers, from the generator it is given;
``check_axioms`` decides the axioms on the basis, from exact residuals or,
for a passing dense structure tensor, a rigorous bound on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import matkernel as mk
from .errors import (
    DecompositionInconclusive,
    InvalidInput,
    NormUnavailable,
    ShapeError,
)

DEFAULT_TOL = 1e-9  # closure: a span's basis products, a tensor's associativity identities
AXIOM_TOL = 1e-8  # derived objects: ideals, algebras, Peirce parts, support projections, Wedderburn
STRUCTURE_TOL = 1e-10  # structure_constants_of's span check
# unit roundoff of float64
_UNIT = np.finfo(np.float64).eps / 2
# [[xyz]uv] against [x[uzy]v] and [xy[zuv]] on the basis, as matkernel sweeps
_ASSOC_SWEEP = ("ijkm,muvl->ijkuvl", ("ukjm*,imvl->ijkuvl", "kuvm,ijml->ijkuvl"))
_TRIPLE_LEAVES_SPAN = "triple product left the block span"


def _triple_mats(x, y, z, sign):
    """Blockwise product sign * x y* z; inputs may carry batch axes."""
    return sign * (x @ np.swapaxes(y, -1, -2).conj() @ z)


def _basis_triples(stack):
    """(n, n, n, r, c) array of the products x y* z over a stack of n matrices.

    The n^2 products x y* are batched; z enters as one (n n r, r) @ (r, n c)
    matmul, not n^3 tiny ones."""
    n, r, c = stack.shape
    xy = stack[:, None] @ np.swapaxes(stack, -1, -2).conj()[None]
    xyz = xy.reshape(-1, r) @ stack.transpose(1, 0, 2).reshape(r, n * c)
    return xyz.reshape(n, n, r, n, c).transpose(0, 1, 3, 2, 4)


def operator_pairs(ten: np.ndarray) -> np.ndarray:
    """(T[i,j], conj(T[j,i])) for every (i, j) of a (d, d, n, n) operator
    tensor, as (d, d, 2 n^2)."""
    d = len(ten)
    return np.stack([ten, ten.swapaxes(0, 1).conj()], axis=2).reshape(d, d, -1)


def _sq_norms(rows: np.ndarray) -> np.ndarray:
    f = rows.view(np.float64)
    return np.einsum("ij,ij->i", f, f)


def _span_basis(rows: np.ndarray) -> tuple:
    """(Q, a, |e_k| for each k, max_k |rows[k]|) with rows = a Q + e.

    Q is an orthonormal basis of the span of the n rows by Gram-Schmidt,
    pivoted on the row with the largest remainder: each basis row is that
    remainder, orthogonalized twice against the basis so far, and costs one
    matrix-vector product with the rows.  It stops once every remainder's
    squared norm is at most n u times the largest row's (u the unit
    roundoff).  The remainders' norms are downdated as the basis grows, so
    the stop is confirmed on the exact remainders.  Q is then turned onto the
    principal directions of the rows by the SVD of the n-by-r coefficients,
    which keeps sum_a max_k |a_ka| as small as the rows allow.  The
    coefficients a = rows Q* and the remainder e = rows - a Q are formed
    explicitly, so rows = a Q + e holds whatever the accuracy of Q.
    """
    n, m = rows.shape
    left = _sq_norms(rows)
    top = float(left.max(initial=0.0))
    floor = n * _UNIT * top
    q = np.empty((min(n, m), m), dtype=np.complex128)
    a = np.empty((n, len(q)), dtype=np.complex128)
    r = 0
    while True:
        p = int(left.argmax())
        if left[p] > floor and r < len(q):
            v = rows[p] - a[p, :r] @ q[:r]
            if np.vdot(v, v).real <= floor:
                left[p] = 0.0       # its downdated norm read high: row p is spanned
                continue
        else:
            q[:r] = np.linalg.svd(a[:, :r], full_matrices=False)[2] @ q[:r]
            a[:, :r] = rows @ q[:r].conj().T
            e = a[:, :r] @ q[:r]
            np.subtract(rows, e, out=e)
            left = _sq_norms(e)
            p = int(left.argmax())
            if left[p] <= floor or r == len(q):
                return q[:r].copy(), a[:, :r].copy(), np.sqrt(left), float(np.sqrt(top))
            v = e[p]
        v -= (q[:r] @ v.conj()).conj() @ q[:r]
        q[r] = v / np.sqrt(np.vdot(v, v).real)
        a[:, r] = rows @ q[r].conj()
        left -= a[:, r].real ** 2 + a[:, r].imag ** 2
        r += 1


def _span_bound(basis: tuple, norm: float, d: int, stop: float, images, extra: float) -> float:
    """Upper bound on max_k max |Phi(rows[k])| for a linear map Phi, from
    ``basis = _span_basis(rows)``.

    ``images`` yields, row by row of Q, a bound on max |Phi'(Q_a)|, or its
    computed value, for a linear map Phi' whose difference from Phi
    ``extra`` bounds on every a_k Q, and ``norm * |x|`` bounds every entry of
    Phi(x), so
        |Phi(rows[k])| <= sum_a max_k |a_ka| |Phi'(Q_a)| + extra + max_k |e_k| norm.
    With g = (d + r + 4) u (u the unit roundoff, r the rank), the rounding
    term
        g norm (max_k |rows[k]| + 2 sum_a max_k |a_ka| + norm)
    covers d-term sums in each image, the forming of e, the rounding of the
    scaled tensor and that of the exact sweep, and the total is scaled by
    1 + g for its own sums.  inf as soon as the partial bound passes
    ``stop``; the images past that row are never drawn.
    """
    q, a, e, rho = basis
    amax = np.abs(a).max(axis=0, initial=0.0)
    gamma = (d + len(q) + 4) * _UNIT
    total = e.max(initial=0.0) * norm + extra + gamma * norm * (rho + 2 * amax.sum() + norm)
    images = iter(images)
    for am in amax:
        if total > stop:
            return np.inf
        total += am * next(images)
    return float(total * (1 + gamma)) if total <= stop else np.inf


def _commutator_bounds(left: tuple, right: tuple, d: int, width: float) -> tuple:
    """(images, extra) for ``_span_bound`` over ``left = _span_basis(L rows)``
    of Phi(X)_uv = [X, R_uv], with R_uv = sum_b beta_uv,b P_b + f_uv from
    ``right = _span_basis(R rows)`` and every row a d-by-d matrix.

    The images bound Phi'(Q_a)_uv = [Q_a, R_uv - f_uv]:
        |Phi'(Q_a)| <= sum_b max_uv |beta_uv,b| max |[Q_a, P_b]|,
    plus the rounding of each commutator's d-term sums, at most
    h (q_a p'_b + p_b q'_a) with q_a, q'_a the largest row and column norms of
    Q_a, p_b, p'_b those of P_b (at most 1) and h = (d + r_R + 4) u, each
    image scaled by 1 + h for its own sums.  The r_L r_R commutators are
    formed by two matmuls per block of rows of Q, each block's products
    within d^4 entries.  Phi - Phi' at L_xy - e_xy is [L_xy - e_xy, f_uv], an
    entry of which is at most (width + 2 |e_xy|) |f_uv| (Cauchy-Schwarz) when
    ``width`` bounds the largest row norm plus the largest column norm of
    every L_xy; e and f as formed are within h sum_a max_xy |alpha_xy,a| and
    h sum_b max_uv |beta_uv,b| of the exact ones in norm.
    """
    q, alpha, e_rows, _ = left
    p, beta, f_rows, _ = right
    r = len(p)
    bmax = np.abs(beta).max(axis=0, initial=0.0)
    h = (d + r + 4) * _UNIT
    e = e_rows.max(initial=0.0) + (d + len(q) + 4) * _UNIT * np.abs(alpha).max(axis=0, initial=0.0).sum()
    f = f_rows.max(initial=0.0) + h * bmax.sum()
    extra = (width + 2 * e) * f
    pmats = p.reshape(r, d, d)
    pcols = pmats.transpose(1, 0, 2).reshape(d, r * d)   # [m, (b, l)]
    step = max(1, d * d // max(r, 1))

    def images():
        for s in range(0, len(q), step):
            qs = q[s:s + step].reshape(-1, d, d)
            n = len(qs)
            comm = (qs.reshape(n * d, d) @ pcols).reshape(n, d, r, d)     # Q_a P_b [a, z, b, l]
            qp = pmats.reshape(r * d, d) @ qs.transpose(1, 0, 2).reshape(d, n * d)
            comm -= qp.reshape(r, d, n, d).transpose(2, 1, 0, 3)          # P_b Q_a
            sq = qs.real ** 2 + qs.imag ** 2
            norms = np.sqrt(sq.sum(axis=2).max(axis=1)) + np.sqrt(sq.sum(axis=1).max(axis=1))
            yield from (np.abs(comm).max(axis=(1, 3)) @ bmax + h * bmax.sum() * norms) * (1 + h)

    return images(), extra


def _pair_bounds(pairs: tuple, left: tuple, d: int, width: float) -> tuple:
    """(images, extra) for ``_span_bound`` over ``pairs = _span_basis(pair
    rows)`` of Psi(A, B)[x, u] = sum_m A[m,x] L_mu - sum_m B[m,u] L_xm, with
    each pair row (A^T, B^T) as two d-by-d matrices and the left operators
    L_xy = sum_a alpha_xy,a Q_a + e_xy from ``left = _span_basis(L rows)``.

    The images bound Psi', Psi with L_xy - e_xy for L_xy:
    Psi'(A, B)[x, u] = sum_a K[x,u,a] Q_a with
    K[x,u,a] = sum_m A[m,x] alpha[m,u,a] - sum_m B[m,u] alpha[x,m,a], so
        |Psi'(A, B)| <= max_xu sum_a |K[x,u,a]| max |Q_a|,
    plus the rounding of K's d-term sums, at most (s_A + s_B) h
    sum_a max_xy |alpha_xy,a| max |Q_a| with s_A = max_x sum_m |A[m,x]|, s_B
    likewise and h = (d + r_L + 4) u, each image scaled by 1 + h for its own
    sums.  K is formed by two matmuls per block of pair rows, each block's
    coefficients within d^4 entries.  Psi - Psi' at (A, B) is
    sum_m A[m,x] e_mu - B[m,u] e_xm, an entry of which is at most
    |A[:,x]| (sum_m |e_mu|^2)^(1/2) + |B[:,u]| (sum_m |e_xm|^2)^(1/2)
    (Cauchy-Schwarz); ``width`` bounds the column norms of the A and B of
    every pair row, the pair remainder adds its own norm, and each entry of e
    as formed is within the rounding bound above of the exact one.
    """
    pair_q, _, g_rows, _ = pairs
    q, alpha, e_rows, _ = left
    r = len(q)
    qmax = np.abs(q).max(axis=1, initial=0.0)
    h = (d + r + 4) * _UNIT
    slip = h * (np.abs(alpha).max(axis=0, initial=0.0) @ qmax)
    sq = (e_rows * e_rows).reshape(d, d)      # rows (x, y)
    cols = np.sqrt(sq.sum(axis=0).max()) + np.sqrt(sq.sum(axis=1).max()) + 2 * np.sqrt(d) * slip
    extra = (width + g_rows.max(initial=0.0)) * cols
    first = alpha.reshape(d, d * r)                                      # [m, (u, a)]
    second = alpha.reshape(d, d, r).transpose(1, 0, 2).reshape(d, d * r)  # [m, (x, a)]
    step = max(1, d * d // max(r, 1))

    def images():
        for s in range(0, len(pair_q), step):
            ab = pair_q[s:s + step].reshape(-1, 2, d, d)   # A^T[x, m], B^T[u, m]
            n = len(ab)
            k = (ab[:, 0].reshape(n * d, d) @ first).reshape(n, d, d, r)
            kb = ab[:, 1].reshape(n * d, d) @ second
            k -= kb.reshape(n, d, d, r).transpose(0, 2, 1, 3)
            sums = np.abs(ab).sum(axis=3).max(axis=2).sum(axis=1)
            yield from ((np.abs(k) @ qmax).max(axis=(1, 2)) + sums * slip) * (1 + h)

    return images(), extra


@dataclass(frozen=True)
class SignedBlock:
    """A TRO (+1) or anti-TRO (-1) of rows-by-cols matrices.

    ``basis`` must be linearly independent and its span closed under
    ``(x, y, z) -> x y* z``.
    """

    sign: int
    rows: int
    cols: int
    basis: tuple

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise InvalidInput(f"sign must be +1 or -1, got {self.sign}")
        mats = tuple(mk.as_cmatrix(b) for b in self.basis)
        for b in mats:
            if b.shape != (self.rows, self.cols):
                raise ShapeError(f"basis entry has shape {b.shape}, expected "
                                 f"{(self.rows, self.cols)}")
            b.flags.writeable = False
        object.__setattr__(self, "basis", mats)
        if not mats:
            raise InvalidInput("a signed block needs a nonempty basis")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def stack(self) -> np.ndarray:
        a = np.stack(self.basis)
        a.flags.writeable = False
        return a

    @cached_property
    def flat(self) -> np.ndarray:
        # rows of shape (dim, rows*cols)
        a = self.stack.reshape(self.dim, -1)
        a.flags.writeable = False
        return a

    @cached_property
    def _pinv(self) -> np.ndarray:
        # coords(X) = _pinv @ vec(X)
        return np.linalg.pinv(self.flat.T)

    def realize(self, coords: np.ndarray) -> np.ndarray:
        """Matrix (or batch of matrices) for coordinate vector(s)."""
        return np.tensordot(coords, self.stack, axes=([-1], [0]))

    def project(self, mats: np.ndarray):
        """Coordinates of matrices in the basis span, plus worst residual."""
        flat = np.asarray(mats, dtype=np.complex128).reshape(-1, self.rows * self.cols)
        coords = flat @ self._pinv.T
        resid = np.linalg.norm(coords @ self.flat - flat, axis=1)
        shape = np.shape(mats)[:-2] + (self.dim,)
        return coords.reshape(shape), float(resid.max()) if resid.size else 0.0

    def closure_residual(self) -> float:
        """Worst distance of a basis triple product from the span, relative
        to the largest entry of those products: of degree 0 in the basis."""
        prods = _basis_triples(self.stack)
        _, resid = self.project(prods.reshape(-1, self.rows, self.cols))
        return resid / mk.unit_scale(prods)

    def check_independent(self):
        """InvalidInput unless the basis is linearly independent."""
        s = np.linalg.svd(self.flat, compute_uv=False)
        if s[-1] <= DEFAULT_TOL * s[0]:
            raise InvalidInput("block basis is not linearly independent "
                               f"(Gram condition {s[-1] / s[0]:.2e})")

    def validate(self):
        """InvalidInput unless the basis is independent and its span closed within DEFAULT_TOL."""
        self.check_independent()
        resid = self.closure_residual()
        if resid > DEFAULT_TOL:
            raise InvalidInput(f"block span is not product-closed "
                               f"(residual {resid:.2e})")


@dataclass(frozen=True)
class StructureConstants:
    """Tensor c with ``[b_i b_j b_k] = sum_l c[i,j,k,l] b_l``.

    The product extends linearly in the outer coordinates and
    conjugate-linearly in the middle ones.
    """

    dim: int
    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=np.complex128)
        d = self.dim
        if c.shape != (d, d, d, d):
            raise ShapeError(f"tensor shape {c.shape} != {(d, d, d, d)}")
        if c.size and not np.all(np.isfinite(c)):
            raise InvalidInput("structure tensor has non-finite entries")
        c.flags.writeable = False
        object.__setattr__(self, "c", c)

    @cached_property
    def _slot_first(self) -> tuple:
        """Read-only copies of c with its third, then its middle slot moved
        first, each as a (d, d^3) matrix: contracting a coordinate row into
        that slot is then one matmul."""
        d = self.dim
        out = tuple(np.ascontiguousarray(self.c.transpose(p)).reshape(d, d ** 3)
                    for p in ((2, 0, 1, 3), (1, 0, 2, 3)))
        for a in out:
            a.flags.writeable = False
        return out

    def associativity_residual(self) -> float:
        """Worst basis-level residual of the two associativity identities.

        Relative to |c|max^2 (0 for c = 0), without squaring |c|max: the
        residual is homogeneous of degree 2 in c, so the sparse path sweeps
        c / |c|max and the dense one scales one factor of each product by
        1 / |c|max^2.
        """
        c, d = self.c, self.dim
        if d == 0:
            return 0.0
        scale = mk.unit_scale(c)
        if mk.sparse_pays(c, *_ASSOC_SWEEP):
            return mk.sparse_gap(c / scale, *_ASSOC_SWEEP)
        worst = 0.0
        # for x = b_i, each side a matmul laid out as (j, k, u, v, l), with the
        # scaled factors c[i] / scale^2 and cbar[j, k, u, m] = conj(c[u, k, j, m]) / scale^2
        cbar = c.conj().transpose(2, 1, 0, 3).reshape(d ** 3, d)
        cbar /= scale
        cbar /= scale
        ci = np.empty((d, d, d), dtype=np.complex128)
        lhs = np.empty((d ** 2, d ** 3), dtype=np.complex128)
        rhs = np.empty((d ** 3, d ** 2), dtype=np.complex128)
        step = max(1, 2 ** 16 // d ** 2)

        def absmax(a):
            # row chunks of at most max(d^2, 2^16) entries, not a d^5 float copy
            return max(float(np.abs(a[s:s + step]).max()) for s in range(0, len(a), step))

        for i in range(d):
            np.divide(c[i], scale, out=ci)
            ci /= scale
            np.matmul(ci.reshape(d ** 2, d), c.reshape(d, d ** 3), out=lhs)
            np.matmul(cbar, c[i].reshape(d, d ** 2), out=rhs)
            rhs -= lhs.reshape(rhs.shape)
            worst = max(worst, absmax(rhs))
            np.matmul(c.reshape(d ** 3, d), ci, out=rhs.reshape(d, d ** 3, d))
            rhs -= lhs.reshape(rhs.shape)
            worst = max(worst, absmax(rhs))
        return worst

    def associativity_bound(self, stop: float = np.inf) -> float:
        """Upper bound on ``associativity_residual()`` in O((r_L r_R + r_P r_L) d^3)
        once the operator spans are formed, not O(d^7).

        On t = c / |c|max the two identities are statements about operators.
        [[xyz]uv] - [xy[zuv]] is the commutator [L_xy, R_uv] of the left
        operator L_xy[z, m] = t[x,y,z,m] with the right operator
        R_uv[m, l] = t[m,u,v,l]: the left operators commute with the right
        ones.  [[xyz]uv] - [x[uzy]v], read over (v, l), is
        Psi(A, B)[x, u] = sum_m A[m,x] L_mu - B[m,u] L_xm at the pair
        A = t[:,y,z,:], B = conj(t[:,z,y,:]): the right operators compose
        inside the span of the left ones.  The left operators, the right
        operators and the pairs span the corners of the linking algebra, of
        dimension sum p^2 or sum q^2 over p-by-q blocks on a C*-ternary ring
        (16 each for scrambled ``full-4x4-tro``, against d^2 = 256).  The first
        identity is bounded over the basis of the left span from the
        commutators of the two span bases (``_commutator_bounds``), the
        second over the basis of the pair span from the coefficients of Psi in
        the left span (``_pair_bounds``); the outer sums are ``_span_bound``'s.
        inf as soon as the bound passes ``stop``.
        """
        return self._certificate(stop)[0]

    def _certificate(self, stop: float) -> tuple:
        """(``associativity_bound(stop)``, the ranks of the spans formed:
        left, right and, unless the first identity passed ``stop``, pairs)."""
        c, d = self.c, self.dim
        if d == 0:
            return 0.0, (0, 0, 0)
        t = c / mk.unit_scale(c)
        sq = t.real ** 2 + t.imag ** 2
        # column-norm maxima of t along each axis
        n0, n1, n2, n3 = (float(np.sqrt(sq.sum(axis=ax)).max()) for ax in range(4))
        del sq
        # the left operators L_xy, rows (x, y), and the right ones R_uv, rows (u, v)
        rows = t.transpose(1, 2, 0, 3).reshape(d * d, d * d)
        left, right = _span_basis(t.reshape(d * d, d * d)), _span_basis(rows)
        # the images' generator, and the temporaries its frame holds, end with
        # each _span_bound call
        worst = _span_bound(left, n0 + n3, d, stop, *_commutator_bounds(left, right, d, n2 + n3))
        ranks = (len(left[0]), len(right[0]))
        if worst > stop:
            return np.inf, ranks
        # the pairs (A^T, B^T) = (R_yz, conj R_zy), rows (y, z), freed before Psi's chunks
        rows = operator_pairs(rows.reshape(d, d, d, d)).reshape(d * d, -1)
        pairs = _span_basis(rows)
        del rows
        worst = max(worst, _span_bound(pairs, n0 + n1, d, stop, *_pair_bounds(pairs, left, d, n3)))
        return worst, ranks + (len(pairs[0]),)

    def _assoc_verdict(self, tol: float) -> tuple:
        """("assoc_bound", bound, span ranks) when a dense tensor of at least
        ``mk.CERTIFICATE_MIN_DIM`` dimensions passes on the certificate within
        tol, else ("assoc_basis", the exact residual, ()): only a passing
        verdict skips the sweep, so a failure always reports the exact
        residual."""
        if self.dim >= mk.CERTIFICATE_MIN_DIM and not mk.sparse_pays(self.c, *_ASSOC_SWEEP):
            bound, ranks = self._certificate(tol)
            if bound <= tol:
                return "assoc_bound", bound, ranks
        return "assoc_basis", self.associativity_residual(), ()

    def validate(self):
        """InvalidInput unless both associativity identities hold on the basis
        within DEFAULT_TOL, decided as ``check_axioms`` decides them: on the
        certificate where it passes, else on the exact sweep."""
        resid = self._assoc_verdict(DEFAULT_TOL)[1]
        if resid > DEFAULT_TOL:
            raise InvalidInput(f"associativity identities fail on the basis "
                               f"(residual {resid:.2e})")


@dataclass(frozen=True)
class TernaryElement:
    """Coordinates of an element over the basis of its TernarySpace."""

    coords: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.coords, dtype=np.complex128).ravel()
        if v.size and not np.all(np.isfinite(v)):
            raise InvalidInput("element has non-finite coordinates")
        v.flags.writeable = False
        object.__setattr__(self, "coords", v)


def as_coords(m, x) -> np.ndarray:
    """Coordinates of an element or coordinate vector x of a space or
    algebra m, checked against ``m.dim``; raw coordinates must be finite."""
    if isinstance(x, TernaryElement):
        v = x.coords
    else:
        v = np.asarray(x, dtype=np.complex128).ravel()
        if not np.all(np.isfinite(v)):
            raise InvalidInput("element has non-finite coordinates")
    if v.shape != (m.dim,):
        raise ShapeError(f"element has {v.shape[0]} coordinates, space has dim {m.dim}")
    return v


def random_coords(rng, dim: int) -> np.ndarray:
    """Standard complex Gaussian coordinates, the draws of every ``random_element``."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.sqrt(2.0)


def _block_slices(m) -> tuple:
    """Coordinate slices of the blocks of m, in order; a cached property of
    every block-presented type."""
    out, start = [], 0
    for b in m.blocks:
        out.append(slice(start, start + b.dim))
        start += b.dim
    return tuple(out)


@dataclass(frozen=True)
class TernarySpace:
    """A C*-ternary ring in block or structure-constants presentation."""

    blocks: tuple = None
    structure: StructureConstants = None

    def __post_init__(self):
        if (self.blocks is None) == (self.structure is None):
            raise InvalidInput("exactly one of blocks/structure must be given")
        if self.blocks is not None:
            object.__setattr__(self, "blocks", tuple(self.blocks))

    # -- construction -----------------------------------------------------

    @classmethod
    def from_blocks(cls, blocks, validate: bool = True):
        space = cls(blocks=tuple(blocks))
        if validate:
            for b in space.blocks:
                b.validate()
        return space

    @classmethod
    def from_structure(cls, c, validate: bool = True):
        c = np.asarray(c, dtype=np.complex128)
        sc = StructureConstants(dim=c.shape[0] if c.ndim == 4 else 0, c=c)
        if validate:
            sc.validate()
        return cls(structure=sc)

    # -- shape ------------------------------------------------------------

    @property
    def is_block(self) -> bool:
        return self.blocks is not None

    @property
    def dim(self) -> int:
        if self.is_block:
            return sum(b.dim for b in self.blocks)
        return self.structure.dim

    block_slices = cached_property(_block_slices)

    def _need_blocks(self, what: str):
        if not self.is_block:
            raise NormUnavailable(f"{what} needs a block presentation; "
                                  "structure constants carry no operator norm")

    # -- elements ----------------------------------------------------------

    def random_element(self, rng) -> TernaryElement:
        return TernaryElement(random_coords(rng, self.dim))

    def realize(self, x) -> list:
        """Per-block matrices of an element (block presentation only)."""
        self._need_blocks("realize")
        v = as_coords(self, x)
        return [b.realize(v[s]) for b, s in zip(self.blocks, self.block_slices)]

    def realize_batch(self, coords: np.ndarray) -> list:
        self._need_blocks("realize")
        return [b.realize(coords[..., s]) for b, s in zip(self.blocks, self.block_slices)]

    def norm(self, x) -> float:
        """Operator norm: the max block operator norm."""
        self._need_blocks("norm")
        mats = self.realize(x)
        return max((mk.op_norm(m) for m in mats), default=0.0)


# ---------------------------------------------------------------------------
# Triple products


def _span_coords(project, mats: np.ndarray, factors, tol: float, what: str) -> np.ndarray:
    """The coordinates of ``project(mats)``, which returns (coordinates, worst
    residual); InvalidInput, its message starting with ``what``, when a matrix
    leaves the span by more than tol relative to the larger of the largest
    entry of mats and the product of the largest entries of the ``factors``
    that formed them.  Both follow the scale of the data; the second keeps a
    product that cancels to rounding, such as a* a = 0, from being judged
    against that rounding."""
    coords, resid = project(mats)
    scale = mk.unit_scale(mats)
    if resid > tol * scale:
        scale = max(scale, math.prod(mk.unit_scale(f) for f in factors))
        if resid > tol * scale:
            raise InvalidInput(f"{what} (residual {resid / scale:.2e})")
    return coords


def _triple_coords(m: TernarySpace, xs: np.ndarray, ys: np.ndarray, zs: np.ndarray,
                   tol: float = DEFAULT_TOL) -> np.ndarray:
    """Batched triple product on coordinate arrays (..., dim)."""
    if m.is_block:
        outs = []
        for b, s in zip(m.blocks, m.block_slices):
            mats = [b.realize(w[..., s]) for w in (xs, ys, zs)]
            outs.append(_span_coords(b.project, _triple_mats(*mats, b.sign), mats, tol,
                                     _TRIPLE_LEAVES_SPAN))
        if not outs:
            return np.zeros(xs.shape, dtype=np.complex128)
        return np.concatenate(outs, axis=-1)
    # x @ c, then batched matvecs with conj(y) and z, over row chunks whose
    # partial product holds at most max(d^4, 2^16) entries: no more than c,
    # yet enough rows that small d does not pay a Python iteration per row
    c, d = m.structure.c, m.dim
    xs, ys, zs = np.broadcast_arrays(xs, ys, zs)
    rows = int(np.prod(xs.shape[:-1]))
    x, y, z = (w.reshape(rows, d) for w in (xs, ys, zs))
    out = np.empty((rows, d), dtype=np.complex128)
    step = max(d, 2 ** 16 // max(d, 1) ** 3)
    for s in range(0, rows, step):
        t = x[s:s + step] @ c.reshape(d, d ** 3)
        t = y[s:s + step, None].conj() @ t.reshape(len(t), d, d ** 2)
        out[s:s + step] = (z[s:s + step, None] @ t.reshape(len(t), d, d))[:, 0]
    return out.reshape(xs.shape)


def _ideal_products(m: TernarySpace, s: np.ndarray) -> np.ndarray:
    """[e_i e_k s], [s e_i e_k] and [e_i s e_k] for each row s of ``s``,
    grouped by pattern and row as (3 * len(s), d * d, d), divided by the
    data scale: |c|max on structure input, the square of the largest block
    entry on block input (the coordinates are of degree 1 in c, 2 in the
    blocks), so ranks and residuals read on them do not depend on the scale.

    Structure input contracts s with c and its cached ``_slot_first`` copies,
    d^4 multiply-adds a row.
    Block input forms each block's products from its basis stack B and the
    row's matrix S in that block: sign (B_i B_k*) S, sign S (B_i* B_k) and
    sign B_i S* B_k, each over all rows and pairs (i, k) at once, under the
    block's span check.  Products with basis elements of two blocks are zero
    and are not formed.
    """
    n, d = len(s), m.dim
    if not m.is_block:
        c = m.structure.c
        s = s / mk.unit_scale(c)
        third, middle = m.structure._slot_first
        out = np.empty((3, n, d ** 3), dtype=np.complex128)
        np.matmul(s, third, out=out[0])
        np.matmul(s, c.reshape(d, d ** 3), out=out[1])
        np.matmul(s.conj(), middle, out=out[2])
        return out.reshape(-1, d * d, d)
    scale = max(mk.unit_scale(b.stack) for b in m.blocks) ** 2
    out = np.zeros((3, n, d, d, d), dtype=np.complex128)
    for b, sl in zip(m.blocks, m.block_slices):
        k, r, c = b.dim, b.rows, b.cols
        basis, mats = b.stack, b.realize(s[:, sl])
        adj, mats_adj = (np.swapaxes(a, -1, -2).conj() for a in (basis, mats))
        # one matmul per pattern over all rows and pairs (i, k):
        # (B_i B_k*) S, S (B_i* B_k) and (B_i S*) B_k
        left = (basis[:, None] @ adj[None]).reshape(k * k * r, r) \
            @ mats.transpose(1, 0, 2).reshape(r, n * c)
        right = mats.reshape(n * r, c) \
            @ (adj[:, None] @ basis[None]).transpose(2, 0, 1, 3).reshape(c, k * k * c)
        mid = basis.reshape(k * r, c) @ mats_adj.transpose(1, 0, 2).reshape(c, n * r)
        mid = mid.reshape(k, r, n, r).transpose(2, 0, 1, 3).reshape(n * k * r, r) \
            @ basis.transpose(1, 0, 2).reshape(r, k * c)
        # each pattern laid out (row, i, k, r, c) and projected on its own
        prods = (left.reshape(k, k, r, n, c).transpose(3, 0, 1, 2, 4),
                 right.reshape(n, r, k, k, c).transpose(0, 2, 3, 1, 4),
                 mid.reshape(n, k, r, k, c).transpose(0, 1, 3, 2, 4))
        for p, prod in enumerate(prods):
            coords = _span_coords(b.project, prod, (basis, basis, mats), DEFAULT_TOL,
                                  _TRIPLE_LEAVES_SPAN)
            np.multiply(b.sign / scale, coords, out=out[p, :, sl, sl, sl])
    return out.reshape(-1, d * d, d)


def triple(m: TernarySpace, x, y, z) -> TernaryElement:
    """Triple product [xyz]; conjugate-linear in the middle argument."""
    xs, ys, zs = as_coords(m, x), as_coords(m, y), as_coords(m, z)
    return TernaryElement(_triple_coords(m, xs, ys, zs))


def opposite(m: TernarySpace) -> TernarySpace:
    """The same space with the negated triple product."""
    if m.is_block:
        flipped = tuple(SignedBlock(-b.sign, b.rows, b.cols, b.basis) for b in m.blocks)
        return TernarySpace(blocks=flipped)
    return TernarySpace(structure=StructureConstants(m.structure.dim, -m.structure.c))


def structure_constants_of(m: TernarySpace) -> StructureConstants:
    """Project basis triple products onto the basis (span check at STRUCTURE_TOL)."""
    if not m.is_block:
        return m.structure
    eye = np.eye(m.dim, dtype=np.complex128)
    c = _triple_coords(m, eye[:, None, None], eye[None, :, None], eye[None, None], STRUCTURE_TOL)
    return StructureConstants(dim=m.dim, c=c)


def as_structure_space(m: TernarySpace) -> TernarySpace:
    if not m.is_block:
        return m
    return TernarySpace(structure=structure_constants_of(m))


# ---------------------------------------------------------------------------
# Convenience constructors


def scalar_space(sign: int) -> TernarySpace:
    one = np.ones((1, 1), dtype=np.complex128)
    return TernarySpace.from_blocks([SignedBlock(sign, 1, 1, (one,))], validate=False)


def full_matrix_space(rows: int, cols: int, sign: int = +1) -> TernarySpace:
    basis = []
    for i in range(rows):
        for j in range(cols):
            e = np.zeros((rows, cols), dtype=np.complex128)
            e[i, j] = 1.0
            basis.append(e)
    return TernarySpace.from_blocks([SignedBlock(sign, rows, cols, tuple(basis))],
                                    validate=False)


def diagonal_space(n: int, sign: int = +1) -> TernarySpace:
    basis = []
    for i in range(n):
        e = np.zeros((n, n), dtype=np.complex128)
        e[i, i] = 1.0
        basis.append(e)
    return TernarySpace.from_blocks([SignedBlock(sign, n, n, tuple(basis))],
                                    validate=False)


def direct_sum(*spaces: TernarySpace) -> TernarySpace:
    blocks = []
    for s in spaces:
        s._need_blocks("direct_sum")
        blocks.extend(s.blocks)
    return TernarySpace.from_blocks(blocks, validate=False)


def ternary_closure(generators, sign: int) -> TernarySpace:
    """Smallest signed block containing the generators.

    Iterates span-augmentation by basis triple products until the
    dimension stabilizes; each round grows the span or returns, so the
    loop ends within rows * cols rounds.
    """
    mats = [mk.as_cmatrix(g) for g in generators]
    if not mats:
        raise InvalidInput("need at least one generator")
    shape = mats[0].shape
    for g in mats:
        if g.shape != shape:
            raise ShapeError("generators must share one shape")
    rows, cols = shape
    flat = np.stack([g.ravel() for g in mats], axis=1)
    span = mk.colspace(flat)
    if span.shape[1] == 0:
        raise InvalidInput("generators span the zero space")
    while True:
        prods = _basis_triples(span.T.reshape(-1, rows, cols)).reshape(-1, rows * cols)
        new_span = mk.colspace(np.hstack([span, prods.T]))
        if new_span.shape[1] in (span.shape[1], rows * cols):
            basis = tuple(new_span.T.reshape(-1, rows, cols))
            return TernarySpace.from_blocks([SignedBlock(sign, rows, cols, basis)])
        span = new_span


# ---------------------------------------------------------------------------
# Axiom checking


@dataclass(frozen=True)
class AxiomReport:
    """Basis-level residuals of the defining identities, each exact or, under
    ``assoc_bound``, a rigorous upper bound on the exact one."""

    residuals: dict
    tol: float
    # (r_L, r_R, r_P), the ranks of the operator spans, when assoc_bound decides
    ranks: tuple = ()

    @property
    def passed(self) -> bool:
        return all(r <= self.tol for r in self.residuals.values())

    def worst(self):
        if not self.residuals:
            return None, 0.0
        name = max(self.residuals, key=self.residuals.get)
        return name, self.residuals[name]

    def to_dict(self) -> dict:
        out = {
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "tol": self.tol,
            "passed": self.passed,
        }
        if self.ranks:
            out["assoc_ranks"] = list(self.ranks)
        return out


def check_axioms(m: TernarySpace, tol: float = DEFAULT_TOL) -> AxiomReport:
    """The C*-ternary axioms, decided on the basis.

    Block presentations get ``closure``, the worst distance of a basis
    triple product from its block span: [xyz] = sign x y* z is
    conjugate-linear in y, both associativity identities reduce to
    x y* z u* v, and the norm axioms hold for all matrices, so a closed span
    satisfies every axiom.  Structure presentations get the basis residual
    of both associativity identities, which multilinearity extends to all
    elements: ``assoc_bound``, the certificate ``associativity_bound``, when
    a dense tensor of at least ``mk.CERTIFICATE_MIN_DIM`` dimensions passes
    on it, and ``assoc_basis``, the exact sweep, otherwise, so a failing
    report always carries the exact residual.
    """
    if m.dim == 0:
        return AxiomReport({}, tol)
    if m.is_block:
        return AxiomReport({"closure": max(b.closure_residual() for b in m.blocks)}, tol)
    name, resid, ranks = m.structure._assoc_verdict(tol)
    return AxiomReport({name: resid}, tol, ranks)


# ---------------------------------------------------------------------------
# Zettl decomposition


@dataclass(frozen=True)
class ZettlSplit:
    """The splitting M = M+ ⊕ M- with coordinates in the parent basis."""

    plus: TernarySpace
    minus: TernarySpace
    plus_coords: np.ndarray
    minus_coords: np.ndarray

    def __iter__(self):
        return iter((self.plus, self.minus))


def _empty_space() -> TernarySpace:
    return TernarySpace(structure=StructureConstants(
        0, np.zeros((0, 0, 0, 0), dtype=np.complex128)))


def _restricted_products(m: TernarySpace, basis: np.ndarray) -> np.ndarray:
    """(k, k, k, d) triple products of the k columns of a coordinate basis."""
    cols = basis.T
    return _triple_coords(m, cols[:, None, None], cols[None, :, None], cols[None, None])


def _subspace_restriction(m: TernarySpace, basis: np.ndarray,
                          tol: float) -> TernarySpace:
    """Structure constants induced on an orthonormal coordinate subspace."""
    k = basis.shape[1]
    if k == 0:
        return _empty_space()
    prods = _restricted_products(m, basis)
    inside = prods @ basis.conj()
    resid = float(np.abs(prods - inside @ basis.T).max(initial=0.0))
    scale = mk.unit_scale(prods)
    if resid > tol * scale:
        raise DecompositionInconclusive(
            f"subspace is not product-closed (residual {resid / scale:.2e})")
    return TernarySpace(structure=StructureConstants(k, inside))


def zettl_decompose(m: TernarySpace, tol: float = DEFAULT_TOL) -> ZettlSplit:
    """Split M into its TRO-like and anti-TRO-like ideals.

    On each part the quadratic operator ``g -> [g f f]`` is positive
    (resp. negative) semidefinite for every f.  Block presentations
    split exactly by sign.  Structure presentations span M+ and M- by the
    eigenvectors of positive and negative eigenvalue of the trace operator
    W(g) = sum_j [g b_j b_j]: on a block W is right multiplication by
    sign * sum_j b_j* b_j, definite there with the block's sign, so in any
    basis W is similar to a Hermitian matrix, hence diagonalizable with
    real spectrum.  Non-real or near-zero spectrum of W raises
    DecompositionInconclusive, both judged relative to ||W||, so the split
    does not depend on the scale of c; so do eigenvectors too close to
    dependent to span M, and a part that is not product-closed.
    """
    d = m.dim
    if m.is_block:
        signs = np.repeat([b.sign for b in m.blocks], [b.dim for b in m.blocks])
        plus = tuple(b for b in m.blocks if b.sign > 0)
        minus = tuple(b for b in m.blocks if b.sign < 0)
        eye = np.eye(d, dtype=np.complex128)
        return ZettlSplit(
            plus=TernarySpace(blocks=plus) if plus else _empty_space(),
            minus=TernarySpace(blocks=minus) if minus else _empty_space(),
            plus_coords=eye[:, signs > 0],
            minus_coords=eye[:, signs < 0],
        )

    w = np.einsum("ijjl->li", m.structure.c)
    scale = mk.op_norm(w)
    eigvals, vecs = np.linalg.eig(w)
    if np.max(np.abs(eigvals.imag), initial=0.0) > 1e-8 * scale:
        raise DecompositionInconclusive("trace operator has non-real spectrum")
    if np.any(np.abs(eigvals.real) <= 1e-9 * scale):
        raise DecompositionInconclusive("trace operator has near-zero spectrum")

    p = mk.colspace(vecs[:, eigvals.real > 0])
    n = mk.colspace(vecs[:, eigvals.real < 0])
    n_pos, n_neg = p.shape[1], n.shape[1]
    if n_pos + n_neg != d:
        raise DecompositionInconclusive(
            f"positive and negative subspaces have dims {n_pos}+{n_neg} != {d}")
    if n_neg == 0:
        return ZettlSplit(m, _empty_space(), np.eye(d, dtype=np.complex128),
                          np.zeros((d, 0), dtype=np.complex128))
    if n_pos == 0:
        return ZettlSplit(_empty_space(), m, np.zeros((d, 0), dtype=np.complex128),
                          np.eye(d, dtype=np.complex128))
    return ZettlSplit(
        plus=_subspace_restriction(m, p, tol),
        minus=_subspace_restriction(m, n, tol),
        plus_coords=p,
        minus_coords=n,
    )
