"""Finite-dimensional C*-ternary rings.

A space is presented either as a direct sum of signed matrix blocks,
where the triple product on a block is ``[xyz] = sign * x y* z``, or
abstractly by a structure-constants tensor that is conjugate-linear in
the middle slot.  Block presentations carry operator norms; structure
presentations support only the algebraic operations.

All values are immutable and all operations are pure.  Only
``random_element`` draws random numbers, from the generator it is given;
``check_axioms`` decides the axioms from exact basis-level residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from . import matkernel as mk
from .errors import (
    DecompositionInconclusive,
    InvalidInput,
    NormUnavailable,
    ShapeError,
)

DEFAULT_TOL = 1e-9
AXIOM_TOL = 1e-8
# unit roundoff of float64
_UNIT = np.finfo(np.float64).eps / 2
# [[xyz]uv] against [x[uzy]v] and [xy[zuv]] on the basis, as matkernel sweeps
_ASSOC_SWEEP = ("ijkm,muvl->ijkuvl", ("ukjm*,imvl->ijkuvl", "kuvm,ijml->ijkuvl"))


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


def _span_basis(rows: np.ndarray) -> tuple:
    """(Q, max_k |a_k.|, max_k |e_k|, max_k |rows[k]|) with rows = a Q + e.

    Q is an orthonormal basis of the combinations of rows along the
    eigenvectors of their Gram matrix whose eigenvalues exceed n u times the
    largest (n rows, u the unit roundoff).  The coefficients a = rows Q* and
    the remainder e = rows - a Q are formed explicitly, so rows = a Q + e
    holds whatever the accuracy of Q.
    """
    gram = rows @ rows.conj().T
    rho = float(np.sqrt(gram.diagonal().real.max(initial=0.0)))
    lam, vec = np.linalg.eigh(gram)
    del gram
    top = vec[:, lam > len(lam) * _UNIT * lam[-1]]
    q = np.linalg.qr((top.conj().T @ rows).T)[0].T
    a = rows @ q.conj().T
    e = a @ q
    np.subtract(rows, e, out=e)
    e = e.view(np.float64)
    rest = float(np.sqrt(np.einsum("ij,ij->i", e, e).max(initial=0.0)))
    return q, np.abs(a).max(axis=0, initial=0.0), rest, rho


def _span_bound(basis: tuple, apply, norm: float, d: int, stop: float) -> float:
    """Upper bound on max_k max |Phi(rows[k])| for a linear map Phi, from
    ``basis = _span_basis(rows)``.

    ``apply(q)`` returns the computed max |Phi(q)| of one row, and
    ``norm * |x|`` bounds every entry of Phi(x), so
        |Phi(rows[k])| <= sum_a max_k |a_ka| |Phi(Q_a)| + max_k |e_k| norm.
    Phi runs on one basis row at a time.  With g = (d + r + 4) u (u the unit
    roundoff, r the rank), the rounding term
        g norm (max_k |rows[k]| + 2 sum_a max_k |a_ka| + norm)
    covers Phi's d-term sums on each Q_a, the forming of e, the rounding of
    the scaled tensor and that of the exact sweep, and the total is scaled by
    1 + g for its own sums.  inf as soon as the partial bound passes ``stop``.
    """
    q, amax, rest, rho = basis
    gamma = (d + len(q) + 4) * _UNIT
    total = rest * norm + gamma * norm * (rho + 2 * amax.sum() + norm)
    for am, qa in zip(amax, q):
        if total > stop:
            return np.inf
        total += am * apply(qa)
    return total * (1 + gamma) if total <= stop else np.inf


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

    def check_independent(self, tol: float = DEFAULT_TOL):
        """InvalidInput unless the basis is linearly independent."""
        s = np.linalg.svd(self.flat, compute_uv=False)
        if s[-1] <= tol * s[0]:
            raise InvalidInput("block basis is not linearly independent "
                               f"(Gram condition {s[-1] / s[0]:.2e})")

    def validate(self, tol: float = DEFAULT_TOL):
        self.check_independent(tol)
        resid = self.closure_residual()
        if resid > tol:
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
        """Upper bound on ``associativity_residual()`` in O(r d^5), not O(d^7).

        On t = c / |c|max the two identities are linear maps of the
        operators: for fixed (x, y), [[xyz]uv] - [xy[zuv]] is
        Phi(X) = X t[m,u,v,l] - t[z,u,v,m] X at X = t[x,y], and for fixed (y, z),
        [[xyz]uv] - [x[uzy]v] is Psi(A, B) = A t[m,u,v,l] - B t[x,m,v,l] at the
        pair A = t[:,y,z,:], B = conj(t[:,z,y,:]).  The operators span the two
        corners of the linking algebra, of dimension sum p^2 and sum q^2 over
        p-by-q blocks on a C*-ternary ring (16 each for scrambled
        ``full-4x4-tro``, against d^2 = 256), so each map runs once per basis
        row of its span (see ``_span_bound``).  inf as soon as the bound
        passes ``stop``.
        """
        c, d = self.c, self.dim
        if d == 0:
            return 0.0
        t = c / mk.unit_scale(c)
        sq = t.real ** 2 + t.imag ** 2
        # column-norm maxima of t along axes 0, 1 and 3
        n0, n1, n3 = (float(np.sqrt(sq.sum(axis=ax)).max()) for ax in (0, 1, 3))
        del sq
        # the left operators t[x,y], and the pairs (R(y,z), conj R(z,y)) of
        # the right operators R(y,z)[m, x] = t[x,y,z,m]; each row matrix is
        # dropped once its basis is formed
        spans = (_span_basis(t.reshape(d * d, d * d)),
                 _span_basis(operator_pairs(t.transpose(1, 2, 3, 0)).reshape(d * d, -1)))
        left, right = t.reshape(d, d ** 3), t.reshape(d ** 3, d)
        # both sides of one basis row's identity, in the same d^4 buffers every row
        lhs, rhs = np.empty((2, d, d ** 3), dtype=np.complex128)
        mag = np.empty((d, d ** 3))

        def gap():
            np.subtract(lhs, rhs, out=lhs)
            return float(np.abs(lhs, out=mag).max())

        def phi(q):
            x = q.reshape(d, d)
            np.matmul(x, left, out=lhs)
            np.matmul(right, x, out=rhs.reshape(d ** 3, d))
            return gap()

        def psi(q):
            a, b = q.reshape(2, d, d)   # transposed: a[m, x], b[m, u]
            np.matmul(a.T, left, out=lhs)
            np.matmul(b.T, t.reshape(d, d, d * d), out=rhs.reshape(d, d, d * d))
            return gap()

        worst = _span_bound(spans[0], phi, n0 + n3, d, stop)
        if worst > stop:
            return np.inf
        return max(worst, _span_bound(spans[1], psi, n0 + n1, d, stop))

    def validate(self, tol: float = DEFAULT_TOL):
        """InvalidInput unless both associativity identities hold on the basis
        within tol.  A dense tensor passes on ``associativity_bound`` when it
        is within tol; otherwise the exact sweep decides and a failure reports
        the exact residual."""
        if (not mk.sparse_pays(self.c, *_ASSOC_SWEEP)
                and self.associativity_bound(stop=tol) <= tol):
            return
        resid = self.associativity_residual()
        if resid > tol:
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
    def from_blocks(cls, blocks, validate: bool = True, tol: float = DEFAULT_TOL):
        space = cls(blocks=tuple(blocks))
        if validate:
            for b in space.blocks:
                b.validate(tol)
        return space

    @classmethod
    def from_structure(cls, c, validate: bool = True, tol: float = DEFAULT_TOL):
        c = np.asarray(c, dtype=np.complex128)
        sc = StructureConstants(dim=c.shape[0] if c.ndim == 4 else 0, c=c)
        if validate:
            sc.validate(tol)
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

    def project_blockwise(self, mats):
        """Coordinates of per-block matrices, plus the worst residual."""
        coords, worst = [], 0.0
        for b, m in zip(self.blocks, mats):
            c, r = b.project(m)
            coords.append(c)
            worst = max(worst, r)
        return np.concatenate(coords, axis=-1) if coords else np.zeros((0,)), worst


# ---------------------------------------------------------------------------
# Triple products


def _span_coords(b: SignedBlock, prods: np.ndarray, tol: float) -> np.ndarray:
    """Coordinates of products of b's matrices; InvalidInput when one leaves
    b's span by more than tol relative to max(1, the products' largest entry)."""
    coords, resid = b.project(prods)
    scale = max(1.0, float(np.abs(prods).max(initial=0.0)))
    if resid > tol * scale:
        raise InvalidInput(f"triple product left the block span "
                           f"(residual {resid / scale:.2e})")
    return coords


def _triple_coords(m: TernarySpace, xs: np.ndarray, ys: np.ndarray, zs: np.ndarray,
                   tol: float = DEFAULT_TOL) -> np.ndarray:
    """Batched triple product on coordinate arrays (..., dim)."""
    if m.is_block:
        outs = [_span_coords(b, _triple_mats(b.realize(xs[..., s]), b.realize(ys[..., s]),
                                             b.realize(zs[..., s]), b.sign), tol)
                for b, s in zip(m.blocks, m.block_slices)]
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
    grouped by pattern and row as (3 * len(s), d * d, d).

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
        third, middle = m.structure._slot_first
        out = np.empty((3, n, d ** 3), dtype=np.complex128)
        np.matmul(s, third, out=out[0])
        np.matmul(s, m.structure.c.reshape(d, d ** 3), out=out[1])
        np.matmul(s.conj(), middle, out=out[2])
        return out.reshape(-1, d * d, d)
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
            np.multiply(b.sign, _span_coords(b, prod, DEFAULT_TOL), out=out[p, :, sl, sl, sl])
    return out.reshape(-1, d * d, d)


def triple(m: TernarySpace, x, y, z, tol: float = DEFAULT_TOL) -> TernaryElement:
    """Triple product [xyz]; conjugate-linear in the middle argument."""
    xs, ys, zs = as_coords(m, x), as_coords(m, y), as_coords(m, z)
    return TernaryElement(_triple_coords(m, xs, ys, zs, tol))


def opposite(m: TernarySpace) -> TernarySpace:
    """The same space with the negated triple product."""
    if m.is_block:
        flipped = tuple(SignedBlock(-b.sign, b.rows, b.cols, b.basis) for b in m.blocks)
        return TernarySpace(blocks=flipped)
    return TernarySpace(structure=StructureConstants(m.structure.dim, -m.structure.c))


def structure_constants_of(m: TernarySpace, tol: float = 1e-10) -> StructureConstants:
    """Project basis triple products onto the basis."""
    if not m.is_block:
        return m.structure
    eye = np.eye(m.dim, dtype=np.complex128)
    c = _triple_coords(m, eye[:, None, None], eye[None, :, None], eye[None, None], tol)
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


def ternary_closure(generators, sign: int, tol: float = DEFAULT_TOL) -> TernarySpace:
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
    span = mk.colspace(flat, tol)
    if span.shape[1] == 0:
        raise InvalidInput("generators span the zero space")
    while True:
        prods = _basis_triples(span.T.reshape(-1, rows, cols)).reshape(-1, rows * cols)
        new_span = mk.colspace(np.hstack([span, prods.T]), tol)
        if new_span.shape[1] in (span.shape[1], rows * cols):
            basis = tuple(new_span.T.reshape(-1, rows, cols))
            return TernarySpace.from_blocks(
                [SignedBlock(sign, rows, cols, basis)], validate=True, tol=max(tol, 1e-8))
        span = new_span


# ---------------------------------------------------------------------------
# Axiom checking


@dataclass(frozen=True)
class AxiomReport:
    """Exact basis-level residuals of the defining identities."""

    residuals: dict
    tol: float

    @property
    def passed(self) -> bool:
        return all(r <= self.tol for r in self.residuals.values())

    def worst(self):
        if not self.residuals:
            return None, 0.0
        name = max(self.residuals, key=self.residuals.get)
        return name, self.residuals[name]

    def to_dict(self) -> dict:
        return {
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "tol": self.tol,
            "passed": self.passed,
        }


def check_axioms(m: TernarySpace, tol: float = AXIOM_TOL) -> AxiomReport:
    """The C*-ternary axioms, decided on the basis.

    Block presentations get ``closure``, the worst distance of a basis
    triple product from its block span: [xyz] = sign x y* z is
    conjugate-linear in y, both associativity identities reduce to
    x y* z u* v, and the norm axioms hold for all matrices, so a closed span
    satisfies every axiom.  Structure presentations get ``assoc_basis``, the
    exact basis sweep of both associativity identities, which multilinearity
    extends to all elements.
    """
    if m.dim == 0:
        return AxiomReport({}, tol)
    if m.is_block:
        return AxiomReport({"closure": max(b.closure_residual() for b in m.blocks)}, tol)
    return AxiomReport({"assoc_basis": m.structure.associativity_residual()}, tol)


# ---------------------------------------------------------------------------
# Cube roots


def cube_root(m: TernarySpace, a, tol: float = 1e-8) -> TernaryElement:
    """Element b with [bbb] = a.

    Per TRO block ``b = U S^{1/3} V*`` from the SVD of the block of
    ``a``; anti blocks negate that.
    """
    m._need_blocks("cube_root")
    coords = as_coords(m, a)
    mats = m.realize(coords)
    roots = []
    for blk, mat in zip(m.blocks, mats):
        u, s, vh = np.linalg.svd(mat)
        k = min(blk.rows, blk.cols)
        root = (u[:, :k] * np.cbrt(s)) @ vh[:k, :]
        roots.append(blk.sign * root)
    out, resid = m.project_blockwise(roots)
    scale = max(1.0, float(np.abs(np.concatenate([r.ravel() for r in roots])).max(initial=0.0)))
    if resid > 1e-8 * scale:
        raise InvalidInput(f"cube root left the span (residual {resid:.2e})")
    b = TernaryElement(out)
    err = m.norm(triple(m, b, b, b).coords - coords)
    if err > tol * max(1.0, m.norm(coords)):
        raise DecompositionInconclusive(f"cube root residual {err:.2e} exceeds tolerance")
    return b


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


def _subspace_restriction(m: TernarySpace, basis: np.ndarray,
                          tol: float) -> TernarySpace:
    """Structure constants induced on an orthonormal coordinate subspace."""
    k = basis.shape[1]
    if k == 0:
        return _empty_space()
    cols = basis.T  # (k, d)
    prods = _triple_coords(m, cols[:, None, None], cols[None, :, None], cols[None, None])
    inside = prods @ basis.conj()
    resid = float(np.abs(prods - inside @ basis.T).max(initial=0.0))
    scale = max(1.0, float(np.abs(prods).max(initial=0.0)))
    if resid > tol * scale:
        raise DecompositionInconclusive(
            f"subspace is not product-closed (residual {resid / scale:.2e})")
    return TernarySpace(structure=StructureConstants(k, inside))


def zettl_decompose(m: TernarySpace, tol: float = 1e-8) -> ZettlSplit:
    """Split M into its TRO-like and anti-TRO-like ideals.

    On each part the quadratic operator ``g -> [g f f]`` is positive
    (resp. negative) semidefinite for every f.  Block presentations
    split exactly by sign.  Structure presentations read the parts off
    an ordered Schur form of the trace operator W(g) = sum_j [g b_j b_j]:
    on a block W is right multiplication by sign * sum_j b_j* b_j, so it
    is definite there with the block's sign, in any basis.  Non-real or
    near-zero spectrum of W raises DecompositionInconclusive.
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

    if d == 0:
        empty = np.zeros((0, 0), dtype=np.complex128)
        return ZettlSplit(_empty_space(), _empty_space(), empty, empty)

    w = np.einsum("ijjl->li", m.structure.c)
    scale = max(mk.op_norm(w), 1.0)
    eigvals = np.linalg.eigvals(w)
    if np.max(np.abs(eigvals.imag), initial=0.0) > 1e-8 * scale:
        raise DecompositionInconclusive("trace operator has non-real spectrum")
    gap = 1e-9 * scale
    if np.any(np.abs(eigvals.real) <= gap):
        raise DecompositionInconclusive("trace operator has near-zero spectrum")

    _, z_pos, n_pos = scipy.linalg.schur(
        w, output="complex", sort=lambda lam: lam.real > gap)
    _, z_neg, n_neg = scipy.linalg.schur(
        w, output="complex", sort=lambda lam: lam.real < -gap)
    if n_pos + n_neg != d:
        raise DecompositionInconclusive(
            f"positive and negative subspaces have dims {n_pos}+{n_neg} != {d}")
    p = z_pos[:, :n_pos]
    n = z_neg[:, :n_neg]
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


# ---------------------------------------------------------------------------
# JB*-triple spectral test


@dataclass(frozen=True)
class SpectrumReport:
    """Spectrum of the realified box operator x -> ([aax] + [axa]) / 2."""

    eigenvalues: np.ndarray
    min_real: float
    max_imag: float
    scale: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "eigenvalues_real": [float(v) for v in np.sort(self.eigenvalues.real)],
            "min_real": self.min_real,
            "max_imag": self.max_imag,
            "scale": self.scale,
            "passed": self.passed,
        }


def jbstar_box_check(m: TernarySpace, a, tol: float = 1e-8) -> SpectrumReport:
    """Necessary spectral condition for the symmetrized triple product.

    When the space is TRO-like, the real-linear operator
    ``x -> ([aax] + [axa]) / 2`` has nonnegative spectrum; any negative
    eigenvalue certifies anti-TRO behaviour at ``a``.
    """
    m._need_blocks("jbstar_box_check")
    av = as_coords(m, a)
    eye = np.eye(m.dim, dtype=np.complex128)
    xs = np.vstack([eye, 1j * eye])  # the real basis e_j, i e_j of C^d
    out = 0.5 * (_triple_coords(m, av, av, xs) + _triple_coords(m, av, xs, av))
    eigvals = np.linalg.eigvals(np.hstack([out.real, out.imag]).T)
    scale = max(1.0, m.norm(av) ** 2)
    min_real = float(eigvals.real.min(initial=0.0))
    max_imag = float(np.abs(eigvals.imag).max(initial=0.0))
    return SpectrumReport(
        eigenvalues=eigvals,
        min_real=min_real,
        max_imag=max_imag,
        scale=scale,
        passed=bool(min_real >= -tol * scale),
    )
