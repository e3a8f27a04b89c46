"""Finite-dimensional C*-ternary rings.

A space is presented either as a direct sum of signed matrix blocks,
where the triple product on a block is ``[xyz] = sign * x y* z``, or
abstractly by a structure-constants tensor that is conjugate-linear in
the middle slot.  Block presentations carry operator norms; structure
presentations support only the algebraic operations.

All values are immutable and all operations are pure; randomized checks
take explicit seeds.
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
    SolverBudgetExceeded,
)

DEFAULT_TOL = 1e-9
AXIOM_TOL = 1e-8
CLOSURE_MAX_ROUNDS = 64


def _triple_mats(x, y, z, sign):
    """Blockwise product sign * x y* z; inputs may carry batch axes."""
    return sign * (x @ np.swapaxes(y, -1, -2).conj() @ z)


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
        """Worst relative distance of a basis triple product from the span."""
        prods = np.einsum("iab,jcb,kcd->ijkad", self.stack, self.stack.conj(),
                          self.stack, optimize=True)
        _, resid = self.project(prods.reshape(-1, self.rows, self.cols))
        return resid / max(1.0, float(np.abs(prods).max(initial=0.0)))

    def validate(self, tol: float = DEFAULT_TOL):
        s = np.linalg.svd(self.flat, compute_uv=False)
        if s[-1] <= tol * s[0]:
            raise InvalidInput("block basis is not linearly independent "
                               f"(Gram condition {s[-1] / s[0]:.2e})")
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

    def associativity_residual(self) -> float:
        """Worst basis-level residual of the two associativity identities."""
        c = self.c
        d = self.dim
        if d == 0:
            return 0.0
        scale = max(1.0, float(np.abs(c).max()) ** 2)
        worst = 0.0
        # [[xyz]uv] against [x[uzy]v] and [xy[zuv]], chunked over the
        # first index to keep the 6-way tensor small.
        for i in range(d):
            lhs = np.einsum("jkm,muvl->jkuvl", c[i], c, optimize=True)
            rhs1 = np.einsum("ukjm,mvl->jkuvl", c.conj(), c[i], optimize=True)
            rhs2 = np.einsum("kuvm,jml->jkuvl", c, c[i], optimize=True)
            worst = max(worst, float(np.abs(lhs - rhs1).max()),
                        float(np.abs(lhs - rhs2).max()))
        return worst / scale

    def validate(self, tol: float = DEFAULT_TOL):
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


def as_coords(m: "TernarySpace", x) -> np.ndarray:
    v = x.coords if isinstance(x, TernaryElement) else np.asarray(x, dtype=np.complex128).ravel()
    if v.shape != (m.dim,):
        raise ShapeError(f"element has {v.shape[0]} coordinates, space has dim {m.dim}")
    return v


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

    @cached_property
    def block_slices(self) -> tuple:
        out, start = [], 0
        for b in self.blocks:
            out.append(slice(start, start + b.dim))
            start += b.dim
        return tuple(out)

    def _need_blocks(self, what: str):
        if not self.is_block:
            raise NormUnavailable(f"{what} needs a block presentation; "
                                  "structure constants carry no operator norm")

    # -- elements ----------------------------------------------------------

    def element(self, coords) -> TernaryElement:
        e = TernaryElement(np.asarray(coords, dtype=np.complex128))
        as_coords(self, e)
        return e

    def zero(self) -> TernaryElement:
        return TernaryElement(np.zeros(self.dim, dtype=np.complex128))

    def basis_element(self, i: int) -> TernaryElement:
        v = np.zeros(self.dim, dtype=np.complex128)
        v[i] = 1.0
        return TernaryElement(v)

    def random_element(self, rng, scale: float = 1.0) -> TernaryElement:
        v = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
        return TernaryElement(scale * v / np.sqrt(2.0))

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

    def _norm_batch(self, coords: np.ndarray) -> np.ndarray:
        mats = self.realize_batch(coords)
        if not mats:
            return np.zeros(coords.shape[:-1])
        svs = [np.linalg.svd(m, compute_uv=False)[..., 0] for m in mats]
        return np.max(np.stack(svs, axis=-1), axis=-1)

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


def _triple_coords(m: TernarySpace, xs: np.ndarray, ys: np.ndarray, zs: np.ndarray,
                   tol: float = DEFAULT_TOL) -> np.ndarray:
    """Batched triple product on coordinate arrays (..., dim)."""
    if m.is_block:
        outs = []
        for b, s in zip(m.blocks, m.block_slices):
            prod = _triple_mats(b.realize(xs[..., s]), b.realize(ys[..., s]),
                                b.realize(zs[..., s]), b.sign)
            coords, resid = b.project(prod)
            scale = max(1.0, float(np.abs(prod).max(initial=0.0)))
            if resid > tol * scale:
                raise InvalidInput(f"triple product left the block span "
                                   f"(residual {resid / scale:.2e})")
            outs.append(coords)
        if not outs:
            return np.zeros(xs.shape, dtype=np.complex128)
        return np.concatenate(outs, axis=-1)
    return np.einsum("ijkl,...i,...j,...k->...l", m.structure.c,
                     xs, ys.conj(), zs, optimize=True)


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
    d = m.dim
    eye = np.eye(d, dtype=np.complex128)
    xs = eye[:, None, None, :] * np.ones((1, d, d, 1))
    ys = eye[None, :, None, :] * np.ones((d, 1, d, 1))
    zs = eye[None, None, :, :] * np.ones((d, d, 1, 1))
    c = _triple_coords(m, xs.reshape(-1, d), ys.reshape(-1, d), zs.reshape(-1, d), tol)
    return StructureConstants(dim=d, c=c.reshape(d, d, d, d))


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


def ternary_closure(generators, sign: int, tol: float = DEFAULT_TOL,
                    max_rounds: int = CLOSURE_MAX_ROUNDS) -> TernarySpace:
    """Smallest signed block containing the generators.

    Iterates span-augmentation by basis triple products until the
    dimension stabilizes; raises SolverBudgetExceeded after
    ``max_rounds`` non-stabilizing rounds.
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
    for _ in range(max_rounds):
        stack = span.T.reshape(-1, rows, cols)
        prods = np.einsum("iab,jcb,kcd->ijkad", stack, stack.conj(), stack,
                          optimize=True).reshape(-1, rows * cols)
        new_span = mk.subspace_union(span, prods.T, tol)
        if new_span.shape[1] == span.shape[1]:
            basis = tuple(new_span.T.reshape(-1, rows, cols))
            return TernarySpace.from_blocks(
                [SignedBlock(sign, rows, cols, basis)], validate=True, tol=max(tol, 1e-8))
        span = new_span
        if span.shape[1] >= rows * cols:
            basis = tuple(span.T.reshape(-1, rows, cols))
            return TernarySpace.from_blocks(
                [SignedBlock(sign, rows, cols, basis)], validate=True, tol=max(tol, 1e-8))
    raise SolverBudgetExceeded(f"closure did not stabilize in {max_rounds} rounds")


# ---------------------------------------------------------------------------
# Axiom checking


@dataclass(frozen=True)
class AxiomReport:
    """Max residuals of the defining identities over sampled tuples."""

    residuals: dict
    samples: int
    seed: int
    tol: float
    norm_checked: bool

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
            "samples": self.samples,
            "seed": self.seed,
            "tol": self.tol,
            "norm_checked": self.norm_checked,
            "passed": self.passed,
        }


def check_axioms(m: TernarySpace, samples: int = 500, seed: int = 0,
                 tol: float = AXIOM_TOL) -> AxiomReport:
    """Randomized audit of the C*-ternary axioms.

    Block presentations get the ``closure`` residual of each block span
    under the triple product, then the norm axioms and both
    associativity identities; a span that is not closed stops the audit
    there, flagged via ``norm_checked=False``.  Structure presentations
    get the algebraic identities only, also flagged that way.
    """
    rng = np.random.default_rng(seed)
    d = m.dim
    residuals = {}
    if d == 0:
        return AxiomReport({}, samples, seed, tol, m.is_block)
    if m.is_block:
        residuals["closure"] = max(b.closure_residual() for b in m.blocks)
        if residuals["closure"] > tol:
            return AxiomReport(residuals, samples, seed, tol, norm_checked=False)

    def draw(n):
        return (rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))) / np.sqrt(2 * d)

    xs, ys, zs, us, vs = (draw(samples) for _ in range(5))
    lam = rng.standard_normal(samples) + 1j * rng.standard_normal(samples)

    t = lambda a, b, c: _triple_coords(m, a, b, c)
    # conjugate-linearity in the middle slot
    lhs = t(xs, lam[:, None] * ys, zs)
    rhs = lam.conj()[:, None] * t(xs, ys, zs)
    scale = np.maximum(1.0, np.linalg.norm(rhs, axis=1))
    residuals["conjugate_linearity"] = float(
        np.max(np.linalg.norm(lhs - rhs, axis=1) / scale))

    # [[xyz]uv] = [x[uzy]v] = [xy[zuv]]
    lhs = t(t(xs, ys, zs), us, vs)
    mid = t(xs, t(us, zs, ys), vs)
    rgt = t(xs, ys, t(zs, us, vs))
    scale = np.maximum(1.0, np.prod(
        [np.linalg.norm(w, axis=1) for w in (xs, ys, zs, us, vs)], axis=0))
    residuals["assoc_outer"] = float(np.max(np.linalg.norm(lhs - mid, axis=1) / scale))
    residuals["assoc_inner"] = float(np.max(np.linalg.norm(lhs - rgt, axis=1) / scale))

    if not m.is_block:
        # basis-level sweep is exact and catches single-entry corruption
        residuals["assoc_basis"] = m.structure.associativity_residual()
        return AxiomReport(residuals, samples, seed, tol, norm_checked=False)

    # norm axioms on unit-norm samples
    nx, ny, nz = (m._norm_batch(w) for w in (xs, ys, zs))
    ok = (nx > 0) & (ny > 0) & (nz > 0)
    xs_u = xs[ok] / nx[ok, None]
    ys_u = ys[ok] / ny[ok, None]
    zs_u = zs[ok] / nz[ok, None]
    prod_norm = m._norm_batch(t(xs_u, ys_u, zs_u))
    residuals["norm_submultiplicative"] = float(np.max(np.maximum(prod_norm - 1.0, 0.0),
                                                       initial=0.0))
    cube_norm = m._norm_batch(t(xs_u, xs_u, xs_u))
    residuals["norm_cube"] = float(np.max(np.abs(cube_norm - 1.0), initial=0.0))
    return AxiomReport(residuals, samples, seed, tol, norm_checked=True)


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


def _right_mult_operator(m: TernarySpace, f: np.ndarray) -> np.ndarray:
    """Matrix of g -> [g f f] over the coordinate basis."""
    d = m.dim
    eye = np.eye(d, dtype=np.complex128)
    cols = _triple_coords(m, eye, np.broadcast_to(f, (d, d)), np.broadcast_to(f, (d, d)))
    return cols.T


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
    d = m.dim
    cols = basis.T  # (k, d)
    xs = np.repeat(np.repeat(cols[:, None, None, :], k, 1), k, 2).reshape(-1, d)
    ys = np.repeat(np.repeat(cols[None, :, None, :], k, 0), k, 2).reshape(-1, d)
    zs = np.repeat(np.repeat(cols[None, None, :, :], k, 0), k, 1).reshape(-1, d)
    prods = _triple_coords(m, xs, ys, zs)
    inside = prods @ basis.conj()
    resid = float(np.abs(prods - inside @ basis.T).max(initial=0.0))
    scale = max(1.0, float(np.abs(prods).max(initial=0.0)))
    if resid > tol * scale:
        raise DecompositionInconclusive(
            f"subspace is not product-closed (residual {resid / scale:.2e})")
    c = inside.reshape(k, k, k, k)
    return TernarySpace(structure=StructureConstants(k, c))


def zettl_decompose(m: TernarySpace, seed: int = 0, tol: float = 1e-8) -> ZettlSplit:
    """Split M into its TRO-like and anti-TRO-like ideals.

    On each part the quadratic operator ``g -> [g f f]`` is positive
    (resp. negative) semidefinite for every f.  Block presentations
    split exactly by sign; structure presentations are resolved by
    sampling the operator, accumulating it, and reading the invariant
    subspaces off an ordered Schur form.  Unresolved near-zero spectrum
    after the sample budget raises DecompositionInconclusive.
    """
    d = m.dim
    if m.is_block:
        plus = [b for b in m.blocks if b.sign > 0]
        minus = [b for b in m.blocks if b.sign < 0]
        idx_plus = np.concatenate(
            [np.arange(s.start, s.stop) for b, s in zip(m.blocks, m.block_slices)
             if b.sign > 0] or [np.zeros(0, dtype=int)])
        idx_minus = np.concatenate(
            [np.arange(s.start, s.stop) for b, s in zip(m.blocks, m.block_slices)
             if b.sign < 0] or [np.zeros(0, dtype=int)])
        eye = np.eye(d, dtype=np.complex128)
        return ZettlSplit(
            plus=TernarySpace(blocks=tuple(plus)) if plus else _empty_space(),
            minus=TernarySpace(blocks=tuple(minus)) if minus else _empty_space(),
            plus_coords=eye[:, idx_plus],
            minus_coords=eye[:, idx_minus],
        )

    if d == 0:
        empty = np.zeros((0, 0), dtype=np.complex128)
        return ZettlSplit(_empty_space(), _empty_space(), empty, empty)

    rng = np.random.default_rng(seed)
    w = np.zeros((d, d), dtype=np.complex128)
    samples_per_round = 8 * d
    for _ in range(4):
        fs = (rng.standard_normal((samples_per_round, d))
              + 1j * rng.standard_normal((samples_per_round, d))) / np.sqrt(2 * d)
        # sum of the operators g -> [g f f] over the sample batch
        w += np.einsum("ijkl,jk->li", m.structure.c, fs.conj().T @ fs, optimize=True)
        scale = mk.op_norm(w)
        eigvals = np.linalg.eigvals(w)
        if np.max(np.abs(eigvals.imag), initial=0.0) > 1e-8 * max(scale, 1.0):
            raise DecompositionInconclusive(
                "accumulated quadratic operator has non-real spectrum")
        gap = 1e-9 * max(scale, 1.0)
        if not np.any(np.abs(eigvals.real) <= gap):
            break
    else:
        raise DecompositionInconclusive(
            "sample budget exhausted with unresolved near-zero spectrum")

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
    d = m.dim
    mat = np.zeros((2 * d, 2 * d))
    for j in range(2 * d):
        x = np.zeros(d, dtype=np.complex128)
        if j < d:
            x[j] = 1.0
        else:
            x[j - d] = 1.0j
        out = 0.5 * (_triple_coords(m, av, av, x) + _triple_coords(m, av, x, av))
        mat[:d, j] = out.real
        mat[d:, j] = out.imag
    eigvals = np.linalg.eigvals(mat)
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
