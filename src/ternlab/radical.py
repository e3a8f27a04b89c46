"""Quasi-inverses, Jacobson radicals, and semisimplicity verdicts.

The radical of a finite-dimensional associative algebra over the
complex numbers is computed by the trace-form criterion on the
unitization (x is radical iff tr(L_{x a}) = 0 for every a, including
the adjoined unit), then certified exactly: it is an ideal, its powers
fall to zero, and the quotient by it has no radical.  Ternary radicals
are first tried on the d×d trace form of M itself, whose nondegeneracy
proves Rad M = 0; otherwise they are the M-corner of the radical of the
standard embedding (or of the structure envelope).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import matkernel as mk
from .embedding import CORNER_PRODUCTS, StandardEmbedding, _corner_part, build_embedding
from .errors import (
    BorderlineWarning,
    DecompositionInconclusive,
    InvalidInput,
    PreconditionFailed,
    ShapeError,
)
from .ternary import (_UNIT, AXIOM_TOL, SignedBlock, StructureConstants, TernarySpace,
                      _triple_coords, as_coords, operator_pairs, random_coords)

DEFAULT_TOL = 1e-9  # the quasi-inverse solve, the nilpotency chain's ranks, the trace form's σ_min
BORDERLINE_TOL = 1e-6


@dataclass(frozen=True)
class AssocAlgebra:
    """A bilinear associative product on a coordinate basis.

    ``table[i, j, l]`` is the l-th coordinate of ``b_i b_j``.  The
    optional ``star`` matrix realizes a conjugate-linear involution as
    ``x* = star @ conj(x)``.
    """

    table: np.ndarray
    star: np.ndarray = None

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.complex128)
        if t.ndim != 3 or len(set(t.shape)) > 1:
            raise ShapeError(f"structure table must be cubic, got {t.shape}")
        if t.size and not np.all(np.isfinite(t)):
            raise InvalidInput("structure table has non-finite entries")
        t.flags.writeable = False
        object.__setattr__(self, "table", t)
        if self.star is not None:
            s = np.asarray(self.star, dtype=np.complex128)
            s.flags.writeable = False
            object.__setattr__(self, "star", s)

    @property
    def dim(self) -> int:
        return self.table.shape[0]

    def associativity_residual(self) -> float:
        """Worst basis-level residual of (b_i b_j) b_k = b_i (b_j b_k).

        Relative to |table|max^2 (0 for a zero table): the residual is
        homogeneous of degree 2, so the sweep runs on table / |table|max.
        """
        return _assoc_residual(self.table)

    def validate(self):
        """InvalidInput when the associativity residual exceeds AXIOM_TOL."""
        _require_associative(self.associativity_residual())

    def mul(self, x, y) -> np.ndarray:
        d = self.dim
        x = np.asarray(x)
        xt = (x @ self.table.reshape(d, d * d)).reshape(x.shape[:-1] + (d, d))
        return (np.asarray(y)[..., None, :] @ xt)[..., 0, :]

    def left_op(self, x) -> np.ndarray:
        """Matrix of y -> x y."""
        d = self.dim
        return (np.asarray(x) @ self.table.reshape(d, d * d)).reshape(d, d).T

    def right_op(self, x) -> np.ndarray:
        """Matrix of y -> y x."""
        return (np.asarray(x) @ self.table).T

    @cached_property
    def trace_vector(self) -> np.ndarray:
        # tau_k = tr(L_{b_k})
        return np.einsum("kjj->k", self.table)

    def unit(self):
        """The two-sided unit, or None (``matkernel.solve_linear``)."""
        d = self.dim
        eye = np.eye(d, dtype=np.complex128)
        lhs = np.concatenate([
            self.table.reshape(d, -1).T,                      # e as left factor
            np.einsum("ijl->jil", self.table).reshape(d, -1).T,
        ])
        rhs = np.concatenate([eye.T.ravel(), eye.T.ravel()])
        return mk.solve_linear(lhs, rhs)

    def random_element(self, rng) -> np.ndarray:
        return random_coords(rng, self.dim)


# (b_i b_j) b_k against b_i (b_j b_k) on the basis, as matkernel sweeps
_ASSOC_SWEEP = ("ijm,mkl->ijkl", ("jkm,iml->ijkl",))
# the product corner of each composable pair of corners, and the 16 composable
# triples (x, y, z): x·y and y·z both composable
_PRODUCT = {(x, y): t for x, y, t in CORNER_PRODUCTS}
_TRIPLES = tuple((x, y, z) for x, y in _PRODUCT for v, z in _PRODUCT if v == y)


def _assoc_residual(table: np.ndarray) -> float:
    """``AssocAlgebra.associativity_residual`` of ``table``: the sparse sweep
    where ``sparse_pays`` picks it, else the dense loop over the first index."""
    d = len(table)
    t = table / mk.unit_scale(table)
    if mk.sparse_pays(t, *_ASSOC_SWEEP):
        return mk.sparse_gap(t, *_ASSOC_SWEEP)
    resid = 0.0
    # both sides laid out as (j, k, l) for each i
    lhs = np.empty((d, d * d), dtype=np.complex128)
    rhs = np.empty((d * d, d), dtype=np.complex128)
    for i in range(d):
        np.matmul(t[i], t.reshape(d, d * d), out=lhs)
        np.matmul(t.reshape(d * d, d), t[i], out=rhs)
        rhs -= lhs.reshape(rhs.shape)
        resid = max(resid, float(np.abs(rhs).max()))
    return resid


def _graded_gap(blocks: dict) -> float:
    """The dense loop's residual on a table graded by the corners of a
    linking algebra, one pair of matmuls per composable triple (every other
    triple's products are zero).  ``blocks[x, y]`` (C-contiguous) holds the
    coordinates of the products of corner x with corner y in their corner."""
    resid = 0.0
    for x, y, z in _TRIPLES:
        xy, yz = _PRODUCT[x, y], _PRODUCT[y, z]
        # both sides of (b_i b_j) b_k = b_i (b_j b_k) for b_i, b_j, b_k of corners
        # x, y, z, laid out as (i, (j, k), l)
        (ni, nj, nm), (nk, nl) = blocks[x, y].shape, blocks[xy, z].shape[1:]
        lhs = blocks[x, y].reshape(ni * nj, nm) @ blocks[xy, z].reshape(nm, nk * nl)
        rhs = blocks[y, z].reshape(nj * nk, blocks[x, yz].shape[1]) @ blocks[x, yz]
        rhs -= lhs.reshape(rhs.shape)
        resid = max(resid, float(np.abs(rhs).max(initial=0.0)))
    return resid


def _require_associative(resid: float):
    if resid > AXIOM_TOL:
        raise InvalidInput(f"product is not associative on the basis "
                           f"(residual {resid:.2e})")


def assoc_of_embedding(e: StandardEmbedding) -> AssocAlgebra:
    """Structure table (the embedding's cached one) and involution of a
    standard embedding, its associativity validated at AXIOM_TOL."""
    star = e.star_coords(np.eye(e.dim, dtype=np.complex128))  # row i = coords of (e_i)*
    alg = AssocAlgebra(table=e.table, star=star.T)
    alg.validate()
    return alg


def matrix_algebra(n: int) -> AssocAlgebra:
    """Full matrix algebra M_n with basis E_11, E_12, ..., E_nn."""
    d = n * n
    table = np.zeros((d, d, d), dtype=np.complex128)
    i, j, l = np.indices((n, n, n)).reshape(3, -1)
    table[i * n + j, j * n + l, i * n + l] = 1.0        # E_ij E_jl = E_il
    star = np.zeros((d, d), dtype=np.complex128)
    i, j = np.indices((n, n)).reshape(2, -1)
    star[j * n + i, i * n + j] = 1.0
    return AssocAlgebra(table=table, star=star)


# ---------------------------------------------------------------------------
# Quasi-inverses


@dataclass(frozen=True)
class QuasiInverseCertificate:
    """A solution y of y - x = (x u y) = (y u x), with residuals."""

    y: np.ndarray
    residuals: tuple
    scale: float

    @property
    def relative_residual(self) -> float:
        return max(self.residuals) / self.scale


def _solve_quasi_inverse(left_map, right_map, x):
    """Shared solve of (I - L)y = x, (I - R)y = x, accepted within DEFAULT_TOL."""
    d = x.shape[0]
    eye = np.eye(d, dtype=np.complex128)
    stacked = np.vstack([eye - left_map, eye - right_map])
    rhs = np.concatenate([x, x])
    y = np.linalg.lstsq(stacked, rhs, rcond=None)[0]
    r1 = float(np.linalg.norm(y - x - left_map @ y))
    r2 = float(np.linalg.norm(y - x - right_map @ y))
    opn = max(mk.op_norm(left_map), mk.op_norm(right_map))
    scale = max(1.0, float(np.linalg.norm(x)),
                float(np.linalg.norm(y)) * (1.0 + opn))
    rel = max(r1, r2) / scale
    if rel <= DEFAULT_TOL:
        return QuasiInverseCertificate(y=y, residuals=(r1, r2), scale=scale)
    if rel <= BORDERLINE_TOL:
        warnings.warn(f"quasi-inverse solve is borderline (residual {rel:.2e})",
                      BorderlineWarning, stacklevel=3)
    return None


def quasi_inverse_assoc(a: AssocAlgebra, x, u):
    """Quasi-inverse of x in the homotope with product (p, q) -> p u q."""
    x = np.asarray(x, dtype=np.complex128).ravel()
    u = np.asarray(u, dtype=np.complex128).ravel()
    left = a.left_op(a.mul(x, u))       # y -> x u y
    right = a.right_op(a.mul(u, x))     # y -> y u x
    return _solve_quasi_inverse(left, right, x)


def quasi_inverse_ternary(m: TernarySpace, x, u):
    """Quasi-inverse of x in the ternary homotope: y - x = [xuy] = [yux]."""
    xv, uv = as_coords(m, x), as_coords(m, u)
    d = m.dim
    eye = np.eye(d, dtype=np.complex128)
    left = _triple_coords(m, np.broadcast_to(xv, (d, d)),
                          np.broadcast_to(uv, (d, d)), eye).T
    right = _triple_coords(m, eye, np.broadcast_to(uv, (d, d)),
                           np.broadcast_to(xv, (d, d))).T
    return _solve_quasi_inverse(left, right, xv)


# ---------------------------------------------------------------------------
# Radicals


def jacobson_radical(a: AssocAlgebra) -> np.ndarray:
    """Orthonormal basis (columns) of Rad A by the trace-form criterion.

    Over characteristic zero, x is radical iff tr(L_{x b}) vanishes for
    every b in the unitization.  A nonzero result N is certified exactly
    (DecompositionInconclusive otherwise): N is a two-sided ideal, its
    powers fall to zero, so N is nilpotent and lies in Rad A, and
    Rad(A / N) = 0, so Rad A lies in N.
    """
    d = a.dim
    if d == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    tau = a.trace_vector
    rows = np.einsum("ijk,k->ij", a.table, tau).T     # row j: tr(L_{b_i b_j})
    crit = np.vstack([rows, tau[None, :]])            # extra row: tr(L_{b_i})
    rad = mk.nullspace(crit)
    if rad.shape[1] == 0:
        return rad

    _audit_ideal(a, rad)
    _certify_nilpotent(a, rad)
    comp = mk.nullspace(rad.conj().T)
    quotient = _quotient_algebra(a, comp)
    inner = jacobson_radical(quotient)
    if inner.shape[1] != 0:
        raise DecompositionInconclusive(
            "radical is not idempotent: quotient still has a radical")
    return rad


def _audit_ideal(a: AssocAlgebra, span: np.ndarray):
    # a span row s contracted into the table's second slot gives [i, l], the
    # coordinate l of e_i s, and into its first slot that of s e_i
    d = a.dim
    second = a.table.transpose(1, 0, 2).reshape(d, d * d)
    first = a.table.reshape(d, d * d)
    resid = mk.span_residual((np.concatenate([s @ second, s @ first]).reshape(-1, d, d)
                              for s in mk.span_chunks(span, 2 * d)), span)
    if resid > AXIOM_TOL:
        raise DecompositionInconclusive(
            f"computed radical is not an ideal (residual {resid:.2e})")


def _certify_nilpotent(a: AssocAlgebra, span: np.ndarray):
    """DecompositionInconclusive unless the ideal N spanned by the
    orthonormal columns is nilpotent.

    N_1 = N and N_{k+1} = N_k N must lose rank at every step until rank
    0; N_{k+1} lies in N_k, so an unchanged rank is a fixed point.  Ranks
    are read on table / |table|max, where products of unit vectors are
    of order one, so singular values up to DEFAULT_TOL are rounding at any scale
    (relative to the largest one, a zero power's rounding would count).
    """
    d = a.dim
    t = (a.table / mk.unit_scale(a.table)).reshape(d, d * d)
    power, step = span, 1
    while power.shape[1]:
        # [i, j]: the product of power column i and span column j
        prods = span.T @ (power.T @ t).reshape(-1, d, d)
        u, s, _ = np.linalg.svd(prods.reshape(-1, d).T, full_matrices=False)
        nxt = u[:, :int(np.sum(s > DEFAULT_TOL))]
        if nxt.shape[1] >= power.shape[1]:
            raise DecompositionInconclusive(
                f"computed radical is not nilpotent: the rank of its power "
                f"stalls at {power.shape[1]} after step {step}")
        power, step = nxt, step + 1


def _quotient_algebra(a: AssocAlgebra, comp: np.ndarray) -> AssocAlgebra:
    """Induced product on the orthonormal complement of an ideal (coset
    table); [ideal | comp] is unitary, so coset coordinates are v @ conj(comp)."""
    k = comp.shape[1]
    if k == 0:
        return AssocAlgebra(table=np.zeros((0, 0, 0), dtype=np.complex128))
    # [i, j] holds the product of complement columns i and j
    d = a.dim
    prods = comp.T @ (comp.T @ a.table.reshape(d, d * d)).reshape(k, d, d)
    return AssocAlgebra(table=prods @ comp.conj())


def m_corner(rad: np.ndarray, m_idx: np.ndarray) -> np.ndarray:
    """Basis (columns, base coordinates) of Rad A ∩ M from an orthonormal
    basis of Rad A and the coordinate indices of M: Rad A is an ideal of the
    Peirce-graded A, so this is its corner part (``embedding._corner_part``)."""
    return _corner_part(rad, m_idx)[m_idx]


def _unit_space(m: TernarySpace) -> TernarySpace:
    """m divided by the power of two that brings its largest entry (over every
    block stack, or |c|max) into [1, 2): an exact division, under which the
    radical, a subspace of the coordinates, stays as it is."""
    data = [b.stack for b in m.blocks] if m.is_block else [m.structure.c]
    s = np.ldexp(1.0, np.frexp(max((mk.unit_scale(a) for a in data), default=1.0))[1] - 1)
    if m.is_block:
        return TernarySpace(blocks=[SignedBlock(b.sign, b.rows, b.cols, b.stack / s)
                                    for b in m.blocks])
    return TernarySpace(structure=StructureConstants(m.dim, m.structure.c / s))


def _ambient(m: TernarySpace) -> tuple:
    """(A, M-corner indices): the embedding on block input, the structure
    envelope on structure input; Rad A ∩ M is the radical of m.  Both are
    built from ``_unit_space(m)``."""
    m = _unit_space(m)
    if m.is_block:
        e = build_embedding(m)
        return assoc_of_embedding(e), e.corner_indices["M"]
    return structure_envelope(m)


# the SVD's backward error, an estimate and not a proven bound: the singular
# values computed for a d×d matrix T are taken to be exact for some T + F with
# ‖F‖₂ <= _SVD_BACKWARD d² u ‖T‖_F.  The LAPACK Users' Guide (§4.9) states
# that error as p(d) u ‖T‖₂ with p "a modestly growing function" it does not
# give, and its own approximate error bound takes p = 1.
_SVD_BACKWARD = 8


def _gamma(n: int) -> float:
    """2 γ_{n+2}, with γ_k = k u / (1 - k u): a computed complex sum of n
    products differs from the exact one by at most √2 γ_{n+2} times the sum of
    the products' moduli (Higham, *Accuracy and Stability of Numerical
    Algorithms*, §3.6), so a matmul with inner dimension n, or a sum of n
    terms, errs entrywise by at most ``_gamma(n)`` |A| |B|."""
    k = 2 * (n + 2) * _UNIT
    return k / (1 - k)


def _structure_trace_form(c: np.ndarray) -> tuple:
    """(τ, e): τ[a, b] = sum_i c[a, b, i, i] and a bound e on ‖τ - exact τ‖₂.

    Each entry is a sum of d terms, so it errs by at most
    ``_gamma(d)`` sum_i |c[a, b, i, i]|, and e is the Frobenius norm of those
    bounds, raised by 1 + ``_gamma(d * d)`` for the rounding of its own sums.
    """
    d = len(c)
    tau = np.einsum("abii->ab", c)
    mods = np.abs(np.einsum("abii->abi", c)).sum(axis=-1)
    return tau, _gamma(d) * float(np.linalg.norm(mods)) * (1 + _gamma(d * d))


def _block_trace_form(b: SignedBlock) -> tuple:
    """(τ, e) for one signed block: τ[a, b'] = sign <x_b', G x_a>_HS and a bound
    e on ‖τ - exact τ‖₂.

    τ(x, y) is the trace of z -> sign x y* z on the span V of the basis
    x_1..x_k (r×c matrices), compressed to V by the orthogonal projection P
    as ``project`` compresses it: with y_k the basis of V dual to the x_k,
    tr(P L P) = sum_k <y_k, sign x y* x_k> = sign tr(y* G x) with
    G = sum_k x_k y_k* = sum_{k,m} (H⁻¹)[k, m] x_k x_m* (r×r) and H the Gram
    matrix H[k, m] = <x_k, x_m>.  No triple product is formed.

    The bound.  N approximates H⁻¹; τ_N, the τ of any N, is linear in N and
    |τ_N[a, b']| <= ‖N‖₂ S ‖x_a‖ ‖x_b'‖, S = sum_k ‖x_k‖² (Cauchy-Schwarz over
    the entries of x_k* x_b' and x_m* x_a), so ‖τ_N‖_F <= ‖N‖₂ S².  With
    R = N H - I, ‖H⁻¹ - N‖₂ <= ‖N‖ ρ / (1 - ρ) for any ρ >= ‖R‖₂ below 1, and
    ρ is the computed ‖N Ĥ - I‖_F plus 3 γ ‖N‖_F S for the rounding of Ĥ
    (at most γ S) and of that product (γ = ``_gamma`` of the largest inner
    dimension).  The four matmuls from N to τ each err by at most
    γ ‖A‖_F ‖B‖_F on top of their propagated inputs, in all at most
    5 γ ‖N‖_F S².  So ‖τ - τ̂‖_F <= S² ‖N‖_F (ρ / (1 - ρ) + 5 γ), raised by 1 + γ
    for the bound's own norms; inf when ρ >= 1.
    """
    k, r, c = b.stack.shape
    x = b.flat
    h = x.conj() @ x.T
    n = np.linalg.pinv(h)
    # y_m = sum_k N[k, m] x_k and G = sum_m y_m x_m*, as (r, k c) @ (k c, r)
    xr = b.stack.transpose(1, 0, 2).reshape(r, k * c)
    y = (n.T @ x).reshape(k, r, c).transpose(1, 0, 2).reshape(r, k * c)
    z = ((y @ xr.conj().T) @ b.stack).reshape(k, r * c)    # row a: G x_a
    tau = b.sign * (z @ x.conj().T)
    gam = _gamma(k * (r * c + k))
    sq, nn = float(np.vdot(x, x).real), float(np.linalg.norm(n))
    rho = float(np.linalg.norm(n @ h - np.eye(k))) + 3 * gam * nn * sq
    if rho >= 1:
        return tau, np.inf
    return tau, sq * sq * nn * (rho / (1 - rho) + 5 * gam) * (1 + gam)


def _trace_form_certificate(m: TernarySpace) -> tuple:
    """(σ_min, bound) of the trace form τ(x, y) = tr L(x, y) of m, where
    L(x, y) z = [x y z].

    For x in Rad M, τ(x, ·) = 0 (Loos, *Assoziative Tripelsysteme*,
    Manuscripta Math. 7, 1972): for every y, x ȳ lies in the radical of the
    ambient algebra, so it is nilpotent, and L(x, y) is its left
    multiplication restricted to the invariant subspace M, of trace 0.  So
    a nondegenerate τ proves Rad M = 0, and σ_min > bound is taken as proof.

    τ is the d×d matrix τ[a, b] = tr L(b_a, b_b): ``_structure_trace_form``
    on structure input, ``_block_trace_form`` per block on block input (τ
    vanishes between blocks).  The computed τ̂ is within e of the exact τ of
    the data (2-norm), and its computed singular values are taken to be
    exact for τ̂ + F, ‖F‖₂ <= ``_SVD_BACKWARD`` d² u ‖τ̂‖_F, so by Weyl's
    inequality every computed singular value is within e + ‖F‖₂ of τ's,
    raised by 1 + ``_gamma(d * d)`` for its own rounding.  That rounding
    term alone would prove Rad M = 0 only for data that is exactly a ring,
    and the input gate passes data whose associativity identities miss by
    up to ``ternary.DEFAULT_TOL``: c[0,0,0,0] = 1 with c[1,1,0,0] = 1e-12
    passes it, lies 1e-12 from a ring whose radical is span{b_1}, and has
    τ = diag(1, 1e-12).  So ``bound`` is the larger of the rounding term
    and DEFAULT_TOL σ_max, the relative cut at which the ambient path
    (``mk.nullspace`` of its own trace form) reads ranks; below it the
    ambient path decides.  A 0-dimensional space gets σ_min = inf.
    """
    d = m.dim
    if d == 0:
        return np.inf, 0.0
    if m.is_block:
        tau = np.zeros((d, d), dtype=np.complex128)
        err = 0.0
        for b, sl in zip(m.blocks, m.block_slices):
            tau[sl, sl], e = _block_trace_form(b)
            err = max(err, e)
    else:
        tau, err = _structure_trace_form(m.structure.c)
    s = np.linalg.svd(tau, compute_uv=False)
    back = _SVD_BACKWARD * d * d * _UNIT * float(np.linalg.norm(tau))
    return float(s[-1]), max((err + back) * (1 + _gamma(d * d)), DEFAULT_TOL * float(s[0]))


def _radical(m: TernarySpace) -> tuple:
    """(basis, the ambient algebra's radical dimension, report): the one path
    of ``ternary_radical`` and ``ternlab radical``.

    The trace-form certificate runs first, on ``_unit_space(m)``.  When
    σ_min > bound, Rad M = 0, and on block input the radical of the
    embedding A = L ⊕ M ⊕ M̄ ⊕ R is 0 too.  Rad A is an ideal and the
    corner units p (of L) and q (of R) sum to 1, so Rad A is graded by the
    corners: J_X = Rad A ∩ X for X = L, M, M̄, R.  J_M = Rad M = 0.  Then
    J_L M lies in J_M = 0; L = span(M M̄) contains p, so j = j p, a sum of
    terms (j m) n̄ = 0, for every j in J_L: J_L = 0.  Likewise M J_R lies in
    J_M and R = span(M̄ M) contains q, so J_R = 0; and J_M̄ M lies in J_R = 0,
    so J_M̄ = 0 through p again.

    Otherwise the radical is Rad A ∩ M for the ambient algebra of
    ``_ambient``.  The report holds ``decided_by`` ("trace_form" or
    "ambient") and the certificate's ``sigma_min``, ``bound`` and ``margin``
    (σ_min - bound), each None where it is not finite.
    """
    sigma, bound = _trace_form_certificate(_unit_space(m))
    report = {"decided_by": "trace_form"}
    for key, v in (("sigma_min", sigma), ("bound", bound), ("margin", sigma - bound)):
        report[key] = float(v) if np.isfinite(v) else None
    if sigma > bound:
        return np.zeros((m.dim, 0), dtype=np.complex128), 0, report
    alg, m_idx = _ambient(m)
    erad = jacobson_radical(alg)
    return m_corner(erad, m_idx), int(erad.shape[1]), {**report, "decided_by": "ambient"}


def ternary_radical(m: TernarySpace) -> np.ndarray:
    """Basis (columns, base coordinates) of the radical of a ternary ring.

    Zero where the trace form of m certifies it (``_radical``).  Otherwise
    computed as Rad A(M) ∩ M via the Peirce corner of the embedding;
    structure presentations route through the abstract envelope built
    from the structure constants.  The corner needs no audit of its
    own: for x in Rad A ∩ M every x ū lies in the certified Rad A, so it
    is quasi-invertible, and by the corner equivalence (see
    ``check_corner_qi_equivalence``) x is ternary quasi-invertible in
    every homotope.
    """
    return _radical(m)[0]


# ---------------------------------------------------------------------------
# Abstract envelope from structure constants


def structure_envelope(m: TernarySpace):
    """Faithful associative envelope of a structure-constants space.

    Elements are (A, f, gbar, B) with A spanned by pairs of left
    multiplication operators, B by right multiplication pairs, and the
    bar slot stored in conjugated coordinates so every product rule is
    bilinear.  Returns the algebra and the coordinate indices of the
    embedded copy of M.

    The table is built as the 8 corner blocks of composable pairs and
    vanishes outside them, so its associativity is checked by ``_graded_gap``
    on those blocks, divided by their largest entry.
    """
    c = m.structure.c
    d = m.dim
    # left operators: L(b_i, b_j)[l, k] = c[i, j, k, l]
    lten = np.einsum("ijkl->ijlk", c)
    # right operators: R(b_j, b_k)[l, i] = c[i, j, k, l]
    rten = np.einsum("ijkl->jkli", c)

    l_pairs, r_pairs = operator_pairs(lten), operator_pairs(rten)
    l_basis = mk.colspace(l_pairs.reshape(d * d, -1).T)   # columns: vec(P) ++ vec(Ptilde)
    r_basis = mk.colspace(r_pairs.reshape(d * d, -1).T)
    dk, dr = l_basis.shape[1], r_basis.shape[1]
    n = dk + d + d + dr
    # the coordinates of the corners A, f, gbar, B: CORNERS' L, M, Mbar and R
    at = np.split(np.arange(n), np.cumsum((dk, d, d)))

    def coords(basis, prods, corner):
        # coordinates of stacked pairs (..., 2 d^2) in the orthonormal basis,
        # each pair checked against its span; a residual that is not finite
        # (a product or a 2-norm that overflowed) checks nothing and fails
        cs = prods @ basis.conj()
        resid = np.linalg.norm(cs @ basis.T - prods, axis=-1)
        bound = 1e-7 * np.maximum(1.0, np.linalg.norm(prods, axis=-1))
        if not np.all(np.isfinite(resid) & (resid <= bound)):
            raise DecompositionInconclusive(f"envelope product left the {corner}-corner span "
                                             "or its residual is not finite")
        return cs

    # the pairs (a1, a2) of the A basis and (b1, b2) of the B basis
    a1, a2 = l_basis.T.reshape(dk, 2, d, d).transpose(1, 0, 2, 3)
    b1, b2 = r_basis.T.reshape(dr, 2, d, d).transpose(1, 0, 2, 3)
    aa = np.stack([a1[:, None] @ a1, a2 @ a2[:, None]], axis=2)
    bb = np.stack([b1 @ b1[:, None], b2[:, None] @ b2], axis=2)
    blocks = {
        (0, 0): coords(l_basis, aa.reshape(dk, dk, 2 * d * d), "A"),
        (1, 2): coords(l_basis, l_pairs, "A"),          # f s'
        (3, 3): coords(r_basis, bb.reshape(dr, dr, 2 * d * d), "B"),
        (2, 1): coords(r_basis, r_pairs, "B"),          # s f'
        (0, 1): a1.transpose(0, 2, 1),                  # a1 f'
        (1, 3): b1.transpose(2, 0, 1),                  # b1' f
        (2, 0): a2.transpose(2, 0, 1),                  # a2' s
        (3, 2): b2.transpose(0, 2, 1),                  # b2 s'
    }
    table = np.zeros((n, n, n), dtype=np.complex128)
    for x, y, t in CORNER_PRODUCTS:     # as StandardEmbedding.table fills its blocks
        table[np.ix_(at[x], at[y], at[t])] = blocks[x, y]
    scale = max(float(np.abs(v).max(initial=0.0)) for v in blocks.values()) or 1.0
    _require_associative(_graded_gap({k: np.ascontiguousarray(v) / scale
                                      for k, v in blocks.items()}))
    return AssocAlgebra(table=table), at[1]


# ---------------------------------------------------------------------------
# Lemma checkers


def check_corner_qi_equivalence(m: TernarySpace, x=None, u=None,
                                trials: int = 1, seed: int = 0,
                                embedding: StandardEmbedding = None,
                                algebra: AssocAlgebra = None) -> bool:
    """Ternary quasi-invertibility matches the embedded corner element's.

    With explicit x, u the single pair is checked; otherwise ``trials``
    random pairs are drawn.  The corner element sits in the M slot and
    the homotope element carries u in the Mbar slot.
    """
    e = embedding if embedding is not None else build_embedding(m)
    alg = algebra if algebra is not None else assoc_of_embedding(e)
    rng = np.random.default_rng(seed)
    pairs = ([(as_coords(m, x), as_coords(m, u))] if x is not None
             else [(m.random_element(rng).coords, m.random_element(rng).coords)
                   for _ in range(trials)])
    for xv, uv in pairs:
        tern = quasi_inverse_ternary(m, xv, uv) is not None
        xhat = e.embed_base(xv).coords
        uhat = e.embed_base_conj(uv).coords
        assoc = quasi_inverse_assoc(alg, xhat, uhat) is not None
        if tern != assoc:
            return False
    return True


def check_symmetry_principle(a: AssocAlgebra, x, y) -> bool:
    """qi(x in A_y) holds iff qi(y in A_x) holds."""
    x = np.asarray(x, dtype=np.complex128).ravel()
    y = np.asarray(y, dtype=np.complex128).ravel()
    fwd = quasi_inverse_assoc(a, x, y) is not None
    bwd = quasi_inverse_assoc(a, y, x) is not None
    return fwd == bwd


def check_shifting_principle(a: AssocAlgebra, phi, psi, x, y,
                             validate: bool = True) -> bool:
    """qi(x in A_{psi(y)}) holds iff qi(phi(x) in A_y) holds.

    ``phi`` and ``psi`` are linear self-maps given as matrices; they
    must satisfy phi(p) q phi(r) = phi(p psi(q) r) and the mirrored
    identity on the basis, else PreconditionFailed.
    """
    phi = np.asarray(phi, dtype=np.complex128)
    psi = np.asarray(psi, dtype=np.complex128)
    if validate:
        _validate_shifting_maps(a, phi, psi, AXIOM_TOL)
    x = np.asarray(x, dtype=np.complex128).ravel()
    y = np.asarray(y, dtype=np.complex128).ravel()
    fwd = quasi_inverse_assoc(a, x, psi @ y) is not None
    bwd = quasi_inverse_assoc(a, phi @ x, y) is not None
    return fwd == bwd


def _validate_shifting_maps(a: AssocAlgebra, phi, psi, tol):
    # both sides are of degree 2 in the table: compare them on table / |table|max
    t, d = a.table / mk.unit_scale(a.table), a.dim
    for f, g in ((phi, psi), (psi, phi)):
        # f(b_i) b_j f(b_k)  vs  f(b_i g(b_j) b_k), both laid out as (i, j, k, l):
        # (f(b_i) b_j)_m times (b_m f(b_k))_l, and (b_i g(b_j))_m times f(b_m b_k)_l
        lhs = (f.T @ t.reshape(d, d * d)).reshape(d * d, d) @ (f.T @ t).reshape(d, d * d)
        rhs = (g.T @ t).reshape(d * d, d) @ (t @ f.T).reshape(d, d * d)
        resid = float(np.abs(lhs - rhs).max(initial=0.0))
        if resid > tol:
            raise PreconditionFailed(
                f"compression maps fail the shifting identities "
                f"(residual {resid:.2e})")


def corner_compressions(e: StandardEmbedding) -> dict:
    """Coordinate projections of the four Peirce compressions.

    ``LL`` keeps the diagonal L corner, ``RR`` the R corner, ``LR``
    keeps the M slot and ``RL`` the Mbar slot.
    """
    d = e.dim
    out = {}
    for name, corner in (("LL", "L"), ("LR", "M"), ("RL", "Mbar"), ("RR", "R")):
        p = np.zeros((d, d), dtype=np.complex128)
        idx = e.corner_indices[corner]
        p[idx, idx] = 1.0
        out[name] = p
    return out
