"""Quasi-inverses, Jacobson radicals, and semisimplicity verdicts.

The radical of a finite-dimensional associative algebra over the
complex numbers is computed by the trace-form criterion on the
unitization (x is radical iff tr(L_{x a}) = 0 for every a, including
the adjoined unit), then certified exactly: it is an ideal, its powers
fall to zero, and the quotient by it has no radical.  Ternary radicals
are the M-corner of the radical of the standard embedding (or of the
structure envelope).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import matkernel as mk
from .embedding import StandardEmbedding, _slice_intersection, build_embedding
from .errors import (
    BorderlineWarning,
    DecompositionInconclusive,
    InvalidInput,
    PreconditionFailed,
    ShapeError,
)
from .ternary import TernarySpace, _triple_coords, as_coords, operator_pairs, random_coords

DEFAULT_TOL = 1e-9
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
        d = self.dim
        t = self.table / mk.unit_scale(self.table)
        sweep = ("ijm,mkl->ijkl", ("jkm,iml->ijkl",))
        if mk.sparse_pays(t, *sweep):
            return mk.sparse_gap(t, *sweep)
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

    def validate(self, tol: float = DEFAULT_TOL):
        resid = self.associativity_residual()
        if resid > tol:
            raise InvalidInput(f"product is not associative on the basis "
                               f"(residual {resid:.2e})")

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

    def unit(self, tol: float = DEFAULT_TOL):
        """The two-sided unit, or None."""
        d = self.dim
        eye = np.eye(d, dtype=np.complex128)
        lhs = np.concatenate([
            self.table.reshape(d, -1).T,                      # e as left factor
            np.einsum("ijl->jil", self.table).reshape(d, -1).T,
        ])
        rhs = np.concatenate([eye.T.ravel(), eye.T.ravel()])
        x = mk.solve_linear(lhs, rhs, tol)
        return x

    def random_element(self, rng) -> np.ndarray:
        return random_coords(rng, self.dim)


def assoc_of_embedding(e: StandardEmbedding, tol: float = DEFAULT_TOL) -> AssocAlgebra:
    """Structure table (the embedding's cached one) and involution of a
    standard embedding; ``tol`` is the associativity check's."""
    star = e.star_coords(np.eye(e.dim, dtype=np.complex128))  # row i = coords of (e_i)*
    alg = AssocAlgebra(table=e.table, star=star.T)
    alg.validate(max(tol, 1e-8))
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


def _solve_quasi_inverse(left_map, right_map, x, tol):
    """Shared solve of (I - L)y = x, (I - R)y = x with residual gating."""
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
    if rel <= tol:
        return QuasiInverseCertificate(y=y, residuals=(r1, r2), scale=scale)
    if rel <= BORDERLINE_TOL:
        warnings.warn(f"quasi-inverse solve is borderline (residual {rel:.2e})",
                      BorderlineWarning, stacklevel=3)
    return None


def quasi_inverse_assoc(a: AssocAlgebra, x, u, tol: float = DEFAULT_TOL):
    """Quasi-inverse of x in the homotope with product (p, q) -> p u q."""
    x = np.asarray(x, dtype=np.complex128).ravel()
    u = np.asarray(u, dtype=np.complex128).ravel()
    left = a.left_op(a.mul(x, u))       # y -> x u y
    right = a.right_op(a.mul(u, x))     # y -> y u x
    return _solve_quasi_inverse(left, right, x, tol)


def quasi_inverse_ternary(m: TernarySpace, x, u, tol: float = DEFAULT_TOL):
    """Quasi-inverse of x in the ternary homotope: y - x = [xuy] = [yux]."""
    xv, uv = as_coords(m, x), as_coords(m, u)
    d = m.dim
    eye = np.eye(d, dtype=np.complex128)
    left = _triple_coords(m, np.broadcast_to(xv, (d, d)),
                          np.broadcast_to(uv, (d, d)), eye).T
    right = _triple_coords(m, eye, np.broadcast_to(uv, (d, d)),
                           np.broadcast_to(xv, (d, d))).T
    return _solve_quasi_inverse(left, right, xv, tol)


# ---------------------------------------------------------------------------
# Radicals


def jacobson_radical(a: AssocAlgebra, tol: float = DEFAULT_TOL) -> np.ndarray:
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
    rad = mk.nullspace(crit, tol)
    if rad.shape[1] == 0:
        return rad

    _audit_ideal(a, rad)
    _certify_nilpotent(a, rad, tol)
    comp = mk.nullspace(rad.conj().T, tol)
    quotient = _quotient_algebra(a, comp)
    inner = jacobson_radical(quotient, tol)
    if inner.shape[1] != 0:
        raise DecompositionInconclusive(
            "radical is not idempotent: quotient still has a radical")
    return rad


def _audit_ideal(a: AssocAlgebra, span: np.ndarray, tol: float = 1e-8):
    eye = np.eye(a.dim, dtype=np.complex128)
    for s in mk.span_chunks(span, 2 * a.dim):
        resid = mk.span_residual(np.concatenate([a.mul(eye, s[:, None]),
                                                 a.mul(s[:, None], eye)]), span)
        if resid > tol:
            raise DecompositionInconclusive(
                f"computed radical is not an ideal (residual {resid:.2e})")


def _certify_nilpotent(a: AssocAlgebra, span: np.ndarray, tol: float):
    """DecompositionInconclusive unless the ideal N spanned by the
    orthonormal columns is nilpotent.

    N_1 = N and N_{k+1} = N_k N must lose rank at every step until rank
    0; N_{k+1} lies in N_k, so an unchanged rank is a fixed point.  Ranks
    are read on table / |table|max, where products of unit vectors are
    of order one, so singular values up to tol are rounding at any scale
    (relative to the largest one, a zero power's rounding would count).
    """
    d = a.dim
    t = (a.table / mk.unit_scale(a.table)).reshape(d, d * d)
    power, step = span, 1
    while power.shape[1]:
        # [i, j]: the product of power column i and span column j
        prods = span.T @ (power.T @ t).reshape(-1, d, d)
        u, s, _ = np.linalg.svd(prods.reshape(-1, d).T, full_matrices=False)
        nxt = u[:, :int(np.sum(s > tol))]
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
    """Basis (columns, base coordinates) of Rad A ∩ M from a basis of Rad A
    and the coordinate indices of M."""
    return mk.colspace(_slice_intersection(rad, m_idx)[m_idx])


def ternary_radical(m: TernarySpace, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Basis (columns, base coordinates) of the radical of a ternary ring.

    Computed as Rad A(M) ∩ M via the Peirce corner of the embedding;
    structure presentations route through the abstract envelope built
    from the structure constants.  The corner needs no audit of its
    own: for x in Rad A ∩ M every x ū lies in the certified Rad A, so it
    is quasi-invertible, and by the corner equivalence (see
    ``check_corner_qi_equivalence``) x is ternary quasi-invertible in
    every homotope.
    """
    if m.dim == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    if m.is_block:
        e = build_embedding(m, tol)
        alg, m_idx = assoc_of_embedding(e, tol), e.corner_indices["M"]
    else:
        alg, m_idx = structure_envelope(m, tol)
    return m_corner(jacobson_radical(alg, tol), m_idx)


# ---------------------------------------------------------------------------
# Abstract envelope from structure constants


def structure_envelope(m: TernarySpace, tol: float = DEFAULT_TOL):
    """Faithful associative envelope of a structure-constants space.

    Elements are (A, f, gbar, B) with A spanned by pairs of left
    multiplication operators, B by right multiplication pairs, and the
    bar slot stored in conjugated coordinates so every product rule is
    bilinear.  Returns the algebra and the coordinate indices of the
    embedded copy of M.
    """
    c = m.structure.c
    d = m.dim
    # left operators: L(b_i, b_j)[l, k] = c[i, j, k, l]
    lten = np.einsum("ijkl->ijlk", c)
    # right operators: R(b_j, b_k)[l, i] = c[i, j, k, l]
    rten = np.einsum("ijkl->jkli", c)

    l_pairs, r_pairs = operator_pairs(lten), operator_pairs(rten)
    l_basis = mk.colspace(l_pairs.reshape(d * d, -1).T, tol)   # columns: vec(P) ++ vec(Ptilde)
    r_basis = mk.colspace(r_pairs.reshape(d * d, -1).T, tol)
    dk, dr = l_basis.shape[1], r_basis.shape[1]
    n = dk + d + d + dr
    sl_a = slice(0, dk)
    sl_f = slice(dk, dk + d)
    sl_g = slice(dk + d, dk + 2 * d)
    sl_b = slice(dk + 2 * d, n)

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
    # the eight nonzero corner blocks of the product of basis elements
    table = np.zeros((n, n, n), dtype=np.complex128)
    aa = np.stack([a1[:, None] @ a1, a2 @ a2[:, None]], axis=2)
    table[sl_a, sl_a, sl_a] = coords(l_basis, aa.reshape(dk, dk, 2 * d * d), "A")
    table[sl_f, sl_g, sl_a] = coords(l_basis, l_pairs, "A")        # f s'
    bb = np.stack([b1 @ b1[:, None], b2[:, None] @ b2], axis=2)
    table[sl_b, sl_b, sl_b] = coords(r_basis, bb.reshape(dr, dr, 2 * d * d), "B")
    table[sl_g, sl_f, sl_b] = coords(r_basis, r_pairs, "B")        # s f'
    table[sl_a, sl_f, sl_f] = a1.transpose(0, 2, 1)                # a1 f'
    table[sl_f, sl_b, sl_f] = b1.transpose(2, 0, 1)                # b1' f
    table[sl_g, sl_a, sl_g] = a2.transpose(2, 0, 1)                # a2' s
    table[sl_b, sl_g, sl_g] = b2.transpose(0, 2, 1)                # b2 s'
    alg = AssocAlgebra(table=table)
    alg.validate(max(tol, 1e-8))
    return alg, np.arange(dk, dk + d)


# ---------------------------------------------------------------------------
# Lemma checkers


def check_corner_qi_equivalence(m: TernarySpace, x=None, u=None,
                                trials: int = 1, seed: int = 0,
                                tol: float = DEFAULT_TOL,
                                embedding: StandardEmbedding = None,
                                algebra: AssocAlgebra = None) -> bool:
    """Ternary quasi-invertibility matches the embedded corner element's.

    With explicit x, u the single pair is checked; otherwise ``trials``
    random pairs are drawn.  The corner element sits in the M slot and
    the homotope element carries u in the Mbar slot.
    """
    e = embedding if embedding is not None else build_embedding(m, tol)
    alg = algebra if algebra is not None else assoc_of_embedding(e, tol)
    rng = np.random.default_rng(seed)
    pairs = ([(as_coords(m, x), as_coords(m, u))] if x is not None
             else [(m.random_element(rng).coords, m.random_element(rng).coords)
                   for _ in range(trials)])
    for xv, uv in pairs:
        tern = quasi_inverse_ternary(m, xv, uv, tol) is not None
        xhat = e.embed_base(xv).coords
        uhat = e.embed_base_conj(uv).coords
        assoc = quasi_inverse_assoc(alg, xhat, uhat, tol) is not None
        if tern != assoc:
            return False
    return True


def check_symmetry_principle(a: AssocAlgebra, x, y,
                             tol: float = DEFAULT_TOL) -> bool:
    """qi(x in A_y) holds iff qi(y in A_x) holds."""
    x = np.asarray(x, dtype=np.complex128).ravel()
    y = np.asarray(y, dtype=np.complex128).ravel()
    fwd = quasi_inverse_assoc(a, x, y, tol) is not None
    bwd = quasi_inverse_assoc(a, y, x, tol) is not None
    return fwd == bwd


def check_shifting_principle(a: AssocAlgebra, phi, psi, x, y,
                             tol: float = DEFAULT_TOL,
                             validate: bool = True) -> bool:
    """qi(x in A_{psi(y)}) holds iff qi(phi(x) in A_y) holds.

    ``phi`` and ``psi`` are linear self-maps given as matrices; they
    must satisfy phi(p) q phi(r) = phi(p psi(q) r) and the mirrored
    identity on the basis, else PreconditionFailed.
    """
    phi = np.asarray(phi, dtype=np.complex128)
    psi = np.asarray(psi, dtype=np.complex128)
    if validate:
        _validate_shifting_maps(a, phi, psi, tol=1e-8)
    x = np.asarray(x, dtype=np.complex128).ravel()
    y = np.asarray(y, dtype=np.complex128).ravel()
    fwd = quasi_inverse_assoc(a, x, psi @ y, tol) is not None
    bwd = quasi_inverse_assoc(a, phi @ x, y, tol) is not None
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


def radical_is_star_invariant(a: AssocAlgebra, rad: np.ndarray,
                              tol: float = 1e-8) -> bool:
    """The radical of a *-algebra is self-adjoint; check on the basis."""
    if a.star is None:
        raise PreconditionFailed("algebra carries no involution")
    if rad.shape[1] == 0:
        return True
    starred = a.star @ rad.conj()
    _, resid = mk.project_columns(rad, starred)
    return resid <= tol * max(1.0, float(np.abs(starred).max(initial=0.0)))
