"""Ideals and quotients of C*-ternary rings.

Quotients are represented by structure constants on a Hilbert-Schmidt
orthogonal complement of the ideal.  Quotient norms come in closed
form: semisimplicity gives a complementary ideal K with M/J = K
isometrically, so the coset norm is the norm of f with its
Hilbert-Schmidt projection onto J removed.  That upper bound is paired
with a dual lower bound, so the gap is always reported rather than
hidden.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import matkernel as mk
from .embedding import StandardEmbedding, _ternary_ideal_residual, peirce_split
from .errors import InvalidInput, NotAnIdeal
from .ternary import (
    StructureConstants,
    TernarySpace,
    _ideal_products,
    _triple_coords,
    as_coords,
    zettl_decompose,
)

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class TernaryIdeal:
    """A subspace closed under [MMI], [IMM] and [MIM]."""

    parent: TernarySpace
    basis: np.ndarray  # columns, coordinates in the parent basis

    def __post_init__(self):
        b = mk.colspace(np.asarray(self.basis, dtype=np.complex128))
        b.flags.writeable = False
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def is_ideal(m: TernarySpace, span, tol: float = DEFAULT_TOL) -> bool:
    """All three containments [MMI], [IMM], [MIM] hold within tolerance.

    The middle containment is checked explicitly even though it is
    automatic in an exact C*-ternary ring; numerically non-closed
    inputs should not get a free pass.
    """
    return _ternary_ideal_residual(m, np.asarray(span, dtype=np.complex128)) <= tol


def generated_ideal(m: TernarySpace, gens, tol: float = 1e-9) -> TernaryIdeal:
    """Smallest ideal containing the generators (fixed point of products).

    Each round adds the basis products of the span, so the span grows
    or the loop stops, within ``m.dim`` rounds.
    """
    gens = gens if isinstance(gens, (list, tuple)) else np.atleast_2d(gens)
    cols = [as_coords(m, g) for g in gens]
    span = mk.colspace(np.stack(cols, axis=1) if cols else
                       np.zeros((m.dim, 0), dtype=np.complex128), tol)
    d = m.dim
    while 0 < span.shape[1] < d:
        grown = span
        for s in mk.span_chunks(span, 3 * d * d):
            prods = _ideal_products(m, s).reshape(-1, d)
            grown = mk.colspace(np.hstack([grown, prods.T]), tol)
        if grown.shape[1] == span.shape[1]:
            break
        span = grown
    return TernaryIdeal(parent=m, basis=span)


def embed_ideal(e: StandardEmbedding, ideal: TernaryIdeal,
                tol: float = DEFAULT_TOL) -> np.ndarray:
    """The ideal L(I) ⊕ I ⊕ Ibar ⊕ R(I) inside the embedding.

    I sits in the M slot and Ibar in the Mbar slot; L(I) = span{x y*}
    and R(I) = span{x* y} are their products in both orders.  Returns an
    orthonormal column basis in embedding coordinates, verified as an
    associative ideal by ``peirce_split`` (NotAnIdeal otherwise, so a
    subspace that is no ternary ideal is rejected there); the Peirce
    corners of the result are exactly the four constituents.
    """
    placed = np.zeros((2, ideal.dim, e.dim), dtype=np.complex128)
    placed[0][:, e.corner_indices["M"]] = ideal.basis.T
    placed[1][:, e.corner_indices["Mbar"]] = ideal.basis.T.conj()
    try:
        lr = [e.mul_coords(x[:, None], y[None], tol).reshape(-1, e.dim)
              for x, y in (placed, placed[::-1])]
    except InvalidInput as exc:
        raise NotAnIdeal(f"L(I) or R(I) escapes its corner span: {exc}") from None
    span = mk.colspace(np.concatenate([*placed, *lr]).T)
    corners = peirce_split(e, span, tol=max(tol, 1e-8))
    expect = (span.shape[1] - 2 * ideal.dim) == corners.dims[0] + corners.dims[3]
    if not (corners.dims[1] == corners.dims[2] == ideal.dim and expect):
        raise NotAnIdeal(f"Peirce corners {corners.dims} do not match the ideal")
    return span


def _same_space(p: TernarySpace, m: TernarySpace) -> bool:
    """Whether p is m or presents the same space: equal blocks, or equal c."""
    if p is m:
        return True
    if p.is_block != m.is_block:
        return False
    if not m.is_block:
        return np.array_equal(p.structure.c, m.structure.c)
    return len(p.blocks) == len(m.blocks) and all(
        a.sign == b.sign and np.array_equal(a.stack, b.stack)
        for a, b in zip(p.blocks, m.blocks))


def quotient(m: TernarySpace, ideal: TernaryIdeal,
             tol: float = DEFAULT_TOL) -> TernarySpace:
    """The quotient ternary ring on an orthogonal complement of the ideal.

    The coset product is well defined exactly when [J M M], [M J M] and
    [M M J] lie in J, which ``is_ideal`` checks first (NotAnIdeal
    otherwise); the induced structure constants are then validated as a
    ternary ring.
    """
    if not _same_space(ideal.parent, m):
        raise NotAnIdeal("ideal does not belong to this space")
    if not is_ideal(m, ideal.basis, max(tol, 1e-8)):
        raise NotAnIdeal("subspace fails the ternary ideal containments")
    comp = mk.nullspace(ideal.basis.conj().T)
    if comp.shape[1] == 0:
        return TernarySpace(structure=StructureConstants(
            0, np.zeros((0, 0, 0, 0), dtype=np.complex128)))
    # coset coordinates: [J | C] is unitary, so the C part is v @ conj(C)
    cols = comp.T
    c = _triple_coords(m, cols[:, None, None], cols[None, :, None], cols[None, None]) @ comp.conj()
    return TernarySpace.from_structure(c, validate=True, tol=max(tol, 1e-8))


def quotient_zettl_dims(m: TernarySpace, ideal: TernaryIdeal) -> tuple:
    """Expected (plus, minus) dimensions of the quotient's splitting."""
    split = zettl_decompose(m)
    jp = mk.subspace_intersect(ideal.basis, split.plus_coords)
    jm = mk.subspace_intersect(ideal.basis, split.minus_coords)
    return (split.plus_coords.shape[1] - jp.shape[1],
            split.minus_coords.shape[1] - jm.shape[1])


# ---------------------------------------------------------------------------
# Quotient norm


@dataclass(frozen=True)
class QuotientNormResult:
    upper: float
    lower: float

    @property
    def gap(self) -> float:
        return self.upper - self.lower

    def to_dict(self):
        return {"upper": self.upper, "lower": self.lower, "gap": self.gap}


def quotient_norm(m: TernarySpace, ideal: TernaryIdeal, f,
                  seed: int = 0) -> QuotientNormResult:
    """Certified bounds on the coset norm inf_{j in J} ||f - j||.

    A C*-ternary ring is semisimple, so J has a complementary ideal K
    with j* k = 0 = j k*; K is Hilbert-Schmidt orthogonal to J and
    ||j + k|| = max(||j||, ||k||), hence ||f + J|| = ||f_K||.  The upper
    bound is the norm of f with its HS projection onto the realized
    matrices of J removed, an explicit coset member, so it bounds the
    coset norm from above for any subspace.  The lower bound evaluates
    a dual certificate at that coset: a unit-trace-norm functional
    vanishing on J.  ``seed`` is accepted and unused; the result is
    deterministic.
    """
    m._need_blocks("quotient_norm")
    fv = as_coords(m, f)
    j = ideal.basis
    nj = j.shape[1]

    # block-diagonal realizations of f and of J's basis, one batched call
    mats = scipy.linalg.block_diag(*m.realize_batch(np.vstack([fv, j.T])))
    fmat, jmats = mats[0], mats[1:]
    if nj == 0:
        n = mk.op_norm(fmat)
        return QuotientNormResult(upper=n, lower=n)
    qj = mk.colspace(jmats.reshape(nj, -1).T)

    def drop_j(mat):
        flat = mat.ravel()
        return (flat - qj @ (qj.conj().T @ flat)).reshape(mat.shape)

    x = drop_j(fmat)
    upper = mk.op_norm(x)
    # dual certificate: top singular pair of the coset member, projected
    # onto the HS-orthocomplement of J, normalized in trace norm
    u, _, vh = np.linalg.svd(x)
    w = drop_j(np.outer(u[:, 0], vh[0, :]))  # u1 v1*, the subgradient of the norm
    tracenorm = float(np.sum(np.linalg.svd(w, compute_uv=False)))
    lower = 0.0
    if tracenorm > 1e-14:
        lower = max(0.0, float(np.real(np.vdot(w, fmat))) / tracenorm)
    return QuotientNormResult(upper=upper, lower=lower)
