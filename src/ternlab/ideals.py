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
from functools import cached_property

import numpy as np

from . import matkernel as mk
from .embedding import (
    CORNERS,
    PeirceCorners,
    StandardEmbedding,
    _assoc_ideal_residual,
    _ternary_ideal_residual,
)
from .errors import InvalidInput, NotAnIdeal, ShapeError
from .ternary import (
    AXIOM_TOL,
    TernarySpace,
    _empty_space,
    _ideal_products,
    _restricted_products,
    _triple_coords,  # noqa: F401  perfbench/test_perfbench.py checks this binding
    as_coords,
    zettl_decompose,
)


@dataclass(frozen=True)
class TernaryIdeal:
    """A subspace closed under [MMI], [IMM] and [MIM]; a basis whose
    columns do not have ``parent.dim`` entries raises ShapeError."""

    parent: TernarySpace
    basis: np.ndarray  # columns, coordinates in the parent basis

    def __post_init__(self):
        b = mk.colspace(np.asarray(self.basis, dtype=np.complex128))
        if b.shape[0] != self.parent.dim:
            raise ShapeError(f"basis has {b.shape[0]} rows, the space {self.parent.dim} dimensions")
        b.flags.writeable = False
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def residual(self) -> float:
        """The ternary ideal residual of the basis (``_ternary_ideal_residual``),
        computed once; ``generated_ideal`` records it from its closing round."""
        return _ternary_ideal_residual(self.parent, self.basis)


def is_ideal(m: TernarySpace, span) -> bool:
    """All three containments [MMI], [IMM], [MIM] hold within AXIOM_TOL.

    The middle containment is checked explicitly even though it is
    automatic in an exact C*-ternary ring; numerically non-closed
    inputs should not get a free pass.  The products are divided by the
    data scale (see ``_ideal_products``), so the verdict is scale-free.
    A ``TernaryIdeal`` of m is judged by its ``residual``.
    """
    if isinstance(span, TernaryIdeal):
        if _same_space(span.parent, m):
            return span.residual <= AXIOM_TOL
        span = span.basis
    return _ternary_ideal_residual(m, np.asarray(span, dtype=np.complex128)) <= AXIOM_TOL


def generated_ideal(m: TernarySpace, gens) -> TernaryIdeal:
    """Smallest ideal containing the generators (fixed point of products).

    Each round adds the basis products of the span, so the span grows
    or the loop stops, within ``m.dim`` rounds; they are divided by the data
    scale (see ``_ideal_products``), so the ideal is scale-free.

    A chunk's products P meet the current basis Q (k orthonormal columns)
    through their residual R = P - Q(QᴴP) first.  [Q | P] = [Q | QQᴴP] +
    [0 | R], the first term of rank k, so by Weyl's inequality
    σ_{k+1}([Q | P]) <= ||R||_2 <= ||R||_F, while σ_k >= 1 and
    σ_1 <= ||[Q | P]||_F.  With tol = ``matkernel.DEFAULT_TOL`` (1e-9), when
    ||R||_F <= tol and tol ||[Q | P]||_F < 1, ``colspace``'s rank rule
    (σ_i > tol σ_1) would keep exactly k columns, so the chunk is skipped;
    otherwise Q becomes colspace([Q | P]).

    A closing round that skips every chunk has formed the products of the
    returned span and their residuals, so it records the ideal's ``residual``
    in ``span_residual``'s measure (per pattern and span row).
    """
    gens = gens if isinstance(gens, (list, tuple)) else np.atleast_2d(gens)
    cols = [as_coords(m, g) for g in gens]
    span = mk.colspace(np.stack(cols, axis=1) if cols else
                       np.zeros((m.dim, 0), dtype=np.complex128))
    d, tol = m.dim, mk.DEFAULT_TOL
    closing = None  # the round's residual while it has merged no chunk
    while 0 < span.shape[1] < d:
        grown, closing = span, 0.0
        for s in mk.span_chunks(span, 3 * d * d):
            prods = _ideal_products(m, s).reshape(-1, d).T
            resid = prods - grown @ (grown.conj().T @ prods)
            frob = np.sqrt(grown.shape[1] + np.linalg.norm(prods) ** 2)
            if np.linalg.norm(resid) > tol or tol * frob >= 1.0:
                grown, closing = mk.colspace(np.hstack([grown, prods])), None
            elif closing is not None:
                # a group is one pattern and one row: d * d product columns
                top = [np.abs(a).reshape(d, -1, d * d).max(axis=(0, 2)) for a in (resid, prods)]
                closing = max(closing, float((top[0] / np.maximum(1.0, top[1])).max()))
        if grown.shape[1] == span.shape[1]:
            break
        span = grown
    ideal = TernaryIdeal(parent=m, basis=span)
    if closing is not None:
        vars(ideal)["residual"] = closing  # fills the cached property
    return ideal


def embed_ideal(e: StandardEmbedding, ideal: TernaryIdeal) -> np.ndarray:
    """The ideal L(I) ⊕ I ⊕ Ibar ⊕ R(I) inside the embedding.

    I sits in the M slot and Ibar in the Mbar slot; L(I) = span{x y*}
    and R(I) = span{x* y} are their products in both orders, each in its
    own corner.  Returns the four parts side by side, an orthonormal column
    basis in embedding coordinates, once I passes ``is_ideal`` and the parts
    pass the graded product check ``_assoc_ideal_residual``, both within
    AXIOM_TOL, and L(I) and R(I) their corners' span checks at DEFAULT_TOL
    (NotAnIdeal otherwise).  An ideal of another space than ``e.base`` raises
    NotAnIdeal.
    """
    if not _same_space(ideal.parent, e.base):
        raise NotAnIdeal("ideal does not belong to the embedded space")
    if not is_ideal(e.base, ideal):
        raise NotAnIdeal("subspace fails the ternary ideal containments")
    idx = e.corner_indices
    placed = np.zeros((2, ideal.dim, e.dim), dtype=np.complex128)
    placed[0][:, idx["M"]] = ideal.basis.T
    placed[1][:, idx["Mbar"]] = ideal.basis.T.conj()
    parts = {"M": placed[0].T, "Mbar": placed[1].T}
    try:
        for corner, (x, y) in (("L", placed), ("R", placed[::-1])):
            prods = e.mul_coords(x[:, None], y[None])[..., idx[corner]]
            q = mk.colspace(prods.reshape(-1, len(idx[corner])).T)
            parts[corner] = np.zeros((e.dim, q.shape[1]), dtype=np.complex128)
            parts[corner][idx[corner]] = q
    except InvalidInput as exc:
        raise NotAnIdeal(f"L(I) or R(I) escapes its corner span: {exc}") from None
    corners = PeirceCorners(*(parts[c] for c in CORNERS))
    resid = _assoc_ideal_residual(e, corners)
    if resid > AXIOM_TOL:
        raise NotAnIdeal(f"subspace fails the ideal check (residual {resid:.2e})")
    return np.hstack(corners.parts)


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


def quotient(m: TernarySpace, ideal: TernaryIdeal) -> TernarySpace:
    """The quotient ternary ring on an orthogonal complement of the ideal.

    The coset product is well defined exactly when [J M M], [M J M] and
    [M M J] lie in J, which ``is_ideal`` checks first (NotAnIdeal
    otherwise); the induced structure constants are then validated as a
    ternary ring at DEFAULT_TOL.
    """
    if not _same_space(ideal.parent, m):
        raise NotAnIdeal("ideal does not belong to this space")
    if not is_ideal(m, ideal):
        raise NotAnIdeal("subspace fails the ternary ideal containments")
    comp = mk.nullspace(ideal.basis.conj().T)
    if comp.shape[1] == 0:
        return _empty_space()
    # coset coordinates: [J | C] is unitary, so the C part is v @ conj(C)
    c = _restricted_products(m, comp) @ comp.conj()
    return TernarySpace.from_structure(c)


def quotient_zettl_dims(m: TernarySpace, ideal: TernaryIdeal) -> tuple:
    """Expected (plus, minus) dimensions of the quotient's splitting; an
    ideal of another space than m raises NotAnIdeal."""
    if not _same_space(ideal.parent, m):
        raise NotAnIdeal("ideal does not belong to this space")
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
    deterministic.  An ideal of another space than m raises NotAnIdeal.
    """
    if not _same_space(ideal.parent, m):
        raise NotAnIdeal("ideal does not belong to this space")
    m._need_blocks("quotient_norm")
    fv = as_coords(m, f)
    j = ideal.basis
    nj = j.shape[1]

    # block-diagonal realizations of f and of J's basis, one batched call
    parts = m.realize_batch(np.vstack([fv, j.T]))
    mats = np.zeros((nj + 1, sum(p.shape[1] for p in parts), sum(p.shape[2] for p in parts)),
                    dtype=np.complex128)
    r = c = 0
    for p in parts:
        mats[:, r:r + p.shape[1], c:c + p.shape[2]] = p
        r, c = r + p.shape[1], c + p.shape[2]
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
