"""Algebra isomorphisms onto matrix algebras, built from a minimal left ideal.

A semisimple algebra over C is a sum of matrix algebras M_(n_k).  For a
generic x, each eigenspace of y -> y x is a minimal left ideal A e of dim
n_k; a simple A acts faithfully on it by left multiplication, and that
is the isomorphism onto M_n (Eberly, Comput. Complexity 1, 1991; Murota,
Kanno, Kojima & Kojima, JJIAM 27, 2010).  Solutions are not
canonicalized; only residuals and invertibility are contracted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matkernel as mk
from .errors import DecompositionInconclusive, PreconditionFailed
from .radical import AssocAlgebra, jacobson_radical, matrix_algebra
from .ternary import AXIOM_TOL

DET_TOL = 1e-10  # det_invertibility's cut on |ad + bc|


@dataclass(frozen=True)
class WedderburnSolution:
    """Coefficients of a numeric isomorphism onto M_n.

    ``phi`` maps basis coordinates to vec'd n-by-n matrices (column i is
    vec(phi(b_i))).
    """

    phi: np.ndarray
    target_dim: int
    residual: float
    condition: float

    def apply(self, x) -> np.ndarray:
        n = self.target_dim
        return (self.phi @ np.asarray(x, dtype=np.complex128)).reshape(n, n)


def solve_wedderburn(a: AssocAlgebra, target_dim: int, seed: int = 0) -> WedderburnSolution:
    """An invertible phi with phi(x) phi(y) = phi(xy) onto M_n, n = target_dim.

    The source must be a full matrix algebra, else PreconditionFailed.
    ``seed`` chooses the generic element that splits off a minimal left
    ideal; the unit maps to the identity.  DecompositionInconclusive
    flags a residual above AXIOM_TOL or a singular phi.
    """
    n, d = target_dim, a.dim
    if n < 1 or d != n * n:
        raise PreconditionFailed(f"source algebra has dim {d}, not that of M_{n} "
                                 f"({n * n}); it must be a full matrix algebra")
    rad = jacobson_radical(a)
    if rad.shape[1] != 0:
        raise PreconditionFailed(f"source algebra has a {rad.shape[1]}-dim radical")
    right = a.right_op(a.random_element(np.random.default_rng(seed)))
    lam = np.linalg.eigvals(right)[0]
    _, s, vh = np.linalg.svd(right - lam * np.eye(d))
    ideal_dim = int(np.sum(s <= AXIOM_TOL * mk.op_norm(right)))
    if ideal_dim != n:
        raise PreconditionFailed(f"source algebra is not simple: a minimal left ideal "
                                 f"has dim {ideal_dim}, not {n}; it must be M_{n}")
    q = vh[-n:].conj().T  # orthonormal basis of the left ideal A e
    phi = np.stack([(q.conj().T @ a.left_op(e) @ q).ravel() for e in np.eye(d)], 1)
    rep = verify_isomorphism(phi, a, matrix_algebra(n))
    if rep.max_residual > AXIOM_TOL or not rep.invertible:
        raise DecompositionInconclusive(f"isomorphism residual {rep.max_residual:.2e}, "
                                        f"condition {rep.condition:.2e}")
    return WedderburnSolution(phi=phi, target_dim=n, residual=rep.max_residual,
                              condition=rep.condition)


@dataclass(frozen=True)
class IsomorphismReport:
    max_residual: float
    condition: float
    invertible: bool


def verify_isomorphism(phi: np.ndarray, a: AssocAlgebra,
                       b: AssocAlgebra) -> IsomorphismReport:
    """Max residual of phi(x y) - phi(x) phi(y) over basis pairs."""
    phi = np.asarray(phi, dtype=np.complex128)
    e = b.dim
    # [i, j] holds phi(b_i b_j), then phi(b_i) phi(b_j)
    lhs = a.table @ phi.T
    rhs = phi.T @ (phi.T @ b.table.reshape(e, e * e)).reshape(-1, e, e)
    worst = float(np.abs(lhs - rhs).max(initial=0.0))
    s = np.linalg.svd(phi, compute_uv=False)
    cond = float(s[0] / s[-1]) if s.size and s[-1] > 0 else np.inf
    return IsomorphismReport(max_residual=worst, condition=cond,
                             invertible=bool(np.isfinite(cond) and cond < 1e8))


def star_obstruction(phi: np.ndarray, a: AssocAlgebra, b: AssocAlgebra):
    """Unit witness x attaining sup ||phi(x*) - phi(x)*|| over unit x, and that sup.

    x -> phi(x*) - phi(x)* is D conj(x) with D = phi a.star - b.star conj(phi),
    so the sup is the top singular value of D, attained at the top row of
    its V^H.  A genuine *-isomorphism would yield deviation 0; the twisted
    algebras admit none, so a positive deviation is expected there.
    """
    if a.star is None or b.star is None:
        raise PreconditionFailed("both algebras need involutions")
    phi = np.asarray(phi, dtype=np.complex128)
    _, s, vh = np.linalg.svd(phi @ a.star - b.star @ phi.conj())
    return vh[0], float(s[0])


# ---------------------------------------------------------------------------
# The 2x2 twisted algebra specifics


def m2_closed_form() -> np.ndarray:
    """The explicit isomorphism [a z; w b] -> [-a -z; w -b] as a matrix."""
    return np.diag(np.array([-1.0, -1.0, 1.0, -1.0], dtype=np.complex128))


def det_invertibility(a: AssocAlgebra, x) -> bool:
    """Invertibility of [[a,b],[c,d]] in the twisted 2x2 algebra.

    True iff |ad + bc| exceeds DET_TOL; cross-checked against
    two-sided solvability of x y = e = y x.
    """
    v = np.asarray(x, dtype=np.complex128).ravel()
    if v.shape != (4,):
        raise PreconditionFailed("element must have 4 coordinates [a, b, c, d]")
    det = v[0] * v[3] + v[1] * v[2]
    verdict = bool(abs(det) > DET_TOL)
    unit = a.unit()
    if unit is None:
        raise PreconditionFailed("algebra has no unit")
    left = np.linalg.lstsq(a.left_op(v), unit, rcond=None)[0]
    right = np.linalg.lstsq(a.right_op(v), unit, rcond=None)[0]
    solvable = (
        float(np.linalg.norm(a.mul(v, left) - unit)) <= 1e-8 * (1 + np.linalg.norm(left))
        and float(np.linalg.norm(a.mul(right, v) - unit)) <= 1e-8 * (1 + np.linalg.norm(right))
    )
    if solvable != verdict:
        raise DecompositionInconclusive(
            f"determinant test ({verdict}) disagrees with solvability ({solvable})")
    return verdict
