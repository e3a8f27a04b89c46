"""Dense complex-matrix primitives every other module consumes.

Matrices are plain ``numpy.ndarray`` values with dtype ``complex128`` in
row-major order; this module pins down the numeric contracts (operator
norms, the Hilbert-Schmidt form, Hermitian spectra, residual-tested
linear solves) without any algebraic semantics on top.

Default tolerances are 1e-9 relative and can be overridden per call;
dimensions are expected to stay in the dozens, so double precision is
ample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NotHermitian, ShapeError

DEFAULT_TOL = 1e-9

#: A complex matrix is just a 2-D complex128 ndarray; ``as_cmatrix``
#: is the validating coercion used at API boundaries.
CMatrix = np.ndarray


def as_cmatrix(a) -> np.ndarray:
    """Coerce ``a`` to a finite 2-D complex128 array.

    Raises InvalidInput for non-finite entries or wrong dimensionality.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise InvalidInput(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise InvalidInput("matrix has non-finite entries")
    return m


def op_norm(a) -> float:
    """Operator norm (largest singular value) of a complex matrix."""
    m = as_cmatrix(a)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product ``tr(B* A)``.

    Linear in the first argument, conjugate-linear in the second.
    """
    ma, mb = as_cmatrix(a), as_cmatrix(b)
    if ma.shape != mb.shape:
        raise ShapeError(f"shape mismatch {ma.shape} vs {mb.shape}")
    return complex(np.vdot(mb, ma))


@dataclass(frozen=True)
class HermEigResult:
    """Spectral data of a Hermitian matrix.

    ``eigenvalues`` ascend; ``eigenvectors`` holds the matching
    orthonormal columns, so ``H = V diag(w) V*`` up to 1e-10 relative.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def herm_eig(h, tol: float = DEFAULT_TOL) -> HermEigResult:
    """Eigendecomposition of a Hermitian matrix, with residual guards."""
    m = as_cmatrix(h)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"matrix is not square: {m.shape}")
    scale = op_norm(m)
    if op_norm(m - m.conj().T) > tol * max(scale, 1e-300) and scale > 0:
        raise NotHermitian("matrix deviates from Hermitian beyond tolerance")
    sym = (m + m.conj().T) / 2.0
    w, v = np.linalg.eigh(sym)
    recon = v @ np.diag(w) @ v.conj().T
    if scale > 0 and op_norm(m - recon) > 1e-10 * scale:
        raise NotHermitian("reconstruction residual exceeds contract")
    return HermEigResult(eigenvalues=w, eigenvectors=v)


def solve_linear(a, b, tol: float = DEFAULT_TOL):
    """Least-squares solve ``A x = b`` with a residual acceptance test.

    Returns ``x`` when ``||Ax - b|| <= tol * (||A|| ||x|| + ||b||)``,
    otherwise None.  No exact rank decisions are made; the residual is
    the only criterion.
    """
    m = as_cmatrix(a)
    vec = np.asarray(b, dtype=np.complex128).ravel()
    if m.shape[0] != vec.shape[0]:
        raise ShapeError(f"incompatible system: {m.shape} vs {vec.shape}")
    x = np.linalg.lstsq(m, vec, rcond=None)[0]
    resid = float(np.linalg.norm(m @ x - vec))
    bound = tol * (op_norm(m) * float(np.linalg.norm(x)) + float(np.linalg.norm(vec)))
    return x if resid <= bound else None


# ---------------------------------------------------------------------------
# Subspace helpers (coordinates live in columns).


def colspace(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the column space of ``a``."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or 0 in m.shape:
        return np.zeros((m.shape[0] if m.ndim == 2 else 0, 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((m.shape[0], 0), dtype=np.complex128)
    rank = int(np.sum(s > tol * s[0]))
    return u[:, :rank]


def nullspace(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the right nullspace of ``a``."""
    m = np.asarray(a, dtype=np.complex128)
    if m.size == 0:
        return np.eye(m.shape[1], dtype=np.complex128)
    # a tall matrix's thin Vᴴ is already square; only a wide one needs the full Vᴴ
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    if s.size == 0 or s[0] == 0.0:
        return np.eye(m.shape[1], dtype=np.complex128)
    rank = int(np.sum(s > tol * s[0]))
    return vh[rank:].conj().T


def subspace_union(a, b, tol: float = DEFAULT_TOL) -> np.ndarray:
    if a.shape[1] == 0:
        return colspace(b, tol)
    if b.shape[1] == 0:
        return colspace(a, tol)
    return colspace(np.hstack([a, b]), tol)


def subspace_intersect(a, b, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of span(a) ∩ span(b); inputs are column bases."""
    if a.shape[1] == 0 or b.shape[1] == 0:
        return np.zeros((a.shape[0], 0), dtype=np.complex128)
    stacked = np.hstack([a, -b])
    ns = nullspace(stacked, tol)
    if ns.shape[1] == 0:
        return np.zeros((a.shape[0], 0), dtype=np.complex128)
    return colspace(a @ ns[: a.shape[1], :], tol)


def subspace_distance(a, b) -> float:
    """Gap ``||P_a - P_b||_2`` between spans of two orthonormal column sets."""
    pa = a @ a.conj().T
    pb = b @ b.conj().T
    return op_norm(pa - pb)


def project_columns(basis: np.ndarray, v: np.ndarray):
    """Coordinates of vector(s) ``v`` in the column span of ``basis``.

    Returns ``(coords, residual)`` where residual is the worst 2-norm
    distance from span(basis).  ``v`` may be a vector or a matrix of
    column vectors.
    """
    if basis.shape[1] == 0:
        r = float(np.linalg.norm(v)) if np.asarray(v).size else 0.0
        coords = np.zeros((0,) + np.asarray(v).shape[1:], dtype=np.complex128)
        return coords, r
    coords, *_ = np.linalg.lstsq(basis, v, rcond=None)
    resid = np.linalg.norm(basis @ coords - v, axis=0)
    return coords, float(np.max(resid)) if np.ndim(resid) else float(resid)


#: Product rows formed per call when the products of a basis with a span are
#: checked or collected; bounds the temporaries of desk-scale spans.
SPAN_CHUNK_ROWS = 4096


def span_chunks(span: np.ndarray, rows_per_column: int):
    """The span's columns as rows, in blocks of about SPAN_CHUNK_ROWS products."""
    step = max(1, SPAN_CHUNK_ROWS // max(rows_per_column, 1))
    for j in range(0, span.shape[1], step):
        yield span[:, j:j + step].T


def span_residual(prods: np.ndarray, q: np.ndarray) -> float:
    """Worst residual of product groups (group, n, d) against span(q).

    ``q`` holds orthonormal columns.  Each group's max-abs projection
    residual is relative to max(1, that group's largest entry).
    """
    resid = np.abs(prods - (prods @ q.conj()) @ q.T).max(axis=(1, 2))
    scale = np.maximum(1.0, np.abs(prods).max(axis=(1, 2)))
    return float((resid / scale).max())
