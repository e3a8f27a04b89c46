"""Dense complex-matrix primitives every other module consumes, and the
sparse path of the exact basis sweeps.

Matrices are plain ``numpy.ndarray`` values with dtype ``complex128`` in
row-major order; this module pins down the numeric contracts (operator
norms, residual-tested linear solves, subspaces) without any algebraic
semantics on top.

Default tolerances are 1e-9 relative and can be overridden per call;
dimensions are expected to stay in the dozens, so double precision is
ample.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput, ShapeError

DEFAULT_TOL = 1e-9


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


def unit_scale(a) -> float:
    """Largest entry modulus of ``a``, or 1.0 when ``a`` is zero.

    A gate judged on ``a / unit_scale(a)`` does not depend on the scale of
    the data, and zero data stays zero.
    """
    return float(np.abs(a).max(initial=0.0)) or 1.0


def op_norm(a) -> float:
    """Operator norm (largest singular value) of a complex matrix."""
    m = as_cmatrix(a)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def solve_linear(a, b):
    """Least-squares solve ``A x = b`` with a residual acceptance test.

    Returns ``x`` when ``||Ax - b|| <= DEFAULT_TOL * (||A|| ||x|| + ||b||)``,
    otherwise None.  No exact rank decisions are made; the residual is
    the only criterion.
    """
    m = as_cmatrix(a)
    vec = np.asarray(b, dtype=np.complex128).ravel()
    if m.shape[0] != vec.shape[0]:
        raise ShapeError(f"incompatible system: {m.shape} vs {vec.shape}")
    x = np.linalg.lstsq(m, vec, rcond=None)[0]
    resid = float(np.linalg.norm(m @ x - vec))
    bound = DEFAULT_TOL * (op_norm(m) * float(np.linalg.norm(x)) + float(np.linalg.norm(vec)))
    return x if resid <= bound else None


# ---------------------------------------------------------------------------
# Subspace helpers (coordinates live in columns).


#: Smallest entry count of a wide matrix (at least twice as many columns as
#: rows) whose column space ``colspace`` reads from the R factor of its
#: transpose's QR.  Below it the extra QR call costs about what the Vᴴ it saves
#: does: 8 x 32 takes 71 us by the thin SVD and 76 us through R, 16 x 32
#: 157-167 us either way, 24 x 48 371 us and 318 us, 20 x 3616 9.8 ms and
#: 2.0 ms (2-core x86 VM, numpy 2.4 with OpenBLAS, one thread).
WIDE_QR_MIN_ENTRIES = 1024


def _svd(m, full_matrices):
    """SVD of a non-empty m; InvalidInput when m has a non-finite entry, which
    leaves a non-finite largest singular value or stops the SVD."""
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=full_matrices)
    except np.linalg.LinAlgError:
        raise InvalidInput("matrix has non-finite entries (the SVD did not converge)") from None
    if not np.isfinite(s[0]):
        raise InvalidInput("matrix has non-finite entries")
    return u, s, vh


def colspace(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the column space of a 2-D ``a``.

    The rank counts the singular values above ``tol`` times the largest.  A
    wide ``a`` (n >= 2m columns, m n >= WIDE_QR_MIN_ENTRIES) is factored
    through the m x m R factor of the QR of its transpose, Chan's R-SVD:
    a = Rᵀ Qᵀ, where Qᵀ has orthonormal rows, so a has the left singular
    vectors and singular values of Rᵀ, and the m x n Vᴴ that only the thin
    SVD of ``a`` would form is never computed.  Raises ShapeError for
    anything that is not 2-D and InvalidInput for non-finite entries.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D array of columns, got ndim={m.ndim}")
    if 0 in m.shape:
        return np.zeros((m.shape[0], 0), dtype=np.complex128)
    rows, cols = m.shape
    if cols >= 2 * rows and rows * cols >= WIDE_QR_MIN_ENTRIES:
        m = np.linalg.qr(m.T, mode="r").T
    u, s, _ = _svd(m, full_matrices=False)
    if s[0] == 0.0:
        return np.zeros((rows, 0), dtype=np.complex128)
    rank = int(np.sum(s > tol * s[0]))
    return u[:, :rank]


def nullspace(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the right nullspace of ``a``;
    InvalidInput for non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.size == 0:
        return np.eye(m.shape[1], dtype=np.complex128)
    # a tall matrix's thin Vᴴ is already square; only a wide one needs the full Vᴴ
    _, s, vh = _svd(m, full_matrices=m.shape[0] < m.shape[1])
    if s[0] == 0.0:
        return np.eye(m.shape[1], dtype=np.complex128)
    rank = int(np.sum(s > tol * s[0]))
    return vh[rank:].conj().T


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


#: Product rows formed per call when the products of a basis with a span are
#: checked or collected; bounds the temporaries of desk-scale spans.
SPAN_CHUNK_ROWS = 4096


def span_chunks(span: np.ndarray, rows_per_column: int):
    """The span's columns as rows, in blocks of about SPAN_CHUNK_ROWS products."""
    step = max(1, SPAN_CHUNK_ROWS // max(rows_per_column, 1))
    for j in range(0, span.shape[1], step):
        yield span[:, j:j + step].T


def span_residual(groups, q: np.ndarray) -> float:
    """Worst residual of product groups against span(q), over an iterable of
    (group, n, d) arrays such as one per ``span_chunks`` block.

    ``q`` holds r orthonormal columns.  Each group's max-abs projection
    residual is relative to max(1, that group's largest entry).  A row x has
    residual x - (x q̄) qᵀ = (x c̄) cᵀ for an orthonormal basis c of the
    complement of span(q); when 2r > d the complement is the narrower side, so
    c is formed once, from the QR of q (none for a full span, whose c is
    empty), and every group is read through it.  The groups are consumed
    even when c is empty, as forming them may raise.
    """
    d, r = q.shape
    c = None
    if r == d:
        c = np.zeros((d, 0), dtype=np.complex128)  # a full span leaves no residual
    elif 2 * r > d:
        c = np.linalg.qr(q, mode="complete")[0][:, r:]
    worst = 0.0
    for prods in groups:
        resid = (prods @ c.conj()) @ c.T if c is not None else prods - (prods @ q.conj()) @ q.T
        scale = np.maximum(1.0, np.abs(prods).max(axis=(1, 2)))
        worst = max(worst, float((np.abs(resid).max(axis=(1, 2)) / scale).max()))
    return worst


# ---------------------------------------------------------------------------
# Sparse basis sweeps.  A contraction of a tensor t with itself over one index is
# written as einsum subscripts over t's axes, "ijm,mkl->ijkl"; a "*" after a
# factor's subscripts conjugates that factor, as in "ukjm*,imvl->ijkuvl".

#: Dense multiply-adds that one sparse term costs when a basis sweep picks its
#: path: a term is joined, multiplied and summed by output index through numpy
#: calls, about 100-150 ns, while a dense multiply-add runs inside a BLAS matmul,
#: about 0.15-0.45 ns (2-core x86 VM, numpy 2.4 with OpenBLAS, d = 8 to 64).
SPARSE_TERM_COST = 256

#: Smallest dimension at which a dense structure tensor's validation tries the
#: associativity certificate before the exact O(d^7) sweep.  Below it the sweep
#: is the cheaper check: 0.02-0.81 ms against 0.25-0.96 ms for the certificate
#: on the scrambled tensors of d = 1 to 6, level at d = 6.  At d = 7 the
#: certificate takes 0.9 ms on a scrambled diag(7) against 1.9 ms for the
#: sweep, 2.1 ms against 1.9 ms on full(7, 1), and 3.9 ms against 2.0 ms on
#: full(1, 7), whose right-operator span has full rank 49; from d = 8 it wins,
#: 1.3-1.8 ms against 4.2 ms, and 14 ms against 19 ms on full(1, 10) (2-core
#: x86 VM, numpy 2.4 with OpenBLAS, one thread).
CERTIFICATE_MIN_DIM = 7


def _contraction(spec: str):
    lhs, out = spec.split("->")
    subs = lhs.split(",")
    a, b = (s.rstrip("*") for s in subs)
    (m,) = set(a) & set(b)
    return (a, b), tuple(s.endswith("*") for s in subs), m, out


def sparse_pays(t: np.ndarray, p: str, qs) -> bool:
    """Whether ``sparse_gap(t, p, qs)`` is the cheaper path for this t.

    The dense sweep spends d^(n+1) multiply-adds on each contraction with an
    n-index output and holds d^(n-1) entries per buffer.  The sparse path's exact
    term count, sum over m of nnz_a(m) nnz_b(m), comes from per-slice
    ``count_nonzero``; it must cost less at SPARSE_TERM_COST per term and never
    hold more terms than a dense buffer holds entries.  A t without zeros is
    answered from its total count alone.
    """
    if np.count_nonzero(t) == t.size:
        # every slice is full: one contraction alone has d^(2n-1) terms
        return False
    d, ndim = t.shape[0], t.ndim
    nnz = [np.count_nonzero(t, axis=tuple(k for k in range(ndim) if k != ax))
           for ax in range(ndim)]

    def terms(spec):
        (a, b), _, m, _ = _contraction(spec)
        return int(nnz[a.index(m)] @ nnz[b.index(m)])

    n = len(_contraction(p)[3])
    wp, wq = terms(p), [terms(q) for q in qs]
    held = wp + max(wq)
    total = len(wq) * wp + sum(wq)
    return held <= d ** (n - 1) and SPARSE_TERM_COST * total < (1 + len(wq)) * d ** (n + 1)


def sparse_gap(t: np.ndarray, p: str, qs) -> float:
    """max over q in qs of max |P - Q|, P and Q contractions of t with itself.

    Only t's nonzero entries enter: each contraction is a sorted join of the two
    factors' nonzeros on the summed index, with the products' output indices
    raveled in the order of the output subscripts and summed per index.
    """
    d = t.shape[0]
    nz = np.nonzero(t)
    vals = t[nz]

    def terms(spec):
        (a, b), conj, m, out = _contraction(spec)
        stride = {ch: d ** (len(out) - 1 - n) for n, ch in enumerate(out)}

        def factor(sub, cj):
            off = sum(nz[n] * stride[ch] for n, ch in enumerate(sub) if ch != m)
            return nz[sub.index(m)], off, vals.conj() if cj else vals

        ka, oa, va = factor(a, conj[0])
        kb, ob, vb = factor(b, conj[1])
        order = np.argsort(kb, kind="stable")
        count = np.bincount(kb, minlength=d)
        rep = count[ka]
        # a-entry e pairs with the count[ka[e]] b-entries whose summed index is ka[e]
        ia = np.repeat(np.arange(ka.size), rep)
        first = np.cumsum(count) - count
        ib = order[np.arange(ia.size) + np.repeat(first[ka] - (np.cumsum(rep) - rep), rep)]
        return oa[ia] + ob[ib], va[ia] * vb[ib]

    p_at, p_val = terms(p)
    worst = 0.0
    for q in qs:
        q_at, q_val = terms(q)
        idx, inv = np.unique(np.concatenate([p_at, q_at]), return_inverse=True)
        v = np.concatenate([p_val, -q_val])
        gap = np.hypot(np.bincount(inv, v.real, idx.size), np.bincount(inv, v.imag, idx.size))
        worst = max(worst, float(gap.max(initial=0.0)))
    return worst
