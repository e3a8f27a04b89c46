"""The chunked span-closure checks against per-column reference loops.

The reference functions below form the basis products of one span column
at a time, as the ideal checks did before they shared
``matkernel.span_residual``; the library versions must agree with them.
"""

import numpy as np

from ternlab import embedding as emb
from ternlab import ideals as idl
from ternlab import matkernel as mk
from ternlab import radical as rad
from ternlab import ternary as tern
from ternlab.errors import DecompositionInconclusive

TOL = 1e-12


def _worst(prods, q):
    resid = np.abs(prods - (prods @ q.conj()) @ q.T).max(initial=0.0)
    return float(resid) / max(1.0, float(np.abs(prods).max(initial=0.0)))


def _assoc_reference(e, span):
    eye = np.eye(e.dim, dtype=np.complex128)
    worst = 0.0
    for j in range(span.shape[1]):
        s = np.broadcast_to(span[:, j], (e.dim, e.dim))
        for prods in (e.mul_coords(eye, s), e.mul_coords(s, eye)):
            worst = max(worst, _worst(prods, span))
    return worst


def _column_products(m, s):
    d = m.dim
    eye = np.eye(d, dtype=np.complex128)
    s = np.broadcast_to(s, (d, d, d)).reshape(-1, d)
    x = np.broadcast_to(eye[:, None, :], (d, d, d)).reshape(-1, d)
    y = np.broadcast_to(eye[None, :, :], (d, d, d)).reshape(-1, d)
    return [tern._triple_coords(m, *args) for args in ((x, y, s), (s, x, y), (x, s, y))]


def _ternary_reference(m, span):
    q = mk.colspace(span)
    return max((_worst(prods, q) for j in range(q.shape[1])
                for prods in _column_products(m, q[:, j])), default=0.0)


def _audit_reference(a, span, tol=1e-8):
    eye = np.eye(a.dim, dtype=np.complex128)
    worst = 0.0
    for j in range(span.shape[1]):
        s = np.broadcast_to(span[:, j], (a.dim, a.dim))
        worst = max(worst, _worst(a.mul(eye, s), span), _worst(a.mul(s, eye), span))
    return worst <= tol


def _generated_reference(m, gens, tol=1e-9):
    span = mk.colspace(np.stack(gens, axis=1), tol)
    while 0 < span.shape[1] < m.dim:
        new = [span] + [p.T for j in range(span.shape[1])
                        for p in _column_products(m, span[:, j])]
        grown = mk.colspace(np.hstack(new), tol)
        if grown.shape[1] == span.shape[1]:
            break
        span = grown
    return span


def _audit_passes(a, span):
    try:
        rad._audit_ideal(a, span)
    except DecompositionInconclusive:
        return False
    return True


def _check_ternary(m, spans):
    for span in spans:
        want = _ternary_reference(m, span)
        assert abs(emb._ternary_ideal_residual(m, span) - want) <= TOL
        assert idl.is_ideal(m, span) == (want <= idl.DEFAULT_TOL)


def _check_space(m):
    e0 = np.eye(m.dim, dtype=np.complex128)[0]
    ideal = idl.generated_ideal(m, [e0])
    ref = _generated_reference(m, [e0])
    assert ideal.dim == ref.shape[1]
    assert mk.subspace_distance(ideal.basis, ref) <= TOL
    _check_ternary(m, (ideal.basis, e0[:, None]))

    e = emb.build_embedding(m)
    a = rad.AssocAlgebra(table=e.table)
    eye = np.eye(e.dim, dtype=np.complex128)
    idx = e.corner_indices
    corner = eye[:, idx["M"]]
    # the first block row L ⊕ M is a right ideal and the first block column
    # L ⊕ Mbar a left one: each passes one of the two product orders only
    row = eye[:, np.concatenate([idx["L"], idx["M"]])]
    column = eye[:, np.concatenate([idx["L"], idx["Mbar"]])]
    embedded = idl.embed_ideal(e, ideal)
    for span in (embedded, corner, row, column):
        want = _assoc_reference(e, span)
        assert abs(emb._assoc_ideal_residual(e, span) - want) <= TOL
        assert _audit_passes(a, span) == _audit_reference(a, span)
    return embedded, e


def test_span_closure_matches_reference_on_catalog(catalog):
    for name, m in catalog:
        _check_space(m)
        # the same spans through the structure-constant triple product
        s = tern.as_structure_space(m)
        e0 = np.eye(m.dim, dtype=np.complex128)[0]
        ideal = _generated_reference(s, [e0])
        assert mk.subspace_distance(idl.generated_ideal(s, [e0]).basis, ideal) <= TOL
        _check_ternary(s, (ideal, e0[:, None]))


def test_span_closure_matches_reference_across_chunks():
    m = tern.direct_sum(tern.full_matrix_space(4, 4, +1), tern.full_matrix_space(2, 2, -1))
    embedded, e = _check_space(m)
    assert embedded.shape[1] == 64
    assert embedded.shape[1] > mk.SPAN_CHUNK_ROWS // (2 * e.dim)
    # generators in both blocks: the first round spans more than one chunk
    gens = list(np.eye(m.dim, dtype=np.complex128)[[0, 5, 10, 16]])
    ideal = idl.generated_ideal(m, gens)
    assert ideal.dim == m.dim
    assert mk.subspace_distance(ideal.basis, _generated_reference(m, gens)) <= TOL
