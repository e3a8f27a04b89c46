"""The span basis under the associativity certificate.

``ternary._span_basis`` finds an orthonormal basis of the operator spans by
pivoted Gram-Schmidt.  It is checked against the eigenvectors of the rows'
Gram matrix, the basis the certificate used before: the same rank, the same
principal directions, and a certificate no looser than twice the one that
basis gives.
"""

import numpy as np
import pytest

from conftest import scramble
from test_sparse_sweeps import _monomial
from ternlab import matkernel as mk
from ternlab import ternary as tern

U = np.finfo(np.float64).eps / 2


def _eigh_span_basis(rows):
    """The Gram-eigenvector basis: eigenvalues above n u times the largest,
    their combinations of rows orthonormalized by QR."""
    gram = rows @ rows.conj().T
    rho = float(np.sqrt(gram.diagonal().real.max(initial=0.0)))
    lam, vec = np.linalg.eigh(gram)
    top = vec[:, lam > len(lam) * U * lam[-1]]
    q = np.linalg.qr((top.conj().T @ rows).T)[0].T
    a = rows @ q.conj().T
    e = rows - a @ q
    return q, a, np.sqrt((e.real ** 2 + e.imag ** 2).sum(axis=1)), rho


def _row_sets(c):
    """The three row sets ``associativity_bound`` spans: the left operators,
    the right operators and their pairs (R_yz, conj R_zy) of c / |c|max."""
    d = len(c)
    t = c / mk.unit_scale(c)
    right = t.transpose(1, 2, 0, 3).reshape(d * d, d * d)
    return {"left": t.reshape(d * d, d * d), "right": right,
            "pairs": tern.operator_pairs(right.reshape(d, d, d, d)).reshape(d * d, -1)}


@pytest.fixture(scope="module")
def tensors(catalog):
    """The 20 catalog scrambles and a monomial rebasing of each catalog tensor."""
    rng, mono = np.random.default_rng(1801), np.random.default_rng(1802)
    out = []
    for name, m in catalog:
        out.append((name, scramble(m, rng)[0].structure))
        moved = _monomial(tern.structure_constants_of(m).c, mono)
        out.append((name + "/monomial", tern.StructureConstants(m.dim, moved)))
    return out


def test_basis_matches_the_gram_eigenvectors(tensors):
    for name, sc in tensors:
        for side, rows in _row_sets(sc.c).items():
            label = f"{name} {side}"
            q, a, rest, rho = tern._span_basis(rows)
            ref = _eigh_span_basis(rows)
            r = len(q)
            assert r == len(ref[0]), label
            assert np.abs(q @ q.conj().T - np.eye(r)).max(initial=0.0) <= 16 * r * U, label
            # the coefficients and the remainders describe this Q: rows = a Q + e
            assert np.array_equal(a, rows @ q.conj().T), label
            e = rows - a @ q
            assert rest == pytest.approx(np.linalg.norm(e, axis=1), rel=1e-12), label
            assert rho == pytest.approx(ref[3], rel=1e-15), label
            # every remainder is within the stop, and far inside it on these spans
            assert rest.max() <= np.sqrt(len(rows) * U) * rho * 1e-4, label
            # principal directions: the coefficient maxima sum as with the eigenvectors
            amax = [np.abs(b).max(axis=0, initial=0.0).sum() for b in (a, ref[1])]
            assert amax[0] == pytest.approx(amax[1], rel=1e-9), label


def test_bound_stays_within_twice_the_eigenvector_bound(tensors, monkeypatch):
    for name, sc in tensors:
        bound = sc.associativity_bound()
        with monkeypatch.context() as mp:
            mp.setattr(tern, "_span_basis", _eigh_span_basis)
            ref = sc.associativity_bound()
        assert sc.associativity_residual() <= bound <= 2 * ref, name


def test_exact_remainders_only_confirm_the_stop(tensors, monkeypatch):
    # the downdated norms pick every pivot; the exact remainders, and the SVD
    # that turns Q onto the principal directions, are formed once per span
    svds = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        svds.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    for name, sc in tensors:
        for side, rows in _row_sets(sc.c).items():
            svds.clear()
            q = tern._span_basis(rows)[0]
            assert svds == [(len(rows), len(q))], f"{name} {side}"


@pytest.mark.parametrize("rows", [
    np.zeros((3, 4)),
    np.ones((1, 1)),
    np.array([[1.0, 0.0], [1e-9, 0.0], [0.0, 1e-12]]),
    np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]),
], ids=["zero", "one", "graded-rows", "near-parallel"])
def test_degenerate_rows(rows):
    rows = rows.astype(np.complex128)
    q, a, rest, rho = tern._span_basis(rows)
    rest = rest.max(initial=0.0)
    ref = _eigh_span_basis(rows)
    assert len(q) == len(ref[0]) and a.shape == (len(rows), len(q))
    assert rest <= np.sqrt(len(rows) * U) * rho and rho == ref[3]
