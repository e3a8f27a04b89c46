"""Shared instance generators for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from ternlab import radical as rad
from ternlab import ternary as tern


def random_closure_space(rng, rows, cols, sign, n_gens=1):
    """A signed block generated by random matrices (product-closed span)."""
    gens = [rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            for _ in range(n_gens)]
    return tern.ternary_closure(gens, sign)


def standard_instances():
    """Deterministic catalog of 20 named instances, dims <= 16."""
    rng = np.random.default_rng(20230520)
    e12 = np.zeros((2, 2), dtype=np.complex128)
    e12[0, 1] = 1.0
    e21 = e12.T.copy()
    out = [
        ("scalar-tro", tern.scalar_space(+1)),
        ("scalar-anti", tern.scalar_space(-1)),
        ("mixed-2", tern.direct_sum(tern.scalar_space(+1), tern.scalar_space(-1))),
        ("full-2x2-tro", tern.full_matrix_space(2, 2, +1)),
        ("full-2x2-anti", tern.full_matrix_space(2, 2, -1)),
        ("full-2x3-tro", tern.full_matrix_space(2, 3, +1)),
        ("full-3x2-anti", tern.full_matrix_space(3, 2, -1)),
        ("diag-2-tro", tern.diagonal_space(2, +1)),
        ("diag-3-anti", tern.diagonal_space(3, -1)),
        ("offdiag-tro", tern.ternary_closure([e12, e21], +1)),
        ("closure-3x3-tro", random_closure_space(rng, 3, 3, +1)),
        ("closure-3x3-anti", random_closure_space(rng, 3, 3, -1)),
        ("closure-2x2-two-gens", random_closure_space(rng, 2, 2, +1, n_gens=2)),
        ("mix-full-scalar", tern.direct_sum(tern.full_matrix_space(2, 2, +1),
                                            tern.scalar_space(-1))),
        ("mix-anti-diag", tern.direct_sum(tern.full_matrix_space(2, 2, -1),
                                          tern.diagonal_space(2, +1))),
        ("mix-closures", tern.direct_sum(random_closure_space(rng, 3, 2, +1),
                                         random_closure_space(rng, 2, 3, -1))),
        ("full-4x2-tro", tern.full_matrix_space(4, 2, +1)),
        ("full-2x4-anti", tern.full_matrix_space(2, 4, -1)),
        ("mix-three-blocks", tern.direct_sum(tern.diagonal_space(2, +1),
                                             tern.diagonal_space(2, -1),
                                             tern.scalar_space(+1))),
        ("full-4x4-tro", tern.full_matrix_space(4, 4, +1)),
    ]
    assert len(out) == 20
    assert all(m.dim <= 16 for _, m in out)
    return out


def mixed_split_instances():
    """20 block spaces with both parts present and known (dim+, dim-)."""
    rng = np.random.default_rng(77)
    out = []
    shapes = [(1, 1), (2, 2), (2, 1), (1, 3), (3, 2), (2, 3)]
    for k in range(20):
        r1, c1 = shapes[k % len(shapes)]
        r2, c2 = shapes[(k + 2) % len(shapes)]
        plus = (tern.full_matrix_space(r1, c1, +1) if k % 3 == 0
                else random_closure_space(rng, max(r1, 2), max(c1, 2), +1))
        minus = (tern.full_matrix_space(r2, c2, -1) if k % 3 == 1
                 else random_closure_space(rng, max(r2, 2), max(c2, 2), -1))
        m = tern.direct_sum(plus, minus)
        if m.dim > 16:
            m = tern.direct_sum(tern.diagonal_space(2, +1),
                                random_closure_space(rng, 2, 2, -1))
        out.append((f"mix-{k}", m, plus.dim, minus.dim))
    return out


def lattice_spaces():
    """The three multi-block spaces of the ideal-lattice benchmark, named."""
    full, diag, scalar, dsum = (tern.full_matrix_space, tern.diagonal_space,
                                tern.scalar_space, tern.direct_sum)
    return [
        ("f33p-f22m-d2p", dsum(full(3, 3, +1), full(2, 2, -1), diag(2, +1))),
        ("f44p-f22m", dsum(full(4, 4, +1), full(2, 2, -1))),
        ("f23m-f32p-sm", dsum(full(2, 3, -1), full(3, 2, +1), scalar(-1))),
    ]


def data_scale(m):
    """The scale the ideal checks divide their products by: |c|max on
    structure input; on block input, per coordinate, the square of the
    largest entry of the block the coordinate lies in (products of a block's
    basis stay in that block)."""
    if not m.is_block:
        return float(np.abs(m.structure.c).max(initial=0.0)) or 1.0
    return np.concatenate([np.full(b.dim, float(np.abs(b.stack).max()) ** 2) for b in m.blocks])


def peirce_scale(e, x):
    """Per embedding coordinate i, what the graded ideal check divides the
    products of e_i with a column of corner x by, in either order: the
    square of the largest entry of e_i's block when e_i and the column lie
    in M and Mbar, one in each, and 1 otherwise."""
    out = np.ones(e.dim)
    if x in (1, 2):
        other = e.corner_indices[("L", "M", "Mbar", "R")[3 - x]]
        block = np.concatenate([np.full(b.dim, float(np.abs(b.m_stack).max()) ** 2)
                                for b in e.blocks])
        out[other] = block[other]
    return out


def scaled(m, t):
    """m with its blocks, or its structure tensor, multiplied by t."""
    if not m.is_block:
        return tern.TernarySpace.from_structure(t * m.structure.c, validate=False)
    return tern.TernarySpace.from_blocks(
        [tern.SignedBlock(b.sign, b.rows, b.cols, tuple(t * b.stack)) for b in m.blocks],
        validate=False)


def scramble(m, rng, max_cond=20.0):
    """Structure constants of m in a random well-conditioned basis."""
    c = tern.structure_constants_of(m).c
    d = m.dim
    while True:
        s = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if np.linalg.cond(s) <= max_cond:
            break
    si = np.linalg.inv(s)
    c2 = np.einsum("pqrs,pi,qj,rk,ls->ijkl", c, s, s.conj(), s, si, optimize=True)
    return tern.TernarySpace.from_structure(c2), s


def no_certificate(monkeypatch):
    """Takes the trace-form certificate out: ``radical._radical`` then
    decides every radical on the ambient algebra."""
    monkeypatch.setattr(rad, "_trace_form_certificate", lambda m: (0.0, np.inf))


def cstar_identity_residual(e, samples=200, seed=0):
    """Max | ||a* a|| - ||a||^2 | over random unit-norm a of an embedding."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        v = rng.standard_normal(e.dim) + 1j * rng.standard_normal(e.dim)
        n = e.norm(v)
        if n == 0:
            continue
        v = v / n
        aa = e.mul_coords(e.star_coords(v), v)
        worst = max(worst, abs(e.norm(aa) - 1.0))
    return worst


@pytest.fixture(scope="session")
def catalog():
    return standard_instances()
