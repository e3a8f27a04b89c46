"""The trace-form certificate that ``ternlab radical`` and ``ternary_radical``
try before any ambient algebra.

τ(x, y) = tr L(x, y), with L(x, y) z = [x y z], vanishes on Rad M in its
first argument, so σ_min(τ) > bound proves Rad M = 0.  The entry bound of
the computed τ must cover its distance from the exact τ of the data, here
computed in rational arithmetic; the certificate must never hold on a ring
with a radical, nor on data within the input gate of one, and every verdict
must be the one the ambient path (embedding or envelope, then
``jacobson_radical``) gives.
"""

import io
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import no_certificate, scaled, scramble
from ternlab import cli
from ternlab import radical as rad
from ternlab import ternary as tern

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


# ---------------------------------------------------------------------------
# The entry bound, against rational arithmetic


class _Gauss:
    """An exact Gaussian rational re + i im."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @classmethod
    def of(cls, z):
        return cls(z.real, z.imag)

    def __add__(self, o):
        return _Gauss(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return _Gauss(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return _Gauss(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        n = o.re * o.re + o.im * o.im
        return self * _Gauss(o.re / n, -o.im / n)

    def conj(self):
        return _Gauss(self.re, -self.im)

    def abs2(self):
        return self.re * self.re + self.im * self.im


def _sum(terms):
    out = _Gauss(0)
    for t in terms:
        out = out + t
    return out


def _inverse(h):
    """The inverse of an invertible square matrix of _Gauss, by Gauss-Jordan."""
    n = len(h)
    a = [row[:] + [_Gauss(int(i == j)) for j in range(n)] for i, row in enumerate(h)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col].abs2() != 0)
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [v / p for v in a[col]]
        for r in range(n):
            if r != col and a[r][col].abs2() != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _check_entry_bound(tau_exact, tau, err):
    """‖τ̂ - τ‖_F <= e exactly, and the distance is not 0, so the bound has
    work to do; returns the squared distance."""
    gap2 = sum((_Gauss.of(tau[a, b]) - tau_exact[a][b]).abs2()
               for a in range(len(tau)) for b in range(len(tau)))
    assert gap2 <= Fraction(err) ** 2, (float(gap2) ** 0.5, err)
    return gap2


def _drawn_tensors():
    rng = np.random.default_rng(2701)
    for d in (1, 2, 3, 4, 4):
        yield rng.standard_normal((d,) * 4) + 1j * rng.standard_normal((d,) * 4)


def test_structure_bound_covers_the_exact_trace_form():
    gaps = []
    for c in _drawn_tensors():
        d = len(c)
        tau_exact = [[_sum(_Gauss.of(c[a, b, i, i]) for i in range(d)) for b in range(d)]
                     for a in range(d)]
        tau, err = rad._structure_trace_form(c)
        gaps.append(_check_entry_bound(tau_exact, tau, err))
    # rounding moves the computed τ off the exact one, so the bound has work to do
    assert any(g > 0 for g in gaps)


def _exact_block_trace_form(b):
    """τ[a, b'] = sign tr(x_b'* G x_a) with G = sum_{k,m} (H⁻¹)[k, m] x_k x_m*,
    exactly: sign sum_{k,m} (H⁻¹)[k, m] t(b', k, m, a), with the traces
    t(p, q, r, s) = tr(x_p* x_q x_r* x_s)."""
    xs = [[[_Gauss.of(v) for v in row] for row in x] for x in b.stack]
    rows, cols = range(b.rows), range(b.cols)

    def t(p, q, r, s):
        # tr(x_p* x_q x_r* x_s) = sum conj(x_p[i, j]) x_q[i, l] conj(x_r[k, l]) x_s[k, j]
        xq_xr = [[_sum(xs[q][i][l] * xs[r][k][l].conj() for l in cols) for k in rows]
                 for i in rows]
        return _sum(xs[p][i][j].conj() * xq_xr[i][k] * xs[s][k][j]
                    for i in rows for k in rows for j in cols)

    n = range(b.dim)
    h = [[_sum(xs[k][i][j].conj() * xs[m][i][j] for i in rows for j in cols) for m in n]
         for k in n]
    hinv = _inverse(h)
    sign = _Gauss(b.sign)
    return [[sign * _sum(hinv[k][m] * t(bb, k, m, a) for k in n for m in n) for bb in n]
            for a in n]


@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 2, 1), (2, 1, 3), (3, 2, 2)])
def test_block_bound_covers_the_exact_trace_form(shape):
    # complex bases of random spans: τ is the trace of z -> sign x y* z
    # compressed to the span, whether or not the span is closed
    k, r, c = shape
    rng = np.random.default_rng(2702 + k)
    gaps = []
    for sign in (+1, -1):
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        b = tern.SignedBlock(sign, r, c, tuple(stack))
        tau, err = rad._block_trace_form(b)
        gaps.append(_check_entry_bound(_exact_block_trace_form(b), tau, err))
    assert any(g > 0 for g in gaps)


def test_block_trace_form_matches_the_structure_trace_form(catalog):
    # Σ_i c[a, b, i, i] of the block's structure constants, with no d⁴ tensor
    for name, m in catalog:
        sigma, bound = rad._trace_form_certificate(m)
        s_sigma, s_bound = rad._trace_form_certificate(tern.as_structure_space(m))
        assert sigma == pytest.approx(s_sigma, rel=1e-12), name
        assert sigma > bound and s_sigma > s_bound, name


# ---------------------------------------------------------------------------
# Never a certified radical


def _planted(semisimple, weights):
    """Structure constants of semisimple ⊕ N, where N has basis n_0..n_k and
    [n_i n_j n_l] = weights[i, j, l] n_k for i, j, l < k, every other product
    0: N is associative and nilpotent, so Rad = N, and τ vanishes on N."""
    c = tern.structure_constants_of(semisimple).c if semisimple is not None else np.zeros((0,) * 4)
    d, k = len(c), len(weights)
    out = np.zeros((d + k + 1,) * 4, dtype=np.complex128)
    out[:d, :d, :d, :d] = c
    out[d:-1, d:-1, d:-1, -1] = weights
    return out


def _unimodular(rng, d):
    """A random integer matrix of determinant ±1, and its integer inverse."""
    u = np.eye(d, dtype=np.int64)
    for _ in range(2 * d if d > 1 else 0):
        i, j = rng.choice(d, 2, replace=False)
        u[i] += rng.choice([-1, 1]) * u[j]
    u = u[rng.permutation(d)]
    return u, np.rint(np.linalg.inv(u)).astype(np.int64)


_SEMISIMPLE = {"none": None, "scalar-anti": tern.scalar_space(-1),
               "full-2x2-tro": tern.full_matrix_space(2, 2, +1),
               "mixed": tern.direct_sum(tern.scalar_space(+1), tern.full_matrix_space(1, 2, -1))}


@PROPERTY
@given(st.sampled_from(sorted(_SEMISIMPLE)), st.integers(0, 2), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["exact", "float"]), st.integers(-8, 8))
def test_certificate_never_holds_on_a_planted_radical(kind, k, seed, scramble_kind, exponent):
    rng = np.random.default_rng(seed)
    weights = rng.integers(-3, 4, (k,) * 3) + 1j * rng.integers(-3, 4, (k,) * 3)
    c = _planted(_SEMISIMPLE[kind], weights)
    d = len(c)
    if scramble_kind == "exact":
        # an integer basis change keeps the tensor exact, so τ stays exactly singular
        u, ui = _unimodular(rng, d)
        c = np.einsum("pqrs,pi,qj,rk,ls->ijkl", c, u, u, u, ui, optimize=True)
        m = tern.TernarySpace.from_structure(c * 2.0 ** exponent)
    else:
        m = scaled(scramble(tern.TernarySpace.from_structure(c), rng)[0], 2.0 ** exponent)
    sigma, bound = rad._trace_form_certificate(rad._unit_space(m))
    assert not sigma > bound
    basis, _, report = rad._radical(m)
    alg, m_idx = rad._ambient(m)
    want = rad.m_corner(rad.jacobson_radical(alg), m_idx)
    assert report["decided_by"] == "ambient" and basis.shape == want.shape
    assert basis.shape[1] >= 1


@pytest.mark.parametrize("d", [1, 3])
def test_zero_ring_is_not_certified(d):
    m = tern.TernarySpace.from_structure(np.zeros((d,) * 4))
    assert rad._trace_form_certificate(m) == (0.0, 0.0)
    basis, _, report = rad._radical(m)
    assert report["decided_by"] == "ambient" and basis.shape == (d, d)


def test_zero_dimensional_space_has_no_radical():
    m = tern.TernarySpace.from_structure(np.zeros((0,) * 4))
    assert rad.ternary_radical(m).shape == (0, 0)


def test_nilpotent_control_exits_one(tmp_path):
    # c[0, 0, 0, 0] = 1 (d = 2): τ = diag(1, 0), and b_1 is the radical
    c = np.zeros((2,) * 4, dtype=np.complex128)
    c[0, 0, 0, 0] = 1.0
    path = tmp_path / "control.json"
    path.write_text(json.dumps(cli.to_instance_dict(tern.TernarySpace.from_structure(c), "nil")))
    out = io.StringIO()
    assert cli.main(["radical", str(path), "--format", "json"], out=out) == cli.EXIT_PROPERTY_FAILURE
    details = json.loads(out.getvalue())["details"]
    assert details["decided_by"] == "ambient" and details["radical_dim"] == 1


def test_control_within_the_gate_is_not_certified(tmp_path):
    # the control with c[1, 1, 0, 0] = 1e-12: its identities miss by 1e-12, so
    # it passes the input gate, and it lies 1e-12 from a ring whose radical is
    # span{b_1}; τ = diag(1, 1e-12) is singular at the relative 1e-9 at which
    # the ambient path reads ranks, so that path decides, and reads span{b_1}
    c = np.zeros((2,) * 4, dtype=np.complex128)
    c[0, 0, 0, 0], c[1, 1, 0, 0] = 1.0, 1e-12
    m = tern.TernarySpace.from_structure(c)
    sigma, bound = rad._trace_form_certificate(m)
    assert sigma == pytest.approx(1e-12) and bound == pytest.approx(1e-9)
    path = tmp_path / "near-control.json"
    path.write_text(json.dumps(cli.to_instance_dict(m, "near-nil")))
    code, rdim, _, details = _verdict(path)
    assert code == cli.EXIT_PROPERTY_FAILURE and rdim == 1
    assert details["decided_by"] == "ambient"


def _structure_sum(c1, c2):
    """The structure constants of the direct sum of two ternary rings."""
    d1, d2 = len(c1), len(c2)
    out = np.zeros((d1 + d2,) * 4, dtype=np.complex128)
    out[:d1, :d1, :d1, :d1] = c1
    out[d1:, d1:, d1:, d1:] = c2
    return out


@pytest.mark.parametrize("name", ["scalar-anti", "full-2x2-tro", "mix-full-scalar"])
def test_a_summand_at_rounding_scale_is_not_certified(catalog, name):
    # C ⊕ 1e-12 C (blocks of the copy scaled by 1e-6) has radical 0 exactly,
    # but its small summand is below the relative 1e-9 at which the ambient
    # path reads ranks, so the certificate leaves it to that path
    m = dict(catalog)[name]
    c = tern.structure_constants_of(m).c
    for space in (tern.direct_sum(m, scaled(m, 1e-6)),
                  tern.TernarySpace.from_structure(_structure_sum(c, 1e-12 * c))):
        sigma, bound = rad._trace_form_certificate(rad._unit_space(space))
        assert not sigma > bound, space.is_block
        assert rad._radical(space)[2]["decided_by"] == "ambient", space.is_block


# ---------------------------------------------------------------------------
# The same verdicts as the ambient path

BLOCK_FACTORS = (1e-6, 1e-3, 1.0, 1e3, 1e6)
TENSOR_FACTORS = (1e-10, 1e-5, 1.0, 1e5, 1e10)


def _verdict(path):
    out = io.StringIO()
    code = cli.main(["radical", str(path), "--format", "json"], out=out)
    details = json.loads(out.getvalue())["details"] if out.getvalue() else {}
    return code, details.get("radical_dim"), details.get("embedding_radical_dim"), details


@pytest.fixture(scope="module")
def verdict_files(catalog, tmp_path_factory):
    """The catalog as block files and scrambled structure files, at the scale
    factors of ``test_data_scale.py``."""
    root = tmp_path_factory.mktemp("verdicts")
    rng = np.random.default_rng(2704)
    paths = []
    for name, m in catalog:
        ms = scramble(m, rng)[0]
        for space, factors in ((m, BLOCK_FACTORS), (ms, TENSOR_FACTORS)):
            for t in factors:
                path = root / f"{name}-{'blocks' if space.is_block else 'tensor'}-{t:g}.json"
                path.write_text(json.dumps(cli.to_instance_dict(scaled(space, t), name)))
                paths.append((path, space.is_block))
    return paths


def test_radical_verdicts_match_the_ambient_path(verdict_files, monkeypatch):
    new = [_verdict(p) for p, _ in verdict_files]
    assert all(v[3]["decided_by"] == "trace_form" for v in new)
    no_certificate(monkeypatch)
    old = [_verdict(p) for p, _ in verdict_files]
    assert all(v[3]["decided_by"] == "ambient" for v in old)
    for (path, is_block), a, b in zip(verdict_files, new, old):
        assert a[:3] == b[:3] == (0, 0, 0 if is_block else None), path.name
