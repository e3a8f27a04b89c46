"""The associativity certificate that ``StructureConstants.validate`` tries
before the dense sweep.

``StructureConstants.associativity_bound`` bounds the exact basis residual
that ``associativity_residual`` computes, from bases of the operator spans.
It must never read below that residual: on valid tensors, where it lets
``validate`` skip the sweep, on corrupted ones and on arbitrary ones.  A
failing verdict must still come from the exact sweep.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import scramble
from test_sparse_sweeps import _monomial
from ternlab import ternary as tern
from ternlab.errors import InvalidInput

# the property tests draw the same examples on every run
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@pytest.fixture(scope="module")
def scrambles(catalog):
    rng = np.random.default_rng(1201)
    return {name: scramble(m, rng)[0].structure for name, m in catalog}


def _corrupt(sc, rng, size):
    """sc with one random entry moved by size * |c|max."""
    c = np.array(sc.c)
    pos = tuple(rng.integers(0, sc.dim, 4))
    c[pos] += size * np.abs(c).max() * np.exp(2j * np.pi * rng.random())
    return tern.StructureConstants(sc.dim, c)


def _covers(sc):
    bound, resid = sc.associativity_bound(), sc.associativity_residual()
    assert np.isfinite(bound) and bound >= resid, (bound, resid)
    return bound


def test_bound_covers_valid_tensors(catalog, scrambles):
    # and certifies every one of them, far inside the default tolerance
    rng = np.random.default_rng(1202)
    for name, m in catalog:
        assert _covers(scrambles[name]) < 1e-10, name
        rebased = tern.StructureConstants(m.dim, _monomial(tern.structure_constants_of(m).c, rng))
        assert _covers(rebased) < 1e-10, name


@pytest.mark.parametrize("size", [1e-3, 1e-5, 1e-7, 1e-9, 1e-10, 1e-12])
def test_bound_covers_one_entry_corruptions(scrambles, size):
    rng = np.random.default_rng(int(-np.log10(size)))
    for name, sc in scrambles.items():
        if sc.dim <= 8:
            _covers(_corrupt(sc, rng, size))


# arbitrary tensors, d <= 5, or small scrambles with one entry corrupted
_DRAWN = st.one_of(
    st.integers(1, 5).flatmap(lambda d: arrays(
        np.complex128, (d, d, d, d),
        elements=st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                    allow_infinity=False, allow_subnormal=False))),
    st.tuples(st.sampled_from(["full-2x2-anti", "full-2x3-tro", "mix-full-scalar",
                               "mix-closures", "closure-3x3-anti"]),
              st.integers(0, 2 ** 32 - 1), st.floats(-14.0, -2.0)))


def _identity_residuals(c):
    """Exact residuals of [[xyz]uv] = [xy[zuv]] and [[xyz]uv] = [x[uzy]v] on
    t = c / max(1, |c|max), from the full sextuple tensors."""
    t = c / max(1.0, np.abs(c).max())
    lhs = np.einsum("ijkm,muvl->ijkuvl", t, t)
    rgt = np.einsum("kuvm,ijml->ijkuvl", t, t)
    mid = np.einsum("ukjm,imvl->ijkuvl", t.conj(), t)
    return np.abs(lhs - rgt).max(), np.abs(lhs - mid).max()


def test_each_identity_gets_its_own_bound(monkeypatch, scrambles):
    bounds = []
    span_bound = tern._span_bound

    def recorded(*args):
        bounds.append(span_bound(*args))
        return bounds[-1]

    monkeypatch.setattr(tern, "_span_bound", recorded)
    rng = np.random.default_rng(1206)
    for name, sc in scrambles.items():
        if sc.dim <= 4:
            for size in (0.0, 1e-3, 1e-6, 1e-9):
                bad = _corrupt(sc, rng, size)
                bounds.clear()
                bad.associativity_bound()
                resids = _identity_residuals(bad.c)
                assert len(bounds) == 2 and all(map(np.greater_equal, bounds, resids)), name


@PROPERTY
@given(_DRAWN, st.floats(-3.0, 3.0))
def test_bound_covers_drawn_tensors(scrambles, drawn, exponent):
    if isinstance(drawn, tuple):
        name, seed, size = drawn
        drawn = _corrupt(scrambles[name], np.random.default_rng(seed), 10.0 ** size).c
    _covers(tern.StructureConstants(drawn.shape[0], drawn * 10.0 ** exponent))


def test_bound_covers_the_exact_residual_of_scalars():
    # on d = 1 with |c| <= 1 the residual is |c^2 - |c|^2| = 2 |c| |Im c|, here
    # compared in rational arithmetic: the floating-point bound must cover
    # what rounding takes off its own products, not only the computed sweep
    rng = np.random.default_rng(1205)
    for z in rng.uniform(-0.7, 0.7, 400) + 1j * rng.uniform(-0.7, 0.7, 400):
        bound = tern.StructureConstants(1, np.full((1, 1, 1, 1), z)).associativity_bound()
        a, b = Fraction(z.real), Fraction(z.imag)
        assert Fraction(bound) ** 2 >= 4 * (a * a + b * b) * b * b, z


@pytest.fixture()
def sweeps(monkeypatch):
    """Counts the calls of the exact dense sweep."""
    calls = []
    sweep = tern.StructureConstants.associativity_residual

    def counted(self):
        calls.append(self.dim)
        return sweep(self)

    monkeypatch.setattr(tern.StructureConstants, "associativity_residual", counted)
    return calls


def test_dense_scramble_validates_without_the_sweep(scrambles, sweeps):
    sc = scrambles["full-4x4-tro"]
    m = tern.TernarySpace.from_structure(sc.c)
    assert sweeps == []
    rep = tern.check_axioms(m)
    assert sweeps == [16] and rep.passed
    assert rep.residuals["assoc_basis"] <= sc.associativity_bound()


@pytest.mark.parametrize("name", ["full-4x2-tro", "full-4x4-tro"])
def test_failing_verdict_reports_the_exact_residual(scrambles, sweeps, name):
    bad = _corrupt(scrambles[name], np.random.default_rng(1203), 1e-5)
    with pytest.raises(InvalidInput, match="associativity identities fail") as err:
        tern.TernarySpace.from_structure(bad.c)
    assert len(sweeps) == 1
    assert f"(residual {bad.associativity_residual():.2e})" in str(err.value)


@pytest.mark.parametrize("size", [1e-10, 3e-10])
def test_small_corruption_still_validates(scrambles, sweeps, size):
    # the verdict is never tightened: at 3e-10 the bound reads above tol and
    # the exact sweep, below it, decides
    bad = _corrupt(scrambles["full-4x4-tro"], np.random.default_rng(1204), size)
    tern.TernarySpace.from_structure(bad.c)
    if size == 3e-10:
        assert bad.associativity_bound() > tern.DEFAULT_TOL and sweeps == [16]
    assert 1e-13 < bad.associativity_residual() < tern.DEFAULT_TOL


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", [
    np.zeros((0, 0, 0, 0)),
    np.ones((1, 1, 1, 1)),
    np.full((1, 1, 1, 1), 2.0 - 3.0j),
    np.zeros((3, 3, 3, 3)),
    np.full((1, 1, 1, 1), 1e200),
    1e200 * tern.structure_constants_of(tern.full_matrix_space(2, 2, -1)).c,
], ids=["d0", "d1", "d1-complex", "zero", "d1-1e200", "d4-1e200"])
def test_degenerate_tensors_run_without_warnings(c):
    sc = tern.StructureConstants(c.shape[0], c)
    with np.errstate(all="raise", under="ignore"):
        bound = _covers(sc)
        if sc.associativity_residual() <= tern.DEFAULT_TOL:
            assert bound <= tern.DEFAULT_TOL
            sc.validate()
        else:
            with pytest.raises(InvalidInput):
                sc.validate()
