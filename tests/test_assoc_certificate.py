"""The associativity certificate that ``StructureConstants.validate`` tries
before the dense sweep.

``StructureConstants.associativity_bound`` bounds the exact basis residual
that ``associativity_residual`` computes, from bases of the operator spans.
It must never read below that residual: on valid tensors, where it lets
``validate`` skip the sweep, on corrupted ones and on arbitrary ones.  A
failing verdict must still come from the exact sweep.
"""

import io
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import scramble
from test_sparse_sweeps import _monomial
from ternlab import cli
from ternlab import matkernel as mk
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


@pytest.mark.parametrize("v, w", [(3.0, 1.25), (0.5, 7.0)])
def test_span_bound_covers_the_rounding_of_each_image(v, w):
    # Phi(x) = w x0 - v k x1 with k = 1 + 2^-52 nearly cancels on the row (v, w):
    # its exact value there, v w (k - 1), is lost in the computed image of the
    # one basis row, and the remainder e is 0, so only the rounding term covers it
    k = 1 + 2.0 ** -52
    basis = tern._span_basis(np.array([[v, w]], dtype=np.complex128))
    images = (float(abs(w * q[0] - v * k * q[1])) for q in basis[0])
    bound = tern._span_bound(basis, w + 2 * v, 2, np.inf, images, 0.0)
    assert Fraction(bound) >= Fraction(v) * Fraction(w) * (Fraction(k) - 1)


def _exact(z):
    """The real and imaginary parts of a complex array, as arrays of Fractions."""
    z = np.asarray(z, dtype=np.complex128)
    to = np.vectorize(Fraction, otypes=[object])
    return to(z.real), to(z.imag)


def _mul(a, b):
    return a[0] @ b[0] - a[1] @ b[1], a[0] @ b[1] + a[1] @ b[0]


def _sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def _covers_exactly(bound, image):
    """bound >= the largest modulus in an exact (real, imaginary) pair, in
    rational arithmetic."""
    return Fraction(bound) ** 2 >= max(x * x + y * y for x, y in zip(*(a.ravel() for a in image)))


@pytest.fixture(scope="module")
def small_tensors(scrambles):
    """Scrambles of d <= 3, as they are and with one entry moved by 1e-9 of
    |c|max, below the span stop, so that the spans leave a remainder; and two
    arbitrary tensors."""
    rng = np.random.default_rng(1207)
    out = []
    for name, sc in scrambles.items():
        if sc.dim <= 3:
            out += [sc.c, _corrupt(sc, rng, 1e-9).c]
    for d in (2, 3):
        out.append(rng.standard_normal((d,) * 4) + 1j * rng.standard_normal((d,) * 4))
    return [c / mk.unit_scale(c) for c in out]


def _spans(t):
    """The left, right and pair span bases ``associativity_bound`` forms on t,
    with the column-norm maxima of t along each axis."""
    d = len(t)
    rows = t.transpose(1, 2, 0, 3).reshape(d * d, d * d)
    pairs = tern.operator_pairs(rows.reshape(d, d, d, d)).reshape(d * d, -1)
    norms = [float(np.sqrt((np.abs(t) ** 2).sum(axis=ax)).max()) for ax in range(4)]
    return [tern._span_basis(x) for x in (t.reshape(d * d, d * d), rows, pairs)], norms


def _span_part(basis):
    """The exact rows a Q of a span basis (without the remainder e)."""
    q, a = basis[:2]
    return _mul(_exact(a), _exact(q))


def test_commutator_bounds_cover_the_exact_commutators(small_tensors):
    # the image of each left basis row Q_a against the span part B_uv of every
    # right operator, and extra against [A_xy, R_uv - B_uv] for the span part
    # A_xy of every left operator, exactly
    for t in small_tensors:
        d = len(t)
        (left, right, _), n = _spans(t)
        images, extra = tern._commutator_bounds(left, right, d, n[2] + n[3])
        images = list(images)
        assert len(images) == len(left[0])
        spanned = _span_part(right)
        rest = _sub(_exact(t.transpose(1, 2, 0, 3).reshape(d * d, d * d)), spanned)
        mats = [[(x[0][k].reshape(d, d), x[1][k].reshape(d, d)) for k in range(d * d)]
                for x in (spanned, rest)]
        for qa, bound in zip(left[0], images):
            qa = _exact(qa.reshape(d, d))
            for op in mats[0]:
                assert _covers_exactly(bound, _sub(_mul(qa, op), _mul(op, qa))), d
        lefts = _span_part(left)
        for k in range(d * d):
            op = (lefts[0][k].reshape(d, d), lefts[1][k].reshape(d, d))
            for f in mats[1]:
                assert _covers_exactly(extra, _sub(_mul(op, f), _mul(f, op))), d


def _psi(pair, ten):
    """Psi(A, B)[x, u] = sum_m A[m,x] ten[m,u] - B[m,u] ten[x,m] at the pair
    row (A^T, B^T), exactly, as one (real, imaginary) pair over (x, u, v, l)."""
    d = len(ten[0])
    at, bt = (tuple(x[k * d * d:(k + 1) * d * d].reshape(d, d) for x in pair) for k in (0, 1))
    first = _mul(at, tuple(x.reshape(d, d ** 3) for x in ten))
    second = [_mul(bt, tuple(x[i].reshape(d, d * d) for x in ten)) for i in range(d)]
    return tuple(first[j].reshape(-1) - np.concatenate([s[j].reshape(-1) for s in second])
                 for j in (0, 1))


def test_pair_bounds_cover_the_exact_images(small_tensors):
    # the image of each pair basis row with the span part of the left
    # operators, and extra against Psi with their remainders at the span part
    # of every pair row, exactly
    for t in small_tensors:
        d = len(t)
        (left, _, pairs), n = _spans(t)
        images, extra = tern._pair_bounds(pairs, left, d, n[3])
        images = list(images)
        assert len(images) == len(pairs[0])
        spanned = _span_part(left)
        ops = [x.reshape((d,) * 4) for x in spanned]
        rest = [x.reshape((d,) * 4) for x in _sub(_exact(t.reshape(d * d, d * d)), spanned)]
        for row, bound in zip(pairs[0], images):
            assert _covers_exactly(bound, _psi(_exact(row), ops)), d
        rows = _span_part(pairs)
        for k in range(d * d):
            assert _covers_exactly(extra, _psi((rows[0][k], rows[1][k]), rest)), d


def test_inner_bounds_cover_the_rounding_of_each_image():
    # the exact image 0.625 (k - 1/2) = 1.25 * 2^-54 of one basis row, with
    # k = 1/2 + 2^-53, rounds to 2^-54 in the computed commutator and in K; the
    # spans are exact (rest 0), so only the rounding term covers the rest
    k = 0.5 + 2.0 ** -53
    exact = Fraction(5, 8) * (Fraction(k) - Fraction(1, 2))
    exact_span = (np.zeros(1), 1.0)   # remainder norms 0, largest row 1
    left = (np.array([[0.0, 0.625, 0.0, 0.0]], dtype=np.complex128), np.ones((1, 1))) + exact_span
    right = (np.array([[0.5, 0.0, 0.0, k]], dtype=np.complex128), np.ones((1, 1))) + exact_span
    [bound] = tern._commutator_bounds(left, right, 2, 0.0)[0]
    assert Fraction(bound) >= exact
    # d = 1: Psi = (A - B) L with L = 0.625 Q, Q = 1, and the pair row (k, 1/2)
    left = (np.ones((1, 1), dtype=np.complex128), np.full((1, 1), 0.625 + 0j)) + exact_span
    pairs = (np.array([[k, 0.5]], dtype=np.complex128), np.ones((1, 1))) + exact_span
    [bound] = tern._pair_bounds(pairs, left, 1, 0.0)[0]
    assert Fraction(bound) >= exact


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
    rep = tern.check_axioms(m)
    assert sweeps == [] and rep.passed and set(rep.residuals) == {"assoc_bound"}
    assert rep.residuals["assoc_bound"] >= sc.associativity_residual()


@pytest.mark.parametrize("size", [1e-3, 1e-5, 1e-7, 3e-9, 1e-9, 1e-10, 1e-12])
def test_axiom_verdicts_rest_on_the_exact_sweep(scrambles, tmp_path, size):
    # check_axioms and ``ternlab verify`` pass or fail exactly where the exact
    # residual is within their default tol, tern.DEFAULT_TOL, and a failing
    # report carries that residual; at 1e-9 the bound reads above tol and the
    # sweep passes full-4x2-tro
    rng = np.random.default_rng(1300 + int(-np.log10(size)))
    for name, sc in scrambles.items():
        if sc.dim < mk.CERTIFICATE_MIN_DIM:
            continue
        bad = _corrupt(sc, rng, size)
        resid = bad.associativity_residual()
        m = tern.TernarySpace.from_structure(bad.c, validate=False)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cli.to_instance_dict(m, name)), encoding="utf-8")
        out = io.StringIO()
        code = cli.main(["verify", str(path), "--format", "json"], out=out)
        reports = [tern.check_axioms(m).residuals, json.loads(out.getvalue())["details"]["residuals"]]
        assert code == (0 if resid <= tern.DEFAULT_TOL else 1), (name, resid)
        for residuals in reports:
            [(key, value)] = residuals.items()
            if key == "assoc_basis":
                assert value == pytest.approx(resid, rel=1e-9), name
            else:
                assert key == "assoc_bound" and resid <= value <= tern.DEFAULT_TOL, name


def test_small_or_sparse_input_reports_the_exact_sweep(catalog, scrambles):
    # the catalog's own tensors are sparse (full-4x4-tro among them, d = 16),
    # their scrambles dense
    for name, m in catalog:
        for sc in (tern.structure_constants_of(m), scrambles[name]):
            rep = tern.check_axioms(tern.TernarySpace.from_structure(sc.c, validate=False))
            exact = sc.dim < mk.CERTIFICATE_MIN_DIM or mk.sparse_pays(sc.c, *tern._ASSOC_SWEEP)
            assert rep.passed and set(rep.residuals) == {"assoc_basis" if exact else "assoc_bound"}, name


def test_verify_reports_the_span_ranks(scrambles, tmp_path):
    # the corners of the linking algebra of one 4x2 block: the left operators
    # span 4^2 dimensions, the right operators and their pairs 2^2; a failing
    # verdict comes from the sweep and reports no ranks
    sc = scrambles["full-4x2-tro"]
    for c, ranks in ((sc.c, [16, 4, 4]), (_corrupt(sc, np.random.default_rng(1208), 1e-5).c, None)):
        path = tmp_path / "t.json"
        m = tern.TernarySpace.from_structure(c, validate=False)
        path.write_text(json.dumps(cli.to_instance_dict(m, "t")), encoding="utf-8")
        out = io.StringIO()
        cli.main(["verify", str(path), "--format", "json"], out=out)
        assert json.loads(out.getvalue())["details"].get("assoc_ranks") == ranks


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
