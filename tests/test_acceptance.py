"""Acceptance suite: one test per top-level criterion.

Every test prints a single PASS/FAIL line (visible with ``pytest -s``
or in the captured output) and asserts the criterion at its stated
tolerance.  Dimensions stay at desk scale so the whole module runs in
minutes.
"""

import io
import json
import time
import warnings

import numpy as np
import pytest

from conftest import (cstar_identity_residual, mixed_split_instances, scramble,
                      standard_instances)
from ternlab import cli
from ternlab import embedding as emb
from ternlab import ideals as idl
from ternlab import matkernel as mk
from ternlab import radical as rad
from ternlab import ternary as tern
from ternlab import wedderburn as wed
from ternlab.errors import BorderlineWarning


def _report(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    assert passed, f"{criterion}{suffix}"


@pytest.fixture(scope="module")
def instances():
    return standard_instances()


def test_criterion_1_multiplication_table():
    """All 16 cells of the twisted 2x2 table, exactly."""
    out = io.StringIO()
    code = cli.main(["demo", "m2-anti", "--format", "json"], out=out)
    rep = json.loads(out.getvalue())
    cells_ok = rep["details"]["mismatches"] == 0 and rep["details"]["cells_checked"] == 16
    # independent re-check at zero tolerance
    e = emb.build_embedding(tern.scalar_space(-1))
    eye = np.eye(4, dtype=np.complex128)
    want = {
        (0, 0): -eye[0], (0, 1): -eye[1], (1, 2): eye[0], (1, 3): -eye[1],
        (2, 0): -eye[2], (2, 1): eye[3], (3, 2): -eye[2], (3, 3): -eye[3],
    }
    exact = True
    for i in range(4):
        for j in range(4):
            got = emb.emb_mul(e, eye[i], eye[j]).coords
            expected = want.get((i, j), 0 * eye[0])
            exact = exact and bool(np.array_equal(got, expected))
    _report("criterion 1: multiplication table m2-anti",
            code == 0 and cells_ok and exact, "16/16 cells, zero tolerance")


def test_criterion_2_axiom_suite(instances):
    """All axioms <= 1e-8 from the exact basis checks on 20 instances and
    their scrambled structure tensors, under 60 s."""
    rng = np.random.default_rng(3)
    spaces = [*instances, *((name, scramble(m, rng)[0]) for name, m in instances)]
    start = time.monotonic()
    worst = 0.0
    for name, m in spaces:
        rep = tern.check_axioms(m, tol=1e-8)
        worst = max(worst, max(rep.residuals.values()))
        assert rep.passed, (name, rep.residuals)
    elapsed = time.monotonic() - start
    _report("criterion 2: axiom suite on 20 instances and 20 scrambles",
            worst <= 1e-8 and elapsed < 60.0,
            f"worst residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_zettl_recovery():
    """Scrambled bases: dims recovered, subspace distance <= 1e-8, opposite swaps."""
    rng = np.random.default_rng(42)
    worst_dist = 0.0
    for k, (name, m, dp, dm) in enumerate(mixed_split_instances()):
        ms, s = scramble(m, rng)
        split = tern.zettl_decompose(ms)
        assert (split.plus.dim, split.minus.dim) == (dp, dm), name
        # map recovered coordinates back to the original block basis
        base = tern.zettl_decompose(m)
        p_rec = mk.colspace(s @ split.plus_coords)
        n_rec = mk.colspace(s @ split.minus_coords)
        worst_dist = max(worst_dist,
                         mk.subspace_distance(p_rec, base.plus_coords),
                         mk.subspace_distance(n_rec, base.minus_coords))
        swapped = tern.zettl_decompose(tern.opposite(ms))
        assert (swapped.plus.dim, swapped.minus.dim) == (dm, dp), name
    _report("criterion 3: Zettl recovery on 20 scrambled instances",
            worst_dist <= 1e-8, f"worst subspace distance {worst_dist:.2e}")


def test_criterion_4_semisimplicity(instances):
    """Ternary and embedding radicals vanish; nilpotent control is caught."""
    for k, (name, m) in enumerate(instances):
        assert rad.ternary_radical(m).shape[1] == 0, name
        alg = rad.assoc_of_embedding(emb.build_embedding(m))
        assert rad.jacobson_radical(alg).shape[1] == 0, name
    t = np.zeros((2, 2, 2), dtype=np.complex128)
    t[0, 0, 0] = t[0, 1, 1] = t[1, 0, 1] = 1.0
    control = rad.jacobson_radical(rad.AssocAlgebra(table=t))
    control_ok = control.shape[1] == 1 and abs(abs(control[1, 0]) - 1) <= 1e-12
    _report("criterion 4: semisimplicity on 20 instances + nilpotent control",
            control_ok, "all radicals 0, control radical dim 1")


def test_criterion_5_lemma_suite(instances):
    """Corner equivalence, symmetry, shifting: 500 trials each, no counterexamples."""
    small = [(n, m) for n, m in instances if m.dim <= 9][:8]
    rng = np.random.default_rng(5150)
    counter = {"corner": 0, "symmetry": 0, "shifting": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BorderlineWarning)
        per = 500 // len(small) + 1
        done = 0
        for name, m in small:
            e = emb.build_embedding(m)
            alg = rad.assoc_of_embedding(e)
            for _ in range(min(per, 500 - done)):
                if not rad.check_corner_qi_equivalence(
                        m, trials=1, seed=int(rng.integers(2 ** 31)),
                        embedding=e, algebra=alg):
                    counter["corner"] += 1
                done += 1
        # symmetry: the twisted 2x2 algebra and embedding algebras
        e_anti = emb.build_embedding(tern.scalar_space(-1))
        alg_anti = rad.assoc_of_embedding(e_anti)
        e_mix = emb.build_embedding(small[2][1])
        alg_mix = rad.assoc_of_embedding(e_mix)
        for k in range(500):
            alg = alg_anti if k % 2 == 0 else alg_mix
            x, y = alg.random_element(rng), alg.random_element(rng)
            if not rad.check_symmetry_principle(alg, x, y):
                counter["symmetry"] += 1
        # shifting: diagonal and off-diagonal Peirce compressions
        comp = rad.corner_compressions(e_mix)
        rad._validate_shifting_maps(alg_mix, comp["LL"], comp["LL"], tol=1e-8)
        rad._validate_shifting_maps(alg_mix, comp["LR"], comp["RL"], tol=1e-8)
        for k in range(500):
            phi, psi = (comp["LL"], comp["LL"]) if k % 2 == 0 else (comp["LR"],
                                                                    comp["RL"])
            x, y = alg_mix.random_element(rng), alg_mix.random_element(rng)
            if not rad.check_shifting_principle(alg_mix, phi, psi, x, y,
                                                validate=False):
                counter["shifting"] += 1
    _report("criterion 5: lemma suite (corner/symmetry/shifting, 500 trials each)",
            all(v == 0 for v in counter.values()),
            f"counterexamples {counter}")


def test_criterion_6_pi_representation(instances):
    """Homomorphism <= 1e-9 on 200 pairs, trivial kernel, certified bounds."""
    rng = np.random.default_rng(6)
    worst_hom, worst_margin = 0.0, 0.0
    for k, (name, m) in enumerate(instances):
        e = emb.build_embedding(m)
        assert emb.pi_kernel_gap(e) > 1e-9, name
        scale_worst = 0.0
        for _ in range(200):
            a, b = e.random_element(rng).coords, e.random_element(rng).coords
            lhs = emb.pi_represent(e, e.mul_coords(a, b)).matrix
            rhs = emb.pi_represent(e, a).matrix @ emb.pi_represent(e, b).matrix
            scale = max(1.0, float(np.abs(lhs).max(initial=0.0)))
            scale_worst = max(scale_worst, float(np.abs(lhs - rhs).max()) / scale)
        worst_hom = max(worst_hom, scale_worst)
        assert scale_worst <= 1e-9, name
        for j in range(4):
            a = e.random_element(rng)
            rep = emb.pi_norm_lower_bounds(e, a, tol=1e-8)
            assert rep.ok, (name, rep.to_dict())
            worst_margin = min(worst_margin, rep.margin)
    _report("criterion 6: pi representation on 20 instances",
            worst_hom <= 1e-9,
            f"worst residual {worst_hom:.2e}, worst bound margin {worst_margin:.2e}")


def test_criterion_7_wedderburn():
    """Solver and closed form on the twisted 2x2 algebra."""
    e = emb.build_embedding(tern.scalar_space(-1))
    alg = rad.assoc_of_embedding(e)
    m2 = rad.matrix_algebra(2)
    sol = wed.solve_wedderburn(alg, 2, seed=0)
    closed = wed.verify_isomorphism(wed.m2_closed_form(), alg, m2)
    _, dev = wed.star_obstruction(sol.phi, alg, m2)
    rng = np.random.default_rng(7)
    agree = True
    for _ in range(200):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        wed.det_invertibility(alg, v)  # raises on disagreement
    _report("criterion 7: Wedderburn isomorphism",
            sol.residual <= 1e-8 and closed.max_residual <= 1e-12
            and dev >= 0.5 and agree,
            f"solver {sol.residual:.2e}, closed form {closed.max_residual:.2e}, "
            f"star deviation {dev:.3f}, 200 det agreements")


def test_criterion_8_cstar_identity_witness(instances):
    """Gap >= 0.5 on twisted parts; identity holds to 1e-8 on pure TRO parts."""
    worst_gap = np.inf
    witnessed = 0
    for k, (name, m) in enumerate(instances):
        if all(b.sign > 0 for b in m.blocks):
            continue
        e = emb.build_embedding(m)
        out = emb.cstar_identity_witness(e)
        assert out is not None, name
        worst_gap = min(worst_gap, out[1])
        witnessed += 1
    tro_resid = 0.0
    checked = 0
    for k, (name, m) in enumerate(instances):
        if any(b.sign < 0 for b in m.blocks):
            continue
        e = emb.build_embedding(m)
        assert emb.cstar_identity_witness(e) is None, name
        tro_resid = max(tro_resid,
                        cstar_identity_residual(e, samples=200, seed=k))
        checked += 1
    _report("criterion 8: C*-identity witness",
            worst_gap >= 0.5 and tro_resid <= 1e-8,
            f"min gap {worst_gap:.3f} on {witnessed} twisted instances, "
            f"TRO residual {tro_resid:.2e} on {checked} instances")


def _coord_gen(dim, i):
    g = np.zeros(dim, dtype=np.complex128)
    g[i] = 1.0
    return g


def test_criterion_9_ideals_and_quotients(instances):
    """Embedded ideals, exact quotient associativity, norms, Zettl additivity."""
    rng = np.random.default_rng(9)
    by_name = dict(instances)
    # (instance, generator): coordinate generators in reducible spaces give
    # proper ideals, random generators in simple blocks give full ones
    cases = [
        ("mixed-2", _coord_gen(2, 0)),
        ("mixed-2", _coord_gen(2, 1)),
        ("diag-2-tro", _coord_gen(2, 0)),
        ("diag-3-anti", _coord_gen(3, 2)),
        ("offdiag-tro", _coord_gen(2, 1)),
        ("mix-full-scalar", _coord_gen(5, 4)),
        ("mix-three-blocks", _coord_gen(5, 0)),
        ("mix-anti-diag", _coord_gen(6, 5)),
        ("full-2x2-tro", by_name["full-2x2-tro"].random_element(rng).coords),
        ("full-3x2-anti", by_name["full-3x2-anti"].random_element(rng).coords),
    ]
    ideals_done = 0
    cosets_done = 0
    worst_norm_identity = 0.0
    for k, (name, gen) in enumerate(cases):
        m = by_name[name]
        ideal = idl.generated_ideal(m, [gen])
        assert ideal.dim > 0, name
        e = emb.build_embedding(m)
        span = idl.embed_ideal(e, ideal)       # raises unless assoc ideal
        corners = emb.peirce_split(e, span)
        assert corners.dims[1] == ideal.dim
        ideals_done += 1
        if ideal.dim == m.dim:
            continue
        q = idl.quotient(m, ideal)
        assert q.structure.associativity_residual() <= 1e-9
        expected = idl.quotient_zettl_dims(m, ideal)
        split = tern.zettl_decompose(q)
        assert (split.plus.dim, split.minus.dim) == expected, name
        for _ in range(7):
            f = m.random_element(rng).coords
            ub = idl.quotient_norm(m, ideal, f, seed=cosets_done).upper
            if ub <= 1e-6:
                continue
            f = f / ub
            fff = tern.triple(m, f, f, f).coords
            ub3 = idl.quotient_norm(m, ideal, fff, seed=cosets_done).upper
            worst_norm_identity = max(worst_norm_identity, abs(ub3 - 1.0))
            cosets_done += 1
    _report("criterion 9: ideals and quotients",
            ideals_done >= 10 and cosets_done >= 50
            and worst_norm_identity <= 1e-5,
            f"{ideals_done} embedded ideals, {cosets_done} cosets, "
            f"norm identity residual {worst_norm_identity:.2e}")
