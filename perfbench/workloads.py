"""The three closed-loop workloads: inputs, operations and output checks.

One caller in one process issues every operation; each starts when the
previous one returns.  ``prepare(name, seed)`` computes, once and untimed,
what is the benchmark's own work: the checks' expected answers and, for
structure-cli, the scrambled tensors.  ``build(name, seed, workdir, plan)``
does the timed set-up, the program's work (input generation through
ternlab, instance files, embeddings), and returns the list of operations
of one pass.  An operation returns its output, and its check
turns that output into a list of problems; an operation that raises or
whose list is non-empty counts as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import inputs
from ternlab import cli
from ternlab import embedding as emb
from ternlab import ideals as idl
from ternlab import ternary as tern

WORKLOADS = ("catalog-cli", "structure-cli", "ideal-lattice")

PI_HOM_TOL = 1e-9
WITNESS_GAP_MIN = 0.5
WEDDERBURN_TOL = 1e-8
QUOTIENT_ASSOC_TOL = 1e-9
QUOTIENT_NORM_TOL = 1e-5
# the structure-cli radical skips the 16-dim instance: its envelope alone
# takes seconds, more than one operation can make steady
STRUCTURE_RADICAL_MAX_DIM = 9


@dataclass
class Op:
    """One operation: ``run()`` does the work, ``check(out)`` lists problems."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list]


# ---------------------------------------------------------------------------
# CLI workloads


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--format", "json"], out=out)
    return code, out.getvalue(), err.getvalue()


def _cli_check(expect):
    """Check a CLI result: exit 0, a passing report, then ``expect(details)``."""
    def check(result):
        code, text, err = result
        if code != 0:
            return [f"exit code {code}: {err.strip()[:200]}"]
        report = json.loads(text)
        if report.get("passed") is not True:
            return ["report did not pass"]
        return expect(report["details"])
    return check


def _expect_split(dims):
    def expect(d):
        got = (d["dim_plus"], d["dim_minus"])
        return [] if got == tuple(dims) else [f"split dims {got} != {tuple(dims)}"]
    return expect


def _expect_radical_zero(d):
    bad = [f"{k} = {d[k]}" for k in ("radical_dim", "embedding_radical_dim")
           if d.get(k, 0) != 0]
    return [f"nonzero radical: {', '.join(bad)}"] if bad else []


def _expect_embed(twisted):
    def expect(d):
        out = []
        if not d["pi_homomorphism_residual"] <= PI_HOM_TOL:
            out.append(f"pi residual {d['pi_homomorphism_residual']:.2e}")
        wit = d["cstar_witness"]
        if twisted and (wit is None or not wit["gap"] >= WITNESS_GAP_MIN):
            out.append(f"witness {wit and wit['gap']} below {WITNESS_GAP_MIN}")
        if not twisted and wit is not None:
            out.append("witness on an untwisted instance")
        return out
    return expect


def _expect_quotient(dim, ideal_dim, zettl):
    def expect(d):
        out = []
        if (d["ideal_dim"], d["quotient_dim"]) != (ideal_dim, dim - ideal_dim):
            out.append(f"ideal/quotient dims {d['ideal_dim']}/{d['quotient_dim']} != "
                       f"{ideal_dim}/{dim - ideal_dim}")
        if zettl is not None and not (
                tuple(d["quotient_zettl_dims"]) == tuple(d["expected_zettl_dims"])
                == tuple(zettl)):
            out.append(f"quotient Zettl dims {d['quotient_zettl_dims']} / "
                       f"{d['expected_zettl_dims']} != {list(zettl)}")
        return out
    return expect


def _expect_wedderburn(d):
    return [] if d["residual"] <= WEDDERBURN_TOL else [f"residual {d['residual']:.2e}"]


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload))  # dumps uses the C encoder, dump does not
    return path


def _ideal_file(workdir, name, gen):
    return _write_json(os.path.join(workdir, f"{name}.ideal.json"),
                       {"generators": [cli._encode_array(np.asarray(gen, complex))]})


def _catalog_expect(seed):
    return [(inputs.ideal_closure(m, np.eye(m.dim)[0]), inputs.sign_dims(m))
            for _, m in inputs.catalog()]


def _catalog_cli(seed, workdir, plan):
    ops = []
    for (name, m), ((ideal_dim, (ip, im)), (plus, minus)) in zip(inputs.catalog(), plan):
        path = _write_json(os.path.join(workdir, f"{name}.json"),
                           cli.to_instance_dict(m, name))
        common = [path, "--seed", str(seed)]
        ideal = ["--ideal", _ideal_file(workdir, name, np.eye(m.dim)[0])]
        ops += [
            Op(f"verify:{name}", lambda a=["verify"] + common: _cli(a),
               _cli_check(lambda d: [])),
            Op(f"decompose:{name}", lambda a=["decompose"] + common: _cli(a),
               _cli_check(_expect_split((plus, minus)))),
            Op(f"embed:{name}", lambda a=["embed"] + common: _cli(a),
               _cli_check(_expect_embed(minus > 0))),
            Op(f"radical:{name}", lambda a=["radical"] + common: _cli(a),
               _cli_check(_expect_radical_zero)),
            Op(f"quotient:{name}", lambda a=["quotient"] + common + ideal: _cli(a),
               _cli_check(_expect_quotient(m.dim, ideal_dim, (plus - ip, minus - im)))),
        ]
        # the Gauss-Newton solver only finishes onto M_2, i.e. on the two
        # scalar instances, whose embeddings are 4-dimensional
        if m.dim == 1:
            ops.append(Op(f"wedderburn:{name}",
                          lambda a=["wedderburn"] + common: _cli(a),
                          _cli_check(_expect_wedderburn)))
    return ops


def _structure_expect(seed):
    """Per instance: name, dim, scrambled tensor, ideal dim and sign dims."""
    rng = np.random.default_rng(seed)
    out = []
    for name, m in inputs.catalog():
        c, basis = inputs.scramble(m, rng)
        # new basis vector 0 has old coordinates basis[:, 0]
        ideal_dim, _ = inputs.ideal_closure(m, basis[:, 0])
        out.append((name, m.dim, c, ideal_dim, inputs.sign_dims(m)))
    return out


def _structure_cli(seed, workdir, plan):
    ops = []
    for name, dim, c, ideal_dim, signs in plan:
        space = tern.TernarySpace.from_structure(c, validate=False)
        path = _write_json(os.path.join(workdir, f"{name}.json"),
                           cli.to_instance_dict(space, name))
        common = [path, "--seed", str(seed)]
        ideal = ["--ideal", _ideal_file(workdir, name, np.eye(dim)[0])]
        ops += [
            Op(f"verify:{name}", lambda a=["verify"] + common: _cli(a),
               _cli_check(lambda d: [])),
            Op(f"decompose:{name}", lambda a=["decompose"] + common: _cli(a),
               _cli_check(_expect_split(signs))),
            Op(f"quotient:{name}", lambda a=["quotient"] + common + ideal: _cli(a),
               _cli_check(_expect_quotient(dim, ideal_dim, None))),
        ]
        if dim <= STRUCTURE_RADICAL_MAX_DIM:
            ops.append(Op(f"radical:{name}", lambda a=["radical"] + common: _cli(a),
                          _cli_check(_expect_radical_zero)))
    return ops


# ---------------------------------------------------------------------------
# Library workload


def _lattice_ops(name, m, e, block, gen, expected, cosets):
    """Operations on the ideal generated by one block coordinate.

    Later operations read the ideal (and the coset norms) that earlier ones
    of the same pass left in ``state``, so a failure propagates as failures.
    """
    state = {}
    (ideal_dim, (ip, im)), (plus, minus) = expected
    tag = f"{name}/b{block}"

    def gen_ideal():
        state.clear()
        state["ideal"] = idl.generated_ideal(m, [gen])
        return state["ideal"]

    def check_gen(ideal):
        return [] if ideal.dim == ideal_dim else [f"ideal dim {ideal.dim} != {ideal_dim}"]

    def check_embed(span):
        corners = emb.peirce_split(e, span)
        return ([] if corners.dims[1] == ideal_dim
                else [f"Peirce M-corner dim {corners.dims[1]} != {ideal_dim}"])

    def check_quotient(q):
        out = [] if q.dim == m.dim - ideal_dim else [f"quotient dim {q.dim}"]
        resid = q.structure.associativity_residual()
        if not resid <= QUOTIENT_ASSOC_TOL:
            out.append(f"quotient associativity residual {resid:.2e}")
        return out

    def check_zettl(dims):
        want = (plus - ip, minus - im)
        return [] if tuple(dims) == want else [f"quotient Zettl dims {dims} != {want}"]

    ops = [
        Op(f"generated_ideal:{tag}", gen_ideal, check_gen),
        Op(f"embed_ideal:{tag}", lambda: idl.embed_ideal(e, state["ideal"]), check_embed),
        Op(f"quotient:{tag}", lambda: idl.quotient(m, state["ideal"]), check_quotient),
        Op(f"quotient_zettl_dims:{tag}",
           lambda: idl.quotient_zettl_dims(m, state["ideal"]), check_zettl),
    ]
    for k, f in enumerate(cosets):
        def norm_f(f=f, k=k):
            res = idl.quotient_norm(m, state["ideal"], f, seed=k)
            state[k] = res.upper
            return res

        def norm_cube(f=f, k=k):
            fn = f / state[k]
            fff = tern.triple(m, fn, fn, fn).coords
            return idl.quotient_norm(m, state["ideal"], fff, seed=k)

        def check_f(res):
            return ([] if 0.0 < res.upper and res.lower <= res.upper + 1e-9
                    else [f"bounds lower {res.lower} upper {res.upper}"])

        def check_cube(res):
            return ([] if abs(res.upper - 1.0) <= QUOTIENT_NORM_TOL
                    else [f"|| [fff] + J || = {res.upper!r}, not 1"])

        ops += [Op(f"quotient_norm:{tag}/f{k}", norm_f, check_f),
                Op(f"quotient_norm:{tag}/fff{k}", norm_cube, check_cube)]
    return ops


def _lattice_gens(m):
    return [np.eye(m.dim, dtype=np.complex128)[sl.start] for sl in m.block_slices]


def _lattice_expect(seed):
    """Per space, per block: the closure of the ideal its first coordinate
    generates, and the space's sign dims."""
    return [[(inputs.ideal_closure(m, gen), inputs.sign_dims(m)) for gen in _lattice_gens(m)]
            for _, m in inputs.lattice_spaces()]


def _ideal_lattice(seed, workdir, plan):
    rng = np.random.default_rng(seed)
    ops = []
    for (name, m), expected in zip(inputs.lattice_spaces(), plan):
        e = emb.build_embedding(m)
        for block, (gen, want) in enumerate(zip(_lattice_gens(m), expected)):
            cosets = [m.random_element(rng).coords for _ in range(2)]
            ops += _lattice_ops(name, m, e, block, gen, want, cosets)
    return ops


_WORKLOADS = {
    "catalog-cli": (_catalog_expect, _catalog_cli),
    "structure-cli": (_structure_expect, _structure_cli),
    "ideal-lattice": (_lattice_expect, _ideal_lattice),
}


def prepare(name, seed):
    """The benchmark's own untimed work for ``build``: expected answers, scrambles."""
    return _WORKLOADS[name][0](seed)


def build(name, seed, workdir, plan):
    """Set up a workload in ``workdir``; returns the operations of one pass."""
    os.makedirs(workdir, exist_ok=True)
    return _WORKLOADS[name][1](seed, workdir, plan)
