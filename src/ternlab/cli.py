"""Command-line front end.

Instance files are JSON with complex scalars encoded as [re, im] pairs:

    {"name": "...", "blocks": [{"sign": 1, "rows": 2, "cols": 2,
                                "basis": [[[[1,0],[0,0]], ...], ...]}]}
or
    {"name": "...", "structure_constants": {"dim": 2, "c": [...]}}

Exit codes: 0 on pass/success, 1 on a property failure, 2 on input
errors.  ``--format json`` emits one machine-readable report object on
stdout; the schema is documented in the README.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import embedding as emb
from . import ideals as idl
from . import radical as rad
from . import ternary as tern
from . import wedderburn as wed
from .errors import (
    DecompositionInconclusive,
    NotAnIdeal,
    TernlabError,
)

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_INPUT_ERROR = 2


# ---------------------------------------------------------------------------
# Instance file format


def _encode_array(a: np.ndarray):
    """Nested lists of [re, im] float pairs, one pair per entry."""
    a = np.asarray(a, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _decode_array(data, depth: int) -> np.ndarray:
    # numpy infers bool from true/false, str from strings and object from
    # null, objects or integers past 64 bits: one dtype check rejects them
    # all, with no pass over the entries
    arr = np.asarray(data)
    if arr.dtype.kind not in "iuf":
        raise ValueError("expected numbers in [re, im] pairs")
    if arr.ndim != depth + 1 or arr.shape[-1] != 2:
        raise ValueError(f"expected nesting depth {depth} of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def to_instance_dict(m: tern.TernarySpace, name: str = "instance") -> dict:
    if m.is_block:
        blocks = []
        for b in m.blocks:
            blocks.append({
                "sign": int(b.sign), "rows": b.rows, "cols": b.cols,
                "basis": [_encode_array(np.asarray(mat)) for mat in b.basis],
            })
        return {"name": name, "blocks": blocks}
    return {"name": name, "structure_constants": {
        "dim": m.dim, "c": _encode_array(np.asarray(m.structure.c))}}


def _typed(value, kind, what):
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a {kind.__name__}, not {type(value).__name__}")
    return value


def _int(value, what) -> int:
    if type(value) is not int:  # a JSON integer; bool is an int subclass
        raise ValueError(f"{what} must be an integer")
    return value


def parse_instance_dict(data: dict, validate: bool = True) -> tuple:
    """Returns (name, TernarySpace); raises ValueError on malformed data."""
    if not isinstance(data, dict):
        raise ValueError("instance file must hold a JSON object")
    name = data.get("name", "instance")
    has_blocks = "blocks" in data
    has_struct = "structure_constants" in data
    if has_blocks == has_struct:
        raise ValueError("exactly one of 'blocks'/'structure_constants' required")
    if has_blocks:
        entries = _typed(data["blocks"], list, "'blocks'")
        if not entries:
            raise ValueError("'blocks' must list at least one block")
        blocks = []
        for entry in entries:
            _typed(entry, dict, "each block")
            sign = _int(entry["sign"], "'sign'")
            rows, cols = _int(entry["rows"], "'rows'"), _int(entry["cols"], "'cols'")
            basis = tuple(_decode_array(mat, 2)
                          for mat in _typed(entry["basis"], list, "'basis'"))
            blocks.append(tern.SignedBlock(sign, rows, cols, basis))
        space = tern.TernarySpace.from_blocks(blocks, validate=validate)
        if not validate:
            # verify reports a span that is not closed; a dependent basis presents nothing
            for b in space.blocks:
                b.check_independent()
        return name, space
    sc = _typed(data["structure_constants"], dict, "'structure_constants'")
    c = _decode_array(sc["c"], 4)
    if c.shape != (_int(sc["dim"], "'dim'"),) * 4:
        raise ValueError("tensor shape disagrees with declared dim")
    return name, tern.TernarySpace.from_structure(c, validate=validate)


def load_instance(path: str, validate: bool = True) -> tuple:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return parse_instance_dict(data, validate=validate)


# ---------------------------------------------------------------------------
# Bundled demo instances


def _demo_spaces() -> dict:
    return {
        "scalar-tro": lambda: tern.scalar_space(+1),
        "scalar-anti": lambda: tern.scalar_space(-1),
        "mixed-2": lambda: tern.direct_sum(tern.scalar_space(+1), tern.scalar_space(-1)),
        "diag-tro-2": lambda: tern.diagonal_space(2, +1),
    }


# m2-anti prints the twisted 2x2 table instead of checking a space
DEMO_NAMES = tuple(sorted([*_demo_spaces(), "m2-anti"]))


# ---------------------------------------------------------------------------
# Commands


def _cmd_verify(m, name, args):
    report = tern.check_axioms(m, tol=args.tol)
    details = report.to_dict()
    if not report.passed:
        worst_name, worst = report.worst()
        details["failing_identity"] = worst_name
        details["failing_residual"] = worst
    return report.passed, details


def _cmd_decompose(m, name, args):
    split = tern.zettl_decompose(m, tol=args.tol)
    details = {
        "dim": m.dim,
        "dim_plus": split.plus.dim,
        "dim_minus": split.minus.dim,
        "plus_coords": _encode_array(split.plus_coords),
        "minus_coords": _encode_array(split.minus_coords),
    }
    return True, details


def _cmd_embed(m, name, args):
    e = emb.build_embedding(m)
    unit = emb.identity_of(e)
    gap = emb.pi_kernel_gap(e)
    rng = np.random.default_rng(args.seed)
    pairs = np.array([[e.random_element(rng).coords for _ in range(2)] for _ in range(50)])
    # xy is the direct product, so this checks pi's table against mul_coords
    products = e.mul_coords(pairs[:, 0], pairs[:, 1])
    pi = emb.pi_represent(e, np.concatenate([products[:, None], pairs], axis=1)).matrix
    hom_resid = float(np.abs(pi[:, 0] - pi[:, 1] @ pi[:, 2]).max(initial=0.0))
    wit = emb.cstar_identity_witness(e)
    details = {
        "dim": e.dim,
        "corner_dims": {k: int(v.size) for k, v in e.corner_indices.items()},
        "unit": _encode_array(unit.coords),
        "pi_kernel_gap": gap,
        "pi_homomorphism_residual": hom_resid,
        "cstar_witness": None if wit is None else {
            "element": _encode_array(wit[0].coords), "gap": wit[1]},
    }
    passed = gap > 1e-9 and hom_resid <= max(args.tol, 1e-9)
    return passed, details


def _cmd_radical(m, name, args):
    if m.is_block:
        # the embedding's radical once, for its dimension and its M-corner
        e = emb.build_embedding(m)
        erad = rad.jacobson_radical(rad.assoc_of_embedding(e))
        basis = rad.m_corner(erad, e.corner_indices["M"])
    else:
        basis = rad.ternary_radical(m)
    details = {"radical_dim": int(basis.shape[1]),
               "semisimple": basis.shape[1] == 0}
    if m.is_block:
        details["embedding_radical_dim"] = int(erad.shape[1])
    # valid instances are semisimple; a nonzero radical is a property failure
    return details["semisimple"], details


def _cmd_quotient(m, name, args):
    if not args.ideal:
        raise ValueError("quotient needs --ideal <file> with generator coordinates")
    with open(args.ideal, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    _typed(data, dict, "the ideal file")
    gens = [_decode_array(g, 1) for g in _typed(data.get("generators"), list, "'generators'")]
    ideal = idl.generated_ideal(m, gens)
    q = idl.quotient(m, ideal)
    details = {
        "ideal_dim": ideal.dim,
        "quotient_dim": q.dim,
        "quotient_structure_constants": _encode_array(np.asarray(q.structure.c)),
    }
    if m.is_block:
        details["expected_zettl_dims"] = list(idl.quotient_zettl_dims(m, ideal))
        split = tern.zettl_decompose(q)
        details["quotient_zettl_dims"] = [split.plus.dim, split.minus.dim]
        passed = details["expected_zettl_dims"] == details["quotient_zettl_dims"]
        return passed, details
    return True, details


def _cmd_wedderburn(m, name, args):
    e = emb.build_embedding(m)
    alg = rad.assoc_of_embedding(e)
    n = math.isqrt(e.dim)
    sol = wed.solve_wedderburn(alg, n, seed=args.seed)
    target = rad.matrix_algebra(n)
    _, dev = wed.star_obstruction(sol.phi, alg, target)
    details = {
        "target_dim": n,
        "residual": sol.residual,
        "condition": sol.condition,
        "star_deviation": dev,
        "phi": _encode_array(sol.phi),
    }
    passed = sol.residual <= args.tol
    return passed, details


_M2_LABELS = ("E11", "E12", "E21", "E22")

# cell (i, j) of the twisted 2x2 product table: E_i . E_j
M2_ANTI_TABLE = (
    ("-E11", "-E12", "0", "0"),
    ("0", "0", "E11", "-E12"),
    ("-E21", "E22", "0", "0"),
    ("0", "0", "-E21", "-E22"),
)


def _coords_label(v) -> str:
    v = np.round(np.asarray(v), 12)
    terms = []
    for i, c in enumerate(v):
        if c == 0:
            continue
        if c == 1:
            terms.append(_M2_LABELS[i])
        elif c == -1:
            terms.append("-" + _M2_LABELS[i])
        else:
            terms.append(f"({c}){_M2_LABELS[i]}")
    return "+".join(terms).replace("+-", "-") if terms else "0"


def _cmd_demo_m2_anti(args, out):
    m = tern.scalar_space(-1)
    e = emb.build_embedding(m)
    eye = np.eye(4, dtype=np.complex128)
    mismatches = []
    table = {}
    for i in range(4):
        for j in range(4):
            got = _coords_label(emb.emb_mul(e, eye[i], eye[j]).coords)
            want = M2_ANTI_TABLE[i][j]
            table[f"{_M2_LABELS[i]}.{_M2_LABELS[j]}"] = got
            if got != want:
                mismatches.append((_M2_LABELS[i], _M2_LABELS[j], got, want))
    if args.format == "text":
        print("multiplication table of the twisted 2x2 algebra:", file=out)
        header = "      " + "  ".join(f"{l:>5}" for l in _M2_LABELS)
        print(header, file=out)
        for i in range(4):
            cells = "  ".join(
                f"{table[f'{_M2_LABELS[i]}.{_M2_LABELS[j]}']:>5}" for j in range(4))
            print(f"{_M2_LABELS[i]:>5} {cells}", file=out)
    details = {"table": table, "cells_checked": 16, "mismatches": len(mismatches)}
    return len(mismatches) == 0, details


def _cmd_demo(args, out):
    name = args.name
    if name == "m2-anti":
        return _cmd_demo_m2_anti(args, out)
    spaces = _demo_spaces()
    if name not in spaces:
        raise ValueError(f"unknown demo '{name}'; available: {', '.join(DEMO_NAMES)}")
    m = spaces[name]()
    axioms = tern.check_axioms(m, tol=args.tol)
    split = tern.zettl_decompose(m)
    radical = rad.ternary_radical(m)
    details = {
        "instance": to_instance_dict(m, name),
        "axioms": axioms.to_dict(),
        "dim_plus": split.plus.dim,
        "dim_minus": split.minus.dim,
        "radical_dim": int(radical.shape[1]),
        "semisimple": radical.shape[1] == 0,
    }
    return axioms.passed and radical.shape[1] == 0, details


# ---------------------------------------------------------------------------
# Entry point

COMMANDS = {
    "verify": _cmd_verify,
    "decompose": _cmd_decompose,
    "embed": _cmd_embed,
    "radical": _cmd_radical,
    "quotient": _cmd_quotient,
    "wedderburn": _cmd_wedderburn,
}


def _tolerance(text: str) -> float:
    tol = float(text)
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"--tol must be finite and positive, got {text}")
    return tol


@functools.cache  # parse_args leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ternlab",
        description="Verify and dissect finite-dimensional C*-ternary rings.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_file=True):
        if needs_file:
            p.add_argument("file", help="instance JSON file")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: $TERNLAB_SEED or 0)")
        p.add_argument("--tol", type=_tolerance, default=1e-8)
        p.add_argument("--format", choices=("text", "json"), default="text")

    for name in ("verify", "decompose", "embed", "radical", "wedderburn"):
        common(sub.add_parser(name))
    pq = sub.add_parser("quotient")
    common(pq)
    pq.add_argument("--ideal", required=True,
                    help="JSON file with {'generators': [coords]}")
    pd = sub.add_parser("demo")
    pd.add_argument("name", choices=DEMO_NAMES)
    common(pd, needs_file=False)
    return parser


def _emit(args, command, instance, passed, details, out):
    code = EXIT_OK if passed else EXIT_PROPERTY_FAILURE
    report = {
        "tool": "ternlab",
        "version": __version__,
        "command": command,
        "instance": instance,
        "seed": args.seed,
        "passed": bool(passed),
        "exit_code": code,
        "details": details,
    }
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True), file=out)
    else:
        status = "PASS" if passed else "FAIL"
        print(f"[{status}] {command} on {instance}", file=out)
        for key, val in details.items():
            if isinstance(val, (int, float, bool, str)) or val is None:
                print(f"  {key}: {val}", file=out)
            elif isinstance(val, dict) and key in ("residuals", "corner_dims"):
                for k2, v2 in val.items():
                    print(f"  {key}.{k2}: {v2}", file=out)
    return code


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else 0
    if args.seed is None:
        args.seed = int(os.environ.get("TERNLAB_SEED", "0"))

    try:
        # an overflow or invalid value means the instance's scale left double
        # precision; it is an input error, not a NaN residual or a silent pass
        with np.errstate(over="raise", invalid="raise"):
            if args.command == "demo":
                passed, details = _cmd_demo(args, out)
                return _emit(args, "demo", args.name, passed, details, out)
            # the verify command reports algebraic defects instead of rejecting
            validate = args.command != "verify"
            name, space = load_instance(args.file, validate=validate)
            passed, details = COMMANDS[args.command](space, name, args)
            return _emit(args, args.command, name, passed, details, out)
    except FloatingPointError as exc:
        print(f"input error: values out of double range ({exc})", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (DecompositionInconclusive, NotAnIdeal) as exc:
        # the instance parsed, a checked property failed at runtime
        print(f"property failure: {exc}", file=sys.stderr)
        return EXIT_PROPERTY_FAILURE
    except TernlabError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
