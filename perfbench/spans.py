"""Per-layer spans recorded from outside the program.

``Tracer.install()`` replaces each traced function with a wrapper that
records a span (id, parent id, operation index, name, start, end).  The
wrapper is put on the defining module or class and on every ternlab
module that bound the same function object through ``from ... import``,
so internal calls are seen too.  ``uninstall()`` puts the originals back;
untraced passes run the unmodified program.  Spans stay in memory and
are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute path) of every traced function, by layer
TRACED = (
    ("cli", "load_instance"), ("cli", "build_parser"), ("cli", "_emit"),
    ("ternary", "_triple_coords"), ("ternary", "StructureConstants.associativity_residual"),
    ("ternary", "SignedBlock.validate"), ("ternary", "check_axioms"),
    ("ternary", "zettl_decompose"),
    ("embedding", "build_embedding"), ("embedding", "StandardEmbedding.mul_coords"),
    ("embedding", "StandardEmbedding.star_coords"), ("embedding", "StandardEmbedding.norm"),
    ("embedding", "identity_of"), ("embedding", "pi_represent"),
    ("embedding", "pi_kernel_gap"), ("embedding", "cstar_identity_witness"),
    ("embedding", "peirce_split"), ("embedding", "_assoc_ideal_residual"),
    ("radical", "assoc_of_embedding"), ("radical", "AssocAlgebra.validate"),
    ("radical", "structure_envelope"), ("radical", "jacobson_radical"),
    ("radical", "ternary_radical"), ("radical", "quasi_inverse_assoc"),
    ("radical", "quasi_inverse_ternary"),
    ("ideals", "generated_ideal"), ("ideals", "is_ideal"), ("ideals", "embed_ideal"),
    ("ideals", "quotient"), ("ideals", "quotient_zettl_dims"), ("ideals", "quotient_norm"),
    ("wedderburn", "solve_wedderburn"), ("wedderburn", "star_obstruction"),
    ("matkernel", "op_norm"), ("matkernel", "colspace"), ("matkernel", "nullspace"),
    ("matkernel", "solve_linear"),
)

TRIPLE_SPANS = ("ternary.triple_block", "ternary.triple_struct")
QUOTIENT_NORM = "ideals.quotient_norm"
OP_NORM = "matkernel.op_norm"


def span_names():
    """Every span name a traced pass can record, in a fixed order."""
    out = []
    for module, path in TRACED:
        out += TRIPLE_SPANS if path == "_triple_coords" else [f"{module}.{path}"]
    return out


COUNT_SUFFIXES = (".calls", ".rows", ".evals")
EXTREMES = ("embedding.cstar_identity_witness.gap_min", "ideals.quotient_norm.gap_max",
            "wedderburn.solve_wedderburn.residual_max")


def metric_spec():
    """(name, unit, better) of every per-layer metric a traced run reports."""
    out = []
    for name in span_names():
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    out += [(f"{name}.rows", "count", "lower")
            for name in TRIPLE_SPANS + ("embedding.StandardEmbedding.mul_coords",)]
    out.append((f"{QUOTIENT_NORM}.evals", "count", "lower"))
    out += [(key, "norm", "higher" if key.endswith("_min") else "lower") for key in EXTREMES]
    out += [("bench.unattributed_s", "s", "lower"), ("bench.trace_overhead_s", "s", "lower")]
    return out


def combine(summaries):
    """Per-layer metrics of a run, as {name: (value, unit)}, from its traced passes.

    Counts come from the first pass (they repeat exactly at a fixed seed),
    times are means per pass, extremes are taken over all passes.
    """
    first = summaries[0]
    out = {}
    for key in first:
        values = [s[key] for s in summaries]
        if key.endswith(COUNT_SUFFIXES):
            out[key] = (first[key], "count")
        elif key.endswith("_s"):
            out[key] = (sum(values) / len(values), "s")
        else:
            out[key] = (min(values) if key.endswith("_min") else max(values), "norm")
    return out


def counts_repeat(summaries):
    """Whether every traced pass made exactly the same calls."""
    counts = [{k: v for k, v in s.items() if k.endswith(COUNT_SUFFIXES)} for s in summaries]
    return all(c == counts[0] for c in counts)


def _rows(*arrays):
    shape = np.broadcast_shapes(*(np.shape(a)[:-1] for a in arrays))
    return int(np.prod(shape, dtype=np.int64))


class Tracer:
    """Spans of traced passes, plus the counters read off arguments and results."""

    def __init__(self):
        self.spans = []      # [pass, id, parent, op, name, t0, t1]
        self.counters = defaultdict(float)
        self.pass_index = 0
        self.op = -1
        self._stack = []
        self._undo = []
        self._first_span = 0

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, namer=None, on_call=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op < 0:  # outside an operation, e.g. in its check
                return fn(*args, **kwargs)
            label = namer(args) if namer else name
            sid = len(spans)
            span = [self.pass_index, sid, stack[-1] if stack else -1, self.op, label,
                    time.perf_counter(), 0.0]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[6] = time.perf_counter()
                stack.pop()
            if on_call:
                on_call(label, args, result)
            return result
        return wrapper

    def _count_rows(self, label, args, result):
        self.counters[f"{label}.rows"] += _rows(*args[1:4])

    def _on_witness(self, label, args, result):
        if result is not None:
            key = f"{label}.gap_min"
            gap = float(result[1])
            self.counters[key] = min(self.counters.get(key, gap), gap)

    def _on_quotient_norm(self, label, args, result):
        key = f"{label}.gap_max"
        self.counters[key] = max(self.counters.get(key, 0.0), float(result.gap))

    def _on_wedderburn(self, label, args, result):
        key = f"{label}.residual_max"
        self.counters[key] = max(self.counters.get(key, 0.0), float(result.residual))

    def install(self):
        """Wrap every traced function, wherever ternlab modules bound it."""
        hooks = {
            "_triple_coords": self._count_rows,
            "StandardEmbedding.mul_coords": self._count_rows,
            "cstar_identity_witness": self._on_witness,
            "quotient_norm": self._on_quotient_norm,
            "solve_wedderburn": self._on_wedderburn,
        }
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "ternlab" or n.startswith("ternlab.")]
        for module_name, path in TRACED:
            module = importlib.import_module(f"ternlab.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            orig = owner.__dict__[attr]
            namer = None
            if attr == "_triple_coords":
                namer = lambda args: TRIPLE_SPANS[0 if args[0].is_block else 1]
            wrapped = self._wrap(orig, f"{module_name}.{path}", namer, hooks.get(path))
            targets = [owner] if owner_name else [
                m for m in modules if any(v is orig for v in vars(m).values())]
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is orig:
                        self._undo.append((target, key, value))
                        setattr(target, key, wrapped)

    def uninstall(self):
        while self._undo:
            target, key, value = self._undo.pop()
            setattr(target, key, value)

    # -- summaries ---------------------------------------------------------

    def begin_pass(self, index):
        self.pass_index = index
        self._first_span = len(self.spans)
        self.counters = defaultdict(float)

    def pass_summary(self, op_seconds):
        """Per-layer numbers of the pass that began last.

        Self time is a span's duration minus its children's; spans nest
        within one thread, so children never overlap.  ``op_seconds`` is
        the summed latency of the pass's operations.
        """
        spans = self.spans[self._first_span:]
        base = self._first_span
        calls = defaultdict(int)
        self_s = defaultdict(float)
        top = 0.0
        for _, sid, parent, _, name, t0, t1 in spans:
            dur = t1 - t0
            calls[name] += 1
            self_s[name] += dur
            if parent < 0:
                top += dur
            else:
                self_s[self.spans[parent][4]] -= dur
        evals = 0
        for _, sid, parent, _, name, _, _ in spans:
            if name != OP_NORM:
                continue
            while parent >= base:
                if self.spans[parent][4] == QUOTIENT_NORM:
                    evals += 1
                    break
                parent = self.spans[parent][2]
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in TRIPLE_SPANS + ("embedding.StandardEmbedding.mul_coords",):
            out[f"{name}.rows"] = int(self.counters[f"{name}.rows"])
        for key in EXTREMES:
            out[key] = float(self.counters.get(key, 0.0))
        out[f"{QUOTIENT_NORM}.evals"] = evals
        out["bench.unattributed_s"] = op_seconds - top
        return out

    def write(self, path):
        """All recorded spans as CSV; times in microseconds from the first span."""
        origin = self.spans[0][5] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("pass,id,parent,op,name,start_us,end_us\n")
            for p, sid, parent, op, name, t0, t1 in self.spans:
                fh.write(f"{p},{sid},{parent},{op},{name},"
                         f"{(t0 - origin) * 1e6:.1f},{(t1 - origin) * 1e6:.1f}\n")
