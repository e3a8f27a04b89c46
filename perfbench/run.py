"""ternlab benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload catalog-cli --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; ternlab is imported from ./src.
The run sets up its inputs from the seed, runs the first operation of
every kind once untimed (warm-up), then repeats timed passes over the
workload's operations until about ``--seconds`` have elapsed (at least two
passes, whole passes only).  Times are reported scaled to a nominal host
speed, measured between operations (see hostspeed.py); wall times go to
the run record.

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes (at least two of each,
so that the counts of two traced passes can be compared) and reports
per-layer span metrics per traced pass, plus the tracing overhead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it describes the run: the
machine, a fixed numpy reference-loop time (ungated, to recognise a slow
host), pass and sample counts, and ``fail_ratio``.  Generated inputs, a
run record and, when traced, the span file go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

# one BLAS thread keeps the load on one core and results bit-identical;
# this must happen before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from hostspeed import gap_chunk_s, machine_info, reference_loop_s, scaled_times  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
# two passes put at least 10 samples above p90 on every workload
MIN_PASSES = 2
# times the import of every layer in a fresh interpreter
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
                "import ternlab.cli; print(time.perf_counter() - t0)")


def _import_ternlab():
    """Import ternlab from the checkout's src/."""
    if not (SRC / "ternlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no ternlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ternlab.cli  # noqa: F401  (imports every layer)
    if Path(ternlab.__file__).resolve().parent != (SRC / "ternlab").resolve():
        raise SystemExit(f"error: imported ternlab from {ternlab.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# Passes


def _digest(obj, h):
    """Feed a stable byte form of an operation's output into a hash."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        h.update(str((obj.dtype, obj.shape)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in fields(obj):
            _digest(getattr(obj, f.name), h)
    elif isinstance(obj, (tuple, list)):
        h.update(b"(")
        for x in obj:
            _digest(x, h)
        h.update(b")")
    else:
        h.update(repr(obj).encode())


@dataclass
class PassResult:
    """One pass: per-op wall and scaled seconds, problems (None if fine), output digests."""

    walls: list
    scaled: list
    problems: list
    digests: list


def run_pass(ops, tracer=None):
    """Run every operation once, in order; returns a PassResult.

    Only ``op.run()`` is timed and traced; the host-speed chunks and the
    check run after it, untimed.
    """
    latencies, problems, digests = [], [], []
    gaps = [gap_chunk_s()]
    for i, op in enumerate(ops):
        if tracer:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = op.run()
            err = None
        except Exception as exc:  # a raising operation counts as failed
            out, err = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        if tracer:
            tracer.op = -1
        gaps.append(gap_chunk_s())
        if err is None:
            try:
                found = op.check(out)
            except Exception as exc:  # unreadable output fails its check
                found = [f"check raised {type(exc).__name__}: {exc}"]
            err = "; ".join(found) or None
        problems.append(err)
        h = hashlib.sha256()
        _digest(out, h)
        digests.append(h.hexdigest())
    return PassResult(latencies, scaled_times(latencies, gaps), problems, digests)


def _timed_loop(seconds, one_pass, min_passes=MIN_PASSES):
    """Call one_pass() until about ``seconds`` elapsed, at least ``min_passes`` times.

    A pass starts only if the loop would end nearer the deadline with it
    than without it.
    """
    results = []
    start = time.perf_counter()
    while True:
        results.append(one_pass())
        elapsed = time.perf_counter() - start
        per_pass = elapsed / len(results)
        if len(results) >= min_passes and elapsed + per_pass / 2 >= seconds:
            return results


# ---------------------------------------------------------------------------
# Runs


def _timed_scaled(step):
    """Run step(); returns (its result, wall s, wall s scaled to the nominal host).

    ``step`` returns its own wall time alongside its result, so that it can
    time work done in another process.
    """
    before = gap_chunk_s()
    result, wall = step()
    return result, wall, scaled_times([wall], [before, gap_chunk_s()])[0]


def _import_in_fresh_interpreter():
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], check=True,
                          capture_output=True, text=True, timeout=120)
    return None, float(proc.stdout)


def _setup(workload, seed):
    """Set up SETUP_REPEATS times; returns (ops, median wall s, median scaled s).

    One set-up is the import of ternlab and its dependencies in a fresh
    interpreter, plus input generation through ternlab, instance files and
    embeddings.  The checks' expected answers are computed once beforehand,
    untimed: they are the benchmark's work, not the program's.
    """
    import workloads

    workdir = str(OUT_DIR / f"{workload}-seed{seed}")
    plan = workloads.prepare(workload, seed)

    def build():
        t0 = time.perf_counter()
        ops = workloads.build(workload, seed, workdir, plan)
        return ops, time.perf_counter() - t0

    gap_chunk_s()  # the first chunks pay first-call costs
    walls, scaled = [], []
    for _ in range(SETUP_REPEATS):
        _, import_wall, import_scaled = _timed_scaled(_import_in_fresh_interpreter)
        ops, build_wall, build_scaled = _timed_scaled(build)
        walls.append(import_wall + build_wall)
        scaled.append(import_scaled + build_scaled)
    return ops, statistics.median(walls), statistics.median(scaled)


def warmup_ops(ops):
    """The first operation of every kind, in pass order.

    This pays the first-call costs (lazy imports, LAPACK workspaces) that
    later passes do not see: the first timed pass after it is no slower
    than the later ones, beyond the pass-to-pass noise.  A whole warm-up
    pass would add a third to the length of a run.
    """
    seen, out = set(), []
    for op in ops:
        kind = op.label.split(":")[0]
        if kind not in seen:
            seen.add(kind)
            out.append(op)
    return out


def _quantiles_ms(values, probs):
    """Harrell-Davis estimates: a weighted mean of neighbouring order statistics.

    Op latencies cluster by operation, so a plain percentile that falls in
    a gap between clusters jumps from run to run; this estimator does not.
    """
    from scipy.stats.mstats import hdquantiles

    return [float(q) * 1e3 for q in hdquantiles(values, prob=probs)]


def _latency_metrics(passes):
    """ops_per_s, and latency percentiles pooled over the passes.

    ``passes`` holds each pass's per-op times.  ops_per_s takes each
    operation at its fastest over the passes: a neighbour that stalls the
    host for seconds during one operation (seen as a 2.5x slower 16-dim
    ``verify``) then does not move it, while the percentiles keep every
    sample.
    """
    p50, p90 = _quantiles_ms([t for times in passes for t in times], [0.5, 0.9])
    fastest = [min(times) for times in zip(*passes)]
    return {"ops_per_s": (len(fastest) / sum(fastest), "1/s"),
            "op_p50_ms": (p50, "ms"), "op_p90_ms": (p90, "ms")}


def run(workload, seed, seconds, trace, short=False):
    """One benchmark run; returns (result, info)."""
    _import_ternlab()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    OUT_DIR.mkdir(exist_ok=True)
    info = {"workload": workload, "seed": seed, "trace": trace,
            "machine": machine_info(), "reference_loop_s": reference_loop_s()}
    ops, wall_setup_s, setup_s = _setup(workload, seed)
    if not short:
        run_pass(warmup_ops(ops))

    if not trace:
        passes = [run_pass(ops)] if short else _timed_loop(seconds, lambda: run_pass(ops))
        problems = [p for r in passes for p in r.problems]
        scaled = [t for r in passes for t in r.scaled]
        walls = [t for r in passes for t in r.walls]
        metrics = {
            "setup_s": (setup_s, "s"),
            **_latency_metrics([r.scaled for r in passes]),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        info["samples"] = len(scaled)
        wall = _latency_metrics([r.walls for r in passes])
        info["wall"] = {"setup_s": wall_setup_s, **{k: v for k, (v, _) in wall.items()}}
        info["host_speed"] = sum(walls) / sum(scaled)
        info["latencies_ms"] = {
            "wall": [[round(t * 1e3, 3) for t in r.walls] for r in passes],
            "scaled": [[round(t * 1e3, 3) for t in r.scaled] for r in passes]}
        kinds = {}
        for i, t in enumerate(scaled):
            kind = ops[i % len(ops)].label.split(":")[0]
            kinds[kind] = kinds.get(kind, 0.0) + t / len(passes)
        info["scaled_s_per_pass_by_kind"] = kinds
    else:
        import spans

        tracer = spans.Tracer()
        summaries, untraced = [], []

        def pair():
            untraced.append(run_pass(ops))
            tracer.begin_pass(len(summaries))
            tracer.install()
            try:
                r = run_pass(ops, tracer)
            finally:
                tracer.uninstall()
            summaries.append(tracer.pass_summary(sum(r.walls)))
            # tracing must not change any output
            r.problems = [p or (None if d == u else "traced output differs from untraced")
                          for p, d, u in zip(r.problems, r.digests, untraced[-1].digests)]
            return r

        passes = [pair()] if short else _timed_loop(seconds, pair)
        problems = [p for r in passes + untraced for p in r.problems]
        metrics = spans.combine(summaries)
        overhead = (statistics.median(sum(r.scaled) for r in passes)
                    - statistics.median(sum(r.scaled) for r in untraced))
        metrics["bench.trace_overhead_s"] = (overhead, "s")
        info["counts_repeat"] = spans.counts_repeat(summaries)
        trace_path = OUT_DIR / f"trace-{workload}-seed{seed}.csv"
        tracer.write(trace_path)
        info["trace_file"] = str(trace_path.relative_to(ROOT))

    info["failures"] = sorted({f"{ops[i % len(ops)].label}: {p}"
                               for i, p in enumerate(problems) if p})[:20]
    if trace and not info["counts_repeat"]:
        problems.append("per-layer counts differ between traced passes")
        info["failures"].append(problems[-1])
    failed = sum(p is not None for p in problems)
    info["passes"] = len(passes)
    info["fail_ratio"] = failed / len(problems)
    result = {
        "correct": failed == 0,
        "attempted": len(problems),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT_DIR / f"run-{workload}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    info.pop("latencies_ms", None)
    return result, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="catalog-cli, structure-cli or ideal-lattice")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="one pass, no warm-up (for the benchmark's own test)")
    args = parser.parse_args(argv)
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace), args.short)
    print(json.dumps(info))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
