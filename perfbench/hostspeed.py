"""Host speed: the machine description and the scaling of measured times.

The benchmark was sized on a 2-vCPU VM whose cores are shared with other
tenants.  There a fixed numpy loop ran between 0.7 and 1.5 times its
median speed, in phases that last from seconds to minutes, and CPU time
drifted with wall time, so neither a longer run nor process time removes
the drift.  The benchmark therefore times a fixed chunk of numpy and
Python work in the gap after every operation, and reports each operation
time scaled to a host on which the chunk takes ``NOMINAL_CHUNK_S``:

    scaled = wall * NOMINAL_CHUNK_S / (mean of the chunk times in the
                                       gaps before and after the operation)

The chunk uses no ternlab code, so a change to ternlab moves scaled times
as it moves wall times on a steady host.  Wall times are kept in the run
record, ungated.
"""

from __future__ import annotations

import os
import platform
import statistics
import time

import numpy as np

# about the chunk's median time on the VM the benchmark was sized on, so
# that scaled times read close to wall times there
NOMINAL_CHUNK_S = 1.0e-3
GAP_CHUNKS = 3

_rng = np.random.default_rng(0)
_A8 = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))
_A32 = _rng.standard_normal((32, 32)) + 1j * _rng.standard_normal((32, 32))
_T6 = _rng.standard_normal((6, 6, 6))
_V6 = _rng.standard_normal((6, 6))


def chunk_s():
    """Wall time of one fixed chunk of work.

    Kinds of work respond differently to a busy neighbour, so the chunk
    mixes, in about equal time, the three kinds the workloads do: pure
    Python, many small numpy calls and one mid-size LAPACK call.
    """
    t0 = time.perf_counter()
    s = 0
    for x in range(3300):
        s += x * x
    for _ in range(6):
        np.linalg.svd(_A8)
        np.einsum("ijk,jk->i", _T6, _V6)
        _A8 @ _A8
    np.linalg.svd(_A32)
    _A32 @ _A32
    return time.perf_counter() - t0


def gap_chunk_s():
    """Chunk time in a gap between operations.

    The first chunk after an operation runs with the caches it left cold
    and is not counted; the median of the next ``GAP_CHUNKS`` drops an
    outlier such as a garbage collection.
    """
    chunk_s()
    return statistics.median(chunk_s() for _ in range(GAP_CHUNKS))


def scaled_times(walls, gaps):
    """Scale wall times of consecutive operations to the nominal host speed.

    ``gaps[i]`` is the chunk time in the gap before operation i and
    ``gaps[i + 1]`` the one after it, so there is one more gap than operation.
    """
    return [wall * NOMINAL_CHUNK_S / ((gaps[i] + gaps[i + 1]) / 2)
            for i, wall in enumerate(walls)]


def machine_info():
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "blas": blas,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def reference_loop_s(repeats=5, n=400):
    """Median wall time of a fixed loop of 8x8 complex SVDs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            np.linalg.svd(_A8)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
