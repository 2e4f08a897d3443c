"""Paths, child-process launching and order statistics shared by the runner,
the worker and the self-check.

Every child the benchmark starts gets the same environment: the checkout's
``src`` first on ``PYTHONPATH`` and every BLAS/OpenMP pool pinned to one
thread, so a single closed-loop client never oversubscribes a small machine.
"""

from __future__ import annotations

import inspect
import math
import os
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / "_work"
RESULTS_DIR = BENCH_DIR / "_results"

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


#: Seconds ``SpeedReference.measure`` takes at nominal speed.
REF_NOMINAL_S = 0.010
#: Seconds ``interpreter_kernel`` takes at nominal speed.
PY_REF_NOMINAL_S = 0.005


def interpreter_kernel() -> str:
    """Fixed interpreter work: dict and string traffic, no imports."""
    counts = {}
    for i in range(30_000):
        key = i % 97
        counts[key] = counts.get(key, 0) + (i * 3) // 7
    return ",".join(str(v) for v in counts.values())


def scale(raw: float, reference: float, nominal: float) -> float:
    """Seconds at nominal speed: ``raw`` timed next to a kernel that took
    ``reference`` seconds where it takes ``nominal`` at nominal speed."""
    return raw * nominal / reference


class SpeedReference:
    """A fixed kernel timed next to every in-process operation.

    Shared hosts change speed by tens of percent over seconds to minutes, and
    a short kernel timed just before and after an operation slows down with
    it.  Reported times are ``scale(raw, reference, REF_NOMINAL_S)``.  The
    kernel is ``interpreter_kernel`` plus a numpy pass over 600k doubles,
    like the workloads mix the two.  Fresh processes time
    ``interpreter_kernel`` alone before importing anything (see
    ``child_code``).
    """

    def __init__(self):
        self._array = np.linspace(0.5, 2.0, 600_000)

    def measure(self) -> float:
        t0 = perf_counter()
        interpreter_kernel()
        float(np.sum(np.exp(np.log(self._array) * 1.5)))
        return perf_counter() - t0


def write_child_reference() -> None:
    """In a fresh process: run ``interpreter_kernel`` once to grow the heap,
    time a second run, and write the seconds to ``$PERFBENCH_REF_OUT``."""
    interpreter_kernel()
    t0 = perf_counter()
    interpreter_kernel()
    with open(os.environ["PERFBENCH_REF_OUT"], "w", encoding="utf-8") as handle:
        handle.write(repr(perf_counter() - t0))


def child_code(body: str) -> str:
    """Source for ``python -c``: ``write_child_reference``, then ``body``.

    Built from the functions' own source so the child imports nothing of the
    benchmark (or numpy) before ``body`` runs.
    """
    return (
        "import os\nfrom time import perf_counter\n"
        + inspect.getsource(interpreter_kernel)
        + inspect.getsource(write_child_reference)
        + "write_child_reference()\n"
        + body
    )


def program_present() -> bool:
    return (SRC / "wmle" / "__init__.py").is_file() and (SRC / "wmle" / "cli.py").is_file()


def child_env(extra: dict | None = None) -> dict:
    env = dict(os.environ)
    for var in _THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if extra:
        env.update(extra)
    return env


def run_child(argv, *, cwd, stdout_path, stderr_path, timeout: float, env=None) -> tuple[int, float]:
    """Run ``argv`` to completion; return (exit code, peak RSS in MiB).

    The child is reaped with ``wait4`` so its own peak RSS is read, not the
    running maximum over every child this process ever had.  A child still
    running after ``timeout`` seconds is killed and reported as exit -9.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err,
                                env=env if env is not None else child_env())
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def python_child(script: str, *args) -> list[str]:
    return [sys.executable, str(BENCH_DIR / script), *map(str, args)]


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


#: Percentile reported as the latency tail.
TAIL_PERCENTILE = 75


def tail(values) -> tuple[float, int]:
    """Nearest-rank ``TAIL_PERCENTILE`` of ``values`` and the samples beyond it.

    A run holds 2 to 45 samples of a fixed mix of operation kinds.  "The
    highest percentile with ten samples beyond it" would sit at or below the
    median there and move with the sample count, jumping between kinds; a
    higher fixed percentile rested on one or two samples and spread by ~20%
    from run to run.
    """
    ordered = sorted(values)
    rank = max(1, math.ceil(TAIL_PERCENTILE / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank
