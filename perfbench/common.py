"""Shared pieces of the benchmark: clock, samples, percentiles, results.

Everything here is the benchmark's own code.  It deliberately uses no
measurement helper of the program under test (``repro.perf``,
``repro.serve.loadgen``, ``repro.obs`` histograms), so a change to
those cannot move how the benchmark measures.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import tomllib
from array import array
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional, Sequence

#: root of the checkout the benchmark runs in (``perfbench/..``)
ROOT = Path(__file__).resolve().parent.parent
#: where results and traces are written (ignored by git)
OUT_DIR = ROOT / ".perfbench-out"
#: statement text of the paper's transactions
STMT_FILE = ROOT / "src" / "repro" / "core" / "stmt_db.toml"

#: end-to-end metrics, with units; every workload reports all of them
END_TO_END = {
    "setup_s": "s",
    "tps": "1/s",
    "read_p50_ms": "ms",
    "read_p95_ms": "ms",
    "write_p50_ms": "ms",
    "write_p95_ms": "ms",
    "ok_share": "share",
    "rss_mb": "MB",
    "job_s": "s",
}

#: failure classes counted against attempted operations
FAILURE_KINDS = ("retryable", "shed", "expired", "error", "lost")

#: reference-loop speed that reported timings are expressed against,
#: in loop iterations per second (see :class:`Speed`): the median rate
#: over thirty runs on the 2-vCPU VM the bounds were set on, so there
#: the reported figures stay within about 10% of the measured ones
REFERENCE_RATE = 8.5e6
#: iterations of one reference sample (about 25 ms at the reference rate)
REFERENCE_ITERATIONS = 200_000
#: seconds between reference samples inside a timed window
SAMPLE_EVERY_S = 0.5
#: windows per stretch for latency percentiles (see Samples.percentile)
STRETCH_WINDOWS = 2


def statements() -> Dict[str, List[str]]:
    """Statement text per transaction id, from the paper's TOML file."""
    with open(STMT_FILE, "rb") as handle:
        raw = tomllib.load(handle)
    return {task: list(body["statements"]) for task, body in raw.items()}


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (q in [0, 1])."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def resident_mb() -> float:
    """Resident set size of this process now, after a full collection
    (Linux ``/proc/self/statm``)."""
    gc.collect()
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def environment() -> Dict[str, object]:
    """What the machine looked like when the result was taken."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
    }


class Speed:
    """The machine's current speed, from an interleaved reference loop.

    Shared hosts drift: on one 2-vCPU machine a fixed integer loop ran
    at 7.4 to 11.7 M iterations/s over thirty runs, and whole minutes
    ran 20% slow.  The workloads sample this
    loop between their operations (25 ms every half second) and every
    timing is reported as measured times ``factor`` -- the
    median sampled rate over :data:`REFERENCE_RATE` -- so a drift that
    slows the machine as a whole cancels out, while anything that slows
    the program alone does not (the loop runs none of its code,
    allocates nothing and never triggers a collection).  Raw figures
    and the factor are kept in each run's detail record.

    The speed also changes within a run, from one second to the next,
    so a timed window is converted piece by piece: each 1 s throughput
    window and each latency stretch on the samples taken inside it
    (:meth:`factor_between`).
    """

    def __init__(self):
        self.rates: List[float] = []
        #: clock at the start of each sample
        self.times: List[float] = []

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            began = perf_counter()
            x = 0
            for i in range(REFERENCE_ITERATIONS):
                x += i * i % 7
            self.rates.append(REFERENCE_ITERATIONS / (perf_counter() - began))
            self.times.append(began)

    @property
    def factor(self) -> float:
        """Measured speed over the reference speed (> 1: faster)."""
        return median(self.rates) / REFERENCE_RATE

    def factor_between(self, began: float, ended: float) -> float:
        """:attr:`factor` over the samples started in ``[began, ended)``;
        the whole run's factor when none was."""
        rates = [
            rate for rate, at in zip(self.rates, self.times) if began <= at < ended
        ]
        return median(rates) / REFERENCE_RATE if rates else self.factor

    def seconds(self, measured: float) -> float:
        """A measured duration, expressed at the reference speed."""
        return measured * self.factor


class Samples:
    """Latencies of one operation class plus per-window completions.

    ``window_s`` buckets completions by wall time since ``start``, so a
    run's throughput is reported as the median over its windows rather
    than one ratio that a single stall can skew.
    """

    def __init__(self, start: float, window_s: float = 1.0):
        self.start = start
        self.window_s = window_s
        self.latencies = array("d")
        self.slots = array("l")
        self.windows: Dict[int, int] = {}

    def add(self, began: float, ended: float, timed: bool = True) -> None:
        """Count a completion; keep its latency only when ``timed``."""
        slot = int((ended - self.start) / self.window_s)
        self.windows[slot] = self.windows.get(slot, 0) + 1
        if timed:
            self.latencies.append(ended - began)
            self.slots.append(slot)

    def percentile(self, q: float, speed: Optional[Speed] = None) -> float:
        """The run's ``q`` percentile of latency, in seconds.

        The median, over stretches of :data:`STRETCH_WINDOWS` windows,
        of each stretch's percentile: a collection pause or a host
        hiccup then moves one stretch's figure, not the run's.  Only
        stretches holding ten samples beyond the percentile count; with
        fewer than three of those, all samples are taken at once.  With
        ``speed``, the latencies of each stretch are converted to the
        reference speed on the samples taken in it.
        """
        groups: Dict[int, List[float]] = {}
        for latency, slot in zip(self.latencies, self.slots):
            groups.setdefault(slot // STRETCH_WINDOWS, []).append(latency)
        span = STRETCH_WINDOWS * self.window_s
        factors = {
            stretch: speed.factor_between(
                self.start + stretch * span, self.start + (stretch + 1) * span
            ) if speed is not None else 1.0
            for stretch in groups
        }
        needed = 10 / (1.0 - q)
        figures = [
            percentile(sorted(group), q) * factors[stretch]
            for stretch, group in groups.items()
            if len(group) >= needed
        ]
        if len(figures) < 3:
            return percentile(sorted(
                latency * factors[stretch]
                for stretch, group in groups.items()
                for latency in group
            ), q)
        return median(figures)


class Failures:
    """Failed operations by class (see :data:`FAILURE_KINDS`)."""

    def __init__(self):
        self.counts = {kind: 0 for kind in FAILURE_KINDS}

    def add(self, kind: str) -> None:
        self.counts[kind] += 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def classify(error: BaseException) -> str:
    """Map an engine/wire exception onto a failure class."""
    from repro.engine.errors import DeadlineExceededError, OverloadError

    if isinstance(error, OverloadError):
        return "shed"
    if isinstance(error, DeadlineExceededError):
        return "expired"
    if getattr(error, "retryable", False):
        return "retryable"
    return "error"


def window_tps(
    classes: Sequence[Samples], seconds: float, speed: Optional[Speed] = None
) -> float:
    """Median completions per second over the full windows of a run;
    with ``speed``, each window at the reference speed on the samples
    taken in it."""
    first = classes[0]
    full = int(seconds / first.window_s)
    if full < 1:
        raise ValueError("a run needs at least one full window")
    per_window = []
    for slot in range(full):
        rate = sum(samples.windows.get(slot, 0) for samples in classes) / first.window_s
        if speed is not None:
            began = first.start + slot * first.window_s
            rate /= speed.factor_between(began, began + first.window_s)
        per_window.append(rate)
    return median(per_window)


def latency_metrics(
    prefix: str, samples: Samples, speed: Optional[Speed] = None
) -> Dict[str, float]:
    """p50 and p95 in ms at the reference speed (``speed`` converts
    measured latencies, stretch by stretch; without it they were
    converted already).

    The gated tail is p95, not p99: on a shared 2-vCPU host the p99 of
    a 0.6 ms served request is set by host preemptions (ten runs of
    ``served-ha`` spread 0.26 in a noisy hour), while p95 still has
    hundreds of samples beyond it per stretch.  p99 stays in the detail
    record.
    """
    return {
        f"{prefix}_p50_ms": samples.percentile(0.50, speed) * 1e3,
        f"{prefix}_p95_ms": samples.percentile(0.95, speed) * 1e3,
    }


def whole_run_percentiles(samples: Samples) -> Dict[str, float]:
    """All-sample p50/p95/p99 in ms, for the detail record."""
    ordered = sorted(samples.latencies)
    return {
        "p50_ms": percentile(ordered, 0.50) * 1e3,
        "p95_ms": percentile(ordered, 0.95) * 1e3,
        "p99_ms": percentile(ordered, 0.99) * 1e3,
        "samples": len(ordered),
    }


def timed_setups(build, count: int, speed: Speed):
    """Run ``build()`` ``count`` times; keep the last result.

    Returns ``(result, raw seconds of each build)``.  Earlier results
    are dropped and collected before the next build starts, so peak
    memory stays that of one set-up and no build pays for collecting
    its predecessor.  ``speed`` is sampled before every build.
    """
    times = []
    result = None
    for _ in range(count):
        result = None
        gc.collect()
        speed.sample(8)
        began = perf_counter()
        result = build()
        times.append(perf_counter() - began)
    return result, times


def emit(
    workload: str,
    seed: int,
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, float],
    units: Dict[str, str],
    detail: Optional[Dict[str, object]] = None,
    trace: bool = False,
) -> None:
    """Print the detail record, then the result line (last on stdout)."""
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "env": environment(),
        **(detail or {}),
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as out:
        json.dump({"record": record, "metrics": metrics}, out, indent=1, sort_keys=True)
    print(json.dumps({"detail": record}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }), flush=True)
