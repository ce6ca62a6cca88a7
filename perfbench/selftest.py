"""Sensitivity and attribution self-test of the benchmark.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

On one ``sales-rw`` database it injects a fixed busy-wait into
``WriteAheadLog.append``, sized from a first plain segment to make the
mix 1.5x slower, and runs :data:`ROUNDS` pairs of segments of
:data:`SECONDS` each, plain then injected:

1. untraced pairs, measured as ``run.py`` measures: the median slowed
   ``tps`` must fall outside the ``tps`` bound of ``BENCHMARK.json``
   against the median plain one (a 1.5x slowdown cannot pass);
2. traced pairs, the busy-wait inside the traced ``WriteAheadLog.append``:
   the median per-op gain of the ``engine.wal`` layer must be within 25%
   of the injected time, and no other layer may gain more than a
   quarter of it.

Pairs and medians keep a drift of the host's speed from reading as a
gain.  Exits 0 when every assertion holds and prints one JSON summary
line.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SLOWDOWN = 1.5
TOLERANCE = 0.25
#: length of one segment, pairs of segments per measurement, data seed
SECONDS = 6.0
ROUNDS = 3
SEED = 1
APPEND = "repro.engine.wal:WriteAheadLog.append"


def segment(driver, seconds: float):
    """Run the mix for ``seconds``; returns (tps at the reference speed,
    measured tps, committed, wal records), as ``run.py`` measures."""
    from perfbench import common

    lsn = driver.db.wal.last_lsn
    committed = sum(driver.committed.values())
    speed = common.Speed()
    start = perf_counter()
    reads, writes = common.Samples(start), common.Samples(start)
    driver.run(start + seconds, reads, writes, speed)
    ops = sum(driver.committed.values()) - committed
    return (
        common.window_tps([reads, writes], seconds, speed),
        common.window_tps([reads, writes], seconds),
        ops,
        driver.db.wal.last_lsn - lsn,
    )


def traced_segment(driver, seconds: float):
    """Per-op self time of every layer over one traced segment, in
    microseconds at the reference speed, and the segment's speed factor."""
    from perfbench.common import Speed
    from perfbench.layers import breakdown
    from perfbench.tracer import Tracer, delta

    speed = Speed()
    tracer = Tracer(span_cap=0)
    tracer.install()
    try:
        before = tracer.snapshot()
        committed = sum(driver.committed.values())
        start = perf_counter()
        driver.run(start + seconds, speed=speed)
        wall = perf_counter() - start
        stats = delta(tracer.snapshot(), before)
    finally:
        tracer.uninstall()
    per_op = breakdown(stats, sum(driver.committed.values()) - committed, wall)
    return {layer: speed.seconds(us) for layer, us in per_op.items()}, speed.factor


def busy_wait(spin_s: float):
    def make(inner):
        def spinning(*args, **kwargs):
            until = perf_counter() + spin_s
            while perf_counter() < until:
                pass
            return inner(*args, **kwargs)
        return spinning
    return make


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench import sales_rw
    from perfbench.tracer import Patches

    with open(ROOT / "BENCHMARK.json") as handle:
        bound = next(
            metric["bound"]
            for metric in json.load(handle)["end_to_end"]
            if metric["name"] == "tps"
        )
    driver = sales_rw.Driver(sales_rw.load(SEED), SEED)
    driver.run(perf_counter() + 2.0)
    _tps, base_raw, ops, records = segment(driver, SECONDS)
    appends_per_op = records / ops
    # extra wall time per append that makes every transaction 1.5x as long
    spin_s = (SLOWDOWN - 1.0) / base_raw / appends_per_op
    injected = Patches()

    def paired(measure):
        plain, slowed = [], []
        for _ in range(ROUNDS):
            plain.append(measure())
            injected.replace(APPEND, busy_wait(spin_s))
            try:
                slowed.append(measure())
            finally:
                injected.restore()
        return plain, slowed

    plain, slowed = paired(lambda: segment(driver, SECONDS)[0])
    tps = {
        "plain": statistics.median(plain),
        "slowed": statistics.median(slowed),
    }
    plain, slowed = paired(lambda: traced_segment(driver, SECONDS))
    gained = {
        layer: statistics.median(
            after[layer] - before[layer]
            for (before, _f), (after, _g) in zip(plain, slowed)
        )
        for layer in plain[0][0]
        if layer != "unattributed"
    }
    # the busy-wait is wall time; layer times are at the reference speed
    added_us = statistics.median(
        spin_s * 1e6 * appends_per_op * factor for _layers, factor in slowed
    )
    checks = {
        "slowdown_fails_gate": tps["slowed"] < tps["plain"] * (1.0 - bound),
        "wal_gains_injected_time": abs(gained["engine.wal"] / added_us - 1.0)
        <= TOLERANCE,
        "no_other_layer_gains": all(
            value <= TOLERANCE * added_us
            for layer, value in gained.items()
            if layer != "engine.wal"
        ),
    }
    print(json.dumps({
        "ok": all(checks.values()),
        "checks": checks,
        "tps_bound": bound,
        "tps": tps,
        "spin_us_per_append": spin_s * 1e6,
        "injected_us_per_op": added_us,
        "gained_us_per_op": gained,
    }, sort_keys=True))
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
