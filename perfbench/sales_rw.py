"""``sales-rw``: the paper's RW mix on one engine database.

T1:T2:T3 = 15:5:80 with uniform keys, one closed-loop client over
:class:`~repro.core.client.EngineClient`.  The data is row_scale 0.05
(15k CUSTOMER, 15k ORDERS, 150k ORDERLINE) behind a 1 MiB buffer pool,
so the working set is about 9x the pool; the run is long enough for
the automatic MVCC vacuum to fire several times.  Most of the time is
spent in ``engine`` (plan cache, executor, locks, MVCC, WAL, buffer).

The fixed job after the timed window is a restart: a checkpoint that
truncates the log, a fixed number of transactions, ``crash()`` +
``recover()``.  Its log suffix has the same length on every run, so
its time does not grow when the engine gets faster.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter
from typing import Dict

from perfbench import common, layers
from perfbench.tracer import Probes, Tracer, delta

ROW_SCALE = 0.05
BUFFER_BYTES = 1 << 20
#: set-ups per run; the median is reported
SETUPS = 3
#: warm-up transactions; ``rss_mb`` is read after them
WARMUP_TXNS = 30_000
#: restart rounds after the timed window, and transactions per round
JOB_ROUNDS = 5
JOB_TXNS = 4000
#: mix thresholds on one uniform draw: T1 15%, T2 5%, T3 80%
T1_BELOW = 0.15
T2_BELOW = 0.20
#: fixed epoch base keeps generated timestamps reproducible
EPOCH = 1_700_000_000.0
CREDIT_TOLERANCE = 1e-6


def load(seed: int):
    from repro.core.datagen import DataGenerator
    from repro.engine.database import Database

    db = Database("sales-rw", buffer_size_bytes=BUFFER_BYTES)
    DataGenerator(1, ROW_SCALE, seed).populate(db)
    return db


def total_credit(db) -> float:
    table = db.table("CUSTOMER")
    column = table.schema.column_index("C_CREDIT")
    return sum(row[column] for _rid, row in table.scan())


class Driver:
    """One closed-loop client issuing the RW mix."""

    def __init__(self, db, seed: int):
        from repro.core.client import EngineClient

        self.db = db
        self.client = EngineClient(db)
        self.rng = random.Random(seed)
        stmts = common.statements()
        (self.insert_line,) = stmts["T1"]
        self.payment = stmts["T2"]
        (self.status,) = stmts["T3"]
        self.orders = db.table("ORDERS").row_count
        self.committed = {"T1": 0, "T2": 0, "T3": 0}
        self.attempted = 0
        self.credit = 0.0
        self.violations = 0
        self.failures = common.Failures()
        self.lock_timeouts = 0
        self.stamp = EPOCH

    def one(self):
        """Run one transaction; returns ``(kind, committed)``."""
        from repro.engine.errors import EngineError, LockTimeoutError

        rng = self.rng
        client = self.client
        draw = rng.random()
        o_id = rng.randint(1, self.orders)
        self.attempted += 1
        try:
            if draw < T1_BELOW:
                kind = "T1"
                client.execute(self.insert_line, [
                    o_id, rng.randint(1, 100_000), rng.randint(1, 10),
                    round(rng.uniform(1, 100), 2),
                ])
            elif draw < T2_BELOW:
                kind = "T2"
                select, update_order, update_customer = self.payment
                credit = round(rng.uniform(1, 50), 2)
                self.stamp += 0.001
                client.begin()
                rows = client.execute(select, [o_id]).rows
                if len(rows) != 1:
                    self.violations += 1
                    client.rollback()
                    return kind, False
                client.execute(update_order, [self.stamp, o_id])
                client.execute(update_customer, [credit, self.stamp, rows[0][1]])
                client.commit()
                self.credit += credit
            else:
                kind = "T3"
                row = client.query(self.status, [o_id]).first()
                if row is None or row[0] != o_id:
                    self.violations += 1
                    return kind, False
        except EngineError as error:
            if client.in_txn:
                try:
                    client.rollback()
                except EngineError:
                    pass
            self.failures.add(common.classify(error))
            self.lock_timeouts += isinstance(error, LockTimeoutError)
            return kind, False
        self.committed[kind] += 1
        return kind, True

    def run(self, until: float, reads=None, writes=None, speed=None) -> None:
        """Closed loop until ``until``; records committed latencies and
        samples ``speed`` between two transactions every
        :data:`~perfbench.common.SAMPLE_EVERY_S`."""
        clock = perf_counter
        one = self.one
        next_sample = clock() if speed is not None else float("inf")
        while True:
            began = clock()
            if began >= until:
                return
            if began >= next_sample:
                speed.sample()
                next_sample = began + common.SAMPLE_EVERY_S
                continue
            kind, ok = one()
            if ok and reads is not None:
                (reads if kind == "T3" else writes).add(began, clock())


def restart_job(driver: Driver):
    """Timed restarts over a fixed log suffix; the last one is checked
    against the committed state before the crash.  Returns the measured
    times and the times at the reference speed, each restart converted
    on samples taken just around it (the host drifts within the job)."""
    db = driver.db
    times, converted = [], []
    for round_no in range(JOB_ROUNDS):
        db.checkpoint(truncate_wal=True)
        for _ in range(JOB_TXNS):
            driver.one()
        check = round_no == JOB_ROUNDS - 1
        if check:
            before = db.content_hash()
        # a full collection now, so none lands inside the timed restart
        gc.collect()
        speed = common.Speed()
        speed.sample(4)
        began = perf_counter()
        db.crash()
        db.recover()
        times.append(perf_counter() - began)
        speed.sample(4)
        converted.append(speed.seconds(times[-1]))
        if check and db.content_hash() != before:
            driver.violations += 1
    return times, converted


def counters(db) -> Dict[str, float]:
    stats = db.buffer.stats
    return {
        **{name: 0 for name in layers.COUNTERS},
        "plan_hits": db.plan_cache_hits,
        "plan_misses": db.plan_cache_misses,
        "buf_hits": stats.hits,
        "buf_misses": stats.misses,
        "buf_evictions": stats.evictions,
        "wal_records": db.wal.last_lsn,
        "fsyncs": db.wal.fsyncs,
    }


def run(seed: int, seconds: int, trace: bool) -> None:
    speeds = {phase: common.Speed() for phase in ("setup", "window")}
    db, setup_times = common.timed_setups(
        lambda: load(seed), SETUPS, speeds["setup"]
    )
    loaded_lines = db.table("ORDERLINE").row_count
    credit_before = total_credit(db)
    driver = Driver(db, seed)
    for _ in range(WARMUP_TXNS):
        driver.one()
    # after a fixed amount of traffic, not a fixed time: the log stays
    # in memory until a checkpoint, so memory read after the timed
    # window would grow with throughput
    rss_mb = common.resident_mb()
    start_attempted = driver.attempted
    start_failed = driver.failures.total
    detail: Dict[str, object] = {"setup_s_raw": setup_times}

    if not trace:
        start = perf_counter()
        reads, writes = common.Samples(start), common.Samples(start)
        driver.run(start + seconds, reads, writes, speeds["window"])
        tps_raw = common.window_tps([reads, writes], seconds)
    else:
        plain_s = seconds / 3.0
        began = perf_counter()
        before = sum(driver.committed.values())
        driver.run(began + plain_s)
        plain_rate = (sum(driver.committed.values()) - before) / (
            perf_counter() - began
        )
        probes = Probes()
        tracer = Tracer(probes=probes)
        tracer.install()
        c0, s0 = counters(db), tracer.snapshot()
        committed0 = sum(driver.committed.values())
        began = perf_counter()
        driver.run(began + seconds - plain_s)
        wall = perf_counter() - began
        stats, c1 = delta(tracer.snapshot(), s0), counters(db)
        window_probes = probes.snapshot()
        counter_delta = {name: c1[name] - c0[name] for name in layers.COUNTERS}
        # before the restart job truncates the log
        counter_delta["wal_bytes"] = db.wal.bytes_between(
            c0["wal_records"], c1["wal_records"]
        )
        ops = sum(driver.committed.values()) - committed0
    job_times, job_converted = restart_job(driver)

    lines_ok = db.table("ORDERLINE").row_count == loaded_lines + driver.committed["T1"]
    credit_delta = total_credit(db) - credit_before
    credit_ok = abs(credit_delta - driver.credit) <= CREDIT_TOLERANCE * max(
        1.0, abs(driver.credit)
    )
    correct = driver.violations == 0 and lines_ok and credit_ok
    attempted = driver.attempted - start_attempted
    failed = driver.failures.total - start_failed
    detail.update({
        "committed": driver.committed,
        "failures": driver.failures.counts,
        "violations": driver.violations,
        "orderline_count_ok": lines_ok,
        "credit_delta": credit_delta,
        "credit_acked": driver.credit,
        "job_s_raw": job_times,
        "speed_factor": {
            phase: speed.factor for phase, speed in speeds.items() if speed.rates
        },
    })

    if not trace:
        window = speeds["window"]
        metrics = {
            "setup_s": speeds["setup"].seconds(common.median(setup_times)),
            "tps": common.window_tps([reads, writes], seconds, window),
            **common.latency_metrics("read", reads, window),
            **common.latency_metrics("write", writes, window),
            "ok_share": 1.0 - failed / attempted,
            "rss_mb": rss_mb,
            "job_s": common.median(job_converted),
        }
        detail["tps_raw"] = tps_raw
        detail["samples"] = {
            "read": common.whole_run_percentiles(reads),
            "write": common.whole_run_percentiles(writes),
        }
        units = common.END_TO_END
    else:
        metrics, entries = layers.finish(
            "sales-rw", seed, tracer, probes, window_probes, stats,
            counter_delta, ops=ops, wall_s=wall,
            overhead_ratio=plain_rate * wall / ops,
            lock_timeouts=driver.lock_timeouts,
        )
        detail.update(entries)
        units = layers.PER_LAYER
    common.emit(
        "sales-rw", seed, correct, attempted, failed, metrics, units,
        detail=detail, trace=trace,
    )
