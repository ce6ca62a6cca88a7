"""``served-ha``: a cloud-native deployment on one asyncio loop.

:class:`~repro.serve.server.SQLServer` (qos on) serves a 2-shard
:class:`~repro.ha.cluster.HAFleet` at row_scale 0.01 with no buffer
pool, so all data is resident.  Each shard has a sync standby and a
sync :class:`~repro.dr.archive.FleetArchiver` is attached.  Two
closed-loop :class:`~repro.serve.client.AsyncSQLClient` connections
send 50% point reads (T3) and 50% payment batches (the T2 statements);
a payment's order and customer are drawn across the whole fleet, so
about half of the payments span both shards and commit by 2PC.  This
is the only workload that crosses ``serve``, ``qos``, ``shard``,
``ha``, ``dr`` and ``engine.recovery``; its engine work is write-heavy
with no buffer pool, the opposite of ``sales-rw``.

The fixed job after the timed window is a fail-over, repeated: re-seed
shard 0's standby, run a fixed number of requests, kill the primary,
expire its lease and time the ``poll()`` that promotes the standby.
The replayed suffix has the same length on every run.
"""

from __future__ import annotations

import asyncio
import gc
import random
from time import perf_counter
from typing import Dict, List, Optional

from perfbench import common, layers
from perfbench.tracer import Probes, Tracer, delta

N_SHARDS = 2
ROW_SCALE = 0.01
CONNECTIONS = 2
SETUPS = 3
READ_BELOW = 0.5
#: warm-up requests per connection; ``rss_mb`` is read after them
WARMUP_REQUESTS = 4000
JOB_ROUNDS = 5
#: requests per connection before each timed promotion
JOB_REQUESTS = 1500
EPOCH = 1_700_000_000.0
CREDIT_TOLERANCE = 1e-6


class Stack:
    """The served deployment: fleet, standbys, archiver, server."""

    def __init__(self, seed: int):
        from repro.core.datagen import DataGenerator
        from repro.core.schema import create_sales_schema
        from repro.dr.archive import FleetArchiver
        from repro.ha.cluster import HAFleet
        from repro.serve.server import ServerConfig, SQLServer

        fleet = HAFleet(N_SHARDS, name="served-ha")
        create_sales_schema(fleet)
        # ORDERLINE co-locates with its order (the sales partitioning)
        fleet.router.register("ORDERLINE", "OL_O_ID")
        generator = DataGenerator(1, ROW_SCALE, seed)
        schemas = {
            name: fleet.shards[0].table(name).schema
            for name in ("CUSTOMER", "ORDERS", "ORDERLINE")
        }
        for name, row in generator.iter_rows():
            shard = fleet.router.shard_for_row(schemas[name], row)
            fleet.shards[shard].table(name).insert_row(row)
        for shard in fleet.shards:
            shard.checkpoint()
        fleet.start_replication()
        self.archive_from = [shard.wal.last_lsn for shard in fleet.shards]
        self.archiver = FleetArchiver(fleet, mode="sync")
        self.fleet = fleet
        self.rows = generator.materialised_rows()
        self.server = SQLServer(fleet, ServerConfig(qos=True))

    async def start(self) -> None:
        self.address = await self.server.start()

    async def stop(self) -> None:
        await self.server.stop()
        self.archiver.detach()


def total_credit(fleet) -> float:
    total = 0.0
    for shard in fleet.shards:
        table = shard.table("CUSTOMER")
        column = table.schema.column_index("C_CREDIT")
        total += sum(row[column] for _rid, row in table.scan())
    return total


class Connection:
    """One closed-loop client connection and its request stream."""

    def __init__(self, stack: Stack, seed: int, index: int, run: "Run"):
        self.stack = stack
        self.rng = random.Random(f"{seed}/served-ha/{index}")
        self.name = f"bench-{index}"
        self.run = run
        self.client = None

    async def connect(self) -> None:
        from repro.serve.client import AsyncSQLClient

        host, port = self.stack.address
        self.client = AsyncSQLClient(host, port, client_name=self.name)
        await self.client.connect()

    async def close(self) -> None:
        if self.client is not None:
            await self.client.close()

    async def one(self):
        """One request; returns ``(is_read, committed)``."""
        from repro.engine.errors import EngineError, LockTimeoutError
        from repro.serve.wire import FrameError

        run = self.run
        rng = self.rng
        draw = rng.random()
        o_id = rng.randint(1, self.stack.rows["ORDERS"])
        run.attempted += 1
        is_read = draw < READ_BELOW
        try:
            if is_read:
                rows = (await self.client.query(run.status, [o_id])).rows
                if len(rows) != 1 or rows[0][0] != o_id:
                    run.violations += 1
                    return is_read, False
            else:
                c_id = rng.randint(1, self.stack.rows["CUSTOMER"])
                credit = round(rng.uniform(1, 50), 2)
                run.stamp += 0.001
                select, update_order, update_customer = run.payment
                counts = await self.client.batch([
                    (select, [o_id]),
                    (update_order, [run.stamp, o_id]),
                    (update_customer, [credit, run.stamp, c_id]),
                ])
                if counts != [1, 1, 1]:
                    run.violations += 1
                    return is_read, False
                run.credit += credit
        except EngineError as error:
            run.failures.add(common.classify(error))
            run.lock_timeouts += isinstance(error, LockTimeoutError)
            return is_read, False
        except (ConnectionError, OSError, FrameError, asyncio.IncompleteReadError):
            run.failures.add("lost")
            self.client.abort()
            await self.connect()
            return is_read, False
        run.committed += 1
        return is_read, True

    async def loop(self, until=None, count=None, reads=None, writes=None):
        clock = perf_counter
        done = 0
        speed_samples = self.run.speed.rates
        while True:
            began = clock()
            if (until is not None and began >= until) or done == count:
                return
            sampled = len(speed_samples)
            is_read, ok = await self.one()
            done += 1
            if ok and reads is not None:
                # a request that waited out a reference sample is
                # counted but not timed
                (reads if is_read else writes).add(
                    began, clock(), timed=len(speed_samples) == sampled
                )


class Run:
    """Shared accounting of the connections."""

    def __init__(self):
        stmts = common.statements()
        (self.status,) = stmts["T3"]
        self.payment = stmts["T2"]
        self.attempted = 0
        self.committed = 0
        self.credit = 0.0
        self.violations = 0
        self.lock_timeouts = 0
        self.failures = common.Failures()
        self.stamp = EPOCH
        self.connections: List[Connection] = []
        #: machine speed, sampled through the timed window
        self.speed = common.Speed()

    async def drive(self, **kwargs) -> None:
        await asyncio.gather(*(conn.loop(**kwargs) for conn in self.connections))


def replication_checks(stack: Stack) -> Dict[str, bool]:
    fleet = stack.fleet
    fresh = all(
        group.shipper.is_fresh
        and group.standby.wal.last_lsn == group.primary.wal.last_lsn
        for group in fleet.groups.values()
    )
    archived = all(
        not archive.missing_between(start, shard.wal.last_lsn)
        and archive.first_corrupt_lsn() is None
        for archive, start, shard in zip(
            stack.archiver.archives, stack.archive_from, fleet.shards
        )
    )
    return {"standbys_fresh": fresh, "archives_intact": archived}


async def failover_job(stack: Stack, run: Run):
    """Timed promotions of shard 0 over a fixed replay suffix; each
    promoted primary must hold exactly the killed primary's rows.
    Returns the measured times and the times at the reference speed,
    each promotion converted on samples taken just around it."""
    fleet = stack.fleet
    lease_s = fleet.lease_config.lease_s
    times, converted = [], []
    for round_no in range(JOB_ROUNDS):
        fleet.resync(0)
        await run.drive(count=JOB_REQUESTS)
        before = fleet.shards[0].content_hash()
        fleet.kill_primary(0)
        fleet.clock.advance(2 * lease_s)
        gc.collect()
        speed = common.Speed()
        speed.sample(4)
        began = perf_counter()
        fleet.poll()
        times.append(perf_counter() - began)
        speed.sample(4)
        converted.append(speed.seconds(times[-1]))
        group = fleet.groups[0]
        if group.failovers != round_no + 1 or fleet.shards[0].content_hash() != before:
            run.violations += 1
        # let the modelled outage window pass before serving again
        fleet.clock.advance(group.down_until - fleet.clock.now + lease_s)
    return times, converted


async def sample_speed(speed, until: float) -> None:
    """Sample the reference loop until ``until`` (each sample holds the
    event loop for about 25 ms)."""
    while perf_counter() < until:
        speed.sample()
        await asyncio.sleep(common.SAMPLE_EVERY_S)


def counters(stack: Stack) -> Dict[str, float]:
    fleet = stack.fleet
    return {
        **{name: 0 for name in layers.COUNTERS},
        "plan_hits": sum(shard.plan_cache_hits for shard in fleet.shards),
        "plan_misses": sum(shard.plan_cache_misses for shard in fleet.shards),
        "wal_records": sum(shard.wal.last_lsn for shard in fleet.shards),
        "fsyncs": fleet.fsyncs,
        "shipped": sum(group.shipper.shipped for group in fleet.groups.values()),
        "archive_bytes": sum(a.bytes_total() for a in stack.archiver.archives),
        "coord_single": fleet.coordinator.single_commits,
        "coord_cross": fleet.coordinator.cross_commits,
        "shed": stack.server.shed,
        "expired": stack.server.expired,
    }


async def setup(seed: int, speed):
    """Build the deployment ``SETUPS`` times; serve from the last."""
    times = []
    stack: Optional[Stack] = None
    for _ in range(SETUPS):
        if stack is not None:
            await stack.stop()
        stack = None
        gc.collect()
        speed.sample(8)
        began = perf_counter()
        stack = Stack(seed)
        await stack.start()
        times.append(perf_counter() - began)
    return stack, times


async def main(seed: int, seconds: int, trace: bool) -> None:
    setup_speed = common.Speed()
    stack, setup_times = await setup(seed, setup_speed)
    fleet = stack.fleet
    credit_before = total_credit(fleet)
    run = Run()
    run.connections = [
        Connection(stack, seed, index, run) for index in range(CONNECTIONS)
    ]
    try:
        for conn in run.connections:
            await conn.connect()
        await run.drive(count=WARMUP_REQUESTS)
        # after a fixed amount of traffic, not a fixed time: the logs,
        # the standbys' logs and the archives grow with throughput.  The
        # current size, not the peak: the set-up's transient peak is
        # higher than anything the traffic reaches
        rss_mb = common.resident_mb()
        start_attempted = run.attempted
        start_failed = run.failures.total
        detail: Dict[str, object] = {"setup_s_raw": setup_times}

        if not trace:
            start = perf_counter()
            reads, writes = common.Samples(start), common.Samples(start)
            await asyncio.gather(
                run.drive(until=start + seconds, reads=reads, writes=writes),
                sample_speed(run.speed, start + seconds),
            )
            tps_raw = common.window_tps([reads, writes], seconds)
        else:
            plain_s = seconds / 3.0
            began = perf_counter()
            before = run.committed
            await run.drive(until=began + plain_s)
            plain_rate = (run.committed - before) / (perf_counter() - began)
            probes = Probes()
            tracer = Tracer(probes=probes)
            tracer.install()
            c0, s0 = counters(stack), tracer.snapshot()
            lsn0 = [shard.wal.last_lsn for shard in fleet.shards]
            committed0, attempted0 = run.committed, run.attempted
            began = perf_counter()
            await run.drive(until=began + seconds - plain_s)
            wall = perf_counter() - began
            stats, c1 = delta(tracer.snapshot(), s0), counters(stack)
            window_probes = probes.snapshot()
            ops = run.committed - committed0
            requests = run.attempted - attempted0
            counter_delta = {name: c1[name] - c0[name] for name in layers.COUNTERS}
            counter_delta["wal_bytes"] = sum(
                shard.wal.bytes_between(first, shard.wal.last_lsn)
                for shard, first in zip(fleet.shards, lsn0)
            )
        checks = replication_checks(stack)
        job_times, job_converted = await failover_job(stack, run)
    finally:
        for conn in run.connections:
            await conn.close()
        await stack.stop()

    credit_delta = total_credit(fleet) - credit_before
    credit_ok = abs(credit_delta - run.credit) <= CREDIT_TOLERANCE * max(
        1.0, abs(run.credit)
    )
    correct = run.violations == 0 and credit_ok and all(checks.values())
    attempted = run.attempted - start_attempted
    failed = run.failures.total - start_failed
    detail.update({
        "checks": checks,
        "committed": run.committed,
        "failures": run.failures.counts,
        "violations": run.violations,
        "credit_delta": credit_delta,
        "credit_acked": run.credit,
        "job_s_raw": job_times,
        "speed_factor": {
            phase: speed.factor
            for phase, speed in (("setup", setup_speed), ("window", run.speed))
            if speed.rates
        },
    })
    if not trace:
        window = run.speed
        metrics = {
            "setup_s": setup_speed.seconds(common.median(setup_times)),
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
            "served-ha", seed, tracer, probes, window_probes, stats,
            counter_delta, ops=ops, wall_s=wall, requests=requests,
            overhead_ratio=plain_rate * wall / ops,
            lock_timeouts=run.lock_timeouts,
        )
        detail.update(entries)
        units = layers.PER_LAYER
    common.emit(
        "served-ha", seed, correct, attempted, failed, metrics, units,
        detail=detail, trace=trace,
    )


def run(seed: int, seconds: int, trace: bool) -> None:
    asyncio.run(main(seed, seconds, trace))
