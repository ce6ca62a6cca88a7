"""Per-layer metrics of a traced window, from span stats and counters.

Each metric names the layer (module) it measures.  ``/op`` figures are
normalised by the workload's committed transactions in the window,
``/suite`` figures by completed CloudyBench suites; a layer the
workload never enters reports 0.
"""

from __future__ import annotations

from typing import Dict

from perfbench.common import OUT_DIR
from perfbench.tracer import calls, inclusive_ns, layer_self_ns, mean_us, self_ns

#: every per-layer metric, with its unit
PER_LAYER: Dict[str, str] = {
    "core.client.self_us": "us",
    "engine.compiler.prepare_us": "us",
    "engine.compiler.plan_hit_ratio": "share",
    "engine.executor.self_us": "us",
    "engine.executor.statements": "1/op",
    "engine.txn.begin_us": "us",
    "engine.txn.commit_us": "us",
    "engine.locks.acquire_us": "us",
    "engine.locks.acquires_per_txn": "1/op",
    "engine.locks.waits": "count",
    "engine.locks.timeouts": "count",
    "engine.table.self_us": "us",
    "engine.mvcc.versions_per_txn": "1/op",
    "engine.mvcc.vacuum_runs": "count",
    "engine.mvcc.vacuum_ms_max": "ms",
    "engine.buffer.hit_ratio": "share",
    "engine.buffer.evictions_per_txn": "1/op",
    "engine.buffer.access_us": "us",
    "engine.wal.append_us": "us",
    "engine.wal.records_per_txn": "1/op",
    "engine.wal.records_per_read": "1/read",
    "engine.wal.bytes_per_txn": "B/op",
    "engine.wal.fsyncs_per_txn": "1/op",
    "engine.recovery.records_scanned": "count",
    "engine.recovery.us_per_record": "us",
    "shard.router.route_us": "us",
    "shard.router.single_shard_share": "share",
    "shard.coordinator.commit_us": "us",
    "shard.coordinator.cross_share": "share",
    "shard.coordinator.fsyncs_per_txn": "1/op",
    "serve.wire.encode_us": "us",
    "serve.wire.decode_us": "us",
    "serve.wire.bytes_per_request": "B",
    "serve.server.self_us": "us",
    "qos.admission.queue_wait_us": "us",
    "qos.admission.shed": "count",
    "qos.admission.expired": "count",
    "ha.replication.ship_us_per_txn": "us",
    "ha.replication.records_per_txn": "1/op",
    "dr.archive.ingest_us_per_txn": "us",
    "dr.archive.bytes_per_txn": "B/op",
    "core.evaluators.lagtime_s": "s",
    "core.evaluators.elasticity_s": "s",
    "core.evaluators.multitenancy_s": "s",
    "core.evaluators.other_s": "s",
    "sim.events.steps": "count",
    "sim.events.step_us": "us",
    "cloud.replication.self_s": "s",
    "cloud.mva_model.estimate_calls": "count",
    "cloud.mva_model.self_s": "s",
    "trace.unattributed_share": "share",
    "trace.overhead_ratio": "ratio",
}

#: public counters a workload samples at the edges of its traced window
COUNTERS = (
    "plan_hits", "plan_misses", "buf_hits", "buf_misses", "buf_evictions",
    "wal_records", "wal_bytes", "fsyncs", "shipped", "archive_bytes",
    "coord_single", "coord_cross", "shed", "expired",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    stats,
    probes: Dict[str, float],
    counters: Dict[str, float],
    *,
    ops: int,
    wall_s: float,
    overhead_ratio: float,
    requests: int = 0,
    suites: int = 0,
    lock_timeouts: int = 0,
) -> Dict[str, float]:
    """The :data:`PER_LAYER` metrics of one traced window.

    ``stats`` are the span stats accumulated in the window, ``probes``
    the probe counts (recovery figures may come from after the window:
    recovery runs in the fixed job that follows it), ``counters`` the
    public-counter deltas across the window.
    """
    c = counters
    layers = layer_self_ns(stats)
    attributed_s = sum(layers.values()) / 1e9
    evaluators = {
        name: inclusive_ns(stats, hook) / 1e9
        for name, hook in (
            ("lagtime", "repro.core.lagtime:LagTimeEvaluator.run"),
            ("elasticity", "repro.core.elasticity:ElasticityEvaluator.run"),
            ("multitenancy", "repro.core.multitenancy:MultiTenancyEvaluator.run"),
        )
    }
    suite_s = inclusive_ns(stats, "repro.core.runner:CloudyBench.run") / 1e9
    step = "repro.sim.events:Environment.step"
    gtxns = c["coord_single"] + c["coord_cross"]
    out = {
        "core.client.self_us": _ratio(layers["core.client"] / 1e3, ops),
        "engine.compiler.prepare_us": mean_us(
            inclusive_ns(stats, "repro.engine.database:Database.prepare"),
            calls(stats, "repro.engine.database:Database.prepare"),
        ),
        "engine.compiler.plan_hit_ratio": _ratio(
            c["plan_hits"], c["plan_hits"] + c["plan_misses"]
        ),
        "engine.executor.self_us": _ratio(layers["engine.executor"] / 1e3, ops),
        "engine.executor.statements": _ratio(
            calls(stats, "repro.engine.executor:Executor.execute"), ops
        ),
        "engine.txn.begin_us": mean_us(
            inclusive_ns(stats, "repro.engine.database:Database.begin"),
            calls(stats, "repro.engine.database:Database.begin"),
        ),
        "engine.txn.commit_us": mean_us(
            inclusive_ns(stats, "repro.engine.txn:Transaction.commit"),
            calls(stats, "repro.engine.txn:Transaction.commit"),
        ),
        "engine.locks.acquire_us": mean_us(
            inclusive_ns(stats, "repro.engine.locks:LockManager.acquire"),
            calls(stats, "repro.engine.locks:LockManager.acquire"),
        ),
        "engine.locks.acquires_per_txn": _ratio(
            calls(stats, "repro.engine.locks:LockManager.acquire"), ops
        ),
        "engine.locks.waits": probes["lock_waits"],
        "engine.locks.timeouts": lock_timeouts,
        "engine.table.self_us": _ratio(layers["engine.table"] / 1e3, ops),
        "engine.mvcc.versions_per_txn": _ratio(
            calls(
                stats,
                "repro.engine.table:VersionStore.append",
                "repro.engine.table:VersionStore.transition",
            ),
            ops,
        ),
        "engine.mvcc.vacuum_runs": probes["vacuum_runs"],
        "engine.mvcc.vacuum_ms_max": probes["vacuum_s_max"] * 1e3,
        "engine.buffer.hit_ratio": _ratio(
            c["buf_hits"], c["buf_hits"] + c["buf_misses"]
        ),
        "engine.buffer.evictions_per_txn": _ratio(c["buf_evictions"], ops),
        "engine.buffer.access_us": mean_us(
            inclusive_ns(stats, "repro.engine.buffer:BufferPool.access"),
            calls(stats, "repro.engine.buffer:BufferPool.access"),
        ),
        "engine.wal.append_us": mean_us(
            self_ns(stats, "repro.engine.wal:WriteAheadLog.append"),
            calls(stats, "repro.engine.wal:WriteAheadLog.append"),
        ),
        "engine.wal.records_per_txn": _ratio(c["wal_records"], ops),
        "engine.wal.records_per_read": _ratio(
            probes["read_records"], probes["autocommit_reads"]
        ),
        "engine.wal.bytes_per_txn": _ratio(c["wal_bytes"], ops),
        "engine.wal.fsyncs_per_txn": _ratio(c["fsyncs"], ops),
        "engine.recovery.records_scanned": _ratio(
            probes["recovered_records"], probes["recoveries"]
        ),
        "engine.recovery.us_per_record": _ratio(
            probes["recovery_s"] * 1e6, probes["recovered_records"]
        ),
        "shard.router.route_us": mean_us(
            inclusive_ns(stats, "repro.shard.router:ShardRouter.route_prepared"),
            calls(stats, "repro.shard.router:ShardRouter.route_prepared"),
        ),
        "shard.router.single_shard_share": _ratio(
            probes["single_shard"], probes["routed"]
        ),
        "shard.coordinator.commit_us": mean_us(
            inclusive_ns(stats, "repro.shard.coordinator:TxnCoordinator.commit"),
            calls(stats, "repro.shard.coordinator:TxnCoordinator.commit"),
        ),
        "shard.coordinator.cross_share": _ratio(c["coord_cross"], gtxns),
        "shard.coordinator.fsyncs_per_txn": _ratio(c["fsyncs"], gtxns),
        "serve.wire.encode_us": mean_us(
            inclusive_ns(stats, "repro.serve.wire:encode_frame"),
            calls(stats, "repro.serve.wire:encode_frame"),
        ),
        "serve.wire.decode_us": mean_us(
            inclusive_ns(stats, "repro.serve.wire:decode_body"),
            calls(stats, "repro.serve.wire:decode_body"),
        ),
        "serve.wire.bytes_per_request": _ratio(probes["wire_bytes"], requests),
        "serve.server.self_us": _ratio(layers["serve.server"] / 1e3, requests),
        "qos.admission.queue_wait_us": _ratio(
            probes["queue_wait_s"] * 1e6, probes["queue_waits"]
        ),
        "qos.admission.shed": c["shed"],
        "qos.admission.expired": c["expired"],
        "ha.replication.ship_us_per_txn": _ratio(
            inclusive_ns(stats, "repro.ha.replication:WalShipper._ship") / 1e3,
            ops,
        ),
        "ha.replication.records_per_txn": _ratio(c["shipped"], ops),
        "dr.archive.ingest_us_per_txn": _ratio(
            inclusive_ns(stats, "repro.dr.archive:ShardArchive.ingest") / 1e3, ops
        ),
        "dr.archive.bytes_per_txn": _ratio(c["archive_bytes"], ops),
        "core.evaluators.lagtime_s": _ratio(evaluators["lagtime"], suites),
        "core.evaluators.elasticity_s": _ratio(evaluators["elasticity"], suites),
        "core.evaluators.multitenancy_s": _ratio(
            evaluators["multitenancy"], suites
        ),
        "core.evaluators.other_s": _ratio(
            suite_s - sum(evaluators.values()), suites
        ),
        "sim.events.steps": _ratio(calls(stats, step), suites),
        "sim.events.step_us": mean_us(self_ns(stats, step), calls(stats, step)),
        "cloud.replication.self_s": _ratio(
            layers["cloud.replication"] / 1e9, suites
        ),
        "cloud.mva_model.estimate_calls": _ratio(
            calls(stats, "repro.cloud.mva_model:estimate_throughput"), suites
        ),
        "cloud.mva_model.self_s": _ratio(layers["cloud.mva_model"] / 1e9, suites),
        "trace.unattributed_share": (wall_s - attributed_s) / wall_s,
        "trace.overhead_ratio": overhead_ratio,
    }
    if set(out) != set(PER_LAYER):
        raise RuntimeError("per-layer metrics out of step with PER_LAYER")
    return out


def breakdown(stats, ops: int, wall_s: float) -> Dict[str, float]:
    """Self time per layer in microseconds per op, plus the residual;
    the entries sum to the window's wall time per op."""
    layers = layer_self_ns(stats)
    per_op = {layer: ns / 1e3 / ops for layer, ns in layers.items()}
    per_op["unattributed"] = wall_s * 1e6 / ops - sum(per_op.values())
    return per_op


#: probe counts taken by the fixed job that follows the traced window
AFTER_WINDOW = ("recoveries", "recovered_records", "recovery_s")


def finish(
    workload: str, seed: int, tracer, probes, window_probes, stats,
    counters, *, ops: int, wall_s: float, **kwargs,
):
    """End a traced run: unhook, compute :func:`per_layer`, write the
    spans.  Returns ``(metrics, detail entries)``."""
    tracer.uninstall()
    final = probes.snapshot()
    probe_counts = dict(window_probes)
    for key in AFTER_WINDOW:
        probe_counts[key] = final[key] - window_probes[key]
    metrics = per_layer(
        stats, probe_counts, counters, ops=ops, wall_s=wall_s, **kwargs
    )
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{workload}-{seed}.jsonl"
    tracer.dump(spans)
    return metrics, {
        "layers_us_per_op": breakdown(stats, ops, wall_s),
        "spans_file": str(spans),
    }
