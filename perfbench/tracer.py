"""The traced run: spans around the public calls of each layer.

The program is not edited.  :class:`Tracer` replaces each hooked
function or method (listed in :data:`HOOKS`, layer = module) with a
wrapper that records a span -- name, start, end, parent span and
request id -- and folds its duration into per-hook call counts,
inclusive time and *self* time (inclusive minus the time of hooked
calls made inside it).  Every hooked callable is synchronous, so one
stack per process nests spans correctly even on the asyncio workload:
a span always closes before the event loop can switch tasks.

A parent's self time excludes the whole of a hooked child's wrapper,
from its entry to its exit, so the tracer's own bookkeeping and the
:class:`Probes` it runs inside its wrappers are in no layer's self
time.  Self times of all layers plus the unattributed residual (the
benchmark's own loop, the tracer, event loop, sockets, unhooked glue)
add up to the wall time of the traced window by construction;
:func:`layer_self_ns` is that sum's per-layer breakdown.

Where the compiled statement path bypasses a public method the nearest
call that still runs on every statement is hooked:

* ``Table.overwrite_row`` (the narrow-update path) touches the buffer
  pool directly, so ``BufferPool.access`` is hooked rather than
  ``Table._touch``;
* the planner has no public entry of its own -- ``Database.prepare``
  (plan-cache probe, parse and compile on a miss) is the compiler layer;
* WAL shipping and archiving run as WAL append listeners bound before
  tracing starts, so the calls they make per record are hooked:
  ``WalShipper._ship`` and ``ShardArchive.ingest``.  They nest inside
  ``WriteAheadLog.append``; their time is not the WAL's self time;
* the serving tier's public surface is ``start``/``stop``; per-request
  work is ``SQLServer._execute_frame``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

#: layer -> hooked callables, as ``module:Qualified.name``
HOOKS: Dict[str, Tuple[str, ...]] = {
    "core.client": tuple(
        f"repro.core.client:EngineClient.{verb}"
        for verb in ("execute", "query", "begin", "commit", "rollback")
    ),
    "core.workload": ("repro.core.workload:SalesWorkload.run_one",),
    "core.evaluators": (
        "repro.core.runner:CloudyBench.run",
        "repro.core.lagtime:LagTimeEvaluator.run",
        "repro.core.elasticity:ElasticityEvaluator.run",
        "repro.core.multitenancy:MultiTenancyEvaluator.run",
    ),
    "engine.compiler": ("repro.engine.database:Database.prepare",),
    "engine.executor": (
        "repro.engine.database:Database.execute",
        "repro.engine.database:Database.query",
        "repro.engine.executor:Executor.execute",
    ),
    "engine.txn": (
        "repro.engine.database:Database.begin",
        "repro.engine.txn:Transaction.commit",
        "repro.engine.txn:Transaction.rollback",
    ),
    "engine.locks": tuple(
        f"repro.engine.locks:LockManager.{verb}"
        for verb in ("acquire", "release_one", "release_all")
    ),
    "engine.table": tuple(
        f"repro.engine.table:Table.{verb}"
        for verb in (
            "find_by_key", "read_row", "insert_row", "update_row",
            "overwrite_row", "delete_row", "visible_by_key", "check_unique",
        )
    ) + (
        "repro.engine.table:VersionStore.append",
        "repro.engine.table:VersionStore.transition",
        "repro.engine.database:Database.vacuum",
    ),
    "engine.buffer": ("repro.engine.buffer:BufferPool.access",),
    "engine.wal": (
        "repro.engine.wal:WriteAheadLog.append",
        "repro.engine.wal:WriteAheadLog.append_shipped",
    ),
    "engine.recovery": (
        "repro.engine.database:Database.crash",
        "repro.engine.database:Database.recover",
        "repro.engine.recovery:ReplicaApplier.apply_batch",
    ),
    "shard.router": (
        "repro.shard.fleet:ShardedDatabase.execute",
        "repro.shard.fleet:ShardedDatabase.query",
        "repro.shard.router:ShardRouter.route_prepared",
        "repro.shard.router:ShardRouter.route_statement",
    ),
    "shard.coordinator": (
        "repro.shard.coordinator:TxnCoordinator.begin",
        "repro.shard.coordinator:TxnCoordinator.commit",
        "repro.shard.coordinator:TxnCoordinator.rollback",
        "repro.shard.coordinator:GlobalTransaction.local",
    ),
    "serve.wire": (
        "repro.serve.wire:encode_frame",
        "repro.serve.wire:decode_body",
    ),
    "serve.server": ("repro.serve.server:SQLServer._execute_frame",),
    "qos.admission": tuple(
        f"repro.qos.admission:AdmissionController.{verb}"
        for verb in ("enqueue", "next_ready", "release")
    ),
    "ha.replication": ("repro.ha.replication:WalShipper._ship",),
    "ha.cluster": (
        "repro.ha.cluster:HAFleet.poll",
        "repro.ha.cluster:HAFleet.resync",
    ),
    "dr.archive": ("repro.dr.archive:ShardArchive.ingest",),
    "sim.events": ("repro.sim.events:Environment.step",),
    "cloud.replication": tuple(
        f"repro.cloud.replication:ReplicationPipeline.{verb}"
        for verb in (
            "_on_commit", "visible_on_replica", "replica_lag_records",
            "converged",
        )
    ),
    "cloud.mva_model": ("repro.cloud.mva_model:estimate_throughput",),
}

#: hook name -> layer
LAYER_OF: Dict[str, str] = {
    hook: layer for layer, hooks in HOOKS.items() for hook in hooks
}


def resolve(hook: str):
    """``module:Qual.name`` -> (owner, attribute, current value)."""
    module_name, qualname = hook.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Patches:
    """Replace callables and put them back.

    A module-level function is replaced in every loaded module that
    bound it by name (``from x import f``), not only where it is
    defined.
    """

    def __init__(self):
        self._undo: List[Tuple[object, str, object, bool]] = []

    def replace(self, hook: str, make: Callable[[Callable], Callable]) -> None:
        owner, attr, original = resolve(hook)
        replacement = make(original)
        if isinstance(owner, type):
            owned = attr in owner.__dict__
            self._undo.append((owner, attr, original, owned))
            setattr(owner, attr, replacement)
            return
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if namespace is None:
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    self._undo.append((module, name, original, True))
                    setattr(module, name, replacement)

    def restore(self) -> None:
        for owner, attr, original, owned in reversed(self._undo):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()


class Tracer:
    """Span recorder for the hooked layers.

    Spans stay in memory (the first ``span_cap`` of them; counts and
    times cover every call) and :meth:`dump` writes them out at the end
    of the run.  ``probes`` are run by the span wrappers of the hooks
    they observe.
    """

    def __init__(
        self, span_cap: int = 200_000, probes: Optional["Probes"] = None
    ):
        self.stack: List[list] = []
        #: hook -> [calls, inclusive ns, self ns]
        self.stats: Dict[str, List[int]] = {}
        self.spans: List[tuple] = []
        self.span_cap = span_cap
        self.next_span = 0
        self.request = 0
        self.patches = Patches()
        self.observers = probes.observers() if probes is not None else {}

    def install(self) -> None:
        for hook in LAYER_OF:
            self.patches.replace(hook, functools.partial(self._wrap, hook))

    def uninstall(self) -> None:
        self.patches.restore()

    def _wrap(self, hook: str, original: Callable) -> Callable:
        stack = self.stack
        stat = self.stats.setdefault(hook, [0, 0, 0])
        spans = self.spans
        cap = self.span_cap
        clock = perf_counter_ns
        tracer = self
        before, after = self.observers.get(hook, (None, None))

        @functools.wraps(original)
        def traced(*args, **kwargs):
            entered = clock()
            span_id = tracer.next_span
            tracer.next_span = span_id + 1
            if stack:
                parent = stack[-1][1]
            else:
                parent = -1
                tracer.request += 1
            frame = [0, span_id]
            stack.append(frame)
            token = before(*args, **kwargs) if before is not None else None
            returned = False
            began = clock()
            try:
                result = original(*args, **kwargs)
                returned = True
                return result
            finally:
                ended = clock()
                stack.pop()
                took = ended - began
                stat[0] += 1
                stat[1] += took
                stat[2] += took - frame[0]
                if returned and after is not None:
                    after(token, result, took, *args, **kwargs)
                if len(spans) < cap:
                    spans.append(
                        (span_id, hook, began, ended, parent, tracer.request)
                    )
                if stack:
                    stack[-1][0] += clock() - entered

        return traced

    def snapshot(self) -> Dict[str, Tuple[int, int, int]]:
        return {hook: tuple(stat) for hook, stat in self.stats.items()}

    def dump(self, path) -> None:
        """Write the recorded spans, one JSON array per line."""
        with open(path, "w") as handle:
            handle.write(json.dumps(
                ["span_id", "name", "start_ns", "end_ns", "parent", "request"]
            ) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def delta(
    after: Dict[str, Tuple[int, int, int]],
    before: Dict[str, Tuple[int, int, int]],
) -> Dict[str, Tuple[int, int, int]]:
    """Per-hook stats accumulated between two snapshots."""
    zero = (0, 0, 0)
    return {
        hook: tuple(a - b for a, b in zip(stat, before.get(hook, zero)))
        for hook, stat in after.items()
    }


def layer_self_ns(stats: Dict[str, Tuple[int, int, int]]) -> Dict[str, int]:
    """Self time per layer (every layer in :data:`HOOKS`, 0 if unused)."""
    totals = {layer: 0 for layer in HOOKS}
    for hook, (_calls, _incl, self_ns) in stats.items():
        totals[LAYER_OF[hook]] += self_ns
    return totals


def calls(stats, *hooks: str) -> int:
    return sum(stats.get(hook, (0, 0, 0))[0] for hook in hooks)


def inclusive_ns(stats, *hooks: str) -> int:
    return sum(stats.get(hook, (0, 0, 0))[1] for hook in hooks)


def self_ns(stats, *hooks: str) -> int:
    return sum(stats.get(hook, (0, 0, 0))[2] for hook in hooks)


def mean_us(total_ns: float, count: int) -> float:
    return total_ns / count / 1e3 if count else 0.0


class Probes:
    """Counters the span stats cannot give, read off the arguments and
    results of hooked calls.

    :meth:`observers` gives, per observed hook, a ``before`` callable
    (the hook's arguments -> a token, or None) and an ``after`` one
    (token, result, span ns, the hook's arguments), called only when
    the hook returns.  The span wrapper runs both outside its own clock
    reads, so they cost no layer any self time.
    """

    def __init__(self):
        self.counts: Dict[str, float] = {
            "autocommit_reads": 0, "read_records": 0,
            "routed": 0, "single_shard": 0,
            "queue_waits": 0, "queue_wait_s": 0.0,
            "wire_bytes": 0,
            "vacuum_runs": 0, "vacuum_s_max": 0.0,
            "recoveries": 0, "recovered_records": 0, "recovery_s": 0.0,
            "lock_waits": 0,
        }

    def observers(self) -> Dict[str, Tuple[Optional[Callable], Callable]]:
        from repro.engine.locks import LockOutcome

        counts = self.counts
        granted = LockOutcome.GRANTED

        def autocommit_lsn(db, sql, params=(), txn=None, deadline=None):
            return db.wal.last_lsn if txn is None else None

        def executed(lsn, result, _ns, db, *_args, **_kwargs):
            if lsn is not None and result.columns:
                counts["autocommit_reads"] += 1
                counts["read_records"] += db.wal.last_lsn - lsn

        def routed(_token, shard, _ns, *_args):
            counts["routed"] += 1
            counts["single_shard"] += shard is not None

        def dequeued(_token, ticket, _ns, _controller, now):
            if ticket is not None:
                counts["queue_waits"] += 1
                counts["queue_wait_s"] += now - ticket.enqueued_at_s

        def encoded(_token, data, _ns, _payload):
            counts["wire_bytes"] += len(data)

        def decoded(_token, _payload, _ns, body):
            counts["wire_bytes"] += len(body)

        def vacuumed(_token, _reclaimed, ns, _db):
            counts["vacuum_runs"] += 1
            counts["vacuum_s_max"] = max(counts["vacuum_s_max"], ns / 1e9)

        def recovered(_token, report, ns, _db):
            counts["recovery_s"] += ns / 1e9
            counts["recoveries"] += 1
            counts["recovered_records"] += report.records_scanned

        def acquired(_token, outcome, _ns, *_args, **_kwargs):
            counts["lock_waits"] += outcome is not granted

        return {
            "repro.engine.database:Database.execute": (autocommit_lsn, executed),
            "repro.shard.router:ShardRouter.route_prepared": (None, routed),
            "repro.qos.admission:AdmissionController.next_ready": (None, dequeued),
            "repro.serve.wire:encode_frame": (None, encoded),
            "repro.serve.wire:decode_body": (None, decoded),
            "repro.engine.database:Database.vacuum": (None, vacuumed),
            "repro.engine.database:Database.recover": (None, recovered),
            "repro.engine.locks:LockManager.acquire": (None, acquired),
        }

    def snapshot(self) -> Dict[str, float]:
        return dict(self.counts)
