"""``paper-eval``: the CloudyBench suite, what its users wait for.

``CloudyBench(config).run("overall")`` over all five SUT architectures,
with the ``--quick`` preset written out field by field below (so a
change to ``BenchConfig`` defaults or presets cannot move this input).
This is the only workload that runs ``sim.events``, ``cloud.*`` and the
evaluator plumbing; about 95% of its wall time is the lag-time
evaluation: discrete-event steps plus autocommit point reads on
replicas.

The suite's work depends strongly on its seed (the number of lag probes
varies by more than 3x across seeds), so ``--seed`` selects one of the
suite seeds listed in ``reference.json``, seeds whose suites commit the
same engine transactions in the same time, and every suite's score
card must match the fingerprint recorded there for its seed
(``make_reference.py`` rewrites that file).

The engine statements the suite issues are the workload's reads and
writes: every autocommit ``Database.execute`` is timed (SELECTs are
reads, the rest writes), and ``tps`` counts the engine transactions the
suite commits per second of suite time.  ``job_s`` is the wall time of
one whole suite (``eval_s``).  Both, and the latencies, are converted
to the reference speed part by part (see :class:`Statements`).
"""

from __future__ import annotations

import gc
import hashlib
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from perfbench import common, layers
from perfbench.tracer import Patches, Probes, Tracer, delta

REFERENCE = Path(__file__).with_name("reference.json")
SETUPS = 3

#: the ``--quick`` preset, every field
CONFIG: Dict[str, object] = {
    "architectures": ["aws_rds", "cdb1", "cdb2", "cdb3", "cdb4"],
    "scale_factors": [1],
    "concurrencies": [50, 100],
    "modes": ["RO", "RW", "WO"],
    "distribution": "uniform",
    "latest_k": 10,
    "seed": 42,
    "isolation": "read_committed",
    "row_scale": 0.001,
    "elastic_test_time": 3,
    "slot_seconds": 60.0,
    "measure_window_s": 180.0,
    "elastic_modes": ["RW"],
    "elastic_tau": None,
    "custom_patterns": {},
    "tenants": 3,
    "tenant_slots": 3,
    "tenancy_tau_high": None,
    "tenancy_tau_low": None,
    "failover_concurrency": 150,
    "recovery_threshold": 0.95,
    "lag_concurrency": 8,
    "lag_transactions": 60,
    "lag_replicas": 1,
    "qos_enabled": True,
    "overload_multiples": [0.5, 1.0, 2.0],
    "overload_capacity_rps": 200.0,
    "overload_deadline_s": 0.6,
    "overload_duration_s": 3.0,
    "shard_counts": [1, 2],
    "shard_cross_ratio": 0.1,
    "shard_txns": 120,
    "shard_driver": "inline",
    "chaos_faults": 4,
    "chaos_duration_s": 20.0,
    "chaos_clients": 4,
    "chaos_replicas": 1,
    "chaos_slo": 0.9,
    "perf_pilot_txns": 16,
    "perf_target_s": 1.5,
    "perf_txns": 256,
    "perf_arrival": "poisson",
    "perf_profile": True,
    "serve_connections": [4, 8],
    "serve_txns_per_conn": 8,
    "serve_workers": 0,
    "serve_shards": 2,
    "serve_qos": True,
    "serve_deadline_s": None,
    "serve_max_connections": 2048,
    "serve_max_queue": 64,
    "serve_arrival": "closed",
    "serve_persona": "payment",
    "ha_shards": 2,
    "ha_pairs": 4,
    "ha_txns": 80,
    "ha_ack_mode": "sync",
    "ha_lease_s": 0.5,
    "ha_heartbeat_s": 0.1,
    "dr_shards": 2,
    "dr_txns": 80,
    "dr_pairs": 3,
    "dr_archive_mode": "sync",
}

#: import + construction, timed in a fresh interpreter
SETUP_CHILD = """
import json, sys, time
began = time.perf_counter()
sys.path.insert(0, sys.argv[2])
from repro import BenchConfig, CloudyBench
CloudyBench(BenchConfig(**json.loads(sys.argv[1])))
print(time.perf_counter() - began)
"""


def load_reference() -> Dict[str, str]:
    with open(REFERENCE) as handle:
        return json.load(handle)["fingerprints"]


def suite_seed(seed: int, reference: Dict[str, str]) -> int:
    seeds = sorted(int(key) for key in reference)
    return seeds[seed % len(seeds)]


def config(suite: int) -> Dict[str, object]:
    return {**CONFIG, "seed": suite}


def fingerprint(outcome) -> str:
    """Hash of the score card: table rows and flat scores, exactly."""
    card = {
        "headers": list(outcome.headers),
        "rows": [[repr(cell) for cell in row] for row in outcome.rows],
        "scores": sorted((key, repr(value)) for key, value in outcome.scores.items()),
    }
    return hashlib.sha256(json.dumps(card).encode()).hexdigest()


def timed_setup(cfg: Dict[str, object]) -> float:
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, json.dumps(cfg),
         str(common.ROOT / "src")],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class Statements:
    """Registers every database the suite creates (for its
    committed-transaction count) and, when ``timed``, times every
    autocommit engine statement and samples the machine's speed
    between statements.  The traced run leaves the timing out: it
    measures no latency, and the timer would run inside the
    evaluators' spans.

    A suite takes over ten seconds and the host's speed changes within
    seconds, so one factor for the whole suite does not fit: the suite
    is cut at every reference sample (one every
    :data:`common.SAMPLE_EVERY_S`), and each piece of its wall time is
    converted on the sample that opens it.  The samples' own time is
    left out of the wall time.  Latencies are converted stretch by
    stretch on the same samples, as on the other workloads.
    """

    def __init__(self, start: float):
        self.patches = Patches()
        self.databases: List[object] = []
        self.reads = common.Samples(start)
        self.writes = common.Samples(start)
        #: every sample of the run, with its time
        self.speed = common.Speed()
        #: the current suite's samples: (clock before, clock after, rate)
        self.marks: List[Tuple[float, float, float]] = []
        self.next_sample = 0.0

    def sample(self) -> float:
        """Take one reference sample now; returns the clock after it."""
        self.speed.sample()
        ended = perf_counter()
        self.marks.append((self.speed.times[-1], ended, self.speed.rates[-1]))
        self.next_sample = ended + common.SAMPLE_EVERY_S
        return ended

    def start_suite(self) -> None:
        self.marks = []
        self.sample()

    def finish_suite(self, ended: float) -> Tuple[float, float]:
        """The suite's wall time, measured and at the reference speed."""
        wall = converted = 0.0
        closing = self.marks[1:] + [(ended, ended, 0.0)]
        for (_, opened, rate), (closed, _, _) in zip(self.marks, closing):
            wall += closed - opened
            converted += (closed - opened) * rate / common.REFERENCE_RATE
        return wall, converted

    def install(self, timed: bool) -> None:
        state = self
        clock = perf_counter

        def init(inner):
            def probe(db, *args, **kwargs):
                inner(db, *args, **kwargs)
                state.databases.append(db)
            return probe

        def execute(inner):
            def probe(db, sql, params=(), txn=None, deadline=None):
                if txn is not None:
                    return inner(db, sql, params, txn, deadline)
                began = clock()
                if began >= state.next_sample:
                    began = state.sample()
                result = inner(db, sql, params, txn, deadline)
                (state.reads if result.columns else state.writes).add(
                    began, clock()
                )
                return result
            return probe

        self.patches.replace("repro.engine.database:Database.__init__", init)
        if timed:
            self.patches.replace("repro.engine.database:Database.execute", execute)

    def committed(self) -> int:
        return sum(db.txns.committed for db in self.databases)


def engine_counters(databases) -> Dict[str, float]:
    """Public engine counters summed over a suite's databases (each
    starts from zero when the suite creates it)."""
    out = {name: 0 for name in layers.COUNTERS}
    for db in databases:
        out["plan_hits"] += db.plan_cache_hits
        out["plan_misses"] += db.plan_cache_misses
        if db.buffer is not None:
            out["buf_hits"] += db.buffer.stats.hits
            out["buf_misses"] += db.buffer.stats.misses
            out["buf_evictions"] += db.buffer.stats.evictions
        out["wal_records"] += db.wal.last_lsn
        out["wal_bytes"] += db.wal.bytes_between(0, db.wal.last_lsn)
        out["fsyncs"] += db.wal.fsyncs
    return out


def run_suite(cfg, statements: Statements):
    """One suite on a fresh bench; returns (wall s, wall s at the
    reference speed, committed, outcome)."""
    from repro import BenchConfig, CloudyBench

    statements.databases.clear()
    gc.collect()
    bench = CloudyBench(BenchConfig(**cfg))
    statements.start_suite()
    outcome = bench.run("overall")
    wall, converted = statements.finish_suite(perf_counter())
    return wall, converted, statements.committed(), outcome


def run(seed: int, seconds: int, trace: bool) -> None:
    reference = load_reference()
    suite = suite_seed(seed, reference)
    cfg = config(suite)
    setup_speed = common.Speed()
    setup_times = []
    for _ in range(SETUPS):
        setup_speed.sample(8)
        setup_times.append(timed_setup(cfg))
    start = perf_counter()
    statements = Statements(start)
    statements.install(timed=not trace)
    suites = []
    failed = 0
    tracer: Optional[Tracer] = None
    plain_s = None
    while True:
        if trace and plain_s is not None and tracer is None:
            probes = Probes()
            tracer = Tracer(probes=probes)
            tracer.install()
            s0 = tracer.snapshot()
            traced_start = len(suites)
            engine = {name: 0 for name in layers.COUNTERS}
        took, converted, committed, outcome = run_suite(cfg, statements)
        if tracer is not None:
            for name, value in engine_counters(statements.databases).items():
                engine[name] += value
        matched = fingerprint(outcome) == reference[str(suite)]
        failed += not matched
        suites.append({
            "wall_s": took, "committed": committed, "matched": matched,
            "speed_factor": converted / took,
            "speed_samples": len(statements.marks),
        })
        if trace and plain_s is None:
            plain_s = took
        elif perf_counter() - start >= seconds:
            break
    statements.patches.restore()
    detail: Dict[str, object] = {
        "suite_seed": suite,
        "setup_s_raw": setup_times,
        "suites": suites,
        "speed_factor": {"setup": setup_speed.factor},
    }
    correct = failed == 0
    if not trace:
        reads, writes = statements.reads, statements.writes
        metrics = {
            "setup_s": setup_speed.seconds(common.median(setup_times)),
            "tps": common.median([
                e["committed"] / e["wall_s"] / e["speed_factor"] for e in suites
            ]),
            **common.latency_metrics("read", reads, statements.speed),
            **common.latency_metrics("write", writes, statements.speed),
            "ok_share": 1.0 - failed / len(suites),
            "rss_mb": common.peak_rss_mb(),
            "job_s": common.median(
                [e["wall_s"] * e["speed_factor"] for e in suites]
            ),
        }
        detail["samples"] = {
            "read": common.whole_run_percentiles(reads),
            "write": common.whole_run_percentiles(writes),
        }
        units = common.END_TO_END
    else:
        stats = delta(tracer.snapshot(), s0)
        traced = suites[traced_start:]
        wall = sum(entry["wall_s"] for entry in traced)
        ops = sum(entry["committed"] for entry in traced)
        metrics, entries = layers.finish(
            "paper-eval", seed, tracer, probes, probes.snapshot(), stats,
            engine, ops=ops, wall_s=wall, suites=len(traced),
            overhead_ratio=common.median([e["wall_s"] for e in traced]) / plain_s,
        )
        detail.update(entries)
        units = layers.PER_LAYER
    common.emit(
        "paper-eval", seed, correct, len(suites), failed, metrics, units,
        detail=detail, trace=trace,
    )
