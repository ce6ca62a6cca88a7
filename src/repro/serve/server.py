"""The asyncio SQL-over-socket server fronting the shard fleet.

One :class:`SQLServer` owns one :class:`~repro.shard.fleet.
ShardedDatabase` and serves the frame protocol of
:mod:`repro.serve.wire` to any number of concurrent connections:

* **Per-connection sessions with transaction affinity** -- each
  connection holds at most one open global transaction; ``execute``
  frames between ``begin`` and ``commit`` enlist in it, exactly like
  the in-process :class:`~repro.core.client.FleetClient`.
* **Statement pipelining** -- clients may stream many request frames
  without waiting; the session processes them in arrival order and
  responses come back in the same order.  A ``batch`` frame goes
  further: the whole transaction executes atomically with respect to
  the event loop (no awaits between its statements), which is what
  makes measured counters deterministic under arbitrary connection
  interleavings.
* **Admission control** -- connection admission and statement admission
  both run through the existing qos machinery
  (:class:`~repro.qos.admission.AdmissionController`, the engine behind
  :class:`~repro.qos.gate.AdmissionGate`).  Connections hit a
  fixed-limit gate at accept; statements flow through a server-wide
  *bounded* admission queue drained by one worker task.  A full queue
  sheds immediately with a retryable ``overload`` wire error carrying
  the drain-based ``retry_after_s`` hint, and admitted statements that
  outlived ``deadline_s`` in the queue are expired *without* executing
  -- the two behaviours that keep goodput alive past the saturation
  knee.  With qos off the queue is unbounded and nothing expires: the
  server does 100% of the work arbitrarily late, which is the
  goodput-collapse baseline the serve evaluator measures against.
* **Chaos** -- a :class:`ServeFaultInjector` driven by the standard
  :class:`~repro.chaos.plan.FaultPlan` machinery injects the two
  serving-tier fault kinds: ``CONN_DROP`` (the server hangs up
  abruptly, possibly mid-pipeline) and ``CONN_STALL`` (statement
  intake freezes for a window).

The engine itself is synchronous pure Python, so statement execution
runs on the event loop; the server's concurrency is at the *protocol*
layer (thousands of open connections, interleaved frame streams),
which is the layer this testbed is measuring.  For CPU scale-out see
:mod:`repro.serve.cluster`: one full engine fleet per worker process
behind a shared SO_REUSEPORT socket.
"""

from __future__ import annotations

import asyncio
import socket as socket_module
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.chaos.plan import FaultKind, FaultPlan
from repro.core.client import coerce_isolation
from repro.engine.errors import (
    DeadlineExceededError,
    EngineError,
    OverloadError,
    SqlError,
)
from repro.obs import NULL_OBSERVER, Observer
from repro.qos.admission import AdmissionController, AdmissionPolicy
from repro.serve import wire
from repro.serve.errors import to_wire
from repro.sim.rng import RngRegistry

__all__ = ["ServeFaultInjector", "ServerConfig", "SQLServer"]

#: ops answered inline by the session (no admission, no engine work)
_CONTROL_OPS = frozenset({"hello", "ping", "goodbye"})

#: backoff hint shipped with drain-shed errors: long enough for the
#: replacement server to take the socket over, short enough that a
#: retrying client barely notices the handover
DRAIN_RETRY_AFTER_S = 0.05


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs of one serving-tier instance."""

    host: str = "127.0.0.1"
    #: 0 picks an ephemeral port (the tests' default)
    port: int = 0
    #: accepted connections beyond this are shed with a retryable error
    max_connections: int = 2048
    #: statement admission control (the qos stack) on or off
    qos: bool = True
    #: statement-admission policy when qos is on; ``max_queue`` is the
    #: knob that matters for a synchronous executor (the concurrency
    #: limit never binds when statements run one at a time)
    policy: AdmissionPolicy = AdmissionPolicy(max_queue=64)
    #: server-side statement deadline: queued work older than this is
    #: expired without executing (qos on only; None disables)
    deadline_s: Optional[float] = None
    max_frame: int = wire.MAX_FRAME_BYTES
    #: default isolation of served transactions (None = fleet default)
    isolation: Optional[str] = None
    name: str = "serve"

    def __post_init__(self) -> None:
        if self.max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        if self.max_frame < 1:
            raise ValueError("max_frame must be >= 1")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        coerce_isolation(self.isolation)  # raises on an unknown level


class ServeFaultInjector:
    """Drives ``CONN_DROP`` / ``CONN_STALL`` faults from a fault plan.

    Windows are relative to server start.  Within an active
    ``CONN_DROP`` window each statement is dropped with probability
    ``intensity`` (the connection is closed abruptly, no response);
    within ``CONN_STALL`` every statement stalls for ``intensity x
    stall_scale_s`` seconds before intake.  Draws come from a dedicated
    seeded stream so fault firing is reproducible and never perturbs
    workload RNGs.
    """

    def __init__(
        self,
        plan: FaultPlan,
        seed: int = 0,
        stall_scale_s: float = 0.05,
    ):
        self.plan = plan
        self.stall_scale_s = stall_scale_s
        self._rng = RngRegistry(seed).stream("serve.faults")
        self.drops = 0
        self.stalls = 0

    def action(self, now_s: float) -> Tuple[str, float]:
        """(``"drop"|"stall"|"none"``, stall seconds) for one statement."""
        stall_s = 0.0
        for spec in self.plan.active(now_s, kind=FaultKind.CONN_STALL):
            stall_s = max(stall_s, spec.intensity * self.stall_scale_s)
        for spec in self.plan.active(now_s, kind=FaultKind.CONN_DROP):
            if self._rng.random() < spec.intensity:
                self.drops += 1
                return "drop", 0.0
        if stall_s > 0:
            self.stalls += 1
            return "stall", stall_s
        return "none", 0.0


class _Session:
    """Per-connection state: the open transaction and the priority."""

    __slots__ = ("conn_id", "priority", "gtxn", "client_name")

    def __init__(self, conn_id: int):
        self.conn_id = conn_id
        self.priority = 1
        self.gtxn = None
        self.client_name = ""

    @property
    def in_txn(self) -> bool:
        return self.gtxn is not None and self.gtxn.is_active


class _Work:
    """One SQL frame waiting in the admission queue."""

    __slots__ = ("session", "frame", "future", "enqueued_at_s")

    def __init__(self, session, frame, future, enqueued_at_s):
        self.session = session
        self.frame = frame
        self.future = future
        self.enqueued_at_s = enqueued_at_s


class SQLServer:
    """Asyncio SQL-over-socket server over one shard fleet."""

    def __init__(
        self,
        fleet,
        config: Optional[ServerConfig] = None,
        observer: Optional[Observer] = None,
        fault_injector: Optional[ServeFaultInjector] = None,
    ):
        self.fleet = fleet
        self.config = config or ServerConfig()
        self.obs = observer or NULL_OBSERVER
        self.faults = fault_injector
        #: statement admission (bounded queue mode); None when qos is off
        self.controller: Optional[AdmissionController] = (
            AdmissionController(
                self.config.policy,
                name=f"{self.config.name}.stmt",
                observer=self.obs,
            )
            if self.config.qos
            else None
        )
        #: connection admission through the same qos machinery: a fixed
        #: limit (no AIMD -- releases pass latency < 0) equal to the
        #: connection cap
        cap = float(self.config.max_connections)
        self._conn_gate = AdmissionController(
            AdmissionPolicy(
                initial_limit=cap, min_limit=min(1.0, cap), max_limit=cap,
                max_queue=0,
            ),
            name=f"{self.config.name}.conn",
            observer=self.obs,
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._drainer: Optional[asyncio.Task] = None
        #: qos-off work queue (qos-on work lives inside the controller)
        self._queue: Optional[asyncio.Queue] = None
        self._wake: Optional[asyncio.Event] = None
        self._started_at = 0.0
        self._next_conn_id = 0
        self._isolation = coerce_isolation(self.config.isolation)
        # cumulative accounting (cheap, always on -- evaluators read it)
        self.accepted = 0
        self.rejected = 0
        self.statements = 0
        self.errors = 0
        self.shed = 0
        self.expired = 0
        self.abrupt_disconnects = 0
        self.orphan_rollbacks = 0
        #: graceful-shutdown state: while draining, queued statements
        #: finish and reach their clients; new work is shed retryably
        self._draining = False
        self._pending_stmts = 0
        self._g_active = (
            self.obs.metrics.gauge("serve.conn.active")
            if self.obs.enabled else None
        )

    # -- lifecycle -----------------------------------------------------------

    @property
    def active_connections(self) -> int:
        return self._conn_gate.inflight

    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None:
            raise RuntimeError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    def _now(self) -> float:
        return time.monotonic() - self._started_at

    async def start(
        self, sock: Optional[socket_module.socket] = None
    ) -> Tuple[str, int]:
        """Bind and serve; ``sock`` lets cluster workers share a
        pre-bound SO_REUSEPORT socket."""
        if self._server is not None:
            raise RuntimeError("server is already started")
        self._started_at = time.monotonic()
        self._draining = False
        self._queue = asyncio.Queue()
        self._wake = asyncio.Event()
        if sock is not None:
            self._server = await asyncio.start_server(self._handle, sock=sock)
        else:
            self._server = await asyncio.start_server(
                self._handle, host=self.config.host, port=self.config.port
            )
        self._drainer = asyncio.ensure_future(self._drain())
        return self.address

    async def stop(self, drain: bool = False) -> None:
        """Stop accepting and close; idempotent.

        With ``drain`` the shutdown is graceful: every statement
        already admitted finishes and its response reaches the client
        before the sockets go down, while *new* statements (and new
        connections) are shed with a retryable
        :class:`~repro.engine.errors.OverloadError` carrying a
        ``retry_after_s`` hint -- so a well-behaved client loses
        nothing, it just lands its retry on the replacement server.
        """
        server, self._server = self._server, None
        if server is None:
            return
        if drain:
            self._draining = True
            while self._pending_stmts > 0:
                await asyncio.sleep(0)
        drainer, self._drainer = self._drainer, None
        if drainer is not None:
            drainer.cancel()
            try:
                await drainer
            except asyncio.CancelledError:
                pass
        server.close()
        await server.wait_closed()
        # Retired servers shed: a session that outlives the listener
        # must not queue work for the dead drainer (its future would
        # never resolve).  start() clears the flag.
        self._draining = True

    async def __aenter__(self) -> "SQLServer":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # -- the per-connection loop ----------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            if self._draining:
                raise self._drain_error()
            self._conn_gate.try_acquire(self._now())
        except OverloadError as error:
            self.rejected += 1
            if self.obs.enabled:
                self.obs.count("serve.reject")
            try:
                await self._send(writer, {"ok": False,
                                          "error": to_wire(error)})
            except (ConnectionError, OSError):
                pass
            writer.close()
            return
        self.accepted += 1
        self._next_conn_id += 1
        session = _Session(self._next_conn_id)
        if self.obs.enabled:
            self.obs.count("serve.accept")
            self._g_active.set(float(self.active_connections))
        clean = False
        try:
            clean = await self._serve_session(session, reader, writer)
        except (
            ConnectionError, asyncio.IncompleteReadError, BrokenPipeError
        ):
            pass
        finally:
            if not clean:
                self.abrupt_disconnects += 1
                if self.obs.enabled:
                    self.obs.count("serve.disconnect.abrupt")
            self._cleanup_session(session)
            self._conn_gate.release(self._now(), -1.0)
            if self.obs.enabled:
                self._g_active.set(float(self.active_connections))
            writer.close()

    async def _serve_session(
        self,
        session: _Session,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """The request loop; True on a clean ``goodbye`` or EOF."""
        while True:
            try:
                frame = await wire.read_frame(
                    reader, max_frame=self.config.max_frame
                )
            except wire.FrameError as error:
                # the stream is poisoned: one final error frame, hang up
                try:
                    await self._send(
                        writer, {"ok": False, "error": to_wire(
                            _protocol_error(str(error))
                        )}
                    )
                except (ConnectionError, OSError):
                    pass
                return False
            if frame is None:
                return True  # clean EOF at a frame boundary
            if self.faults is not None:
                action, stall_s = self.faults.action(self._now())
                if action == "drop":
                    if self.obs.enabled:
                        self.obs.count("serve.fault.drop")
                    return False  # abrupt close, no response
                if action == "stall":
                    if self.obs.enabled:
                        self.obs.count("serve.fault.stall")
                    await asyncio.sleep(stall_s)
            op = frame.get("op")
            if op in _CONTROL_OPS or op not in self._HANDLERS:
                response = self._execute_frame(session, frame)
            else:
                response = await self._submit(session, frame)
            await self._send(writer, response)
            if op == "goodbye":
                return True

    def _cleanup_session(self, session: _Session) -> None:
        """Roll back whatever the departed connection left open."""
        if session.in_txn:
            self.orphan_rollbacks += 1
            if self.obs.enabled:
                self.obs.count("serve.txn.orphan_rollback")
            try:
                session.gtxn.rollback()
            except EngineError:
                pass
        session.gtxn = None

    async def _send(
        self, writer: asyncio.StreamWriter, payload: Dict[str, Any]
    ) -> None:
        writer.write(wire.encode_frame(payload))
        await writer.drain()

    # -- the admission queue and its drainer ----------------------------------

    def _drain_error(self) -> OverloadError:
        return OverloadError(
            f"{self.config.name}: draining for shutdown; retry against "
            f"the replacement server",
            retry_after_s=DRAIN_RETRY_AFTER_S,
        )

    async def _submit(self, session: _Session, frame) -> Dict[str, Any]:
        """Queue one SQL frame for the drainer; await its response."""
        if self._draining:
            self.shed += 1
            if self.obs.enabled:
                self.obs.count("serve.stmt.shed")
            return {"ok": False, "error": to_wire(self._drain_error())}
        future = asyncio.get_running_loop().create_future()
        work = _Work(session, frame, future, self._now())
        if self.controller is not None:
            try:
                self.controller.enqueue(
                    work, work.enqueued_at_s, priority=session.priority
                )
            except OverloadError as error:
                self.shed += 1
                if self.obs.enabled:
                    self.obs.count("serve.stmt.shed")
                return {"ok": False, "error": to_wire(error)}
            self._wake.set()
        else:
            self._queue.put_nowait(work)
        self._pending_stmts += 1
        return await future

    async def _drain(self) -> None:
        """The single worker task executing admitted statements."""
        while True:
            work = await self._next_work()
            started = self._now()
            if (
                self.controller is not None
                and self.config.deadline_s is not None
                and started - work.enqueued_at_s > self.config.deadline_s
            ):
                # deadline propagation: the client gave up on this
                # statement while it queued -- expire it unexecuted
                self.expired += 1
                if self.obs.enabled:
                    self.obs.count("serve.stmt.expired")
                response = {"ok": False, "error": to_wire(
                    DeadlineExceededError(
                        f"{self.config.name}: statement expired after "
                        f"{started - work.enqueued_at_s:.3f}s in the "
                        f"admission queue"
                    )
                )}
                self.controller.release(self._now(), -1.0)
            else:
                response = self._execute_frame(work.session, work.frame)
                if self.controller is not None:
                    now = self._now()
                    self.controller.release(
                        now, now - started, ok=bool(response.get("ok"))
                    )
            self._pending_stmts -= 1
            if not work.future.done():
                work.future.set_result(response)

    async def _next_work(self) -> _Work:
        if self.controller is None:
            return await self._queue.get()
        while True:
            ticket = self.controller.next_ready(self._now())
            if ticket is not None:
                return ticket.item
            self._wake.clear()
            await self._wake.wait()

    # -- request execution ------------------------------------------------------

    def _execute_frame(
        self, session: _Session, frame: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Run one frame to completion, mapping every failure through
        the wire taxonomy (errors cross the socket *only* via
        :func:`~repro.serve.errors.to_wire` -- the one place)."""
        op = frame.get("op")
        handler = self._HANDLERS.get(op)
        if handler is None:
            return {"ok": False, "error": to_wire(
                _protocol_error(f"unknown op {op!r}")
            )}
        try:
            return handler(self, session, frame)
        except EngineError as error:
            self.errors += 1
            if self.obs.enabled:
                self.obs.count("serve.stmt.error")
            return {"ok": False, "error": to_wire(error)}
        except Exception as error:  # noqa: BLE001 -- never kill the session
            self.errors += 1
            return {"ok": False, "error": to_wire(error)}

    def _op_hello(self, session, frame):
        session.client_name = str(frame.get("client", ""))
        session.priority = int(frame.get("priority", 1))
        return {
            "ok": True,
            "server": self.config.name,
            "n_shards": self.fleet.n_shards,
            "max_frame": self.config.max_frame,
        }

    def _op_ping(self, session, frame):
        return {"ok": True}

    def _op_goodbye(self, session, frame):
        self._cleanup_session(session)
        return {"ok": True, "bye": True}

    def _run_statement(
        self, session: _Session, sql: str, params, read_only: bool
    ):
        if session.in_txn:
            return self.fleet.execute(sql, list(params), gtxn=session.gtxn)
        if read_only:
            return self.fleet.query(sql, list(params))
        return self.fleet.execute(sql, list(params))

    def _op_execute(self, session, frame, read_only: bool = False):
        sql = frame.get("sql")
        if not isinstance(sql, str):
            raise _protocol_error("execute frame without sql")
        params = frame.get("params", [])
        self.statements += 1
        result = self._run_statement(session, sql, params, read_only)
        if self.obs.enabled:
            self.obs.count("serve.stmt.ok")
        return {
            "ok": True,
            "columns": list(result.columns),
            "rows": [list(row) for row in result.rows],
            "rowcount": result.rowcount,
        }

    def _op_query(self, session, frame):
        return self._op_execute(session, frame, read_only=True)

    def _op_begin(self, session, frame):
        if session.in_txn:
            raise _protocol_error("begin inside an open transaction")
        isolation = frame.get("isolation")
        session.gtxn = self.fleet.begin(
            isolation=(
                self._isolation if isolation is None
                else coerce_isolation(isolation)
            )
        )
        if self.obs.enabled:
            self.obs.count("serve.txn.begin")
        return {"ok": True, "gtid": session.gtxn.gtid}

    def _op_commit(self, session, frame):
        if not session.in_txn:
            raise _protocol_error("commit outside a transaction")
        gtxn = session.gtxn
        try:
            gtxn.commit()
        finally:
            if not gtxn.is_active:
                session.gtxn = None
        if self.obs.enabled:
            self.obs.count("serve.txn.commit")
        return {"ok": True, "gtid": gtxn.gtid}

    def _op_rollback(self, session, frame):
        if not session.in_txn:
            raise _protocol_error("rollback outside a transaction")
        gtxn = session.gtxn
        try:
            gtxn.rollback()
        finally:
            if not gtxn.is_active:
                session.gtxn = None
        return {"ok": True}

    def _op_abandon(self, session, frame):
        """Drop the session's transaction affinity *without* rollback.

        For the post-crash convention (see ``Client.abandon``): a
        :class:`~repro.engine.errors.SimulatedCrash` left the global
        transaction dangling on purpose -- its branches belong to crash
        recovery -- but this session must be able to ``begin`` again.
        """
        session.gtxn = None
        return {"ok": True}

    def _op_batch(self, session, frame):
        """One whole transaction, atomic with respect to the event loop.

        The drainer calls this synchronously -- no awaits happen between
        ``fleet.begin()`` and the commit below, so two pipelined batches from
        different connections can never interleave their statements,
        which is what pins the measured counters (committed / aborted /
        fsyncs) regardless of asyncio scheduling order.
        """
        if session.in_txn:
            raise _protocol_error("batch inside an open transaction")
        stmts = frame.get("stmts")
        if not isinstance(stmts, list) or not stmts:
            raise _protocol_error("batch frame without statements")
        self.statements += len(stmts)
        gtxn = self.fleet.begin(isolation=self._isolation)
        rowcounts = []
        try:
            for entry in stmts:
                sql, params = entry[0], entry[1] if len(entry) > 1 else []
                result = self.fleet.execute(sql, list(params), gtxn=gtxn)
                rowcounts.append(result.rowcount)
            gtxn.commit()
        except BaseException:
            if gtxn.is_active:
                try:
                    gtxn.rollback()
                except EngineError:
                    pass
            raise
        if self.obs.enabled:
            self.obs.count("serve.txn.commit")
            self.obs.count("serve.stmt.ok", len(stmts))
        return {"ok": True, "rowcounts": rowcounts, "gtid": gtxn.gtid}

    _HANDLERS = {
        "hello": _op_hello,
        "ping": _op_ping,
        "goodbye": _op_goodbye,
        "execute": _op_execute,
        "query": _op_query,
        "begin": _op_begin,
        "commit": _op_commit,
        "rollback": _op_rollback,
        "abandon": _op_abandon,
        "batch": _op_batch,
    }


def _protocol_error(message: str) -> EngineError:
    """A non-retryable protocol-misuse error (the client is wrong)."""
    return SqlError(f"protocol: {message}")
