"""An asyncio TCP serving front end over :class:`~repro.core.stream.BatchSession`.

``repro-cover serve`` historically spoke newline-delimited results to a
single stdin client.  This module is the network tier on top of the
same streaming executor: many concurrent clients speak a
**newline-delimited JSON** protocol to one :class:`CoverServer`, whose
instances are micro-batched, scheduled, stolen and solved by the
session exactly as if they had arrived from one caller — bit-identical
to a solo ``run_fastpath`` per request.

Protocol (one JSON object per line, UTF-8)::

    -> {"op": "solve", "id": 7, "n": 4, "edges": [[0, 1], [2, 3]],
        "weights": [1, "3/2", 2, 1], "epsilon": "1/3",
        "deadline": 5.0, "include_dual": false}
    <- {"op": "solve", "id": 7, "ok": true, "latency_ms": 1.93,
        "result": {"cover": [...], "weight": ..., ...}}

    -> {"op": "update", "id": 8, "base": 7, "add_edges": [[0, 3]],
        "remove_edges": [1], "set_weights": [[2, "5/2"]],
        "add_vertices": [1], "threshold": 0.5}
    <- {"op": "update", "id": 8, "ok": true, "latency_ms": 0.41,
        "result": {..., "warm": true, "invalidated": 2}}

    -> {"op": "delete_edge", "id": 9, "base": 8, "position": 0}
    <- {"op": "delete_edge", "id": 9, "ok": true, ...}

    -> {"op": "cancel", "id": 7}
    <- {"op": "cancel", "id": 7, "ok": true, "cancelled": true}

    -> {"op": "stats"}
    <- {"op": "stats", "ok": true, "server": {...}, "session": {...},
        "latency": {"count": ..., "p50_ms": ..., "p95_ms": ...,
        "p99_ms": ...}, "lanes": {"int64": ..., "bigint": ...}}

Failures answer ``{"ok": false, "kind": ..., "error": ...}`` with
``kind`` one of ``bad-request`` (malformed line/instance), ``timeout``
(missed ``deadline``), ``cancelled``, ``overloaded`` (admission wait
exceeded ``shed_after``; carries ``retry_after``), ``error``
(solver-level, e.g. round limit) or ``internal``.  Solve/update
responses also carry ``retries`` — how many times the request's shard
was re-dispatched after a worker crash, hang or transport fault before
this answer was produced.  Weights and epsilon are exact: integers
pass as JSON numbers, rationals as canonical ``"num/den"`` strings.

The ``update`` verb mutates the hypergraph of an earlier ``solve`` or
``update`` on the *same connection* (``base`` is that request's id)
and re-solves incrementally
(:meth:`~repro.core.stream.BatchSession.submit_update`): edge removals
name positions in the base snapshot, additions/reweights/new vertices
follow :class:`~repro.hypergraph.GraphDelta` semantics, and the
response's ``warm``/``invalidated`` fields report whether the cached
per-component state was reused.  ``delete_edge`` is the single-removal
shorthand.  Results are bit-identical to solving the mutated
hypergraph from scratch.

Design notes
------------

* **admission is bounded and fair** — at most ``max_pending`` requests
  may be past-parse but not-yet-responded, enforced with a semaphore
  the connection handlers acquire *before* reading further lines.  A
  client bursting past the bound simply stops being read (TCP
  backpressure); a **slow-reading** client holds only its own slots,
  so it can never stall the scheduler or other clients.  A second,
  **per-client** quota (``per_client_pending``) is acquired *before*
  the global semaphore, so one greedy pipeliner blocks on its own
  quota while global slots stay free for everybody else — a two-client
  starvation test pins this;
* **a dispatcher thread owns admission into the session** —
  ``session.submit`` seals and packs CSR arenas under the session
  lock, so it must never run on the event loop; the loop hands parsed
  requests (and cancels, which must order after their submits) to the
  dispatcher over a queue and stays free to settle responses.
  Completion flows back via
  :meth:`~repro.core.stream.StreamTicket.add_done_callback` →
  ``loop.call_soon_threadsafe``;
* **per-request control** — every solve is one
  :class:`~repro.core.stream.StreamTicket`: the ``cancel`` verb
  withdraws it (unsolved when still buffered/queued), a ``deadline``
  arms the session's watchdog, and a connection reset (or write
  failure) auto-cancels everything the client still has in flight.  A
  *clean* EOF is not a reset: a client may pipeline its solves, close
  its write side, and still read every response before the server
  closes the socket;
* **graceful drain** — :meth:`CoverServer.shutdown` stops accepting,
  waits for every admitted request to settle and flush, then closes
  the session (which drains the worker pool) — no request that got a
  ticket is ever dropped without an answer its client could have read.

All server-side mutable state (counters, latency window, connection
registry) is touched only on the event loop thread; the dispatcher
thread touches only the session.  :class:`CoverClient` is the matching
asyncio client used by the tests, the load harness
(``benchmarks/bench_serve.py``) and ``examples/tcp_client.py``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import queue
import socket
import sys
import threading
import time
from collections import Counter, deque
from fractions import Fraction

from repro.core.faults import FaultPlan
from repro.core.params import AlgorithmConfig
from repro.core.result import rational_for_json
from repro.core.stream import BatchSession
from repro.core.supervisor import SupervisorPolicy
from repro.exceptions import (
    InvalidInstanceError,
    ReproError,
    TicketCancelled,
    TicketTimeout,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.mutable import GraphDelta

__all__ = [
    "CoverServer",
    "CoverClient",
    "ServerError",
    "instance_payload",
    "parse_instance",
]

#: Per-line size cap for the stream reader.  Instances travel inline,
#: so the limit is generous; a line beyond it is a protocol error.
MAX_LINE_BYTES = 32 * 1024 * 1024

#: Upper bound on a single response write stalling in ``drain()``.  A
#: peer making no TCP progress for this long is treated as gone: the
#: connection is aborted so its queued payloads are discarded and
#: their admission slots released.  A merely *slow* reader never trips
#: this — each ``drain()`` completes as soon as the socket buffer
#: falls below the high-water mark — but without it a half-closed
#: client that stops reading would pin its flush (and shutdown's
#: drain) forever.
WRITE_STALL_TIMEOUT = 60.0

#: Sentinel closing a connection's writer queue.
_CLOSE = object()


class ServerError(ReproError):
    """A request failed server-side (carried back to the client)."""

    def __init__(self, message: str, kind: str = "error"):
        super().__init__(message)
        self.kind = kind


def _reject_nonfinite(token: str):
    """``json.loads`` hook: the protocol has no use for non-finite
    numbers, and letting ``NaN`` through breaks every comparison
    downstream (``NaN <= 0`` is False, so it would pass validation)."""
    raise ValueError(f"non-finite number {token!r}")


#: Digit ceiling the wire layer raises CPython's int<->str guard to.
#: A decimal token can never be longer than the line carrying it, so
#: :data:`MAX_LINE_BYTES` digits is the natural bound.
_DIGIT_LIMIT = MAX_LINE_BYTES


def _lift_decimal_guard() -> None:
    """Raise CPython's int<->str digit cap to the protocol's line bound.

    The protocol carries weights and duals as canonical decimal
    ``"num/den"`` tokens, and spill-lane instances routinely hold
    weights tens of thousands of bits wide — far past the default
    4300-digit conversion guard.  That guard protects parsers fed
    unbounded untrusted decimals; here every line is already capped at
    :data:`MAX_LINE_BYTES`, so conversions are raised to that bound —
    never unlimited, so an application embedding :class:`CoverClient`
    keeps a finite interpreter-wide guard.

    .. note:: ``sys.set_int_max_str_digits`` is process-global; this
       only ever *raises* the limit (to :data:`_DIGIT_LIMIT`), and
       leaves any equal-or-wider — or already unlimited — setting
       untouched.
    """
    current = sys.get_int_max_str_digits()
    if current != 0 and current < _DIGIT_LIMIT:
        sys.set_int_max_str_digits(_DIGIT_LIMIT)


def instance_payload(hypergraph: Hypergraph) -> dict:
    """The wire form of one instance (the ``solve`` verb's body).

    Exact inverse of :func:`parse_instance`: integer weights as JSON
    numbers, fractional weights as ``"num/den"`` strings, the all-ones
    default omitted.
    """
    _lift_decimal_guard()
    payload: dict = {
        "n": hypergraph.num_vertices,
        "edges": [list(edge) for edge in hypergraph.edges],
    }
    if any(weight != 1 for weight in hypergraph.weights):
        payload["weights"] = [
            rational_for_json(weight) for weight in hypergraph.weights
        ]
    return payload


def _parse_weight(token, position: int):
    if isinstance(token, bool) or not isinstance(token, (int, str)):
        raise InvalidInstanceError(
            f"weights[{position}]: expected an integer or a 'num/den' "
            f"string, got {token!r}"
        )
    if isinstance(token, int):
        return token
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as error:
        raise InvalidInstanceError(
            f"weights[{position}]: malformed rational {token!r}"
        ) from error


def parse_instance(message: dict) -> Hypergraph:
    """Build the :class:`Hypergraph` a ``solve`` request describes.

    Structural validation (vertex ranges, positive weights, ...) is the
    :class:`Hypergraph` constructor's job; this only checks the wire
    shapes so errors read as protocol errors.
    """
    _lift_decimal_guard()
    n = message.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise InvalidInstanceError(
            f"'n' must be a non-negative integer, got {n!r}"
        )
    edges_field = message.get("edges", [])
    if not isinstance(edges_field, list):
        raise InvalidInstanceError("'edges' must be a list of vertex lists")
    edges = []
    for index, edge in enumerate(edges_field):
        if not isinstance(edge, list) or not all(
            isinstance(vertex, int) and not isinstance(vertex, bool)
            for vertex in edge
        ):
            raise InvalidInstanceError(
                f"edges[{index}]: expected a list of integer vertex ids, "
                f"got {edge!r}"
            )
        edges.append(tuple(edge))
    weights_field = message.get("weights")
    weights = None
    if weights_field is not None:
        if not isinstance(weights_field, list):
            raise InvalidInstanceError(
                "'weights' must be a list of integers or 'num/den' strings"
            )
        weights = [
            _parse_weight(token, position)
            for position, token in enumerate(weights_field)
        ]
    return Hypergraph(n, edges, weights)


def _percentile(sorted_values: list[float], quantile: float) -> float:
    """Nearest-rank percentile of an ascending non-empty list."""
    rank = max(
        0, min(len(sorted_values) - 1,
               round(quantile * (len(sorted_values) - 1)))
    )
    return sorted_values[rank]


class _SolveRequest:
    """One in-flight ``solve`` or ``update``: payload plus routing state.

    Updates carry no hypergraph of their own; instead ``base`` points
    at the request whose (possibly mutated) snapshot the ``delta``
    applies to, and the dispatcher chains the session tickets.
    """

    __slots__ = ("connection", "request_id", "hypergraph", "config",
                 "deadline", "include_dual", "started", "ticket",
                 "op", "base", "delta", "threshold")

    def __init__(self, connection, request_id, hypergraph, config,
                 deadline, include_dual, *, op="solve", base=None,
                 delta=None, threshold=0.5):
        self.connection = connection
        self.request_id = request_id
        self.hypergraph = hypergraph
        self.config = config
        self.deadline = deadline
        self.include_dual = include_dual
        self.started = time.perf_counter()
        self.ticket = None  # set by the dispatcher thread
        self.op = op
        self.base = base
        self.delta = delta
        self.threshold = threshold


class _Connection:
    """Loop-side state of one client connection."""

    __slots__ = ("writer", "responses", "requests", "handles", "slots",
                 "outstanding", "alive", "drained")

    def __init__(self, writer, per_client_pending: int):
        self.writer = writer
        #: Response queue consumed by the connection's writer task:
        #: ``(payload, holds_slot)`` tuples, or ``_CLOSE``.
        self.responses: asyncio.Queue = asyncio.Queue()
        #: Live solve requests by client request id (for ``cancel``).
        self.requests: dict = {}
        #: Every solve/update this connection ever admitted, by id —
        #: the ``base`` namespace of the ``update`` verb.  Entries stay
        #: resident (any answered request may become an update base).
        self.handles: dict = {}
        #: Per-client admission quota, acquired before the server-wide
        #: semaphore so a greedy pipeliner starves only itself.
        self.slots = asyncio.Semaphore(per_client_pending)
        self.outstanding = 0
        self.alive = True
        #: Set when the last outstanding request has settled.
        self.drained = asyncio.Event()
        self.drained.set()


class CoverServer:
    """The TCP serving front end; see the module docstring.

    Parameters
    ----------
    host / port:
        Bind address; port ``0`` picks a free port (reported by
        :meth:`start`).
    config:
        Default :class:`AlgorithmConfig` for requests that do not
        override ``epsilon``/``schedule``.
    jobs / max_batch / verify:
        Passed through to the underlying :class:`BatchSession`.
    max_pending:
        Admission bound: requests admitted (parsed) but not yet
        responded, across all clients.  Beyond it, connection handlers
        stop reading — TCP backpressure, never a stalled scheduler.
    per_client_pending:
        Fairness quota: how many of those slots a single connection
        may hold at once (default ``max(1, max_pending // 4)``).
        Acquired before the global semaphore, so a client bursting
        past its quota blocks on itself while global capacity stays
        available to other clients.
    latency_window:
        How many recent request latencies the ``stats`` verb's
        percentiles are computed over.
    shed_after:
        Load-shedding bound, in seconds.  A request whose *admission
        wait* (time blocked on the per-client or global semaphore)
        exceeds it is answered ``{"ok": false, "kind": "overloaded",
        "retry_after": shed_after}`` instead of queueing unboundedly —
        an explicit backpressure signal the client can act on.
        ``None`` (the default) keeps pure TCP backpressure.
    fault_plan:
        Optional :class:`~repro.core.faults.FaultPlan` passed to the
        session (worker/ship faults) and consulted by the response
        writer for server-side faults: ``drop`` discards one response
        (slots still released — the client sees a missing answer, the
        server stays healthy), ``reset`` aborts the connection.
    policy:
        Optional :class:`~repro.core.supervisor.SupervisorPolicy` for
        the session's supervisor/breaker.
    max_resident:
        Bound on resident incremental solve states kept for the
        ``update`` verb; least-recently-based states beyond it are
        evicted (re-solving cold on next use).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        config: AlgorithmConfig | None = None,
        jobs: int | None = None,
        max_batch: int = 8,
        verify: bool = True,
        max_pending: int = 256,
        per_client_pending: int | None = None,
        latency_window: int = 4096,
        shed_after: float | None = None,
        fault_plan: FaultPlan | None = None,
        policy: SupervisorPolicy | None = None,
        max_resident: int | None = None,
    ):
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if shed_after is not None and (
            not math.isfinite(shed_after) or shed_after <= 0
        ):
            raise ValueError(
                f"shed_after must be a positive finite number of seconds, "
                f"got {shed_after!r}"
            )
        if per_client_pending is None:
            per_client_pending = max(1, max_pending // 4)
        if per_client_pending < 1:
            raise ValueError(
                f"per_client_pending must be >= 1, got {per_client_pending}"
            )
        self._host = host
        self._port = port
        self._config = config or AlgorithmConfig()
        self._jobs = jobs
        self._max_batch = max_batch
        self._verify = verify
        self._max_pending = max_pending
        self._per_client_pending = per_client_pending
        self._shed_after = shed_after
        self._fault_plan = fault_plan
        self._policy = policy
        self._max_resident = max_resident
        self._session: BatchSession | None = None
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._dispatch_queue: queue.Queue = queue.Queue()
        self._dispatcher: threading.Thread | None = None
        self._slots: asyncio.Semaphore | None = None
        self._connections: set[_Connection] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._closing = False
        self._latencies: deque[float] = deque(maxlen=latency_window)
        self._lane_counts: Counter = Counter()
        self._counters = Counter(
            requests=0, responses=0, errors=0, disconnect_cancels=0,
            updates=0, warm_updates=0, shed=0, injected_drops=0,
            injected_resets=0,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind, start serving, and return the actual ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError("server already started")
        _lift_decimal_guard()
        self._loop = asyncio.get_running_loop()
        self._session = BatchSession(
            self._config,
            jobs=self._jobs,
            verify=self._verify,
            max_batch=self._max_batch,
            fault_plan=self._fault_plan,
            policy=self._policy,
            max_resident=self._max_resident,
            # A server runs indefinitely: the admission log must not
            # grow without bound.
            record_schedule=False,
        )
        self._slots = asyncio.Semaphore(self._max_pending)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop,
            name="cover-serve-dispatch",
            daemon=True,
        )
        self._dispatcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self._host,
            self._port,
            limit=MAX_LINE_BYTES,
        )
        address = self._server.sockets[0].getsockname()
        return address[0], address[1]

    async def serve_forever(self) -> None:
        """Serve until cancelled (``start`` must have been awaited)."""
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def shutdown(self) -> None:
        """Graceful drain: answer everything admitted, then close.

        Stops accepting new connections, waits for every outstanding
        request to settle and its response to flush (disconnected
        clients' responses are discarded), cancels the idle reader
        tasks, stops the dispatcher and closes the session — which
        itself drains the worker pool.  Idempotent.
        """
        if self._server is None:
            return
        self._closing = True
        self._server.close()
        await self._server.wait_closed()
        # Every admitted request must settle and flush before the
        # session goes away; connections signal via their drain events.
        for connection in list(self._connections):
            await connection.drained.wait()
        # Readers are now idle (or mid-read on a live client): stop
        # them and flush each connection's writer.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._dispatch_queue.put(None)
        dispatcher, session = self._dispatcher, self._session
        loop = asyncio.get_running_loop()
        if dispatcher is not None:
            await loop.run_in_executor(None, dispatcher.join)
        if session is not None:
            await loop.run_in_executor(None, session.close)

    @property
    def session(self) -> BatchSession | None:
        """The underlying session (``None`` before :meth:`start`)."""
        return self._session

    # ------------------------------------------------------------------
    # Dispatcher thread: the only caller of session.submit
    # ------------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        """Consume admission work; runs until the shutdown sentinel.

        Ordering matters and is the reason cancels travel through this
        queue too: a ``cancel`` enqueued after its ``solve`` can never
        overtake it, so the ticket always exists by the time the
        cancel runs.
        """
        while True:
            item = self._dispatch_queue.get()
            if item is None:
                return
            verb, payload = item
            if verb == "solve":
                self._dispatch_solve(payload)
            elif verb == "update":
                self._dispatch_update(payload)
            elif verb == "cancel":
                request, respond = payload
                cancelled = (
                    request.ticket is not None and request.ticket.cancel()
                )
                self._loop.call_soon_threadsafe(respond, cancelled)
            elif verb == "stats":
                # snapshot() takes the session lock, which this thread
                # may hold for a long pack_arena during submit — so it
                # runs here, where it merely queues behind that work,
                # never on the event loop, which it would stall.
                snapshot = self._session.snapshot()
                self._loop.call_soon_threadsafe(payload, snapshot)
            elif verb == "abort":
                # A connection died: withdraw everything it still has
                # in flight (the settles flow back normally and are
                # discarded loop-side).
                for request in payload:
                    if request.ticket is not None:
                        request.ticket.cancel()

    def _dispatch_solve(self, request: _SolveRequest) -> None:
        try:
            ticket = self._session.submit(
                request.hypergraph,
                config=request.config,
                deadline=request.deadline,
            )
        except BaseException as error:  # closed session, bad deadline
            self._loop.call_soon_threadsafe(
                self._settled, request, None, error
            )
            return
        request.ticket = ticket
        ticket.add_done_callback(
            lambda ticket, request=request:
            self._loop.call_soon_threadsafe(
                self._settled, request, ticket._result, ticket._error
            )
        )

    def _dispatch_update(self, request: _SolveRequest) -> None:
        """Chain an update onto its base request's session ticket.

        The base's ``solve``/``update`` travelled through this same
        FIFO queue earlier, so its ticket exists by now — unless its
        own admission failed, which the update inherits as an error.
        """
        try:
            base_ticket = request.base.ticket
            if base_ticket is None:
                raise ServerError(
                    f"base request {request.base.request_id!r} was never "
                    f"admitted",
                    "bad-request",
                )
            ticket = self._session.submit_update(
                base_ticket,
                request.delta,
                deadline=request.deadline,
                threshold=request.threshold,
            )
        except BaseException as error:
            self._loop.call_soon_threadsafe(
                self._settled, request, None, error
            )
            return
        request.ticket = ticket
        ticket.add_done_callback(
            lambda ticket, request=request:
            self._loop.call_soon_threadsafe(
                self._settled, request, ticket._result, ticket._error
            )
        )

    # ------------------------------------------------------------------
    # Connection handling (event loop)
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        connection = _Connection(writer, self._per_client_pending)
        self._connections.add(connection)
        self._conn_tasks.add(asyncio.current_task())
        writer_task = asyncio.create_task(self._write_responses(connection))
        # A clean close (EOF, oversized line, shutdown) stops *reading*
        # but still answers everything admitted: a client that
        # pipelines its solves and half-closes its write side — the
        # common NDJSON pattern — reads every response.  Only a reset
        # or write failure aborts, withdrawing in-flight work.
        clean_close = False
        try:
            while not self._closing:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    self._respond_error(
                        connection, None, None,
                        f"line exceeds {MAX_LINE_BYTES} bytes",
                        "bad-request",
                    )
                    clean_close = True  # reads are poisoned, writes fine
                    break
                except (ConnectionError, OSError):
                    break
                if not line:
                    clean_close = True  # EOF: client done sending
                    break
                text = line.strip()
                if not text:
                    continue
                await self._handle_line(connection, text)
            else:
                clean_close = True
        except asyncio.CancelledError:
            # Shutdown cancels idle readers — after the drain, so
            # nothing is left to abort and responses have flushed.
            clean_close = True
        finally:
            if not clean_close:
                self._abort_connection(connection)
            # Teardown must run to completion even if a shutdown-time
            # cancel lands on one of its awaits (by then the server has
            # already drained, so the waits return immediately anyway).
            try:
                await connection.drained.wait()
            except asyncio.CancelledError:
                pass
            connection.responses.put_nowait(_CLOSE)
            try:
                await writer_task
            except asyncio.CancelledError:
                pass
            # The persistent worker pool forks with whatever FDs are
            # open, so a worker spawned mid-connection holds a copy of
            # this socket and transport close alone would never send
            # the FIN a half-closed client is waiting on.  shutdown()
            # acts on the TCP connection itself, not the FD count.
            raw_socket = writer.get_extra_info("socket")
            if raw_socket is not None:
                try:
                    raw_socket.shutdown(socket.SHUT_WR)
                except OSError:
                    pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass
            self._connections.discard(connection)
            self._conn_tasks.discard(asyncio.current_task())

    def _abort_connection(self, connection: _Connection) -> None:
        """Flip the connection dead and withdraw its in-flight solves.

        Reserved for resets and write failures — a clean EOF keeps the
        connection alive for writes instead.  Idempotent: the writer
        task and the reader's teardown may both get here.
        """
        if not connection.alive:
            return
        connection.alive = False
        live = [
            request
            for request in connection.requests.values()
            if request.ticket is None or not request.ticket.done()
        ]
        if live:
            self._counters["disconnect_cancels"] += len(live)
            self._dispatch_queue.put(("abort", live))

    async def _handle_line(self, connection: _Connection, text: bytes) -> None:
        try:
            message = json.loads(text, parse_constant=_reject_nonfinite)
            if not isinstance(message, dict):
                raise ValueError("expected a JSON object")
        except (ValueError, UnicodeDecodeError) as error:
            self._respond_error(
                connection, None, None, f"malformed JSON line: {error}",
                "bad-request",
            )
            return
        op = message.get("op")
        request_id = message.get("id")
        self._counters["requests"] += 1
        if request_id is not None and not isinstance(request_id, (str, int)):
            # `id` keys the response-matching and cancel registries:
            # anything but a string/int/null (a list is valid JSON but
            # unhashable) would raise only *after* the admission slot
            # was taken, leaking it.  Refuse before dispatching on op.
            self._respond_error(
                connection,
                op if isinstance(op, str) else None,
                None,
                f"'id' must be a string, integer or null, "
                f"got {request_id!r}",
                "bad-request",
            )
            return
        if op == "solve":
            await self._handle_solve(connection, request_id, message)
        elif op in ("update", "delete_edge"):
            await self._handle_update(connection, request_id, message, op)
        elif op == "cancel":
            self._handle_cancel(connection, request_id)
        elif op == "stats":
            self._handle_stats(connection, request_id)
        elif op == "ping":
            self._respond(
                connection,
                {"op": "ping", "id": request_id, "ok": True},
                holds_slot=False,
            )
        else:
            self._respond_error(
                connection, op, request_id, f"unknown op {op!r}",
                "bad-request",
            )

    @staticmethod
    def _parse_deadline(message) -> float | None:
        deadline = message.get("deadline")
        if deadline is not None and (
            isinstance(deadline, bool)
            or not isinstance(deadline, (int, float))
            # isfinite kills 1e400-style overflows-to-inf; literal
            # NaN/Infinity tokens were already refused at parse.
            or not math.isfinite(deadline)
            or deadline <= 0
        ):
            raise InvalidInstanceError(
                f"'deadline' must be a positive finite number of "
                f"seconds, got {deadline!r}"
            )
        return float(deadline) if deadline is not None else None

    @staticmethod
    def _parse_include_dual(message) -> bool:
        include_dual = message.get("include_dual", False)
        if not isinstance(include_dual, bool):
            raise InvalidInstanceError(
                f"'include_dual' must be true or false, got {include_dual!r}"
            )
        return include_dual

    async def _admit_request(self, connection, request, verb) -> None:
        """Take the admission slots and hand the request to dispatch.

        The per-client quota comes first: a client past its fair share
        blocks here — before its next line is read — without consuming
        server-wide capacity.  Both slots are returned together when
        the response has been written (or its client is gone).

        With ``shed_after`` set, a request that cannot take both slots
        within that bound is *shed*: answered ``overloaded`` with a
        ``retry_after`` hint instead of queueing indefinitely.  The
        reader keeps going, so an overloaded server stays responsive —
        it just says no quickly.
        """
        if self._shed_after is not None:
            try:
                await asyncio.wait_for(
                    connection.slots.acquire(), self._shed_after
                )
            except asyncio.TimeoutError:
                self._shed(connection, request)
                return
            try:
                await asyncio.wait_for(
                    self._slots.acquire(), self._shed_after
                )
            except asyncio.TimeoutError:
                connection.slots.release()
                self._shed(connection, request)
                return
        else:
            await connection.slots.acquire()
            await self._slots.acquire()
        connection.requests[request.request_id] = request
        connection.handles[request.request_id] = request
        connection.outstanding += 1
        connection.drained.clear()
        self._dispatch_queue.put((verb, request))

    def _shed(self, connection, request: _SolveRequest) -> None:
        """Answer ``overloaded`` for a request the server cannot admit."""
        self._counters["shed"] += 1
        payload = self._error_payload(
            request.op,
            request.request_id,
            ServerError(
                f"admission wait exceeded {self._shed_after}s; "
                f"retry after backoff",
                "overloaded",
            ),
        )
        payload["retry_after"] = self._shed_after
        self._respond(connection, payload, holds_slot=False)

    async def _handle_solve(self, connection, request_id, message) -> None:
        try:
            hypergraph = parse_instance(message)
            config = self._request_config(message)
            deadline = self._parse_deadline(message)
            include_dual = self._parse_include_dual(message)
        except ReproError as error:
            self._respond_error(
                connection, "solve", request_id, str(error), "bad-request"
            )
            return
        request = _SolveRequest(
            connection, request_id, hypergraph, config, deadline,
            include_dual,
        )
        await self._admit_request(connection, request, "solve")

    async def _handle_update(
        self, connection, request_id, message, op
    ) -> None:
        try:
            base = connection.handles.get(message.get("base"))
            if base is None:
                raise InvalidInstanceError(
                    f"'base' must name an earlier solve/update request "
                    f"on this connection, got {message.get('base')!r}"
                )
            delta = self._parse_delta(message, op)
            deadline = self._parse_deadline(message)
            include_dual = self._parse_include_dual(message)
            threshold = message.get("threshold", 0.5)
            if (
                isinstance(threshold, bool)
                or not isinstance(threshold, (int, float))
                or not math.isfinite(threshold)
                or threshold < 0
            ):
                raise InvalidInstanceError(
                    f"'threshold' must be a non-negative finite number, "
                    f"got {threshold!r}"
                )
        except ReproError as error:
            self._respond_error(
                connection, op, request_id, str(error), "bad-request"
            )
            return
        request = _SolveRequest(
            connection, request_id, None, base.config, deadline,
            include_dual, op=op, base=base, delta=delta,
            threshold=float(threshold),
        )
        await self._admit_request(connection, request, "update")

    @staticmethod
    def _parse_delta(message, op) -> GraphDelta:
        """The :class:`~repro.hypergraph.GraphDelta` a verb describes.

        Wire-shape checks only (like :func:`parse_instance`); semantic
        validation against the base snapshot — positions in range,
        weights positive — happens when the delta is applied, and
        surfaces as a solver-level error.
        """
        if op == "delete_edge":
            position = message.get("position")
            if isinstance(position, bool) or not isinstance(position, int):
                raise InvalidInstanceError(
                    f"'position' must be an integer edge position, "
                    f"got {position!r}"
                )
            return GraphDelta(removed_edges=(position,))
        added_edges = message.get("add_edges", [])
        removed_edges = message.get("remove_edges", [])
        set_weights = message.get("set_weights", [])
        added_vertices = message.get("add_vertices", [])
        if not isinstance(added_edges, list) or not all(
            isinstance(edge, list)
            and all(
                isinstance(vertex, int) and not isinstance(vertex, bool)
                for vertex in edge
            )
            for edge in added_edges
        ):
            raise InvalidInstanceError(
                "'add_edges' must be a list of integer vertex lists"
            )
        if not isinstance(removed_edges, list) or not all(
            isinstance(position, int) and not isinstance(position, bool)
            for position in removed_edges
        ):
            raise InvalidInstanceError(
                "'remove_edges' must be a list of integer edge positions "
                "in the base snapshot"
            )
        if not isinstance(set_weights, list) or not all(
            isinstance(pair, list) and len(pair) == 2
            and isinstance(pair[0], int) and not isinstance(pair[0], bool)
            for pair in set_weights
        ):
            raise InvalidInstanceError(
                "'set_weights' must be a list of [vertex, weight] pairs"
            )
        if not isinstance(added_vertices, list):
            raise InvalidInstanceError(
                "'add_vertices' must be a list of new-vertex weights"
            )
        return GraphDelta(
            added_vertices=tuple(
                _parse_weight(token, position)
                for position, token in enumerate(added_vertices)
            ),
            added_edges=tuple(tuple(edge) for edge in added_edges),
            removed_edges=tuple(removed_edges),
            reweighted=tuple(
                (pair[0], _parse_weight(pair[1], position))
                for position, pair in enumerate(set_weights)
            ),
        )

    def _request_config(self, message) -> AlgorithmConfig:
        epsilon = message.get("epsilon")
        schedule = message.get("schedule")
        if epsilon is None and schedule is None:
            return self._config
        try:
            return AlgorithmConfig(
                epsilon=(
                    epsilon if epsilon is not None else self._config.epsilon
                ),
                schedule=(
                    schedule if schedule is not None
                    else self._config.schedule
                ),
            )
        except (TypeError, ValueError) as error:
            raise InvalidInstanceError(
                f"bad solve parameters: {error}"
            ) from error

    def _handle_cancel(self, connection, request_id) -> None:
        request = connection.requests.get(request_id)
        if request is None:
            self._respond(
                connection,
                {
                    "op": "cancel", "id": request_id, "ok": True,
                    "cancelled": False,
                },
                holds_slot=False,
            )
            return

        def respond(cancelled: bool) -> None:
            self._respond(
                connection,
                {
                    "op": "cancel", "id": request_id, "ok": True,
                    "cancelled": cancelled,
                },
                holds_slot=False,
            )

        # Routed through the dispatcher so it orders after the submit.
        self._dispatch_queue.put(("cancel", (request, respond)))

    # ------------------------------------------------------------------
    # Settling and responses (event loop)
    # ------------------------------------------------------------------

    def _settled(self, request: _SolveRequest, result, error) -> None:
        """A ticket resolved: build and enqueue the response."""
        latency = time.perf_counter() - request.started
        connection = request.connection
        if connection.requests.get(request.request_id) is request:
            del connection.requests[request.request_id]
        retries = request.ticket.retries if request.ticket is not None else 0
        if error is None:
            self._latencies.append(latency)
            if result.lane is not None:
                self._lane_counts[result.lane] += 1
            payload = {
                "op": request.op,
                "id": request.request_id,
                "ok": True,
                "latency_ms": round(latency * 1e3, 3),
                "retries": retries,
                "result": result.as_dict(include_dual=request.include_dual),
            }
        else:
            payload = self._error_payload(
                request.op, request.request_id, error
            )
            payload["latency_ms"] = round(latency * 1e3, 3)
            payload["retries"] = retries
        self._respond(connection, payload, holds_slot=True)
        connection.outstanding -= 1
        if connection.outstanding == 0:
            connection.drained.set()
        if request.op != "solve" and error is None:
            self._counters["updates"] += 1
            if result.warm:
                self._counters["warm_updates"] += 1

    def _error_payload(self, op, request_id, error) -> dict:
        self._counters["errors"] += 1
        if isinstance(error, TicketTimeout):
            kind = "timeout"
        elif isinstance(error, TicketCancelled):
            kind = "cancelled"
        elif isinstance(error, ServerError):
            kind = error.kind
        elif isinstance(error, ReproError):
            kind = "error"
        else:
            kind = "internal"
        return {
            "op": op,
            "id": request_id,
            "ok": False,
            "kind": kind,
            "error": f"{type(error).__name__}: {error}",
        }

    def _respond_error(self, connection, op, request_id, message, kind) -> None:
        self._respond(
            connection,
            self._error_payload(op, request_id, ServerError(message, kind)),
            holds_slot=False,
        )

    def _respond(self, connection, payload, *, holds_slot: bool) -> None:
        connection.responses.put_nowait((payload, holds_slot))

    async def _write_responses(self, connection: _Connection) -> None:
        """Per-connection writer: the only task touching the socket.

        A slow client blocks only here, in ``drain()`` — holding its
        own admission slots and nothing else.  A write failure — or a
        single write stalled past :data:`WRITE_STALL_TIMEOUT` — aborts
        the connection (its remaining in-flight solves are withdrawn)
        but keeps consuming so every held slot is released.

        This is also the server-side fault-injection site: with a
        :class:`FaultPlan` armed, ``drop`` discards one *solve*
        response (slots still released, so the server never wedges on
        its own fault) and ``reset`` aborts the connection mid-stream
        — both exactly the failure a flaky network would produce.
        """
        while True:
            item = await connection.responses.get()
            if item is _CLOSE:
                return
            payload, holds_slot = item
            if (
                holds_slot
                and connection.alive
                and self._fault_plan is not None
            ):
                fault = self._fault_plan.server_fault()
                if fault == "drop":
                    self._counters["injected_drops"] += 1
                    self._slots.release()
                    connection.slots.release()
                    continue
                if fault == "reset":
                    self._counters["injected_resets"] += 1
                    self._abort_connection(connection)
                    transport = connection.writer.transport
                    if transport is not None:
                        transport.abort()
            if connection.alive:
                try:
                    connection.writer.write(
                        json.dumps(payload).encode("utf-8") + b"\n"
                    )
                    await asyncio.wait_for(
                        connection.writer.drain(), WRITE_STALL_TIMEOUT
                    )
                    self._counters["responses"] += 1
                except (ConnectionError, OSError, asyncio.TimeoutError):
                    self._abort_connection(connection)
            if holds_slot:
                self._slots.release()
                connection.slots.release()

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    def _handle_stats(self, connection: _Connection, request_id) -> None:
        """Answer a ``stats`` request (session snapshot off-loop)."""

        def respond(session_stats: dict) -> None:
            self._respond(
                connection,
                self._stats_payload(request_id, session_stats),
                holds_slot=False,
            )

        self._dispatch_queue.put(("stats", respond))

    def _stats_payload(self, request_id, session_stats: dict) -> dict:
        ordered = sorted(self._latencies)
        latency = {"count": len(ordered)}
        if ordered:
            latency.update(
                p50_ms=round(_percentile(ordered, 0.50) * 1e3, 3),
                p95_ms=round(_percentile(ordered, 0.95) * 1e3, 3),
                p99_ms=round(_percentile(ordered, 0.99) * 1e3, 3),
                mean_ms=round(sum(ordered) / len(ordered) * 1e3, 3),
            )
        return {
            "op": "stats",
            "id": request_id,
            "ok": True,
            "server": {
                **dict(self._counters),
                "active_connections": len(self._connections),
                "max_pending": self._max_pending,
                "per_client_pending": self._per_client_pending,
            },
            "session": session_stats,
            "latency": latency,
            "lanes": dict(self._lane_counts),
        }


class CoverClient:
    """Asyncio client for the newline-delimited JSON protocol.

    Supports pipelining: many :meth:`solve` coroutines may be in
    flight on one connection (responses are matched by ``(op, id)``,
    since completion order is not submission order).
    """

    def __init__(self, reader, writer):
        self._reader = reader
        self._writer = writer
        self._pending: dict[tuple, asyncio.Future] = {}
        self._ids = itertools.count()
        self._reader_task = asyncio.create_task(self._read_responses())

    @classmethod
    async def connect(cls, host: str, port: int) -> "CoverClient":
        _lift_decimal_guard()
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_LINE_BYTES
        )
        return cls(reader, writer)

    async def close(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def _read_responses(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                message = json.loads(line)
                key = (message.get("op"), message.get("id"))
                future = self._pending.pop(key, None)
                if future is not None and not future.done():
                    future.set_result(message)
        except (ConnectionError, OSError, ValueError):
            pass
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ConnectionError("server connection closed")
                    )
            self._pending.clear()

    @staticmethod
    def encode(message: dict) -> tuple[tuple, bytes]:
        """Pre-encode a request into its ``(key, line)`` wire form.

        Load generators build their corpus outside the timed region;
        :meth:`request_encoded` sends the prepared line without paying
        serialization per request.
        """
        return (
            (message.get("op"), message.get("id")),
            json.dumps(message).encode("utf-8") + b"\n",
        )

    async def request_encoded(self, key: tuple, line: bytes) -> dict:
        """Send one pre-encoded request line; awaits its response."""
        if key in self._pending:
            raise ValueError(f"request {key} already in flight")
        future = asyncio.get_running_loop().create_future()
        self._pending[key] = future
        self._writer.write(line)
        await self._writer.drain()
        return await future

    async def request(self, message: dict) -> dict:
        """Send one request object and await its matched response."""
        key, line = self.encode(message)
        return await self.request_encoded(key, line)

    async def solve(
        self,
        hypergraph: Hypergraph,
        *,
        epsilon=None,
        schedule: str | None = None,
        deadline: float | None = None,
        include_dual: bool = False,
        request_id=None,
    ) -> dict:
        """Solve one instance; returns the raw response object."""
        message = {
            "op": "solve",
            "id": request_id if request_id is not None
            else f"c{next(self._ids)}",
            **instance_payload(hypergraph),
        }
        if epsilon is not None:
            message["epsilon"] = (
                epsilon if isinstance(epsilon, (int, str))
                else str(Fraction(epsilon))
            )
        if schedule is not None:
            message["schedule"] = schedule
        if deadline is not None:
            message["deadline"] = deadline
        if include_dual:
            message["include_dual"] = True
        return await self.request(message)

    async def update(
        self,
        base,
        *,
        add_edges=(),
        remove_edges=(),
        set_weights=(),
        add_vertices=(),
        threshold: float | None = None,
        deadline: float | None = None,
        include_dual: bool = False,
        request_id=None,
    ) -> dict:
        """Mutate the hypergraph of request ``base`` and re-solve.

        ``remove_edges`` are edge positions in the base snapshot;
        ``set_weights`` is ``[(vertex, weight), ...]``;
        ``add_vertices`` lists the new vertices' weights.  The returned
        response's ``result`` carries ``warm``/``invalidated``.
        """
        message = {
            "op": "update",
            "id": request_id if request_id is not None
            else f"c{next(self._ids)}",
            "base": base,
        }
        if add_edges:
            message["add_edges"] = [list(edge) for edge in add_edges]
        if remove_edges:
            message["remove_edges"] = list(remove_edges)
        if set_weights:
            message["set_weights"] = [
                [vertex, rational_for_json(weight)]
                for vertex, weight in set_weights
            ]
        if add_vertices:
            message["add_vertices"] = [
                rational_for_json(weight) for weight in add_vertices
            ]
        if threshold is not None:
            message["threshold"] = threshold
        if deadline is not None:
            message["deadline"] = deadline
        if include_dual:
            message["include_dual"] = True
        return await self.request(message)

    async def delete_edge(
        self,
        base,
        position: int,
        *,
        deadline: float | None = None,
        request_id=None,
    ) -> dict:
        """Remove one edge (by base-snapshot position) and re-solve."""
        message = {
            "op": "delete_edge",
            "id": request_id if request_id is not None
            else f"c{next(self._ids)}",
            "base": base,
            "position": position,
        }
        if deadline is not None:
            message["deadline"] = deadline
        return await self.request(message)

    async def cancel(self, request_id) -> dict:
        return await self.request({"op": "cancel", "id": request_id})

    async def stats(self) -> dict:
        return await self.request(
            {"op": "stats", "id": f"c{next(self._ids)}"}
        )

    async def ping(self) -> dict:
        return await self.request(
            {"op": "ping", "id": f"c{next(self._ids)}"}
        )
