"""Streaming batch admission with a work-stealing shard scheduler.

The static parallel executor (:mod:`repro.core.parallel`) answers one
question — "here are K instances, solve them" — by cutting the batch
into cost-balanced shards up front.  A serving workload asks a harder
one: instances *arrive over time*, and even the lane-aware
:func:`~repro.core.parallel.corrected_cost` estimate that balances the
shards (static structure times the live observed-rate correction
table) can still be wrong for a novel instance shape.  This module is
the serving answer, and the only code that submits work to the pool:
the static executor admits its pre-cut shards here too (one locked
step, stealing off), so both paths share the supervision below.

* **admission** — :class:`BatchSession` is a context manager whose
  :meth:`~BatchSession.submit` accepts one hypergraph at a time and
  returns a :class:`StreamTicket` (a Future-style handle).  Compatible
  submissions (same config) are **micro-batched** on the fly: they
  accumulate in a per-config buffer that seals into a packed arena
  shard when it reaches ``max_batch`` — or immediately, when idle
  worker capacity would otherwise go unused (batching is a throughput
  trade; under low load, latency wins);
* **scheduling** — sealed shards are assigned to the least-loaded
  per-worker queue (by estimated cost) of the persistent process pool
  from :mod:`repro.core.parallel`, at most one shard in flight per
  worker.  A worker that drains its own queue **steals half of the
  largest pending shard** anywhere: the shard's packed arena is
  re-sliced in place (:func:`repro.hypergraph.csr.slice_arena`) — the
  victim keeps the front half, the thief takes the back half — so a
  misestimated straggler can no longer serialize the work queued
  behind it;
* **exactness** — every shard is solved by
  :func:`repro.core.batch.run_fastpath_batch` (consuming the shipped
  arena directly), whose per-instance contract is already "identical
  to a solo fastpath run".  Admission order, micro-batch grouping,
  steal timing, worker crashes and mid-run lane spills are therefore
  *scheduling* facts, never *result* facts: every ticket resolves to
  the bit-identical result of ``run_fastpath(hypergraph, config)``.
  The stateful soak harness in ``tests/test_stream_soak.py`` pins
  this under adversarial interleavings;
* **resilience** — a crashed worker (the pool breaks), a hung worker
  (killed by the :class:`~repro.core.supervisor.WorkerSupervisor` once
  its heartbeat has been still for a cost-model-derived solve
  deadline) or a damaged shipment (typed
  :class:`~repro.exceptions.TransportError`: a vanished container
  file, a container that fails its checksums, a malformed result;
  shards ship inline in the pickled payload or by file reference)
  sends the shard back
  through the normal steal scheduler with capped exponential backoff,
  up to a bounded per-shard retry budget;
  exhaustion falls back to an in-process re-solve, and a circuit
  breaker degrades *all* dispatch to in-process once the pool fails
  repeatedly (half-opening on a probe shard after a cooldown).
  Results are settled **first-wins per ticket** so a steal, retry or
  crash fallback racing a late completion can never deliver twice
  (every recovery is counted in :attr:`BatchSession.stats`); a
  seeded :class:`~repro.core.faults.FaultPlan` can inject the whole
  failure menagerie deterministically, with every fired fault logged;
* **provenance & replay** — ``CoverResult.worker`` records the slot
  that solved each instance, and the session keeps a **schedule log**
  of every admission decision; :func:`replay_schedule` re-executes a
  logged schedule deterministically in-process and must reproduce
  every result bit for bit.

The CLI front ends are ``repro-cover serve`` (paths streamed over
stdin) and ``repro-cover batch --stream``; the API front ends are
``solve_mwhvc_batch(..., stream=True)`` and ``run_many(...,
stream=True)``.
"""

from __future__ import annotations

import itertools
import math
import queue
import threading
from collections import OrderedDict, deque
from concurrent.futures import BrokenExecutor, CancelledError
from dataclasses import replace

from repro.core import parallel
from repro.core.batch import run_fastpath_batch
from repro.core.faults import FaultPlan
from repro.core.incremental import resolve_incremental, solve_state
from repro.core.parallel import (
    _decode_result,
    _observe_instance,
    _resolve_jobs,
    _solve_shard,
    corrected_cost,
    shard_payload,
)
from repro.core.params import AlgorithmConfig
from repro.core.result import CoverResult
from repro.core.state import SolveState
from repro.core.supervisor import (
    CircuitBreaker,
    SupervisorPolicy,
    WorkerSupervisor,
)
from repro.exceptions import (
    InvalidInstanceError,
    SessionClosedError,
    TicketCancelled,
    TicketTimeout,
    TransportError,
)
from repro.hypergraph.csr import (
    BatchArena,
    arena_hypergraphs,
    pack_arena,
    slice_arena,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.mutable import (
    GraphDelta,
    MutableHypergraph,
    apply_delta,
)

__all__ = ["BatchSession", "StreamTicket", "replay_schedule"]


class StreamTicket:
    """Future-style handle for one streamed instance.

    Returned by :meth:`BatchSession.submit`; :meth:`result` blocks
    until the instance's shard has been solved (sealing any buffer it
    is still sitting in, so waiting always makes progress) and returns
    a :class:`~repro.core.result.CoverResult` bit-identical to a solo
    ``run_fastpath`` of the submitted hypergraph.

    Tickets are also the serving layer's unit of control:

    * :meth:`cancel` withdraws the instance (unsolved when it is still
      buffered or queued; an in-flight solve completes and its result
      is discarded) and resolves the ticket with
      :class:`~repro.exceptions.TicketCancelled`;
    * a ``deadline=seconds`` passed to :meth:`BatchSession.submit`
      resolves the ticket with
      :class:`~repro.exceptions.TicketTimeout` if it has not settled
      in time — the session itself is never poisoned;
    * :meth:`add_done_callback` registers a settle hook, which is how
      the asyncio front end (:mod:`repro.core.server`) bridges ticket
      completion back onto its event loop.
    """

    __slots__ = ("id", "hypergraph", "config", "retries", "_session",
                 "_event", "_result", "_error", "_callbacks", "_timer")

    def __init__(
        self,
        ticket_id: int,
        hypergraph: Hypergraph | None,
        config: AlgorithmConfig,
        session: "BatchSession",
    ):
        # ``hypergraph`` is ``None`` for an update ticket until its
        # mutated snapshot is materialized (just before it settles).
        self.id = ticket_id
        self.hypergraph = hypergraph
        self.config = config
        #: How many times a crashed/hung/damaged dispatch forced this
        #: ticket's shard back through the scheduler before it settled
        #: (surfaced per-request by the TCP front end).
        self.retries = 0
        self._session = session
        self._event = threading.Event()
        self._result: CoverResult | None = None
        self._error: BaseException | None = None
        self._callbacks: list = []
        self._timer: threading.Timer | None = None

    def done(self) -> bool:
        """Whether the result (or an error) is available."""
        return self._event.is_set()

    def cancel(self) -> bool:
        """Withdraw this instance; ``True`` if the cancel won the race.

        A ticket still sitting in a micro-batch buffer or a pending
        (not yet dispatched) shard is removed outright — it is never
        solved, and its shard peers are re-sliced in place and carry
        on.  A ticket already in flight cannot be interrupted (the
        shard completes for its peers' sake) but its result is
        discarded by the first-wins settle rule.  Either way the
        ticket resolves with
        :class:`~repro.exceptions.TicketCancelled`; ``False`` means
        the ticket had already settled.
        """
        return self._session._abandon(
            self,
            TicketCancelled(f"ticket {self.id} cancelled"),
            "cancel",
            "cancelled",
        )

    def cancelled(self) -> bool:
        """Whether the ticket resolved by cancellation."""
        return self._event.is_set() and isinstance(
            self._error, TicketCancelled
        )

    def add_done_callback(self, callback) -> None:
        """Run ``callback(ticket)`` once the ticket settles.

        Fires immediately when the ticket is already done.  Callbacks
        run on whichever thread settles the ticket (the pool's
        collector thread, a fallback thread, or a deadline timer) while
        the session lock is held — they must be quick and must not
        call back into the session (hand off to a queue or an event
        loop instead, e.g. ``loop.call_soon_threadsafe``).  Callback
        exceptions are swallowed into
        ``stats["callback_errors"]``/the schedule log rather than
        poisoning settling.
        """
        with self._session._lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        self._session._run_callback(self, callback)

    def result(self, timeout: float | None = None) -> CoverResult:
        """The instance's cover result (blocking; re-raises errors)."""
        if not self._event.is_set():
            # Waiting must guarantee progress: seal any partial buffer
            # this ticket may still be sitting in and kick the pumps.
            self._session.flush()
            if not self._event.wait(timeout):
                raise TimeoutError(
                    f"ticket {self.id} not resolved within {timeout}s"
                )
        if self._error is not None:
            raise self._error
        return self._result  # type: ignore[return-value]


class _Shard:
    """One sealed micro-batch: tickets plus their packed arena."""

    __slots__ = ("id", "entries", "arena", "config", "costs", "retries",
                 "isolate")

    def __init__(self, shard_id, entries, arena, config, costs,
                 retries: int = 0, isolate: bool = True):
        self.id = shard_id
        self.entries: list[StreamTicket] = entries
        self.arena: BatchArena = arena
        self.config: AlgorithmConfig = config
        self.costs: list[float] = costs
        #: Failed pool dispatches so far (capped by the session's
        #: retry budget; carried across steal splits).
        self.retries = retries
        #: Whether a solver error re-solves the instances one by one so
        #: only the failing tickets carry it (else all settle with it).
        self.isolate = isolate

    @property
    def cost(self) -> float:
        return sum(self.costs)

    def split(self, ids) -> tuple["_Shard", "_Shard"]:
        """Halve the shard: ``(kept_front, stolen_back)``.

        Both halves re-slice the packed arena in place
        (:func:`~repro.hypergraph.csr.slice_arena`) — no Hypergraph
        expansion, no re-pack.
        """
        half = len(self.entries) // 2
        front = range(half)
        back = range(half, len(self.entries))
        kept = _Shard(
            next(ids),
            self.entries[:half],
            slice_arena(self.arena, front),
            self.config,
            self.costs[:half],
            self.retries,
        )
        stolen = _Shard(
            next(ids),
            self.entries[half:],
            slice_arena(self.arena, back),
            self.config,
            self.costs[half:],
            self.retries,
        )
        return kept, stolen


class BatchSession:
    """A continuously-fed batched solver over the persistent worker pool.

    Parameters
    ----------
    config:
        Default :class:`~repro.core.params.AlgorithmConfig` for
        submissions (per-submit overrides allowed; only submissions
        sharing a config micro-batch together).
    jobs:
        Worker processes, as in ``solve_mwhvc_batch``: ``None``/``0``
        sizes the pool to the machine.  The pool itself is the shared
        persistent one from :mod:`repro.core.parallel`.
    verify:
        Check each result's certificate (session-wide).
    max_batch:
        Micro-batch size cap: a config's buffer seals into a shard at
        this many submissions (sooner when idle capacity is waiting).
    steal:
        Enable the work-stealing scheduler.  With ``False`` a worker
        only ever runs shards assigned to its own queue, as in the
        static ``jobs=N`` batches the E12 benchmark gate measures.
    record_schedule:
        Keep the admission/schedule log (:attr:`schedule`, a few
        tuples per instance).  On by default for reproducibility
        (:func:`replay_schedule`); indefinitely-running services
        (``repro-cover serve``) turn it off so memory stays bounded.
    fault_plan:
        Optional :class:`~repro.core.faults.FaultPlan` — every
        dispatch/ship decision consults it and every fired fault is
        recorded as an ``("inject", ...)`` schedule event.  Also
        settable afterwards through the public :attr:`fault_plan`
        attribute (the chaos tests attach plans to running sessions).
    policy:
        :class:`~repro.core.supervisor.SupervisorPolicy` bundling the
        solve-deadline, retry/backoff and circuit-breaker tunables.
    max_resident:
        Bound on resident warm-restart :class:`SolveState` handles
        (the ``submit_update`` cache).  Beyond it the least recently
        used state is evicted (counted in ``stats["evicted"]``); an
        update chained on an evicted base re-solves cold and re-seeds
        the cache.  ``None`` (default) keeps every state.

    Use as a context manager; exiting drains (waits for every
    submitted instance) and closes the session.  Results are exact and
    scheduling-independent — see the module docstring.
    """

    def __init__(
        self,
        config: AlgorithmConfig | None = None,
        *,
        jobs: int | None = None,
        verify: bool = True,
        max_batch: int = 8,
        steal: bool = True,
        record_schedule: bool = True,
        fault_plan: FaultPlan | None = None,
        policy: SupervisorPolicy | None = None,
        max_resident: int | None = None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_resident is not None and max_resident < 1:
            raise ValueError(
                f"max_resident must be >= 1, got {max_resident}"
            )
        self._config = config or AlgorithmConfig()
        self._jobs = _resolve_jobs(jobs)
        self._verify = verify
        self._max_batch = max_batch
        self._steal = steal
        self._lock = threading.RLock()
        self._drained = threading.Condition(self._lock)
        self._buffers: dict[AlgorithmConfig, list[StreamTicket]] = {}
        self._queues: list[deque[_Shard]] = [
            deque() for _ in range(self._jobs)
        ]
        self._loads = [0] * self._jobs
        self._inflight: list[_Shard | None] = [None] * self._jobs
        self._ticket_ids = itertools.count()
        self._shard_ids = itertools.count()
        self._open = True
        self._unsettled = 0
        #: Warm-restart handles by ticket id, in LRU order: every
        #: settled update (and its bootstrap) keeps its
        #: :class:`SolveState` resident so the next ``submit_update``
        #: chained on it re-solves warm; ``max_resident`` bounds the
        #: cache with least-recently-used eviction.
        self._states: OrderedDict[int, SolveState] = OrderedDict()
        self._max_resident = max_resident
        self._updates: queue.Queue = queue.Queue()
        self._updater: threading.Thread | None = None
        #: The live fault plan (``None`` = no injection).  Public and
        #: settable: chaos tests attach a plan to a running session.
        self.fault_plan = fault_plan
        self._policy = policy or SupervisorPolicy()
        self._breaker = CircuitBreaker(self._policy)
        self._supervisor = WorkerSupervisor(self._policy)
        #: Scheduling counters (informational): sealed shards, steals,
        #: shard splits, worker crashes, deduplicated late results,
        #: plus the resilience ledger (retries, exhausted budgets,
        #: transport faults, degraded in-process dispatches, injected
        #: faults, evicted warm states).
        self.stats = {
            "shards": 0,
            "steals": 0,
            "splits": 0,
            "crashes": 0,
            "duplicates": 0,
            "cancelled": 0,
            "timeouts": 0,
            "callback_errors": 0,
            "updates": 0,
            "warm_updates": 0,
            "retries": 0,
            "exhausted": 0,
            "transport_errors": 0,
            "degraded": 0,
            "injected": 0,
            "evicted": 0,
        }
        self._record = record_schedule
        #: The admission/schedule log: a list of event tuples (see
        #: :func:`replay_schedule` for the grammar).  Every scheduling
        #: decision lands here (unless ``record_schedule=False``),
        #: making a live run reproducible offline.
        self.schedule: list[tuple] = []

    def _log(self, *event) -> None:
        if self._record:
            self.schedule.append(event)

    # ------------------------------------------------------------------
    # Context manager / lifecycle
    # ------------------------------------------------------------------

    def __enter__(self) -> "BatchSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Refuse new submissions, then drain outstanding ones.

        Idempotent; an empty session closes immediately.  The shared
        worker pool is left running (it is persistent across sessions,
        including the one behind each static ``jobs=N`` call).
        """
        with self._lock:
            self._open = False
        self.drain()
        with self._lock:
            updater, self._updater = self._updater, None
        if updater is not None:
            # Every queued update has settled (drain waited on them);
            # the sentinel releases the idle orchestrator thread.
            self._updates.put(None)
            updater.join()
        # After the drain nothing is in flight: stop the monitor and
        # drop the heartbeat directory.
        self._supervisor.close()

    def drain(self) -> None:
        """Block until every submitted instance has settled."""
        with self._drained:
            self._flush_locked()
            while self._unsettled:
                self._drained.wait()

    def flush(self) -> None:
        """Seal all partial micro-batch buffers and dispatch them."""
        with self._lock:
            self._flush_locked()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def submit(
        self,
        hypergraph: Hypergraph,
        *,
        config: AlgorithmConfig | None = None,
        deadline: float | None = None,
    ) -> StreamTicket:
        """Admit one instance; returns its :class:`StreamTicket`.

        The instance joins the micro-batch buffer of its config and is
        solved as part of whichever shard that buffer seals into (and
        wherever stealing moves it) — none of which is observable in
        the result.

        ``deadline`` (seconds from now) arms a watchdog: a ticket that
        has not settled in time resolves with
        :class:`~repro.exceptions.TicketTimeout` — withdrawn unsolved
        when still buffered/queued, discarded first-wins when already
        in flight.  Peers and the session are unaffected either way.
        """
        if deadline is not None and not (
            math.isfinite(deadline) and deadline > 0
        ):
            # NaN fails every comparison, so `<= 0` alone would let it
            # through to threading.Timer, which chokes on it.
            raise ValueError(
                f"deadline must be a finite number of seconds > 0, "
                f"got {deadline}"
            )
        with self._lock:
            if not self._open:
                raise SessionClosedError(
                    "submit() on a closed BatchSession — results of "
                    "earlier submissions remain retrievable"
                )
            return self._admit_locked(hypergraph, config, deadline)

    def _admit(
        self, hypergraph: Hypergraph, config: AlgorithmConfig | None
    ) -> StreamTicket:
        """Internal admission that bypasses the ``_open`` gate.

        The update orchestrator solves fragment sub-jobs through the
        ordinary admission pipeline; those sub-solves must keep working
        while ``close()`` drains updates submitted before the close.
        """
        with self._lock:
            return self._admit_locked(hypergraph, config, None)

    def _admit_locked(self, hypergraph, config, deadline) -> StreamTicket:
        config = config or self._config
        ticket = StreamTicket(
            next(self._ticket_ids), hypergraph, config, self
        )
        self._unsettled += 1
        self._log("submit", ticket.id)
        buffer = self._buffers.setdefault(config, [])
        buffer.append(ticket)
        if deadline is not None:
            ticket._timer = threading.Timer(
                deadline, self._on_deadline, args=(ticket, deadline)
            )
            ticket._timer.daemon = True
            ticket._timer.start()
        if len(buffer) >= self._max_batch or self._idle_capacity():
            self._seal(config)
        self._pump()
        return ticket

    def submit_arena(
        self,
        arena: BatchArena,
        *,
        config: AlgorithmConfig | None = None,
    ) -> list[StreamTicket]:
        """Admit one already-packed arena as a single pre-sealed shard.

        The store path's admission door: a segment loaded with
        :func:`repro.hypergraph.store.load_arena` skips the
        micro-batch buffer *and* the re-pack — the shard carries the
        arena object itself, so a store-backed arena keeps its
        :class:`~repro.hypergraph.store.ArenaSource` provenance and
        :func:`~repro.core.parallel.ship_arena` ships it to workers by
        file reference (nothing serialized; the worker re-maps the
        container).  Instances are reconstructed only for
        ticket metadata and the in-process fallback paths.

        Returns one :class:`StreamTicket` per arena instance, in arena
        order.  Tickets behave exactly like :meth:`submit` tickets:
        stealing may split the shard (splits re-slice the arena and
        drop the file provenance — correctly, since a slice is not the
        container's content), cancellation is per-ticket, results are
        bit-identical to in-memory solves.
        """
        config = config or self._config
        instances = arena_hypergraphs(arena)
        costs = [corrected_cost(instance, config) for instance in instances]
        return self._admit_packed([(arena, instances, costs)], config)[0]

    def _admit_packed(
        self, shards, config, *, isolate=True
    ) -> list[list[StreamTicket]]:
        """Admit ``(arena, instances, costs)`` shards in one locked step.

        Every shard is queued before any is dispatched, so no
        completion can free a slot between two admissions: on a fresh
        session shard ``i`` lands on slot ``i``.  ``isolate=False``
        settles a shard's solver error on all its tickets at once, for
        a caller that fails as a whole on the first error anyway.
        Returns each shard's tickets in arena order.
        """
        with self._lock:
            if not self._open:
                raise SessionClosedError(
                    "submit_arena() on a closed BatchSession — results "
                    "of earlier submissions remain retrievable"
                )
            groups = []
            for arena, instances, costs in shards:
                entries = [
                    StreamTicket(next(self._ticket_ids), instance, config, self)
                    for instance in instances
                ]
                groups.append(entries)
                if not entries:
                    continue
                self._unsettled += len(entries)
                for ticket in entries:
                    self._log("submit", ticket.id)
                shard = _Shard(
                    next(self._shard_ids), entries, arena, config, costs,
                    isolate=isolate,
                )
                self._enqueue(shard, "seal")
                self.stats["shards"] += 1
            self._pump()
            return groups

    # ------------------------------------------------------------------
    # Incremental updates
    # ------------------------------------------------------------------

    def submit_update(
        self,
        handle: StreamTicket,
        delta: GraphDelta | MutableHypergraph,
        *,
        deadline: float | None = None,
        threshold: float = 0.5,
    ) -> StreamTicket:
        """Admit a mutation against an earlier ticket's hypergraph.

        ``handle`` is a prior :meth:`submit` or :meth:`submit_update`
        ticket; ``delta`` is a :class:`~repro.hypergraph.GraphDelta`
        against that ticket's (possibly mutated) snapshot — or a
        :class:`~repro.hypergraph.MutableHypergraph` whose coalesced
        delta is read off the handle's recorded version.  The returned
        ticket resolves to the cover of the mutated snapshot,
        bit-identical to a from-scratch solve; its result's
        ``warm``/``invalidated`` fields report whether the cached
        :class:`~repro.core.state.SolveState` was reused
        (:func:`~repro.core.incremental.resolve_incremental`) or the
        update fell back to a fresh decomposition — which is what a
        first update on a plain ``submit`` handle always does, since
        plain submissions do not keep per-component state.

        Updates are orchestrated FIFO on a dedicated session thread
        (chained updates see their ancestors' states in order); the
        fragment re-solves themselves run through the ordinary
        micro-batch/steal scheduler, so they share the worker pool
        fairly with concurrent plain submissions.  ``deadline`` and
        :meth:`StreamTicket.cancel` work exactly as for ``submit``.
        """
        if deadline is not None and not (
            math.isfinite(deadline) and deadline > 0
        ):
            raise ValueError(
                f"deadline must be a finite number of seconds > 0, "
                f"got {deadline}"
            )
        if not isinstance(handle, StreamTicket) or handle._session is not self:
            raise InvalidInstanceError(
                "submit_update() needs a ticket issued by this session"
            )
        with self._lock:
            if not self._open:
                raise SessionClosedError(
                    "submit_update() on a closed BatchSession — results "
                    "of earlier submissions remain retrievable"
                )
            ticket = StreamTicket(
                next(self._ticket_ids), None, handle.config, self
            )
            self._unsettled += 1
            self.stats["updates"] += 1
            self._log("update", ticket.id, handle.id)
            if deadline is not None:
                ticket._timer = threading.Timer(
                    deadline, self._on_deadline, args=(ticket, deadline)
                )
                ticket._timer.daemon = True
                ticket._timer.start()
            if self._updater is None:
                self._updater = threading.Thread(
                    target=self._update_loop,
                    name="batch-session-updates",
                    daemon=True,
                )
                self._updater.start()
            self._updates.put((ticket, handle, delta, threshold))
            return ticket

    def _update_loop(self) -> None:
        """FIFO update orchestrator (dedicated daemon thread)."""
        while True:
            job = self._updates.get()
            if job is None:
                return
            self._run_update(*job)

    def _solve_fragments(self, jobs) -> list[CoverResult]:
        """Session :data:`~repro.core.incremental.FragmentSolver`:
        fragment re-solves go through the ordinary admission pipeline
        (micro-batching, stealing, the worker pool) as sub-tickets.
        Runs on the orchestrator thread, never under the session lock.
        """
        tickets = [
            self._admit(instance, config) for instance, config in jobs
        ]
        return [ticket.result() for ticket in tickets]

    def _run_update(self, ticket, handle, delta, threshold) -> None:
        """Execute one queued update job (orchestrator thread)."""
        if ticket.done():  # cancelled or timed out while queued
            return
        try:
            with self._lock:
                state = self._states.get(handle.id)
                if state is not None:
                    self._states.move_to_end(handle.id)
            if state is not None:
                new_state = resolve_incremental(
                    state,
                    delta,
                    threshold=threshold,
                    verify=self._verify,
                    solver=self._solve_fragments,
                )
            else:
                # No cached state: the base is a plain submission.
                # Wait for it (FIFO chaining), then solve the mutated
                # snapshot from scratch — cold, but it seeds the state
                # every later update in the chain re-solves warm from.
                base_error: BaseException | None = None
                try:
                    handle.result()
                except BaseException as error:
                    base_error = error
                base = handle.hypergraph
                if base_error is not None or base is None:
                    raise InvalidInstanceError(
                        f"update base ticket {handle.id} has no result "
                        f"to mutate"
                    ) from base_error
                if isinstance(delta, MutableHypergraph):
                    delta = delta.delta_since(0)
                mutated = apply_delta(base, delta)
                new_state = solve_state(
                    mutated,
                    ticket.config,
                    verify=self._verify,
                    solver=self._solve_fragments,
                    version=delta.version,
                )
                new_state.result = replace(
                    new_state.result,
                    warm=False,
                    invalidated=mutated.num_edges,
                )
        except BaseException as error:
            with self._lock:
                self._settle(ticket, error=error)
                self._pump()
                self._drained.notify_all()
            return
        with self._lock:
            ticket.hypergraph = new_state.snapshot
            self._states[ticket.id] = new_state
            self._states.move_to_end(ticket.id)
            while (
                self._max_resident is not None
                and len(self._states) > self._max_resident
            ):
                evicted_id, _ = self._states.popitem(last=False)
                self.stats["evicted"] += 1
                self._log("evict", evicted_id)
            if new_state.result.warm:
                self.stats["warm_updates"] += 1
            self._settle(ticket, result=new_state.result)
            self._pump()
            self._drained.notify_all()

    def _on_deadline(self, ticket: StreamTicket, deadline: float) -> None:
        self._abandon(
            ticket,
            TicketTimeout(
                f"ticket {ticket.id} missed its {deadline}s deadline"
            ),
            "timeout",
            "timeouts",
        )

    def _abandon(self, ticket, error, event, counter) -> bool:
        """Resolve ``ticket`` with ``error`` (cancel/timeout paths).

        Withdraws the instance from wherever it currently sits: a
        micro-batch buffer or a pending shard gives it up unsolved
        (peers re-sliced in place); an in-flight shard runs to
        completion for its peers and the late result dedups away.
        Returns ``False`` when the ticket already settled.
        """
        with self._lock:
            if ticket._event.is_set():
                return False
            stage = self._withdraw(ticket)
            self.stats[counter] += 1
            self._log(event, ticket.id, stage)
            self._settle(ticket, error=error)
            self._pump()
            self._drained.notify_all()
            return True

    def _withdraw(self, ticket) -> str:
        """Remove ``ticket`` from its buffer or pending shard, if it is
        still in one.  Runs under the lock; returns where the ticket
        was found (``"buffered"``/``"pending"``/``"inflight"``)."""
        buffer = self._buffers.get(ticket.config) or []
        if ticket in buffer:
            buffer.remove(ticket)
            return "buffered"
        for slot in range(self._jobs):
            for position, shard in enumerate(self._queues[slot]):
                if ticket not in shard.entries:
                    continue
                kept = [
                    index
                    for index, entry in enumerate(shard.entries)
                    if entry is not ticket
                ]
                if not kept:
                    del self._queues[slot][position]
                    self._loads[slot] -= shard.cost
                    return "pending"
                survivor = _Shard(
                    next(self._shard_ids),
                    [shard.entries[index] for index in kept],
                    slice_arena(shard.arena, kept),
                    shard.config,
                    [shard.costs[index] for index in kept],
                )
                self._queues[slot][position] = survivor
                self._loads[slot] -= shard.cost - survivor.cost
                return "pending"
        return "inflight"

    def _idle_capacity(self) -> bool:
        """True when a worker slot sits idle with nothing pending
        anywhere — the moment batching further would only add latency."""
        if any(self._queues[slot] for slot in range(self._jobs)):
            return False
        return any(shard is None for shard in self._inflight)

    def _flush_locked(self) -> None:
        for config in list(self._buffers):
            if self._buffers[config]:
                self._seal(config)
        self._pump()

    def _seal(self, config: AlgorithmConfig) -> None:
        """Pack one config's buffered submissions into a pending shard."""
        entries = self._buffers.get(config) or []
        if not entries:
            return
        self._buffers[config] = []
        arena = pack_arena([ticket.hypergraph for ticket in entries])
        # Corrected costs: the static lane-aware estimate times the
        # live observed-rate table — earlier completions in this very
        # session (or any parallel call in this process) sharpen the
        # balance of later seals.
        costs = [
            corrected_cost(ticket.hypergraph, config) for ticket in entries
        ]
        shard = _Shard(next(self._shard_ids), entries, arena, config, costs)
        self._enqueue(shard, "seal")
        self.stats["shards"] += 1

    def _enqueue(self, shard: _Shard, event: str) -> None:
        """Queue ``shard`` on the least-loaded slot (ties go to the
        lowest slot) and log ``(event, shard, slot, tickets)``.  Runs
        under the lock."""
        slot = min(range(self._jobs), key=lambda s: (self._loads[s], s))
        self._queues[slot].append(shard)
        self._loads[slot] += shard.cost
        self._log(
            event, shard.id, slot,
            tuple(ticket.id for ticket in shard.entries),
        )

    # ------------------------------------------------------------------
    # Scheduling: dispatch and work stealing
    # ------------------------------------------------------------------

    def _pump(self) -> None:
        """Fill every idle worker slot from its queue (stealing when
        the queue is dry).  Runs under the lock; re-entered after every
        completion, seal and fallback."""
        # An idle slot with dry queues must never leave submissions
        # sitting in a micro-batch buffer (a worker finishing while a
        # partial buffer waits would otherwise stall it until the next
        # submit/flush): seal partial batches the moment capacity
        # would go unused.
        if self._idle_capacity() and any(self._buffers.values()):
            for config in list(self._buffers):
                if self._buffers[config]:
                    self._seal(config)
        for slot in range(self._jobs):
            while self._inflight[slot] is None:
                shard = self._take(slot)
                if shard is None:
                    break
                self._dispatch(slot, shard)

    def _take(self, slot: int) -> _Shard | None:
        """Next shard for ``slot``: own queue first, then steal.

        ``_loads`` tracks queued *and* in-flight estimated cost per
        slot (a busy worker still counts as loaded, so admission does
        not pile new shards behind it): taking from the own queue
        keeps the cost on the slot until completion; stealing moves
        the stolen cost from the victim to the thief.
        """
        if self._queues[slot]:
            return self._queues[slot].popleft()
        if not self._steal:
            return None
        victim, shard = None, None
        for other in range(self._jobs):
            if other == slot:
                continue
            for candidate in self._queues[other]:
                if shard is None or candidate.cost > shard.cost:
                    victim, shard = other, candidate
        if shard is None:
            return None
        self._queues[victim].remove(shard)
        self.stats["steals"] += 1
        if len(shard.entries) > 1:
            # Split: the victim keeps the front half (next in its
            # line), the thief takes the back half — both halves are
            # in-place arena slices, never re-packs.
            kept, stolen = shard.split(self._shard_ids)
            self._queues[victim].appendleft(kept)
            self._loads[victim] -= stolen.cost
            self._loads[slot] += stolen.cost
            self.stats["splits"] += 1
            self._log(
                "steal", shard.id, victim, slot,
                tuple(ticket.id for ticket in stolen.entries),
            )
            return stolen
        self._loads[victim] -= shard.cost
        self._loads[slot] += shard.cost
        self._log(
            "steal", shard.id, victim, slot,
            tuple(ticket.id for ticket in shard.entries),
        )
        return shard

    def _predicted_seconds(self, shard: _Shard) -> float:
        """The shard's corrected cost read as seconds — but only once
        the cost model has real observations; before that the cost is
        a raw structural unit and the supervisor must fall back to its
        flat deadline floor."""
        if parallel.COST_MODEL.observations == 0:
            return 0.0
        return float(shard.cost)

    def _dispatch(self, slot: int, shard: _Shard) -> None:
        """Ship one shard to the pool; falls back in-process when the
        pool cannot accept work or the circuit breaker is open."""
        if not self._breaker.allow():
            # Degraded mode: the pool has failed repeatedly inside the
            # breaker window; solve in-process (correct, just not
            # parallel) instead of hammering a pool that cannot hold
            # workers.  A cooldown later the breaker half-opens and
            # lets one probe shard back through.
            self.stats["degraded"] += 1
            self._log(
                "degraded", shard.id, None,
                tuple(ticket.id for ticket in shard.entries),
            )
            self._loads[slot] -= shard.cost
            self._solve_inline(shard)
            return
        plan = self.fault_plan
        directive = plan.worker_fault() if plan is not None else None
        try:
            pool = parallel._get_pool(self._jobs)
            payload = shard_payload(
                shard.arena, shard.id, shard.config, self._verify,
                fault=directive,
            )
            payload["heartbeat"] = self._supervisor.heartbeat_path(shard.id)
            kind, container = payload["transport"]
            ship = None
            if plan is not None and kind == "bytes":
                ship = plan.ship_fault()
            if ship is not None:
                # A "corrupt" shipment carries a copy of the container
                # with byte 16, the frame checksum, flipped: the
                # worker's decode refuses it with ArenaStoreError.
                damaged = bytearray(container)
                damaged[16] ^= 0x5A
                payload["transport"] = (kind, bytes(damaged))
            future = pool.submit(_solve_shard, payload)
        except BaseException:
            # The pool refused the work (broken mid-rebuild,
            # interpreter shutting down): solving in-process keeps the
            # ticket contract intact.
            self._loads[slot] -= shard.cost
            self._solve_inline(shard)
            return
        if directive is not None:
            self.stats["injected"] += 1
            self._log("inject", shard.id, ("worker",) + tuple(directive))
        if ship is not None:
            self.stats["injected"] += 1
            self._log("inject", shard.id, ("ship", ship))
        self._inflight[slot] = shard
        self._supervisor.watch(
            slot, shard.id, pool, self._predicted_seconds(shard)
        )
        self._log(
            "dispatch", shard.id, slot,
            tuple(ticket.id for ticket in shard.entries),
        )
        future.add_done_callback(
            lambda done, slot=slot, shard=shard, pool=pool:
            self._on_done(slot, shard, pool, done)
        )
        if plan is not None and plan.duplicate_fault():
            # Deterministic "steal racing completion": the same shard
            # solved a second time; the late copy must dedup away.
            self.stats["injected"] += 1
            self._log("inject", shard.id, ("dispatch", "duplicate"))
            try:
                dup_future = pool.submit(
                    _solve_shard,
                    shard_payload(
                        shard.arena, shard.id, shard.config, self._verify
                    ),
                )
            except BaseException:
                return
            dup_future.add_done_callback(
                lambda done, slot=slot, shard=shard, pool=pool:
                self._on_done(slot, shard, pool, done, occupies=False)
            )

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def _on_done(self, slot, shard, pool, future, *, occupies=True):
        """Completion callback (runs on the pool's collector thread)."""
        if occupies:
            self._supervisor.done(slot, shard.id)
        faulted = False
        try:
            _, wire, observed, faulted = future.result()
            decoded = [
                _decode_result(wire_result, slot) for wire_result in wire
            ]
            outcome, payload = "ok", (decoded, observed)
        except (BrokenExecutor, CancelledError):
            # A dead worker breaks the pool; external pool churn
            # (``shutdown_pool()``, a concurrent caller growing the
            # shared pool past its size) cancels queued futures.
            # Either way the shard never ran — recover it, never
            # surface the scheduling accident to the ticket.
            outcome, payload = "broken", None
        except TransportError as error:
            # A vanished/corrupted arena container or a malformed
            # result payload: the worker is alive but this shard's
            # bytes cannot be trusted.  Recoverable — retry through the
            # scheduler without tearing the pool down.
            outcome, payload = "transport", error
        except BaseException as error:  # algorithm errors, propagated
            outcome, payload = "error", error
        with self._lock:
            if occupies:
                self._inflight[slot] = None
                self._loads[slot] -= shard.cost
            if outcome == "ok":
                self._breaker.record_success()
                decoded, observed = payload
                for ticket, result, seconds in zip(
                    shard.entries, decoded, observed
                ):
                    if self._settle(ticket, result=result) and not faulted:
                        # First-wins only: a deduplicated late copy
                        # must not double-count its solve time.  A
                        # faulted (slowed/hung) solve is excluded
                        # outright — injected stalls must not poison
                        # the cost model's observed rates.
                        _observe_instance(
                            ticket.hypergraph, shard.config, result,
                            seconds,
                        )
            elif outcome == "broken":
                self.stats["crashes"] += 1
                self._log("crash", shard.id, slot)
                self._breaker.record_failure()
                # Only drop the pool the dead future belonged to — a
                # sibling callback may already have rebuilt it.  The
                # detach is atomic under the pool lock; the shutdown
                # itself never blocks (this *is* a pool thread).
                dead = parallel._detach_pool(expected=pool)
                if dead is not None:
                    dead.shutdown(wait=False, cancel_futures=True)
                if occupies:
                    self._recover(shard)
            elif outcome == "transport":
                self.stats["transport_errors"] += 1
                self._log("transport-error", shard.id, slot, repr(payload))
                self._breaker.record_failure()
                if occupies:
                    self._recover(shard)
            else:
                # A shard-level solver error may belong to a single
                # poison instance; never fail its micro-batch peers.
                # Singleton (and non-isolating) shards settle the error
                # directly, larger shards re-solve per instance off the
                # lock so only the genuinely failing tickets error.
                if len(shard.entries) == 1 or not shard.isolate:
                    for ticket in shard.entries:
                        self._settle(ticket, error=payload)
                else:
                    self._log(
                        "fallback", shard.id, None,
                        tuple(ticket.id for ticket in shard.entries),
                    )
                    threading.Thread(
                        target=self._run_isolated, args=(shard,),
                        daemon=True,
                    ).start()
            self._pump()
            self._drained.notify_all()

    # ------------------------------------------------------------------
    # Reclamation: retry with backoff, then the in-process fallback
    # ------------------------------------------------------------------

    def _recover(self, shard: _Shard) -> None:
        """Reclaim one crashed/damaged shard (runs under the lock).

        While the shard has retry budget left it goes back through the
        normal scheduler — re-enqueued on the least-loaded queue after
        a capped exponential backoff — so a transient pool failure
        costs latency, not parallelism.  A shard that exhausts its
        budget re-solves in-process (the original crash fallback),
        counted so operators can see the degradation.
        """
        if shard.retries >= self._policy.retry_budget:
            self.stats["exhausted"] += 1
            self._solve_inline(shard)
            return
        shard.retries += 1
        for ticket in shard.entries:
            ticket.retries += 1
        self.stats["retries"] += 1
        delay = self._policy.backoff(shard.retries)
        self._log("retry", shard.id, shard.retries, round(delay, 6))
        timer = threading.Timer(delay, self._requeue, args=(shard,))
        timer.daemon = True
        timer.start()

    def _requeue(self, shard: _Shard) -> None:
        """Backoff expired: hand the shard back to the steal scheduler."""
        with self._lock:
            if all(ticket.done() for ticket in shard.entries):
                # Everything settled while the shard waited (cancels,
                # timeouts, a racing duplicate): nothing to re-solve.
                return
            self._enqueue(shard, "requeue")
            self._pump()

    def _solve_inline(self, shard: _Shard) -> None:
        """In-process fallback for a shard the pool cannot take.

        The actual solve is handed to a short-lived thread so the
        session lock is never held across a batch solve — recovering
        one crashed shard must not freeze admission, settling, or
        other shards' recovery.  Results carry no worker provenance
        (``CoverResult.worker`` is ``None``).
        """
        self._log(
            "fallback", shard.id, None,
            tuple(ticket.id for ticket in shard.entries),
        )
        threading.Thread(
            target=self._run_fallback, args=(shard,), daemon=True
        ).start()

    def _run_fallback(self, shard: _Shard) -> None:
        try:
            results = run_fastpath_batch(
                [ticket.hypergraph for ticket in shard.entries],
                shard.config,
                verify=self._verify,
                arena=shard.arena,
            )
            outcomes = [(ticket, result, None) for ticket, result
                        in zip(shard.entries, results)]
        except BaseException as error:
            # The batched re-solve failed too: isolate per instance so
            # only the poison tickets carry the error.
            outcomes = (
                self._solve_isolated(shard) if shard.isolate
                else [(ticket, None, error) for ticket in shard.entries]
            )
        self._settle_outcomes(outcomes)

    def _run_isolated(self, shard: _Shard) -> None:
        self._settle_outcomes(self._solve_isolated(shard))

    def _solve_isolated(self, shard: _Shard):
        """Solve a shard's instances one by one (solo contract): each
        ticket gets exactly the result — or the exception — its own
        ``run_fastpath`` would produce.  Runs off the session lock."""
        outcomes = []
        for ticket in shard.entries:
            try:
                result = run_fastpath_batch(
                    [ticket.hypergraph], shard.config, verify=self._verify
                )[0]
                outcomes.append((ticket, result, None))
            except BaseException as error:
                outcomes.append((ticket, None, error))
        return outcomes

    def _settle_outcomes(self, outcomes) -> None:
        with self._lock:
            for ticket, result, error in outcomes:
                self._settle(ticket, result=result, error=error)
            self._pump()
            self._drained.notify_all()

    def _settle(self, ticket, result=None, error=None) -> bool:
        """Deliver one ticket's outcome — first result wins.

        A late duplicate (a steal or crash fallback racing a
        completion, or the discarded solve of a cancelled/timed-out
        in-flight ticket) is counted and discarded; results are
        bit-identical either way, so first-wins is safe and keeps
        accounting single.
        """
        if ticket._event.is_set():
            self.stats["duplicates"] += 1
            return False
        if ticket._timer is not None:
            ticket._timer.cancel()
            ticket._timer = None
        ticket._result = result
        ticket._error = error
        ticket._event.set()
        self._unsettled -= 1
        callbacks, ticket._callbacks = ticket._callbacks, []
        for callback in callbacks:
            self._run_callback(ticket, callback)
        self._drained.notify_all()
        return True

    def _run_callback(self, ticket, callback) -> None:
        """Invoke one done-callback, absorbing its failures.

        Settling runs on pool collector / fallback / timer threads; an
        escaped callback exception there would kill completion
        processing, so it is counted and logged instead.
        """
        try:
            callback(ticket)
        except Exception as error:
            self.stats["callback_errors"] += 1
            self._log("callback-error", ticket.id, repr(error))

    def snapshot(self) -> dict:
        """A point-in-time view of the session's serving state.

        Returns the scheduling counters plus live queue facts: the
        number of unsettled tickets, buffered (not yet sealed)
        submissions, pending shards per worker queue, and in-flight
        shards.  This is the payload behind the TCP front end's
        ``stats`` verb (:mod:`repro.core.server`).
        """
        with self._lock:
            return {
                "stats": dict(self.stats),
                "unsettled": self._unsettled,
                "buffered": sum(
                    len(buffer) for buffer in self._buffers.values()
                ),
                "pending_shards": [
                    len(self._queues[slot]) for slot in range(self._jobs)
                ],
                "inflight": sum(
                    shard is not None for shard in self._inflight
                ),
                "jobs": self._jobs,
                "open": self._open,
                "resident_states": len(self._states),
                "max_resident": self._max_resident,
                "cost_model": parallel.COST_MODEL.export(),
                "supervisor": self._supervisor.snapshot(),
                "breaker": self._breaker.snapshot(),
                "faults": (
                    self.fault_plan.snapshot()
                    if self.fault_plan is not None
                    else None
                ),
            }


def replay_schedule(
    schedule,
    hypergraphs,
    config: AlgorithmConfig | None = None,
    *,
    verify: bool = True,
) -> dict[int, CoverResult]:
    """Deterministically re-execute a session's logged schedule.

    ``schedule`` is a :attr:`BatchSession.schedule` log;
    ``hypergraphs`` maps ticket ids to instances (a list indexed by
    ticket id, or a dict).  Event grammar::

        ("submit",   ticket_id)
        ("seal",     shard_id, slot, ticket_ids)
        ("steal",    shard_id, victim_slot, thief_slot, stolen_ids)
        ("dispatch", shard_id, slot, ticket_ids)
        ("crash",    shard_id, slot)
        ("transport-error", shard_id, slot, error_repr)
        ("inject",   shard_id, (site, kind, ...))
        ("retry",    shard_id, attempt, backoff_seconds)
        ("requeue",  shard_id, slot, ticket_ids)
        ("degraded", shard_id, None, ticket_ids)
        ("fallback", shard_id, None, ticket_ids)
        ("evict",    ticket_id)
        ("cancel",   ticket_id, stage)
        ("timeout",  ticket_id, stage)
        ("callback-error", ticket_id, error_repr)

    Replay solves every executed group — each ``dispatch`` and each
    ``fallback`` — as one in-process batch, in log order, settling
    tickets first-wins exactly like the live session.  Because every
    execution path is bit-identical per instance, the replayed results
    must equal the live session's, whatever the original timing was;
    the scheduler tests pin this.  Only single-config sessions replay
    (pass the session's config); per-submit config overrides are not
    recorded in the log.
    """
    config = config or AlgorithmConfig()
    results: dict[int, CoverResult] = {}
    for event in schedule:
        if event[0] not in ("dispatch", "fallback"):
            continue
        ticket_ids = event[3]
        group = [hypergraphs[ticket_id] for ticket_id in ticket_ids]
        solved = run_fastpath_batch(group, config, verify=verify)
        for ticket_id, result in zip(ticket_ids, solved):
            results.setdefault(ticket_id, result)
    return results
