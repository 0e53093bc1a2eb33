"""Worker-pool supervision: hang detection, targeted kills, breaker.

The crash-recovery story of PRs 4-7 only covered workers that *die*:
a dead process breaks the pool, ``BrokenExecutor`` surfaces on the
pending futures, and the scheduler reclaims the shards.  A worker that
*hangs* — stuck in a syscall, spinning on a poisoned input, or
deliberately stalled by a chaos plan — never breaks anything: its
in-flight tickets would pin forever.  This module closes that gap with
three cooperating pieces, all consumed by
:class:`~repro.core.stream.BatchSession`:

* :class:`SupervisorPolicy` — one frozen bundle of tunables shared by
  the supervisor, the retry/backoff scheduler and the circuit breaker,
  so a test (or the chaos soak) can shrink every timescale in one
  place;
* :class:`WorkerSupervisor` — a monitor thread holding one watch per
  in-flight shard.  Each watch carries a **solve budget** derived
  from the live :class:`~repro.core.parallel.CostModel` estimate
  (``floor + multiplier * predicted_seconds``; the floor alone until
  the model has real observations, because an unlearned cost unit is
  not seconds), and the budget runs from the worker's latest
  **heartbeat**: a worker writes its pid into a per-shard heartbeat
  file the moment it picks the task up, then touches the file as the
  solver advances (per iteration and per instance), so a long
  healthy shard never expires, while a stalled one (asleep, stuck in
  a syscall, wedged inside one iteration) is overdue one budget after
  its last beat and the *specific* stuck process is SIGKILLed.
  A task not yet picked up (queued behind other callers' shards on
  the shared pool) expires only after the whole pool has been silent
  — no beat and no settled task seen by any supervisor in the
  process — for its budget; it then kills all of the pool's workers.
  Either way the executor breaks, the pending futures raise, and the
  ordinary reclamation path re-dispatches the shards — supervision
  only ever *converts a hang into a crash*, which the scheduler
  already knows how to survive;
* :class:`CircuitBreaker` — closed / open / half-open over pool
  dispatch.  ``threshold`` failures inside ``window`` seconds trip it
  open: dispatch degrades to in-process solving (correct, just not
  parallel) instead of hammering a pool that cannot hold workers.
  After ``cooldown`` seconds one **probe shard** is allowed through
  (half-open); its success closes the breaker, its failure re-opens
  and restarts the cooldown.

A kill is deliberately coarse: the overdue worker may have *just*
finished the watched shard and picked up a sibling when the signal
lands, in which case an innocent task is killed too.  That is safe —
broken futures are retried or re-solved in-process, results stay
bit-identical — and the alternative (pausing the world to introspect
pool internals race-free) is not worth the complexity for a recovery
path.
"""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
import threading
import time
from dataclasses import dataclass

__all__ = ["CircuitBreaker", "SupervisorPolicy", "WorkerSupervisor"]


@dataclass(frozen=True)
class SupervisorPolicy:
    """Tunables for supervision, retry/backoff and the breaker.

    The defaults are serving-grade (generous deadlines, short
    backoffs); tests shrink them to make hang detection and breaker
    transitions fast.
    """

    #: Minimum solve deadline after each heartbeat beat, seconds.
    #: Also the *entire* deadline while the cost model has no
    #: observations yet.
    floor: float = 30.0
    #: Deadline slack on top of the floor: ``multiplier *
    #: predicted_seconds`` once the cost model has learned real rates.
    multiplier: float = 8.0
    #: Monitor thread wake period, seconds.
    tick: float = 0.25
    #: Pool re-dispatch attempts per shard before the in-process
    #: fallback takes over.
    retry_budget: int = 2
    #: First retry delay, seconds; doubles per attempt.
    backoff_base: float = 0.05
    #: Retry delay ceiling, seconds.
    backoff_cap: float = 2.0
    #: Pool failures inside ``breaker_window`` that trip the breaker.
    breaker_threshold: int = 3
    #: Failure-counting window, seconds.
    breaker_window: float = 30.0
    #: How long the breaker stays open before half-opening on a probe.
    breaker_cooldown: float = 2.0

    def __post_init__(self):
        if self.floor <= 0:
            raise ValueError(f"floor must be > 0, got {self.floor}")
        if self.multiplier < 0:
            raise ValueError(
                f"multiplier must be >= 0, got {self.multiplier}"
            )
        if self.tick <= 0:
            raise ValueError(f"tick must be > 0, got {self.tick}")
        if self.retry_budget < 0:
            raise ValueError(
                f"retry_budget must be >= 0, got {self.retry_budget}"
            )
        if self.backoff_base <= 0 or self.backoff_cap < self.backoff_base:
            raise ValueError(
                f"need 0 < backoff_base <= backoff_cap, got "
                f"{self.backoff_base}/{self.backoff_cap}"
            )
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, "
                f"got {self.breaker_threshold}"
            )
        if self.breaker_window <= 0 or self.breaker_cooldown <= 0:
            raise ValueError(
                f"breaker window/cooldown must be > 0, got "
                f"{self.breaker_window}/{self.breaker_cooldown}"
            )

    def backoff(self, attempt: int) -> float:
        """Capped exponential delay before retry number ``attempt``
        (1-based)."""
        return min(
            self.backoff_cap,
            self.backoff_base * (2 ** max(0, attempt - 1)),
        )


class CircuitBreaker:
    """Closed / open / half-open gate over pool dispatch.

    Thread-safe; driven entirely by its caller's :meth:`allow` /
    :meth:`record_failure` / :meth:`record_success` calls (no thread
    of its own).  ``allow()`` is consulted per dispatch: ``False``
    means "solve in-process instead".  The half-open state admits one
    probe at a time; the probe's outcome decides between closing and
    re-opening.
    """

    def __init__(self, policy: SupervisorPolicy | None = None):
        self._policy = policy or SupervisorPolicy()
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures: list[float] = []
        self._opened_at = 0.0
        self._probing = False
        #: Times the breaker transitioned closed/half-open -> open.
        self.trips = 0
        #: Times a half-open probe closed the breaker again.
        self.recoveries = 0

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half-open"`` (cooldown expiry
        is only observed by the next :meth:`allow` call)."""
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """Whether a pool dispatch may proceed right now."""
        with self._lock:
            if self._state == "closed":
                return True
            now = time.monotonic()
            if self._state == "open":
                if now - self._opened_at < self._policy.breaker_cooldown:
                    return False
                self._state = "half-open"
                self._probing = True
                return True
            # half-open: one probe in flight at a time.
            if self._probing:
                return False
            self._probing = True
            return True

    def record_failure(self) -> None:
        """One pool dispatch ended in a crash/transport fault."""
        with self._lock:
            now = time.monotonic()
            if self._state == "half-open":
                # The probe failed: straight back to open, fresh
                # cooldown.
                self._state = "open"
                self._opened_at = now
                self._probing = False
                self.trips += 1
                self._failures.clear()
                return
            self._failures.append(now)
            horizon = now - self._policy.breaker_window
            self._failures = [
                stamp for stamp in self._failures if stamp >= horizon
            ]
            if (
                self._state == "closed"
                and len(self._failures) >= self._policy.breaker_threshold
            ):
                self._state = "open"
                self._opened_at = now
                self.trips += 1
                self._failures.clear()

    def record_success(self) -> None:
        """One pool dispatch completed; closes a half-open breaker."""
        with self._lock:
            if self._state == "half-open":
                self._state = "closed"
                self.recoveries += 1
            self._probing = False
            self._failures.clear()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "trips": self.trips,
                "recoveries": self.recoveries,
                "recent_failures": len(self._failures),
            }


#: When any supervisor in this process last saw the shared pool make
#: progress (a heartbeat beat or a settled task), ``time.monotonic()``.
_POOL_SEEN = 0.0


class _Watch:
    __slots__ = ("slot", "shard_id", "pool", "budget", "heartbeat",
                 "armed", "stamp", "deadline")

    def __init__(self, slot, shard_id, pool, budget, heartbeat):
        self.slot = slot
        self.shard_id = shard_id
        self.pool = pool
        self.budget = budget
        self.heartbeat = heartbeat
        self.armed = time.monotonic()
        #: The heartbeat file's last-seen mtime (``None`` until a
        #: worker picks the shard up) and the deadline that beat set.
        self.stamp = None
        self.deadline = None


class WorkerSupervisor:
    """Deadline watches over in-flight shards, with targeted kills.

    One instance per :class:`~repro.core.stream.BatchSession`.  The
    monitor thread starts lazily with the first watch and stops on
    :meth:`close`; heartbeat files live in a private temp directory
    removed on close.  Counters (``hung`` watches expired, worker
    ``kills`` delivered) feed the session snapshot and the server's
    ``stats`` verb.
    """

    def __init__(self, policy: SupervisorPolicy | None = None):
        self._policy = policy or SupervisorPolicy()
        self._lock = threading.Lock()
        self._watches: dict[tuple[int, int], _Watch] = {}
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._dir: str | None = None
        self._closed = False
        self.hung = 0
        self.kills = 0

    # ------------------------------------------------------------------
    # Watch lifecycle (called by the session under its own lock)
    # ------------------------------------------------------------------

    def heartbeat_path(self, shard_id: int) -> str:
        """The per-shard pid file a worker announces itself in."""
        with self._lock:
            if self._dir is None:
                self._dir = tempfile.mkdtemp(prefix="repro-supervise-")
            return os.path.join(self._dir, f"{shard_id}.pid")

    def deadline_seconds(self, predicted_seconds: float) -> float:
        """A shard's budget after each beat, given its predicted size."""
        if predicted_seconds <= 0:
            return self._policy.floor
        return self._policy.floor + self._policy.multiplier * predicted_seconds

    def watch(self, slot, shard_id, pool, predicted_seconds: float) -> None:
        """Arm a watch for one dispatched shard; its budget starts
        running when a worker picks the shard up."""
        watch = _Watch(
            slot,
            shard_id,
            pool,
            self.deadline_seconds(predicted_seconds),
            self.heartbeat_path(shard_id),
        )
        with self._lock:
            if self._closed:
                return
            self._watches[(slot, shard_id)] = watch
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._monitor,
                    name="worker-supervisor",
                    daemon=True,
                )
                self._thread.start()

    def done(self, slot, shard_id) -> None:
        """Disarm a watch (its future settled, however it settled)."""
        global _POOL_SEEN
        _POOL_SEEN = time.monotonic()
        with self._lock:
            watch = self._watches.pop((slot, shard_id), None)
        if watch is not None:
            try:
                os.unlink(watch.heartbeat)
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Monitor thread
    # ------------------------------------------------------------------

    def _monitor(self) -> None:
        global _POOL_SEEN
        while not self._stop.wait(self._policy.tick):
            with self._lock:
                watches = list(self._watches.values())
            now = time.monotonic()
            for watch in watches:
                try:
                    stamp = os.stat(watch.heartbeat).st_mtime_ns
                except OSError:  # not picked up yet (or just settled)
                    continue
                if stamp != watch.stamp:
                    watch.stamp, watch.deadline = stamp, now + watch.budget
                    _POOL_SEEN = now
            with self._lock:
                overdue = [
                    key
                    for key, watch in self._watches.items()
                    if now >= (
                        watch.deadline
                        if watch.deadline is not None
                        else max(watch.armed, _POOL_SEEN) + watch.budget
                    )
                ]
                watches = [self._watches.pop(key) for key in overdue]
            for watch in watches:
                self._kill(watch)

    def _worker_pid(self, watch: _Watch) -> int | None:
        try:
            with open(watch.heartbeat, "r") as handle:
                return int(handle.read().strip() or "0") or None
        except (OSError, ValueError):
            return None

    def _kill(self, watch: _Watch) -> None:
        """An overdue watch: convert the hang into a pool break."""
        with self._lock:
            self.hung += 1
        pid = self._worker_pid(watch)
        if pid is not None:
            try:
                os.kill(pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):
                return
            with self._lock:
                self.kills += 1
            return
        # No heartbeat: the task never started and the whole pool has
        # been silent for its budget (wedged) — break the pool
        # wholesale so every pending future raises and reclamation
        # takes over.
        processes = getattr(watch.pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except (OSError, ValueError):
                continue
            with self._lock:
                self.kills += 1

    # ------------------------------------------------------------------
    # Introspection / teardown
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "watched": len(self._watches),
                "hung": self.hung,
                "kills": self.kills,
                "floor": self._policy.floor,
                "multiplier": self._policy.multiplier,
            }

    def close(self) -> None:
        """Stop the monitor and remove the heartbeat directory."""
        with self._lock:
            self._closed = True
            thread, self._thread = self._thread, None
            self._watches.clear()
            directory, self._dir = self._dir, None
        self._stop.set()
        if thread is not None:
            thread.join(timeout=5.0)
        if directory is not None:
            shutil.rmtree(directory, ignore_errors=True)
