"""Deterministic, auditable fault injection for the serving stack.

The process-pool / streaming / TCP tier (PRs 4-8) recovers from worker
crashes, but until this module its only way to *test* that recovery
was a pair of ad-hoc module flags (``_CRASH_WORKERS``,
``_CRASH_NEXT_DISPATCH``) that could express exactly one fault kind
and left no audit trail.  :class:`FaultPlan` replaces them with one
seeded mechanism covering the whole failure surface:

========== ============================ ===============================
site       fault                        effect
========== ============================ ===============================
worker     ``("kill",)``                the worker SIGKILLs itself
                                        before touching the payload —
                                        the pool breaks, the shard is
                                        reclaimed and retried
worker     ``("hang", seconds)``        the worker stalls before
                                        solving; the supervisor's
                                        deadline detects it and kills
                                        the specific pid
worker     ``("slow", factor)``         the worker solves correctly
                                        but takes ``factor`` times as
                                        long — a straggler, not a
                                        failure
ship       ``"corrupt"``                an inline shipment carries a
                                        copy of the container with its
                                        frame checksum flipped; the
                                        worker's decode refuses it
dispatch   duplicate                    the shard is dispatched twice;
                                        the late copy must dedup away
                                        (first-wins settle)
server     ``"drop"``                   one response payload is
                                        discarded instead of written
server     ``"reset"``                  the connection is aborted
                                        mid-stream (TCP reset seen by
                                        the client)
========== ============================ ===============================

Decisions are made in the **parent** at dispatch/ship/write time and
recorded by the caller (the streaming session logs every fired fault
as an ``("inject", ...)`` schedule event), so a chaos soak's fault
sequence is auditable after the fact; the worker merely executes the
directive shipped inside its payload.  Two decision modes compose:

* **seeded probabilities** — each site draws from one
  ``random.Random(seed)`` stream with the plan's per-fault rates, so a
  soak exercises a reproducible *distribution* of faults (the results,
  by the executor contract, are bit-identical regardless of which
  faults fire);
* **forced one-shots** — :meth:`force_worker` / :meth:`force_ship` /
  :meth:`force_duplicate` / :meth:`force_server` enqueue exact
  directives consumed before any probabilistic draw, which is how the
  deterministic tests inject "the next dispatch dies" without touching
  module globals.

``max_faults`` bounds the total number of fired faults so a
high-probability plan cannot starve a soak of successful completions.
Every fired fault is counted by kind (:meth:`snapshot`), and
:meth:`from_spec` parses the ``repro-cover serve --fault-plan``
``key=value`` grammar.

Injection is wired through ``BatchSession(fault_plan=...)`` / the
session's settable ``fault_plan`` attribute (the one scheduler that
dispatches to the pool), ``parallel.FAULT_PLAN`` (handed to the
session behind each static ``jobs=N`` call), and
``CoverServer(fault_plan=...)`` (server-side response faults).  Plans
attached through the API are always live; only the CLI flag is gated
behind ``REPRO_CHAOS=1`` so production invocations cannot enable
injection by accident.
"""

from __future__ import annotations

import random
import threading
from collections import Counter, deque

__all__ = ["FaultPlan"]

#: Worker-site fault kinds, in the order their probability mass is
#: stacked when drawing (kill first, then hang, then slow).
WORKER_FAULTS = ("kill", "hang", "slow")

#: Ship-site fault kinds (applied to an inline shipment's container
#: before submit; a shard shipped by file reference draws none).
SHIP_FAULTS = ("corrupt",)

#: Server-site fault kinds (applied per response write).
SERVER_FAULTS = ("drop", "reset")

_RATE_KEYS = (
    "kill", "hang", "slow", "corrupt", "duplicate", "drop", "reset",
)


class FaultPlan:
    """One seeded, thread-safe fault schedule for a serving stack.

    Parameters
    ----------
    seed:
        Seeds the single PRNG stream every probabilistic draw comes
        from.
    kill / hang / slow:
        Per-dispatch probabilities of the worker-site faults (at most
        one fires per dispatch; their sum must be <= 1).
    corrupt:
        Per-ship probability of shipping a damaged container (inline
        shipments only).
    duplicate:
        Per-dispatch probability of dispatching the shard twice.
    drop / reset:
        Per-response probabilities of the server-side faults.
    hang_seconds:
        How long a ``hang`` directive stalls the worker.  Finite by
        design: with a supervisor the stall is cut short by SIGKILL at
        the solve deadline; without one it is a bounded straggle.
    slow_factor:
        Wall-time multiplier a ``slow`` directive applies.
    max_faults:
        Total fired-fault budget across all sites (``None`` =
        unbounded).  Forced one-shots always fire (tests rely on
        exactness) but still count against the budget.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        kill: float = 0.0,
        hang: float = 0.0,
        slow: float = 0.0,
        corrupt: float = 0.0,
        duplicate: float = 0.0,
        drop: float = 0.0,
        reset: float = 0.0,
        hang_seconds: float = 30.0,
        slow_factor: float = 4.0,
        max_faults: int | None = None,
    ):
        rates = {
            "kill": kill, "hang": hang, "slow": slow, "corrupt": corrupt,
            "duplicate": duplicate, "drop": drop, "reset": reset,
        }
        for name, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"fault rate {name}={rate!r} must be in [0, 1]"
                )
        if kill + hang + slow > 1.0 + 1e-12:
            raise ValueError(
                f"worker fault rates sum to {kill + hang + slow}, "
                f"must be <= 1"
            )
        if drop + reset > 1.0 + 1e-12:
            raise ValueError(
                f"server fault rates sum to {drop + reset}, must be <= 1"
            )
        if hang_seconds <= 0:
            raise ValueError(f"hang_seconds must be > 0, got {hang_seconds}")
        if slow_factor < 1.0:
            raise ValueError(f"slow_factor must be >= 1, got {slow_factor}")
        if max_faults is not None and max_faults < 0:
            raise ValueError(f"max_faults must be >= 0, got {max_faults}")
        self.seed = seed
        self.rates = rates
        self.hang_seconds = float(hang_seconds)
        self.slow_factor = float(slow_factor)
        self.max_faults = max_faults
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._forced_worker: deque[tuple] = deque()
        self._forced_ship: deque[str] = deque()
        self._forced_duplicate = 0
        self._forced_server: deque[str] = deque()
        self.fired: Counter = Counter()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a ``key=value,key=value`` plan (the CLI flag grammar).

        Keys: ``seed``, ``max_faults`` (ints), the seven fault rates,
        ``hang_seconds`` and ``slow_factor`` (floats).  Example:
        ``"seed=3,kill=0.05,hang=0.02,slow=0.1,hang_seconds=2"``.
        """
        kwargs: dict = {}
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            if "=" not in token:
                raise ValueError(
                    f"fault-plan token {token!r}: expected key=value"
                )
            key, _, value = token.partition("=")
            key = key.strip()
            value = value.strip()
            if key in ("seed", "max_faults"):
                kwargs[key] = int(value)
            elif key in _RATE_KEYS or key in ("hang_seconds", "slow_factor"):
                kwargs[key] = float(value)
            else:
                raise ValueError(f"unknown fault-plan key {key!r}")
        seed = kwargs.pop("seed", 0)
        return cls(seed, **kwargs)

    # ------------------------------------------------------------------
    # Forced one-shots (deterministic tests)
    # ------------------------------------------------------------------

    def force_worker(self, kind: str, *args) -> None:
        """Enqueue one exact worker directive for the next dispatch.

        ``force_worker("kill")``, ``force_worker("hang", 0.2)``,
        ``force_worker("slow", 3.0)``; omitted arguments default to
        the plan's ``hang_seconds`` / ``slow_factor``.
        """
        if kind not in WORKER_FAULTS:
            raise ValueError(f"unknown worker fault {kind!r}")
        if kind == "kill":
            directive = ("kill",)
        elif kind == "hang":
            directive = ("hang", float(args[0]) if args else self.hang_seconds)
        else:
            directive = ("slow", float(args[0]) if args else self.slow_factor)
        with self._lock:
            self._forced_worker.append(directive)

    def force_ship(self, kind: str) -> None:
        """Enqueue one exact ship fault for the next inline shipment."""
        if kind not in SHIP_FAULTS:
            raise ValueError(f"unknown ship fault {kind!r}")
        with self._lock:
            self._forced_ship.append(kind)

    def force_duplicate(self, count: int = 1) -> None:
        """Dispatch the next ``count`` shards twice."""
        with self._lock:
            self._forced_duplicate += count

    def force_server(self, kind: str) -> None:
        """Enqueue one exact server fault for the next response."""
        if kind not in SERVER_FAULTS:
            raise ValueError(f"unknown server fault {kind!r}")
        with self._lock:
            self._forced_server.append(kind)

    # ------------------------------------------------------------------
    # Decision points (one per injection site)
    # ------------------------------------------------------------------

    def _budget_left(self) -> bool:
        return (
            self.max_faults is None
            or sum(self.fired.values()) < self.max_faults
        )

    def worker_fault(self) -> tuple | None:
        """The directive the next dispatched payload should carry.

        ``None`` (no fault), ``("kill",)``, ``("hang", seconds)`` or
        ``("slow", factor)``.  Forced directives fire first; then one
        seeded draw covers the three kinds with stacked probability
        mass.
        """
        with self._lock:
            if self._forced_worker:
                directive = self._forced_worker.popleft()
                self.fired[directive[0]] += 1
                return directive
            if not self._budget_left():
                return None
            draw = self._rng.random()
            threshold = 0.0
            for kind in WORKER_FAULTS:
                threshold += self.rates[kind]
                if draw < threshold:
                    self.fired[kind] += 1
                    if kind == "kill":
                        return ("kill",)
                    if kind == "hang":
                        return ("hang", self.hang_seconds)
                    return ("slow", self.slow_factor)
            return None

    def ship_fault(self) -> str | None:
        """``"corrupt"`` or ``None`` for the next inline shipment."""
        with self._lock:
            if self._forced_ship:
                kind = self._forced_ship.popleft()
                self.fired[kind] += 1
                return kind
            if not self._budget_left():
                return None
            draw = self._rng.random()
            threshold = 0.0
            for kind in SHIP_FAULTS:
                threshold += self.rates[kind]
                if draw < threshold:
                    self.fired[kind] += 1
                    return kind
            return None

    def duplicate_fault(self) -> bool:
        """Whether the next dispatch should also ship a duplicate."""
        with self._lock:
            if self._forced_duplicate:
                self._forced_duplicate -= 1
                self.fired["duplicate"] += 1
                return True
            if not self._budget_left():
                return False
            if self._rng.random() < self.rates["duplicate"]:
                self.fired["duplicate"] += 1
                return True
            return False

    def server_fault(self) -> str | None:
        """``"drop"``, ``"reset"`` or ``None`` for the next response."""
        with self._lock:
            if self._forced_server:
                kind = self._forced_server.popleft()
                self.fired[kind] += 1
                return kind
            if not self._budget_left():
                return None
            draw = self._rng.random()
            threshold = 0.0
            for kind in SERVER_FAULTS:
                threshold += self.rates[kind]
                if draw < threshold:
                    self.fired[kind] += 1
                    return kind
            return None

    # ------------------------------------------------------------------
    # Audit
    # ------------------------------------------------------------------

    def total_fired(self) -> int:
        """How many faults have fired across all sites."""
        with self._lock:
            return sum(self.fired.values())

    def snapshot(self) -> dict:
        """JSON-safe audit view: seed, rates, fired counts by kind."""
        with self._lock:
            return {
                "seed": self.seed,
                "rates": {
                    key: value
                    for key, value in self.rates.items()
                    if value > 0.0
                },
                "fired": dict(self.fired),
                "max_faults": self.max_faults,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        live = ", ".join(
            f"{key}={value}" for key, value in self.rates.items() if value
        )
        return f"FaultPlan(seed={self.seed}{', ' + live if live else ''})"
