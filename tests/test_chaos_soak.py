"""Chaos soak: adversarial fault schedules never move the bits.

The streaming soak (``test_stream_soak.py``) interleaves *scheduling*
operations; this machine interleaves scheduling **and live faults**.
A seeded :class:`~repro.core.faults.FaultPlan` rides the session with
every fault site armed at probabilistic rates, plus forced one-shots
the rules inject deterministically:

* worker kills (pool break -> retry/backoff -> bounded in-process
  fallback);
* worker hangs (the supervisor's heartbeat deadline SIGKILLs the stuck
  process, converting the hang into the crash path);
* slow workers (straggle, excluded from the cost model's EMA);
* corrupt shipments (a copy of the container with its frame checksum
  flipped — the worker's decode refuses it with a typed transport
  error and the shard is reclaimed);
* duplicate dispatches (first-wins settling).

After every wait — and for every ticket at teardown — the streamed
result must be **bit-identical to a fresh solo ``run_fastpath``**, and
teardown additionally asserts the run leaked no ``/dev/shm`` segment.
Retries, fallbacks, breaker trips and supervisor kills are allowed to
happen; they must never be observable in the bits.

``SCHEDULER_FUZZ_SEED`` (CI's chaos-soak seed matrix) pins hypothesis'
PRNG *and* the fault plan's seed, so each matrix entry explores a
different fault/interleaving family deterministically.
"""

from __future__ import annotations

import os
from fractions import Fraction

from hypothesis import HealthCheck, seed, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    precondition,
    rule,
)

from repro.core.faults import FaultPlan
from repro.core.params import AlgorithmConfig
from repro.core.solver import solve_mwhvc
from repro.core.stream import BatchSession
from repro.core.supervisor import SupervisorPolicy
from repro.hypergraph.hypergraph import Hypergraph

OBSERVABLES = (
    "cover",
    "weight",
    "iterations",
    "rounds",
    "dual",
    "dual_total",
    "levels",
    "stats",
)

FUZZ_SEED = os.environ.get("SCHEDULER_FUZZ_SEED")

#: Probabilistic chaos is budgeted: every fired fault costs recovery
#: wall-clock (a kill breaks and lazily rebuilds the pool), so the
#: total is bounded to keep the soak's runtime deterministic-ish.
MAX_PLAN_FAULTS = 5

#: Forced (rule-driven) kills/hangs per machine run, on top of the
#: plan's probabilistic budget.
MAX_FORCED = 2

SOAK_SETTINGS = settings(
    max_examples=int(os.environ.get("CHAOS_SOAK_EXAMPLES", "3")),
    stateful_step_count=10,
    deadline=None,
    derandomize=FUZZ_SEED is None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.filter_too_much,
    ],
)


@st.composite
def soak_hypergraphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=0, max_value=10))
    edges = []
    for _ in range(m):
        size = draw(st.integers(min_value=1, max_value=min(4, n)))
        members = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        edges.append(tuple(members))
    weights = draw(
        st.lists(
            st.integers(min_value=1, max_value=10**6),
            min_size=n,
            max_size=n,
        )
    )
    return Hypergraph(n, edges, weights)


class ChaosSoakMachine(RuleBasedStateMachine):
    """Interleave submits, waits and faults; bits and /dev/shm hold."""

    def __init__(self):
        super().__init__()
        self._shm_before = (
            set(os.listdir("/dev/shm"))
            if os.path.isdir("/dev/shm")
            else None
        )
        self.config = AlgorithmConfig(epsilon=Fraction(1, 3))
        plan_seed = int(FUZZ_SEED) if FUZZ_SEED is not None else 0
        self.plan = FaultPlan(
            plan_seed,
            kill=0.06,
            hang=0.04,
            slow=0.10,
            corrupt=0.05,
            duplicate=0.10,
            hang_seconds=20.0,  # supervisor cuts this at its deadline
            slow_factor=1.5,
            max_faults=MAX_PLAN_FAULTS,
        )
        self.session = BatchSession(
            self.config,
            jobs=2,
            verify=False,
            max_batch=3,
            fault_plan=self.plan,
            policy=SupervisorPolicy(
                floor=1.5,
                tick=0.1,
                retry_budget=2,
                backoff_base=0.02,
                backoff_cap=0.2,
                breaker_threshold=3,
                breaker_window=10.0,
                breaker_cooldown=0.2,
            ),
        )
        self.outstanding: list = []
        self.forced = 0

    # -- admission -----------------------------------------------------

    @rule(hypergraph=soak_hypergraphs())
    def submit(self, hypergraph):
        self.outstanding.append(self.session.submit(hypergraph))

    @rule(
        hypergraphs=st.lists(soak_hypergraphs(), min_size=3, max_size=5)
    )
    def submit_burst(self, hypergraphs):
        for hypergraph in hypergraphs:
            self.outstanding.append(self.session.submit(hypergraph))

    # -- observation ---------------------------------------------------

    @precondition(lambda self: self.outstanding)
    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def wait_result(self, pick):
        ticket = self.outstanding.pop(pick % len(self.outstanding))
        self._check(ticket, ticket.result(timeout=120))

    @rule()
    def flush(self):
        self.session.flush()

    # -- deterministic fault injection ---------------------------------

    @precondition(lambda self: self.forced < MAX_FORCED)
    @rule()
    def force_kill(self):
        self.forced += 1
        self.plan.force_worker("kill")

    @precondition(lambda self: self.forced < MAX_FORCED)
    @rule()
    def force_hang(self):
        self.forced += 1
        self.plan.force_worker("hang", 20.0)

    @precondition(lambda self: self.forced < MAX_FORCED)
    @rule()
    def force_corrupt_shipment(self):
        self.forced += 1
        self.plan.force_ship("corrupt")

    # -- verification --------------------------------------------------

    def _check(self, ticket, result):
        solo = solve_mwhvc(
            ticket.hypergraph,
            config=self.config,
            executor="fastpath",
            verify=False,
        )
        for attribute in OBSERVABLES:
            assert getattr(result, attribute) == getattr(
                solo, attribute
            ), (
                f"chaos ticket {ticket.id} drifted from solo fastpath "
                f"on {attribute} (faults fired: {dict(self.plan.fired)})"
            )

    def teardown(self):
        try:
            self.session.close()  # drains every outstanding ticket
            for ticket in self.outstanding:
                self._check(ticket, ticket.result(timeout=120))
            # Every injected fault left an audit trail.
            injected = sum(
                1
                for event in self.session.schedule
                if event[0] == "inject"
            )
            worker_or_ship = sum(
                count
                for kind, count in self.plan.fired.items()
                if kind not in ("drop", "reset")
            )
            assert injected == self.session.stats["injected"]
            assert injected == worker_or_ship, (
                f"fired faults {dict(self.plan.fired)} vs "
                f"{injected} logged inject events"
            )
        finally:
            from repro.core.parallel import shutdown_pool

            shutdown_pool()
        if self._shm_before is not None:
            leaked = set(os.listdir("/dev/shm")) - self._shm_before
            assert not leaked, (
                f"chaos run leaked shared-memory segments: {leaked}"
            )


if FUZZ_SEED is not None:
    ChaosSoakMachine = seed(int(FUZZ_SEED))(ChaosSoakMachine)

TestChaosSoak = ChaosSoakMachine.TestCase
TestChaosSoak.settings = SOAK_SETTINGS
