"""Stateful soak harness for the streaming session.

A hypothesis :class:`RuleBasedStateMachine` drives one
:class:`~repro.core.stream.BatchSession` through adversarial
interleavings of the operations a serving deployment would see —

* submits of int-weighted, huge-int-weighted (spill-forcing under the
  soak's shrunken int64 headroom budget, which ships to workers with
  every payload) and Fraction-weighted instances, singly and in
  bursts (bursts pile up pending shards, the precondition for
  steals/splits);
* blocking result waits for arbitrary outstanding tickets, forcing
  partial buffers to seal mid-stream;
* explicit flushes;
* injected worker crashes (a forced kill fault rides the next
  dispatched shard, exercising the broken-pool -> retry/backoff
  reclamation and, past the retry budget, the in-process fallback —
  including for stolen shards);

— asserting after every wait, and for every ticket at teardown, that
the streamed result is **bit-identical to a fresh solo
``run_fastpath``** of the submitted instance, and that the logged
admission schedule replays to the same results deterministically.
Scheduling (admission order, micro-batching, steal timing, crash
recovery, mid-run lane spills) must never be observable in the bits.

``SCHEDULER_FUZZ_SEED`` (CI's seed-matrix scheduler-fuzz step) turns
derandomization off and pins hypothesis' PRNG to the given seed, so
each matrix entry explores a different interleaving family.
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

import repro.core.kernels as kernels_module
from repro.core.faults import FaultPlan
from repro.core.params import AlgorithmConfig
from repro.core.solver import solve_mwhvc
from repro.core.stream import BatchSession, replay_schedule
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

#: Shrunken int64 headroom for the whole soak: big-int-weighted
#: submissions then overflow the int64 arena mid-run and carry down
#: the spill ladder inside workers (the budget ships with every
#: payload).  Results are lane-independent, so the solo reference is
#: unaffected.
SOAK_HEADROOM_BITS = 44

#: Worker crashes per machine run are bounded: each one breaks and
#: lazily rebuilds the persistent pool, which is the expensive part.
MAX_CRASHES = 2

FUZZ_SEED = os.environ.get("SCHEDULER_FUZZ_SEED")

SOAK_SETTINGS = settings(
    max_examples=int(os.environ.get("STREAM_SOAK_EXAMPLES", "4")),
    stateful_step_count=12,
    deadline=None,
    derandomize=FUZZ_SEED is None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.filter_too_much,
    ],
)


@st.composite
def soak_hypergraphs(draw, weight_pool):
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
    weights = draw(st.lists(weight_pool, min_size=n, max_size=n))
    return Hypergraph(n, edges, weights)


INT_WEIGHTS = st.integers(min_value=1, max_value=10**6)
#: Large enough that the shrunken 44-bit budget forces mid-run spills.
SPILL_WEIGHTS = st.integers(min_value=10**9, max_value=10**13)
FRACTION_WEIGHTS = st.fractions(
    min_value=Fraction(1, 64),
    max_value=Fraction(10**6),
    max_denominator=64,
)


class StreamSoakMachine(RuleBasedStateMachine):
    """Interleave submits, waits, flushes and crashes; bits never move."""

    def __init__(self):
        super().__init__()
        self._saved_headroom = kernels_module.LANE_TABLE["int64"].headroom_bits
        kernels_module.LANE_TABLE["int64"].headroom_bits = SOAK_HEADROOM_BITS
        self.config = AlgorithmConfig(epsilon=Fraction(1, 3))
        self.session = BatchSession(
            self.config, jobs=2, verify=False, max_batch=3,
            fault_plan=FaultPlan(seed=0),
        )
        self.outstanding: list = []  # unchecked tickets
        self.checked: list = []  # (ticket, result) already verified
        self.crashes = 0

    # -- admission -----------------------------------------------------

    def _submit(self, hypergraph):
        self.outstanding.append(self.session.submit(hypergraph))

    @rule(hypergraph=soak_hypergraphs(INT_WEIGHTS))
    def submit_int(self, hypergraph):
        self._submit(hypergraph)

    @rule(hypergraph=soak_hypergraphs(SPILL_WEIGHTS))
    def submit_spill_prone(self, hypergraph):
        self._submit(hypergraph)

    @rule(hypergraph=soak_hypergraphs(FRACTION_WEIGHTS))
    def submit_fractions(self, hypergraph):
        self._submit(hypergraph)

    @rule(
        hypergraphs=st.lists(
            soak_hypergraphs(INT_WEIGHTS), min_size=3, max_size=6
        )
    )
    def submit_burst(self, hypergraphs):
        """A burst piles up pending shards — steal/split territory."""
        for hypergraph in hypergraphs:
            self._submit(hypergraph)

    # -- observation ---------------------------------------------------

    @precondition(lambda self: self.outstanding)
    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def wait_result(self, pick):
        ticket = self.outstanding.pop(pick % len(self.outstanding))
        result = ticket.result(timeout=120)
        self._check(ticket, result)
        self.checked.append((ticket, result))

    @rule()
    def flush(self):
        self.session.flush()

    # -- failure injection ---------------------------------------------

    @precondition(lambda self: self.crashes < MAX_CRASHES)
    @rule()
    def crash_next_dispatch(self):
        self.crashes += 1
        self.session.fault_plan.force_worker("kill")

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
                f"streamed ticket {ticket.id} drifted from solo "
                f"fastpath on {attribute}"
            )

    def teardown(self):
        try:
            self.session.close()  # drains every outstanding ticket
            for ticket in self.outstanding:
                self._check(ticket, ticket.result(timeout=120))
                self.checked.append((ticket, ticket.result()))
            # The logged admission schedule replays to the same bits.
            by_ticket = {
                ticket.id: ticket.hypergraph
                for ticket, _ in self.checked
            }
            replayed = replay_schedule(
                self.session.schedule,
                by_ticket,
                self.config,
                verify=False,
            )
            assert set(replayed) == set(by_ticket)
            for ticket, result in self.checked:
                for attribute in OBSERVABLES:
                    assert getattr(
                        replayed[ticket.id], attribute
                    ) == getattr(result, attribute), (
                        f"replay drifted on ticket {ticket.id}: "
                        f"{attribute}"
                    )
        finally:
            kernels_module.LANE_TABLE["int64"].headroom_bits = self._saved_headroom


if FUZZ_SEED is not None:
    StreamSoakMachine = seed(int(FUZZ_SEED))(StreamSoakMachine)

TestStreamSoak = StreamSoakMachine.TestCase
TestStreamSoak.settings = SOAK_SETTINGS
