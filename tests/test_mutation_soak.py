"""Stateful soak harness for the dynamic-hypergraph layer.

A hypothesis :class:`RuleBasedStateMachine` drives one
:class:`~repro.hypergraph.MutableHypergraph` and its
:class:`~repro.core.state.SolveState` through adversarial interleavings
of the operations a dynamic deployment would see —

* edge additions (including rank-raising ones, which force the
  ambient-pinning fallback), removals, vertex reweights (int-,
  huge-int- and Fraction-valued; the huge ones outgrow the shrunken
  int64 headroom budget, at entry or mid-solve) and
  vertex additions;
* warm re-solves at arbitrary points in the mutation stream
  (:func:`~repro.core.incremental.resolve_incremental` reading the
  coalesced delta straight off the store);

— asserting after every re-solve, and once more at teardown, that the
incremental result is **bit-identical to a fresh from-scratch
``run_fastpath``** of the mutated snapshot, and that the coalesced
delta replays the base snapshot to the current one exactly.  Whether a
re-solve ran warm or fell back must never be observable in the bits.

``SCHEDULER_FUZZ_SEED`` (CI's seed-matrix scheduler-fuzz step) turns
derandomization off and pins hypothesis' PRNG to the given seed, so
each matrix entry explores a different mutation-stream family.
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
from repro.core.fastpath import run_fastpath
from repro.core.incremental import resolve_incremental, solve_state
from repro.core.params import AlgorithmConfig
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.mutable import MutableHypergraph, apply_delta

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

#: Shrunken int64 headroom for the whole soak: huge-int reweights then
#: enter a limb lane, or overflow the int64 arena mid-run and carry
#: down the spill ladder.
#: Results are lane-independent, so the solo reference is unaffected.
SOAK_HEADROOM_BITS = 44

FUZZ_SEED = os.environ.get("SCHEDULER_FUZZ_SEED")

SOAK_SETTINGS = settings(
    max_examples=int(os.environ.get("MUTATION_SOAK_EXAMPLES", "4")),
    stateful_step_count=14,
    deadline=None,
    derandomize=FUZZ_SEED is None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.filter_too_much,
    ],
)

INT_WEIGHTS = st.integers(min_value=1, max_value=10**6)
#: Large enough to outgrow the shrunken 44-bit int64 budget.
SPILL_WEIGHTS = st.integers(min_value=10**9, max_value=10**13)
FRACTION_WEIGHTS = st.fractions(
    min_value=Fraction(1, 64),
    max_value=Fraction(10**6),
    max_denominator=64,
)
ANY_WEIGHT = st.one_of(INT_WEIGHTS, SPILL_WEIGHTS, FRACTION_WEIGHTS)


class MutationSoakMachine(RuleBasedStateMachine):
    """Interleave mutations and warm re-solves; bits never move."""

    def __init__(self):
        super().__init__()
        self._saved_headroom = kernels_module.LANE_TABLE["int64"].headroom_bits
        kernels_module.LANE_TABLE["int64"].headroom_bits = SOAK_HEADROOM_BITS
        self.config = AlgorithmConfig(epsilon=Fraction(1, 3))
        self.base = Hypergraph(
            8,
            [(0, 1), (1, 2, 3), (4, 5), (5, 6)],
            weights=[3, 1, 4, 1, 5, 9, 2, 6],
        )
        self.store = MutableHypergraph(self.base)
        self.state = solve_state(
            self.base, self.config, verify=False, version=0
        )
        self.resolves = 0

    # -- mutations -----------------------------------------------------

    @rule(data=st.data())
    def add_edge(self, data):
        n = self.store.num_vertices
        size = data.draw(
            st.integers(min_value=1, max_value=min(4, n)), label="size"
        )
        members = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=size,
                max_size=size,
                unique=True,
            ),
            label="members",
        )
        self.store.add_edge(tuple(members))

    @precondition(lambda self: self.store.num_edges > 0)
    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def remove_edge(self, pick):
        self.store.remove_edge(pick % self.store.num_edges)

    @rule(pick=st.integers(min_value=0, max_value=10**6),
          weight=ANY_WEIGHT)
    def reweight(self, pick, weight):
        self.store.set_weight(pick % self.store.num_vertices, weight)

    @rule(weight=ANY_WEIGHT)
    def add_vertex(self, weight):
        self.store.add_vertex(weight=weight)

    # -- re-solve and verify -------------------------------------------

    @rule()
    def resolve(self):
        self.state = resolve_incremental(
            self.state, self.store, verify=False
        )
        self.resolves += 1
        self._check()

    def _check(self):
        snapshot = self.store.snapshot()
        assert self.state.snapshot == snapshot
        solo = run_fastpath(snapshot, self.config, verify=False)
        for attribute in OBSERVABLES:
            assert getattr(self.state.result, attribute) == getattr(
                solo, attribute
            ), (
                f"incremental re-solve {self.resolves} drifted from "
                f"from-scratch on {attribute} "
                f"(warm={self.state.result.warm})"
            )

    def teardown(self):
        try:
            # The coalesced delta replays base -> current exactly.
            assert (
                apply_delta(self.base, self.store.delta_since(0))
                == self.store.snapshot()
            )
            self.state = resolve_incremental(
                self.state, self.store, verify=True
            )
            self.resolves += 1
            self._check()
            assert self.state.result.certificate is not None
        finally:
            kernels_module.LANE_TABLE["int64"].headroom_bits = self._saved_headroom


if FUZZ_SEED is not None:
    MutationSoakMachine = seed(int(FUZZ_SEED))(MutationSoakMachine)

TestMutationSoak = MutationSoakMachine.TestCase
TestMutationSoak.settings = SOAK_SETTINGS
