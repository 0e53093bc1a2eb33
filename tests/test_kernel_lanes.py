"""The kernel lanes must be bit-identical — and fractional weights safe.

PR 3 moved the batched arena's guarded int64 sweep machinery into the
shared kernel layer (:mod:`repro.core.kernels`), added the two-limb
~128-bit lane, and gave the single-instance fastpath executor a
machine-width iteration loop with a spill ladder, later widened by the
three- and four-limb lanes (int64 -> two-limb -> three-limb ->
four-limb -> bigint).  These tests pin:

* lane-forcing differential equality: every lane (``lane="int64"`` /
  ``"two-limb"`` / ``"three-limb"`` / ``"four-limb"`` / ``"bigint"``)
  produces the same
  covers, duals, iterations, rounds, levels and statistics as the
  Fraction-core lockstep executor, on structured and hypothesis
  instance mixes;
* lane *engagement*: eligible instances actually run on the expected
  lane (reported via ``CoverResult.lane``), ``lane="auto"`` enters the
  lane an instance finishes on (the growth-aware entry rule and the
  ``min_nnz`` gate), and mid-run headroom exhaustion spills down the
  ladder without changing a single bit;
* the fractional-weight regressions: ``repro-cover batch --json`` no
  longer crashes on Fraction weights, ``arena_eligibility`` returns
  ``(False, reason)`` instead of raising for instances it cannot
  bound, and the whole executor matrix stays exact on rational
  weights;
* the Fraction slot capability probe behind
  :func:`~repro.lp.scaled.raw_fraction_list`: when the CPython slot
  layout fast path is unavailable, results degrade to the public
  constructor, never to wrong values;
* the limb arithmetic itself (every limb lane, one ``LimbOps`` class),
  against plain Python integers: worked examples plus a property test
  over every op the sweep engine calls.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.kernels as kernels_module
import repro.lp.scaled as scaled_module
from repro.core.batch import arena_eligibility
from repro.core.fastpath import HAS_NUMPY, prepare_scaled_state, run_fastpath
from repro.core.kernels import (
    FourLimbOps,
    ThreeLimbOps,
    TwoLimbOps,
    lane_eligibility,
)
from repro.core.parallel import predicted_lane
from repro.core.params import AlgorithmConfig
from repro.core.solver import solve_mwhvc, solve_mwhvc_batch
from repro.exceptions import InvalidInstanceError
from repro.hypergraph import io
from repro.hypergraph.csr import arena_incidence, pack_arena, vertex_incidence_csr
from repro.hypergraph.generators import (
    mixed_rank_hypergraph,
    regular_hypergraph,
    uniform_weights,
)
from repro.hypergraph.hypergraph import Hypergraph

from conftest import spy_lane_runs

needs_numpy = pytest.mark.skipif(
    not HAS_NUMPY, reason="the machine-width kernel lanes require numpy"
)

LANES = ("int64", "two-limb", "three-limb", "four-limb", "bigint")

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


def assert_lanes_match_lockstep(hypergraph, config, *, lanes=LANES):
    """Every forced lane equals the Fraction cores on every observable."""
    reference = solve_mwhvc(hypergraph, config=config, executor="lockstep")
    for lane in lanes:
        result = solve_mwhvc(
            hypergraph, config=config, executor="fastpath", lane=lane
        )
        for attribute in OBSERVABLES:
            expected = getattr(reference, attribute)
            actual = getattr(result, attribute)
            assert actual == expected, (
                f"lane {lane} disagrees with lockstep on {attribute}: "
                f"{actual!r} != {expected!r}"
            )
    return reference


def fractional_instance(seed=3, n=18, m=30, rank=3):
    base = mixed_rank_hypergraph(n, m, rank, seed=seed)
    return base.reweighted(
        [Fraction(3 * (v + 2), 2 + (v % 5)) for v in range(n)]
    )


# ----------------------------------------------------------------------
# Lane-forcing differential batteries
# ----------------------------------------------------------------------


@pytest.mark.parametrize("schedule", ["spec", "compact"])
@pytest.mark.parametrize("epsilon", ["1", "1/3", "1/9"])
def test_lane_equality_random_instances(schedule, epsilon):
    config = AlgorithmConfig(epsilon=Fraction(epsilon), schedule=schedule)
    for seed in range(4):
        hypergraph = mixed_rank_hypergraph(
            12 + seed * 2,
            18 + seed * 3,
            4,
            seed=seed,
            weights=uniform_weights(12 + seed * 2, 50, seed=seed + 5),
        )
        assert_lanes_match_lockstep(hypergraph, config)


def test_lane_equality_huge_weights():
    """Weights beyond int64's headroom exercise the two-limb regime."""
    weights = [10**16 + 997 * v for v in range(30)]
    hypergraph = mixed_rank_hypergraph(30, 50, 3, seed=17, weights=weights)
    config = AlgorithmConfig(epsilon=Fraction(1, 5))
    assert_lanes_match_lockstep(hypergraph, config)


def test_lane_equality_beyond_two_limb():
    """Weights beyond the two-limb 2**93 headroom land on three-limb."""
    weights = [10**26 + 997 * v for v in range(24)]
    hypergraph = mixed_rank_hypergraph(24, 40, 3, seed=19, weights=weights)
    config = AlgorithmConfig(epsilon=Fraction(1, 5))
    assert_lanes_match_lockstep(hypergraph, config)
    if HAS_NUMPY:
        auto = solve_mwhvc(hypergraph, config=config, executor="fastpath")
        assert auto.lane == "three-limb"


def test_lane_equality_beyond_three_limb():
    """Weights beyond 2**124 on an instance too small for the four-limb
    lane (below its ``min_nnz``) take the big-int floor up front."""
    weights = [10**38 + 31 * v for v in range(16)]
    hypergraph = mixed_rank_hypergraph(16, 26, 3, seed=23, weights=weights)
    config = AlgorithmConfig(epsilon=Fraction(1, 5))
    assert_lanes_match_lockstep(hypergraph, config)
    if HAS_NUMPY:
        auto = solve_mwhvc(hypergraph, config=config, executor="fastpath")
        assert auto.lane == "bigint"


def test_lane_equality_fractional_weights():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    assert_lanes_match_lockstep(fractional_instance(), config)


@needs_numpy
def test_lanes_engage_as_reported():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    eligible = mixed_rank_hypergraph(
        14, 22, 3, seed=2, weights=uniform_weights(14, 20, seed=3)
    )
    assert solve_mwhvc(
        eligible, config=config, executor="fastpath"
    ).lane == "int64"
    assert solve_mwhvc(
        eligible, config=config, executor="fastpath", lane="two-limb"
    ).lane == "two-limb"
    assert solve_mwhvc(
        eligible, config=config, executor="fastpath", lane="bigint"
    ).lane == "bigint"
    # Beyond int64's headroom the ladder lands on the two-limb lane.
    huge = eligible.reweighted([10**16 + v for v in range(14)])
    assert solve_mwhvc(
        huge, config=config, executor="fastpath"
    ).lane == "two-limb"
    # Features the machine lanes exclude pin the big-int floor.
    checked = AlgorithmConfig(epsilon=Fraction(1, 3), check_invariants=True)
    assert solve_mwhvc(
        eligible, config=checked, executor="fastpath"
    ).lane == "bigint"
    # Fraction-core executors report no lane.
    assert solve_mwhvc(eligible, config=config).lane is None


def test_invalid_lane_is_rejected():
    hypergraph = Hypergraph(2, [(0, 1)])
    with pytest.raises(InvalidInstanceError):
        solve_mwhvc(hypergraph, executor="fastpath", lane="float128")
    with pytest.raises(InvalidInstanceError):
        solve_mwhvc(hypergraph, executor="lockstep", lane="int64")
    with pytest.raises(InvalidInstanceError):
        solve_mwhvc(hypergraph, executor="congest", lane="int64")


@pytest.mark.parametrize(
    "lane", ["auto", "int64", "two-limb", "three-limb", "four-limb"]
)
def test_carry_is_accepted_only_on_the_bigint_floor(lane):
    """A spill carry resumes the big-int loop; on any other lane it is
    an error, never silently dropped."""
    hypergraph = Hypergraph(2, [(0, 1)])
    with pytest.raises(InvalidInstanceError, match="carry"):
        run_fastpath(hypergraph, lane=lane, carry={"scale": 1})


def test_observer_with_forced_machine_lane_is_rejected():
    """Observers only exist on the big-int loop; silently running it
    under an explicitly forced machine lane would instrument the wrong
    code path, so the combination errors instead."""
    from repro.core.observer import ConvergenceRecorder

    hypergraph = mixed_rank_hypergraph(
        10, 15, 3, seed=1, weights=uniform_weights(10, 10, seed=2)
    )
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    for lane in ("int64", "two-limb"):
        with pytest.raises(InvalidInstanceError):
            solve_mwhvc(
                hypergraph, config=config, executor="fastpath",
                observer=ConvergenceRecorder(), lane=lane,
            )
    # "auto" (and "bigint") degrade to the observable big-int loop.
    recorder = ConvergenceRecorder()
    result = solve_mwhvc(
        hypergraph, config=config, executor="fastpath", observer=recorder
    )
    assert result.lane == "bigint"
    assert recorder.snapshots


@needs_numpy
def test_midrun_spill_down_the_ladder(monkeypatch):
    """Shrunken headroom forces mid-run spills; bits never change.

    Each step shrinks one more lane of the table; the run is forced to
    enter at int64 (the growth-aware ``auto`` entry would skip the
    shrunken lanes), and every step's first lane spills mid-run."""
    hypergraph = mixed_rank_hypergraph(
        20, 35, 4, seed=8, weights=uniform_weights(20, 1000, seed=9)
    )
    config = AlgorithmConfig(epsilon=Fraction(1, 7))
    reference = solve_mwhvc(hypergraph, config=config, executor="lockstep")
    runs = spy_lane_runs(monkeypatch)
    for shrunk, name in enumerate(kernels_module.LANE_TABLE, start=1):
        monkeypatch.setattr(kernels_module.LANE_TABLE[name], "headroom_bits", 40)
        runs.clear()
        result = solve_mwhvc(
            hypergraph, config=config, executor="fastpath", lane="int64"
        )
        assert runs[0].ops.name == "int64" and runs[0].carries_out, name
        assert all(run.carries_out for run in runs[:shrunk]), name
        for attribute in OBSERVABLES:
            assert getattr(result, attribute) == getattr(reference, attribute)
    assert result.lane == "bigint"


@needs_numpy
@pytest.mark.parametrize("schedule", ["spec", "compact"])
def test_scalar_spill_carry_resumes_in_place(monkeypatch, schedule):
    """Acceptance: a late mid-run spill must *not* replay from
    iteration 0 — the wider lane resumes at the carried iteration, and
    the iteration counts across the lane boundary add up to exactly
    one uninterrupted run (plus re-execution of the interrupted
    sweep), with bit-identical results."""
    hypergraph = mixed_rank_hypergraph(
        20, 35, 4, seed=8, weights=uniform_weights(20, 1000, seed=9)
    )
    config = AlgorithmConfig(epsilon=Fraction(1, 7), schedule=schedule)
    reference = solve_mwhvc(hypergraph, config=config, executor="lockstep")

    runs = spy_lane_runs(monkeypatch)
    # Shrunken headroom admits the initial scale but trips mid-run.
    monkeypatch.setattr(kernels_module.LANE_TABLE["int64"], "headroom_bits", 41)
    result = solve_mwhvc(hypergraph, config=config, executor="fastpath")
    assert result.lane == "two-limb"
    for attribute in OBSERVABLES:
        assert getattr(result, attribute) == getattr(reference, attribute)

    int64_run, resumed = runs
    assert int64_run.ops.name == "int64" and 0 in int64_run.carries_out
    carry = int64_run.carries_out[0]
    # Late spill: at least two iterations completed before the boundary.
    assert carry["iterations"] >= 2
    # The resumed engine starts offset at the carried iteration — its
    # local sweep count is the remainder, not a replay from zero.
    assert resumed.ops.name == "two-limb"
    assert int(resumed.offsets[0]) == carry["iterations"]
    resumed_sweeps = result.iterations - carry["iterations"]
    assert 0 < resumed_sweeps < result.iterations


@needs_numpy
@pytest.mark.parametrize("schedule", ["spec", "compact"])
def test_scalar_spill_carry_to_bigint(monkeypatch, schedule):
    """Every boundary: each machine lane of the table spills in turn,
    resuming once per lane, and the big-int loop finishes."""
    hypergraph = mixed_rank_hypergraph(
        20, 35, 4, seed=8, weights=uniform_weights(20, 1000, seed=9)
    )
    config = AlgorithmConfig(epsilon=Fraction(1, 7), schedule=schedule)
    reference = solve_mwhvc(hypergraph, config=config, executor="lockstep")
    runs = spy_lane_runs(monkeypatch)
    # Equal budgets: each resumed engine re-executes the interrupted
    # sweep and trips the same ceiling, carrying again.  A forced start
    # enters int64 (on admission of the bare scale) and skips the
    # ``min_nnz`` gate, so every lane runs.
    for row in kernels_module.LANE_TABLE.values():
        monkeypatch.setattr(row, "headroom_bits", 41)
    result = solve_mwhvc(
        hypergraph, config=config, executor="fastpath", lane="int64"
    )
    assert result.lane == "bigint"
    for attribute in OBSERVABLES:
        assert getattr(result, attribute) == getattr(reference, attribute)
    # Every machine engine spilled with a carry; offsets chain upward.
    assert [run.ops.name for run in runs] == list(kernels_module.LANE_TABLE)
    carries = [run.carries_out[0] for run in runs]
    assert int(runs[1].offsets[0]) == carries[0]["iterations"] >= 1
    for run, carry in zip(runs[1:], carries):
        assert int(run.offsets[0]) == carry["iterations"]
    previous = 0
    for carry in carries:
        assert carry["iterations"] >= previous
        previous = carry["iterations"]
    assert carries[-1]["iterations"] < result.iterations


@needs_numpy
def test_two_limb_spill_resumes_on_three_limb(monkeypatch):
    """A two-limb overflow carries onto the three-limb lane mid-run."""
    hypergraph = mixed_rank_hypergraph(
        20, 35, 4, seed=8, weights=uniform_weights(20, 1000, seed=9)
    )
    config = AlgorithmConfig(epsilon=Fraction(1, 7))
    reference = solve_mwhvc(hypergraph, config=config, executor="lockstep")
    runs = spy_lane_runs(monkeypatch)
    monkeypatch.setattr(kernels_module.LANE_TABLE["two-limb"], "headroom_bits", 41)
    result = solve_mwhvc(
        hypergraph, config=config, executor="fastpath", lane="two-limb"
    )
    assert result.lane == "three-limb"
    for attribute in OBSERVABLES:
        assert getattr(result, attribute) == getattr(reference, attribute)
    assert [run.ops.name for run in runs] == ["two-limb", "three-limb"]
    carry = runs[0].carries_out[0]
    assert int(runs[1].offsets[0]) == carry["iterations"] >= 1
    assert carry["iterations"] < result.iterations


@needs_numpy
def test_int64_spill_skips_ineligible_two_limb(monkeypatch):
    """An int64 overflow whose carried scale the two-limb lane cannot
    admit resumes directly on three-limb — the ladder skips rungs."""
    hypergraph = mixed_rank_hypergraph(
        20, 35, 4, seed=8, weights=uniform_weights(20, 1000, seed=9)
    )
    config = AlgorithmConfig(epsilon=Fraction(1, 7))
    reference = solve_mwhvc(hypergraph, config=config, executor="lockstep")
    runs = spy_lane_runs(monkeypatch)
    monkeypatch.setattr(kernels_module.LANE_TABLE["int64"], "headroom_bits", 41)
    monkeypatch.setattr(kernels_module.LANE_TABLE["two-limb"], "headroom_bits", 20)
    result = solve_mwhvc(hypergraph, config=config, executor="fastpath")
    assert result.lane == "three-limb"
    for attribute in OBSERVABLES:
        assert getattr(result, attribute) == getattr(reference, attribute)
    assert [run.ops.name for run in runs] == ["int64", "three-limb"]
    carry = runs[0].carries_out[0]
    assert int(runs[1].offsets[0]) == carry["iterations"] >= 1


@needs_numpy
@pytest.mark.parametrize("schedule", ["spec", "compact"])
def test_arena_spill_carry_resumes_in_place(monkeypatch, schedule):
    """The arena path: a spilled batch member joins the two-limb arena
    at its carried offset (alongside fresh members at offset 0) and
    the merged results stay bit-identical to solo runs."""
    spilling = mixed_rank_hypergraph(
        20, 35, 4, seed=8, weights=uniform_weights(20, 1000, seed=9)
    )
    small = mixed_rank_hypergraph(
        10, 15, 3, seed=1, weights=uniform_weights(10, 10, seed=2)
    )
    huge = mixed_rank_hypergraph(
        12, 18, 3, seed=3, weights=[10**16 + v for v in range(12)]
    )
    batch = [small, spilling, huge]
    config = AlgorithmConfig(epsilon=Fraction(1, 7), schedule=schedule)
    solos = [
        solve_mwhvc(hypergraph, config=config, executor="fastpath")
        for hypergraph in batch
    ]

    runs = spy_lane_runs(monkeypatch)
    monkeypatch.setattr(kernels_module.LANE_TABLE["int64"], "headroom_bits", 41)
    results = solve_mwhvc_batch(batch, config=config)
    for position, (solo, batched) in enumerate(zip(solos, results)):
        for attribute in OBSERVABLES:
            assert getattr(batched, attribute) == getattr(
                solo, attribute
            ), (position, attribute)

    int64_arena = runs[0]
    assert int64_arena.carries_out, "expected a mid-run arena spill"
    carry = next(iter(int64_arena.carries_out.values()))
    assert carry["iterations"] >= 1
    two_limb_arena = runs[1]
    assert two_limb_arena.ops.name == "two-limb"
    offsets = sorted(int(offset) for offset in two_limb_arena.offsets)
    # Mixed offsets: the fresh (huge-weight) member starts at 0, the
    # resumed member at its carried iteration.
    assert offsets[0] == 0
    assert offsets[-1] == carry["iterations"] >= 1


@needs_numpy
def test_four_limb_spill_resumes_on_bigint(monkeypatch):
    """A four-limb overflow carries onto the big-int loop mid-run."""
    hypergraph = mixed_rank_hypergraph(
        20, 35, 4, seed=8, weights=uniform_weights(20, 1000, seed=9)
    )
    config = AlgorithmConfig(epsilon=Fraction(1, 7))
    reference = solve_mwhvc(hypergraph, config=config, executor="lockstep")
    runs = spy_lane_runs(monkeypatch)
    monkeypatch.setattr(kernels_module.LANE_TABLE["four-limb"], "headroom_bits", 41)
    result = solve_mwhvc(
        hypergraph, config=config, executor="fastpath", lane="four-limb"
    )
    assert result.lane == "bigint"
    for attribute in OBSERVABLES:
        assert getattr(result, attribute) == getattr(reference, attribute)
    assert [run.ops.name for run in runs] == ["four-limb"]
    carry = runs[0].carries_out[0]
    assert 1 <= carry["iterations"] < result.iterations


def regular_instance(n, max_weight, seed):
    """A regular rank-3, degree-6 instance, the corpus benchmark's shape."""
    return regular_hypergraph(
        n, 3, 6, seed=seed, weights=uniform_weights(n, max_weight, seed=seed + 7)
    )


@needs_numpy
@pytest.mark.parametrize(
    "max_weight, lane",
    [
        (10**4, "int64"),
        (10**10, "two-limb"),
        (10**18, "three-limb"),
        (10**30, "four-limb"),
    ],
)
def test_auto_enters_the_lane_it_finishes_on(monkeypatch, max_weight, lane):
    """At eps = 1/200 each weight class enters, with room for half the
    Claim-4 scale growth, the lane it finishes on: one lane run, no
    carry, and the cost model's prediction names the same lane."""
    config = AlgorithmConfig(epsilon=Fraction(1, 200))
    hypergraph = regular_instance(480, max_weight, seed=1)
    runs = spy_lane_runs(monkeypatch)
    result = solve_mwhvc(hypergraph, config=config, executor="fastpath")
    assert result.lane == lane
    assert [run.ops.name for run in runs] == [lane]
    assert not runs[0].carries_out
    assert predicted_lane(hypergraph, config) == lane


@needs_numpy
def test_min_nnz_gate_sends_small_arenas_to_bigint(monkeypatch):
    """One 10**30-weight batch on both sides of four-limb's ``min_nnz``:
    below it the arena runs on the big-int loop, at it on four-limb,
    with the same bits; a forced lane ignores the gate."""
    config = AlgorithmConfig(epsilon=Fraction(1, 200))
    batch = [regular_instance(60, 10**30, seed=seed) for seed in range(4)]
    total = sum(hypergraph.nnz for hypergraph in batch)
    row = kernels_module.LANE_TABLE["four-limb"]
    assert total < row.min_nnz
    runs = spy_lane_runs(monkeypatch)
    below = solve_mwhvc_batch(batch, config=config)
    assert not runs
    assert {result.lane for result in below} == {"bigint"}
    monkeypatch.setattr(row, "min_nnz", total)
    at = solve_mwhvc_batch(batch, config=config)
    assert [run.ops.name for run in runs] == ["four-limb"]
    assert {result.lane for result in at} == {"four-limb"}
    for left, right in zip(below, at):
        for attribute in OBSERVABLES:
            assert getattr(left, attribute) == getattr(right, attribute)
    monkeypatch.setattr(row, "min_nnz", total + 1)
    forced = solve_mwhvc(
        batch[0], config=config, executor="fastpath", lane="four-limb"
    )
    assert forced.lane == "four-limb"
    assert forced.dual == below[0].dual


DIFFERENTIAL_SETTINGS = settings(
    max_examples=int(os.environ.get("LANE_DIFF_EXAMPLES", "15")),
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def lane_stress_hypergraphs(draw, max_vertices=12, max_edges=14, max_rank=4):
    """Random instances whose weights span the whole lane ladder."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=1, max_value=max_edges))
    edges = []
    for _ in range(m):
        size = draw(st.integers(min_value=1, max_value=min(max_rank, n)))
        members = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        edges.append(tuple(members))
    weight_pool = st.one_of(
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=10**14, max_value=10**17),
        st.fractions(
            min_value=Fraction(1, 64),
            max_value=Fraction(10**6),
            max_denominator=64,
        ),
    )
    weights = draw(st.lists(weight_pool, min_size=n, max_size=n))
    return Hypergraph(n, edges, weights)


#: The alpha policies the lane properties draw.  Theorem 9 and both
#: fixed alphas give one alpha per instance, the local policy one per
#: edge; the fractional fixed alpha must take the big-int floor.
ALPHA_POLICIES = [
    {"alpha_policy": "theorem9"},
    {"alpha_policy": "local"},
    {"alpha_policy": "fixed", "fixed_alpha": Fraction(3)},
    {"alpha_policy": "fixed", "fixed_alpha": Fraction(7, 2)},
]


def assert_alpha_matches_lockstep(result, reference, config):
    """The alpha span equals lockstep's, and a fractional fixed alpha
    took the big-int floor."""
    assert (result.alpha_min, result.alpha_max) == (
        reference.alpha_min,
        reference.alpha_max,
    )
    if config.alpha_policy == "fixed" and config.fixed_alpha.denominator > 1:
        assert result.lane == "bigint"


@DIFFERENTIAL_SETTINGS
@given(
    hypergraph=lane_stress_hypergraphs(),
    epsilon=st.sampled_from(
        [Fraction(1), Fraction(1, 2), Fraction(1, 7), Fraction(2, 9)]
    ),
    schedule=st.sampled_from(["spec", "compact"]),
    alpha=st.sampled_from(ALPHA_POLICIES),
)
def test_property_lane_equality(hypergraph, epsilon, schedule, alpha):
    """int64 / two-limb / big-int are all bit-identical to lockstep,
    under every alpha policy."""
    config = AlgorithmConfig(epsilon=epsilon, schedule=schedule, **alpha)
    reference = assert_lanes_match_lockstep(hypergraph, config)
    result = solve_mwhvc(hypergraph, config=config, executor="fastpath")
    assert_alpha_matches_lockstep(result, reference, config)


@DIFFERENTIAL_SETTINGS
@given(
    hypergraphs=st.lists(
        lane_stress_hypergraphs(max_vertices=8, max_edges=10),
        min_size=1,
        max_size=4,
    ),
    epsilon=st.sampled_from([Fraction(1, 3), Fraction(1, 11)]),
    alpha=st.sampled_from(ALPHA_POLICIES),
)
def test_property_batch_lane_mixes(hypergraphs, epsilon, alpha):
    """Batches mixing int64 / two-limb / spilled instances stay exact.

    Solo fastpath runs the same spill ladder as the batch, so lockstep's
    Fraction cores are the independent reference."""
    config = AlgorithmConfig(epsilon=epsilon, **alpha)
    batch = solve_mwhvc_batch(hypergraphs, config=config)
    for hypergraph, batched in zip(hypergraphs, batch):
        solo = solve_mwhvc(hypergraph, config=config, executor="fastpath")
        reference = solve_mwhvc(hypergraph, config=config, executor="lockstep")
        for attribute in OBSERVABLES:
            assert getattr(batched, attribute) == getattr(solo, attribute)
            assert getattr(batched, attribute) == getattr(reference, attribute)
        assert_alpha_matches_lockstep(batched, reference, config)


# ----------------------------------------------------------------------
# Fractional-weight regressions (CLI / arena boundary)
# ----------------------------------------------------------------------


def test_hypergraph_accepts_fraction_weights():
    hypergraph = Hypergraph(
        3, [(0, 1), (1, 2)], weights=[Fraction(3, 2), 2, Fraction(4, 2)]
    )
    # Integral rationals normalize to int; true fractions survive.
    assert hypergraph.weights == (Fraction(3, 2), 2, 2)
    assert isinstance(hypergraph.weights[2], int)
    assert hypergraph.cover_weight({0, 1}) == Fraction(7, 2)
    with pytest.raises(InvalidInstanceError):
        Hypergraph(2, [(0, 1)], weights=[1.5, 1])
    with pytest.raises(InvalidInstanceError):
        Hypergraph(2, [(0, 1)], weights=[Fraction(0), 1])
    with pytest.raises(InvalidInstanceError):
        Hypergraph(2, [(0, 1)], weights=[Fraction(-1, 2), 1])


def test_io_roundtrips_fraction_weights(tmp_path):
    hypergraph = fractional_instance(n=9, m=12)
    text = io.dumps(hypergraph)
    assert "/" in text.splitlines()[1]  # the w-line carries num/den tokens
    assert io.loads(text) == hypergraph
    path = tmp_path / "frac.hg"
    io.save(hypergraph, path)
    assert io.load(path) == hypergraph
    with pytest.raises(InvalidInstanceError):
        io.loads("p mwhvc 2 1\nw 1/0 2\ne 0 1\n")
    with pytest.raises(InvalidInstanceError):
        io.loads("p mwhvc 2 1\nw x/y 2\ne 0 1\n")


def test_arena_eligibility_never_raises_on_fractional_weights(monkeypatch):
    """Regression: ``w_max * factor << (z + 2)`` used to TypeError."""
    hypergraph = fractional_instance()
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    eligible, reason = arena_eligibility(hypergraph, config)
    assert isinstance(eligible, bool) and isinstance(reason, str)
    # Forced-ineligible: with no representable scale the instance must
    # be reported ineligible, not crash the batch dispatcher.
    monkeypatch.setattr(kernels_module.LANE_TABLE["int64"], "headroom_bits", 4)
    eligible, reason = arena_eligibility(hypergraph, config)
    assert eligible is False
    if HAS_NUMPY:
        assert "headroom" in reason
    results = solve_mwhvc_batch([hypergraph], config=config)
    solo = solve_mwhvc(hypergraph, config=config, executor="fastpath")
    assert results[0].dual == solo.dual
    assert results[0].cover == solo.cover


def test_cli_batch_json_fractional_weights(tmp_path, capsys):
    """Regression: Fraction weights crashed ``batch --json`` with a
    TypeError from json.dumps."""
    from repro.cli import main

    for seed in range(3):
        hypergraph = fractional_instance(seed=seed, n=8, m=10)
        io.save(hypergraph, tmp_path / f"frac{seed}.hg")
    assert main(["batch", str(tmp_path), "--json", "--epsilon", "1/2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 3
    weights = [entry["weight"] for entry in payload["instances"]]
    total = sum(Fraction(str(weight)) for weight in weights)
    recorded = Fraction(str(payload["total_weight"]))
    assert recorded == total
    # Canonical rendering: ints stay ints, true rationals are "num/den".
    for weight in weights + [payload["total_weight"]]:
        assert isinstance(weight, int) or (
            isinstance(weight, str) and "/" in weight
        )
    # Solo fastpath runs of the same files serialize identically.
    config = AlgorithmConfig(epsilon=Fraction(1, 2))
    for row in payload["instances"]:
        solo = run_fastpath(io.load(tmp_path / row.pop("file")), config)
        assert row == solo.as_dict()


def test_cli_solve_lane_flag(tmp_path, capsys):
    from repro.cli import main

    hypergraph = mixed_rank_hypergraph(
        8, 12, 3, seed=1, weights=uniform_weights(8, 9, seed=2)
    )
    path = tmp_path / "inst.hg"
    io.save(hypergraph, path)
    assert main(
        ["solve", str(path), "--executor", "fastpath", "--lane",
         "two-limb", "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    if HAS_NUMPY:
        assert payload["lane"] == "two-limb"
    assert main(
        ["solve", str(path), "--executor", "fastpath", "--lane",
         "three-limb", "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    if HAS_NUMPY:
        assert payload["lane"] == "three-limb"
    # Lane forcing is a fastpath-only option.
    assert main(
        ["solve", str(path), "--executor", "lockstep", "--lane", "int64"]
    ) == 2
    capsys.readouterr()


# ----------------------------------------------------------------------
# lp.scaled's Fraction slot capability probe
# ----------------------------------------------------------------------


def test_scaled_fraction_probe_and_fallback(monkeypatch):
    """``raw_fraction_list`` fills Fraction slots only when the probe
    passes, and its constructor fallback yields the same values."""
    assert scaled_module._probe_fraction_slots() is True
    fast = scaled_module.raw_fraction_list([3, 0, 2], [2, 1, 1])
    monkeypatch.setattr(scaled_module, "_HAS_FRACTION_SLOTS", False)
    slow = scaled_module.raw_fraction_list([3, 0, 2], [2, 1, 1])
    assert fast == slow == [Fraction(3, 2), Fraction(0), Fraction(2)]
    for left, right in zip(fast, slow):
        assert (left.numerator, left.denominator) == (
            right.numerator, right.denominator
        )
        assert hash(left) == hash(right)
    # The fallback is the public constructor: fully normalized values.
    assert scaled_module.raw_fraction_list([6], [4]) == [Fraction(3, 2)]


# ----------------------------------------------------------------------
# Two-limb limb arithmetic vs plain Python integers
# ----------------------------------------------------------------------


@needs_numpy
def test_two_limb_roundtrip_and_ops():
    import numpy as np

    values = [0, 1, (1 << 32) - 1, 1 << 32, (1 << 62) + 12345,
              (1 << 91) + (1 << 40) + 7, (10**16) * 3 + 1]
    pair = TwoLimbOps.from_list(values)
    assert TwoLimbOps.tolist_slice(pair, slice(None)) == values

    factors = np.array([1, 3, 2**30 - 1, 7, 601, 2, 5], dtype=np.int64)
    product = TwoLimbOps.mul_int(pair, factors)
    assert TwoLimbOps.tolist_slice(product, slice(None)) == [
        value * int(factor) for value, factor in zip(values, factors)
    ]

    # Shifts keep every result inside the lane's 2**93 headroom; the
    # 45-bit entry exercises the >30-bit chunked path.
    shifts = np.array([0, 45, 30, 31, 5, 1, 35], dtype=np.int64)
    shifted = TwoLimbOps.shl(pair, shifts)
    assert TwoLimbOps.tolist_slice(shifted, slice(None)) == [
        value << int(shift) for value, shift in zip(values, shifts)
    ]
    back = TwoLimbOps.shr_exact(shifted, shifts)
    assert TwoLimbOps.tolist_slice(back, slice(None)) == values

    nonzero = [value for value in values if value]
    tz = TwoLimbOps.trailing_zeros(TwoLimbOps.from_list(nonzero))
    expected = [(value & -value).bit_length() - 1 for value in nonzero]
    assert tz.tolist() == expected

    left = TwoLimbOps.from_list([5, 1 << 80, 3])
    right = TwoLimbOps.from_list([5, (1 << 80) + 1, 2])
    assert TwoLimbOps.gt(left, right).tolist() == [False, False, True]
    assert TwoLimbOps._ge(left, right).tolist() == [True, False, True]

    cells = TwoLimbOps.from_list([1 << 70, (1 << 32) - 1, 1, 12, 1 << 90])
    starts = np.array([0, 2, 4], dtype=np.int64)
    sums = TwoLimbOps.reduceat(cells, starts)
    assert TwoLimbOps.tolist_slice(sums, slice(None)) == [
        (1 << 70) + (1 << 32) - 1, 13, 1 << 90
    ]


@needs_numpy
def test_three_limb_roundtrip_and_ops():
    import numpy as np

    # Values straddling every representation boundary: single limb,
    # two limbs (< 2**64), the two-limb lane's 2**93 headroom, and up
    # to just under the three-limb 2**124 ceiling.
    values = [0, 1, (1 << 32) - 1, 1 << 32, (1 << 64) + 12345,
              (1 << 93) + (1 << 40) + 7, (1 << 123) + (1 << 65) + 9,
              (10**26) * 3 + 1]
    triple = ThreeLimbOps.from_list(values)
    assert ThreeLimbOps.tolist_slice(triple, slice(None)) == values

    # Factors beyond 2**31 exercise the split (two 31-bit halves)
    # multiply; the products stay inside the headroom by construction.
    small = [0, 1, (1 << 32) - 1, 1 << 32, (1 << 64) + 12345]
    factors = np.array(
        [(1 << 62) - 1, (1 << 35) + 3, 2**31 - 1, 601, 7],
        dtype=np.int64,
    )
    product = ThreeLimbOps.mul_int(ThreeLimbOps.from_list(small), factors)
    assert ThreeLimbOps.tolist_slice(product, slice(None)) == [
        value * int(factor) for value, factor in zip(small, factors)
    ]
    # Scalar factors take the same split path.
    scalar = ThreeLimbOps.mul_int(
        ThreeLimbOps.from_list(small), np.int64((1 << 40) + 11)
    )
    assert ThreeLimbOps.tolist_slice(scalar, slice(None)) == [
        value * ((1 << 40) + 11) for value in small
    ]

    # Shifts chunk through the 30-bit per-step budget; 75 > 2 chunks.
    shifts = np.array([0, 75, 62, 31, 45, 20, 0, 5], dtype=np.int64)
    shifted = ThreeLimbOps.shl(triple, shifts)
    assert ThreeLimbOps.tolist_slice(shifted, slice(None)) == [
        value << int(shift) for value, shift in zip(values, shifts)
    ]
    back = ThreeLimbOps.shr_exact(shifted, shifts)
    assert ThreeLimbOps.tolist_slice(back, slice(None)) == values

    nonzero = [value for value in values if value]
    tz = ThreeLimbOps.trailing_zeros(ThreeLimbOps.from_list(nonzero))
    expected = [(value & -value).bit_length() - 1 for value in nonzero]
    assert tz.tolist() == expected

    left = ThreeLimbOps.from_list([5, 1 << 110, 3, 1 << 64])
    right = ThreeLimbOps.from_list([5, (1 << 110) + 1, 2, (1 << 64) - 1])
    assert ThreeLimbOps.gt(left, right).tolist() == [
        False, False, True, True
    ]
    assert ThreeLimbOps._ge(left, right).tolist() == [
        True, False, True, True
    ]

    cells = ThreeLimbOps.from_list(
        [1 << 100, (1 << 64) - 1, 1, 12, 1 << 120]
    )
    starts = np.array([0, 2, 4], dtype=np.int64)
    sums = ThreeLimbOps.reduceat(cells, starts)
    assert ThreeLimbOps.tolist_slice(sums, slice(None)) == [
        (1 << 100) + (1 << 64) - 1, 13, 1 << 120
    ]


@needs_numpy
def test_four_limb_roundtrip_and_ops():
    import numpy as np

    # The table's four-limb row runs these ops, and the limb-op
    # property below covers it.
    assert kernels_module.LANE_TABLE["four-limb"].ops is FourLimbOps
    assert "four-limb" in LIMB_LANES

    # Values past the three-limb 2**124 ceiling, up to just under the
    # four-limb 2**156 one, beside values that leave the top words 0.
    values = [0, 1, (1 << 64) + 12345, (1 << 123) + 9,
              (1 << 124) + (1 << 96) + 5, (1 << 155) + (1 << 100) + 3,
              (10**30) * 7 + 1]
    quad = FourLimbOps.from_list(values)
    assert len(quad) == 4
    assert FourLimbOps.tolist_slice(quad, slice(None)) == values

    small = [1, (1 << 64) - 1, (1 << 90) + 7, 10**27]
    factors = np.array(
        [(1 << 62) - 1, (1 << 35) + 3, 2**31 - 1, 601], dtype=np.int64
    )
    product = FourLimbOps.mul_int(FourLimbOps.from_list(small), factors)
    assert FourLimbOps.tolist_slice(product, slice(None)) == [
        value * int(factor) for value, factor in zip(small, factors)
    ]

    shifts = np.array([0, 100, 31, 60, 1, 0, 20], dtype=np.int64)
    bases = [value >> 101 if shift == 100 else value >> 61 for value, shift
             in zip(values, shifts.tolist())]
    shifted = FourLimbOps.shl(FourLimbOps.from_list(bases), shifts)
    assert FourLimbOps.tolist_slice(shifted, slice(None)) == [
        value << int(shift) for value, shift in zip(bases, shifts)
    ]
    back = FourLimbOps.shr_exact(shifted, shifts)
    assert FourLimbOps.tolist_slice(back, slice(None)) == bases

    nonzero = [value for value in values if value] + [1 << 130]
    tz = FourLimbOps.trailing_zeros(FourLimbOps.from_list(nonzero))
    assert tz.tolist() == [(value & -value).bit_length() - 1 for value in nonzero]

    left = FourLimbOps.from_list([1 << 150, (1 << 128) + 1, 3])
    right = FourLimbOps.from_list([(1 << 150) + 1, 1 << 128, 3])
    assert FourLimbOps.gt(left, right).tolist() == [False, True, False]
    assert FourLimbOps._ge(left, right).tolist() == [False, True, True]

    cells = FourLimbOps.from_list([1 << 140, (1 << 96) - 1, 1, 1 << 150])
    starts = np.array([0, 2], dtype=np.int64)
    sums = FourLimbOps.reduceat(cells, starts)
    assert FourLimbOps.tolist_slice(sums, slice(None)) == [
        (1 << 140) + (1 << 96) - 1, (1 << 150) + 1
    ]


#: Every limb lane of the table, so a new row is property-tested as is.
LIMB_LANES = [
    name
    for name, row in kernels_module.LANE_TABLE.items()
    if isinstance(row.ops, kernels_module.LimbOps)
]


@needs_numpy
@pytest.mark.parametrize(
    "ops, headroom, factor_bits",
    [
        (
            kernels_module.LANE_TABLE[name].ops,
            kernels_module.LANE_TABLE[name].headroom_bits,
            kernels_module.LANE_TABLE[name].multiplier_bits,
        )
        for name in LIMB_LANES
    ],
    ids=LIMB_LANES,
)
@settings(
    max_examples=int(os.environ.get("LANE_DIFF_EXAMPLES", "60")), deadline=None
)
@given(data=st.data())
def test_property_limb_ops_match_python_ints(ops, headroom, factor_bits, data):
    """Every op :class:`~repro.core.kernels.LaneRun` calls on a limb lane
    equals Python-int arithmetic while values and products stay under
    the lane's headroom (and multipliers under its budget)."""
    import numpy as np

    size = data.draw(st.integers(1, 10), label="size")

    def ints(bits, low=0):
        # All-ones values saturate every word: the carry chains' worst case.
        saturated = st.integers(1, bits).map(lambda width: (1 << width) - 1)
        values = st.integers(low, (1 << bits) - 1) | saturated
        return data.draw(st.lists(values, min_size=size, max_size=size))

    def back(value, sl=slice(None)):
        return ops.tolist_slice(value, sl)

    def int64s(values):
        return np.array(values, dtype=np.int64)

    xs, ys = ints(headroom - 1), ints(headroom - 1)
    x, y = ops.from_list(xs), ops.from_list(ys)
    start = data.draw(st.integers(0, size))
    window = slice(start, data.draw(st.integers(start, size)))
    assert back(x) == xs
    assert back(x, window) == xs[window]

    # The int64 constructor splits words by mask and shift exactly as
    # from_list does, on one array or on per-instance chunks joined
    # into a slab; any chunk of wider ints sends the slab to from_list.
    def same_words(left, right):
        return len(left) == len(right) and all(
            np.array_equal(a, b) for a, b in zip(left, right)
        )

    narrow = ints(63) + [0, 2**31 - 1, 2**31, 2**32 - 1, 2**32, 2**62, 2**63 - 1]
    words = ops.from_int64(int64s(narrow))
    assert same_words(words, ops.from_list(narrow))
    assert not any(word.any() for word in words[2:])
    cuts = sorted(data.draw(st.lists(st.integers(0, len(narrow)), max_size=3)))
    chunks = [
        int64s(narrow[a:b]) for a, b in zip([0, *cuts], [*cuts, len(narrow)])
    ]
    assert same_words(
        kernels_module._value_slab(ops, chunks), ops.from_list(narrow)
    )
    assert back(kernels_module._value_slab(ops, [*chunks, xs])) == narrow + xs

    # tolist_slice recombines in int64 below 2**63 and in Python ints
    # above: second words 2**31 - 1 and 2**31, nonzero third words.
    bound = [
        ((2**31 - 1) << 32) | (2**32 - 1), 2**31 << 32, 2**63 - 1, 2**63,
    ]
    bound += [2**64, (2**64) | (2**63 - 1)] if ops.limbs > 2 else []
    bound += [2**96, (2**96) | (2**64 - 1)] if ops.limbs > 3 else []
    for values in ([value] for value in bound):
        assert back(ops.from_list(values)) == values
    recombined = back(ops.from_list(bound))
    assert recombined == bound
    assert all(type(value) is int for value in recombined + back(words))

    # Index sets are unique, like LaneRun's live-id arrays.
    picks = data.draw(st.lists(st.integers(0, size - 1), unique=True))
    idx = int64s(picks)
    assert back(ops.gather(x, idx)) == [xs[i] for i in picks]
    scattered = ops.from_list(xs)
    ops.scatter(scattered, idx, ops.gather(y, idx))
    assert back(scattered) == [
        ys[i] if i in picks else v for i, v in enumerate(xs)
    ]
    summed = [v + ys[i] if i in picks else v for i, v in enumerate(xs)]
    added = ops.from_list(xs)
    ops.iadd(added, idx, ops.gather(y, idx))
    assert back(added) == summed
    added = ops.from_list(xs)
    ops.iadd_gather(added, idx, y)
    assert back(added) == summed

    mask = np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    assert back(ops.mul_mask(x, mask)) == [
        v if keep else 0 for v, keep in zip(xs, mask.tolist())
    ]
    assert back(ops.bit_or(x, y)) == [a | b for a, b in zip(xs, ys)]
    same = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
    zs = [a if eq else b for a, b, eq in zip(xs, ys, same)]
    z = ops.from_list(zs)
    assert ops.gt(x, z).tolist() == [a > b for a, b in zip(xs, zs)]
    assert ops._ge(x, z).tolist() == [a >= b for a, b in zip(xs, zs)]
    nonzero = ints(headroom - 1, low=1)
    assert ops.trailing_zeros(ops.from_list(nonzero)).tolist() == [
        (v & -v).bit_length() - 1 for v in nonzero
    ]

    # Segment sums of up to 10 cells below 2**(headroom - 4).
    cells = ints(headroom - 4)
    starts = sorted({0} | set(data.draw(st.lists(st.integers(0, size - 1)))))
    bounds = starts + [size]
    assert back(ops.reduceat(ops.from_list(cells), int64s(starts))) == [
        sum(cells[a:b]) for a, b in zip(bounds, bounds[1:])
    ]

    # Multipliers per element and scalar: any width up to the lane's
    # budget, widths around the 31-bit split point, and the full budget
    # (62 bits takes the three-limb split path); each budget also runs
    # with every factor in its top half.
    widths = st.integers(1, factor_bits) | st.sampled_from([30, 31, 32, 33])
    for budget in (min(data.draw(widths, label="factor bits"), factor_bits), factor_bits):
        small = ints(headroom - budget)
        top_half = [(1 << budget) - 1 - f for f in ints(max(budget - 1, 1))]
        for factors in (ints(budget), top_half):
            product = ops.mul_int(ops.from_list(small), int64s(factors))
            assert back(product) == [v * c for v, c in zip(small, factors)]
            product = ops.mul_int(ops.from_list(small), np.int64(factors[0]))
            assert back(product) == [v * factors[0] for v in small]

    # Tightness around the boundary: threshold = running * beta_den +
    # {-1, 0, +1}; beta_den >= 1 like a beta denominator.
    dens = ints(factor_bits, low=1)
    running = ints(headroom - factor_bits - 1)
    offsets = data.draw(
        st.lists(st.sampled_from([-1, 0, 1]), min_size=size, max_size=size)
    )
    thresholds = [
        max(0, r * d + o) for r, d, o in zip(running, dens, offsets)
    ]
    assert ops.is_tight(
        ops.from_list(running), int64s(dens), ops.from_list(thresholds)
    ).tolist() == [r * d >= t for r, d, t in zip(running, dens, thresholds)]

    # Shifts: shl, its exact inverse, the in-place slice and halving forms.
    shift_bits = data.draw(st.integers(1, headroom - 1), label="shift")
    counts = data.draw(
        st.lists(st.integers(0, shift_bits), min_size=size, max_size=size)
    )
    bases = ints(headroom - shift_bits)
    shifted = [v << c for v, c in zip(bases, counts)]
    assert back(ops.shl(ops.from_list(bases), int64s(counts))) == shifted
    assert back(ops.shr_exact(ops.from_list(shifted), int64s(counts))) == bases
    halved = ops.from_list(shifted)
    ops.halve_at(halved, idx, int64s([counts[i] for i in picks]))
    assert back(halved) == [
        bases[i] if i in picks else v for i, v in enumerate(shifted)
    ]
    moved = ops.from_list(bases)
    ops.ishl_slice(moved, window, shift_bits)
    assert back(moved) == [
        v << shift_bits if window.start <= i < window.stop else v
        for i, v in enumerate(bases)
    ]

    # Raise test: ``sums << (level+1) <= weight << extra_shift`` with
    # ties and near-ties, with and without the compact schedule's shift.
    levels = data.draw(
        st.lists(st.integers(0, 29), min_size=size, max_size=size)
    )
    extras = [data.draw(st.integers(0, level + 1)) for level in levels]
    sums = ints(headroom - 32)
    weights = [
        max(0, (s << (level + 1 - e)) + o)
        for s, level, e, o in zip(sums, levels, extras, offsets)
    ]
    raise_args = (ops.from_list(sums), ops.from_list(weights), int64s(levels))
    assert ops.wants_raise(*raise_args).tolist() == [
        s << (level + 1) <= w for s, w, level in zip(sums, weights, levels)
    ]
    assert ops.wants_raise(*raise_args, int64s(extras)).tolist() == [
        s << (level + 1) <= w << e
        for s, w, level, e in zip(sums, weights, levels, extras)
    ]


@needs_numpy
def test_arena_incidence_matches_single_instance_transpose():
    hypergraph = mixed_rank_hypergraph(
        9, 14, 3, seed=2, weights=uniform_weights(9, 5, seed=3)
    )
    arena = pack_arena([hypergraph])
    incidence = arena_incidence(arena)
    reference = vertex_incidence_csr(
        hypergraph.num_vertices, hypergraph.edges
    )
    assert incidence == reference


@needs_numpy
def test_lane_run_transpose_matches_arena_incidence(monkeypatch):
    """LaneRun's vectorized argsort transpose equals the pure-Python
    specification in :func:`repro.hypergraph.csr.arena_incidence`."""
    from repro.core.kernels import Int64Ops, LaneRun

    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    hypergraphs = [
        mixed_rank_hypergraph(
            7 + seed, 10 + seed, 3, seed=seed,
            weights=uniform_weights(7 + seed, 6, seed=seed + 4),
        )
        for seed in range(3)
    ]
    states = [
        prepare_scaled_state(hypergraph, config)
        for hypergraph in hypergraphs
    ]
    run = LaneRun(
        hypergraphs, states, config, ops=Int64Ops,
        limits=[10**9] * len(hypergraphs),
    )
    incidence = arena_incidence(run.arena)
    assert tuple(run.v_cells.tolist()) == incidence.cells
    assert tuple(run.v_starts.tolist()) == incidence.starts
    assert tuple(run.v_lengths.tolist()) == incidence.lengths

    # Arenas too large for composite keys sort stably: the same arrays.
    monkeypatch.setattr(kernels_module, "_TRANSPOSE_KEY_LIMIT", 0)
    stable = LaneRun(
        hypergraphs, states, config, ops=Int64Ops,
        limits=[10**9] * len(hypergraphs),
    )
    for composite, fallback in zip(run.transpose, stable.transpose):
        assert composite.tolist() == fallback.tolist()
    assert tuple(stable.v_cells.tolist()) == incidence.cells


@needs_numpy
def test_lane_eligibility_reasons():
    hypergraph = mixed_rank_hypergraph(
        10, 15, 3, seed=1, weights=uniform_weights(10, 10, seed=2)
    )
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    state = prepare_scaled_state(hypergraph, config)
    assert lane_eligibility(
        hypergraph, config, state, lane="int64"
    ) == (True, "ok")
    assert lane_eligibility(
        hypergraph, config, state, lane="two-limb"
    ) == (True, "ok")
    huge = hypergraph.reweighted([10**16 + v for v in range(10)])
    huge_state = prepare_scaled_state(huge, config)
    eligible, reason = lane_eligibility(
        huge, config, huge_state, lane="int64"
    )
    assert not eligible and "headroom" in reason
    assert lane_eligibility(
        huge, config, huge_state, lane="two-limb"
    ) == (True, "ok")
    # A beta denominator beyond 31 bits exceeds the limb-product budget.
    wide_beta = AlgorithmConfig(epsilon=Fraction(1, 2**33 + 1))
    wide_state = prepare_scaled_state(hypergraph, wide_beta)
    eligible, reason = lane_eligibility(
        hypergraph, wide_beta, wide_state, lane="two-limb"
    )
    assert not eligible and "31-bit" in reason


@needs_numpy
def test_eligibility_prefilter_agrees_with_exact_bound(monkeypatch):
    """The float64 prefilter must reproduce the exact big-int verdict
    for every headroom budget — including the boundary band where it
    falls through to exact arithmetic — on int and Fraction weights."""
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    for hypergraph in (
        mixed_rank_hypergraph(
            10, 15, 3, seed=1, weights=uniform_weights(10, 10, seed=2)
        ),
        mixed_rank_hypergraph(
            10, 15, 3, seed=1, weights=[10**15 + v for v in range(10)]
        ),
        fractional_instance(n=10, m=15),
    ):
        state = prepare_scaled_state(hypergraph, config)
        rank = hypergraph.rank
        factor = kernels_module.headroom_factor(config, rank, state)
        z = config.z(rank)
        for bits in range(4, 100):
            exact = state.scale <= kernels_module.scale_limit(
                max(hypergraph.weights), factor, z, bits
            )
            monkeypatch.setattr(
                kernels_module.LANE_TABLE["int64"], "headroom_bits", bits
            )
            eligible, _ = lane_eligibility(
                hypergraph, config, state, lane="int64"
            )
            assert eligible == exact, (hypergraph, bits)


def test_run_fastpath_state_survives_lane_spills(monkeypatch):
    """A consumed-state contract: lane attempts must not corrupt the
    iteration-0 state the big-int floor finally consumes."""
    hypergraph = mixed_rank_hypergraph(
        15, 25, 4, seed=8, weights=uniform_weights(15, 30, seed=9)
    )
    config = AlgorithmConfig(epsilon=Fraction(1, 4))
    reference = run_fastpath(hypergraph, config)
    if HAS_NUMPY:
        # The machine lanes copy the state's int64 arrays, never write
        # them: the same state still equals a fresh iteration 0.
        state = prepare_scaled_state(hypergraph, config)
        assert not isinstance(state.bid, list)
        for lane in kernels_module.MACHINE_LANES:
            laned = run_fastpath(hypergraph, config, state=state, lane=lane)
            assert laned.lane == lane
            assert laned.dual == reference.dual
        fresh = prepare_scaled_state(hypergraph, config)
        assert state.scale == fresh.scale
        for field in ("bid", "total_delta", "degrees"):
            assert getattr(state, field).tolist() == getattr(fresh, field).tolist()
    for row in kernels_module.LANE_TABLE.values():
        monkeypatch.setattr(row, "headroom_bits", 4)
    state = prepare_scaled_state(hypergraph, config)
    floored = run_fastpath(hypergraph, config, state=state)
    assert floored.lane == "bigint"
    assert floored.dual == reference.dual
    assert floored.stats == reference.stats
