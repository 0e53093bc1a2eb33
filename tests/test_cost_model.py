"""The lane-aware cost model and its observed-rate feedback loop.

PR 5's E12 gate exposed a real scheduling bug: ``estimated_cost`` was
pure ``nnz * expected-iterations`` and ignored lane eligibility, so a
big-int-bound straggler (rational weights with ~36k-bit numerators)
was priced identically to an int64 instance of the same structure —
a ~60x misestimate that let static LPT park half a batch behind it.
These tests pin the two-part fix:

* the **static bugfix** — :func:`~repro.core.parallel.estimated_cost`
  now multiplies the structural product by a lane-eligibility factor
  (via the :func:`~repro.core.parallel.predicted_lane` probe), with
  big-int instances additionally scaled by their weights' bit width.
  The regression test measures a scaled-down E12 straggler and pins
  the estimate ratio within ~4x of the observed ratio (the old model
  returned exactly 1.0);
* the **feedback loop** — workers return per-instance observed solve
  times, folded into :data:`~repro.core.parallel.COST_MODEL` (an EMA
  of seconds-per-cost-unit keyed by lane + structure signature) that
  :func:`~repro.core.parallel.corrected_cost` consults, for both the
  static sharded executor and the streaming session.
"""

from __future__ import annotations

import time
from fractions import Fraction

import pytest

from repro.core.batch import run_fastpath_batch
from repro.core.fastpath import HAS_NUMPY
from repro.core.params import AlgorithmConfig
from repro.core.parallel import (
    COST_MODEL,
    CostModel,
    corrected_cost,
    estimated_cost,
    observed_work,
    partition_shards,
    predicted_lane,
    run_fastpath_batch_parallel,
    shutdown_pool,
)
from repro.core.stream import BatchSession
from repro.hypergraph.generators import (
    mixed_rank_hypergraph,
    regular_hypergraph,
    uniform_weights,
)

needs_numpy = pytest.mark.skipif(
    not HAS_NUMPY, reason="lane prediction needs the machine lanes"
)

#: Denominator primes matching the E12 straggler construction: their
#: lcm (~140 bits) exceeds every machine-lane headroom, pinning the
#: instance to the big-int lane regardless of the numerator width.
PRIMES = (
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197,
)


@pytest.fixture(autouse=True)
def _fresh_model():
    """Every test starts (and leaves) the shared model empty."""
    COST_MODEL.reset()
    yield
    COST_MODEL.reset()


@pytest.fixture(autouse=True, scope="module")
def _teardown_pool():
    yield
    shutdown_pool()


def skewed_pair(n=200, bits=4000, rank=3, degree=9):
    """A scaled-down E12 pair: big-int straggler + int64 normal twin."""
    straggler_weights = [
        Fraction((1 << bits) + 3 ** (i % 16) * (7 * i + 1), PRIMES[i % 20])
        for i in range(n)
    ]
    straggler = regular_hypergraph(
        n, rank, degree, seed=63, weights=straggler_weights
    )
    normal = regular_hypergraph(n, rank, degree, seed=1, weights=[1] * n)
    return straggler, normal


# ----------------------------------------------------------------------
# The static bugfix: lane-aware estimates
# ----------------------------------------------------------------------


@needs_numpy
def test_predicted_lane_matches_ladder_outcomes():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    small = mixed_rank_hypergraph(
        10, 15, 3, seed=1, weights=uniform_weights(10, 10, seed=2)
    )
    assert predicted_lane(small, config) == "int64"
    assert predicted_lane(
        small.reweighted([10**16 + v for v in range(10)]), config
    ) == "two-limb"
    assert predicted_lane(
        small.reweighted([10**26 + v for v in range(10)]), config
    ) == "three-limb"
    assert predicted_lane(
        small.reweighted([10**40 + v for v in range(10)]), config
    ) == "bigint"
    # Structural disqualifiers run the scalar loop: predict big-int.
    checked = AlgorithmConfig(epsilon=Fraction(1, 3), check_invariants=True)
    assert predicted_lane(small, checked) == "bigint"


def test_estimated_cost_scales_with_lane():
    """Same structure, widening weights: the estimate must widen too
    (the old model returned the identical number for all four)."""
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    base = mixed_rank_hypergraph(
        12, 18, 3, seed=4, weights=uniform_weights(12, 10, seed=5)
    )
    ladder = [
        base,
        base.reweighted([10**16 + v for v in range(12)]),
        base.reweighted([10**26 + v for v in range(12)]),
        base.reweighted([(1 << 4000) + v for v in range(12)]),
    ]
    costs = [estimated_cost(hypergraph, config) for hypergraph in ladder]
    if HAS_NUMPY:
        assert costs == sorted(costs) and costs[0] < costs[-1]
    # The big-int estimate grows with weight width, not just lane.
    wider = base.reweighted([(1 << 8000) + v for v in range(12)])
    assert estimated_cost(wider, config) > costs[-1]
    # Explicit lane override skips the probe.
    assert estimated_cost(base, config, lane="int64") < estimated_cost(
        base, config, lane="three-limb"
    )


def test_e12_straggler_estimate_matches_observed_ratio():
    """Acceptance regression for the E12 misestimate: the straggler's
    estimated-cost ratio over its structural twin lands within ~4x of
    the observed solve-time ratio, instead of the old model's exact
    1.0 (a ~15x error at this scale, ~60x at the full E12 size)."""
    config = AlgorithmConfig(epsilon=Fraction(1, 50))
    straggler, normal = skewed_pair()
    estimate_ratio = estimated_cost(straggler, config) / estimated_cost(
        normal, config
    )
    # The bugfix alone, no timing: the old model scored 1.0 here.
    assert estimate_ratio > 5

    run_fastpath_batch([normal], config, verify=False)  # warm-up
    straggler_times, normal_times = [], []
    for _ in range(3):
        start = time.perf_counter()
        run_fastpath_batch([straggler], config, verify=False)
        straggler_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        run_fastpath_batch([normal], config, verify=False)
        normal_times.append(time.perf_counter() - start)
    observed_ratio = min(straggler_times) / min(normal_times)
    assert estimate_ratio <= 4 * observed_ratio
    assert estimate_ratio >= observed_ratio / 4


def test_partition_isolates_bigint_straggler():
    """With honest estimates, static LPT gives the straggler its own
    shard instead of parking half the normals behind it."""
    config = AlgorithmConfig(epsilon=Fraction(1, 50))
    straggler, _ = skewed_pair(n=60, bits=4000)
    normals = [
        regular_hypergraph(60, 3, 9, seed=seed, weights=[1] * 60)
        for seed in range(7)
    ]
    shards = partition_shards([straggler] + normals, config, 2)
    straggler_shard = next(shard for shard in shards if 0 in shard)
    assert straggler_shard == [0]


# ----------------------------------------------------------------------
# The feedback loop
# ----------------------------------------------------------------------


def test_cost_model_learns_and_corrects():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    hypergraph = mixed_rank_hypergraph(
        10, 15, 3, seed=1, weights=uniform_weights(10, 10, seed=2)
    )
    model = CostModel()
    lane = predicted_lane(hypergraph, config)
    signature = CostModel.signature(hypergraph)
    static = estimated_cost(hypergraph, config)
    # Empty table: corrected == static (neutral rate 1.0).
    assert corrected_cost(hypergraph, config, model) == pytest.approx(
        static
    )
    # The first observation seeds the rate; later ones smooth (EMA).
    model.observe(lane, signature, static, 3.0 * static)
    assert model.rate(lane, signature) == pytest.approx(3.0)
    model.observe(lane, signature, static, 1.0 * static)
    assert model.rate(lane, signature) == pytest.approx(
        3.0 + 0.3 * (1.0 - 3.0)
    )
    assert corrected_cost(hypergraph, config, model) > static
    # Unseen keys fall back to the blended rate, keeping corrected
    # costs comparable across instances.
    assert model.rate("bigint", (9, 9)) == model.rate(lane, signature)
    model.reset()
    assert model.snapshot() == {}
    assert corrected_cost(hypergraph, config, model) == pytest.approx(
        static
    )


def test_observed_work_uses_actual_lane_and_iterations():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    hypergraph = mixed_rank_hypergraph(
        10, 15, 3, seed=1, weights=uniform_weights(10, 10, seed=2)
    )
    result = run_fastpath_batch([hypergraph], config, verify=False)[0]
    work = observed_work(hypergraph, config, result)
    nnz = sum(len(members) for members in hypergraph.edges)
    assert work >= nnz * max(1, result.iterations)


def test_parallel_run_feeds_cost_model():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = [
        mixed_rank_hypergraph(
            10 + 2 * (seed % 5), 14 + 3 * (seed % 4), 3, seed=seed,
            weights=uniform_weights(10 + 2 * (seed % 5), 30, seed=seed + 7),
        )
        for seed in range(6)
    ]
    assert COST_MODEL.snapshot() == {}
    run_fastpath_batch_parallel(batch, config, jobs=2)
    learned = COST_MODEL.snapshot()
    assert learned, "worker observations must populate the shared model"
    assert all(rate > 0 for rate in learned.values())


def test_faulted_solves_never_feed_cost_model(monkeypatch):
    """A solve that carried an injected fault is excluded from the EMA.

    A ``slow`` fault inflates the worker's observed wall-clock by an
    arbitrary factor; folding that into the seconds-per-cost-unit model
    would poison every subsequent deadline and shard estimate.  The
    worker tags faulted results and both executors drop their
    observations.
    """
    import repro.core.parallel as parallel_module
    from repro.core.faults import FaultPlan

    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = [
        mixed_rank_hypergraph(
            10 + 2 * (seed % 5), 14 + 3 * (seed % 4), 3, seed=seed,
            weights=uniform_weights(10 + 2 * (seed % 5), 30, seed=seed + 7),
        )
        for seed in range(6)
    ]
    assert COST_MODEL.snapshot() == {}
    # Every dispatch draws a slow fault: results stay correct (the
    # delay is pure sleep) but no observation may land.
    plan = FaultPlan(seed=0, slow=1.0, slow_factor=1.01)
    monkeypatch.setattr(parallel_module, "FAULT_PLAN", plan)
    faulted = run_fastpath_batch_parallel(batch, config, jobs=2)
    assert plan.total_fired() > 0
    assert COST_MODEL.snapshot() == {}, (
        "faulted observations leaked into the EMA"
    )
    # Same batch without the plan: observations flow again, and the
    # faulted run's results were correct all along.
    monkeypatch.setattr(parallel_module, "FAULT_PLAN", None)
    clean = run_fastpath_batch_parallel(batch, config, jobs=2)
    assert COST_MODEL.snapshot()
    for left, right in zip(faulted, clean):
        assert left.cover == right.cover
        assert left.weight == right.weight


def test_stream_faulted_solves_never_feed_cost_model():
    """The streaming session applies the same exclusion per shard."""
    from repro.core.faults import FaultPlan

    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = [
        mixed_rank_hypergraph(
            8 + seed, 12 + seed, 3, seed=seed,
            weights=uniform_weights(8 + seed, 9, seed=seed + 3),
        )
        for seed in range(4)
    ]
    assert COST_MODEL.snapshot() == {}
    plan = FaultPlan(seed=0, slow=1.0, slow_factor=1.01)
    with BatchSession(
        config, jobs=2, verify=False, fault_plan=plan
    ) as session:
        tickets = [session.submit(hypergraph) for hypergraph in batch]
        results = [ticket.result(timeout=120) for ticket in tickets]
    assert len(results) == len(batch)
    assert plan.total_fired() > 0
    assert COST_MODEL.snapshot() == {}, (
        "faulted stream observations leaked into the EMA"
    )


def test_stream_session_feeds_cost_model():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = [
        mixed_rank_hypergraph(
            8 + seed, 12 + seed, 3, seed=seed,
            weights=uniform_weights(8 + seed, 9, seed=seed + 3),
        )
        for seed in range(4)
    ]
    assert COST_MODEL.snapshot() == {}
    with BatchSession(config, jobs=2, verify=False) as session:
        tickets = [session.submit(hypergraph) for hypergraph in batch]
        results = [ticket.result() for ticket in tickets]
    assert len(results) == len(batch)
    # In-process fallbacks (e.g. a refused pool) produce no worker
    # observations; any pooled completion must have fed the model.
    if any(result.worker is not None for result in results):
        assert COST_MODEL.snapshot()
