"""``jobs=N`` must be invisible in the results — only in the clock.

The multiprocess sharded executor (:mod:`repro.core.parallel`) splits
a batch into cost-balanced shards, ships each shard's packed CSR arena
to a persistent worker pool inline in the pickled payload and merges
the per-instance results in submission order.
These tests pin the contract that parallelism is pure transport:

* ``jobs=N`` results — covers, duals, iterations, rounds, levels,
  statistics, lane tags and ordering — are bit-identical to ``jobs=1``
  (and hence to solo fastpath runs), across structured and hypothesis
  batches mixing int and Fraction weights;
* forced mid-run spills *inside workers* (shrunken headroom budgets
  ship with the payload, so workers agree with the parent) still come
  back bit-identical, exercising the spill-state carry across the
  process boundary;
* a worker crash breaks the pool, the affected shards are re-solved
  in-process, and the pool is rebuilt for the next call;
* the arena (de)serialization layer round-trips exactly;
* sharding is deterministic and cost-balanced, never order-changing;
* ``CoverResult.worker`` records shard provenance (and is excluded
  from equality, like ``lane``).
"""

from __future__ import annotations

import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.kernels as kernels_module
import repro.core.parallel as parallel_module
from repro.core.batch import run_fastpath_batch
from repro.core.fastpath import HAS_NUMPY, run_fastpath
from repro.core.faults import FaultPlan
from repro.core.params import AlgorithmConfig
from repro.core.parallel import (
    estimated_cost,
    partition_shards,
    run_fastpath_batch_parallel,
    shutdown_pool,
)
from repro.core.runner import run_many
from repro.core.solver import solve_mwhvc, solve_mwhvc_batch
from repro.hypergraph.csr import arena_hypergraphs, pack_arena
from repro.hypergraph.generators import (
    mixed_rank_hypergraph,
    uniform_weights,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.store import decode_arena, encode_arena

from conftest import spy_lane_runs

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


@pytest.fixture(autouse=True, scope="module")
def _teardown_pool():
    yield
    shutdown_pool()


def assert_parallel_matches_sequential(hypergraphs, config, *, jobs=2,
                                       verify=True):
    """``jobs=N`` equals ``jobs=1`` on every observable plus lane tag."""
    sequential = solve_mwhvc_batch(hypergraphs, config=config, verify=verify)
    parallel = solve_mwhvc_batch(
        hypergraphs, config=config, verify=verify, jobs=jobs
    )
    assert len(parallel) == len(sequential)
    for position, (left, right) in enumerate(zip(sequential, parallel)):
        for attribute in OBSERVABLES:
            assert getattr(right, attribute) == getattr(left, attribute), (
                f"jobs={jobs} drifted from jobs=1 at [{position}] "
                f"on {attribute}"
            )
        assert right.lane == left.lane, position
    return sequential, parallel


def random_batch(count, *, base_seed=0, max_weight=40):
    return [
        mixed_rank_hypergraph(
            10 + 2 * ((seed + base_seed) % 7),
            14 + 3 * ((seed + base_seed) % 5),
            4,
            seed=seed + base_seed,
            weights=uniform_weights(
                10 + 2 * ((seed + base_seed) % 7),
                max_weight,
                seed=seed + base_seed + 77,
            ),
        )
        for seed in range(count)
    ]


# ----------------------------------------------------------------------
# Cost model and sharding
# ----------------------------------------------------------------------


def test_partition_shards_is_deterministic_and_balanced():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(9)
    shards = partition_shards(batch, config, 3)
    assert shards == partition_shards(batch, config, 3)
    assert sorted(index for shard in shards for index in shard) == list(
        range(9)
    )
    assert all(shard == sorted(shard) for shard in shards)
    loads = [
        sum(estimated_cost(batch[index], config) for index in shard)
        for shard in shards
    ]
    # LPT keeps the heaviest shard within 2x of the lightest here.
    assert max(loads) <= 2 * min(loads)


def test_partition_shards_degenerate_counts():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(3)
    assert partition_shards(batch, config, 1) == [[0, 1, 2]]
    # More workers than instances: one singleton shard per instance.
    shards = partition_shards(batch, config, 8)
    assert sorted(index for shard in shards for index in shard) == [0, 1, 2]
    assert all(len(shard) == 1 for shard in shards)


def test_estimated_cost_scales_with_structure():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    small = mixed_rank_hypergraph(
        8, 10, 3, seed=1, weights=uniform_weights(8, 9, seed=2)
    )
    large = mixed_rank_hypergraph(
        40, 90, 4, seed=1, weights=uniform_weights(40, 9, seed=2)
    )
    assert estimated_cost(large, config) > estimated_cost(small, config)


# ----------------------------------------------------------------------
# Arena serialization (the shard wire format)
# ----------------------------------------------------------------------


def test_arena_serialization_roundtrip():
    batch = random_batch(4, base_seed=5)
    arena = pack_arena(batch)
    rebuilt = decode_arena(encode_arena(arena))
    assert rebuilt == arena
    assert arena_hypergraphs(rebuilt) == batch


def test_arena_serialization_fraction_weights_and_degenerates():
    batch = [
        Hypergraph(3, [(0, 1), (1, 2)], weights=[Fraction(3, 2), 2, 4]),
        Hypergraph(2, []),
        Hypergraph(1, [(0,)], weights=[10**20]),
    ]
    arena = pack_arena(batch)
    rebuilt = decode_arena(encode_arena(arena))
    assert arena_hypergraphs(rebuilt) == batch


# ----------------------------------------------------------------------
# Parallel equals sequential
# ----------------------------------------------------------------------


@pytest.mark.parametrize("schedule", ["spec", "compact"])
def test_parallel_matches_sequential_random_mixes(schedule):
    config = AlgorithmConfig(epsilon=Fraction(1, 3), schedule=schedule)
    assert_parallel_matches_sequential(random_batch(8), config)


def test_parallel_matches_solo_fastpath():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(6, base_seed=11)
    parallel = solve_mwhvc_batch(batch, config=config, jobs=3)
    for hypergraph, result in zip(batch, parallel):
        solo = solve_mwhvc(hypergraph, config=config, executor="fastpath")
        for attribute in OBSERVABLES:
            assert getattr(result, attribute) == getattr(solo, attribute)


def test_parallel_worker_provenance():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(6, base_seed=2)
    _, parallel = assert_parallel_matches_sequential(batch, config, jobs=2)
    workers = {result.worker for result in parallel}
    assert workers == {0, 1}
    payload = parallel[0].as_dict()
    assert payload["worker"] in (0, 1)
    # Provenance never participates in equality (like lane).
    sequential = solve_mwhvc_batch(batch, config=config)
    assert sequential[0].worker is None
    assert "worker" not in sequential[0].as_dict()


def test_parallel_preserves_submission_order():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(7, base_seed=21)
    straight = solve_mwhvc_batch(batch, config=config, jobs=2)
    reverse = solve_mwhvc_batch(
        list(reversed(batch)), config=config, jobs=2
    )
    for left, right in zip(straight, reversed(reverse)):
        assert left.cover == right.cover
        assert left.dual == right.dual


def test_parallel_degenerate_batches():
    config = AlgorithmConfig(epsilon=Fraction(1, 2))
    assert solve_mwhvc_batch([], config=config, jobs=4) == []
    single = random_batch(1)
    assert_parallel_matches_sequential(single, config, jobs=4)
    mixed = [
        Hypergraph(0, []),
        Hypergraph(4, []),
        Hypergraph(3, [(0, 1, 2)]),
        random_batch(1, base_seed=3)[0],
    ]
    assert_parallel_matches_sequential(mixed, config, jobs=2)


def test_parallel_jobs_zero_means_machine_sized():
    """``jobs=0`` resolves to the CPU count (>= 1) and stays exact."""
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    assert_parallel_matches_sequential(
        random_batch(4, base_seed=6), config, jobs=0
    )


def test_parallel_verify_modes():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(4, base_seed=9)
    verified = solve_mwhvc_batch(batch, config=config, jobs=2)
    assert all(result.certificate is not None for result in verified)
    unverified = solve_mwhvc_batch(
        batch, config=config, jobs=2, verify=False
    )
    assert all(result.certificate is None for result in unverified)


# ----------------------------------------------------------------------
# Failure handling
# ----------------------------------------------------------------------


def test_worker_crash_falls_back_to_sequential(monkeypatch):
    """A dying worker must cost wall-clock, never correctness."""
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(5, base_seed=8)
    expected = run_fastpath_batch(batch, config)
    plan = FaultPlan(seed=0, kill=1.0)
    monkeypatch.setattr(parallel_module, "FAULT_PLAN", plan)
    recovered = run_fastpath_batch_parallel(batch, config, jobs=2)
    assert plan.total_fired() > 0
    for left, right in zip(expected, recovered):
        for attribute in OBSERVABLES:
            assert getattr(right, attribute) == getattr(left, attribute)
        # Fallback runs in-process: no worker provenance.
        assert right.worker is None
    # The broken pool was torn down; the next call rebuilds it.
    monkeypatch.setattr(parallel_module, "FAULT_PLAN", None)
    _, healthy = assert_parallel_matches_sequential(batch, config)
    assert {result.worker for result in healthy} == {0, 1}


@pytest.mark.skipif(
    not HAS_NUMPY, reason="forced spills need the machine lanes"
)
def test_forced_spills_inside_workers(monkeypatch):
    """Shrunken headroom budgets ship with the payload, so workers
    spill (and carry) mid-run exactly like the parent would."""
    config = AlgorithmConfig(epsilon=Fraction(1, 7))
    batch = random_batch(4, base_seed=4, max_weight=1000) + [
        mixed_rank_hypergraph(
            20, 35, 4, seed=8, weights=uniform_weights(20, 1000, seed=9)
        )
    ]
    solos = [
        solve_mwhvc(hypergraph, config=config, executor="fastpath")
        for hypergraph in batch
    ]
    monkeypatch.setattr(kernels_module.LANE_TABLE["int64"], "headroom_bits", 41)
    # In process, this budget spills the last instance mid-run; its
    # ladder does not depend on the shard it shares.
    runs = spy_lane_runs(monkeypatch)
    run_fastpath_batch(batch, config)
    assert any(run.carries_out for run in runs)
    parallel = run_fastpath_batch_parallel(batch, config, jobs=2)
    lanes = {result.lane for result in parallel}
    assert lanes - {"int64"}, f"expected spilled lanes, got {lanes}"
    for position, (solo, result) in enumerate(zip(solos, parallel)):
        for attribute in OBSERVABLES:
            assert getattr(result, attribute) == getattr(
                solo, attribute
            ), (position, attribute)


@pytest.mark.skipif(
    not HAS_NUMPY, reason="the lane budgets need the machine lanes"
)
def test_worker_payload_carries_the_whole_lane_table(monkeypatch):
    """Every row's budget crosses the process boundary, not only int64's:
    with two-limb and three-limb shrunken in the parent, workers land
    each instance on the same lane as an in-process run."""
    config = AlgorithmConfig(epsilon=Fraction(1, 7))
    batch = [
        mixed_rank_hypergraph(
            12 + seed, 18 + 2 * seed, 3, seed=40 + seed,
            weights=[10**16 + 97 * v * (seed + 1) for v in range(12 + seed)],
        )
        for seed in range(6)
    ]
    monkeypatch.setattr(kernels_module.LANE_TABLE["two-limb"], "headroom_bits", 70)
    monkeypatch.setattr(kernels_module.LANE_TABLE["three-limb"], "headroom_bits", 80)
    expected = run_fastpath_batch(batch, config)
    assert {result.lane for result in expected} == {"three-limb", "bigint"}
    parallel = run_fastpath_batch_parallel(batch, config, jobs=2)
    for position, (solo, result) in enumerate(zip(expected, parallel)):
        assert result.worker is not None, position
        assert result.lane == solo.lane, position
        for attribute in OBSERVABLES:
            assert getattr(result, attribute) == getattr(
                solo, attribute
            ), (position, attribute)


@pytest.mark.skipif(
    not HAS_NUMPY, reason="the lane budgets need the machine lanes"
)
def test_four_limb_spill_inside_workers(monkeypatch):
    """With only four-limb admitting (41 bits, ``min_nnz`` 0), one
    instance finishes on four-limb and one spills mid-run to the big-int
    loop, in process and inside ``jobs=2`` workers alike: the payload
    ships each row's ``min_nnz`` with its budgets."""
    config = AlgorithmConfig(epsilon=Fraction(1, 7))
    batch = [
        mixed_rank_hypergraph(
            20, 35, 4, seed=8, weights=uniform_weights(20, 1000, seed=9)
        ),
        mixed_rank_hypergraph(
            10, 15, 3, seed=1, weights=uniform_weights(10, 10, seed=2)
        ),
    ]
    references = [
        solve_mwhvc(hypergraph, config=config, executor="lockstep")
        for hypergraph in batch
    ]
    # Start the workers on the default table, so only the payload can
    # hand them the budgets below.
    run_fastpath_batch_parallel(batch, config, jobs=2)
    for name, row in kernels_module.LANE_TABLE.items():
        monkeypatch.setattr(row, "headroom_bits", 41 if name == "four-limb" else 4)
    monkeypatch.setattr(kernels_module.LANE_TABLE["four-limb"], "min_nnz", 0)
    runs = spy_lane_runs(monkeypatch)
    expected = run_fastpath_batch(batch, config)
    assert [run.ops.name for run in runs] == ["four-limb"]
    assert list(runs[0].carries_out) == [0]
    assert [result.lane for result in expected] == ["bigint", "four-limb"]
    parallel = run_fastpath_batch_parallel(batch, config, jobs=2)
    for position, result in enumerate(parallel):
        assert result.worker is not None, position
        assert result.lane == expected[position].lane, position
        for attribute in OBSERVABLES:
            assert getattr(result, attribute) == getattr(
                references[position], attribute
            ), (position, attribute)


def test_weights_past_the_decimal_digit_cap_reach_workers():
    """A weight with more decimal digits than CPython's default int/str
    guard (4300) ships to a worker like any other: the container
    writes wide weights as hex, which the guard exempts, so neither
    the parent's encode nor the worker's decode trips it and no shard
    silently falls back in-process."""
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = [
        Hypergraph(3, [(0, 1), (1, 2)], weights=[2**20000, 3, 5]),
        Hypergraph(
            3, [(0, 1, 2), (0, 2)],
            weights=[7, Fraction(2**20000 + 1, 3), 2],
        ),
    ] + random_batch(2, base_seed=3)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        shutdown_pool()  # workers start under the default guard too
        solos = [
            solve_mwhvc(hypergraph, config=config, executor="fastpath")
            for hypergraph in batch
        ]
        parallel = solve_mwhvc_batch(batch, config=config, jobs=2)
    finally:
        sys.set_int_max_str_digits(previous)
    for position, (solo, result) in enumerate(zip(solos, parallel)):
        assert result.worker is not None, position
        for attribute in OBSERVABLES:
            assert getattr(result, attribute) == getattr(
                solo, attribute
            ), (position, attribute)


# ----------------------------------------------------------------------
# run_many routing (CLI/API sweeps get the arena + jobs for free)
# ----------------------------------------------------------------------


def test_run_many_routes_fastpath_through_batch():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(5, base_seed=14)
    routed = run_many(batch, config, run_fastpath)
    direct = solve_mwhvc_batch(batch, config=config)
    for left, right in zip(routed, direct):
        for attribute in OBSERVABLES:
            assert getattr(left, attribute) == getattr(right, attribute)
    # Routing engaged the arena lanes (a sequential loop would too,
    # but per-instance; the lane tag proves the batched path ran).
    if HAS_NUMPY:
        assert all(result.lane is not None for result in routed)


def test_run_many_parallel_jobs():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(4, base_seed=17)
    routed = run_many(batch, config, run_fastpath, jobs=2)
    direct = solve_mwhvc_batch(batch, config=config)
    for left, right in zip(routed, direct):
        for attribute in OBSERVABLES:
            assert getattr(left, attribute) == getattr(right, attribute)


def test_run_many_other_runners_stay_sequential():
    from repro.core.lockstep import run_lockstep

    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(2, base_seed=19)
    results = run_many(batch, config, run_lockstep)
    for hypergraph, result in zip(batch, results):
        solo = solve_mwhvc(hypergraph, config=config, executor="lockstep")
        assert result.cover == solo.cover
        assert result.lane is None


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_batch_jobs_flag(tmp_path, capsys):
    import json

    from repro.cli import main
    from repro.hypergraph import io

    for seed in range(4):
        hypergraph = mixed_rank_hypergraph(
            8, 12, 3, seed=seed,
            weights=uniform_weights(8, 9, seed=seed + 40),
        )
        io.save(hypergraph, tmp_path / f"instance{seed}.hg")
    assert main(["batch", str(tmp_path), "--json"]) == 0
    sequential = json.loads(capsys.readouterr().out)
    assert main(["batch", str(tmp_path), "--json", "--jobs", "2"]) == 0
    parallel = json.loads(capsys.readouterr().out)
    assert parallel["total_weight"] == sequential["total_weight"]
    for left, right in zip(
        sequential["instances"], parallel["instances"]
    ):
        assert left["cover"] == right["cover"]
        assert left["dual_total"] == right["dual_total"]
    assert {entry.get("worker") for entry in parallel["instances"]} == {
        0, 1,
    }


# ----------------------------------------------------------------------
# Property-based battery (derandomized): jobs=2 == jobs=1 on mixes of
# int- and Fraction-weighted instances, including spill-prone weights.
# ----------------------------------------------------------------------

DIFFERENTIAL_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def weighted_hypergraphs(draw, max_vertices=10, max_edges=12, max_rank=4):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
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


@DIFFERENTIAL_SETTINGS
@given(
    hypergraphs=st.lists(weighted_hypergraphs(), min_size=2, max_size=6),
    epsilon=st.sampled_from([Fraction(1), Fraction(1, 3), Fraction(1, 9)]),
    schedule=st.sampled_from(["spec", "compact"]),
    jobs=st.sampled_from([2, 3]),
)
def test_property_parallel_matches_sequential(
    hypergraphs, epsilon, schedule, jobs
):
    config = AlgorithmConfig(epsilon=epsilon, schedule=schedule)
    assert_parallel_matches_sequential(
        hypergraphs, config, jobs=jobs, verify=False
    )


@settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[
        HealthCheck.too_slow,
        # The monkeypatch sets the same constant every example and is
        # undone once after the last — safe to share across examples.
        HealthCheck.function_scoped_fixture,
    ],
)
@given(
    hypergraphs=st.lists(
        weighted_hypergraphs(max_vertices=8, max_edges=10),
        min_size=2,
        max_size=4,
    ),
    epsilon=st.sampled_from([Fraction(1, 3), Fraction(1, 7)]),
)
def test_property_parallel_spill_mixes(monkeypatch, hypergraphs, epsilon):
    """Workers inherit shrunken budgets: under a 44-bit int64 lane the
    drawn instances enter whichever lane admits them, and the results
    stay bit-identical.  Mid-run carries inside workers are pinned by
    ``test_forced_spills_inside_workers`` and
    ``test_four_limb_spill_inside_workers``."""
    monkeypatch.setattr(kernels_module.LANE_TABLE["int64"], "headroom_bits", 44)
    config = AlgorithmConfig(epsilon=epsilon)
    assert_parallel_matches_sequential(
        hypergraphs, config, jobs=2, verify=False
    )


# ----------------------------------------------------------------------
# One dispatcher: static jobs=N batches run through the session
# ----------------------------------------------------------------------


def test_concurrent_callers_survive_each_others_pool_resizes():
    """Callers with different ``jobs`` share the one pool; every call
    must still return the exact results.  The pool only grows, so once
    it holds the largest request no caller tears it down under another
    and every shard is solved by a worker, never in-process."""
    import sys
    import threading

    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(8, base_seed=31)
    expected = run_fastpath_batch(batch, config)
    outcomes = {jobs: [] for jobs in (2, 3, 4)}
    solve_mwhvc_batch(batch, config=config, jobs=4)  # size the pool

    def caller(jobs):
        for _ in range(15):
            try:
                outcomes[jobs].append(
                    solve_mwhvc_batch(batch, config=config, jobs=jobs)
                )
            except Exception as error:  # reported below
                outcomes[jobs].append(error)

    threads = [
        threading.Thread(target=caller, args=(jobs,), daemon=True)
        for jobs in outcomes
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    try:
        assert not any(thread.is_alive() for thread in threads)
        for jobs, calls in outcomes.items():
            assert len(calls) == 15, jobs
            for results in calls:
                assert not isinstance(results, BaseException), (
                    f"jobs={jobs} raised {results!r}"
                )
                assert len(results) == len(expected)
                for left, right in zip(expected, results):
                    for attribute in OBSERVABLES:
                        assert getattr(right, attribute) == getattr(
                            left, attribute
                        )
                    assert right.lane == left.lane
                    assert right.worker is not None
    finally:
        shutdown_pool()


def test_lpt_shard_lands_on_its_own_slot(monkeypatch):
    """All shards are admitted before any is dispatched, so a shard that
    finishes while the next one is still packing cannot pull that next
    shard onto its own slot."""
    import time

    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(4, base_seed=27)
    solve_mwhvc_batch(batch, config=config, jobs=2)  # warm the pool
    original = parallel_module.pack_arena

    def slow_pack(*args, **kwargs):
        arena = original(*args, **kwargs)
        time.sleep(0.2)
        return arena

    monkeypatch.setattr(parallel_module, "pack_arena", slow_pack)
    results = solve_mwhvc_batch(batch, config=config, jobs=2)
    assert {result.worker for result in results} == {0, 1}
