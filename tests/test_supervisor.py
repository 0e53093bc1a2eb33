"""Supervision, fault plans, the circuit breaker, and their fallout.

The chaos layer has three moving parts — a seeded
:class:`~repro.core.faults.FaultPlan` (the only way faults enter the
stack), a :class:`~repro.core.supervisor.WorkerSupervisor` (hang
detection via heartbeat files + cost-model-derived solve deadlines),
and a :class:`~repro.core.supervisor.CircuitBreaker` (pool dispatch
degrades to in-process solving after repeated failures).  These tests
pin each piece in isolation and then end to end through a live
:class:`~repro.core.stream.BatchSession`:

* a *hung* worker is SIGKILLed at its solve deadline and the shard is
  re-dispatched — results stay bit-identical;
* repeated pool failures trip the breaker (degraded in-process mode),
  and a half-open probe recovers it;
* a worker killed before it reads its shipment leaves no ``/dev/shm``
  segment behind (shards ship inline or by file reference, so the
  check guards against any transport that would add one);
* bounded resident incremental states evict LRU-first, and an evicted
  base still updates correctly (cold re-solve).
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

import pytest

from repro.core.faults import FaultPlan
from repro.core.params import AlgorithmConfig
from repro.core.parallel import shutdown_pool
from repro.core.solver import solve_mwhvc
from repro.core.stream import BatchSession
from repro.core.supervisor import (
    CircuitBreaker,
    SupervisorPolicy,
    WorkerSupervisor,
)
from repro.hypergraph.generators import (
    mixed_rank_hypergraph,
    uniform_weights,
)
from repro.hypergraph.mutable import GraphDelta, apply_delta

CONFIG = AlgorithmConfig(epsilon=Fraction(1, 3))


def small_batch(count, base_seed=0):
    return [
        mixed_rank_hypergraph(
            10 + seed % 5, 14 + seed % 3, 4, seed=seed + base_seed,
            weights=uniform_weights(10 + seed % 5, 30, seed=seed + 7),
        )
        for seed in range(count)
    ]


def assert_solo_bits(hypergraph, result):
    solo = solve_mwhvc(hypergraph, config=CONFIG, executor="fastpath")
    assert result.cover == solo.cover
    assert result.weight == solo.weight
    assert result.iterations == solo.iterations
    assert result.dual == solo.dual


@pytest.fixture(autouse=True, scope="module")
def _teardown_pool():
    yield
    shutdown_pool()


# ----------------------------------------------------------------------
# FaultPlan units
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(kill=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(hang=1.5)
        with pytest.raises(ValueError):
            FaultPlan(kill=0.6, hang=0.6)  # site sum > 1
        with pytest.raises(TypeError):
            FaultPlan(detach=0.1)
        with pytest.raises(ValueError):
            FaultPlan(hang_seconds=0)
        with pytest.raises(ValueError):
            FaultPlan(slow_factor=0.5)
        with pytest.raises(ValueError):
            FaultPlan(max_faults=-1)

    def test_from_spec_grammar(self):
        plan = FaultPlan.from_spec(
            "seed=3, kill=0.05, hang=0.02, hang_seconds=2, max_faults=7"
        )
        assert plan.seed == 3
        assert plan.rates["kill"] == 0.05
        assert plan.rates["hang"] == 0.02
        assert plan.hang_seconds == 2.0
        assert plan.max_faults == 7
        for bad in ("kill", "kill=0.05,boom=1", "kill=lots", "detach=0.1"):
            with pytest.raises(ValueError):
                FaultPlan.from_spec(bad)

    def test_same_seed_same_decisions(self):
        decisions = []
        for _ in range(2):
            plan = FaultPlan(seed=42, kill=0.3, hang=0.2, slow=0.1)
            decisions.append(
                [plan.worker_fault() for _ in range(64)]
            )
        assert decisions[0] == decisions[1]
        assert any(d is not None for d in decisions[0])
        assert any(d is None for d in decisions[0])

    def test_forced_faults_fire_exactly_once(self):
        plan = FaultPlan(seed=0)
        plan.force_worker("kill")
        plan.force_worker("hang", 0.5)
        plan.force_ship("corrupt")
        plan.force_server("drop")
        assert plan.worker_fault() == ("kill",)
        assert plan.worker_fault() == ("hang", 0.5)
        assert plan.worker_fault() is None  # queue drained, rates zero
        assert plan.ship_fault() == "corrupt"
        assert plan.ship_fault() is None
        assert plan.server_fault() == "drop"
        assert plan.server_fault() is None
        assert plan.total_fired() == 4
        assert plan.fired["kill"] == 1

    def test_budget_caps_probabilistic_faults(self):
        plan = FaultPlan(seed=1, kill=1.0, max_faults=3)
        fired = sum(
            1 for _ in range(20) if plan.worker_fault() is not None
        )
        assert fired == 3
        assert plan.total_fired() == 3

    def test_snapshot_reports_nonzero_rates_and_counts(self):
        plan = FaultPlan(seed=9, slow=0.5, max_faults=2)
        plan.force_worker("kill")
        assert plan.worker_fault() == ("kill",)
        snap = plan.snapshot()
        assert snap["seed"] == 9
        assert snap["rates"] == {"slow": 0.5}
        assert snap["fired"] == {"kill": 1}
        assert snap["max_faults"] == 2

    def test_bad_forced_kinds_rejected(self):
        plan = FaultPlan()
        with pytest.raises(ValueError):
            plan.force_worker("explode")
        with pytest.raises(ValueError):
            plan.force_ship("kill")
        with pytest.raises(ValueError):
            plan.force_server("hang")


# ----------------------------------------------------------------------
# Policy and breaker units
# ----------------------------------------------------------------------


class TestPolicyAndBreaker:
    def test_policy_validation(self):
        for kwargs in (
            {"floor": 0}, {"tick": 0}, {"retry_budget": -1},
            {"backoff_base": 0}, {"backoff_base": 2.0, "backoff_cap": 1.0},
            {"breaker_threshold": 0}, {"breaker_window": 0},
        ):
            with pytest.raises(ValueError):
                SupervisorPolicy(**kwargs)

    def test_backoff_doubles_and_caps(self):
        policy = SupervisorPolicy(backoff_base=0.1, backoff_cap=0.5)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.4)
        assert policy.backoff(4) == pytest.approx(0.5)  # capped
        assert policy.backoff(10) == pytest.approx(0.5)

    def test_breaker_trips_after_threshold_inside_window(self):
        breaker = CircuitBreaker(
            SupervisorPolicy(breaker_threshold=3, breaker_cooldown=60.0)
        )
        assert breaker.state == "closed"
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_breaker_half_open_probe_recovers(self):
        breaker = CircuitBreaker(
            SupervisorPolicy(breaker_threshold=1, breaker_cooldown=0.05)
        )
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        time.sleep(0.06)
        assert breaker.allow()  # the probe
        assert breaker.state == "half-open"
        assert not breaker.allow()  # only one probe at a time
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.recoveries == 1
        assert breaker.allow()

    def test_breaker_failed_probe_reopens(self):
        breaker = CircuitBreaker(
            SupervisorPolicy(breaker_threshold=1, breaker_cooldown=0.05)
        )
        breaker.record_failure()
        time.sleep(0.06)
        assert breaker.allow()
        breaker.record_failure()  # probe fails
        assert breaker.state == "open"
        assert breaker.trips == 2
        assert not breaker.allow()  # cooldown restarted

    def test_success_resets_failure_window(self):
        breaker = CircuitBreaker(SupervisorPolicy(breaker_threshold=2))
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_supervisor_deadline_floor_then_scaled(self):
        supervisor = WorkerSupervisor(
            SupervisorPolicy(floor=2.0, multiplier=4.0)
        )
        try:
            # No prediction (cost model unlearned): the flat floor.
            assert supervisor.deadline_seconds(0.0) == 2.0
            assert supervisor.deadline_seconds(-1.0) == 2.0
            assert supervisor.deadline_seconds(0.5) == pytest.approx(4.0)
        finally:
            supervisor.close()


# ----------------------------------------------------------------------
# End to end through the session
# ----------------------------------------------------------------------


def test_hung_worker_is_killed_and_shard_retried():
    """A worker stalled far past its solve deadline is SIGKILLed by the
    supervisor; the broken pool surfaces, the shard retries, and the
    caller sees solo bits with a positive retry count."""
    batch = small_batch(4)
    plan = FaultPlan(seed=0)
    plan.force_worker("hang", 30.0)  # would pin the ticket for 30s
    policy = SupervisorPolicy(
        floor=0.6, tick=0.05, backoff_base=0.02, backoff_cap=0.1,
    )
    session = BatchSession(
        CONFIG, jobs=2, max_batch=2, fault_plan=plan, policy=policy
    )
    try:
        tickets = [session.submit(h) for h in batch]
        results = [t.result(timeout=60) for t in tickets]
        for hypergraph, result in zip(batch, results):
            assert_solo_bits(hypergraph, result)
        snapshot = session.snapshot()
        assert snapshot["supervisor"]["hung"] >= 1
        assert snapshot["supervisor"]["kills"] >= 1
        assert session.stats["retries"] + session.stats["exhausted"] >= 1
        assert any(t.retries > 0 for t in tickets) or (
            session.stats["exhausted"] >= 1
        )
        assert any(event[0] == "inject" for event in session.schedule)
    finally:
        session.close()
        shutdown_pool()


def test_breaker_degrades_then_recovers_through_session():
    """Enough forced kills trip the session's breaker: dispatch turns
    in-process (degraded, still bit-identical); after the cooldown a
    probe dispatch closes it again."""
    batch = small_batch(8, base_seed=20)
    plan = FaultPlan(seed=0)
    policy = SupervisorPolicy(
        retry_budget=0,
        breaker_threshold=2,
        breaker_window=60.0,
        breaker_cooldown=0.3,
        backoff_base=0.02,
        backoff_cap=0.1,
    )
    session = BatchSession(
        CONFIG, jobs=2, max_batch=1, fault_plan=plan, policy=policy
    )
    try:
        results = {}
        # Two killed dispatches trip the breaker (threshold=2)...
        for index in (0, 1):
            plan.force_worker("kill")
            results[index] = session.submit(batch[index]).result(timeout=60)
        assert session.snapshot()["breaker"]["state"] == "open"
        assert session.snapshot()["breaker"]["trips"] == 1
        # ...so the next submissions degrade to in-process solving.
        for index in (2, 3):
            results[index] = session.submit(batch[index]).result(timeout=60)
        assert session.stats["degraded"] >= 1
        assert any(
            event[0] == "degraded" for event in session.schedule
        )
        # After the cooldown a probe dispatch closes the breaker.
        time.sleep(0.35)
        deadline = time.monotonic() + 30
        index = 4
        while (
            session.snapshot()["breaker"]["recoveries"] == 0
            and time.monotonic() < deadline
            and index < len(batch)
        ):
            results[index] = session.submit(batch[index]).result(timeout=60)
            index += 1
        snapshot = session.snapshot()["breaker"]
        assert snapshot["recoveries"] >= 1, snapshot
        assert snapshot["state"] == "closed"
        for position, result in results.items():
            assert_solo_bits(batch[position], result)
    finally:
        session.close()
        shutdown_pool()


def test_no_shm_leak_when_worker_dies_before_attach():
    """A worker SIGKILLed before it reads its shipment leaves no
    ``/dev/shm`` segment behind and costs no result: the shard is
    retried and every ticket still gets solo bits."""
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm on this platform")
    batch = small_batch(4, base_seed=40)
    before = set(os.listdir("/dev/shm"))
    plan = FaultPlan(seed=0)
    # The kill directive fires at worker entry, before the worker
    # reads its shipment.
    plan.force_worker("kill")
    plan.force_worker("kill")
    policy = SupervisorPolicy(backoff_base=0.02, backoff_cap=0.1)
    session = BatchSession(
        CONFIG, jobs=2, max_batch=2, fault_plan=plan, policy=policy
    )
    try:
        tickets = [session.submit(h) for h in batch]
        for hypergraph, ticket in zip(batch, tickets):
            assert_solo_bits(hypergraph, ticket.result(timeout=60))
        assert plan.fired.get("kill", 0) >= 1
    finally:
        session.close()
        shutdown_pool()
    leaked = set(os.listdir("/dev/shm")) - before
    assert not leaked, f"leaked shared-memory segments: {leaked}"


def test_max_resident_evicts_lru_and_evicted_base_still_updates():
    """Resident incremental states are LRU-bounded: chaining updates
    past ``max_resident`` evicts the oldest, the eviction is counted
    and logged, and an update against an evicted base still answers
    (cold re-solve, same bits as from scratch)."""
    base = mixed_rank_hypergraph(
        12, 16, 3, seed=3, weights=uniform_weights(12, 30, seed=5)
    )
    session = BatchSession(CONFIG, jobs=1, max_batch=1, max_resident=1)
    try:
        root = session.submit(base)
        root.result(timeout=60)
        # Each update inserts one resident state; max_resident=1 keeps
        # only the newest, evicting its predecessor.
        first = session.submit_update(
            root, GraphDelta(removed_edges=(0,))
        )
        first.result(timeout=60)
        second = session.submit_update(
            first, GraphDelta(removed_edges=(0,))
        )
        second.result(timeout=60)
        assert session.stats["evicted"] >= 1
        assert any(event[0] == "evict" for event in session.schedule)
        assert session.snapshot()["resident_states"] <= 1
        # `first` was evicted — updating against it must re-solve cold
        # from its recorded snapshot, not fail or drift.
        third = session.submit_update(
            first, GraphDelta(removed_edges=(1,))
        )
        result = third.result(timeout=60)
        expected_graph = apply_delta(
            first.hypergraph, GraphDelta(removed_edges=(1,))
        )
        expected = solve_mwhvc(
            expected_graph, config=CONFIG, executor="fastpath"
        )
        assert result.cover == expected.cover
        assert result.weight == expected.weight
        assert result.warm is False
    finally:
        session.close()
        shutdown_pool()


def test_max_resident_validation():
    with pytest.raises(ValueError):
        BatchSession(CONFIG, jobs=1, max_resident=0)


def test_hung_worker_under_static_jobs_is_cut_at_the_deadline(monkeypatch):
    """``jobs=N`` batches run through the supervised session too: a
    worker hung for a minute is killed at the solve deadline and its
    shard retried, so the call returns solo bits in seconds — and no
    ``/dev/shm`` segment is left behind."""
    import functools

    import repro.core.parallel as parallel_module
    import repro.core.stream as stream_module
    from repro.core.batch import run_fastpath_batch
    from repro.core.solver import solve_mwhvc_batch

    batch = small_batch(4, base_seed=60)
    expected = run_fastpath_batch(batch, CONFIG)
    plan = FaultPlan(seed=0)
    plan.force_worker("hang", 60.0)
    monkeypatch.setattr(parallel_module, "FAULT_PLAN", plan)
    monkeypatch.setattr(
        stream_module,
        "SupervisorPolicy",
        functools.partial(SupervisorPolicy, floor=1.0, tick=0.05),
    )
    shm = "/dev/shm"
    before = set(os.listdir(shm)) if os.path.isdir(shm) else set()
    try:
        start = time.monotonic()
        results = solve_mwhvc_batch(batch, config=CONFIG, jobs=2)
        elapsed = time.monotonic() - start
    finally:
        shutdown_pool()
    assert elapsed < 15.0, f"a hung worker held jobs=2 for {elapsed:.1f}s"
    assert plan.total_fired() == 1
    if os.path.isdir(shm):
        leaked = set(os.listdir(shm)) - before
        assert not leaked, f"leaked shared-memory segments: {leaked}"
    assert len(results) == len(expected)
    for left, right in zip(expected, results):
        for attribute in (
            "cover", "weight", "iterations", "rounds", "dual",
            "dual_total", "levels", "stats", "lane",
        ):
            assert getattr(right, attribute) == getattr(left, attribute)


def test_healthy_cold_static_shard_outlives_the_floor(monkeypatch):
    """A ``jobs=N`` shard is as large as the batch makes it, and a cold
    cost model gives it only the flat floor; the deadline must run from
    the worker's latest progress beat, so a healthy shard solving well
    past the floor is never killed (and never falls back in-process)."""
    import functools

    import repro.core.parallel as parallel_module
    import repro.core.stream as stream_module
    import repro.core.supervisor as supervisor_module
    from repro.core.kernels import HAS_NUMPY
    from repro.core.solver import solve_mwhvc_batch
    from repro.hypergraph.generators import uniform_hypergraph

    # About 1.3 s per shard either way on a 2-core box: the pure-Python
    # solve is slower per instance.
    batch = [
        uniform_hypergraph(
            600, 3000, 3, seed=seed,
            weights=uniform_weights(600, 10**4, seed=seed + 500),
        )
        for seed in range(96 if HAS_NUMPY else 32)
    ]
    monkeypatch.setattr(parallel_module, "COST_MODEL", parallel_module.CostModel())
    monkeypatch.setattr(
        stream_module,
        "SupervisorPolicy",
        functools.partial(SupervisorPolicy, floor=0.8, tick=0.05),
    )
    hung = []
    kill = supervisor_module.WorkerSupervisor._kill
    monkeypatch.setattr(
        supervisor_module.WorkerSupervisor,
        "_kill",
        lambda self, watch: (hung.append(watch.shard_id), kill(self, watch)),
    )
    try:
        results = solve_mwhvc_batch(batch, config=CONFIG, jobs=2)
    finally:
        shutdown_pool()
    assert hung == []
    assert {result.worker for result in results} == {0, 1}


def test_static_jobs_solver_error_raises_without_in_process_resolve(monkeypatch):
    """A solver error inside a ``jobs=N`` shard raises from the call as
    it would from ``jobs=1``; the session neither re-solves the failing
    shard instance by instance nor waits for the other shard."""
    import repro.core.stream as stream_module
    from repro.core.batch import run_fastpath_batch
    from repro.core.solver import solve_mwhvc_batch
    from repro.exceptions import RoundLimitExceededError

    batch = small_batch(8, base_seed=80)
    config = AlgorithmConfig(epsilon=Fraction(1, 3), max_iterations=1)
    with pytest.raises(RoundLimitExceededError):
        run_fastpath_batch(batch, config)
    in_process = []
    monkeypatch.setattr(
        stream_module,
        "run_fastpath_batch",
        lambda *args, **kwargs: in_process.append(args) or run_fastpath_batch(
            *args, **kwargs
        ),
    )
    try:
        with pytest.raises(RoundLimitExceededError):
            solve_mwhvc_batch(batch, config=config, jobs=2)
    finally:
        shutdown_pool()
    assert in_process == []
