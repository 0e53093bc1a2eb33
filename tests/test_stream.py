"""Scheduling must be invisible in streamed results.

The streaming session (:mod:`repro.core.stream`) turns the static
batch executor into a continuously-fed service: admission order,
micro-batch grouping, queue assignment, work stealing, worker crashes
and in-process fallbacks are all scheduling facts.  These tests pin
the contract that none of them is a *result* fact:

* every ticket resolves bit-identical to a solo fastpath run, across
  admission orders, micro-batch sizes, configs and ``jobs``;
* per-lane **arena slicing** (:func:`repro.hypergraph.csr.slice_arena`)
  equals a fresh re-pack cell for cell — the primitive both the steal
  splitter and the worker-side lane grouping stand on — and the
  arena-reusing batch path equals the re-packing one, spills included;
* scheduler edge cases: a steal racing the original completion
  (duplicate results dedup first-wins), a crash *during a stolen
  shard* (in-process fallback re-solve), empty-session close,
  submit-after-close, and deterministic replay of a logged admission
  schedule;
* the CLI front ends (``serve``, ``batch --stream``) route through the
  session and agree with the static paths.
"""

from __future__ import annotations

import io as _io
import json
import time
from fractions import Fraction

import pytest

import repro.core.kernels as kernels_module
from repro.core.batch import run_fastpath_batch
from repro.core.fastpath import HAS_NUMPY, run_fastpath
from repro.core.faults import FaultPlan
from repro.core.params import AlgorithmConfig
from repro.core.parallel import shutdown_pool
from repro.core.runner import run_many
from repro.core.solver import solve_mwhvc, solve_mwhvc_batch
from repro.core.stream import BatchSession, replay_schedule
from repro.core.supervisor import SupervisorPolicy
from repro.exceptions import (
    SessionClosedError,
    TicketCancelled,
    TicketTimeout,
)
from repro.hypergraph.csr import (
    arena_hypergraphs,
    pack_arena,
    slice_arena,
)
from repro.hypergraph.generators import (
    mixed_rank_hypergraph,
    regular_hypergraph,
    uniform_weights,
)
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


@pytest.fixture(autouse=True, scope="module")
def _teardown_pool():
    yield
    shutdown_pool()


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


def assert_matches_solo(hypergraph, result, config):
    solo = solve_mwhvc(hypergraph, config=config, executor="fastpath")
    for attribute in OBSERVABLES:
        assert getattr(result, attribute) == getattr(solo, attribute), (
            attribute
        )


# ----------------------------------------------------------------------
# Arena slicing: the steal/lane primitive
# ----------------------------------------------------------------------


def test_slice_arena_equals_repack():
    batch = random_batch(6, base_seed=3)
    arena = pack_arena(batch)
    for indices in ([0, 1, 2], [5, 2, 0], [3], list(range(6)), [4, 4]):
        sliced = slice_arena(arena, indices)
        repacked = pack_arena([batch[index] for index in indices])
        assert sliced == repacked, indices
        assert arena_hypergraphs(sliced) == [
            batch[index] for index in indices
        ]


def test_slice_arena_degenerates():
    batch = [
        Hypergraph(3, [(0, 1), (1, 2)], weights=[Fraction(3, 2), 2, 4]),
        Hypergraph(2, []),
        Hypergraph(1, [(0,)], weights=[10**20]),
    ]
    arena = pack_arena(batch)
    assert slice_arena(arena, []) == pack_arena([])
    assert slice_arena(arena, [1]) == pack_arena([batch[1]])
    assert slice_arena(arena, [2, 1, 0]) == pack_arena(batch[::-1])


@pytest.mark.skipif(not HAS_NUMPY, reason="arena lanes need numpy")
def test_batch_arena_reuse_matches_repack():
    """``run_fastpath_batch(arena=...)`` — the worker-side path — must
    equal the re-packing path bit for bit, mixed lanes included."""
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(5, base_seed=9, max_weight=10**15) + [
        Hypergraph(2, []),
        Hypergraph(3, [(0, 1, 2)], weights=[Fraction(1, 3), 2, 5]),
    ]
    arena = pack_arena(batch)
    reused = run_fastpath_batch(batch, config, arena=arena)
    repacked = run_fastpath_batch(batch, config)
    for position, (left, right) in enumerate(zip(reused, repacked)):
        for attribute in OBSERVABLES:
            assert getattr(left, attribute) == getattr(right, attribute), (
                position, attribute,
            )
        assert left.lane == right.lane


@pytest.mark.skipif(not HAS_NUMPY, reason="spills need the machine lanes")
def test_batch_arena_reuse_with_forced_spills(monkeypatch):
    """Shrunken headroom: arena reuse stays exact when instances spill
    mid-run down the lane ladder (slice groups shrink and carry)."""
    monkeypatch.setattr(kernels_module.LANE_TABLE["int64"], "headroom_bits", 44)
    config = AlgorithmConfig(epsilon=Fraction(1, 7))
    batch = random_batch(5, base_seed=4, max_weight=1000)
    arena = pack_arena(batch)
    reused = run_fastpath_batch(batch, config, arena=arena)
    for hypergraph, result in zip(batch, reused):
        assert_matches_solo(hypergraph, result, config)


# ----------------------------------------------------------------------
# Session basics
# ----------------------------------------------------------------------


def test_streamed_results_match_solo_any_order():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(9, base_seed=21)
    with BatchSession(config, jobs=2, max_batch=3) as session:
        tickets = [session.submit(hypergraph) for hypergraph in batch]
        results = [ticket.result(timeout=120) for ticket in tickets]
    for hypergraph, result in zip(batch, results):
        assert_matches_solo(hypergraph, result, config)
    # Reversed admission: same per-instance bits.
    with BatchSession(config, jobs=2, max_batch=3) as session:
        tickets = [
            session.submit(hypergraph) for hypergraph in reversed(batch)
        ]
        reversed_results = [ticket.result(timeout=120) for ticket in tickets]
    for left, right in zip(results, reversed(reversed_results)):
        for attribute in OBSERVABLES:
            assert getattr(left, attribute) == getattr(right, attribute)


def test_streamed_results_record_worker_provenance():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(8, base_seed=5)
    with BatchSession(config, jobs=2, max_batch=2) as session:
        tickets = [session.submit(hypergraph) for hypergraph in batch]
        results = [ticket.result(timeout=120) for ticket in tickets]
    assert {result.worker for result in results} <= {0, 1}
    assert all(result.worker is not None for result in results)


def test_micro_batch_grouping_is_invisible():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(7, base_seed=13)
    outcomes = []
    for max_batch in (1, 3, 7):
        with BatchSession(config, jobs=2, max_batch=max_batch) as session:
            tickets = [session.submit(hypergraph) for hypergraph in batch]
            outcomes.append([ticket.result(timeout=120) for ticket in tickets])
    for results in outcomes[1:]:
        for left, right in zip(outcomes[0], results):
            for attribute in OBSERVABLES:
                assert getattr(left, attribute) == getattr(right, attribute)


def test_mixed_configs_micro_batch_separately():
    sharp = AlgorithmConfig(epsilon=Fraction(1, 3))
    loose = AlgorithmConfig(epsilon=Fraction(1))
    batch = random_batch(6, base_seed=2)
    with BatchSession(sharp, jobs=2, max_batch=4) as session:
        tickets = [
            session.submit(
                hypergraph, config=loose if index % 2 else None
            )
            for index, hypergraph in enumerate(batch)
        ]
        results = [ticket.result(timeout=120) for ticket in tickets]
    for index, (hypergraph, result) in enumerate(zip(batch, results)):
        assert_matches_solo(
            hypergraph, result, loose if index % 2 else sharp
        )


@pytest.mark.skipif(not HAS_NUMPY, reason="spills need the machine lanes")
def test_streamed_spills_stay_exact(monkeypatch):
    """Shrunken budgets ship with every dispatched shard, so mid-run
    lane spills inside workers still resolve bit-identical."""
    monkeypatch.setattr(kernels_module.LANE_TABLE["int64"], "headroom_bits", 41)
    config = AlgorithmConfig(epsilon=Fraction(1, 7))
    batch = random_batch(4, base_seed=4, max_weight=1000) + [
        mixed_rank_hypergraph(
            20, 35, 4, seed=8, weights=uniform_weights(20, 1000, seed=9)
        )
    ]
    with BatchSession(config, jobs=2, max_batch=2) as session:
        tickets = [session.submit(hypergraph) for hypergraph in batch]
        results = [ticket.result(timeout=120) for ticket in tickets]
    lanes = {result.lane for result in results}
    assert lanes - {"int64"}, f"expected spilled lanes, got {lanes}"
    for hypergraph, result in zip(batch, results):
        assert_matches_solo(hypergraph, result, config)


# ----------------------------------------------------------------------
# Scheduler edge cases
# ----------------------------------------------------------------------


def test_idle_worker_seals_waiting_buffer():
    """A worker going idle must seal any waiting partial buffer — a
    submission buffered while all workers were busy may not stall
    until the next submit/flush (the serve loop only polls done())."""
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(2, base_seed=44)
    with BatchSession(config, jobs=1, max_batch=8) as session:
        session.submit(batch[0])  # sealed+dispatched: capacity was idle
        second = session.submit(batch[1])  # buffered: the worker is busy
        deadline = time.monotonic() + 60
        while not second.done() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert second.done(), (
            "buffered submission stalled after the worker went idle"
        )
        assert_matches_solo(batch[1], second.result(), config)


def test_algorithm_error_settles_only_its_shard():
    """A per-instance solver error resolves that ticket with the error
    and leaves every other submission unharmed."""
    from repro.exceptions import RoundLimitExceededError

    good_config = AlgorithmConfig(epsilon=Fraction(1, 3))
    bad_config = AlgorithmConfig(epsilon=Fraction(1, 3), max_iterations=1)
    batch = random_batch(3, base_seed=29)
    with BatchSession(good_config, jobs=2, max_batch=1) as session:
        good = [session.submit(hypergraph) for hypergraph in batch[:2]]
        bad = session.submit(batch[2], config=bad_config)
        with pytest.raises(RoundLimitExceededError):
            bad.result(timeout=120)
        for hypergraph, ticket in zip(batch, good):
            assert_matches_solo(
                hypergraph, ticket.result(timeout=120), good_config
            )


def test_poison_instance_does_not_fail_micro_batch_peers():
    """One failing instance inside a shared micro-batch errors only
    its own ticket: peers re-solve in isolation and keep the solo
    contract."""
    from repro.exceptions import RoundLimitExceededError

    # max_iterations chosen so the small instance finishes solo but
    # the larger one trips the round limit — asserted as the premise.
    good = mixed_rank_hypergraph(
        10, 14, 4, seed=2, weights=uniform_weights(10, 40, seed=79)
    )
    bad = mixed_rank_hypergraph(
        30, 60, 4, seed=2, weights=uniform_weights(30, 900, seed=3)
    )
    config = AlgorithmConfig(
        epsilon=Fraction(1, 5),
        max_iterations=solve_mwhvc(
            good, config=AlgorithmConfig(epsilon=Fraction(1, 5)),
            executor="fastpath",
        ).iterations,
    )
    solo_good = solve_mwhvc(good, config=config, executor="fastpath")
    with pytest.raises(RoundLimitExceededError):
        solve_mwhvc(bad, config=config, executor="fastpath")

    session = BatchSession(config, jobs=2, max_batch=2)
    try:
        # Force the two submissions into ONE shard: hold the pumps and
        # the eager idle-capacity seal so they share a micro-batch.
        original_pump = session._pump
        session._pump = lambda: None
        session._idle_capacity = lambda: False
        good_ticket = session.submit(good)
        bad_ticket = session.submit(bad)  # buffer hits max_batch: seals
        del session._idle_capacity
        session._pump = original_pump
        assert any(
            event[0] == "seal"
            and set(event[3]) == {good_ticket.id, bad_ticket.id}
            for event in session.schedule
        ), "premise: both instances must share one shard"
        session.flush()
        with pytest.raises(RoundLimitExceededError):
            bad_ticket.result(timeout=120)
        result = good_ticket.result(timeout=120)
        for attribute in OBSERVABLES:
            assert getattr(result, attribute) == getattr(
                solo_good, attribute
            )
    finally:
        session._pump = original_pump
        session.close()


def test_empty_session_close():
    with BatchSession(AlgorithmConfig(), jobs=2) as session:
        pass
    assert session.stats["shards"] == 0
    session.close()  # idempotent


def test_submit_after_close_raises():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(2, base_seed=8)
    session = BatchSession(config, jobs=2)
    ticket = session.submit(batch[0])
    session.close()
    with pytest.raises(SessionClosedError):
        session.submit(batch[1])
    # Pre-close submissions stay retrievable after the close.
    assert_matches_solo(batch[0], ticket.result(timeout=120), config)


def test_duplicate_results_dedup_first_wins():
    """A completion racing a duplicate of itself (the steal-vs-finish
    race, forced deterministically): one settle per ticket, identical
    bits, duplicates counted."""
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(6, base_seed=17)
    plan = FaultPlan(seed=0, duplicate=1.0)
    with BatchSession(
        config, jobs=2, max_batch=3, fault_plan=plan
    ) as session:
        tickets = [session.submit(hypergraph) for hypergraph in batch]
        results = [ticket.result(timeout=120) for ticket in tickets]
        session.drain()
        stats = dict(session.stats)
    assert stats["duplicates"] > 0
    for hypergraph, result in zip(batch, results):
        assert_matches_solo(hypergraph, result, config)


def test_crash_during_stolen_shard_falls_back():
    """A worker dying on a *stolen* shard re-solves it in-process.

    Deterministic steal: slot 0 is pinned busy and holds two pending
    shards, so idle slot 1 must steal — and a forced kill fault makes
    the stolen dispatch die in the worker.  ``retry_budget=0`` pins
    the *inline fallback* recovery path (the retry path is covered by
    the chaos soak)."""
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(6, base_seed=31)
    session = BatchSession(
        config, jobs=2, max_batch=3, steal=True,
        policy=SupervisorPolicy(retry_budget=0),
    )
    blocker = None
    try:
        # Hold the pumps while admitting, so shards stay pending.
        original_pump = session._pump
        session._pump = lambda: None
        tickets = [session.submit(hypergraph) for hypergraph in batch]
        session.flush()  # seal every buffer (the pumps are held)
        with session._lock:
            # Move every sealed shard to slot 0's queue and pin slot 0
            # busy with a fabricated in-flight shard, so idle slot 1
            # can only *steal* — and the largest pending shard has
            # multiple entries, forcing a split.
            for slot in range(1, session._jobs):
                while session._queues[slot]:
                    shard = session._queues[slot].popleft()
                    session._loads[slot] -= shard.cost
                    session._queues[0].append(shard)
                    session._loads[0] += shard.cost
            assert len(session._queues[0]) >= 2
            assert max(
                len(shard.entries) for shard in session._queues[0]
            ) > 1
            blocker = session._queues[0].popleft()
            session._loads[0] -= blocker.cost
            session._inflight[0] = blocker
        session.fault_plan = FaultPlan(seed=0)
        session.fault_plan.force_worker("kill")
        session._pump = original_pump
        session.flush()  # slot 1 steals (splitting) and its worker dies
        # Wait for the crash fallback to land before releasing the
        # pinned shard — dispatching it earlier would race onto the
        # already-doomed pool (correct, but a second crash event).
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            with session._lock:
                if session.stats["crashes"]:
                    break
            time.sleep(0.01)
        with session._lock:
            # Unpin slot 0 and requeue the held-back shard for a
            # normal dispatch.
            assert session._inflight[0] is blocker
            session._inflight[0] = None
            session._queues[0].append(blocker)
            session._loads[0] += blocker.cost
        session.flush()
        results = [ticket.result(timeout=120) for ticket in tickets]
        stats = dict(session.stats)
        log = list(session.schedule)
    finally:
        session._pump = original_pump
        with session._lock:
            if session._inflight[0] is blocker:  # unpin on test failure
                session._inflight[0] = None
                session._queues[0].append(blocker)
                session._loads[0] += blocker.cost
        session.close()
    assert stats["steals"] >= 1
    assert stats["crashes"] == 1
    assert any(event[0] == "steal" for event in log)
    assert any(event[0] == "crash" for event in log)
    assert any(event[0] == "fallback" for event in log)
    crashed = {event[1] for event in log if event[0] == "crash"}
    stolen = {
        event[1]
        for event in log
        if event[0] == "dispatch" and event[1] not in (
            entry[1] for entry in log if entry[0] == "seal"
        )
    }
    assert crashed <= stolen, "the crash must have hit a stolen shard"
    for hypergraph, result in zip(batch, results):
        assert_matches_solo(hypergraph, result, config)
    # The fallback re-solve ran in-process: no worker provenance for
    # the crashed shard's tickets.
    fallback_ids = {
        ticket_id
        for event in log
        if event[0] == "fallback"
        for ticket_id in event[3]
    }
    for ticket, result in zip(tickets, results):
        if ticket.id in fallback_ids:
            assert result.worker is None


def test_replay_schedule_reproduces_results():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(10, base_seed=23)
    with BatchSession(config, jobs=2, max_batch=3) as session:
        tickets = [session.submit(hypergraph) for hypergraph in batch]
        results = [ticket.result(timeout=120) for ticket in tickets]
        log = list(session.schedule)
    by_ticket = {ticket.id: ticket.hypergraph for ticket in tickets}
    replayed = replay_schedule(log, by_ticket, config)
    assert set(replayed) == set(by_ticket)
    for ticket, result in zip(tickets, results):
        for attribute in OBSERVABLES:
            assert getattr(replayed[ticket.id], attribute) == getattr(
                result, attribute
            )


def test_no_steal_mode_never_steals():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(8, base_seed=6)
    with BatchSession(config, jobs=2, max_batch=2, steal=False) as session:
        tickets = [session.submit(hypergraph) for hypergraph in batch]
        results = [ticket.result(timeout=120) for ticket in tickets]
        assert session.stats["steals"] == 0
        assert not any(
            event[0] == "steal" for event in session.schedule
        )
    for hypergraph, result in zip(batch, results):
        assert_matches_solo(hypergraph, result, config)


def test_session_rejects_bad_max_batch():
    with pytest.raises(ValueError):
        BatchSession(AlgorithmConfig(), jobs=2, max_batch=0)


# ----------------------------------------------------------------------
# API / CLI routing
# ----------------------------------------------------------------------


def test_solve_mwhvc_batch_stream_flag():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(6, base_seed=11)
    streamed = solve_mwhvc_batch(batch, config=config, jobs=2, stream=True)
    static = solve_mwhvc_batch(batch, config=config)
    for left, right in zip(streamed, static):
        for attribute in OBSERVABLES:
            assert getattr(left, attribute) == getattr(right, attribute)


def test_run_many_stream_routing():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(5, base_seed=14)
    routed = run_many(batch, config, run_fastpath, jobs=2, stream=True)
    direct = solve_mwhvc_batch(batch, config=config)
    for left, right in zip(routed, direct):
        for attribute in OBSERVABLES:
            assert getattr(left, attribute) == getattr(right, attribute)


def test_cli_batch_stream_flag(tmp_path, capsys):
    from repro.cli import main
    from repro.hypergraph import io

    for seed in range(4):
        hypergraph = mixed_rank_hypergraph(
            8, 12, 3, seed=seed,
            weights=uniform_weights(8, 9, seed=seed + 40),
        )
        io.save(hypergraph, tmp_path / f"instance{seed}.hg")
    assert main(["batch", str(tmp_path), "--json"]) == 0
    static = json.loads(capsys.readouterr().out)
    assert main(
        ["batch", str(tmp_path), "--json", "--stream", "--jobs", "2"]
    ) == 0
    streamed = json.loads(capsys.readouterr().out)
    assert streamed["total_weight"] == static["total_weight"]
    for left, right in zip(static["instances"], streamed["instances"]):
        assert left["cover"] == right["cover"]
        assert left["dual_total"] == right["dual_total"]


def test_cli_serve_streams_stdin(tmp_path, capsys, monkeypatch):
    from repro.cli import main
    from repro.hypergraph import io

    paths = []
    for seed in range(5):
        hypergraph = mixed_rank_hypergraph(
            8, 12, 3, seed=seed,
            weights=uniform_weights(8, 9, seed=seed + 40),
        )
        path = tmp_path / f"instance{seed}.hg"
        io.save(hypergraph, path)
        paths.append(str(path))
    monkeypatch.setattr(
        "sys.stdin", _io.StringIO("\n".join(paths) + "\n\n")
    )
    assert main(["serve", "--jobs", "2", "--json"]) == 0
    lines = [
        json.loads(line)
        for line in capsys.readouterr().out.splitlines()
        if line
    ]
    assert [entry["file"] for entry in lines] == paths
    static = json.loads(
        solve_mwhvc_batch(
            [io.load(path) for path in paths],
            config=AlgorithmConfig(epsilon=Fraction(1)),
        )[0].to_json()
    )
    assert lines[0]["cover"] == static["cover"]
    assert lines[0]["dual_total"] == static["dual_total"]


# ----------------------------------------------------------------------
# Per-ticket control: cancel, deadlines, done-callbacks, snapshot
# ----------------------------------------------------------------------

_SLOW_PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
                151, 157, 163, 167, 173, 179, 181, 191, 193, 197)


def slow_hypergraph():
    """~0.4s solo at eps 1/2000: big-int lane, 40k-bit rational weights.

    Slow enough that an immediate cancel or a 50ms deadline reliably
    beats the solve, which is what the in-flight control tests need.
    """
    n = 400
    weights = [
        Fraction((1 << 40_000) + 7 * i + 1, _SLOW_PRIMES[i % 20])
        for i in range(n)
    ]
    return regular_hypergraph(n, 3, 6, seed=3, weights=weights)


def hold_scheduler(session):
    """Freeze sealing-by-idleness and dispatch so admission state can
    be inspected and mutated deterministically; undone by
    :func:`release_scheduler`.  Sealing at ``max_batch`` still
    happens (it runs inside ``submit`` itself)."""
    session._pump = lambda: None
    session._idle_capacity = lambda: False


def release_scheduler(session):
    del session._pump
    del session._idle_capacity


def test_cancel_buffered_ticket_is_never_dispatched():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(3, base_seed=21)
    with BatchSession(config, jobs=1, max_batch=8) as session:
        hold_scheduler(session)
        tickets = [session.submit(hypergraph) for hypergraph in batch]
        victim = tickets[1]
        assert victim.cancel() is True
        assert victim.cancel() is False  # already settled by the first
        assert victim.done() and victim.cancelled()
        assert session.stats["cancelled"] == 1
        assert ("cancel", victim.id, "buffered") in session.schedule
        release_scheduler(session)
        with pytest.raises(TicketCancelled):
            victim.result()
        for index in (0, 2):
            assert_matches_solo(batch[index], tickets[index].result(), config)
    # The withdrawn ticket never reached a shard: no seal includes it.
    sealed = [
        ticket_id
        for event in session.schedule if event[0] == "seal"
        for ticket_id in event[3]
    ]
    assert victim.id not in sealed
    assert session.stats["duplicates"] == 0


def test_cancel_withdraws_from_pending_shard_and_respects_peers():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(4, base_seed=33)
    with BatchSession(config, jobs=1, max_batch=2) as session:
        hold_scheduler(session)
        tickets = [session.submit(hypergraph) for hypergraph in batch]
        # max_batch=2 sealed two shards; both still queued (pump held).
        assert session.snapshot()["pending_shards"] == [2]
        # Withdraw one ticket of the first shard (peer re-sliced in
        # place) and then both of the second (shard deleted outright).
        assert tickets[0].cancel() is True
        assert tickets[2].cancel() is True
        assert tickets[3].cancel() is True
        assert session.stats["cancelled"] == 3
        assert ("cancel", tickets[0].id, "pending") in session.schedule
        assert ("cancel", tickets[3].id, "pending") in session.schedule
        assert session.snapshot()["pending_shards"] == [1]
        release_scheduler(session)
        assert_matches_solo(batch[1], tickets[1].result(), config)
        for index in (0, 2, 3):
            with pytest.raises(TicketCancelled):
                tickets[index].result()
    assert session.stats["duplicates"] == 0


def test_cancel_inflight_discards_result_without_poisoning_session():
    config = AlgorithmConfig(epsilon=Fraction(1, 2000))
    follow_up = random_batch(1, base_seed=8)[0]
    with BatchSession(config, jobs=1, max_batch=1) as session:
        ticket = session.submit(slow_hypergraph())
        for _ in range(500):
            if session.snapshot()["inflight"]:
                break
            time.sleep(0.01)
        assert session.snapshot()["inflight"] == 1
        assert ticket.cancel() is True
        assert ("cancel", ticket.id, "inflight") in session.schedule
        with pytest.raises(TicketCancelled):
            ticket.result()
        # The session keeps serving while the doomed solve drains.
        small_config = AlgorithmConfig(epsilon=Fraction(1, 3))
        peer = session.submit(follow_up, config=small_config)
        assert_matches_solo(follow_up, peer.result(), small_config)
    # close() drained the in-flight shard: its late result was
    # discarded by the first-wins settle and counted, not delivered.
    assert session.stats["duplicates"] >= 1
    assert session.stats["cancelled"] == 1


def test_deadline_times_out_inflight_ticket_without_poisoning_session():
    config = AlgorithmConfig(epsilon=Fraction(1, 2000))
    follow_up = random_batch(1, base_seed=9)[0]
    with BatchSession(config, jobs=1, max_batch=1) as session:
        ticket = session.submit(slow_hypergraph(), deadline=0.05)
        with pytest.raises(TicketTimeout):
            ticket.result()
        assert session.stats["timeouts"] == 1
        assert not ticket.cancelled()  # timeout, not cancel
        small_config = AlgorithmConfig(epsilon=Fraction(1, 3))
        peer = session.submit(follow_up, config=small_config)
        assert_matches_solo(follow_up, peer.result(), small_config)
    timeout_events = [
        event for event in session.schedule if event[0] == "timeout"
    ]
    assert timeout_events == [("timeout", ticket.id, timeout_events[0][2])]


def test_deadline_validation_and_disarm_on_settle():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    hypergraph = random_batch(1, base_seed=11)[0]
    with BatchSession(config, jobs=1) as session:
        with pytest.raises(ValueError):
            session.submit(hypergraph, deadline=0)
        with pytest.raises(ValueError):
            session.submit(hypergraph, deadline=-1.5)
        # NaN fails every comparison, so a bare `<= 0` check would let
        # it through to threading.Timer; infinities never fire.
        with pytest.raises(ValueError):
            session.submit(hypergraph, deadline=float("nan"))
        with pytest.raises(ValueError):
            session.submit(hypergraph, deadline=float("inf"))
        # A generous deadline never fires: the settle disarms it.
        ticket = session.submit(hypergraph, deadline=3600.0)
        assert_matches_solo(hypergraph, ticket.result(), config)
        assert ticket._timer is None or not ticket._timer.is_alive()
    assert session.stats["timeouts"] == 0


def test_done_callbacks_fire_once_and_absorb_errors():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(2, base_seed=17)
    fired = []
    with BatchSession(config, jobs=1, max_batch=8) as session:
        hold_scheduler(session)
        ticket = session.submit(batch[0])
        ticket.add_done_callback(lambda t: fired.append(("early", t.id)))
        ticket.add_done_callback(lambda t: 1 / 0)  # must be absorbed
        ticket.add_done_callback(lambda t: fired.append(("late", t.id)))
        release_scheduler(session)
        result = ticket.result()
        assert_matches_solo(batch[0], result, config)
        # Registration after settling fires immediately, same thread.
        ticket.add_done_callback(lambda t: fired.append(("post", t.id)))
        assert fired == [
            ("early", ticket.id), ("late", ticket.id), ("post", ticket.id)
        ]
        assert session.stats["callback_errors"] == 1
        assert any(
            event[0] == "callback-error" and event[1] == ticket.id
            for event in session.schedule
        )
        # Cancelled tickets fire their callbacks too.
        hold_scheduler(session)
        doomed = session.submit(batch[1])
        doomed.add_done_callback(lambda t: fired.append(("doomed", t.id)))
        assert doomed.cancel() is True
        release_scheduler(session)
        assert fired[-1] == ("doomed", doomed.id)


def test_snapshot_reports_live_queue_state():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(3, base_seed=29)
    session = BatchSession(config, jobs=2, max_batch=8)
    try:
        hold_scheduler(session)
        tickets = [session.submit(hypergraph) for hypergraph in batch]
        snapshot = session.snapshot()
        assert snapshot["open"] is True
        assert snapshot["jobs"] == 2
        assert snapshot["unsettled"] == 3
        assert snapshot["buffered"] == 3
        assert snapshot["pending_shards"] == [0, 0]
        assert snapshot["inflight"] == 0
        assert snapshot["stats"]["shards"] == 0
        release_scheduler(session)
        for hypergraph, ticket in zip(batch, tickets):
            assert_matches_solo(hypergraph, ticket.result(), config)
    finally:
        session.close()
    snapshot = session.snapshot()
    assert snapshot["open"] is False
    assert snapshot["unsettled"] == 0
    assert snapshot["buffered"] == 0
    assert snapshot["inflight"] == 0


def test_cli_serve_reports_bad_paths(tmp_path, capsys, monkeypatch):
    from repro.cli import main
    from repro.hypergraph import io

    hypergraph = mixed_rank_hypergraph(
        8, 12, 3, seed=0, weights=uniform_weights(8, 9, seed=40)
    )
    good = tmp_path / "good.hg"
    io.save(hypergraph, good)
    monkeypatch.setattr(
        "sys.stdin",
        _io.StringIO(f"{good}\n{tmp_path / 'missing.hg'}\n"),
    )
    assert main(["serve", "--jobs", "2"]) == 2
    captured = capsys.readouterr()
    assert "missing.hg" in captured.err
    assert "good.hg:" in captured.out
