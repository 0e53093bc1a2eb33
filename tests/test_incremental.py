"""Dynamic hypergraphs: mutation layer + warm-restart incremental solve.

Two layers under test:

* **store** — :class:`~repro.hypergraph.MutableHypergraph` is a
  versioned delta log over immutable snapshots: eager validation,
  exact coalescing (``delta_since``), and
  ``apply_delta(snapshot_at_v, delta_since(v)) == snapshot()``;
* **incremental solve** — the central differential gate:
  :func:`~repro.core.incremental.resolve_incremental` must produce a
  :class:`~repro.core.result.CoverResult` **equal on every compared
  field** to a from-scratch ``run_fastpath`` of the mutated snapshot —
  warm or cold, across every arithmetic lane, including forced
  mid-resume spills — while ``warm``/``invalidated`` report honestly
  which path ran, and a warm update never packs a clean fragment.

The serving tier on top (``BatchSession.submit_update``) is covered
here too; the TCP verbs live in ``tests/test_server.py``.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import repro.core.batch as batch_module
import repro.core.incremental as incremental_module
import repro.core.kernels as kernels_module
from repro.core.fastpath import HAS_NUMPY, run_fastpath
from repro.core.incremental import resolve_incremental, solve_state
from repro.core.parallel import COST_MODEL, CostModel, shutdown_pool
from repro.core.params import AlgorithmConfig
from repro.core.stream import BatchSession
from repro.exceptions import InvalidInstanceError, TicketCancelled
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.mutable import (
    GraphDelta,
    MutableHypergraph,
    apply_delta,
)

from conftest import spy_lane_runs

LANES = ("int64", "two-limb", "three-limb", "four-limb", "bigint")


@pytest.fixture(autouse=True, scope="module")
def _teardown_pool():
    yield
    shutdown_pool()


def multi_component(seed: int, components: int = 3, edges_each: int = 5):
    """Disjoint random components (8 vertices each), stable rank 3."""
    rng = random.Random(seed)
    edges = []
    for block in range(components):
        lo = 8 * block
        # Anchor rank and a repeated pair so Δ stays easy to keep.
        edges.append((lo, lo + 1, lo + 2))
        for _ in range(edges_each - 1):
            size = rng.randint(2, 3)
            edges.append(tuple(sorted(rng.sample(range(lo, lo + 8), size))))
    n = 8 * components
    weights = [rng.randint(1, 50) for _ in range(n)]
    return Hypergraph(n, edges, weights)


def single_component_mutation(store: MutableHypergraph, seed: int) -> None:
    """One remove + one add inside the first component (vertices 0..7)."""
    rng = random.Random(seed)
    snapshot = store.snapshot()
    positions = [
        position
        for position in range(snapshot.num_edges)
        if max(snapshot.edge(position)) < 8
        and len(snapshot.edge(position)) < 3  # keep the rank anchor
    ]
    if positions:
        store.remove_edge(rng.choice(positions))
    store.add_edge(tuple(sorted(rng.sample(range(8), 2))))


# ----------------------------------------------------------------------
# MutableHypergraph: the versioned delta store
# ----------------------------------------------------------------------


def test_mutable_roundtrip_and_versioning():
    base = Hypergraph(4, [(0, 1), (2, 3)], weights=[1, 2, 3, 4])
    store = MutableHypergraph(base)
    assert store.version == 0
    vertex = store.add_vertex(weight=7)
    assert vertex == 4 and store.version == 1
    position = store.add_edge((1, 4))
    assert position == 2 and store.version == 2
    store.set_weight(0, Fraction(5, 2))
    removed = store.remove_edge(0)
    assert removed == (0, 1) and store.version == 4
    snapshot = store.snapshot()
    assert snapshot == Hypergraph(
        5, [(2, 3), (1, 4)], weights=[Fraction(5, 2), 2, 3, 4, 7]
    )
    # The base snapshot itself never moved.
    assert base == Hypergraph(4, [(0, 1), (2, 3)], weights=[1, 2, 3, 4])


def test_mutable_is_unhashable_snapshots_are_not():
    store = MutableHypergraph(Hypergraph(2, [(0, 1)]))
    with pytest.raises(TypeError):
        hash(store)
    assert hash(store.snapshot()) == hash(Hypergraph(2, [(0, 1)]))


def test_mutable_validation_is_eager():
    store = MutableHypergraph(Hypergraph(3, [(0, 1)]))
    with pytest.raises(InvalidInstanceError):
        store.add_edge((0, 7))  # unknown vertex
    with pytest.raises(InvalidInstanceError):
        store.add_edge(())
    with pytest.raises(InvalidInstanceError):
        store.remove_edge(5)
    with pytest.raises(InvalidInstanceError):
        store.set_weight(0, 0)
    with pytest.raises(InvalidInstanceError):
        store.set_weight(9, 1)
    # Failed operations must not have bumped the version.
    assert store.version == 0


def test_delta_since_coalesces_add_then_remove():
    base = Hypergraph(3, [(0, 1)])
    store = MutableHypergraph(base)
    position = store.add_edge((1, 2))
    store.remove_edge(position)
    delta = store.delta_since(0)
    assert delta.is_empty
    assert delta.base_version == 0 and delta.version == store.version


def test_delta_since_mid_version_roundtrip():
    rng = random.Random(11)
    base = multi_component(5)
    store = MutableHypergraph(base)
    checkpoints = {0: base}
    for step in range(12):
        op = rng.randrange(4)
        if op == 0 and store.num_edges:
            store.remove_edge(rng.randrange(store.num_edges))
        elif op == 1:
            k = rng.randint(2, 3)
            store.add_edge(rng.sample(range(store.num_vertices), k))
        elif op == 2:
            store.set_weight(
                rng.randrange(store.num_vertices), rng.randint(1, 9)
            )
        else:
            store.add_vertex(weight=rng.randint(1, 9))
        checkpoints[store.version] = store.snapshot()
    final = store.snapshot()
    for version, snapshot_v in checkpoints.items():
        delta = store.delta_since(version)
        assert apply_delta(snapshot_v, delta) == final


def test_touched_vertices_covers_every_mutation_kind():
    base = Hypergraph(6, [(0, 1), (2, 3)], weights=[1] * 6)
    delta = GraphDelta(
        added_vertices=(4,),
        added_edges=((4, 5),),
        removed_edges=(0,),
        reweighted=((2, 9),),
    )
    assert delta.touched_vertices(base) == {0, 1, 2, 4, 5, 6}


# ----------------------------------------------------------------------
# The differential gate: incremental == from-scratch, bit for bit
# ----------------------------------------------------------------------


def test_solve_state_merged_result_equals_monolithic():
    hypergraph = multi_component(2)
    config = AlgorithmConfig(epsilon="1/2")
    state = solve_state(hypergraph, config)
    assert state.result == run_fastpath(hypergraph, config)
    assert state.result.certificate is not None


def test_warm_resolve_is_bit_identical_and_reports_warm():
    config = AlgorithmConfig(epsilon="1/2")
    base = multi_component(7)
    state = solve_state(base, config)
    store = MutableHypergraph(base)
    single_component_mutation(store, seed=1)
    delta = store.delta_since(0)
    state = resolve_incremental(state, delta)
    mutated = store.snapshot()
    assert state.result == run_fastpath(mutated, config)
    assert state.result.warm is True
    assert 0 < state.result.invalidated < mutated.num_edges
    assert state.snapshot == mutated


def test_chained_warm_resolves_track_a_mutable_store():
    config = AlgorithmConfig(epsilon="1/3", alpha_policy="local")
    base = multi_component(9)
    store = MutableHypergraph(base)
    state = solve_state(base, config, version=0)
    warm_steps = 0
    for step in range(6):
        single_component_mutation(store, seed=100 + step)
        state = resolve_incremental(state, store)  # store, not delta
        expected = run_fastpath(store.snapshot(), config)
        assert state.result == expected, f"chained step {step} drifted"
        warm_steps += bool(state.result.warm)
    assert warm_steps >= 4  # single-component updates stay warm


def test_resolve_from_store_requires_a_version():
    base = multi_component(3)
    state = solve_state(base)  # no version recorded
    store = MutableHypergraph(base)
    store.add_edge((0, 1))
    with pytest.raises(InvalidInstanceError):
        resolve_incremental(state, store)


def test_threshold_fallback_reports_cold():
    config = AlgorithmConfig(epsilon="1/2")
    base = multi_component(4)
    state = solve_state(base, config)
    # Reweight one vertex per component (rank/Δ-neutral, so the
    # ambient fallback cannot mask the threshold one): the dirty
    # region is 100% of the edges.
    delta = GraphDelta(reweighted=((3, 777), (11, 777), (19, 777)))
    new_state = resolve_incremental(state, delta, threshold=0.5)
    mutated = apply_delta(base, delta)
    assert new_state.result == run_fastpath(mutated, config)
    assert new_state.result.warm is False
    # The threshold path reports the dirty edge count it refused.
    assert new_state.result.invalidated > 0.5 * mutated.num_edges
    # A permissive threshold keeps the same mutation warm instead.
    warm_state = resolve_incremental(state, delta, threshold=1.0)
    assert warm_state.result == new_state.result  # provenance excluded
    assert warm_state.result.warm is True


def test_ambient_shift_falls_back_cold():
    config = AlgorithmConfig(epsilon="1/2")
    base = multi_component(6)
    state = solve_state(base, config)
    store = MutableHypergraph(base)
    # Rank jumps 3 -> 4: every cached fragment was pinned to f=3.
    store.add_edge((0, 1, 2, 3))
    new_state = resolve_incremental(state, store.delta_since(0))
    mutated = store.snapshot()
    assert mutated.rank == 4 > base.rank
    assert new_state.result == run_fastpath(mutated, config)
    assert new_state.result.warm is False
    assert new_state.result.invalidated == mutated.num_edges


def test_reweight_only_delta_invalidates_one_component():
    config = AlgorithmConfig(epsilon="1/2")
    base = multi_component(8)
    state = solve_state(base, config)
    delta = GraphDelta(reweighted=((3, 999),))
    state = resolve_incremental(state, delta)
    mutated = apply_delta(base, delta)
    assert state.result == run_fastpath(mutated, config)
    assert state.result.warm is True


def test_vertex_addition_joins_the_isolated_fragment():
    config = AlgorithmConfig(epsilon="1/2")
    base = multi_component(12)
    state = solve_state(base, config)
    delta = GraphDelta(added_vertices=(5, Fraction(7, 2)))
    state = resolve_incremental(state, delta)
    mutated = apply_delta(base, delta)
    assert state.result == run_fastpath(mutated, config)
    # And a follow-up edge can reach the new vertices.
    follow = GraphDelta(added_edges=((0, base.num_vertices),))
    state = resolve_incremental(state, follow)
    assert state.result == run_fastpath(apply_delta(mutated, follow), config)


def test_warm_update_never_handles_a_clean_fragment(monkeypatch):
    """A warm update hands the arena helpers at most its dirty
    fragments: the clean ones keep their cached results and are never
    packed, sliced or patched."""
    paths = [
        (4 * block + offset, 4 * block + offset + 1)
        for block in range(6)
        for offset in range(3)
    ]
    hub = [(24, leaf) for leaf in range(25, 29)]  # pins Δ = 4
    base = Hypergraph(
        29, paths + hub, [1 + (7 * vertex) % 11 for vertex in range(29)]
    )
    config = AlgorithmConfig(epsilon="1/2")
    state = solve_state(base, config)
    calls: list[tuple[str, int]] = []

    def recording(name, helper):
        def wrapper(first, *args, **kwargs):
            size = getattr(first, "num_instances", None)
            calls.append((name, len(first) if size is None else size))
            return helper(first, *args, **kwargs)

        return wrapper

    # patch_arena is listed so an arena-delta helper cannot slip in.
    for module in (incremental_module, batch_module, kernels_module):
        for name in ("pack_arena", "slice_arena", "patch_arena"):
            if hasattr(module, name):
                monkeypatch.setattr(
                    module, name, recording(name, getattr(module, name))
                )
    # (a) Cutting a path's middle edge splits it into two dirty
    # fragments; (b) a reweight dirties one.
    steps = [
        (GraphDelta(removed_edges=(1,)), 2, 2),
        (GraphDelta(reweighted=((5, 13),)), 1, 3),
    ]
    for delta, dirty, invalidated in steps:
        calls.clear()
        mutated = apply_delta(state.snapshot, delta)
        state = resolve_incremental(state, delta)
        assert state.result == run_fastpath(mutated, config)
        assert state.result.warm is True
        assert state.result.invalidated == invalidated
        assert all(size <= dirty for _, size in calls), calls
        assert calls or not HAS_NUMPY  # the lanes packed the dirty ones


@pytest.mark.parametrize("lane", LANES)
def test_differential_gate_per_lane(lane):
    """Warm and cold paths equal from-scratch on every forced lane."""
    config = AlgorithmConfig(epsilon="1/2")
    base = multi_component(31)
    state = solve_state(base, config, lane=lane, version=0)
    assert state.result == run_fastpath(base, config)
    store = MutableHypergraph(base)
    for step in range(3):
        single_component_mutation(store, seed=300 + step)
        state = resolve_incremental(state, store, lane=lane)
        expected = run_fastpath(store.snapshot(), config)
        assert state.result == expected, (
            f"lane {lane} drifted at step {step}"
        )


def test_unknown_lane_is_rejected():
    """Fragment jobs enter the spill ladder at ``lane``; a name the
    ladder does not know is a typed error, like ``run_fastpath``'s."""
    with pytest.raises(InvalidInstanceError, match="lane must be one of"):
        solve_state(multi_component(31), AlgorithmConfig(), lane="float128")


def test_differential_gate_forced_midrun_spills(monkeypatch):
    """Shrunken headrooms force spill-carry resumes inside fragments;
    the incremental result must still match from-scratch exactly."""
    monkeypatch.setattr(kernels_module.LANE_TABLE["int64"], "headroom_bits", 59)
    monkeypatch.setattr(kernels_module.LANE_TABLE["two-limb"], "headroom_bits", 60)
    monkeypatch.setattr(kernels_module.LANE_TABLE["three-limb"], "headroom_bits", 80)
    rng = random.Random(17)
    config = AlgorithmConfig(epsilon="1/3")
    base_plain = multi_component(13)
    # Weights up to 2**45: the int64 lane admits the fragments' initial
    # scales but not their growth.
    weights = [
        rng.randint(1, 1 << 45) for _ in range(base_plain.num_vertices)
    ]
    base = Hypergraph(base_plain.num_vertices, base_plain.edges, weights)
    runs = spy_lane_runs(monkeypatch)
    # Entered at int64, which the growth-aware ``auto`` entry skips.
    state = solve_state(base, config, version=0, lane="int64")
    if HAS_NUMPY:  # without numpy every fragment runs the big-int loop
        assert any(run.carries_out for run in runs)
    assert state.result == run_fastpath(base, config)
    store = MutableHypergraph(base)
    for step in range(3):
        single_component_mutation(store, seed=500 + step)
        state = resolve_incremental(state, store, lane="int64")
        expected = run_fastpath(store.snapshot(), config)
        assert state.result == expected, f"spill step {step} drifted"


def test_fraction_weights_differential():
    config = AlgorithmConfig(epsilon="1/2")
    base_plain = multi_component(19)
    weights = [
        Fraction(3 * index + 2, (index % 5) + 2)
        for index in range(base_plain.num_vertices)
    ]
    base = Hypergraph(base_plain.num_vertices, base_plain.edges, weights)
    state = solve_state(base, config, version=0)
    store = MutableHypergraph(base)
    store.set_weight(2, Fraction(99, 7))
    single_component_mutation(store, seed=42)
    state = resolve_incremental(state, store)
    assert state.result == run_fastpath(store.snapshot(), config)


# ----------------------------------------------------------------------
# Session integration: submit_update
# ----------------------------------------------------------------------


def test_session_update_chain_bootstrap_then_warm():
    config = AlgorithmConfig(epsilon="1/2")
    base = multi_component(21)
    with BatchSession(config, jobs=2, max_batch=4) as session:
        handle = session.submit(base)
        assert handle.result() == run_fastpath(base, config)
        store = MutableHypergraph(base)
        single_component_mutation(store, seed=601)
        first = session.submit_update(handle, store.delta_since(0))
        result = first.result()
        mutated = store.snapshot()
        assert result == run_fastpath(mutated, config)
        # Plain submits keep no per-component state: first update is a
        # cold bootstrap that seeds the chain.
        assert result.warm is False
        assert result.invalidated == mutated.num_edges
        chain = MutableHypergraph(mutated)
        single_component_mutation(chain, seed=602)
        second = session.submit_update(first, chain.delta_since(0))
        result2 = second.result()
        assert result2 == run_fastpath(chain.snapshot(), config)
        assert result2.warm is True
        snapshot = session.snapshot()
        assert snapshot["resident_states"] == 2
        assert snapshot["stats"]["updates"] == 2
        assert snapshot["stats"]["warm_updates"] == 1


def test_session_update_cancel_and_close():
    config = AlgorithmConfig(epsilon="1/2")
    base = multi_component(22)
    delta = GraphDelta(added_edges=((0, 1),))
    session = BatchSession(config, jobs=2)
    handle = session.submit(base)
    update = session.submit_update(handle, delta)
    update.cancel()
    session.close()
    if update.cancelled():
        with pytest.raises(TicketCancelled):
            update.result(timeout=30)
    else:  # the orchestrator won the race; the result must be exact
        assert update.result(timeout=30) == run_fastpath(
            apply_delta(base, delta), config
        )
    from repro.exceptions import SessionClosedError

    with pytest.raises(SessionClosedError):
        session.submit_update(handle, delta)


def test_session_update_inherits_base_failure():
    config = AlgorithmConfig(epsilon="1/2")
    base = multi_component(24)
    delta = GraphDelta(added_edges=((0, 1),))
    with BatchSession(config, jobs=2) as session:
        handle = session.submit(base)
        withdrawn = handle.cancel()
        update = session.submit_update(handle, delta)
        if withdrawn:
            # The base never solved: its updates inherit the failure.
            with pytest.raises(InvalidInstanceError):
                update.result(timeout=30)
        else:
            # The solve beat the cancel; the update proceeds normally.
            assert update.result(timeout=30) == run_fastpath(
                apply_delta(base, delta), config
            )


def test_session_update_rejects_foreign_ticket():
    config = AlgorithmConfig(epsilon="1/2")
    base = multi_component(25)
    with BatchSession(config, jobs=2) as one:
        handle = one.submit(base)
        handle.result()
        with BatchSession(config, jobs=2) as two:
            with pytest.raises(InvalidInstanceError):
                two.submit_update(handle, GraphDelta())


# ----------------------------------------------------------------------
# Cost-model observability
# ----------------------------------------------------------------------


def test_cost_model_export_counts_samples():
    model = CostModel()
    assert model.export() == {
        "rates": {},
        "blended": None,
        "observations": 0,
    }
    model.observe("int64", (3, 5), 1000, 0.25)
    model.observe("int64", (3, 5), 1000, 0.35)
    model.observe("bigint", (2, 4), 500, 0.10)
    exported = model.export()
    assert exported["observations"] == 3
    assert exported["rates"]["int64|3|5"]["samples"] == 2
    assert exported["rates"]["bigint|2|4"]["samples"] == 1
    assert exported["rates"]["bigint|2|4"]["rate"] == pytest.approx(
        0.10 / 500
    )
    assert exported["blended"] is not None
    # The raw snapshot() shape is untouched (tuple-keyed EMA table).
    assert set(model.snapshot()) == {("int64", (3, 5)), ("bigint", (2, 4))}
    model.reset()
    assert model.export() == {
        "rates": {},
        "blended": None,
        "observations": 0,
    }


def test_session_snapshot_exposes_cost_model():
    config = AlgorithmConfig(epsilon="1/2")
    with BatchSession(config, jobs=2) as session:
        session.submit(multi_component(26)).result()
        snapshot = session.snapshot()
    exported = snapshot["cost_model"]
    assert set(exported) == {"rates", "blended", "observations"}
    assert exported is not COST_MODEL.snapshot()
