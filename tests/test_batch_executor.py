"""The batched arena executor must equal K sequential fastpath runs.

:func:`repro.core.batch.run_fastpath_batch` advances many instances at
once over a shared CSR arena, but the contract is that batching is a
pure throughput optimization: every instance's result — cover, weight,
dual packing, iterations, rounds, levels, statistics — is
**bit-identical** to running that instance alone with
``executor="fastpath"`` (and hence, by the PR 1 differential harness,
to lockstep and the CONGEST engine).  These tests pin that contract
across schedules, alpha policies, degenerate batches, the int64 arena
lane, the forced-spill path and the numpy-free fallback, plus a
hypothesis battery over random instance mixes.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.batch as batch_module
import repro.core.kernels as kernels_module
from repro.baselines.registry import this_work_batch, this_work_fastpath
from repro.core.batch import arena_eligibility, run_fastpath_batch
from repro.core.fastpath import HAS_NUMPY, run_fastpath
from repro.core.params import AlgorithmConfig
from repro.core.solver import solve_mwhvc, solve_mwhvc_batch
from repro.hypergraph.csr import (
    edge_membership_csr,
    pack_arena,
    vertex_incidence_csr,
)
from repro.hypergraph.generators import (
    mixed_rank_hypergraph,
    star_hypergraph,
    uniform_hypergraph,
    uniform_weights,
)
from repro.hypergraph.hypergraph import Hypergraph

needs_numpy = pytest.mark.skipif(
    not HAS_NUMPY, reason="the int64 arena lane requires numpy"
)

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


def assert_batch_matches_sequential(
    hypergraphs, config, *, executors=("fastpath", "lockstep"), verify=True
):
    """Every batch entry equals its solo run on every observable."""
    batch = solve_mwhvc_batch(hypergraphs, config=config, verify=verify)
    assert len(batch) == len(hypergraphs)
    for executor in executors:
        for position, (hypergraph, batched) in enumerate(
            zip(hypergraphs, batch)
        ):
            solo = solve_mwhvc(
                hypergraph, config=config, executor=executor,
                verify=verify,
            )
            for attribute in OBSERVABLES:
                expected = getattr(solo, attribute)
                actual = getattr(batched, attribute)
                assert actual == expected, (
                    f"batch[{position}] disagrees with solo {executor} "
                    f"on {attribute}: {actual!r} != {expected!r}"
                )
    return batch


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
# Structured batteries
# ----------------------------------------------------------------------


@pytest.mark.parametrize("schedule", ["spec", "compact"])
@pytest.mark.parametrize("epsilon", ["1", "1/3", "1/9"])
def test_batch_equals_sequential_random_mixes(schedule, epsilon):
    config = AlgorithmConfig(
        epsilon=Fraction(epsilon), schedule=schedule
    )
    assert_batch_matches_sequential(random_batch(8), config)


@pytest.mark.parametrize(
    "policy,alpha",
    [("theorem9", 2), ("local", 2), ("fixed", 3), ("fixed", Fraction(7, 2))],
)
def test_batch_equals_sequential_alpha_policies(policy, alpha):
    config = AlgorithmConfig(
        epsilon=Fraction(1, 3),
        alpha_policy=policy,
        fixed_alpha=Fraction(alpha),
    )
    assert_batch_matches_sequential(
        random_batch(5, base_seed=3), config, executors=("fastpath",)
    )


def test_batch_single_increment_and_checked_modes():
    """Modes the arena refuses still produce identical results."""
    batch = random_batch(4, base_seed=9)
    for config in (
        AlgorithmConfig(epsilon=Fraction(1, 3), increment_mode="single"),
        AlgorithmConfig(epsilon=Fraction(1, 3), check_invariants=True),
    ):
        eligible, _ = arena_eligibility(batch[0], config)
        assert not eligible
        assert_batch_matches_sequential(
            batch, config, executors=("fastpath",)
        )


@needs_numpy
def test_batch_arena_lane_actually_engages():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(6)
    flags = [arena_eligibility(hg, config) for hg in batch]
    assert all(flag for flag, _ in flags), flags


# ----------------------------------------------------------------------
# Degenerate batches
# ----------------------------------------------------------------------


def test_batch_of_one_instance():
    config = AlgorithmConfig(epsilon=Fraction(1, 2))
    assert_batch_matches_sequential(random_batch(1), config)


def test_empty_batch_returns_empty_list():
    assert solve_mwhvc_batch([]) == []


@pytest.mark.parametrize("schedule", ["spec", "compact"])
def test_batch_with_degenerate_instances(schedule):
    """Edgeless instances, singletons and instant covers ride along."""
    config = AlgorithmConfig(epsilon=Fraction(1, 2), schedule=schedule)
    batch = [
        Hypergraph(0, []),
        Hypergraph(4, []),
        Hypergraph(1, [(0,)]),
        Hypergraph(3, [(0, 1, 2)]),
        # Cheap hub: the star is covered in the first iteration.
        star_hypergraph(6, 2, weights=[1] + [1000] * 6),
        mixed_rank_hypergraph(
            12, 18, 3, seed=5, weights=uniform_weights(12, 9, seed=6)
        ),
    ]
    results = assert_batch_matches_sequential(batch, config)
    assert results[0].cover == frozenset()
    assert results[0].rounds == 0
    assert results[1].rounds == 1
    assert results[4].cover == frozenset({0})


def test_batch_order_is_preserved():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(6, base_seed=21)
    shuffled = list(reversed(batch))
    straight = solve_mwhvc_batch(batch, config=config)
    reverse = solve_mwhvc_batch(shuffled, config=config)
    for left, right in zip(straight, reversed(reverse)):
        assert left.cover == right.cover
        assert left.dual == right.dual


# ----------------------------------------------------------------------
# Arena lanes: spill and fallback
# ----------------------------------------------------------------------


@needs_numpy
def test_forced_spill_is_bit_identical(monkeypatch):
    """Shrinking the headroom forces mid-run spills; results match solo
    fastpath and, independently of the shared spill ladder, lockstep."""
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(6, base_seed=4)
    assert any(arena_eligibility(hg, config)[0] for hg in batch)
    monkeypatch.setattr(kernels_module.LANE_TABLE["int64"], "headroom_bits", 34)
    assert_batch_matches_sequential(
        batch, config, executors=("fastpath", "lockstep")
    )


def test_no_numpy_fallback_is_bit_identical(monkeypatch):
    monkeypatch.setattr(batch_module, "HAS_NUMPY", False)
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    assert_batch_matches_sequential(
        random_batch(4, base_seed=13), config, executors=("fastpath",)
    )


def test_batched_false_runs_sequential_reference():
    """The sequential reference is a loop of solo ``run_fastpath``
    runs, and the batch equals it instance by instance."""
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(3, base_seed=8)
    arena = solve_mwhvc_batch(batch, config=config)
    sequential = [run_fastpath(hypergraph, config) for hypergraph in batch]
    assert len(arena) == len(sequential)
    for left, right in zip(arena, sequential):
        for attribute in OBSERVABLES:
            assert getattr(left, attribute) == getattr(right, attribute)


@needs_numpy
def test_arena_eligibility_reasons():
    hypergraph = mixed_rank_hypergraph(
        10, 15, 3, seed=1, weights=uniform_weights(10, 10, seed=2)
    )
    base = AlgorithmConfig(epsilon=Fraction(1, 3))
    assert arena_eligibility(hypergraph, base) == (True, "ok")
    eligible, reason = arena_eligibility(
        hypergraph,
        AlgorithmConfig(epsilon=Fraction(1, 3), increment_mode="single"),
    )
    assert not eligible and "single" in reason
    eligible, reason = arena_eligibility(
        hypergraph,
        AlgorithmConfig(epsilon=Fraction(1, 3), check_invariants=True),
    )
    assert not eligible and "checked" in reason
    eligible, reason = arena_eligibility(Hypergraph(2, []), base)
    assert not eligible and "empty" in reason
    eligible, reason = arena_eligibility(
        hypergraph,
        AlgorithmConfig(
            epsilon=Fraction(1, 3),
            alpha_policy="fixed",
            fixed_alpha=Fraction(5, 2),
        ),
    )
    assert not eligible and "alpha" in reason


def test_verified_batch_produces_certificates():
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    results = solve_mwhvc_batch(random_batch(3), config=config)
    assert all(result.certificate is not None for result in results)
    unverified = solve_mwhvc_batch(
        random_batch(3), config=config, verify=False
    )
    assert all(result.certificate is None for result in unverified)


# ----------------------------------------------------------------------
# CSR packing helpers
# ----------------------------------------------------------------------


def test_edge_membership_and_incidence_csr_roundtrip():
    hypergraph = mixed_rank_hypergraph(
        9, 14, 3, seed=2, weights=uniform_weights(9, 5, seed=3)
    )
    membership = edge_membership_csr(hypergraph.edges)
    assert membership.num_segments == hypergraph.num_edges
    for edge_id, members in enumerate(hypergraph.edges):
        assert membership.segment(edge_id) == members
    incidence = vertex_incidence_csr(
        hypergraph.num_vertices, hypergraph.edges
    )
    assert incidence.num_segments == hypergraph.num_vertices
    for vertex in range(hypergraph.num_vertices):
        assert incidence.segment(vertex) == hypergraph.incident_edges(
            vertex
        )


def test_pack_arena_offsets_and_cells():
    batch = [
        Hypergraph(3, [(0, 1), (1, 2)], weights=[2, 3, 4]),
        Hypergraph(2, [(0, 1)], weights=[5, 6]),
        Hypergraph(1, [(0,)], weights=[7]),
    ]
    arena = pack_arena(batch)
    assert arena.num_instances == 3
    assert arena.vertex_offset == (0, 3, 5, 6)
    assert arena.edge_offset == (0, 2, 3, 4)
    assert arena.weights == (2, 3, 4, 5, 6, 7)
    assert arena.total_vertices == 6
    assert arena.total_edges == 4
    assert arena.membership.segment(0) == (0, 1)
    assert arena.membership.segment(2) == (3, 4)  # offset by 3 vertices
    assert arena.membership.segment(3) == (5,)
    if HAS_NUMPY:
        # The owning instance of each global vertex and edge is derived
        # from the offsets by the lane run.
        config = AlgorithmConfig()
        states = [batch_module.prepare_scaled_state(h, config) for h in batch]
        run = kernels_module.LaneRun(
            batch, states, config, ops=kernels_module.Int64Ops, limits=[0] * 3
        )
        assert run.inst_v.tolist() == [0, 0, 0, 1, 1, 2]
        assert run.inst_e.tolist() == [0, 0, 1, 2]
    assert arena.vertex_slice(1) == slice(3, 5)
    assert arena.edge_slice(2) == slice(3, 4)


# ----------------------------------------------------------------------
# Adapters
# ----------------------------------------------------------------------


def test_registry_batch_adapter_matches_fastpath():
    hypergraph = random_batch(1, base_seed=30)[0]
    batched = this_work_batch(hypergraph, Fraction(1, 2))
    fastpath = this_work_fastpath(hypergraph, Fraction(1, 2))
    assert batched.algorithm == "this-work-batch"
    assert batched.cover == fastpath.cover
    assert batched.weight == fastpath.weight
    assert batched.iterations == fastpath.iterations
    assert batched.rounds == fastpath.rounds
    assert batched.extra["dual"] == fastpath.extra["dual"]


def test_cli_batch_subcommand(tmp_path, capsys):
    from repro.cli import main
    from repro.hypergraph import io

    for seed in range(3):
        hypergraph = uniform_hypergraph(
            8, 12, 3, seed=seed,
            weights=uniform_weights(8, 9, seed=seed + 40),
        )
        io.save(hypergraph, tmp_path / f"instance{seed}.hg")
    assert main(["batch", str(tmp_path), "--epsilon", "1/2"]) == 0
    output = capsys.readouterr().out
    assert "batch: 3 instances" in output
    assert "instance0.hg" in output
    assert main(["batch", str(tmp_path), "--json"]) == 0
    import json

    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 3
    assert len(payload["instances"]) == 3
    assert payload["instances"][0]["file"] == "instance0.hg"
    # Each row equals the solo fastpath result of its file.
    config = AlgorithmConfig()
    for row in payload["instances"]:
        solo = run_fastpath(io.load(tmp_path / row.pop("file")), config)
        assert row == solo.as_dict()
    # Errors: missing directory and empty glob exit with code 2.
    assert main(["batch", str(tmp_path / "missing")]) == 2
    assert main(["batch", str(tmp_path), "--pattern", "*.none"]) == 2
    capsys.readouterr()


# ----------------------------------------------------------------------
# Property-based differential battery (derandomized, like PR 1's).
# ----------------------------------------------------------------------

DIFFERENTIAL_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def small_hypergraphs(draw, max_vertices=12, max_edges=14, max_rank=4):
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
    weights = draw(
        st.lists(
            st.integers(min_value=1, max_value=10**5),
            min_size=n,
            max_size=n,
        )
    )
    return Hypergraph(n, edges, weights)


@DIFFERENTIAL_SETTINGS
@given(
    hypergraphs=st.lists(small_hypergraphs(), min_size=1, max_size=6),
    epsilon=st.sampled_from(
        [Fraction(1), Fraction(1, 2), Fraction(1, 7), Fraction(2, 9)]
    ),
    schedule=st.sampled_from(["spec", "compact"]),
)
def test_property_batch_matches_sequential(hypergraphs, epsilon, schedule):
    """Arbitrary random instance mixes: batch == solo fastpath."""
    config = AlgorithmConfig(epsilon=epsilon, schedule=schedule)
    assert_batch_matches_sequential(
        hypergraphs, config, executors=("fastpath",)
    )


@DIFFERENTIAL_SETTINGS
@given(
    hypergraphs=st.lists(
        small_hypergraphs(max_vertices=8, max_edges=10),
        min_size=1,
        max_size=4,
    ),
    epsilon=st.sampled_from([Fraction(1, 3), Fraction(1, 11)]),
)
def test_property_batch_matches_lockstep(hypergraphs, epsilon):
    """Smaller battery cross-checked against the Fraction cores too."""
    config = AlgorithmConfig(epsilon=epsilon)
    assert_batch_matches_sequential(hypergraphs, config)


def test_run_fastpath_batch_direct_api():
    """The core-level entry point mirrors the solver-level one."""
    config = AlgorithmConfig(epsilon=Fraction(1, 3))
    batch = random_batch(3, base_seed=17)
    from_core = run_fastpath_batch(batch, config)
    from_solver = solve_mwhvc_batch(batch, config=config)
    for left, right in zip(from_core, from_solver):
        for attribute in OBSERVABLES:
            assert getattr(left, attribute) == getattr(right, attribute)
