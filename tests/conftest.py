"""Shared fixtures and instance helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.hypergraph.generators import (
    mixed_rank_hypergraph,
    path_graph,
    star_hypergraph,
    uniform_hypergraph,
    uniform_weights,
)
from repro.hypergraph.hypergraph import Hypergraph


@pytest.fixture
def triangle() -> Hypergraph:
    """K3 with unit weights: fractional OPT 1.5, integral OPT 2."""
    return Hypergraph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def weighted_path() -> Hypergraph:
    """Path 0-1-2-3 with weights making {1, 2} uniquely optimal."""
    return path_graph(4, weights=[10, 1, 1, 10])


@pytest.fixture
def small_hypergraph() -> Hypergraph:
    """A rank-3 instance used across algorithm tests."""
    return Hypergraph(
        5,
        [(0, 1, 2), (1, 3), (2, 3, 4), (0, 4)],
        weights=[3, 2, 2, 4, 1],
    )


@pytest.fixture
def hub_star() -> Hypergraph:
    """Star where picking the hub is optimal."""
    return star_hypergraph(6, 3, weights=None)


def random_instances(count: int = 8, *, max_rank: int = 4) -> list[Hypergraph]:
    """A deterministic battery of small random weighted instances."""
    instances = []
    for seed in range(count):
        n = 8 + seed * 3
        m = 12 + seed * 4
        weights = uniform_weights(n, 25, seed=seed + 500)
        instances.append(
            mixed_rank_hypergraph(
                n, m, max_rank, seed=seed, weights=weights
            )
        )
    return instances


def uniform_instances(count: int = 4, rank: int = 3) -> list[Hypergraph]:
    """Rank-uniform instances for rank-sensitive tests."""
    return [
        uniform_hypergraph(
            10 + 4 * seed,
            18 + 5 * seed,
            rank,
            seed=seed,
            weights=uniform_weights(10 + 4 * seed, 12, seed=seed + 900),
        )
        for seed in range(count)
    ]


def array_twin(hypergraph: Hypergraph) -> Hypergraph:
    """The array-backed instance equal to ``hypergraph``.

    Built the way a worker or a store reader builds instances (a packed
    arena, unpacked), with an ``int64`` weight array when every weight
    is an int that fits.  Its tuple views are not built yet; comparing
    it with a tuple-built instance builds them.
    """
    from repro.hypergraph.csr import arena_hypergraphs, pack_arena

    (twin,) = arena_hypergraphs(pack_arena([hypergraph]))
    weights = twin.weights_int64()
    if weights is None:
        return twin
    return Hypergraph._from_arrays(
        twin.num_vertices, twin._cells, twin._offsets, weights
    )


def spy_lane_runs(monkeypatch) -> list:
    """Record every in-process LaneRun the ladder constructs, in order:
    the runs' ``ops.name`` and ``carries_out`` show where instances
    entered and whether they spilled."""
    from repro.core.kernels import LaneRun

    runs = []
    real_init = LaneRun.__init__

    def spying_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        runs.append(self)

    monkeypatch.setattr(LaneRun, "__init__", spying_init)
    return runs
