"""Directed tests: the local-alpha mechanism end to end, and engine
accounting details."""

from __future__ import annotations

import os
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.fastpath as fastpath_module
import repro.core.lockstep as lockstep_module
from repro.congest.engine import SynchronousEngine, default_bandwidth_cap
from repro.congest.message import Message
from repro.congest.network import Network
from repro.congest.node import Node
from repro.core.fastpath import HAS_NUMPY, prepare_scaled_state
from repro.core.params import AlgorithmConfig, theorem9_alpha
from repro.core.solver import solve_mwhvc
from repro.hypergraph.generators import mixed_rank_hypergraph
from repro.hypergraph.hypergraph import Hypergraph


class TestLocalAlphaEndToEnd:
    """At rank 1 the Theorem 9 alpha exceeds 2 at modest degrees
    (X = log Δ / log log Δ), so the local policy is exercisable with
    real instances: vertices of different degrees get different
    alphas."""

    def test_rank1_alpha_exceeds_two(self):
        alpha = theorem9_alpha(256, 1, Fraction(1))
        assert alpha > 2

    def test_local_policy_produces_distinct_alphas(self):
        # Vertex 0 carries 256 singleton edges, vertex 1 carries 4:
        # local Δ(e) is 256 on the former, 4 on the latter.
        edges = [(0,)] * 256 + [(1,)] * 4
        hypergraph = Hypergraph(2, edges, weights=[1000, 1000])
        config = AlgorithmConfig(epsilon=Fraction(1), alpha_policy="local")
        result = solve_mwhvc(hypergraph, config=config)
        assert result.alpha_min == Fraction(2)
        assert result.alpha_max == theorem9_alpha(256, 1, Fraction(1))
        assert result.alpha_max > result.alpha_min
        assert hypergraph.is_cover(result.cover)

    def test_local_policy_engine_equality_with_distinct_alphas(self):
        edges = [(0,)] * 256 + [(1,)] * 4 + [(0, 1)]
        hypergraph = Hypergraph(2, edges, weights=[997, 1003])
        config = AlgorithmConfig(
            epsilon=Fraction(1), alpha_policy="local",
            check_invariants=True,
        )
        lock = solve_mwhvc(hypergraph, config=config)
        cong = solve_mwhvc(hypergraph, config=config, executor="congest")
        assert lock.cover == cong.cover
        assert lock.dual == cong.dual
        assert lock.rounds == cong.rounds

    def test_scaled_state_stores_alpha_once(self, monkeypatch):
        """Iteration 0 keeps one Fraction per instance under theorem9
        and fixed, and lockstep's per-edge alphas only under local;
        the fused and scalar passes build the same state."""
        edges = [(0,)] * 256 + [(1,)] * 4
        hypergraph = Hypergraph(2, edges, weights=[1000, 1000])
        configs = {
            "theorem9": AlgorithmConfig(epsilon=Fraction(1)),
            "fixed": AlgorithmConfig(
                epsilon=Fraction(1),
                alpha_policy="fixed",
                fixed_alpha=Fraction(7, 2),
            ),
            "local": AlgorithmConfig(epsilon=Fraction(1), alpha_policy="local"),
        }
        built = []

        def spy_build_cores(*args):
            cores = real_build_cores(*args)
            built.append(cores[1])
            return cores

        real_build_cores = lockstep_module.build_cores
        monkeypatch.setattr(lockstep_module, "build_cores", spy_build_cores)
        lockstep_module.run_lockstep(hypergraph, configs["local"])
        core_alphas = [core.alpha for core in built[0]]
        assert len(set(core_alphas)) == 2

        fused = {
            policy: prepare_scaled_state(hypergraph, config)
            for policy, config in configs.items()
        }
        assert fused["theorem9"].alpha == theorem9_alpha(256, 1, Fraction(1))
        assert fused["fixed"].alpha == Fraction(7, 2)
        assert fused["local"].alpha == core_alphas

        monkeypatch.setattr(
            fastpath_module, "_fused_iteration0", lambda *args: None
        )
        for policy, config in configs.items():
            state = fused[policy]
            if policy != "local":
                assert isinstance(state.alpha, Fraction)
            if HAS_NUMPY:
                assert not isinstance(state.degrees, list), policy
                assert not isinstance(state.bid, list), policy
            scalar = prepare_scaled_state(hypergraph, config)
            assert isinstance(scalar.degrees, list)
            assert scalar.alpha == state.alpha
            assert scalar.scale == state.scale
            assert scalar.bid == list(state.bid)
            assert list(scalar.total_delta) == list(state.total_delta)
            assert list(scalar.degrees) == list(state.degrees)

    def test_global_vs_local_can_differ_in_iterations(self):
        """With mixed degrees the global policy applies the max-degree
        alpha everywhere; local adapts per edge.  Executions may
        genuinely differ — both must stay certified."""
        edges = [(0,)] * 256 + [(1,)] * 4
        hypergraph = Hypergraph(2, edges, weights=[1000, 1000])
        for policy in ("theorem9", "local"):
            config = AlgorithmConfig(
                epsilon=Fraction(1), alpha_policy=policy
            )
            result = solve_mwhvc(hypergraph, config=config)
            assert result.certificate is not None


#: The alpha policies whose fused iteration-0 state must equal the
#: scalar pass's: integral alphas (theorem9's 2 at these degrees, and
#: local's per-edge values), a fractional fixed one, and a fixed one
#: with a wide denominator.
SCALE_CONFIGS = {
    "theorem9": {},
    "local": {"alpha_policy": "local"},
    "fixed-7/2": {"alpha_policy": "fixed", "fixed_alpha": Fraction(7, 2)},
    "fixed-wide": {
        "alpha_policy": "fixed", "fixed_alpha": Fraction(10**6 + 3, 10**5 + 7)
    },
}


def weight_widths(hypergraph):
    """One weight vector per width class iteration 0 distinguishes.

    Small weights with many small prime factors; ``max_weight * Δ``
    straddling ``2**62`` (int64 weights whose bids need Python ints);
    weights in ``[2**62, 2**63)``, in ``[2**63, 2**156)`` and past
    float64's range; and near-tie argmins at ``10**30``, where
    ``w(v) / |E(v)|`` differs by less than float64 can tell.
    """
    n = hypergraph.num_vertices
    degrees = [hypergraph.degree(vertex) for vertex in range(n)]
    near = (1 << 62) // hypergraph.max_degree
    return {
        "small": [
            (v % 7 + 1) * (3 ** (v % 4)) * (2 ** (v % 5)) for v in range(n)
        ],
        "straddle-2**62": [near - 12 + 3 * v for v in range(n)],
        "2**62": [(1 << 62) + (v % 7) * 3 ** (v % 5) * 2**40 for v in range(n)],
        "2**63-2**156": [
            (1 << (63 + 4 * v)) + (v % 5 + 1) * 3 ** (v % 3) for v in range(n)
        ],
        "past-float64": [(1 << 1100) + v for v in range(n)],
        "near-tie-10**30": [
            10**30 * max(degree, 1) + (v % 3) for v, degree in enumerate(degrees)
        ],
    }


def scalar_iteration0(hypergraph, config):
    """The scalar loop's iteration-0 state (the fused pass switched off)."""
    real = fastpath_module._fused_iteration0
    fastpath_module._fused_iteration0 = lambda *args: None
    try:
        return prepare_scaled_state(hypergraph, config)
    finally:
        fastpath_module._fused_iteration0 = real


def check_fused_iteration0(hypergraph, config, *, must_fuse):
    """The fused pass equals the scalar pass wherever it runs, and
    runs when ``must_fuse``; returns the fused state (or ``None``)."""
    fused = fastpath_module._fused_iteration0(hypergraph, config)
    scalar = scalar_iteration0(hypergraph, config)
    if must_fuse:
        assert fused is not None
    if fused is not None:
        assert scalar.alpha == fused.alpha
        assert scalar.scale == fused.scale
        assert scalar.bid == list(fused.bid)
        assert list(scalar.total_delta) == list(fused.total_delta)
        assert scalar.degrees == list(fused.degrees)
    return fused


def integral_alphas(hypergraph, config) -> bool:
    """Whether every alpha of the instance is an integer."""
    alpha = scalar_iteration0(hypergraph, config).alpha
    alphas = alpha if isinstance(alpha, list) else [alpha]
    return all(a.denominator == 1 for a in alphas)


@pytest.mark.skipif(not HAS_NUMPY, reason="the fused pass needs numpy")
@pytest.mark.parametrize("policy", SCALE_CONFIGS)
@pytest.mark.parametrize("seed", range(4))
def test_fused_scale_equals_scalar_scale(policy, seed):
    """On every weight width the fused pass builds the scalar pass's
    state (alpha, scale, bids, sums, degrees).  It runs wherever the
    weights are integers below float64's range and alpha is integral,
    and under the fractional alphas on small weights; past float64 it
    bows out."""
    base = mixed_rank_hypergraph(24, 40, 4, seed=seed)
    config = AlgorithmConfig(epsilon=Fraction(1, 3), **SCALE_CONFIGS[policy])
    for width, weights in weight_widths(base).items():
        hypergraph = base.reweighted(weights)
        fused = check_fused_iteration0(
            hypergraph,
            config,
            must_fuse=width == "small"
            or (width != "past-float64" and integral_alphas(hypergraph, config)),
        )
        if width == "past-float64":
            assert fused is None


WIDTH_SETTINGS = settings(
    max_examples=int(os.environ.get("LANE_DIFF_EXAMPLES", "15")),
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.skipif(not HAS_NUMPY, reason="the fused pass needs numpy")
@WIDTH_SETTINGS
@given(data=st.data(), policy=st.sampled_from(sorted(SCALE_CONFIGS)))
def test_property_fused_iteration0_widths(data, policy):
    """Random instances whose weights mix every width (small, int64,
    past int64, past float64, and near-tie argmins at ``10**30``): the
    fused pass equals the scalar pass, and runs whenever every weight
    is below float64's range and every alpha is integral."""
    n = data.draw(st.integers(1, 12), label="n")
    edges = [
        tuple(
            data.draw(
                st.lists(
                    st.integers(0, n - 1), min_size=1, max_size=min(4, n),
                    unique=True,
                )
            )
        )
        for _ in range(data.draw(st.integers(1, 14), label="m"))
    ]
    degrees = [sum(vertex in edge for edge in edges) for vertex in range(n)]
    tie = data.draw(st.integers(10**29, 10**31), label="tie")
    widths = {
        "small": st.integers(1, 10**6),
        "int64": st.integers(1 << 58, (1 << 63) - 1),
        "wide": st.integers(1 << 63, 1 << 160),
        # ``w / d = tie + offset / d``: ratios float64 cannot tell apart.
        "tie": st.integers(0, 2),
        "huge": st.just(1 << 1100),
    }
    weights = []
    for vertex in range(n):
        kind = data.draw(st.sampled_from(sorted(widths)))
        weight = data.draw(widths[kind])
        if kind == "tie":
            weight += tie * max(degrees[vertex], 1)
        weights.append(weight)
    hypergraph = Hypergraph(n, edges, weights)
    config = AlgorithmConfig(epsilon=Fraction(1, 3), **SCALE_CONFIGS[policy])
    check_fused_iteration0(
        hypergraph,
        config,
        must_fuse=max(weights) < 1 << 1000 and integral_alphas(hypergraph, config),
    )


class CountingNode(Node):
    """Sends `budget` messages, one per round, then halts."""

    def __init__(self, node_id, neighbors, budget):
        super().__init__(node_id, neighbors)
        self.budget = budget

    def on_round(self, round_number, inbox):
        if self.budget == 0:
            self.halt()
            return {}
        self.budget -= 1
        return {self.neighbors[0]: Message("tick", (self.budget,))}


class SinkForever(Node):
    def __init__(self, node_id, neighbors, lifetime):
        super().__init__(node_id, neighbors)
        self.lifetime = lifetime

    def on_round(self, round_number, inbox):
        self.lifetime -= 1
        if self.lifetime <= 0:
            self.halt()
        return {}


class TestEngineAccounting:
    def test_messages_per_round_sequence(self):
        network = Network({0: [1], 1: [0]})
        network.attach(CountingNode(0, (1,), 3))
        network.attach(SinkForever(1, (0,), 10))
        metrics = SynchronousEngine(network).run()
        # Rounds 1-3 send one message each; afterwards zero.
        assert metrics.messages_per_round[:3] == [1, 1, 1]
        assert all(count == 0 for count in metrics.messages_per_round[3:])
        assert metrics.messages == 3

    def test_bandwidth_cap_factor(self):
        assert default_bandwidth_cap(1024, factor=3) == 30

    def test_metrics_as_dict(self):
        network = Network({0: [1], 1: [0]})
        network.attach(CountingNode(0, (1,), 2))
        network.attach(SinkForever(1, (0,), 5))
        metrics = SynchronousEngine(network).run()
        data = metrics.as_dict()
        assert data["messages"] == 2
        assert data["rounds"] == metrics.rounds
        assert "mean_message_bits" in data

    def test_mean_message_bits_zero_when_silent(self):
        network = Network({0: [1], 1: [0]})
        network.attach(SinkForever(0, (1,), 1))
        network.attach(SinkForever(1, (0,), 1))
        metrics = SynchronousEngine(network).run()
        assert metrics.mean_message_bits == 0.0
