"""Directed tests: the local-alpha mechanism end to end, and engine
accounting details."""

from __future__ import annotations

from fractions import Fraction

import repro.core.fastpath as fastpath_module
import repro.core.lockstep as lockstep_module
from repro.congest.engine import SynchronousEngine, default_bandwidth_cap
from repro.congest.message import Message
from repro.congest.network import Network
from repro.congest.node import Node
from repro.core.fastpath import HAS_NUMPY, prepare_scaled_state
from repro.core.params import AlgorithmConfig, theorem9_alpha
from repro.core.solver import solve_mwhvc
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
