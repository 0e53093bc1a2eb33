"""Failure-injection tests: the protocol detects malformed behaviour.

The MWHVC node programs validate every message they receive; these
tests wire adversarial nodes into otherwise-correct networks and assert
the engine surfaces :class:`ProtocolViolationError` (or the relevant
bandwidth/limit error) instead of silently corrupting state — the
defensive posture a distributed-systems library needs even in a
synchronous reliable model.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.congest.bipartite import CoveringNetworkMap, build_covering_network
from repro.congest.engine import SynchronousEngine
from repro.congest.message import Message
from repro.congest.node import Node
from repro.core.edge_logic import EdgeCore
from repro.core.nodes import EdgeProgram, VertexProgram
from repro.core.params import AlgorithmConfig
from repro.core.runner import build_cores
from repro.exceptions import ProtocolViolationError, RoundLimitExceededError
from repro.hypergraph.hypergraph import Hypergraph


def build_instance() -> Hypergraph:
    return Hypergraph(
        4, [(0, 1), (1, 2, 3), (0, 3)], weights=[2, 5, 1, 4]
    )


class GarbageSender(Node):
    """Replaces a vertex: floods neighbors with an unknown message kind."""

    def on_round(self, round_number, inbox):
        if round_number > 3:
            self.halt()
            return {}
        return self.broadcast(Message("garbage", (round_number,)))


class SilentVertex(Node):
    """Replaces a vertex: never sends anything, never halts."""

    def on_round(self, round_number, inbox):
        return {}


class SilentAfterInit(Node):
    """Replaces a vertex: plays iteration 0 correctly, then stalls."""

    def on_round(self, round_number, inbox):
        if round_number == 1:
            return self.broadcast(
                Message("init", (5, len(self.neighbors)))
            )
        return {}


def run_with_bad_vertex(bad_factory, max_rounds=200, bad_vertices=(1,)):
    hypergraph = build_instance()
    config = AlgorithmConfig(epsilon=Fraction(1, 2))
    vertex_cores, edge_cores, global_alpha = build_cores(hypergraph, config)

    def vertex_factory(vertex, neighbors):
        if vertex in bad_vertices:
            return bad_factory(vertex, neighbors)
        return VertexProgram(
            vertex,
            neighbors,
            vertex_cores[vertex],
            config=config,
            rank=hypergraph.rank,
            weight=hypergraph.weight(vertex),
            global_alpha=global_alpha,
            vertex_count=hypergraph.num_vertices,
        )

    def edge_factory(edge_id, neighbors):
        return EdgeProgram(
            hypergraph.num_vertices + edge_id,
            neighbors,
            edge_cores[edge_id],
            config=config,
            rank=hypergraph.rank,
            global_alpha=global_alpha,
        )

    network, _ = build_covering_network(
        hypergraph, vertex_factory, edge_factory
    )
    return SynchronousEngine(network).run(max_rounds=max_rounds)


class TestAdversarialNodes:
    def test_garbage_kind_detected_by_edge(self):
        with pytest.raises(ProtocolViolationError):
            run_with_bad_vertex(GarbageSender)

    def test_silent_vertex_detected_as_missing_member(self):
        # Edges expect an init from every member in the same round; a
        # completely silent vertex is caught immediately.
        with pytest.raises(ProtocolViolationError, match="missing"):
            run_with_bad_vertex(SilentVertex, max_rounds=60)

    def test_one_stalling_vertex_detected_as_partial_phase(self):
        # Playing iteration 0 then going silent leaves its edges with a
        # partial phase-A inbox — detected, not silently tolerated.
        with pytest.raises(ProtocolViolationError, match="expected"):
            run_with_bad_vertex(SilentAfterInit, max_rounds=60)

    def test_all_vertices_stalling_hits_round_limit(self):
        # When an entire phase stalls (no messages at all), nothing is
        # detectable locally; the engine's round limit is the backstop
        # and no node ever produces a bogus cover.
        with pytest.raises(RoundLimitExceededError):
            run_with_bad_vertex(
                SilentAfterInit, max_rounds=60, bad_vertices=(0, 1, 2, 3)
            )

    def test_edge_program_rejects_wrong_phase_kind(self):
        core = EdgeCore(0, (0, 1))
        program = EdgeProgram(
            2,
            (0, 1),
            core,
            config=AlgorithmConfig(),
            rank=2,
            global_alpha=Fraction(2),
        )
        with pytest.raises(ProtocolViolationError):
            program.on_round(
                2,
                {0: Message("flag", (True,)), 1: Message("flag", (True,))},
            )

    def test_edge_program_rejects_missing_member(self):
        core = EdgeCore(0, (0, 1))
        program = EdgeProgram(
            2,
            (0, 1),
            core,
            config=AlgorithmConfig(),
            rank=2,
            global_alpha=Fraction(2),
        )
        with pytest.raises(ProtocolViolationError, match="missing"):
            program.on_round(2, {0: Message("init", (3, 1))})

    def test_vertex_program_rejects_unknown_reply(self):
        hypergraph = Hypergraph(1, [(0,)])
        config = AlgorithmConfig()
        cores, _, alpha = build_cores(hypergraph, config)
        program = VertexProgram(
            0,
            (1,),
            cores[0],
            config=config,
            rank=1,
            weight=1,
            global_alpha=alpha,
            vertex_count=1,
        )
        program.on_round(1, {})  # sends init
        with pytest.raises(ProtocolViolationError):
            program.on_round(3, {1: Message("covered")})


class TestCoveringNetworkMap:
    def test_id_translation(self):
        hypergraph = build_instance()
        mapping = CoveringNetworkMap(hypergraph)
        assert mapping.vertex_node(2) == 2
        assert mapping.edge_node(0) == 4
        assert mapping.is_vertex_node(3)
        assert not mapping.is_vertex_node(4)
        assert mapping.to_vertex(1) == 1
        assert mapping.to_edge(5) == 1

    def test_translation_errors(self):
        mapping = CoveringNetworkMap(build_instance())
        with pytest.raises(ValueError):
            mapping.to_vertex(6)
        with pytest.raises(ValueError):
            mapping.to_edge(2)

    def test_built_network_shape(self):
        hypergraph = build_instance()
        config = AlgorithmConfig()
        vertex_cores, edge_cores, alpha = build_cores(hypergraph, config)

        def vertex_factory(vertex, neighbors):
            return VertexProgram(
                vertex,
                neighbors,
                vertex_cores[vertex],
                config=config,
                rank=hypergraph.rank,
                weight=hypergraph.weight(vertex),
                global_alpha=alpha,
                vertex_count=hypergraph.num_vertices,
            )

        def edge_factory(edge_id, neighbors):
            return EdgeProgram(
                hypergraph.num_vertices + edge_id,
                neighbors,
                edge_cores[edge_id],
                config=config,
                rank=hypergraph.rank,
                global_alpha=alpha,
            )

        network, mapping = build_covering_network(
            hypergraph, vertex_factory, edge_factory
        )
        assert network.num_nodes == (
            hypergraph.num_vertices + hypergraph.num_edges
        )
        assert network.num_links == sum(
            len(edge) for edge in hypergraph.edges
        )
        # Edge node 1 (hyperedge (1,2,3)) links exactly its members.
        assert network.neighbors(mapping.edge_node(1)) == (1, 2, 3)


# ----------------------------------------------------------------------
# Transport-layer injection: malformed worker results, damaged arenas
# ----------------------------------------------------------------------
#
# The same defensive posture applies one layer down, on the
# parent<->worker wire: a worker result payload that does not match
# the wire format, or an arena buffer truncated/bit-flipped in shared
# memory, must surface as a *typed* transport error the scheduler can
# recover from -- never decode into a plausible wrong result.


class TestTransportInjection:
    def _arena_bytes(self):
        from repro.hypergraph.csr import pack_arena
        from repro.hypergraph.store import encode_arena

        arena = pack_arena([build_instance(), build_instance()])
        return arena, encode_arena(arena)

    def test_arena_roundtrip_is_exact(self):
        from repro.hypergraph.store import decode_arena

        arena, raw = self._arena_bytes()
        rebuilt = decode_arena(raw)
        assert rebuilt.vertex_offset == arena.vertex_offset
        assert rebuilt.edge_offset == arena.edge_offset
        assert rebuilt == arena  # by value, whatever the slab type

    def test_truncated_arena_raises_typed_error(self):
        from repro.exceptions import ArenaStoreError
        from repro.hypergraph.store import decode_arena

        arena, raw = self._arena_bytes()
        for cut in (0, 7, 23, len(raw) // 2, len(raw) - 1):
            with pytest.raises(ArenaStoreError):
                decode_arena(raw[:cut])

    def test_bitflipped_arena_raises_typed_error(self):
        from repro.exceptions import ArenaStoreError
        from repro.hypergraph.store import decode_arena

        arena, raw = self._arena_bytes()
        # Flip one byte in every region: magic, length, crc, header,
        # last section.
        for position in (0, 8, 16, 24, len(raw) - 1):
            damaged = bytearray(raw)
            damaged[position] ^= 0x5A
            with pytest.raises(ArenaStoreError):
                decode_arena(bytes(damaged))

    def test_headerless_buffer_raises_typed_error(self):
        from repro.exceptions import ArenaStoreError
        from repro.hypergraph.store import decode_arena

        # A buffer without the container magic must be refused, not
        # misparsed with its first word as a payload length.
        with pytest.raises(ArenaStoreError):
            decode_arena(b"\x02" + b"\x00" * 63)

    def test_malformed_worker_result_raises_typed_error(self):
        from repro.core.parallel import (
            _RESULT_WIRE_FIELDS,
            _decode_result,
            _encode_result,
        )
        from repro.core.solver import solve_mwhvc
        from repro.exceptions import WorkerResultError
        from repro.lp.scaled import ScaledDual

        result = solve_mwhvc(
            build_instance(), config=AlgorithmConfig(epsilon=Fraction(1, 2))
        )
        wire = _encode_result(result)
        assert len(wire) == _RESULT_WIRE_FIELDS
        rebuilt = _decode_result(wire, worker=0)
        assert rebuilt.cover == result.cover
        assert rebuilt.weight == result.weight
        assert rebuilt == result
        # A fastpath result's dual travels as its (scale, numerators).
        scaled = solve_mwhvc(
            build_instance(),
            config=AlgorithmConfig(epsilon=Fraction(1, 2)),
            executor="fastpath",
        )
        scaled_wire = _encode_result(scaled)
        rebuilt = _decode_result(scaled_wire, worker=0)
        assert rebuilt == scaled and rebuilt.dual == result.dual
        assert isinstance(rebuilt.dual, ScaledDual)
        dual_field = next(
            position
            for position, field in enumerate(scaled_wire)
            if field == (scaled.dual.scale, scaled.dual.numerators)
        )

        def with_dual(scale, numerators):
            return (
                scaled_wire[:dual_field]
                + ((scale, numerators),)
                + scaled_wire[dual_field + 1:]
            )

        numerators = scaled.dual.numerators
        # Wrong container, wrong arity, garbage fields, malformed
        # (S, D) pairs: all typed.
        for bad in (
            None,
            [],
            (),
            wire[:-1],
            wire + (0,),
            ("junk",) * _RESULT_WIRE_FIELDS,
            with_dual(0, numerators),
            with_dual(-scaled.dual.scale, numerators),
            with_dual(float(scaled.dual.scale), numerators),
            with_dual(str(scaled.dual.scale), numerators),
            with_dual(scaled.dual.scale, numerators[:-1] + (1.5,)),
            with_dual(scaled.dual.scale, numerators[:-1] + ("1",)),
        ):
            with pytest.raises(WorkerResultError):
                _decode_result(bad, worker=0)

    def test_transport_errors_are_repro_errors(self):
        from repro.exceptions import (
            ArenaTransportError,
            ReproError,
            TransportError,
            WorkerResultError,
        )

        assert issubclass(ArenaTransportError, TransportError)
        assert issubclass(WorkerResultError, TransportError)
        assert issubclass(TransportError, ReproError)
        assert issubclass(TransportError, RuntimeError)

    def test_corrupted_shipment_recovers_bit_identical(self):
        """End to end: a chaos plan ships a container whose frame
        checksum is flipped; the worker refuses it with a typed
        failure, a retry recovers the shard and the caller still sees
        solo bits."""
        from repro.core.faults import FaultPlan
        from repro.core.parallel import shutdown_pool
        from repro.core.solver import solve_mwhvc
        from repro.core.stream import BatchSession
        from repro.hypergraph.generators import (
            mixed_rank_hypergraph,
            uniform_weights,
        )

        config = AlgorithmConfig(epsilon=Fraction(1, 3))
        batch = [
            mixed_rank_hypergraph(
                10 + seed, 14 + seed, 3, seed=seed,
                weights=uniform_weights(10 + seed, 30, seed=seed + 7),
            )
            for seed in range(4)
        ]
        plan = FaultPlan(seed=5)
        plan.force_ship("corrupt")
        try:
            with BatchSession(
                config, jobs=2, max_batch=2, fault_plan=plan
            ) as session:
                tickets = [session.submit(h) for h in batch]
                results = [t.result(timeout=120) for t in tickets]
                stats = dict(session.stats)
            assert plan.fired.get("corrupt") == 1
            assert stats["transport_errors"] >= 1
            assert stats["retries"] >= 1
            for hypergraph, result in zip(batch, results):
                solo = solve_mwhvc(
                    hypergraph, config=config, executor="fastpath"
                )
                assert result.cover == solo.cover
                assert result.weight == solo.weight
        finally:
            shutdown_pool()
