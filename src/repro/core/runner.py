"""Execution drivers: shared core construction and the CONGEST runner.

``build_cores`` instantiates the per-vertex / per-edge automata exactly
once for both executors, so algorithm behaviour cannot diverge between
them.  ``run_congest`` executes the protocol on the message-passing
engine (counting real communication rounds and message bits);
:func:`repro.core.lockstep.run_lockstep` reuses the same cores without
message objects for large sweeps.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction

from repro.congest.bipartite import build_covering_network
from repro.congest.engine import SynchronousEngine
from repro.congest.metrics import RunMetrics
from repro.congest.tracing import TraceRecorder
from repro.core.edge_logic import EdgeCore
from repro.core.nodes import EdgeProgram, VertexProgram
from repro.core.params import AlgorithmConfig, distinct_alphas, resolve_alpha
from repro.core.result import AlgorithmStats, CoverResult
from repro.core.vertex_logic import VertexCore
from repro.exceptions import AlgorithmError, InvalidInstanceError
from repro.hypergraph.hypergraph import Hypergraph
from repro.lp.duality import ApproximationCertificate

__all__ = [
    "build_cores",
    "run_congest",
    "run_many",
    "assemble_result",
    "finalize_result",
]


def run_many(
    hypergraphs,
    config: AlgorithmConfig,
    runner,
    *,
    verify: bool = True,
    jobs: int = 1,
    stream: bool = False,
) -> list[CoverResult]:
    """Run one executor over many instances.

    ``runner`` is any single-instance executor with the
    ``(hypergraph, config, *, verify)`` signature (``run_fastpath``,
    ``run_lockstep``).  A homogeneous fastpath workload — ``runner is
    run_fastpath``, the common case for CLI/API sweeps — is routed
    through :func:`repro.core.solver.solve_mwhvc_batch`, so it gets
    the shared-arena kernels (and, with ``jobs``, the multiprocess
    shards) for free while returning the bit-identical per-instance
    results a sequential loop would; ``stream=True`` further routes
    it through the work-stealing streaming session
    (:class:`~repro.core.stream.BatchSession`) for cost-skewed
    workloads.  Other runners execute one at a time (``jobs`` and
    ``stream`` are then ignored: the object-core executors hold
    unpicklable per-run state).
    """
    from repro.core.fastpath import run_fastpath

    instances = list(hypergraphs)
    if runner is run_fastpath:
        from repro.core.solver import solve_mwhvc_batch

        return solve_mwhvc_batch(
            instances, config=config, verify=verify, jobs=jobs,
            stream=stream,
        )
    return [
        runner(hypergraph, config, verify=verify)
        for hypergraph in instances
    ]


def build_cores(
    hypergraph: Hypergraph, config: AlgorithmConfig
) -> tuple[list[VertexCore], list[EdgeCore], Fraction | None]:
    """Create vertex/edge cores and the global alpha (None = local policy)."""
    rank = hypergraph.rank
    beta = config.beta(rank)
    z = config.z(rank)
    single = config.increment_mode == "single"
    if config.alpha_policy == "local":
        global_alpha: Fraction | None = None
    else:
        global_alpha = resolve_alpha(config, rank, hypergraph.max_degree)
    vertex_cores = [
        VertexCore(
            vertex,
            hypergraph.weight(vertex),
            hypergraph.incident_edges(vertex),
            beta=beta,
            z=z,
            single_increment=single,
            check_invariants=config.check_invariants,
        )
        for vertex in range(hypergraph.num_vertices)
    ]
    edge_cores = [
        EdgeCore(edge_id, members, single_increment=single)
        for edge_id, members in enumerate(hypergraph.edges)
    ]
    return vertex_cores, edge_cores, global_alpha


def finalize_result(
    hypergraph: Hypergraph,
    config: AlgorithmConfig,
    *,
    cover: frozenset[int],
    dual: Mapping[int, Fraction],
    levels: tuple[int, ...],
    stats: AlgorithmStats,
    alpha: Fraction | Sequence[Fraction],
    iterations: int,
    rounds: int,
    metrics: RunMetrics | None,
    verify: bool,
    dual_total: Fraction | None = None,
    lane: str | None = None,
) -> CoverResult:
    """Build (and optionally certify) a :class:`CoverResult` from raw values.

    Shared by every executor: the core-based drivers go through
    :func:`assemble_result`, which extracts these values from the
    vertex/edge automata; the array-based fastpath and batch executors
    call this directly with their integer state, the dual as a
    :class:`~repro.lp.scaled.ScaledDual`.  ``dual_total`` lets
    scaled-integer executors pass the packing total they already hold
    as one numerator-over-scale pair instead of re-summing ``m``
    Fractions.  ``alpha`` is the instance's alpha as iteration 0 left
    it (see :func:`~repro.core.params.distinct_alphas`): one Fraction,
    or one per edge.  ``lane`` records which arithmetic lane (int64 /
    two-limb / three-limb / four-limb / bigint) produced the raw
    values — metadata the scaled executors report for observability.
    """
    weight = hypergraph.cover_weight(cover)
    if dual_total is None:
        dual_total = sum(dual.values(), Fraction(0))
    certificate = None
    if verify:
        certificate = ApproximationCertificate.verify(
            hypergraph, cover, dual, max(1, hypergraph.rank), config.epsilon
        )
    span = distinct_alphas(alpha) or [Fraction(2)]
    return CoverResult(
        cover=cover,
        weight=weight,
        rank=hypergraph.rank,
        epsilon=config.epsilon,
        iterations=iterations,
        rounds=rounds,
        dual=dual,
        dual_total=dual_total,
        certificate=certificate,
        levels=levels,
        stats=stats,
        metrics=metrics,
        alpha_min=min(span),
        alpha_max=max(span),
        lane=lane,
    )


def assemble_result(
    hypergraph: Hypergraph,
    config: AlgorithmConfig,
    vertex_cores: list[VertexCore],
    edge_cores: list[EdgeCore],
    *,
    iterations: int,
    rounds: int,
    metrics: RunMetrics | None,
    verify: bool,
) -> CoverResult:
    """Collect cores into a :class:`CoverResult`, verifying the certificate."""
    uncovered = [core.edge_id for core in edge_cores if not core.covered]
    if uncovered:
        raise AlgorithmError(
            f"execution finished with uncovered edges {uncovered[:5]}"
        )
    cover = frozenset(
        core.vertex for core in vertex_cores if core.in_cover
    )
    dual = {core.edge_id: core.delta for core in edge_cores}
    levels = tuple(core.level for core in vertex_cores)
    z = config.z(hypergraph.rank)
    stats = AlgorithmStats(
        total_raise_events=sum(core.raise_count for core in edge_cores),
        max_raises_per_edge=max(
            (core.raise_count for core in edge_cores), default=0
        ),
        total_stuck_events=sum(
            core.total_stuck_events for core in vertex_cores
        ),
        max_stuck_per_vertex_level=max(
            (
                max(core.stuck_by_level.values(), default=0)
                for core in vertex_cores
            ),
            default=0,
        ),
        total_halvings=sum(core.halving_count for core in edge_cores),
        max_level=max(levels, default=0),
        level_cap=z,
    )
    return finalize_result(
        hypergraph,
        config,
        cover=cover,
        dual=dual,
        levels=levels,
        stats=stats,
        alpha=[core.alpha for core in edge_cores],
        iterations=iterations,
        rounds=rounds,
        metrics=metrics,
        verify=verify,
    )


def run_congest(
    hypergraph: Hypergraph,
    config: AlgorithmConfig | None = None,
    *,
    verify: bool = True,
    strict_bandwidth: bool = False,
    bandwidth_cap_bits: int | None = None,
    trace: TraceRecorder | None = None,
    max_rounds: int | None = None,
) -> CoverResult:
    """Run Algorithm MWHVC on the CONGEST engine.

    Parameters mirror :class:`~repro.congest.engine.SynchronousEngine`;
    ``max_rounds`` defaults to the configured iteration cap times the
    schedule's rounds-per-iteration (plus initialization).  Vertex
    weights must be integers: the protocol sends them as integer
    message fields.
    """
    if not hypergraph.weights_all_int:
        raise InvalidInstanceError(
            "the CONGEST engine sends vertex weights as integer message "
            "fields, so it needs integer weights; solve fractional "
            "weights with executor='lockstep' or 'fastpath'"
        )
    config = config or AlgorithmConfig()
    vertex_cores, edge_cores, global_alpha = build_cores(hypergraph, config)
    rank = hypergraph.rank
    vertex_count = hypergraph.num_vertices

    vertex_programs: list[VertexProgram] = []

    def vertex_factory(vertex: int, neighbors: tuple[int, ...]) -> VertexProgram:
        program = VertexProgram(
            vertex,
            neighbors,
            vertex_cores[vertex],
            config=config,
            rank=rank,
            weight=hypergraph.weight(vertex),
            global_alpha=global_alpha,
            vertex_count=vertex_count,
        )
        vertex_programs.append(program)
        return program

    def edge_factory(edge_id: int, neighbors: tuple[int, ...]) -> EdgeProgram:
        return EdgeProgram(
            vertex_count + edge_id,
            neighbors,
            edge_cores[edge_id],
            config=config,
            rank=rank,
            global_alpha=global_alpha,
        )

    network, _ = build_covering_network(
        hypergraph, vertex_factory, edge_factory
    )
    engine = SynchronousEngine(
        network,
        bandwidth_cap_bits=bandwidth_cap_bits,
        strict_bandwidth=strict_bandwidth,
        trace=trace,
    )
    if max_rounds is None:
        max_rounds = 2 + config.rounds_per_iteration * config.max_iterations + 2
    metrics = engine.run(max_rounds=max_rounds)
    iterations = max(
        (program.iterations_begun for program in vertex_programs), default=0
    )
    return assemble_result(
        hypergraph,
        config,
        vertex_cores,
        edge_cores,
        iterations=iterations,
        rounds=metrics.rounds,
        metrics=metrics,
        verify=verify,
    )
