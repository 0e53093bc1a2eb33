"""Public solver API for the covering algorithms.

* :func:`solve_mwhvc` — the paper's main algorithm: a deterministic
  distributed ``(f + eps)``-approximation for Minimum Weight Hypergraph
  Vertex Cover (Theorem 9).
* :func:`solve_mwhvc_f_approx` — Corollary 10: an exact
  ``f``-approximation obtained by setting ``eps = 1/(n·w_max + 1)``.
* :func:`solve_mwvc` — the graph case (``f = 2``), Table 1's setting.
* :func:`solve_set_cover` — weighted Set Cover via the Section 2
  equivalence (set ids are vertex ids, element ids are hyperedge ids).
* :func:`solve_mwhvc_batch` — K independent instances advanced together
  over one shared CSR arena, bit-identical to K sequential
  ``executor="fastpath"`` runs.

All functions return a :class:`~repro.core.result.CoverResult` whose
certificate (when ``verify=True``, the default) is checked exactly.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from numbers import Rational
from typing import Literal

from repro.core.batch import run_fastpath_batch
from repro.core.fastpath import run_fastpath
from repro.core.lockstep import run_lockstep
from repro.core.params import AlgorithmConfig
from repro.core.result import CoverResult
from repro.core.runner import run_congest
from repro.exceptions import InvalidInstanceError
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.setcover import SetCoverInstance

__all__ = [
    "solve_mwhvc",
    "solve_mwhvc_batch",
    "solve_mwhvc_f_approx",
    "solve_mwvc",
    "solve_set_cover",
    "f_approx_epsilon",
]

Executor = Literal["lockstep", "congest", "fastpath"]


def _execute(
    hypergraph: Hypergraph,
    config: AlgorithmConfig,
    executor: Executor,
    verify: bool,
    **executor_options,
) -> CoverResult:
    if executor in ("lockstep", "fastpath"):
        observer = executor_options.pop("observer", None)
        if executor == "fastpath":
            lane = executor_options.pop("lane", "auto")
        if executor_options:
            raise InvalidInstanceError(
                f"options {sorted(executor_options)} do not apply to "
                f"executor={executor!r} (lane= is fastpath-only; other "
                "options are congest-only)"
            )
        if executor == "fastpath":
            return run_fastpath(
                hypergraph, config, verify=verify, observer=observer,
                lane=lane,
            )
        return run_lockstep(hypergraph, config, verify=verify, observer=observer)
    if executor == "congest":
        if "observer" in executor_options:
            raise InvalidInstanceError(
                "observer is supported by the lockstep/fastpath executors "
                "only (the engine's metrics/tracing cover the congest path)"
            )
        if "lane" in executor_options:
            raise InvalidInstanceError(
                "lane forcing applies to executor='fastpath' only"
            )
        return run_congest(
            hypergraph, config, verify=verify, **executor_options
        )
    raise InvalidInstanceError(
        "executor must be 'lockstep', 'fastpath' or 'congest', "
        f"got {executor!r}"
    )


def solve_mwhvc(
    hypergraph: Hypergraph,
    epsilon: Rational | int | float | str = 1,
    *,
    config: AlgorithmConfig | None = None,
    executor: Executor = "lockstep",
    verify: bool = True,
    **congest_options,
) -> CoverResult:
    """Compute an ``(f + eps)``-approximate minimum weight vertex cover.

    Parameters
    ----------
    hypergraph:
        The instance; its rank is the ``f`` of the guarantee.
    epsilon:
        Approximation slack in ``(0, 1]``.  Ignored when an explicit
        ``config`` is passed (the config's epsilon wins).
    config:
        Full algorithm configuration; defaults to the paper's headline
        settings (spec schedule, multi increments, Theorem 9 alpha).
    executor:
        ``"lockstep"`` (object cores, introspectable), ``"fastpath"``
        (scaled-integer arrays, fastest, identical results) or
        ``"congest"`` (message-passing engine with round/bit metrics).
        All three are bit-identical on covers, duals, iterations and
        rounds — the differential test suite enforces it.
    verify:
        Check the Claim 20 certificate on the result (exact; on by
        default).
    congest_options:
        Passed to :func:`repro.core.runner.run_congest` (e.g.
        ``strict_bandwidth=True``, ``trace=...``).  For
        ``executor="fastpath"``, the single option ``lane=`` forces
        the entry point of the kernel-lane spill ladder
        (``"auto"`` / ``"int64"`` / ``"two-limb"`` / ``"three-limb"``
        / ``"bigint"``; see
        :mod:`repro.core.kernels`) — results are bit-identical on
        every lane, and the completing lane lands in
        ``CoverResult.lane``.
    """
    if config is None:
        config = AlgorithmConfig(epsilon=Fraction(epsilon))
    return _execute(hypergraph, config, executor, verify, **congest_options)


def solve_mwhvc_batch(
    hypergraphs: Iterable[Hypergraph],
    epsilon: Rational | int | float | str = 1,
    *,
    config: AlgorithmConfig | None = None,
    verify: bool = True,
    jobs: int = 1,
    stream: bool = False,
) -> list[CoverResult]:
    """Solve K independent MWHVC instances as one batched execution.

    Instances are packed into a shared CSR arena (see
    :mod:`repro.core.batch`) and advanced together, one vectorized
    sweep per iteration, masking instances that have already halted.
    Results are **bit-identical** to solving each instance with
    ``solve_mwhvc(..., executor="fastpath")`` — same covers, duals,
    iterations, rounds, levels and statistics, in input order — so a
    batch is purely a throughput optimization for request waves of
    many small-to-medium instances.

    Parameters
    ----------
    hypergraphs:
        The instances, in the order results are returned.
    epsilon / config / verify:
        As in :func:`solve_mwhvc`; the single config applies to every
        instance (rank-derived quantities like ``beta`` and ``z`` are
        still per-instance).
    jobs:
        Number of worker processes (see :mod:`repro.core.parallel`):
        ``1`` (the default) runs the arena in-process, ``N > 1``
        shards the batch across a persistent pool of ``N`` workers
        (cost-model-balanced, shared-memory transport), and ``0`` (or
        any non-positive value) sizes the pool to the machine.  The
        shards run through a supervised
        :class:`~repro.core.stream.BatchSession`, so a crashed or hung
        worker costs a retry, never a result.  Results are identical
        for every ``jobs`` value — parallelism only shows up in
        ``CoverResult.worker`` and wall-clock time.
    stream:
        Admit the instances to the session one at a time
        (micro-batched shards, work-stealing scheduler) instead of as
        static cost-model shards cut up front.  Purely a scheduling
        change — results stay bit-identical, and both paths share the
        same supervision; useful with ``jobs > 1`` when the batch is
        cost-skewed and the static cost model would misbalance the
        shards.  Streaming always runs over the worker pool — with
        ``jobs=1`` that is a single worker process (correct but pure
        overhead); use ``jobs=0`` (machine-sized) or ``jobs>1`` when
        streaming for speed.
    """
    if config is None:
        config = AlgorithmConfig(epsilon=Fraction(epsilon))
    if stream:
        from repro.core.stream import BatchSession

        with BatchSession(config=config, jobs=jobs, verify=verify) as session:
            tickets = [session.submit(hypergraph) for hypergraph in hypergraphs]
            return [ticket.result() for ticket in tickets]
    if jobs == 1:
        return run_fastpath_batch(hypergraphs, config, verify=verify)
    from repro.core.parallel import run_fastpath_batch_parallel

    return run_fastpath_batch_parallel(
        hypergraphs, config, verify=verify, jobs=jobs
    )


def f_approx_epsilon(hypergraph: Hypergraph) -> Fraction:
    """The epsilon that turns ``(f + eps)`` into an exact ``f``-approximation.

    Corollary 10 uses ``eps = 1/(nW)``.  We take
    ``eps = 1/(n·w_max + 1)``: then ``eps * OPT_frac < 1`` (the
    fractional optimum is below ``n·w_max + 1``), so
    ``w(C) < f·OPT + 1`` and integrality of weights gives
    ``w(C) <= f·OPT``.
    """
    if hypergraph.num_vertices == 0:
        return Fraction(1)
    return Fraction(
        1, hypergraph.num_vertices * max(hypergraph.weights) + 1
    )


def solve_mwhvc_f_approx(
    hypergraph: Hypergraph,
    *,
    config: AlgorithmConfig | None = None,
    executor: Executor = "lockstep",
    verify: bool = True,
    **congest_options,
) -> CoverResult:
    """Corollary 10: a deterministic ``f``-approximation in ``O(f log n)`` rounds."""
    epsilon = f_approx_epsilon(hypergraph)
    if config is None:
        config = AlgorithmConfig(epsilon=epsilon)
    else:
        config = config.with_epsilon(epsilon)
    return _execute(hypergraph, config, executor, verify, **congest_options)


def solve_mwvc(
    graph: Hypergraph,
    epsilon: Rational | int | float | str = 1,
    **options,
) -> CoverResult:
    """Weighted Vertex Cover on a graph (every edge has <= 2 vertices).

    A thin wrapper over :func:`solve_mwhvc` that validates the rank, so
    callers reproducing Table 1 cannot accidentally feed hypergraphs.
    """
    if graph.rank > 2:
        raise InvalidInstanceError(
            f"solve_mwvc expects a graph (rank <= 2), got rank {graph.rank}"
        )
    return solve_mwhvc(graph, epsilon, **options)


def solve_set_cover(
    instance: SetCoverInstance,
    epsilon: Rational | int | float | str = 1,
    **options,
) -> CoverResult:
    """Weighted Set Cover via the Section 2 equivalence.

    The result's ``cover`` contains *set ids*; the guarantee is
    ``f + eps`` where ``f`` is the maximum element frequency.
    """
    return solve_mwhvc(instance.to_hypergraph(), epsilon, **options)
