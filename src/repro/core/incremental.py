"""Warm-restart incremental re-solve over a versioned hypergraph.

The Koufogiannakis–Young covering/packing view says dual feasibility
survives edge arrivals, so a previous run's duals and levels remain a
valid starting point after a mutation; only the neighborhood the delta
invalidates needs re-tightening.  The exact-rational semantics of this
repo make an even stronger statement usable: connected components
evolve **independently** (every bid, tightness test and level increment
reads only quantities of the component itself — the global scale is
representation-only), so a solve decomposes into per-component
*fragments* whose standalone results merge bit-identically to the
monolithic run, provided the paper's global parameters are pinned.

Pinning is the subtle part.  ``beta``, the level cap ``z`` and the
Theorem 9 alpha are functions of the *global* rank ``f`` and degree
``Δ``; a component solved standalone sees only its local values.
:meth:`AlgorithmConfig.pinned` fixes the ambient globals on the config,
making a fragment solve exactly the component's slice of the monolithic
solve.  (The per-edge ``Δ(e)`` of the local alpha policy needs no
pinning: a component contains every edge incident to its vertices, so
local degrees already equal global ones.)

The pipeline:

* :func:`solve_state` — solve a snapshot decomposed into fragments and
  return a :class:`SolveState` handle (merged result + cached
  per-fragment results);
* :func:`resolve_incremental` — apply a :class:`GraphDelta` (or read
  one off a :class:`MutableHypergraph`), re-solve **only** the dirty
  components (those touching the delta, or whose component split or
  merged), reuse every clean fragment, and merge.  Only the dirty
  fragments' instances reach the spill ladder, whose lanes each pack
  their own group.  Falls back to a
  from-scratch decomposition when the mutation moved the global
  ``f``/``Δ`` (cached fragments were pinned to the old ambient) or when
  the invalidated region exceeds ``threshold`` of the edges.  The
  returned :attr:`CoverResult.warm` / :attr:`CoverResult.invalidated`
  report which path ran.

Results are **bit-identical** to a from-scratch solve of the mutated
snapshot on every compared field (cover, weight, duals, levels,
iterations, rounds, statistics) — the differential gates in
``tests/test_incremental.py`` and the mutation soak enforce this across
all executor lanes, including forced mid-resume spills.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm

from repro.core.batch import run_ladder
from repro.core.fastpath import run_fastpath
from repro.core.params import AlgorithmConfig
from repro.core.result import AlgorithmStats, CoverResult
from repro.core.runner import finalize_result
from repro.core.state import SolveState
from repro.exceptions import InvalidInstanceError
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.mutable import (
    GraphDelta,
    MutableHypergraph,
    apply_delta,
)
from repro.lp.scaled import ScaledDual

try:  # pragma: no cover - exercised implicitly by either branch
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = ["Fragment", "solve_state", "resolve_incremental"]

#: A fragment solver: takes ``[(instance, pinned_config), ...]`` and
#: returns the aligned standalone fastpath-family results (their duals
#: are :class:`ScaledDual`s).  The streaming session routes this
#: through its worker pool; the default solves in-process.
FragmentSolver = Callable[
    [list[tuple[Hypergraph, AlgorithmConfig]]], Sequence[CoverResult]
]


@dataclass(frozen=True)
class Fragment:
    """One connected component's cached standalone solve.

    ``vertices`` (ascending global ids) define the local id space:
    local vertex ``i`` is global ``vertices[i]``.  ``edge_ids`` are the
    component's global edge positions in the snapshot the fragment
    belongs to.  Isolated vertices travel as one edgeless fragment so
    the merged levels cover every vertex.
    """

    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]
    instance: Hypergraph
    result: CoverResult | None = None


def _components(
    hypergraph: Hypergraph,
) -> tuple[list[tuple[list[int], list[int]]], list[int]]:
    """Connected components (vertex ids, edge ids — both sorted) plus
    the isolated vertices, deterministically ordered by smallest
    member vertex.

    With numpy the vertices are labelled on the CSR arrays by hook and
    shortcut: each round hooks every member's root to the smallest root
    in its edge, then pointer-jumps to a fixpoint.  Labels only fall, so
    each ends as its component's smallest vertex, and stable sorts by
    label give :func:`_components_walk`'s lists in its order.
    """
    arrays = hypergraph._arrays() if hypergraph.num_edges else None
    if arrays is None:
        return _components_walk(hypergraph)
    cells, offsets = arrays
    starts = offsets[:-1]
    label = _np.arange(hypergraph.num_vertices)
    edge_of_cell = _np.repeat(_np.arange(hypergraph.num_edges), _np.diff(offsets))
    while True:
        roots = label[cells]
        smallest = _np.minimum.reduceat(roots, starts)[edge_of_cell]
        moving = smallest < roots
        if not moving.any():
            break
        _np.minimum.at(label, roots[moving], smallest[moving])
        jumped = label[label]
        while not _np.array_equal(jumped, label):
            label, jumped = jumped, jumped[jumped]
    degrees = _np.bincount(cells, minlength=hypergraph.num_vertices)
    members = _np.flatnonzero(degrees)
    members = members[_np.argsort(label[members], kind="stable")]
    edges = _np.argsort(label[cells[starts]], kind="stable")
    bounds = [
        [0, *(_np.flatnonzero(_np.diff(labels)) + 1).tolist(), labels.size]
        for labels in (label[members], label[cells[starts[edges]]])
    ]
    members, edges = members.tolist(), edges.tolist()
    components = [
        (members[a:b], edges[c:d])
        for a, b, c, d in zip(bounds[0], bounds[0][1:], bounds[1], bounds[1][1:])
    ]
    return components, _np.flatnonzero(degrees == 0).tolist()


def _components_walk(
    hypergraph: Hypergraph,
) -> tuple[list[tuple[list[int], list[int]]], list[int]]:
    """:func:`_components` by a depth-first walk over the tuple
    incidence: the numpy-less path and the reference."""
    incidence = hypergraph._ensure_incidence()
    members_of = hypergraph.edges
    visited = [False] * hypergraph.num_vertices
    components: list[tuple[list[int], list[int]]] = []
    isolated: list[int] = []
    for start in range(hypergraph.num_vertices):
        if visited[start]:
            continue
        visited[start] = True
        if not incidence[start]:
            isolated.append(start)
            continue
        stack = [start]
        vertices: list[int] = []
        edges: set[int] = set()
        while stack:
            vertex = stack.pop()
            vertices.append(vertex)
            for edge_id in incidence[vertex]:
                if edge_id in edges:
                    continue
                edges.add(edge_id)
                for member in members_of[edge_id]:
                    if not visited[member]:
                        visited[member] = True
                        stack.append(member)
        vertices.sort()
        components.append((vertices, sorted(edges)))
    return components, isolated


def _build_fragment(
    hypergraph: Hypergraph, vertices: Sequence[int], edge_ids: Sequence[int]
) -> Fragment:
    """A fragment (without result) for one component of ``hypergraph``."""
    local = {vertex: index for index, vertex in enumerate(vertices)}
    instance = Hypergraph._from_validated(
        len(vertices),
        tuple(
            tuple(local[vertex] for vertex in hypergraph.edge(edge_id))
            for edge_id in edge_ids
        ),
        tuple(hypergraph.weight(vertex) for vertex in vertices),
    )
    return Fragment(
        vertices=tuple(vertices), edge_ids=tuple(edge_ids), instance=instance
    )


def _fragments_of(hypergraph: Hypergraph) -> list[Fragment]:
    components, isolated = _components(hypergraph)
    fragments = [
        _build_fragment(hypergraph, vertices, edges)
        for vertices, edges in components
    ]
    if isolated:
        fragments.append(_build_fragment(hypergraph, isolated, ()))
    return fragments


def _run_jobs(
    jobs: list[tuple[Hypergraph, AlgorithmConfig]],
    *,
    lane: str,
    solver: FragmentSolver | None,
) -> list[CoverResult]:
    """Solve fragment jobs; verification happens once, on the merge."""
    if not jobs:
        return []
    if solver is not None:
        results = list(solver(jobs))
        if len(results) != len(jobs):
            raise InvalidInstanceError(
                f"fragment solver returned {len(results)} results "
                f"for {len(jobs)} jobs"
            )
        return results
    return run_ladder(
        [instance for instance, _ in jobs], jobs[0][1], verify=False,
        start=lane,
    )


def _merge(
    hypergraph: Hypergraph,
    config: AlgorithmConfig,
    fragments: Sequence[Fragment],
    *,
    verify: bool,
) -> CoverResult:
    """Fragment results recombined into the monolithic result.

    Component independence makes every rule exact: totals sum, maxima
    max (iterations and rounds are completion times, and the monolithic
    loop runs until its slowest component finishes), duals and levels
    scatter through the local-to-global maps, and the alpha span ranges
    over fragments that have edges (an edgeless fragment's default span
    must not pollute the merged one).  :func:`finalize_result` computes
    the weight and the certificate fresh on the full graph —
    fragment-level certificates would each certify against the pinned
    global ``f`` anyway.
    """
    cover: set[int] = set()
    levels = [0] * hypergraph.num_vertices
    iterations = 0
    rounds = 0
    total_raises = 0
    max_raises = 0
    total_stuck = 0
    max_stuck = 0
    total_halvings = 0
    max_level = 0
    alpha_min: Fraction | None = None
    alpha_max: Fraction | None = None
    for fragment in fragments:
        result = fragment.result
        iterations = max(iterations, result.iterations)
        rounds = max(rounds, result.rounds)
        for local in result.cover:
            cover.add(fragment.vertices[local])
        for local, level in enumerate(result.levels):
            levels[fragment.vertices[local]] = level
        stats = result.stats
        total_raises += stats.total_raise_events
        max_raises = max(max_raises, stats.max_raises_per_edge)
        total_stuck += stats.total_stuck_events
        max_stuck = max(max_stuck, stats.max_stuck_per_vertex_level)
        total_halvings += stats.total_halvings
        max_level = max(max_level, stats.max_level)
        if fragment.edge_ids:
            alpha_min = (
                result.alpha_min
                if alpha_min is None
                else min(alpha_min, result.alpha_min)
            )
            alpha_max = (
                result.alpha_max
                if alpha_max is None
                else max(alpha_max, result.alpha_max)
            )
    # One ScaledDual over the lcm of the fragments' scales: numerators
    # lifted and scattered, no Fraction built.
    scale = lcm(*(fragment.result.dual.scale for fragment in fragments))
    numerators = [0] * hypergraph.num_edges
    for fragment in fragments:
        dual = fragment.result.dual
        factor = scale // dual.scale
        for edge_id, numerator in zip(fragment.edge_ids, dual.numerators):
            numerators[edge_id] = numerator * factor
    return finalize_result(
        hypergraph,
        config,
        cover=frozenset(cover),
        dual=ScaledDual(scale, numerators),
        levels=tuple(levels),
        stats=AlgorithmStats(
            total_raise_events=total_raises,
            max_raises_per_edge=max_raises,
            total_stuck_events=total_stuck,
            max_stuck_per_vertex_level=max_stuck,
            total_halvings=total_halvings,
            max_level=max_level,
            level_cap=config.z(hypergraph.rank),
        ),
        alpha=[] if alpha_min is None else [alpha_min, alpha_max],
        iterations=iterations,
        rounds=rounds,
        metrics=None,
        verify=verify,
        dual_total=Fraction(sum(numerators), scale),
    )


def solve_state(
    hypergraph: Hypergraph,
    config: AlgorithmConfig | None = None,
    *,
    verify: bool = True,
    lane: str = "auto",
    solver: FragmentSolver | None = None,
    version: int | None = None,
) -> SolveState:
    """Solve a snapshot and return its warm-restart handle.

    The instance decomposes into connected-component fragments, each
    solved standalone under the config pinned to the snapshot's global
    ``f``/``Δ``; :attr:`SolveState.result` is the merged monolithic
    result (bit-identical to ``run_fastpath(hypergraph, config)``) and
    the fragments stay cached for :func:`resolve_incremental`.

    ``version`` ties the state to a :class:`MutableHypergraph` history
    so later calls can pass the store itself instead of a delta;
    ``solver`` overrides how fragment jobs run (e.g. through a
    session's worker pool); ``lane`` is the spill ladder's start rung
    (differential tests).
    """
    config = config if config is not None else AlgorithmConfig()
    fragments = _fragments_of(hypergraph)
    if not fragments:
        # n == 0: nothing to decompose; the trivial empty result.
        return SolveState(
            snapshot=hypergraph,
            config=config,
            version=version,
            fragments=(),
            result=run_fastpath(hypergraph, config, verify=verify),
        )
    pinned = config.pinned(hypergraph.rank, hypergraph.max_degree)
    results = _run_jobs(
        [(fragment.instance, pinned) for fragment in fragments],
        lane=lane,
        solver=solver,
    )
    fragments = tuple(
        replace(fragment, result=result)
        for fragment, result in zip(fragments, results)
    )
    return SolveState(
        snapshot=hypergraph,
        config=config,
        version=version,
        fragments=fragments,
        result=_merge(hypergraph, config, fragments, verify=verify),
    )


def resolve_incremental(
    state: SolveState,
    delta: GraphDelta | MutableHypergraph,
    *,
    threshold: float = 0.5,
    verify: bool = True,
    lane: str = "auto",
    solver: FragmentSolver | None = None,
) -> SolveState:
    """Re-solve after a mutation, reusing every clean fragment.

    ``delta`` is a :class:`GraphDelta` against ``state.snapshot`` — or
    the :class:`MutableHypergraph` itself, from which the coalesced
    delta since ``state.version`` is read.  A component is *dirty* iff
    it contains a touched vertex (member of an added/removed edge,
    reweighted, or newly added) or has no content-identical cached
    fragment; component moves are conservative by construction (every
    component created by a removal contains a removed edge's member;
    merges happen only through added edges), so a clean match is always
    sound.  Dirty fragments re-solve under the same pinned ambient;
    the rest reuse their cached results verbatim.

    Falls back to a from-scratch decomposition (``warm=False``) when
    the mutated global ``f``/``Δ`` differ from the base (the cache is
    pinned to the old ambient) or when the dirty edge count exceeds
    ``threshold * max(1, m)``.  Either way the merged result is
    bit-identical to a from-scratch solve of the mutated snapshot.
    """
    if isinstance(delta, MutableHypergraph):
        if state.version is None:
            raise InvalidInstanceError(
                "state has no version; pass delta_since(...) explicitly "
                "or create the state with solve_state(..., version=...)"
            )
        delta = delta.delta_since(state.version)
    if not isinstance(delta, GraphDelta):
        raise InvalidInstanceError(
            "resolve_incremental needs a GraphDelta (or MutableHypergraph)"
        )
    base = state.snapshot
    config = state.config
    mutated = apply_delta(base, delta)
    if mutated.rank != base.rank or mutated.max_degree != base.max_degree:
        # The cached fragments were solved under the base ambient
        # (f, Δ); the mutated globals differ, so nothing is reusable.
        fresh = solve_state(
            mutated,
            config,
            verify=verify,
            lane=lane,
            solver=solver,
            version=delta.version,
        )
        fresh.result = replace(
            fresh.result, warm=False, invalidated=mutated.num_edges
        )
        return fresh

    touched = delta.touched_vertices(base)
    cached = {fragment.vertices: fragment for fragment in state.fragments}
    components, isolated = _components(mutated)
    specs = [(vertices, edges) for vertices, edges in components]
    if isolated:
        specs.append((isolated, []))
    fragments: list[Fragment] = []
    dirty: list[int] = []
    invalidated = 0
    for index, (vertices, edge_ids) in enumerate(specs):
        key = tuple(vertices)
        old = cached.get(key)
        if (
            old is not None
            and touched.isdisjoint(key)
            and len(old.edge_ids) == len(edge_ids)
        ):
            # Clean: same vertex set, no touched member.  Content is
            # identical by construction — any edge/weight change inside
            # this component would put one of its vertices in
            # ``touched`` — so the cached solve is reused verbatim,
            # re-keyed to the new global edge positions, without
            # rebuilding the member/weight tuples to compare.
            fragments.append(replace(old, edge_ids=tuple(edge_ids)))
            continue
        fragments.append(_build_fragment(mutated, vertices, edge_ids))
        dirty.append(index)
        invalidated += len(edge_ids)

    if invalidated > threshold * max(1, mutated.num_edges):
        fresh = solve_state(
            mutated,
            config,
            verify=verify,
            lane=lane,
            solver=solver,
            version=delta.version,
        )
        fresh.result = replace(
            fresh.result, warm=False, invalidated=invalidated
        )
        return fresh

    pinned = config.pinned(mutated.rank, mutated.max_degree)
    results = _run_jobs(
        [(fragments[index].instance, pinned) for index in dirty],
        lane=lane,
        solver=solver,
    )
    for index, result in zip(dirty, results):
        fragments[index] = replace(fragments[index], result=result)
    if fragments:
        merged = _merge(mutated, config, fragments, verify=verify)
    else:  # n == 0: nothing to decompose; the trivial empty result.
        merged = run_fastpath(mutated, config, verify=verify)
    return SolveState(
        snapshot=mutated,
        config=config,
        version=delta.version,
        fragments=tuple(fragments),
        result=replace(merged, warm=True, invalidated=invalidated),
    )
