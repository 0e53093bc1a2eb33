"""Batched fastpath executor: many MWHVC instances, one CSR arena.

Serving request waves means solving many *independent* small-to-medium
instances per call, and the per-instance dispatch overhead of running
:func:`repro.core.fastpath.run_fastpath` in a loop — one iteration
loop and one set of numpy kernel launches per instance — dominates
once instances are small.  Algorithm MWHVC is uniform across instances
(the same (2+eps)-style transition rules apply to every one), so a
single vectorized sweep can advance a whole batch at once:

* :func:`repro.hypergraph.csr.pack_arena` concatenates the K instances
  into one shared CSR arena (disjoint global vertex/edge id ranges with
  per-instance offset tables);
* the sweep engine itself is the shared kernel layer of
  :class:`repro.core.kernels.LaneRun` — the same guarded machine-width
  kernels the single-instance fastpath loop uses since PR 3 — with
  instances that have already halted masked out of the live index
  sets;
* the transition *formulas* are the same ``*_scaled`` pure functions
  every scaled executor uses, and iteration 0 is the shared
  :func:`repro.core.fastpath.prepare_scaled_state`.

Exactness is non-negotiable: results must be **bit-identical** to K
sequential ``executor="fastpath"`` runs.  Eligible instances therefore
run in an ``int64`` arena only while the conservative headroom bound
of :func:`repro.core.kernels.scale_limit` guarantees that no sweep
intermediate can overflow; instances that outgrow int64 — up front or
mid-run — step down the spill ladder instead of erroring: one arena
per machine lane (``kernels.MACHINE_LANES``: int64, the two-limb
~128-bit lane, the three-limb ~192-bit lane) admits progressively
larger scale / alpha / weight regimes, and anything beyond the widest
machine lane (or structurally ineligible: no numpy, fractional alphas,
Appendix C increments, checked mode) is solved by the scalar fastpath
executor, whose unbounded Python integers implement the identical
transitions.  Mid-run spills *carry* the instance's live scaled state
across the lane boundary (see
:meth:`repro.core.kernels.LaneRun._extract_carry`): each wider arena
and the big-int loop resume from the interrupted iteration, never
replaying finished work.  Any lane, same bits — the differential
tests in ``tests/test_batch_executor.py`` and
``tests/test_kernel_lanes.py`` enforce it instance by instance.

For multi-core scaling, :mod:`repro.core.parallel` shards a batch
across a persistent worker pool (``solve_mwhvc_batch(..., jobs=N)``),
running this module's executor inside each worker.
"""

from __future__ import annotations

from repro.core import kernels
from repro.core.fastpath import (
    HAS_NUMPY,
    prepare_scaled_state,
    run_fastpath,
)
from repro.core.kernels import (
    MACHINE_LANES,
    LaneRun,
    finalize_lane_instance,
    headroom_factor,
    lane_eligibility,
    lane_ops,
)
from repro.core.lockstep import empty_instance_rounds
from repro.core.params import AlgorithmConfig
from repro.core.result import AlgorithmStats, CoverResult
from repro.core.runner import finalize_result
from repro.hypergraph.csr import slice_arena
from repro.hypergraph.hypergraph import Hypergraph
from repro.lp.scaled import ScaledDual

__all__ = ["run_fastpath_batch", "arena_eligibility"]

#: Override for the int64 arena's headroom budget.  ``None`` (the
#: default) defers to ``kernels.INT64_HEADROOM_BITS`` at call time, so
#: the solo fastpath and the batch arena always agree on the budget;
#: tests shrink this module attribute to force arena-only spills onto
#: the wider lanes.
_HEADROOM_BITS: int | None = None


def _int64_headroom_bits() -> int:
    return (
        _HEADROOM_BITS
        if _HEADROOM_BITS is not None
        else kernels.INT64_HEADROOM_BITS
    )


def arena_eligibility(
    hypergraph: Hypergraph,
    config: AlgorithmConfig,
    state=None,
) -> tuple[bool, str]:
    """Whether the int64 arena lane can run this instance exactly.

    Returns ``(eligible, reason)``; ``reason`` names the first failed
    requirement (or is ``"ok"``).  ``state`` may pass a precomputed
    :class:`~repro.core.fastpath.ScaledState` to avoid recomputing
    iteration 0.  Never raises on instances it cannot bound (e.g.
    fractional weights whose scaled range exceeds the headroom): those
    are simply ineligible and take a wider lane.
    """
    if not HAS_NUMPY:
        return False, "numpy unavailable"
    if hypergraph.num_edges == 0:
        return False, "empty instance (solved directly)"
    if state is None:
        state = prepare_scaled_state(hypergraph, config)
    return lane_eligibility(
        hypergraph,
        config,
        state,
        lane="int64",
        headroom_bits=_int64_headroom_bits(),
    )


def _scale_limit(
    hypergraph: Hypergraph, config: AlgorithmConfig, state
) -> int:
    """Largest scale keeping every int64 sweep intermediate in bounds.

    Delegates to :func:`repro.core.kernels.scale_limit` with this
    module's (test-adjustable) headroom budget.
    """
    rank = hypergraph.rank
    return kernels.scale_limit(
        hypergraph.max_weight,
        headroom_factor(config, rank, state),
        config.z(rank),
        _int64_headroom_bits(),
    )


def run_fastpath_batch(
    hypergraphs,
    config: AlgorithmConfig | None = None,
    *,
    verify: bool = True,
    arena=None,
) -> list[CoverResult]:
    """Solve K independent instances, bit-identical to K fastpath runs.

    Eligible instances are packed into one shared CSR arena per kernel
    lane (int64 first, then the two-limb and three-limb wide lanes for
    instances beyond int64's headroom) and advanced together, one
    vectorized sweep per
    iteration, masking instances that have already halted; the rest —
    and any instance whose scale outgrows its arena's headroom mid-run
    — step down the spill ladder to the scalar
    :func:`~repro.core.fastpath.run_fastpath`.  Per-instance results —
    covers, duals, iterations, rounds, levels, statistics and
    certificates — are indistinguishable from running the instances
    one at a time with ``executor="fastpath"``.

    ``arena`` may pass the instances' already-packed
    :class:`~repro.hypergraph.csr.BatchArena` (positionally matching
    ``hypergraphs``, e.g. a worker's shipped shard): the per-lane
    eligibility groups are then *sliced* out of it
    (:func:`~repro.hypergraph.csr.slice_arena`) instead of re-packed
    from the instances — same bits, minus the rebuild.
    """
    config = config or AlgorithmConfig()
    instances = list(hypergraphs)
    results: list[CoverResult | None] = [None] * len(instances)
    # Arena members are ``(index, hypergraph, state, carry)`` — the
    # carry (None for fresh instances) travels inside the tuple so it
    # can never fall out of alignment with its instance.  One group per
    # machine lane; each instance joins the strongest lane that admits
    # it (the int64 rung honors this module's headroom override).
    groups: dict[str, list[tuple[int, Hypergraph, object, dict | None]]] = {
        lane: [] for lane in MACHINE_LANES
    }
    solo: list[tuple[int, str, dict | None]] = []
    prepared: dict[int, object] = {}
    for index, hypergraph in enumerate(instances):
        if kernels._BEAT is not None:
            kernels._BEAT()
        if hypergraph.num_edges == 0:
            results[index] = _empty_result(hypergraph, config, verify)
            continue
        state = None
        if HAS_NUMPY:
            state = prepare_scaled_state(hypergraph, config)
            prepared[index] = state
        eligible, _ = arena_eligibility(hypergraph, config, state)
        if eligible:
            groups["int64"].append((index, hypergraph, state, None))
            continue
        if state is not None:
            for lane in MACHINE_LANES[1:]:
                wider, _ = lane_eligibility(
                    hypergraph, config, state, lane=lane
                )
                if wider:
                    groups[lane].append((index, hypergraph, state, None))
                    break
            else:
                solo.append((index, "auto", None))
            continue
        solo.append((index, "auto", None))

    def run_arena(members, ops, limits):
        """Finalize completed members; return spilled ones with carries."""
        carries = [member[3] for member in members]
        lane_arena = (
            slice_arena(arena, [member[0] for member in members])
            if arena is not None
            else None
        )
        solved, spills = LaneRun(
            [member[1] for member in members],
            [member[2] for member in members],
            config,
            ops=ops,
            limits=limits,
            carries=carries if any(carries) else None,
            arena=lane_arena,
        ).solve()
        spilled = []
        for position, (index, hypergraph, state, _) in enumerate(members):
            if kernels._BEAT is not None:
                kernels._BEAT()
            if position in spills:
                spilled.append((index, hypergraph, state, spills[position]))
            else:
                results[index] = finalize_lane_instance(
                    hypergraph, config, solved[position], verify,
                    lane=ops.name,
                )
        return spilled

    # Run one arena per lane, strongest first.  Mid-run spills resume
    # *from the interrupted iteration* on the next lane whose headroom
    # admits the carried scale (joining that lane's up-front members —
    # a wider group is only launched after every narrower one has run),
    # else on the scalar big-int loop — never replaying finished
    # iterations.
    for rung, lane in enumerate(MACHINE_LANES):
        members = groups[lane]
        if not members:
            continue
        if lane == "int64":
            limits = [
                _scale_limit(hypergraph, config, state)
                for _, hypergraph, state, _ in members
            ]
        else:
            limits = kernels.default_scale_limits(
                [member[1] for member in members],
                config,
                [member[2] for member in members],
                lane=lane,
            )
        spilled = run_arena(members, lane_ops(lane), limits)
        wider_lanes = MACHINE_LANES[rung + 1:]
        for index, hypergraph, state, carry in spilled:
            for wider in wider_lanes:
                admits, _ = lane_eligibility(
                    hypergraph, config, state, lane=wider,
                    scale=carry["scale"],
                )
                if admits:
                    groups[wider].append((index, hypergraph, state, carry))
                    break
            else:
                solo.append((index, "bigint", carry))

    # Spill ladder tail: up-front ineligible instances run through the
    # scalar fastpath executor, reusing the already-computed iteration-0
    # state (the arenas only copy it, so spilled states are pristine);
    # instances that spilled past the widest machine arena resume the
    # big-int loop from their carried iteration.
    for index, lane, carry in solo:
        results[index] = run_fastpath(
            instances[index],
            config,
            verify=verify,
            state=prepared.get(index),
            lane=lane,
            carry=carry,
        )
    return results  # type: ignore[return-value]


def _empty_result(
    hypergraph: Hypergraph, config: AlgorithmConfig, verify: bool
) -> CoverResult:
    """The edgeless-instance result (same as fastpath's early return)."""
    n = hypergraph.num_vertices
    return finalize_result(
        hypergraph,
        config,
        cover=frozenset(),
        dual=ScaledDual(1, ()),
        levels=(0,) * n,
        stats=AlgorithmStats.empty(level_cap=config.z(hypergraph.rank)),
        alphas=[],
        iterations=0,
        rounds=empty_instance_rounds(n),
        metrics=None,
        verify=verify,
    )
