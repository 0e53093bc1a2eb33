"""Batched fastpath executor and the spill ladder: many MWHVC instances,
one CSR arena per machine lane.

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
  :class:`repro.core.kernels.LaneRun`, with instances that have
  already halted masked out of the live index sets;
* the transition *formulas* are the same ``*_scaled`` pure functions
  every scaled executor uses, and iteration 0 is the shared
  :func:`repro.core.fastpath.prepare_scaled_state`.

:func:`run_ladder` is the only spill ladder in the engine.  Batches,
solo ``run_fastpath`` runs on a machine lane (K = 1) and incremental
fragment re-solves all go through it.  Exactness is non-negotiable:
results must be **bit-identical** to K sequential
``executor="fastpath"`` runs.  Each instance joins the strongest lane
of :data:`repro.core.kernels.LANE_TABLE` whose headroom bound
(:func:`repro.core.kernels.scale_limit`) guarantees that no sweep
intermediate can overflow — int64, then the two-limb ~128-bit lane,
then the three-limb ~192-bit lane — and every lane runs one arena.
Instances that outgrow their lane mid-run *carry* their live scaled
state (see :meth:`repro.core.kernels.LaneRun._extract_carry`) to the
next lane that admits it, resuming from the interrupted iteration.
Anything beyond the widest machine lane (or structurally ineligible:
no numpy, fractional alphas, Appendix C increments, checked mode) is
solved by the unbounded big-int loop, ``run_fastpath(...,
lane="bigint")``, whose Python integers implement the identical
transitions.  Any lane, same bits — the differential tests in
``tests/test_batch_executor.py`` and ``tests/test_kernel_lanes.py``
enforce it instance by instance, against lockstep as well.

For multi-core scaling, :mod:`repro.core.parallel` shards a batch
across a persistent worker pool (``solve_mwhvc_batch(..., jobs=N)``),
running this module's executor inside each worker.
"""

from __future__ import annotations

from repro.core import kernels
from repro.core.fastpath import (
    HAS_NUMPY,
    finalize_lane_instance,
    machine_rungs,
    prepare_scaled_state,
    run_fastpath,
)
from repro.core.kernels import (
    LANE_TABLE,
    LaneRun,
    default_scale_limits,
    lane_eligibility,
)
from repro.core.params import AlgorithmConfig
from repro.core.result import CoverResult
from repro.hypergraph.csr import slice_arena
from repro.hypergraph.hypergraph import Hypergraph

__all__ = ["run_fastpath_batch", "run_ladder", "arena_eligibility"]


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
    if state is None and HAS_NUMPY and hypergraph.num_edges:
        state = prepare_scaled_state(hypergraph, config)
    return lane_eligibility(hypergraph, config, state, lane="int64")


def run_fastpath_batch(
    hypergraphs,
    config: AlgorithmConfig | None = None,
    *,
    verify: bool = True,
    arena=None,
) -> list[CoverResult]:
    """Solve K independent instances, bit-identical to K fastpath runs.

    The instances climb :func:`run_ladder` from the strongest lane:
    one shared CSR arena per kernel lane, advanced together one
    vectorized sweep per iteration, with spills carried to wider lanes
    and finally to the big-int loop.  Per-instance results — covers,
    duals, iterations, rounds, levels, statistics and certificates —
    are indistinguishable from running the instances one at a time
    with ``executor="fastpath"``.

    ``arena`` may pass the instances' already-packed
    :class:`~repro.hypergraph.csr.BatchArena` (positionally matching
    ``hypergraphs``, e.g. a worker's shipped shard): the per-lane
    groups are then *sliced* out of it
    (:func:`~repro.hypergraph.csr.slice_arena`) instead of re-packed
    from the instances — same bits, minus the rebuild.
    """
    return run_ladder(
        list(hypergraphs), config or AlgorithmConfig(), verify=verify,
        arena=arena,
    )


def run_ladder(
    instances: list[Hypergraph],
    config: AlgorithmConfig,
    *,
    verify: bool,
    start: str = "auto",
    states=None,
    arena=None,
) -> list[CoverResult]:
    """The spill ladder: every instance on its cheapest exact lane.

    ``start`` is the strongest lane any instance may use (a ``lane=``
    name; ``"bigint"`` sends every instance to the big-int loop).
    ``states`` may give each instance's precomputed iteration-0
    :class:`~repro.core.fastpath.ScaledState` (``None`` entries are
    computed here); ``arena`` is the instances' packed arena, sliced
    per lane instead of re-packed.

    Each instance joins the first lane from ``start`` that admits it,
    and the lanes run strongest first, one arena each.  A member whose
    scale outgrows its lane mid-run carries its state to the next lane
    that admits the carried scale (joining that lane's arena, which
    therefore runs only after every stronger one), or else to the
    big-int loop; either way it resumes from the interrupted
    iteration.  When every member of an arena spills to the same lane
    and that lane runs next with no other member, it reuses the arena
    and its incidence transpose instead of re-packing and re-sorting.
    """
    rungs = machine_rungs(start)
    results: list[CoverResult | None] = [None] * len(instances)
    # Members are ``(index, hypergraph, state, carry)``; the carry
    # (None for a fresh instance) travels inside the tuple so it can
    # never fall out of alignment with its instance.
    groups: dict[str, list] = {lane: [] for lane in rungs}
    floor: list[tuple[int, object, dict | None]] = []

    def place(member, lanes, scale=None):
        index, hypergraph, state, carry = member
        if state is not None:
            for lane in lanes:
                admits, _ = lane_eligibility(
                    hypergraph, config, state, lane=lane, scale=scale
                )
                if admits:
                    groups[lane].append(member)
                    return
        floor.append((index, state, carry))

    for index, hypergraph in enumerate(instances):
        if kernels._BEAT is not None:
            kernels._BEAT()
        state = states[index] if states is not None else None
        if state is None and rungs and HAS_NUMPY and hypergraph.num_edges:
            state = prepare_scaled_state(hypergraph, config)
        place((index, hypergraph, state, None), rungs)

    def run_arena(rung, lane, members, reuse):
        """Run one lane's arena: finalize its finishers, place its spills.
        Returns what the next lane may reuse when every member spilled."""
        indices, hypergraphs, lane_states, carries = map(list, zip(*members))
        transpose = None
        if reuse is not None and reuse[0] == indices:
            _, lane_arena, transpose = reuse
        elif arena is not None:
            lane_arena = slice_arena(arena, indices)
        else:
            lane_arena = None
        run = LaneRun(
            hypergraphs, lane_states, config,
            ops=LANE_TABLE[lane].ops,
            limits=default_scale_limits(
                hypergraphs, config, lane_states, lane=lane
            ),
            carries=carries if any(carries) else None,
            arena=lane_arena,
            transpose=transpose,
        )
        solved, spills = run.solve()
        spilled_all = len(spills) == len(members)
        reuse = (indices, run.arena, run.transpose) if spilled_all else None
        del run  # free the lane's value arrays before finalizing
        for position, (index, hypergraph, state, _) in enumerate(members):
            if kernels._BEAT is not None:
                kernels._BEAT()
            carry = spills.get(position)
            if carry is None:
                results[index] = finalize_lane_instance(
                    hypergraph, config, solved[position], verify, lane=lane
                )
            else:
                place(
                    (index, hypergraph, state, carry),
                    rungs[rung + 1:],
                    scale=carry["scale"],
                )
        return reuse

    reuse = None
    for rung, lane in enumerate(rungs):
        if groups[lane]:
            reuse = run_arena(rung, lane, groups[lane], reuse)

    # The floor reuses each instance's iteration-0 state (the arenas
    # only copy it, so a spilled state is pristine) and resumes a
    # spilled instance from its carried iteration.
    for index, state, carry in floor:
        results[index] = run_fastpath(
            instances[index], config, verify=verify, state=state,
            lane="bigint", carry=carry,
        )
    return results  # type: ignore[return-value]
