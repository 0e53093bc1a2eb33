"""Vectorized fastpath executor for Algorithm MWHVC.

The third executor: the same deterministic protocol as
:mod:`repro.core.lockstep` and the CONGEST engine, but run on **flat
integer arrays** instead of per-vertex/per-edge Python objects.  All
protocol quantities (bids, duals, thresholds) are kept in an exact
scaled fixed-point representation: every rational value ``x`` is stored
as the integer numerator of ``x = numerator / scale`` for one global
``scale``.  The scale starts as the lcm of the iteration-0 bid
denominators (``2 |E(v*)|`` per edge, reduced) and the alpha
denominators, and grows *dynamically* whenever a halving or an
alpha-multiplication would leave the representation (an O(n + m)
renumbering, triggered at most a bounded number of times per run
because denominators are bounded by Claim 4 / Lemma 6).  Because every
operation is exact integer arithmetic, the executor is bit-identical to
the Fraction-based cores — the differential test harness asserts
equality of covers, duals, iterations, rounds, levels and statistics on
randomized instances — while avoiding per-operation gcd normalization,
which makes it an order of magnitude faster than lockstep and the
workhorse for large-scale sweeps.

The transition *formulas* are not duplicated here: tightness, level
increments, raise budgets and the invariant checks come from the pure
``*_scaled`` functions in :mod:`repro.core.vertex_logic`, the argmin /
initial-bid arithmetic from :mod:`repro.core.edge_logic`, and the
halting-round schedule from :mod:`repro.core.lockstep` — the same
single source of truth the object cores use.

Since PR 3 the executor selects an arithmetic **lane** per run (see
:data:`repro.core.kernels.LANE_TABLE`): instances whose headroom bound
fits machine width run the whole iteration loop on vectorized
``int64`` arrays (or on the multi-word representations: two limbs up
to ``2**93``, three up to ``2**124`` and four up to ``2**156``),
falling back transparently to the unbounded big-int loop below —
``"bigint"`` — when no bound holds, when the instance is too small for
its lane to pay off, or when a lane's scale outgrows its headroom
mid-run.  Under ``lane="auto"`` an instance enters the first lane with
room for half the scale growth Claim 4 allows
(:func:`repro.core.kernels.entry_lane`).  That spill ladder is
:func:`repro.core.batch.run_ladder`, the one batches use; a solo run is
a batch of one, and this module keeps the big-int loop it ends on.
Every lane is bit-identical; ``lane="..."`` forces the ladder's entry
point for tests and diagnostics.

In the big-int loop, when numpy is importable the structural
per-iteration reductions (per-edge halving totals, per-edge raise
unanimity) run as vectorized ``reduceat`` kernels over a CSR layout of
the hyperedges; without numpy a pure-Python fallback computes the
identical small-integer sums.  The exact arithmetic itself is plain
Python ``int`` either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm

from repro.core import kernels
from repro.core.edge_logic import argmin_member, initial_bid, initial_bid_scaled
from repro.core.kernels import MACHINE_LANES
from repro.core.lockstep import (
    INIT_EXCHANGE_ROUNDS,
    empty_instance_rounds,
    phase_a_round,
)
from repro.core.numeric import exact_scaled_int
from repro.core.observer import IterationObserver, IterationSnapshot
from repro.core.params import AlgorithmConfig, resolve_alpha
from repro.core.result import AlgorithmStats, CoverResult
from repro.core.runner import finalize_result
from repro.core.vertex_logic import (
    check_claim1_scaled,
    check_eq1_scaled,
    count_level_increments_scaled,
    is_tight_scaled,
    tight_threshold_scaled,
    wants_raise_scaled,
)
from repro.exceptions import (
    AlgorithmError,
    InvalidInstanceError,
    InvariantViolationError,
    RoundLimitExceededError,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.lp.scaled import ScaledDual

try:  # pragma: no cover - exercised implicitly by either branch
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = [
    "run_fastpath",
    "prepare_scaled_state",
    "finalize_lane_instance",
    "machine_rungs",
    "ScaledState",
    "HAS_NUMPY",
    "LANES",
]

#: Whether the vectorized structural kernels are active in this process.
HAS_NUMPY = _np is not None

#: Valid ``lane=`` arguments: the spill ladder, strongest first, plus
#: ``"auto"``, which enters through :func:`repro.core.kernels.entry_lane`
#: and is subject to each row's ``min_nnz``; a named lane starts the
#: ladder at that lane.
LANES = ("auto",) + MACHINE_LANES + ("bigint",)


def machine_rungs(lane: str) -> tuple[str, ...]:
    """The machine lanes a run entering the ladder at ``lane`` may use
    (none for ``"bigint"``); an unknown ``lane`` is an error."""
    if lane not in LANES:
        raise InvalidInstanceError(
            f"lane must be one of {', '.join(LANES)}, got {lane!r}"
        )
    return MACHINE_LANES[max(LANES.index(lane) - 1, 0):]


@dataclass(slots=True)
class ScaledState:
    """Iteration-0 output of the scaled fixed-point representation.

    Everything a fastpath-style executor needs to start iterating, each
    fact once: ``alpha`` (one Fraction, as Theorem 9's depends only on
    ``f``, ``Δ``, ``eps`` and ``gamma``; a per-edge list only under
    the local policy), the smallest global ``scale`` representing every
    initial bid and its alpha-multiple exactly, the initial bids as
    integer numerators over that scale, and the per-vertex bid sums and
    degrees.  The executors derive the raised bids (``bid * alpha``)
    and starting duals (``bid``) when they set up.  Shared by
    :func:`run_fastpath` (one instance) and
    :func:`repro.core.batch.run_fastpath_batch` (arena slices) so the
    two executors cannot diverge at initialization.

    ``bid``, ``total_delta`` and ``degrees`` are plain lists from the
    scalar pass but stay int64 ndarrays when the fused pass produced
    them and they fit — :class:`~repro.core.kernels.LaneRun` builds
    its slabs from either form without writing to them, and the
    big-int loop converts to Python-int lists at its entry (numpy
    scalars must never reach the exact big-int arithmetic).
    """

    alpha: Fraction | list[Fraction]
    scale: int
    bid: list[int]  # or int64 ndarray (fused pass)
    total_delta: list[int]  # or int64 ndarray (fused pass)
    degrees: list[int]  # or int64 ndarray (fused pass)


#: Magnitude ceiling for the fused iteration-0 pass: every intermediate
#: product it forms on int64 arrays (weight x degree cross products,
#: weight x scale bid numerators, per-vertex bid sums) must stay below
#: this, or the pass bows out to the scalar loop.
_FUSED_INT64_LIMIT = 1 << 62


def _fused_iteration0(hypergraph: Hypergraph, config: AlgorithmConfig):
    """Vectorized iteration 0, or ``None`` when the instance needs the
    scalar loop.

    A fused sweep counterpart of the per-edge Python loops below: one
    pass builds degrees (``bincount``), per-edge argmins (a float64
    ratio prefilter with exact integer resolution of near-ties), the
    global scale (int64 gcds per edge, one lcm over their distinct
    values), the initial bids and the per-vertex bid sums.  Every
    arithmetic step is exact — the float ratios only *shortlist*
    argmin candidates (any cell within a relative band far wider than
    float64 error), and each shortlist of size > 1 is resolved with
    the same integer cross products :func:`argmin_member` uses — so
    the result is bit-identical to the scalar pass.  Returns ``None``
    for instances the guards exclude (no numpy, fractional weights,
    or magnitudes near int64).  The bids and per-vertex fields stay
    int64 arrays while they fit (see :class:`ScaledState`).
    """
    if _np is None:
        return None
    n = hypergraph.num_vertices
    m = hypergraph.num_edges
    rank = hypergraph.rank
    if m == 0:
        return None
    # The instance's CSR arrays (array-backed instances hold them; a
    # tuple-built one converts once and keeps them for the packer).
    arrays = hypergraph._arrays()
    weights_arr = hypergraph.weights_int64()
    if arrays is None or weights_arr is None:
        return None
    max_weight = int(weights_arr.max()) if n else 0
    if max_weight >= _FUSED_INT64_LIMIT:
        return None
    cells, offsets = arrays
    starts = offsets[:-1]
    lengths = _np.diff(offsets)
    degrees_arr = _np.bincount(cells, minlength=n)
    max_degree = int(degrees_arr.max())
    if max_weight * max_degree >= _FUSED_INT64_LIMIT:
        return None

    # The instance's distinct alphas; ``which`` picks each edge's.
    if config.alpha_policy == "local":
        local_max = _np.maximum.reduceat(degrees_arr[cells], starts)
        values, which = _np.unique(local_max, return_inverse=True)
        alphas = [
            resolve_alpha(config, rank, max_degree, value)
            for value in values.tolist()
        ]
        alpha = [alphas[index] for index in which.tolist()]
    else:
        alpha = resolve_alpha(config, rank, max_degree)
        alphas, which = [alpha], 0
    # The scale's int64 gcds below are exact while ``w* * alpha_num``
    # and ``2 |E(v*)| * alpha_den`` stay under the ceiling.
    nums, dens = zip(*[(a.numerator, a.denominator) for a in alphas])
    if max(max_weight * max(nums), 2 * max_degree * max(dens)) >= _FUSED_INT64_LIMIT:
        return None

    # Argmin per edge: minimize w(v)/|E(v)|, ties by vertex id.  The
    # float64 ratio is only a shortlist (its relative error is ~2^-52,
    # the acceptance band 2^-30); edges whose band holds more than one
    # cell are resolved exactly.
    ratios = weights_arr[cells] / degrees_arr[cells]
    edge_of_cell = _np.repeat(_np.arange(m, dtype=_np.int64), lengths)
    band = _np.minimum.reduceat(ratios, starts) * (1.0 + 2.0**-30)
    candidate = _np.flatnonzero(ratios <= band[edge_of_cell])
    # ``candidate`` is ascending, so its owner edges are nondecreasing:
    # first occurrences fall out of one adjacent-difference pass (no
    # sort), and every edge owns at least one candidate (its own min).
    owner = edge_of_cell[candidate]
    is_first = _np.empty(owner.size, dtype=bool)
    is_first[0] = True
    _np.not_equal(owner[1:], owner[:-1], out=is_first[1:])
    first_index = _np.flatnonzero(is_first)
    argmin_v = cells[candidate[first_index]]
    if first_index.size != owner.size:
        owner_counts = _np.diff(
            _np.append(first_index, owner.size)
        )
        cand_cells = cells[candidate]
        # Exact resolution works on plain Python ints — numpy scalars
        # would reintroduce silent int64 wraparound into the cross
        # products.  Built only on this (rare) near-tie branch.
        weights = hypergraph.weights
        degrees = degrees_arr.tolist()
        for position in _np.flatnonzero(owner_counts > 1).tolist():
            members = cand_cells[
                first_index[position] : first_index[position]
                + owner_counts[position]
            ].tolist()
            argmin_v[position] = argmin_member(members, weights, degrees)[0]
    argmin_w = weights_arr[argmin_v]
    argmin_d = degrees_arr[argmin_v]

    # Scale: the scalar loop's two lcm contributions per edge (the
    # reduced denominators of ``w*/(2 |E(v*)|)`` and of its alpha
    # multiple) as int64 gcds, then one lcm over their few distinct
    # values.  Weight denominators are all 1 here (int weights only).
    # With integral alphas ``gcd(w*, 2d*)`` divides ``gcd(w* alpha,
    # 2d*)``, so each raised contribution divides its bid contribution
    # and the second pass adds nothing to the lcm.
    bid_dens = 2 * argmin_d
    contributions = bid_dens // _np.gcd(argmin_w, bid_dens)
    if max(dens) > 1:
        alpha_num = _np.array(nums, dtype=_np.int64)[which]
        raised_dens = bid_dens * _np.array(dens, dtype=_np.int64)[which]
        contributions = _np.concatenate(
            (
                contributions,
                raised_dens // _np.gcd(argmin_w * alpha_num, raised_dens),
            )
        )
    scale = lcm(*_np.unique(contributions).tolist())

    # Initial bids and the per-vertex bid sums, vectorized while the
    # products fit int64 (the scalar tail keeps exactness beyond).
    if max_weight * scale < _FUSED_INT64_LIMIT:
        numerators = argmin_w * scale
        bid = numerators // bid_dens
        if (numerators - bid * bid_dens).any():
            raise AlgorithmError(
                f"scale {scale} cannot represent every bid0 exactly"
            )
        if int(bid.max()) * max_degree < _FUSED_INT64_LIMIT:
            total_delta = _np.zeros(n, dtype=_np.int64)
            _np.add.at(total_delta, cells, bid[edge_of_cell])
        else:
            total_delta = hypergraph._vertex_sums(bid.tolist())
    else:
        bid = [
            initial_bid_scaled(min_weight, min_degree, scale)
            for min_weight, min_degree in zip(
                argmin_w.tolist(), argmin_d.tolist()
            )
        ]
        total_delta = hypergraph._vertex_sums(bid)
    return ScaledState(
        alpha=alpha,
        scale=scale,
        bid=bid,
        total_delta=total_delta,
        degrees=degrees_arr,
    )


def prepare_scaled_state(
    hypergraph: Hypergraph, config: AlgorithmConfig
) -> ScaledState:
    """Run iteration 0 exactly: alpha, global scale, bids, bid sums.

    The common all-integer-weights case runs as one fused vectorized
    pass (:func:`_fused_iteration0`); the scalar per-edge loop below
    remains the exact reference (and the only path for fractional
    weights, huge magnitudes, or numpy-less interpreters).
    """
    state = _fused_iteration0(hypergraph, config)
    if state is not None:
        return state
    n = hypergraph.num_vertices
    m = hypergraph.num_edges
    rank = hypergraph.rank
    edges = hypergraph.edges
    weights = hypergraph.weights
    degrees = [hypergraph.degree(vertex) for vertex in range(n)]

    max_degree = hypergraph.max_degree
    if config.alpha_policy == "local":
        alpha = [
            resolve_alpha(
                config, rank, max_degree, max(degrees[v] for v in members)
            )
            for members in edges
        ]
        edge_alphas = alpha
    else:
        alpha = resolve_alpha(config, rank, max_degree)
        edge_alphas = repeat(alpha, m)

    argmins = [argmin_member(members, weights, degrees) for members in edges]

    # Smallest scale representing every bid0 and alpha*bid0 exactly —
    # and, with fractional vertex weights, every ``w(v) * scale`` (the
    # scaled executors cache those as integers too).
    scale = 1
    for weight in weights:
        denominator = getattr(weight, "denominator", 1)
        if denominator > 1:
            scale = lcm(scale, denominator)
    for (_, min_weight, min_degree), edge_alpha in zip(argmins, edge_alphas):
        if isinstance(min_weight, int):
            bid_den = 2 * min_degree
            scale = lcm(scale, bid_den // gcd(min_weight, bid_den))
            raised_den = bid_den * edge_alpha.denominator
            raised_top = min_weight * edge_alpha.numerator
            scale = lcm(scale, raised_den // gcd(raised_top, raised_den))
        else:
            # Rational argmin weight: let Fraction normalize the
            # denominators (identical lcm contributions as above).
            bid0 = initial_bid(min_weight, min_degree)
            scale = lcm(scale, bid0.denominator)
            scale = lcm(scale, (bid0 * edge_alpha).denominator)

    bid = [
        initial_bid_scaled(min_weight, min_degree, scale)
        for (_, min_weight, min_degree) in argmins
    ]
    total_delta = [0] * n
    for edge_id, members in enumerate(edges):
        bid0 = bid[edge_id]
        for vertex in members:
            total_delta[vertex] += bid0
    return ScaledState(
        alpha=alpha,
        scale=scale,
        bid=bid,
        total_delta=total_delta,
        degrees=degrees,
    )


def run_fastpath(
    hypergraph: Hypergraph,
    config: AlgorithmConfig | None = None,
    *,
    verify: bool = True,
    observer: IterationObserver | None = None,
    state: ScaledState | None = None,
    lane: str = "auto",
    carry: dict | None = None,
) -> CoverResult:
    """Execute Algorithm MWHVC on flat scaled-integer arrays.

    Drop-in equivalent of :func:`repro.core.lockstep.run_lockstep`:
    same results (bit-identical covers, duals, iterations, rounds,
    levels, statistics), same ``observer`` hook, same exceptions — at a
    fraction of the cost.  Use it for sweeps; use lockstep when you
    want the object cores' step-by-step introspection; use the CONGEST
    engine when you need message metrics.

    ``state`` may pass a precomputed
    :func:`prepare_scaled_state` result for this exact
    ``(hypergraph, config)`` pair — the spill ladder uses this to
    avoid repeating iteration 0 for instances it hands to the big-int
    loop.  The state is consumed (mutated) by the run.

    ``lane`` names the strongest arithmetic lane the run may attempt.
    Any machine lane runs the instance through the spill ladder
    (:func:`repro.core.batch.run_ladder`, the same code that advances
    batches): the iteration loop runs on machine width whenever the
    lane's headroom bound admits the instance, and degrades
    transparently — int64 -> two-limb -> three-limb -> four-limb ->
    bigint — when a lane is ineligible or its scale outgrows the
    headroom mid-run, each wider lane resuming from the interrupted
    iteration.  ``"auto"`` enters the lane with room for the expected
    scale growth (:func:`repro.core.kernels.entry_lane`) and runs an
    instance smaller than that lane's ``min_nnz`` on the big-int loop;
    a forced machine lane enters the first lane from there that admits
    the initial scale.  Results are bit-identical on every lane
    (the completing lane is reported in ``CoverResult.lane``);
    ``lane="bigint"`` pins the unbounded big-int loop.  Observers are
    a big-int-loop feature: with an ``observer``, ``"auto"`` runs the
    big-int loop and explicitly forcing a machine lane is an error.

    ``carry`` resumes the big-int loop from a machine lane's mid-run
    spill state (see :meth:`repro.core.kernels.LaneRun._extract_carry`;
    requires the matching ``state``), so the ladder's floor repeats no
    finished iteration.  It is accepted only with ``lane="bigint"``.
    """
    config = config or AlgorithmConfig()
    machine_rungs(lane)  # validates ``lane``
    if carry is not None and lane != "bigint":
        raise InvalidInstanceError(
            f"carry resumes the big-int loop only; got lane={lane!r}"
        )
    if observer is not None and lane in MACHINE_LANES:
        # The machine lanes have no observer hook; silently running the
        # big-int loop would contradict the explicit forcing.  "auto"
        # degrades to bigint instead (observers are a bigint feature).
        raise InvalidInstanceError(
            "observer is supported on the big-int lane only — drop the "
            f"observer or use lane='auto'/'bigint' instead of {lane!r}"
        )
    n = hypergraph.num_vertices
    m = hypergraph.num_edges

    if m == 0:
        return finalize_result(
            hypergraph,
            config,
            cover=frozenset(),
            dual=ScaledDual(1, ()),
            levels=(0,) * n,
            stats=AlgorithmStats.empty(level_cap=config.z(hypergraph.rank)),
            alpha=[],
            iterations=0,
            rounds=empty_instance_rounds(n),
            metrics=None,
            verify=verify,
        )

    # Machine-width lanes (the big win: the whole iteration loop runs
    # as numpy kernels) go through the one spill ladder, which hands
    # the instance back to this function with ``lane="bigint"`` when
    # no machine lane can finish it.  ``batch`` imports this module.
    if observer is None and lane != "bigint":
        from repro.core.batch import run_ladder

        return run_ladder(
            [hypergraph], config, verify=verify, start=lane, states=[state]
        )[0]

    # ------------------------------------------------------------------
    # Iteration 0: alpha, the initial global scale and bids.
    # ------------------------------------------------------------------
    if state is None:
        state = prepare_scaled_state(hypergraph, config)
    return _run_bigint(
        hypergraph, config, verify=verify, observer=observer, state=state,
        carry=carry,
    )


def finalize_lane_instance(
    hypergraph: Hypergraph,
    config: AlgorithmConfig,
    raw: dict,
    verify: bool,
    *,
    lane: str,
) -> CoverResult:
    """Build (and, with ``verify``, certify) one machine-lane result.

    ``raw`` is one instance's entry of
    :meth:`repro.core.kernels.LaneRun.solve`.  The dual is the lane's
    own packing, ``ScaledDual(scale, delta)``: no Fraction is built
    here, the certificate reads the integers directly, and the
    per-edge gcd runs only when the dual is rendered.
    """
    scale = raw["scale"]
    delta = raw["delta"]
    return finalize_result(
        hypergraph,
        config,
        cover=frozenset(raw["cover"]),
        dual=ScaledDual(scale, delta),
        levels=tuple(raw["levels"]),
        stats=raw["stats"],
        alpha=raw["alpha"],
        iterations=raw["iterations"],
        rounds=raw["rounds"],
        metrics=None,
        verify=verify,
        dual_total=Fraction(sum(delta), scale),
        lane=lane,
    )


def _run_bigint(
    hypergraph: Hypergraph,
    config: AlgorithmConfig,
    *,
    verify: bool,
    observer: IterationObserver | None,
    state: ScaledState,
    carry: dict | None = None,
) -> CoverResult:
    """The unbounded big-int iteration loop (the spill ladder's floor).

    Plain Python integers represent any scale, so this lane has no
    eligibility conditions; it also carries the features the machine
    lanes exclude (observers, invariant checking, single-increment
    mode).  Consumes ``state``.  With a ``carry`` (a machine lane's
    mid-run spill state), the loop resumes from the carried iteration
    instead of iteration 0 — bits, rounds and statistics come out
    identical to a full big-int run.
    """
    n = hypergraph.num_vertices
    m = hypergraph.num_edges
    rank = hypergraph.rank
    z = config.z(rank)
    beta = config.beta(rank)
    beta_num, beta_den = beta.numerator, beta.denominator
    single = config.increment_mode == "single"
    spec = config.schedule == "spec"
    checked = config.check_invariants

    edges = hypergraph.edges
    weights = hypergraph.weights
    incidence = [hypergraph.incident_edges(v) for v in range(n)]

    # The fused iteration-0 pass hands these over as int64 ndarrays;
    # this executor's arithmetic is exact unbounded Python ints, so
    # materialize plain lists before any element can leak a numpy
    # scalar (and its silent wraparound) into the computation.
    degrees = state.degrees
    if not isinstance(degrees, list):
        degrees = degrees.tolist()
    alpha = state.alpha
    if isinstance(alpha, Fraction):
        alpha_pairs = [(alpha.numerator, alpha.denominator)] * m
    else:
        alpha_pairs = [(value.numerator, value.denominator) for value in alpha]
    if carry is None:
        scale = state.scale
        bid = state.bid
        if not isinstance(bid, list):
            bid = bid.tolist()
        # Iteration 0's raised bids are ``alpha * bid`` (exact in the
        # initial scale) and its duals the bids themselves.
        raised = [
            value * num // den for value, (num, den) in zip(bid, alpha_pairs)
        ]
        delta = list(bid)
        total_delta = state.total_delta
        if not isinstance(total_delta, list):
            total_delta = total_delta.tolist()
        level = [0] * n
        in_cover = bytearray(n)
        dead = bytearray(n)
        uncovered_count = list(degrees)
        covered = bytearray(m)
        raise_count = [0] * m
        halving_count = [0] * m
        stuck_counts: dict[tuple[int, int], int] = {}
        for vertex in range(n):
            if not degrees[vertex]:
                dead[vertex] = 1
    else:
        # Resume a machine lane's spill from its carried sweep-start
        # state (lane-neutral Python ints — see LaneRun._extract_carry).
        scale = carry["scale"]
        bid = list(carry["bid"])
        raised = list(carry["raised"])
        delta = list(carry["delta"])
        total_delta = list(carry["total_delta"])
        level = list(carry["level"])
        in_cover = bytearray(carry["in_cover"])
        dead = bytearray(carry["dead"])
        uncovered_count = list(carry["uncovered_count"])
        covered = bytearray(carry["covered"])
        raise_count = list(carry["raise_count"])
        halving_count = list(carry["halving_count"])
        stuck_counts = {
            (vertex, stuck_level): count
            for vertex, row in enumerate(carry["stuck"])
            for stuck_level, count in enumerate(row)
            if count
        }
    total_stuck = sum(stuck_counts.values())
    k_inc = [0] * n
    flags = bytearray(n)
    live_vertices = [
        vertex for vertex in range(n)
        if not in_cover[vertex] and not dead[vertex]
    ]
    live_edges = [edge_id for edge_id in range(m) if not covered[edge_id]]

    # Caches refreshed on every rescale: w(v) * scale and the step-3a
    # right-hand side (see tight_threshold_scaled).  ``scale`` is a
    # multiple of every weight denominator, so both are exact integers
    # even with fractional weights.
    weight_scaled = [
        exact_scaled_int(weights[vertex], scale) for vertex in range(n)
    ]
    tight_rhs = [
        tight_threshold_scaled(weights[vertex], beta_num, beta_den, scale)
        for vertex in range(n)
    ]

    def rescale(factor: int) -> None:
        """Renumber every stored value into ``scale * factor``."""
        nonlocal scale
        scale *= factor
        for array in (
            bid, raised, delta, total_delta, weight_scaled, tight_rhs
        ):
            array[:] = [value * factor for value in array]

    def alpha_times(value: int, numerator: int, denominator: int) -> int:
        """Exact ``value * alpha`` in the current scale (rescales if needed)."""
        top = value * numerator
        quotient, remainder = divmod(top, denominator)
        if not remainder:
            return quotient
        factor = denominator // gcd(top, denominator)
        rescale(factor)
        return value * factor * numerator // denominator

    def halve(edge_id: int, count: int) -> None:
        """Exact division of the edge's bid pair by ``2**count``."""
        joint = bid[edge_id] | raised[edge_id]
        if joint & ((1 << count) - 1):
            trailing = (joint & -joint).bit_length() - 1
            rescale(1 << (count - trailing))
        bid[edge_id] >>= count
        raised[edge_id] >>= count

    def uncovered_raised_sum(vertex: int) -> int:
        """``sum alpha(e) * bid(e)`` over the vertex's uncovered edges."""
        weighted = 0
        for edge_id in incidence[vertex]:
            if not covered[edge_id]:
                weighted += raised[edge_id]
        return weighted

    def record_raise_flag(vertex: int, *, extra_shift: int = 0) -> None:
        """Step 3e for one vertex: set the flag, record stuck stats."""
        nonlocal total_stuck
        raise_flag = wants_raise_scaled(
            uncovered_raised_sum(vertex),
            weight_scaled[vertex],
            level[vertex],
            extra_shift=extra_shift,
        )
        flags[vertex] = 1 if raise_flag else 0
        if not raise_flag:
            total_stuck += 1
            key = (vertex, level[vertex])
            stuck_counts[key] = stuck_counts.get(key, 0) + 1

    def edge_halvings(edge_id: int, totals) -> None:
        """Step 3d (edge half): apply the members' total halving count."""
        count = (
            int(totals[edge_id])
            if totals is not None
            else sum(k_inc[vertex] for vertex in edges[edge_id])
        )
        if count:
            halving_count[edge_id] += count
            halve(edge_id, count)

    def edge_raise_and_grow(edge_id: int, unanimous) -> int:
        """Step 3f for one edge: raise decision, then dual growth.

        Returns 1 if the edge raised (for the observer's counter).
        Shared verbatim by both schedules — only the flag *timing*
        differs between them, and that is decided by the callers.
        """
        members = edges[edge_id]
        if unanimous is not None:
            raise_edge = bool(unanimous[edge_id])
        else:
            raise_edge = all(flags[vertex] for vertex in members)
        if raise_edge:
            raise_count[edge_id] += 1
            bid[edge_id] = raised[edge_id]
            raised[edge_id] = alpha_times(bid[edge_id], *alpha_pairs[edge_id])
        increment = bid[edge_id]
        if single:
            if increment & 1:
                rescale(2)
                increment = bid[edge_id]
            increment >>= 1
        delta[edge_id] += increment
        for vertex in members:
            total_delta[vertex] += increment
        return 1 if raise_edge else 0

    def apply_coverage(newly: list[int]) -> list[int]:
        """Non-joining members learn coverage; returns childless vertices."""
        terminated: list[int] = []
        for edge_id in newly:
            for vertex in edges[edge_id]:
                if in_cover[vertex]:
                    continue
                remaining = uncovered_count[vertex] - 1
                uncovered_count[vertex] = remaining
                if not remaining and not dead[vertex]:
                    dead[vertex] = 1
                    terminated.append(vertex)
        return terminated

    # CSR layout for the vectorized structural kernels.
    if HAS_NUMPY:
        flat_members, offsets = hypergraph._arrays()
        segment_starts = offsets[:-1]
        flags_view = _np.frombuffer(flags, dtype=_np.uint8)

    def halving_totals():
        """Per-edge sum of member level increments (``None`` = use Python)."""
        if HAS_NUMPY:
            k_view = _np.fromiter(k_inc, dtype=_np.int64, count=n)
            return _np.add.reduceat(k_view[flat_members], segment_starts)
        return None

    def raise_unanimity():
        """Per-edge AND of member raise flags (``None`` = use Python)."""
        if HAS_NUMPY:
            return _np.bitwise_and.reduceat(
                flags_view[flat_members], segment_starts
            )
        return None

    iteration = 0 if carry is None else carry["iterations"]
    max_halt_round = (
        INIT_EXCHANGE_ROUNDS if carry is None else carry["halt_round"]
    )
    cover_size = 0
    cover_weight = 0

    while live_edges:
        if kernels._BEAT is not None:
            kernels._BEAT()
        iteration += 1
        if iteration > config.max_iterations:
            raise RoundLimitExceededError(
                f"no termination after {config.max_iterations} iterations; "
                f"{len(live_edges)} edges uncovered"
            )
        round_a = phase_a_round(iteration, spec=spec)

        # Phase A: tightness test, then level increments (compact mode
        # also fixes the raise/stuck flag here, on own-halved bids).
        joiners: list[int] = []
        for vertex in live_vertices:
            running = total_delta[vertex]
            if is_tight_scaled(running, beta_den, tight_rhs[vertex]):
                in_cover[vertex] = 1
                joiners.append(vertex)
                continue
            increments = count_level_increments_scaled(
                running, weight_scaled[vertex], level[vertex], z,
                vertex=vertex,
            )
            if increments:
                level[vertex] += increments
            if checked:
                if single and increments > 1:
                    raise InvariantViolationError(
                        f"vertex {vertex} leveled up {increments} times in "
                        "one iteration in single-increment mode "
                        "(Corollary 21 violated)"
                    )
                check_eq1_scaled(
                    running, weight_scaled[vertex], level[vertex],
                    vertex=vertex,
                )
            k_inc[vertex] = increments
            if not spec:
                record_raise_flag(vertex, extra_shift=increments)

        newly_covered: list[int] = []
        for vertex in joiners:
            for edge_id in incidence[vertex]:
                if not covered[edge_id]:
                    covered[edge_id] = 1
                    newly_covered.append(edge_id)
        if newly_covered:
            max_halt_round = max(max_halt_round, round_a + 1)
            live_edges = [
                edge_id for edge_id in live_edges if not covered[edge_id]
            ]
        if joiners:
            max_halt_round = max(max_halt_round, round_a)

        raised_this_iteration = 0
        if spec:
            # Phase B/C: vertices learn coverage *before* flags.
            terminated = apply_coverage(newly_covered)
            if terminated:
                max_halt_round = max(max_halt_round, round_a + 2)
            if joiners or terminated:
                live_vertices = [
                    vertex for vertex in live_vertices
                    if not in_cover[vertex] and not dead[vertex]
                ]
            # Halvings for surviving edges, then flags on exact bids.
            totals = halving_totals()
            for edge_id in live_edges:
                edge_halvings(edge_id, totals)
            for vertex in live_vertices:
                record_raise_flag(vertex)
            # Phase D: raise decisions and dual growth.
            unanimous = raise_unanimity()
            for edge_id in live_edges:
                raised_this_iteration += edge_raise_and_grow(
                    edge_id, unanimous
                )
        else:
            # Compact: flags were fixed in phase A; edges apply
            # halvings + raise in one step, vertices catch up, and only
            # then process coverage (they learn it a round later).
            totals = halving_totals()
            unanimous = raise_unanimity()
            for edge_id in live_edges:
                edge_halvings(edge_id, totals)
                raised_this_iteration += edge_raise_and_grow(
                    edge_id, unanimous
                )
            terminated = apply_coverage(newly_covered)
            if terminated:
                max_halt_round = max(max_halt_round, round_a + 2)
            if joiners or terminated:
                live_vertices = [
                    vertex for vertex in live_vertices
                    if not in_cover[vertex] and not dead[vertex]
                ]

        if checked:
            for vertex in live_vertices:
                bid_sum = 0
                for edge_id in incidence[vertex]:
                    if not covered[edge_id]:
                        bid_sum += bid[edge_id]
                check_claim1_scaled(
                    bid_sum, weight_scaled[vertex], level[vertex],
                    vertex=vertex,
                )
                if total_delta[vertex] > weight_scaled[vertex]:
                    raise InvariantViolationError(
                        f"vertex {vertex}: dual packing violated: "
                        f"{Fraction(total_delta[vertex], scale)} > "
                        f"w = {weights[vertex]}"
                    )

        if observer is not None:
            cover_size += len(joiners)
            cover_weight += sum(weights[vertex] for vertex in joiners)
            observer.on_iteration(
                IterationSnapshot(
                    iteration=iteration,
                    live_edges=len(live_edges),
                    live_vertices=len(live_vertices),
                    cover_size=cover_size,
                    cover_weight=cover_weight,
                    dual_total=Fraction(sum(delta), scale),
                    max_level=max(level, default=0),
                    joins_this_iteration=len(joiners),
                    edges_covered_this_iteration=len(newly_covered),
                    raised_edges_this_iteration=raised_this_iteration,
                )
            )

    cover = frozenset(
        vertex for vertex in range(n) if in_cover[vertex]
    )
    stats = AlgorithmStats(
        total_raise_events=sum(raise_count),
        max_raises_per_edge=max(raise_count, default=0),
        total_stuck_events=total_stuck,
        max_stuck_per_vertex_level=max(stuck_counts.values(), default=0),
        total_halvings=sum(halving_count),
        max_level=max(level, default=0),
        level_cap=z,
    )
    return finalize_result(
        hypergraph,
        config,
        cover=cover,
        dual=ScaledDual(scale, delta),
        levels=tuple(level),
        stats=stats,
        alpha=alpha,
        iterations=iteration,
        rounds=max_halt_round,
        metrics=None,
        verify=verify,
        dual_total=Fraction(sum(delta), scale),
        lane="bigint",
    )
