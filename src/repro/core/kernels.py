"""Shared machine-width kernel lanes for the scaled-integer executors.

The batched arena executor (PR 2) proved that Algorithm MWHVC's exact
scaled fixed-point arithmetic can run on machine-width numpy arrays —
bit-identical to the unbounded big-int path — as long as a conservative
*headroom bound* guarantees that no intermediate of a sweep overflows.
This module extracts that machinery into one shared layer so every
consumer (the multi-instance arena in :mod:`repro.core.batch` and the
single-instance fastpath loop in :mod:`repro.core.fastpath`) runs the
same guarded kernels:

* **headroom accounting** — :func:`scale_limit` bounds the largest
  global scale for which every sweep intermediate stays representable
  (coarse bound: writing ``S = w_max * scale * max(beta_den, alpha) *
  2**(z+2)``, the lane is safe while ``S < 2**headroom_bits``), and
  :func:`lane_eligibility` folds in the structural requirements
  (numpy, multi-increment mode, unchecked runs, integral alphas);
* **the int64 lane** (:class:`Int64Ops`) — plain ``int64`` arrays, one
  numpy kernel per transition, exactly PR 2's arena arithmetic;
* **the limb lanes** (:class:`LimbOps`, instantiated as
  :data:`TwoLimbOps`, :data:`ThreeLimbOps` and :data:`FourLimbOps`) —
  every value is a tuple of ``int64`` word arrays, 32 bits per word
  below the top one, with vectorized carry propagation.  Two words
  widen the range to headroom ``2**93``, so large-scale / large-alpha
  / large-weight instances that outgrow int64 still run at machine
  speed; scalar multipliers (``beta_den``, ``alpha``, ``2**(z+2)``)
  must fit 31 bits so digit products stay inside int64.  Three words
  reach headroom ``2**124`` and four ``2**156``; those lanes'
  multipliers get a 62-bit budget by splitting them into 31-bit
  halves, so the huge-``beta_den`` regimes (the f-approximation's tiny
  epsilon on big weights) and weights up to about ``10**36`` stay on
  machine arithmetic instead of falling through to big-int;
* **the lane table** (:data:`LANE_TABLE`) — one row per machine lane,
  strongest first: its ops, headroom bits, multiplier budget,
  shard-balancing cost factor and the smallest arena it pays off on.
  Eligibility, the entry rule (:func:`entry_lane`), the spill ladder
  (:func:`repro.core.batch.run_ladder`), the cost model and the worker
  payload all read it, so a new lane is one new row;
* **the sweep engine** (:class:`LaneRun`) — the per-iteration
  vectorized protocol (tightness, level increments, halvings, raise
  unanimity, dual growth) over a shared CSR arena of K >= 1 instances,
  with per-instance dynamic rescaling and transparent *spill*: an
  instance whose scale outruns its lane's headroom mid-run is handed
  back to the caller as a **carry** — its exact state at the start of
  the interrupted sweep (the engine undoes that sweep's partial
  phase-A mutations for the instance) — and the next lane down the
  ladder (int64 -> two-limb -> three-limb -> four-limb -> big-int)
  *resumes from that iteration* instead of replaying from iteration 0.
  Resumption is exact: value arrays cross the lane boundary as
  arbitrary-precision integers (``int64`` words widen to limb tuples,
  limb tuples reconstruct to Python ints), and per-instance iteration
  offsets keep the round/iteration accounting bit-identical to an
  uninterrupted run.

The transition *formulas* are not duplicated: the int64 lane applies
the ``*_scaled`` pure functions from :mod:`repro.core.vertex_logic`
directly to whole arrays, and the limb lanes implement the same
cross-multiplied comparisons limb-wise (each rewrite cites its scalar
twin).  The lane-forcing differential tests in
``tests/test_kernel_lanes.py`` pin all lanes against the Fraction
cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import log2

from repro.core.lockstep import INIT_EXCHANGE_ROUNDS, phase_a_round
from repro.core.numeric import exact_scaled_int
from repro.core.params import AlgorithmConfig, distinct_alphas
from repro.core.result import AlgorithmStats
from repro.core.vertex_logic import (
    is_tight_scaled,
    tight_threshold_scaled,
    wants_raise_scaled,
)
from repro.exceptions import (
    InvariantViolationError,
    RoundLimitExceededError,
)
from repro.hypergraph.csr import BatchArena, pack_arena
from repro.hypergraph.hypergraph import Hypergraph

try:  # pragma: no cover - exercised implicitly by either branch
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = [
    "HAS_NUMPY",
    "LANE_TABLE",
    "MACHINE_LANES",
    "MachineLane",
    "Int64Ops",
    "LimbOps",
    "TwoLimbOps",
    "ThreeLimbOps",
    "FourLimbOps",
    "LaneRun",
    "entry_lane",
    "lane_eligibility",
    "headroom_factor",
    "scale_limit",
    "default_scale_limits",
]

#: Whether the vectorized kernel lanes are available in this process.
HAS_NUMPY = _np is not None

#: Largest value an ``int64`` lane cell can hold; the vectorized
#: weight-scaling guard in :class:`LaneRun` proves products stay at or
#: below this before letting numpy multiply them.
_INT64_MAX = (1 << 63) - 1

#: Ceiling on :class:`LaneRun`'s composite transpose keys (vertex id
#: times arena nnz, plus the cell); larger arenas sort stably instead.
_TRANSPOSE_KEY_LIMIT = 1 << 62

#: Bits per stored limb below a limb value's top word.
LIMB_BITS = 32

_LIMB_MASK = (1 << LIMB_BITS) - 1

#: Progress hook of a supervised pool worker (``None`` everywhere
#: else): called per sweep here and per iteration and instance in the
#: fastpath and batch loops, so the parent can tell a long solve from
#: a stalled one.  See :func:`repro.core.parallel._solve_shard`.
_BEAT = None


# ----------------------------------------------------------------------
# Headroom accounting
# ----------------------------------------------------------------------


def headroom_factor(config: AlgorithmConfig, rank: int, state) -> int:
    """The non-shift multiplier of the headroom product.

    One sweep multiplies values by at most ``beta_den`` (tightness) or
    ``alpha_num`` (raises) before shifting by at most ``z + 2`` bits;
    the coarse bound takes the max of the two.
    """
    numerators = [alpha.numerator for alpha in distinct_alphas(state.alpha)]
    return max([config.beta(rank).denominator, *numerators])


def scale_limit(
    w_max: int | Fraction, factor: int, z: int, headroom_bits: int
) -> int:
    """Largest scale keeping every sweep intermediate inside the lane.

    Bids and duals stay below ``w_max * scale`` (Claims 1-2), flags and
    level tests shift by at most ``z``, the tightness test multiplies
    by ``beta_den`` and raises multiply by ``alpha`` — so ``w_max *
    scale * factor * 2**(z+2) < 2**headroom_bits`` keeps everything
    representable.  ``w_max`` may be a :class:`Fraction` (fractional
    vertex weights): the bound is computed exactly either way, and a
    regime with no representable scale returns 0 (every ``scale >= 1``
    is then ineligible — callers must treat that as a spill, never an
    error).
    """
    w_max = Fraction(w_max)
    denominator = w_max.numerator * factor << (z + 2)
    return ((1 << headroom_bits) * w_max.denominator) // denominator


#: Safety margin (in bits) for the float64 eligibility prefilter.  The
#: prefilter compares ``log2(w_max * scale * factor) + z + 2`` against
#: the headroom budget using correctly-rounded float64 logarithms; the
#: accumulated rounding error of the four-term sum is below 1e-9 bits,
#: so half a bit of margin keeps the filter strictly conservative —
#: anything inside the margin falls through to the exact big-int bound.
PREFILTER_MARGIN_BITS = 0.5


def lane_eligibility(
    hypergraph: Hypergraph,
    config: AlgorithmConfig,
    state,
    *,
    lane: str,
    scale: int | None = None,
) -> tuple[bool, str]:
    """Whether ``lane`` can run this instance exactly.

    Returns ``(eligible, reason)``; ``reason`` names the first failed
    requirement (or is ``"ok"``); the lane's budgets are read from
    :data:`LANE_TABLE` at call time.  ``state`` is the instance's
    :class:`~repro.core.fastpath.ScaledState` (iteration 0 already
    computed by the caller — this module never recomputes it).  The
    check never raises on exotic instances (fractional weights, huge
    scales): anything it cannot bound is simply ineligible.

    ``scale`` overrides the scale being admitted (default: the state's
    initial scale) — resumed instances check their *carried* mid-run
    scale against the lane's headroom instead.
    """
    if not HAS_NUMPY:
        return False, "numpy unavailable"
    if hypergraph.num_edges == 0:
        return False, "empty instance (solved directly)"
    if config.increment_mode != "multi":
        return False, "single-increment mode uses the scalar executor"
    if config.check_invariants:
        return False, "checked runs use the scalar executor"
    if any(alpha.denominator != 1 for alpha in distinct_alphas(state.alpha)):
        return False, "fractional alpha uses the scalar executor"
    rank = hypergraph.rank
    z = config.z(rank)
    factor = headroom_factor(config, rank, state)
    row = LANE_TABLE[lane]
    budget = row.multiplier_bits
    if z + 2 > budget or factor >= (1 << budget):
        return False, f"multiplier exceeds the {lane} {budget}-bit budget"
    bits = row.headroom_bits
    if scale is None:
        scale = state.scale
    over = f"initial scale exceeds the {lane} headroom"
    # Float64-error-bound prefilter: ``scale <= scale_limit(...)`` is
    # equivalent to ``log2(w_max * scale * factor) + z + 2 <= bits``,
    # and the log-sum is computable to ~1e-9 bits with four
    # correctly-rounded float64 logarithms — so instances comfortably
    # clear of the boundary skip the exact big-int bound entirely on
    # this hot admission path.  Only the boundary band (within
    # ``PREFILTER_MARGIN_BITS``) pays for exact arithmetic.
    w_max = hypergraph.max_weight
    approx_bits = (
        log2(w_max.numerator)
        - log2(w_max.denominator)
        + log2(scale)
        + log2(factor)
        + z
        + 2
    )
    if approx_bits <= bits - PREFILTER_MARGIN_BITS:
        return True, "ok"
    if approx_bits >= bits + PREFILTER_MARGIN_BITS:
        return False, over
    if scale > scale_limit(w_max, factor, z, bits):
        return False, over
    return True, "ok"


def entry_lane(hypergraph: Hypergraph, config: AlgorithmConfig, state, lanes):
    """The first of ``lanes`` a fresh instance enters under ``lane="auto"``,
    or ``None`` for the big-int loop.

    Claim 4 keeps every level below ``z``, so an edge halves at most
    ``f * (z - 1)`` times and the scale grows by at most that many
    bits.  The instance enters the first lane whose headroom admits
    its scale shifted by half that bound, so it rarely spills; when no
    lane does, the first that admits the bare scale.  A wrong guess
    costs a spill, never a bit.
    """
    rank = hypergraph.rank
    shift = -(-rank * (config.z(rank) - 1) // 2)
    for scale in (state.scale << shift, state.scale):
        for lane in lanes:
            if lane_eligibility(hypergraph, config, state, lane=lane, scale=scale)[0]:
                return lane
    return None


def default_scale_limits(hypergraphs, config, states, *, lane: str) -> list[int]:
    """Per-instance mid-run scale ceilings for ``lane``'s headroom."""
    bits = LANE_TABLE[lane].headroom_bits
    limits = []
    for hypergraph, state in zip(hypergraphs, states):
        rank = hypergraph.rank
        limits.append(
            scale_limit(
                hypergraph.max_weight,
                headroom_factor(config, rank, state),
                config.z(rank),
                bits,
            )
        )
    return limits


# ----------------------------------------------------------------------
# Lane backends
#
# A lane implements one uniform op surface over opaque "value arrays"
# (bids, duals, scaled weights, thresholds).  Bookkeeping arrays
# (levels, flags, counters, index sets) are plain int64 in every lane.
# ----------------------------------------------------------------------


class Int64Ops:
    """PR 2's arena arithmetic: values are plain ``int64`` arrays."""

    name = "int64"

    @staticmethod
    def from_list(values):
        return _np.array(values, dtype=_np.int64)

    @staticmethod
    def from_int64(values):
        """The lane value of a non-negative int64 array, which it takes
        over (callers pass an array nothing else writes)."""
        return values

    @staticmethod
    def copy(value):
        return value.copy()

    @staticmethod
    def tolist_slice(value, sl):
        return value[sl].tolist()

    @staticmethod
    def gather(value, idx):
        return value[idx]

    @staticmethod
    def scatter(value, idx, other):
        value[idx] = other

    @staticmethod
    def iadd(value, idx, other):
        value[idx] += other

    @staticmethod
    def mul_mask(value, mask):
        return value * mask

    @staticmethod
    def mul_int(value, factor):
        return value * factor

    @staticmethod
    def shl(value, count):
        return value << count

    @staticmethod
    def ishl(value, counts):
        value <<= counts

    @staticmethod
    def gt(left, right):
        return left > right

    @staticmethod
    def bit_or(left, right):
        return left | right

    @staticmethod
    def trailing_zeros(value):
        low_bit = value & -value
        return _np.log2(low_bit.astype(_np.float64)).astype(_np.int64)

    @staticmethod
    def reduceat(cells, starts):
        return _np.add.reduceat(cells, starts)

    # -- fused kernels (single-pass forms of gather→op→scatter chains;
    # -- the limb lanes compose them from the per-op kernels) ----------

    @staticmethod
    def halve_at(value, idx, counts):
        """``value[idx] >>= counts`` as one fancy-indexed pass."""
        value[idx] >>= counts

    @staticmethod
    def iadd_gather(dest, idx, src):
        """``dest[idx] += src[idx]`` without a separate gather."""
        dest[idx] += src[idx]

    # -- transition tests (delegate to the shared pure functions, which
    # -- are written as array-compatible expressions) ------------------

    @staticmethod
    def is_tight(running, beta_den, threshold):
        return is_tight_scaled(running, beta_den, threshold)

    @staticmethod
    def wants_raise(sums, weight, level, extra_shift=None):
        if extra_shift is None:
            return wants_raise_scaled(sums, weight, level)
        return wants_raise_scaled(
            sums, weight, level, extra_shift=extra_shift
        )


def _normalize(words):
    """Carry every word but the top one back into ``[0, 2**32)``.

    Callers pass word sums or digit products of normalized values, so
    each lower word is below ``2**63 - 2**32``; its carry is below
    ``2**31`` and adding it to the next word stays inside int64.
    """
    normalized = []
    carry = None
    for word in words[:-1]:
        if carry is not None:
            word = word + carry
        carry = word >> LIMB_BITS
        normalized.append(word & _LIMB_MASK)
    normalized.append(words[-1] + carry)
    return tuple(normalized)


def _word_trailing_zeros(word):
    bit = word & -word
    return _np.log2(_np.maximum(bit, 1).astype(_np.float64)).astype(_np.int64)


class LimbOps:
    """The multi-word lanes: limb-parallel arithmetic with vectorized carry.

    A value is a tuple of ``limbs`` 1-D ``int64`` word arrays, lowest
    first: ``V = sum(words[i] << 32*i)``.  Normalized values keep every
    word below the top one in ``[0, 2**32)``, so bitwise OR across
    tuples is OR of the values; the lane's headroom (``2**93`` with two
    limbs, ``2**124`` with three, ``2**156`` with four) keeps the top
    word below ``2**61``.  The comments bound the intermediates.

    Multipliers below ``2**31`` apply as one digit-product pass; larger
    ones, up to the three- and four-limb lanes' 62-bit budget, split
    into 31-bit halves (two passes plus one carried add), which keeps
    the huge-``beta_den`` f-approximation regime on machine arithmetic.
    """

    def __init__(self, name: str, limbs: int):
        self.name = name
        self.limbs = limbs

    def from_list(self, values):
        """The words of non-negative Python ints, split in one pass over
        their little-endian bytes: 32-bit words below the top one, and
        a top word built from the last two; a top word past int64
        raises ``OverflowError``."""
        limbs = self.limbs
        words = _np.frombuffer(
            b"".join(
                [value.to_bytes(4 * limbs + 4, "little") for value in values]
            ),
            dtype="<u4",
        ).reshape(len(values), limbs + 1)
        if words.size and int(words[:, limbs].max()) >> 31:
            raise OverflowError("a value's top word does not fit int64")
        columns = [words[:, index].astype(_np.int64) for index in range(limbs + 1)]
        high = columns.pop()
        columns[-1] |= high << LIMB_BITS
        return tuple(columns)

    def from_int64(self, values):
        """:meth:`from_list` of a non-negative int64 array, by mask and
        shift.  Each step shifts by 32 bits only (numpy's ``>>`` by 64
        or more is undefined), so words above the second come out 0."""
        words = []
        for _ in range(self.limbs - 1):
            words.append(values & _LIMB_MASK)
            values = values >> LIMB_BITS
        words.append(values)
        return tuple(words)

    @staticmethod
    def copy(value):
        return tuple(word.copy() for word in value)

    @staticmethod
    def tolist_slice(value, sl):
        words = [word[sl] for word in value]
        if not words[0].size:
            return []
        if int(words[1].max()) < 1 << 31 and not any(
            word.any() for word in words[2:]
        ):
            # Every value is below 2**63: recombine in int64 and
            # convert once.
            return ((words[1] << LIMB_BITS) | words[0]).tolist()
        words = [word.tolist() for word in words]
        result = words.pop()
        while words:
            result = [
                (high << LIMB_BITS) | low
                for high, low in zip(result, words.pop())
            ]
        return result

    @staticmethod
    def gather(value, idx):
        return tuple(word[idx] for word in value)

    @staticmethod
    def scatter(value, idx, other):
        for word, new in zip(value, other):
            word[idx] = new

    def iadd(self, value, idx, other):
        # Word sums stay below 2**33; one carry pass renormalizes.
        total = _normalize([word[idx] + new for word, new in zip(value, other)])
        self.scatter(value, idx, total)

    @staticmethod
    def mul_mask(value, mask):
        return tuple(word * mask for word in value)

    @staticmethod
    def _mul_small(value, factor):
        """``V * c`` for ``c < 2**31`` (scalar or per-element array).

        Direct digit products: each lower word times ``c`` is below
        ``2**63 - 2**32``, leaving room for the incoming carry, and —
        because the result is below the headroom — the top word's
        product is at most ``V * c / 2**(32 * (limbs - 1)) < 2**61``.
        """
        return _normalize([word * factor for word in value])

    def mul_int(self, value, factor):
        """``V * c`` for ``c < 2**62`` (scalar or per-element array).

        Factors below 2**31 take one digit-product pass; larger ones
        split into 31-bit halves, ``V*c = ((V*c_hi) << 31) + V*c_lo``,
        where both partial products obey :meth:`_mul_small`'s bounds
        because each is at most the final (headroom-bounded) result.
        """
        if _np.isscalar(factor) or getattr(factor, "ndim", 1) == 0:
            if int(factor) < (1 << 31):
                return self._mul_small(value, factor)
            factor = _np.int64(factor)
        elif not factor.size or int(factor.max()) < (1 << 31):
            return self._mul_small(value, factor)
        mask31 = (_np.int64(1) << 31) - 1
        high = self.shl(self._mul_small(value, factor >> 31), _np.int64(31))
        low = self._mul_small(value, factor & mask31)
        # Carried add of two normalized values; word sums stay below 2**33.
        return _normalize([a + b for a, b in zip(high, low)])

    def shl(self, value, count):
        """``V << count`` in chunks of <= 30 bits (each a digit pass)."""
        if _np.isscalar(count) or getattr(count, "ndim", 1) == 0:
            count = _np.full(value[0].size, int(count), dtype=_np.int64)
        result = value
        remaining = count
        while remaining.size and int(remaining.max()) > 0:
            step = _np.minimum(remaining, 30)
            result = self._mul_small(result, _np.int64(1) << step)
            remaining = remaining - step
        return result

    @staticmethod
    def shr_exact(value, count):
        """``V >> count`` (exact division) in chunks of <= 31 bits."""
        words = list(value)
        remaining = count
        while True:
            step = _np.minimum(remaining, 31)
            low_mask = (_np.int64(1) << step) - 1
            up = LIMB_BITS - step
            for index in range(len(words) - 1):
                carried = (words[index + 1] & low_mask) << up
                words[index] = (words[index] >> step) | carried
            words[-1] = words[-1] >> step
            remaining = remaining - step
            if not remaining.size or int(remaining.max()) <= 0:
                break
        return tuple(words)

    def ishl(self, value, counts):
        """``V <<= counts`` in place (per-element counts)."""
        self.scatter(value, slice(None), self.shl(value, counts))

    @staticmethod
    def _compare(left, right, lowest):
        # Lexicographic with the top word most significant, folded up
        # from the lowest word, whose comparison is ``lowest``.
        result = lowest(left[0], right[0])
        for mine, theirs in zip(left[1:], right[1:]):
            result = (mine > theirs) | ((mine == theirs) & result)
        return result

    def gt(self, left, right):
        return self._compare(left, right, _np.greater)

    def _ge(self, left, right):
        return self._compare(left, right, _np.greater_equal)

    @staticmethod
    def bit_or(left, right):
        # Valid because normalized lower words occupy exactly 32 bits.
        return tuple(mine | theirs for mine, theirs in zip(left, right))

    @staticmethod
    def trailing_zeros(value):
        *low, top = value
        result = LIMB_BITS * len(low) + _word_trailing_zeros(top)
        for index in reversed(range(len(low))):
            zeros = LIMB_BITS * index + _word_trailing_zeros(low[index])
            result = _np.where(low[index] != 0, zeros, result)
        return result

    @staticmethod
    def reduceat(cells, starts):
        # Lower-word partial sums < segment_length * 2**32 and top-word
        # partial sums < (semantic segment sum) / 2**(32*(limbs-1)) <
        # 2**61 — all inside int64.
        return _normalize([_np.add.reduceat(word, starts) for word in cells])

    # -- fused kernels (per-op composition) ----------------------------

    def halve_at(self, value, idx, counts):
        self.scatter(value, idx, self.shr_exact(self.gather(value, idx), counts))

    def iadd_gather(self, dest, idx, src):
        self.iadd(dest, idx, self.gather(src, idx))

    # -- transition tests ----------------------------------------------

    def is_tight(self, running, beta_den, threshold):
        """:func:`~repro.core.vertex_logic.is_tight_scaled`, limb-wise:
        ``running * beta_den >= threshold``."""
        return self._ge(self.mul_int(running, beta_den), threshold)

    def wants_raise(self, sums, weight, level, extra_shift=None):
        """:func:`~repro.core.vertex_logic.wants_raise_scaled`,
        limb-wise: ``sums << (level+1) <= weight << extra_shift``."""
        lhs = self.shl(sums, level + 1)
        rhs = weight if extra_shift is None else self.shl(weight, extra_shift)
        return ~self.gt(lhs, rhs)


#: The ~128-bit lane (headroom ``2**93``, 31-bit multipliers).
TwoLimbOps = LimbOps("two-limb", 2)

#: The ~192-bit lane (headroom ``2**124``, 62-bit multipliers).
ThreeLimbOps = LimbOps("three-limb", 3)

#: The ~256-bit lane (headroom ``2**156``, 62-bit multipliers).
FourLimbOps = LimbOps("four-limb", 4)


def _value_slab(ops, parts):
    """One lane value array from per-instance chunks in arena order:
    int64 arrays (the fused iteration 0) join and split once; any list
    of Python ints (the scalar pass, carries) sends all to from_list."""
    if all(isinstance(part, _np.ndarray) for part in parts):
        return ops.from_int64(_np.concatenate(parts))
    return ops.from_list(
        [
            value
            for part in parts
            for value in (part.tolist() if isinstance(part, _np.ndarray) else part)
        ]
    )


@dataclass
class MachineLane:
    """One machine-width rung of the spill ladder.

    ``ops`` implements the lane's arithmetic; ``headroom_bits`` bounds
    every intermediate of one sweep (see :func:`scale_limit`);
    ``multiplier_bits`` bounds every scalar multiplier the ops apply
    (``beta_den``, ``alpha_num``, ``2**(z+2)``); ``cost_factor`` is the
    relative per-cell sweep cost the shard balancer charges
    (:func:`repro.core.parallel.estimated_cost`), about the number of
    int64 passes one primitive op takes on the lane.  ``min_nnz`` is
    the smallest arena (total incidence cells) on which the lane beats
    the big-int loop: under ``lane="auto"`` a smaller arena runs
    there instead.  Rows are mutable so tests can shrink a budget to
    force spills; pool workers receive the parent's budgets and
    ``min_nnz`` with every shard.
    """

    ops: object
    headroom_bits: int
    multiplier_bits: int
    cost_factor: int
    min_nnz: int = 0


#: Every machine lane, strongest first (the spill ladder appends the
#: unbounded big-int loop after these).  Nothing outside this table
#: names a lane's ops, budgets, cost or ``min_nnz``.
LANE_TABLE = {
    # Plain int64 cells.  Any int64 multiplier is valid; the 62-bit
    # headroom is the bound that binds.
    "int64": MachineLane(
        Int64Ops, headroom_bits=62, multiplier_bits=63, cost_factor=1
    ),
    # ``hi * 2**32 + lo``: partial reduceat sums of the ``hi`` limbs stay
    # below ``2**(93 - 32) * segment_length < 2**63``, and limb products
    # of a 31-bit multiplier stay inside int64.
    "two-limb": MachineLane(
        TwoLimbOps, headroom_bits=93, multiplier_bits=31, cost_factor=2
    ),
    # ``hi * 2**64 + mid * 2**32 + lo`` with ``hi`` below ``2**60``.
    # Multipliers split into two 31-bit halves (one digit pass each plus
    # a carried add), which doubles the budget to 62 bits: enough for the
    # huge-``beta_den`` f-approximation regime two-limb rejects.
    "three-limb": MachineLane(
        ThreeLimbOps, headroom_bits=124, multiplier_bits=62, cost_factor=3
    ),
    # Three-limb's layout with one more 32-bit word below the top one
    # (``hi`` still below ``2**60``).  Solo solves and 4-instance arenas
    # of rank-3 instances crossed over against the big-int loop between
    # 1 440 and 2 880 cells on a 2-core x86-64 host.
    "four-limb": MachineLane(
        FourLimbOps, headroom_bits=156, multiplier_bits=62, cost_factor=4,
        min_nnz=2500,
    ),
}

#: The machine lanes' names in ladder order.
MACHINE_LANES = tuple(LANE_TABLE)


class LaneRun:
    """One batched execution over a shared CSR arena on a kernel lane.

    ``K >= 1`` instances are packed into disjoint global id ranges and
    advanced together, one vectorized sweep per iteration; ``ops`` is
    the lane backend (:class:`Int64Ops` or a :class:`LimbOps`
    instance) and ``limits`` the per-instance scale
    ceilings from the lane's headroom bound.  An instance whose
    dynamically growing scale would cross its ceiling is *spilled*:
    the engine rolls the instance back to the interrupted sweep's
    start, extracts that exact state as a lane-neutral **carry** (the
    second element of :meth:`solve`'s result maps spilled positions
    to carries), and the caller resumes it on a wider lane via
    ``carries=`` — from the carried iteration, not from iteration 0.
    ``carries[k]`` (when given) replaces instance ``k``'s iteration-0
    state with the carried mid-run state; per-instance iteration
    offsets keep iteration and round accounting identical to an
    uninterrupted run.  Everything, resumed or not, is bit-identical
    to the scalar fastpath executor.
    """

    def __init__(
        self,
        hypergraphs,
        states,
        config: AlgorithmConfig,
        *,
        ops,
        limits,
        carries=None,
        arena: BatchArena | None = None,
        transpose=None,
    ):
        self.config = config
        self.spec = config.schedule == "spec"
        self.count = len(hypergraphs)
        self.hypergraphs = hypergraphs
        self.states = states
        self.ops = ops
        if carries is None:
            carries = [None] * self.count
        if arena is None:
            # ``arena`` lets callers that already hold this exact
            # packing (a worker's shipped shard sliced per lane via
            # :func:`repro.hypergraph.csr.slice_arena`) skip the
            # re-pack; it must equal ``pack_arena(hypergraphs)``.
            # Iteration 0 left every instance holding its CSR arrays,
            # so the packer concatenates them.
            arena = pack_arena(hypergraphs)
        self.arena = arena
        total_v = arena.total_vertices
        total_e = arena.total_edges

        int64 = _np.int64
        instance_ids = _np.arange(self.count, dtype=int64)
        edge_counts = _np.diff(_np.array(arena.edge_offset, dtype=int64))
        self.inst_e = _np.repeat(instance_ids, edge_counts)
        # -- edge-side state ------------------------------------------
        # Admitted alphas are integral (see lane_eligibility), so each
        # numerator is its raise multiplier (one per edge under local).
        self.alpha_num_e = _np.concatenate(
            [
                _np.full(count, state.alpha.numerator, dtype=int64)
                if isinstance(state.alpha, Fraction)
                else _np.array([a.numerator for a in state.alpha], dtype=int64)
                for state, count in zip(states, edge_counts.tolist())
            ]
        )
        self.bid = _value_slab(
            ops,
            [
                carry["bid"] if carry else state.bid
                for state, carry in zip(states, carries)
            ],
        )
        # Iteration 0's raised bids (exact, and charged by the headroom
        # bound) and duals follow from the bids; carries load their own.
        self.raised = ops.mul_int(self.bid, self.alpha_num_e)
        self.delta = ops.copy(self.bid)
        self.covered = _np.zeros(total_e, dtype=bool)
        self.raise_count = _np.zeros(total_e, dtype=int64)
        self.halving_count = _np.zeros(total_e, dtype=int64)

        # -- vertex-side state ----------------------------------------
        self.scales = [
            carry["scale"] if carry else state.scale
            for state, carry in zip(states, carries)
        ]
        betas = [config.beta(hypergraph.rank) for hypergraph in hypergraphs]
        beta_den = [beta.denominator for beta in betas]
        beta_gap = [beta.denominator - beta.numerator for beta in betas]
        z_caps = [config.z(hypergraph.rank) for hypergraph in hypergraphs]
        self.z_caps = z_caps
        self.limits = limits
        vertex_counts = _np.diff(_np.array(arena.vertex_offset, dtype=int64))
        # ``w * scale`` and the step-3a threshold ``w * scale * (beta_den
        # - beta_num)`` as two lane multiplies over one weight slab while
        # every weight is an int and both are exact, which unbounded
        # Python arithmetic checks before numpy can wrap: the products
        # fit int64 on the int64 lane, the multipliers fit the limb
        # lanes' 62-bit ``mul_int`` budget (weights past int64 enter
        # the slab through ``from_list``).
        weights = [hypergraph.weights_int64() for hypergraph in hypergraphs]
        exact = all(
            weight is not None
            and hypergraph.max_weight * scale * max(gap, 1) <= _INT64_MAX
            if ops is Int64Ops
            else hypergraph.weights_all_int and max(scale, gap) < 1 << 62
            for hypergraph, weight, scale, gap in zip(
                hypergraphs, weights, self.scales, beta_gap
            )
        )
        if exact:
            self.weight_scaled = ops.mul_int(
                _value_slab(
                    ops,
                    [
                        hypergraph.weights if weight is None else weight
                        for hypergraph, weight in zip(hypergraphs, weights)
                    ],
                ),
                _np.repeat(_np.array(self.scales, dtype=int64), vertex_counts),
            )
            self.tight_rhs = ops.mul_int(
                self.weight_scaled,
                _np.repeat(_np.array(beta_gap, dtype=int64), vertex_counts),
            )
        else:
            # Fractional weights or wider multipliers: per vertex, exact.
            scaled, thresholds = [], []
            for hypergraph, scale, beta in zip(hypergraphs, self.scales, betas):
                if _BEAT is not None:
                    _BEAT()
                for weight in hypergraph.weights:
                    scaled.append(exact_scaled_int(weight, scale))
                    thresholds.append(
                        tight_threshold_scaled(
                            weight, beta.numerator, beta.denominator, scale
                        )
                    )
            self.weight_scaled = ops.from_list(scaled)
            self.tight_rhs = ops.from_list(thresholds)
        self.total_delta = _value_slab(
            ops,
            [
                carry["total_delta"] if carry else state.total_delta
                for state, carry in zip(states, carries)
            ],
        )
        degrees = _np.concatenate(
            [_np.asarray(state.degrees, dtype=int64) for state in states]
        )
        self.uncovered_count = degrees.copy()
        self.level = _np.zeros(total_v, dtype=int64)
        self.k_inc = _np.zeros(total_v, dtype=int64)
        self.flags = _np.zeros(total_v, dtype=int64)
        self.in_cover = _np.zeros(total_v, dtype=bool)
        self.dead = degrees == 0
        self.inst_v = _np.repeat(instance_ids, vertex_counts)
        self.beta_den_v = _np.repeat(
            _np.array(beta_den, dtype=int64), vertex_counts
        )
        self.z_v = _np.repeat(_np.array(z_caps, dtype=int64), vertex_counts)
        z_max = max(z_caps)
        self.stuck = _np.zeros((total_v, z_max), dtype=int64)

        # -- carried (resumed) instances ------------------------------
        # A carry replaces the raised bids, duals and bookkeeping slices
        # with the spilled run's sweep-start state; the other value
        # arrays above were already loaded from it.
        for instance, carry in enumerate(carries):
            if carry is None:
                continue
            vertex_slice = arena.vertex_slice(instance)
            edge_slice = arena.edge_slice(instance)
            ops.scatter(
                self.raised, edge_slice, ops.from_list(carry["raised"])
            )
            ops.scatter(self.delta, edge_slice, ops.from_list(carry["delta"]))
            self.level[vertex_slice] = carry["level"]
            self.in_cover[vertex_slice] = carry["in_cover"]
            self.dead[vertex_slice] = carry["dead"]
            self.uncovered_count[vertex_slice] = carry["uncovered_count"]
            self.covered[edge_slice] = carry["covered"]
            self.raise_count[edge_slice] = carry["raise_count"]
            self.halving_count[edge_slice] = carry["halving_count"]
            stuck = _np.array(carry["stuck"], dtype=int64)
            self.stuck[vertex_slice, : stuck.shape[1]] = stuck
        self.live_edge = ~self.covered

        # -- CSR kernels ----------------------------------------------
        membership = arena.membership
        # ``asarray``: an array-packed or mmap-loaded arena already
        # holds int64 arrays, which these kernels only read — no copy.
        self.e_cells = _np.asarray(membership.cells, dtype=int64)
        self.e_starts = _np.asarray(membership.starts, dtype=int64)
        self.e_lengths = _np.asarray(membership.lengths, dtype=int64)
        # The incidence layout is the membership transpose: sorting the
        # cells by vertex, ties by position, groups the (edge, vertex)
        # pairs by vertex with ascending edge ids inside each group
        # — the same ordering :func:`repro.hypergraph.csr.arena_incidence`
        # specifies (and tests pin), built vectorized because this runs
        # per solve.  ``transpose=`` lets a caller resuming the same
        # arena on a wider lane (the spill ladder) reuse the arrays
        # instead of re-sorting; it must equal this construction.
        if transpose is None:
            nnz = self.e_cells.size
            if total_v * nnz < _TRANSPOSE_KEY_LIMIT:
                # Unique keys ``vertex * nnz + cell``: the default sort
                # gives the stable sort's order, several times faster.
                order = _np.argsort(
                    self.e_cells * nnz + _np.arange(nnz, dtype=int64)
                )
            else:
                order = _np.argsort(self.e_cells, kind="stable")
            v_cells = _np.repeat(
                _np.arange(total_e, dtype=int64), self.e_lengths
            )[order]
            v_lengths = _np.bincount(self.e_cells, minlength=total_v).astype(
                int64
            )
            v_starts = _np.zeros(total_v, dtype=int64)
            _np.cumsum(v_lengths[:-1], out=v_starts[1:])
            transpose = (v_cells, v_starts, v_lengths)
        self.transpose = transpose
        self.v_cells, self.v_starts, self.v_lengths = transpose
        v_lengths = self.v_lengths
        live_start = _np.nonzero(v_lengths > 0)[0]

        # -- per-instance bookkeeping ---------------------------------
        self.active = _np.ones(self.count, dtype=bool)
        self.spilled: set[int] = set()
        self.carries_out: dict[int, dict] = {}
        self._spilled_this_sweep: list[int] = []
        self.iterations = [0] * self.count
        # Resumed instances pick their iteration/round accounting up
        # where the spilling lane left off: local sweep s is global
        # iteration ``offsets[k] + s``.
        self.offsets = _np.array(
            [carry["iterations"] if carry else 0 for carry in carries],
            dtype=int64,
        )
        self.halt_round = _np.array(
            [
                carry["halt_round"] if carry else INIT_EXCHANGE_ROUNDS
                for carry in carries
            ],
            dtype=int64,
        )
        self.live_v = live_start[
            ~self.in_cover[live_start] & ~self.dead[live_start]
        ]
        self.live_e = _np.nonzero(self.live_edge)[0]

        # -- sweep caches ---------------------------------------------
        # The live-subset views (and the vertex view's live-edge mask)
        # only change when a live set changes — joins, coverage,
        # spills, terminations.  Deep runs spend most sweeps with no
        # structural change at all, so caching them across sweeps
        # removes the dominant rebuild cost.  ``None`` means stale.
        self._edge_view_cache = None
        self._vertex_view_cache = None
        self._vertex_mask_cache = None
        self._any_inc = False
        # Scratch flag arrays for the dedup in the coverage phases:
        # scatter-mark / flatnonzero / clear yields ascending unique ids
        # without the sort ``np.unique`` would pay.  Invariant:
        # all-False between sweeps.
        self._edge_seen = _np.zeros(total_e, dtype=bool)
        self._vertex_seen = _np.zeros(total_v, dtype=bool)

    # ------------------------------------------------------------------
    # Gather / segment kernels
    # ------------------------------------------------------------------

    def _expand_segments(self, ids, starts, lengths):
        """Flat cell positions of the given segments, concatenated."""
        lens = lengths[ids]
        total = int(lens.sum())
        if total == 0:
            return _np.empty(0, dtype=_np.int64)
        ends = _np.cumsum(lens)
        inner = _np.arange(total, dtype=_np.int64) - _np.repeat(
            ends - lens, lens
        )
        return _np.repeat(starts[ids], lens) + inner

    def _touch_edges(self):
        """A live-edge set change staled the edge view and the vertex
        view's live-edge mask."""
        self._edge_view_cache = None
        self._vertex_mask_cache = None

    def _touch_vertices(self):
        self._vertex_view_cache = None

    def _edge_view(self):
        """Live-edge subset CSR: (live edges, segment starts, cells).

        Touches only the cells of edges that are still uncovered — the
        live sets shrink fast, and full-arena kernels would dominate
        the tail sweeps.  The view is cached across sweeps and rebuilt
        only when the live-edge set changed.
        """
        if self._edge_view_cache is not None:
            return self._edge_view_cache
        live = self.live_e
        lengths = self.e_lengths[live]
        starts = _np.zeros(live.size, dtype=_np.int64)
        if live.size:
            _np.cumsum(lengths[:-1], out=starts[1:])
        cells = self.e_cells[
            self._expand_segments(live, self.e_starts, self.e_lengths)
        ]
        self._edge_view_cache = (live, starts, cells)
        return self._edge_view_cache

    def _vertex_view(self):
        """Live-vertex subset CSR over the incidence layout (cached
        across sweeps like :meth:`_edge_view`)."""
        if self._vertex_view_cache is not None:
            return self._vertex_view_cache
        live = self.live_v
        lengths = self.v_lengths[live]
        starts = _np.zeros(live.size, dtype=_np.int64)
        if live.size:
            _np.cumsum(lengths[:-1], out=starts[1:])
        cells = self.v_cells[
            self._expand_segments(live, self.v_starts, self.v_lengths)
        ]
        self._vertex_view_cache = (live, starts, cells)
        return self._vertex_view_cache

    def _live_vertex_sums(self, edge_values, vertex_view):
        """Per-live-vertex sums of an edge value array over live
        incident edges, aligned with the view's vertex order."""
        ops = self.ops
        live, starts, cells = vertex_view
        if not live.size:
            return ops.from_list([])
        # Gather first, mask second: O(live cells), not O(total edges).
        # The mask is reused while both the view and the live-edge set
        # are unchanged (identity check on the view's cells catches a
        # rebuilt view; _touch_edges catches coverage).
        cached = self._vertex_mask_cache
        if cached is not None and cached[0] is cells:
            mask = cached[1]
        else:
            mask = self.live_edge[cells]
            self._vertex_mask_cache = (cells, mask)
        masked = ops.mul_mask(ops.gather(edge_values, cells), mask)
        return ops.reduceat(masked, starts)

    # ------------------------------------------------------------------
    # Sweep phases
    # ------------------------------------------------------------------

    def _level_up(self, vertices, running):
        """Step 3d's while-loop, vectorized over a shrinking index set.

        The comparison is the array form of
        :func:`~repro.core.vertex_logic.count_level_increments_scaled`:
        ``(running << shift) > weight_scaled * (2**shift - 1)``.
        """
        ops = self.ops
        self.k_inc[vertices] = 0
        self._any_inc = False
        idx = vertices
        while idx.size:
            shift = self.level[idx] + 1
            over = ops.gt(
                ops.shl(running, shift),
                ops.mul_int(
                    ops.gather(self.weight_scaled, idx),
                    (_np.int64(1) << shift) - 1,
                ),
            )
            idx = idx[over]
            running = ops.gather(running, over)
            if not idx.size:
                break
            self.level[idx] += 1
            self.k_inc[idx] += 1
            self._any_inc = True
            capped = self.level[idx] >= self.z_v[idx]
            if capped.any():
                vertex = int(idx[capped][0])
                instance = int(self.inst_v[vertex])
                local = vertex - self.arena.vertex_offset[instance]
                raise InvariantViolationError(
                    f"vertex {local} reached level "
                    f"{int(self.level[vertex])} >= "
                    f"z = {self.z_caps[instance]} (Claim 4 violated)"
                )

    def _record_flags(self, vertices, sums, extra_shift=None):
        """Step 3e for a vertex set: flags plus stuck statistics.

        ``sums`` is aligned with ``vertices`` (one weighted-bid sum per
        entry, as produced by :meth:`_live_vertex_sums`).
        """
        if not vertices.size:
            return
        ops = self.ops
        weight = ops.gather(self.weight_scaled, vertices)
        raise_flag = ops.wants_raise(
            sums, weight, self.level[vertices], extra_shift
        )
        self.flags[vertices] = raise_flag
        stuck = vertices[~raise_flag]
        if stuck.size:
            _np.add.at(self.stuck, (stuck, self.level[stuck]), 1)

    def _mark_coverage(self, joiners):
        """Edges of this sweep's joiners become covered."""
        if not joiners.size:
            return _np.empty(0, dtype=_np.int64)
        cells = self.v_cells[
            self._expand_segments(joiners, self.v_starts, self.v_lengths)
        ]
        seen = self._edge_seen
        seen[cells[~self.covered[cells]]] = True
        newly = _np.flatnonzero(seen)
        seen[newly] = False
        if newly.size:
            self.covered[newly] = True
            self.live_edge[newly] = False
            self.live_e = self.live_e[~self.covered[self.live_e]]
            self._touch_edges()
        return newly

    def _apply_coverage(self, newly):
        """Non-joining members learn coverage; returns childless ones."""
        if not newly.size:
            return _np.empty(0, dtype=_np.int64)
        cells = self.e_cells[
            self._expand_segments(newly, self.e_starts, self.e_lengths)
        ]
        members = cells[~self.in_cover[cells]]
        _np.subtract.at(self.uncovered_count, members, 1)
        seen = self._vertex_seen
        seen[members] = True
        candidates = _np.flatnonzero(seen)
        seen[candidates] = False
        terminated = candidates[
            (self.uncovered_count[candidates] == 0)
            & ~self.dead[candidates]
        ]
        if terminated.size:
            self.dead[terminated] = True
        return terminated

    def _halve_edges(self, edge_view) -> bool:
        """Step 3d (edge half) with per-instance dynamic rescaling.

        The scalar executor rescales lazily edge by edge; the combined
        factor it reaches is ``2**max(count - trailing_zeros)`` over
        the instance's halving edges, independent of processing order.
        A Python loop over the growing instances decides each one's new
        scale, or spills it when that scale would outgrow the lane's
        headroom; then every growth applies at once, one per-element
        shift per value array (shift 0 for instances that spilled or
        did not grow).  Returns whether any instance spilled (the
        caller's live views are then stale).
        """
        ops = self.ops
        live, starts, cells = edge_view
        if not live.size:
            return False
        if not self._any_inc:
            # No vertex leveled up this sweep, so every segment total
            # below is zero — skip the reduceat (most deep-run sweeps).
            return False
        totals = _np.add.reduceat(self.k_inc[cells], starts)
        mask = totals > 0
        halving = live[mask]
        if not halving.size:
            return False
        counts = totals[mask]
        joint = ops.bit_or(
            ops.gather(self.bid, halving), ops.gather(self.raised, halving)
        )
        trailing = ops.trailing_zeros(joint)
        deficit = counts - trailing
        lacking = deficit > 0
        spilled_now = False
        if lacking.any():
            factors = _np.zeros(self.count, dtype=_np.int64)
            _np.maximum.at(
                factors, self.inst_e[halving[lacking]], deficit[lacking]
            )
            for instance in _np.nonzero(factors)[0].tolist():
                new_scale = self.scales[instance] << int(factors[instance])
                if new_scale > self.limits[instance]:
                    self._spill(instance)
                    factors[instance] = 0
                    spilled_now = True
                else:
                    self.scales[instance] = new_scale
            if factors.any():
                self._rescale(factors)
            if spilled_now:
                keep = self.live_edge[halving]
                halving = halving[keep]
                counts = counts[keep]
                if not halving.size:
                    return True
        self.halving_count[halving] += counts
        ops.halve_at(self.bid, halving, counts)
        ops.halve_at(self.raised, halving, counts)
        return spilled_now

    def _rescale(self, factors) -> None:
        """Multiply instance ``k``'s values by ``2**factors[k]``: one
        in-place, per-element shift per value array (replacing the
        arrays instead raised a 100 000-edge solo solve's peak RSS by
        about 5 MiB)."""
        ishl = self.ops.ishl
        edge_shift = factors[self.inst_e]
        vertex_shift = factors[self.inst_v]
        for array in (self.bid, self.raised, self.delta):
            ishl(array, edge_shift)
        for array in (self.total_delta, self.weight_scaled, self.tight_rhs):
            ishl(array, vertex_shift)

    def _raise_and_grow(self, edge_view, vertex_view):
        """Step 3f across the live arena: raises, then dual growth."""
        ops = self.ops
        live, starts, cells = edge_view
        if live.size:
            unanimous = _np.bitwise_and.reduceat(self.flags[cells], starts)
            raising = live[unanimous == 1]
            if raising.size:
                self.raise_count[raising] += 1
                ops.scatter(
                    self.bid, raising, ops.gather(self.raised, raising)
                )
                ops.scatter(
                    self.raised,
                    raising,
                    ops.mul_int(
                        ops.gather(self.bid, raising),
                        self.alpha_num_e[raising],
                    ),
                )
            ops.iadd_gather(self.delta, live, self.bid)
        vertices = vertex_view[0]
        if vertices.size:
            ops.iadd(
                self.total_delta,
                vertices,
                self._live_vertex_sums(self.bid, vertex_view),
            )

    def _spill(self, instance: int) -> None:
        """Take an instance off this lane; the end-of-sweep carry pass
        rolls it back to the sweep's start for a wider lane to resume."""
        self.spilled.add(instance)
        self._spilled_this_sweep.append(instance)
        self.active[instance] = False
        edge_slice = self.arena.edge_slice(instance)
        self.live_edge[edge_slice] = False
        self._filter_live()

    def _filter_live(self) -> None:
        self.live_v = self.live_v[self.active[self.inst_v[self.live_v]]]
        self.live_e = self.live_e[self.active[self.inst_e[self.live_e]]]
        self._touch_edges()
        self._touch_vertices()

    def _bump_halt(self, instances, round_a, extra: int = 0) -> None:
        """Raise instances' halting rounds to their phase-A round (+
        ``extra``); ``round_a`` is the per-instance round array (it
        varies across resumed instances with different offsets)."""
        if instances.size:
            _np.maximum.at(
                self.halt_round, instances, round_a[instances] + extra
            )

    # ------------------------------------------------------------------
    # Spill-state carry
    # ------------------------------------------------------------------

    def _undo_and_carry(
        self, instance, sweep, joiners, nonjoin, newly, terminated,
        halt_before,
    ) -> None:
        """Roll a spilled instance back to this sweep's start and
        extract the carry.

        The spill is detected inside :meth:`_halve_edges`, by which
        point the sweep has already applied its phase-A mutations to
        the instance (joins, level increments, coverage marking, halt
        bumps — and, per schedule, coverage application and stuck
        statistics); nothing after the halving phase touches a spilled
        instance (its ids leave the live sets).  Every one of those
        mutations is invertible from the sweep's own records — the
        join/non-join index sets, ``k_inc``, the newly-covered edge
        set, the terminated vertex set and the sweep-start halting
        rounds — so the rollback is exact, and the carry equals the
        instance's state after ``sweep - 1`` full iterations.
        """
        inst_v, inst_e = self.inst_v, self.inst_e
        newly_i = newly[inst_e[newly] == instance]
        if newly_i.size:
            # _apply_coverage's decrements, inverted under the same
            # membership mask (in_cover is restored only afterwards).
            cells = self.e_cells[
                self._expand_segments(newly_i, self.e_starts, self.e_lengths)
            ]
            members = cells[~self.in_cover[cells]]
            _np.add.at(self.uncovered_count, members, 1)
            self.covered[newly_i] = False
        terminated_i = terminated[inst_v[terminated] == instance]
        self.dead[terminated_i] = False
        nonjoin_i = nonjoin[inst_v[nonjoin] == instance]
        if not self.spec and nonjoin_i.size:
            # Compact mode fixed flags/stuck in phase A (spec records
            # them after halving, which a spilled instance never
            # reaches).  Stuck was counted at the post-increment level,
            # so subtract before restoring the levels.
            stuck_i = nonjoin_i[self.flags[nonjoin_i] == 0]
            if stuck_i.size:
                _np.subtract.at(
                    self.stuck, (stuck_i, self.level[stuck_i]), 1
                )
        self.level[nonjoin_i] -= self.k_inc[nonjoin_i]
        joiners_i = joiners[inst_v[joiners] == instance]
        self.in_cover[joiners_i] = False
        self.halt_round[instance] = halt_before[instance]
        self.carries_out[instance] = self._extract_carry(
            instance, sweep - 1
        )

    def _extract_carry(self, instance: int, iterations: int) -> dict:
        """The instance's exact sweep-start state, lane-neutral.

        A plain dict of Python data.  Value arrays cross the lane
        boundary as Python ints (limb tuples reconstruct, int64 words
        widen losslessly), so any wider lane — or the scalar big-int
        loop — can resume from iteration ``iterations`` with identical
        bits.
        """
        ops = self.ops
        vertex_slice = self.arena.vertex_slice(instance)
        edge_slice = self.arena.edge_slice(instance)
        return dict(
            scale=self.scales[instance],
            bid=ops.tolist_slice(self.bid, edge_slice),
            raised=ops.tolist_slice(self.raised, edge_slice),
            delta=ops.tolist_slice(self.delta, edge_slice),
            total_delta=ops.tolist_slice(self.total_delta, vertex_slice),
            level=self.level[vertex_slice].tolist(),
            in_cover=self.in_cover[vertex_slice].tolist(),
            dead=self.dead[vertex_slice].tolist(),
            uncovered_count=self.uncovered_count[vertex_slice].tolist(),
            covered=self.covered[edge_slice].tolist(),
            raise_count=self.raise_count[edge_slice].tolist(),
            halving_count=self.halving_count[edge_slice].tolist(),
            stuck=self.stuck[
                vertex_slice, : self.z_caps[instance]
            ].tolist(),
            halt_round=int(self.halt_round[instance]),
            iterations=int(self.offsets[instance]) + iterations,
        )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def solve(self) -> tuple[dict[int, dict], dict[int, dict]]:
        """Run the arena to completion.

        Returns ``(solved, carries)``: per-position raw results for
        instances this lane finished, and per-position carry states
        for instances that spilled mid-run (resume them on a wider
        lane via ``carries=``).
        """
        config = self.config
        ops = self.ops
        spec = self.spec
        resumed = bool(self.offsets.any())
        sweep = 0
        while self.live_e.size:
            if _BEAT is not None:
                _BEAT()
            sweep += 1
            max_offset = (
                int(self.offsets[self.active].max()) if resumed else 0
            )
            if sweep + max_offset > config.max_iterations:
                raise RoundLimitExceededError(
                    f"no termination after {config.max_iterations} "
                    f"iterations; {self.live_e.size} edges uncovered "
                    "across the batch"
                )
            # Per-instance phase-A rounds: resumed instances are offset
            # (phase_a_round is elementwise over the iteration array).
            round_a = phase_a_round(sweep + self.offsets, spec=spec)
            halt_before = self.halt_round.copy()

            live = self.live_v
            if not spec:
                # Compact: flags are fixed in phase A on the previous
                # sweep's bids/coverage, before joins are applied.
                pre_view = self._vertex_view()
                pre_sums = self._live_vertex_sums(self.raised, pre_view)

            running = ops.gather(self.total_delta, live)
            tight = ops.is_tight(
                running,
                self.beta_den_v[live],
                ops.gather(self.tight_rhs, live),
            )
            joiners = live[tight]
            if joiners.size:
                self.in_cover[joiners] = True
            nonjoin = live[~tight]
            self._level_up(nonjoin, ops.gather(running, ~tight))
            if not spec:
                self._record_flags(
                    nonjoin,
                    ops.gather(pre_sums, ~tight),
                    extra_shift=self.k_inc[nonjoin],
                )

            newly = self._mark_coverage(joiners)
            self._bump_halt(self.inst_v[joiners], round_a)
            self._bump_halt(self.inst_e[newly], round_a, 1)

            if spec:
                terminated = self._apply_coverage(newly)
                self._bump_halt(self.inst_v[terminated], round_a, 2)
                # The refilter is the identity when nothing joined or
                # terminated; skipping it keeps the cached vertex view.
                if joiners.size or terminated.size:
                    self.live_v = self.live_v[
                        ~self.in_cover[self.live_v] & ~self.dead[self.live_v]
                    ]
                    self._touch_vertices()
                edge_view = self._edge_view()
                if self._halve_edges(edge_view):
                    edge_view = self._edge_view()
                vertex_view = self._vertex_view()
                self._record_flags(
                    vertex_view[0],
                    self._live_vertex_sums(self.raised, vertex_view),
                )
                self._raise_and_grow(edge_view, vertex_view)
            else:
                edge_view = self._edge_view()
                if self._halve_edges(edge_view):
                    edge_view = self._edge_view()
                self._raise_and_grow(edge_view, self._vertex_view())
                terminated = self._apply_coverage(newly)
                self._bump_halt(self.inst_v[terminated], round_a, 2)
                if joiners.size or terminated.size:
                    self.live_v = self.live_v[
                        ~self.in_cover[self.live_v] & ~self.dead[self.live_v]
                    ]
                    self._touch_vertices()

            if self._spilled_this_sweep:
                for instance in self._spilled_this_sweep:
                    self._undo_and_carry(
                        instance, sweep, joiners, nonjoin, newly,
                        terminated, halt_before,
                    )
                self._spilled_this_sweep.clear()

            remaining = _np.bincount(
                self.inst_e[self.live_e], minlength=self.count
            )
            finished = _np.nonzero(self.active & (remaining == 0))[0]
            if finished.size:
                for instance in finished:
                    instance = int(instance)
                    self.iterations[instance] = sweep + int(
                        self.offsets[instance]
                    )
                    self.active[instance] = False
                self._filter_live()

        return {
            instance: self._collect(instance)
            for instance in range(self.count)
            if instance not in self.spilled
        }, self.carries_out

    def _collect(self, instance: int) -> dict:
        vertex_slice = self.arena.vertex_slice(instance)
        edge_slice = self.arena.edge_slice(instance)
        levels = self.level[vertex_slice]
        raises = self.raise_count[edge_slice]
        stuck = self.stuck[vertex_slice]
        stats = AlgorithmStats(
            total_raise_events=int(raises.sum()),
            max_raises_per_edge=int(raises.max()),
            total_stuck_events=int(stuck.sum()),
            max_stuck_per_vertex_level=int(stuck.max()),
            total_halvings=int(self.halving_count[edge_slice].sum()),
            max_level=int(levels.max()),
            level_cap=self.z_caps[instance],
        )
        return {
            "scale": self.scales[instance],
            "cover": _np.nonzero(self.in_cover[vertex_slice])[0].tolist(),
            "delta": self.ops.tolist_slice(self.delta, edge_slice),
            "levels": levels.tolist(),
            "stats": stats,
            "alpha": self.states[instance].alpha,
            "iterations": self.iterations[instance],
            "rounds": int(self.halt_round[instance]),
        }
