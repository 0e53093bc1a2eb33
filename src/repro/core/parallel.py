"""Multiprocess sharded batch execution for the fastpath arenas.

The batched arena executor (:mod:`repro.core.batch`) advances K
independent instances with one vectorized sweep per iteration — but on
a single core.  The paper's algorithm is distributed by design, and
independent instances parallelize trivially; this module is that last
step: ``jobs=N`` partitions a batch into per-worker **shards**, ships
each shard's packed CSR arena to a persistent worker pool, runs the
ordinary arena executor (kernel lanes, spill-state carry and all)
inside each worker, and merges the per-instance results back in
submission order.  Parallelism is purely an execution detail:

* **cost-model sharding** — shards are balanced by
  :func:`corrected_cost` (an LPT greedy assignment), not round-robin,
  so one heavy instance cannot serialize the batch behind it.  The
  static :func:`estimated_cost` is ``nnz * expected-iterations``
  scaled by a **lane-eligibility factor**: a cheap probe of the
  ladder's entry rule (:func:`~repro.core.kernels.entry_lane`)
  predicts the kernel lane the instance will run on, and
  big-int-bound instances (whose per-cell cost grows with operand
  width) are costed accordingly instead of as if they were int64.  On top of that,
  workers report per-instance **observed solve times**, which
  :class:`CostModel` folds into a live correction table (keyed by lane
  + structure signature) consulted on the next call — the feedback
  loop that keeps systematic misestimates from recurring;
* **inline transport** — a shard crosses the process boundary as one
  arena container (:func:`repro.hypergraph.store.encode_arena`:
  structure and weights, a CRC per section) inside the pickled
  payload, beside the config, instead of as O(nnz) Python object
  graphs.  A store-backed arena ships as its file's path instead;
* **bit-identical merging** — every worker runs
  :func:`repro.core.batch.run_fastpath_batch` on its shard, whose
  per-instance contract is already "identical to a solo fastpath run",
  so ``jobs=N`` equals ``jobs=1`` equals K scalar runs bit for bit,
  in submission order; the solving shard is recorded in
  ``CoverResult.worker``;
* **supervised dispatch** — the shards run through a
  :class:`~repro.core.stream.BatchSession`, the only code that
  submits to the pool: a dead, hung or miscommunicating worker costs
  a retry (then an in-process re-solve), never a result.  Algorithmic
  exceptions (bad instances) propagate unchanged, exactly as
  ``jobs=1`` would raise them.

The pool is persistent across calls (process spawn costs would swamp
small batches) and grow-only: sized on first use, rebuilt only when a
caller asks for more workers than it has, and reused by every caller
that asks for fewer.  :func:`shutdown_pool` tears it down explicitly
(also registered at interpreter exit), and the next call sizes it
afresh.
"""

from __future__ import annotations

import atexit
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from types import SimpleNamespace

from repro.core.batch import run_fastpath_batch
from repro.core.faults import FaultPlan
from repro.core.kernels import (
    HAS_NUMPY,
    LANE_TABLE,
    MACHINE_LANES,
    entry_lane,
)
from repro.core.params import AlgorithmConfig, resolve_alpha
from repro.core.result import AlgorithmStats, CoverResult
from repro.exceptions import ArenaTransportError, WorkerResultError
from repro.hypergraph.csr import arena_hypergraphs, pack_arena
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.store import decode_arena, encode_arena, load_arena
from repro.lp.scaled import ScaledDual, raw_fraction_list

__all__ = [
    "COST_MODEL",
    "FAULT_PLAN",
    "CostModel",
    "corrected_cost",
    "estimated_cost",
    "observed_work",
    "partition_shards",
    "predicted_lane",
    "run_fastpath_batch_parallel",
    "shard_payload",
    "ship_arena",
    "shutdown_pool",
]

#: Optional :class:`~repro.core.faults.FaultPlan` handed to the
#: session behind every :func:`run_fastpath_batch_parallel` call, where
#: each dispatch draws from it like any session plan (a streaming
#: session built directly carries its own plan instead).
FAULT_PLAN: FaultPlan | None = None


# ----------------------------------------------------------------------
# Cost model and sharding
# ----------------------------------------------------------------------

#: Relative per-cell sweep cost of the big-int loop, which has no row
#: in the machine lanes' table (each of those carries its own
#: ``cost_factor``): a per-object interpreter floor
#: (``_BIGINT_BASE_FACTOR``, priced against the machine lanes, so
#: charged only when numpy runs them) plus width-proportional
#: arithmetic — ``int`` multiplication cost grows with operand bits,
#: so an instance whose weights span tens of thousands of bits is
#: slower *per cell* by orders of magnitude, not by a constant.
_BIGINT_BASE_FACTOR = 8
_BIGINT_WIDTH_DIVISOR = 512


def predicted_lane(hypergraph: Hypergraph, config: AlgorithmConfig) -> str:
    """The kernel lane a solo ``lane="auto"`` solve is expected to finish on.

    A cheap probe — the ladder's own entry rule,
    :func:`~repro.core.kernels.entry_lane`, fed a structural scale
    proxy (``2 * Delta``, the integer-weight initial-bid denominator)
    instead of the exact iteration-0 state, so no scaled state is
    materialized — and the entered lane's ``min_nnz`` against the
    instance's own nnz.  Structural disqualifiers (no numpy,
    fractional alphas, checked mode) predict ``"bigint"`` — those
    instances really do run the scalar loop.

    The prediction is for a solo solve even where the caller batches:
    the corpus manifest's ``lane`` field and the shard cost estimates
    use it as is, though in a batch the ``min_nnz`` gate sees the whole
    lane arena, so a small instance predicted ``"bigint"`` may finish
    on the machine lane its arena shares.
    """
    if hypergraph.num_edges == 0:
        return "int64"
    rank = hypergraph.rank
    alpha = resolve_alpha(
        config, rank, hypergraph.max_degree, hypergraph.max_degree
    )
    probe = SimpleNamespace(
        alpha=alpha, scale=2 * max(1, hypergraph.max_degree)
    )
    lane = entry_lane(hypergraph, config, probe, MACHINE_LANES)
    if lane is None or hypergraph.nnz < LANE_TABLE[lane].min_nnz:
        return "bigint"
    return lane


def _lane_cost_factor(lane: str, hypergraph: Hypergraph) -> int:
    """Relative per-cell cost multiplier for running on ``lane``."""
    if lane in LANE_TABLE:
        return LANE_TABLE[lane].cost_factor
    width = max(
        (
            weight.numerator.bit_length() + weight.denominator.bit_length()
            for weight in hypergraph.weights
        ),
        default=1,
    )
    # Without numpy every instance takes the big-int loop, so the floor
    # separates nothing and only the width term tells instances apart.
    floor = _BIGINT_BASE_FACTOR if HAS_NUMPY else 1
    return floor + width // _BIGINT_WIDTH_DIVISOR


def estimated_cost(
    hypergraph: Hypergraph,
    config: AlgorithmConfig,
    *,
    lane: str | None = None,
) -> int:
    """Deterministic per-instance work estimate for shard balancing.

    Each sweep touches every live incidence cell once, so work is
    ``nnz * iterations``.  The iteration count is bounded by the
    paper's analysis (raises per edge are ``O(log_alpha(Delta *
    2**(f z)))``, levels by ``z``), for which ``log2(Delta) + z`` is a
    cheap structural proxy — exact balance is not required, only that
    a few heavy instances do not pile onto one shard.

    The structural product is scaled by a **lane factor**: the per-cell
    cost of a sweep depends on which kernel lane the instance lands on
    (``lane`` overrides the :func:`predicted_lane` probe when the
    caller already knows), and big-int-bound instances additionally pay
    proportionally to their weights' bit width.  Costing a 36000-bit
    straggler as if it were an int64 instance is how one shard ends up
    ~60x heavier than its siblings while the balancer reports parity.
    """
    nnz = hypergraph.nnz
    expected_iterations = hypergraph.max_degree.bit_length() + config.z(
        hypergraph.rank
    )
    if lane is None:
        lane = predicted_lane(hypergraph, config)
    return (
        max(1, nnz)
        * max(1, expected_iterations)
        * _lane_cost_factor(lane, hypergraph)
    )


def observed_work(
    hypergraph: Hypergraph, config: AlgorithmConfig, result: CoverResult
) -> int:
    """Post-hoc work proxy: like :func:`estimated_cost`, but exact.

    After a solve the *actual* iteration count and the *actual* lane
    are known, so a shard's measured wall time can be apportioned
    across its instances in proportion to the work they really did —
    this is what keeps a shard's one big-int straggler from smearing
    its cost over the int64 instances that shared the arena.
    """
    nnz = hypergraph.nnz
    return (
        max(1, nnz)
        * max(1, result.iterations)
        * _lane_cost_factor(result.lane or "int64", hypergraph)
    )


class CostModel:
    """Live correction table mapping estimates to observed solve rates.

    Workers report per-instance observed solve times
    (:func:`_solve_shard` returns them alongside the results); the
    parent folds each into an exponential moving average of the
    *seconds per estimated-cost unit* rate, keyed by ``(lane,
    signature)`` where the signature is a coarse structural bucket
    ``(rank, nnz.bit_length())``.  :func:`corrected_cost` multiplies
    the static estimate by the learned rate for the instance's
    predicted key (falling back to the global blended rate, then to a
    neutral constant), so systematic misestimates — a lane factor that
    is off for some structure shape on this machine — are corrected by
    the second batch instead of recurring forever.  Thread-safe: the
    streaming session observes from the pool's collector thread.
    """

    def __init__(self, smoothing: float = 0.3) -> None:
        self._lock = threading.Lock()
        self._rates: dict[tuple[str, tuple[int, int]], float] = {}
        self._counts: dict[tuple[str, tuple[int, int]], int] = {}
        self._observations = 0
        self._blended: float | None = None
        self._smoothing = smoothing

    @staticmethod
    def signature(hypergraph: Hypergraph) -> tuple[int, int]:
        """Coarse structural bucket: ``(rank, nnz.bit_length())``."""
        nnz = hypergraph.nnz
        return (hypergraph.rank, nnz.bit_length())

    def observe(
        self,
        lane: str,
        signature: tuple[int, int],
        static_cost: int,
        seconds: float,
    ) -> None:
        """Fold one observed solve time into the table."""
        if seconds <= 0.0 or static_cost <= 0:
            return
        rate = seconds / static_cost
        with self._lock:
            key = (lane, signature)
            previous = self._rates.get(key)
            self._rates[key] = (
                rate
                if previous is None
                else previous + self._smoothing * (rate - previous)
            )
            self._counts[key] = self._counts.get(key, 0) + 1
            self._observations += 1
            self._blended = (
                rate
                if self._blended is None
                else self._blended + self._smoothing * (rate - self._blended)
            )

    def rate(self, lane: str, signature: tuple[int, int]) -> float:
        """Seconds per estimated-cost unit for this key (or fallback)."""
        with self._lock:
            learned = self._rates.get((lane, signature))
            if learned is not None:
                return learned
            return self._blended if self._blended is not None else 1.0

    @property
    def observations(self) -> int:
        """How many observed solve times have been folded in.

        Zero means :func:`corrected_cost` values are still raw static
        cost units, not approximate seconds — the supervisor's solve
        deadline falls back to its flat floor in that regime instead
        of treating cost units as a time estimate.
        """
        with self._lock:
            return self._observations

    def snapshot(self) -> dict:
        """Copy of the learned table (tests and diagnostics)."""
        with self._lock:
            return dict(self._rates)

    def export(self) -> dict:
        """JSON-safe operator view of the learned state.

        Unlike :meth:`snapshot` (raw tuple-keyed rate table, pinned by
        tests), this renders each ``(lane, (rank, bits))`` key as a
        ``"lane|rank|bits"`` string and pairs the EMA rate with how
        many observations fed it — the payload behind the ``stats``
        verb of the TCP front end and
        :meth:`~repro.core.stream.BatchSession.snapshot`.
        """
        with self._lock:
            return {
                "rates": {
                    f"{lane}|{rank}|{bits}": {
                        "rate": rate,
                        "samples": self._counts.get((lane, (rank, bits)), 0),
                    }
                    for (lane, (rank, bits)), rate in self._rates.items()
                },
                "blended": self._blended,
                "observations": self._observations,
            }

    def reset(self) -> None:
        """Forget everything (tests; also isolates benchmark passes)."""
        with self._lock:
            self._rates.clear()
            self._counts.clear()
            self._observations = 0
            self._blended = None


#: Process-wide model shared by the static sharded executor and the
#: streaming session — observations from either inform both.
COST_MODEL = CostModel()


def corrected_cost(
    hypergraph: Hypergraph,
    config: AlgorithmConfig,
    model: CostModel | None = None,
) -> float:
    """:func:`estimated_cost` times the learned rate for its key.

    With no observations yet this is exactly the static estimate (the
    neutral rate is 1.0), so first-call sharding stays deterministic;
    afterwards the comparison between instances is in (approximate)
    seconds.  Only relative magnitudes matter to the LPT balancer.
    """
    if model is None:
        model = COST_MODEL
    lane = predicted_lane(hypergraph, config)
    static = estimated_cost(hypergraph, config, lane=lane)
    return static * model.rate(lane, CostModel.signature(hypergraph))


def _observe_instance(
    hypergraph: Hypergraph,
    config: AlgorithmConfig,
    result: CoverResult,
    seconds: float,
) -> None:
    """Feed one solved instance's observed time into the shared model.

    The observation is keyed by the *actual* lane the instance ran on
    (the worker reports it in the result), against the static estimate
    for that same lane — so the learned rate measures how far the
    structural ``nnz * iterations * factor`` product is from reality,
    not prediction errors in the lane probe.
    """
    lane = result.lane or "int64"
    static = estimated_cost(hypergraph, config, lane=lane)
    COST_MODEL.observe(lane, CostModel.signature(hypergraph), static, seconds)


def partition_shards(
    hypergraphs,
    config: AlgorithmConfig,
    jobs: int,
    costs: list[int | float] | None = None,
) -> list[list[int]]:
    """Split instance indices into ``<= jobs`` cost-balanced shards.

    LPT greedy: instances descend by cost onto the currently lightest
    shard.  ``costs`` supplies precomputed per-instance costs (the
    parallel entry points pass :func:`corrected_cost` values); the
    default is the static :func:`estimated_cost`, which is
    deterministic.  Ties break on index and within-shard indices stay
    ascending, so merged output order never depends on scheduling.
    Empty shards are dropped.
    """
    count = len(hypergraphs)
    shard_count = max(1, min(jobs, count))
    if costs is None:
        costs = [
            estimated_cost(hypergraph, config) for hypergraph in hypergraphs
        ]
    ranked = sorted(range(count), key=lambda index: (-costs[index], index))
    loads = [0] * shard_count
    members: list[list[int]] = [[] for _ in range(shard_count)]
    for index in ranked:
        shard = min(range(shard_count), key=lambda s: (loads[s], s))
        loads[shard] += costs[index]
        members[shard].append(index)
    return [sorted(shard) for shard in members if shard]


# ----------------------------------------------------------------------
# Result wire format
#
# ``Fraction`` pickles through *string parsing* and re-runs gcd
# normalization on every value, so workers ship results as flat tuples
# of ints.  A :class:`~repro.lp.scaled.ScaledDual` (every worker
# result's dual) travels as its ``(scale, numerators)`` and no side
# builds a Fraction per edge; other duals and rationals travel as
# ``(numerator, denominator)`` pairs.  Certificates (present only with
# ``verify=True``) pickle natively: correctness infrastructure is not
# worth a bespoke encoding.
# ----------------------------------------------------------------------


def _encode_rational(value: int | Fraction):
    if isinstance(value, int):
        return value
    return (value.numerator, value.denominator)


def _decode_rational(value) -> int | Fraction:
    if isinstance(value, int):
        return value
    return Fraction(*value)


def _encode_dual(dual) -> tuple:
    if isinstance(dual, ScaledDual):
        return (dual.scale, dual.numerators)
    return (
        tuple(dual.keys()),
        tuple(value.numerator for value in dual.values()),
        tuple(value.denominator for value in dual.values()),
    )


def _decode_dual(wire: tuple):
    if len(wire) == 2:
        return ScaledDual(*wire)
    keys, numerators, denominators = wire
    return dict(zip(keys, raw_fraction_list(numerators, denominators)))


def _encode_result(result: CoverResult) -> tuple:
    stats = result.stats
    return (
        tuple(result.cover),
        _encode_rational(result.weight),
        result.rank,
        _encode_rational(result.epsilon),
        result.iterations,
        result.rounds,
        _encode_dual(result.dual),
        _encode_rational(result.dual_total),
        result.certificate,
        result.levels,
        (
            stats.total_raise_events,
            stats.max_raises_per_edge,
            stats.total_stuck_events,
            stats.max_stuck_per_vertex_level,
            stats.total_halvings,
            stats.max_level,
            stats.level_cap,
        ),
        _encode_rational(result.alpha_min),
        _encode_rational(result.alpha_max),
        result.lane,
    )


#: Field count of the :func:`_encode_result` wire tuple.
_RESULT_WIRE_FIELDS = 14


def _decode_result(wire: tuple, worker: int) -> CoverResult:
    """Rebuild one :class:`CoverResult` from its wire tuple.

    A payload whose shape does not match the wire format raises a
    typed :class:`~repro.exceptions.WorkerResultError` instead of a
    bare ``TypeError``/``ValueError``: a corrupted worker response
    must be distinguishable (and recoverable) at the scheduling layer,
    never decodable into a plausible wrong result.
    """
    if not isinstance(wire, tuple) or len(wire) != _RESULT_WIRE_FIELDS:
        raise WorkerResultError(
            f"worker result payload malformed: expected a "
            f"{_RESULT_WIRE_FIELDS}-field tuple, got "
            f"{type(wire).__name__} of length "
            f"{len(wire) if hasattr(wire, '__len__') else 'n/a'}"
        )
    (
        cover, weight, rank, epsilon, iterations, rounds, dual,
        dual_total, certificate, levels, stats, alpha_min, alpha_max, lane,
    ) = wire
    try:
        return CoverResult(
            cover=frozenset(cover),
            weight=_decode_rational(weight),
            rank=rank,
            epsilon=_decode_rational(epsilon),
            iterations=iterations,
            rounds=rounds,
            dual=_decode_dual(dual),
            dual_total=_decode_rational(dual_total),
            certificate=certificate,
            levels=levels,
            stats=AlgorithmStats(*stats),
            metrics=None,
            alpha_min=_decode_rational(alpha_min),
            alpha_max=_decode_rational(alpha_max),
            lane=lane,
            worker=worker,
        )
    except (TypeError, ValueError, IndexError, ZeroDivisionError) as error:
        raise WorkerResultError(
            f"worker result payload malformed: {error}"
        ) from error


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


#: Ceiling on the extra stall a ``slow`` fault directive may add, so a
#: misconfigured factor on a heavy shard cannot wedge a soak.
_SLOW_FAULT_CAP_SECONDS = 10.0

#: Shortest gap between two progress beats of a supervised worker.
_BEAT_SECONDS = 0.02


def _beater(path: str):
    """The worker's progress hook: touch the heartbeat file ``path`` at
    most every :data:`_BEAT_SECONDS`, however often the solver calls."""
    last = time.monotonic()

    def beat() -> None:
        nonlocal last
        now = time.monotonic()
        if now - last >= _BEAT_SECONDS:
            last = now
            try:
                os.utime(path)
            except OSError:  # the session closed under the shard
                pass

    return beat


def _solve_shard(
    payload: dict,
) -> tuple[int, list[tuple], list[float], bool]:
    """Worker entry point: solve one shard with the in-process executor.

    The payload carries the shard's arena container (inline bytes or
    a store file path), the config, and the parent's lane budgets —
    shipping the budgets keeps parent and workers agreeing on lane
    admission even when tests shrink them to force spills.  Results
    return in the compact wire format of :func:`_encode_result`,
    alongside per-instance observed solve times: the shard's measured
    wall time apportioned by :func:`observed_work` (actual lane, actual
    iterations), which the parent feeds into :data:`COST_MODEL` —
    unless the trailing ``faulted`` flag is set, meaning an injected
    fault directive distorted this shard's wall time and its
    observations must not poison the model.

    Two optional payload fields serve the chaos/supervision layer: a
    ``fault`` directive from a :class:`~repro.core.faults.FaultPlan`
    (``("kill",)`` SIGKILLs the process before any work; ``("hang",
    s)`` stalls before solving; ``("slow", f)`` stretches the solve
    wall time), and a ``heartbeat`` path the worker writes its pid to
    on pickup and then touches as the solver advances (through the
    ``kernels._BEAT`` hook), so the parent's supervisor can tell a long
    solve from a stalled one and kill *this* process when it stalls.
    A vanished container file raises a typed
    :class:`~repro.exceptions.ArenaTransportError`, and a corrupted
    container an :class:`~repro.exceptions.ArenaStoreError`; the parent
    treats both as recoverable transport faults.
    """
    directive = payload.get("fault")
    if directive is not None and directive[0] == "kill":
        # pragma: no cover - exercised via subprocess
        os.kill(os.getpid(), signal.SIGKILL)
    import repro.core.kernels as kernels_module

    heartbeat = payload.get("heartbeat")
    if heartbeat:
        try:
            with open(heartbeat, "w") as handle:
                handle.write(str(os.getpid()))
        except OSError:  # pragma: no cover - heartbeat dir vanished
            pass
    # Set on every task, so no beat can reach an earlier task's file.
    kernels_module._BEAT = _beater(heartbeat) if heartbeat else None
    if directive is not None and directive[0] == "hang":
        time.sleep(directive[1])
    kind, container = payload["transport"]
    if kind == "file":
        # Store-backed shard: the worker re-opens and re-validates the
        # container itself (mmap, zero-copy) instead of receiving a
        # copy of slabs already durable on a shared filesystem.  A
        # vanished file is a transport accident; a damaged one raises
        # ArenaStoreError, which the parent's recovery treats
        # identically.
        try:
            arena = load_arena(container, mmap=True)
        except OSError as error:
            raise ArenaTransportError(
                f"arena container {container!r} vanished before the "
                f"worker could map it: {error}"
            ) from error
    else:
        arena = decode_arena(container)
    # The instances are reconstructed for per-instance metadata only
    # (iteration-0 state preparation, finalization); the executor
    # consumes the shipped arena itself, slicing the per-lane
    # eligibility groups out of it instead of re-packing.
    instances = arena_hypergraphs(arena)
    for name, (headroom, multiplier, min_nnz) in payload["budgets"].items():
        row = LANE_TABLE[name]
        row.headroom_bits, row.multiplier_bits = headroom, multiplier
        row.min_nnz = min_nnz
    config = payload["config"]
    start = time.perf_counter()
    results = run_fastpath_batch(
        instances, config, verify=payload["verify"], arena=arena
    )
    elapsed = time.perf_counter() - start
    if directive is not None and directive[0] == "slow":
        time.sleep(
            min(
                _SLOW_FAULT_CAP_SECONDS,
                elapsed * max(0.0, directive[1] - 1.0),
            )
        )
    work = [
        observed_work(instance, config, result)
        for instance, result in zip(instances, results)
    ]
    total_work = sum(work) or 1
    observed = [elapsed * share / total_work for share in work]
    return (
        payload["shard"],
        [_encode_result(result) for result in results],
        observed,
        directive is not None,
    )


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

_POOL: ProcessPoolExecutor | None = None
_POOL_JOBS = 0
#: Guards the pool globals: since the streaming session recovers
#: crashed shards from the pool's own collector thread, ``_get_pool``
#: / ``shutdown_pool`` race against main-thread callers without it
#: (an unguarded check-then-act could submit to a just-torn-down pool
#: or orphan a freshly built one).  Executor shutdowns always happen
#: *outside* the lock: joining pool threads while holding it could
#: deadlock against a collector thread waiting to acquire it.
_POOL_LOCK = threading.Lock()


def _get_pool(jobs: int) -> ProcessPoolExecutor:
    """The shared pool, grown (never shrunk) to at least ``jobs`` workers:
    a smaller request reuses it, so concurrent callers with different
    ``jobs`` cannot cancel each other's queued shards."""
    global _POOL, _POOL_JOBS
    stale = None
    with _POOL_LOCK:
        if _POOL is not None and _POOL_JOBS < jobs:
            stale, _POOL, _POOL_JOBS = _POOL, None, 0
        if _POOL is None:
            _POOL = ProcessPoolExecutor(max_workers=jobs)
            _POOL_JOBS = jobs
        pool = _POOL
    if stale is not None:
        stale.shutdown(wait=False, cancel_futures=True)
    return pool


def _detach_pool(expected=None) -> ProcessPoolExecutor | None:
    """Atomically clear the pool globals; returns the detached pool.

    With ``expected`` the detach only happens if the current pool *is*
    that object — the streaming session uses this to drop exactly the
    pool whose worker died, never a replacement a sibling callback
    already built.
    """
    global _POOL, _POOL_JOBS
    with _POOL_LOCK:
        if _POOL is None or (expected is not None and _POOL is not expected):
            return None
        pool, _POOL, _POOL_JOBS = _POOL, None, 0
        return pool


def shutdown_pool() -> None:
    """Tear down the persistent worker pool (rebuilt lazily on use).

    From the main thread the shutdown *joins* the pool's internal
    threads — leaving them mid-teardown races concurrent.futures' own
    interpreter-exit hook into a harmless-but-noisy "Exception
    ignored" on a closed pipe.  From any other thread (the streaming
    session's completion callbacks run on the pool's collector thread,
    which must not join itself) the shutdown stays non-blocking.
    """
    pool = _detach_pool()
    if pool is not None:
        wait = threading.current_thread() is threading.main_thread()
        pool.shutdown(wait=wait, cancel_futures=True)


atexit.register(shutdown_pool)


def _resolve_jobs(jobs: int | None) -> int:
    """``jobs <= 0`` (or ``None``) means one worker per available core."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def ship_arena(arena) -> tuple[str, object]:
    """Choose a transport for one packed arena.

    A store-backed arena (``arena.source`` naming a container file that
    still exists, from :func:`repro.hypergraph.store.load_arena`) ships
    **by file reference**, ``("file", path)``: workers on the same
    filesystem re-map the durable container themselves, so nothing is
    serialized.  Anything else — a freshly packed arena, a sliced
    sub-arena (slicing drops provenance), a source whose file has since
    been deleted — ships **inline**, ``("bytes", container)``: its
    :func:`~repro.hypergraph.store.encode_arena` container rides inside
    the pickled payload.
    """
    source = getattr(arena, "source", None)
    path = getattr(source, "path", None)
    if path is not None and os.path.isfile(path):
        return ("file", path)
    return ("bytes", encode_arena(arena))


def shard_payload(arena, shard, config, verify, *, fault=None) -> dict:
    """Build one :func:`_solve_shard` payload for an already-packed arena.

    The parent's lane budgets (every
    :data:`~repro.core.kernels.LANE_TABLE` row's headroom and
    multiplier bits and its ``min_nnz``) are snapshotted into the
    payload at call time so workers always agree with the caller on
    lane admission (tests shrink the budgets to force spills inside
    workers).  ``fault`` is
    an optional worker directive already drawn from a
    :class:`~repro.core.faults.FaultPlan` — the decision is made (and
    logged) by the caller, the worker merely executes it.  Called by
    the streaming session (:mod:`repro.core.stream`), the only code
    that submits to the pool.
    """
    return {
        "shard": shard,
        "transport": ship_arena(arena),
        "config": config,
        "verify": verify,
        "budgets": {
            name: (row.headroom_bits, row.multiplier_bits, row.min_nnz)
            for name, row in LANE_TABLE.items()
        },
        "fault": fault,
    }


def run_fastpath_batch_parallel(
    hypergraphs,
    config: AlgorithmConfig | None = None,
    *,
    verify: bool = True,
    jobs: int | None = None,
) -> list[CoverResult]:
    """Solve K instances across ``jobs`` worker processes.

    Bit-identical to :func:`repro.core.batch.run_fastpath_batch`
    (``jobs=1``) and hence to K solo fastpath runs — sharding only
    changes which process runs an instance's arena, never its bits.
    Results come back in submission order with ``CoverResult.worker``
    naming the slot that solved each instance; ``jobs <= 0`` sizes
    the pool to the machine.

    The LPT shards are packed here and admitted, in one step and with
    stealing off, to a :class:`~repro.core.stream.BatchSession`, so
    shard ``i`` runs on slot ``i`` and every wait on a worker is
    supervised: a heartbeat deadline that kills a stalled worker,
    retry with backoff, the circuit breaker and the in-process
    fallback.  A solver error raises here as soon as its shard reports
    it (no in-process re-solve), and the other shards are withdrawn.
    """
    from repro.core.stream import BatchSession

    config = config or AlgorithmConfig()
    instances = list(hypergraphs)
    jobs = _resolve_jobs(jobs)
    if jobs <= 1 or len(instances) <= 1:
        return run_fastpath_batch(instances, config, verify=verify)

    costs = [corrected_cost(instance, config) for instance in instances]
    shards = partition_shards(instances, config, jobs, costs=costs)
    packed = []
    for indices in shards:
        members = [instances[index] for index in indices]
        packed.append(
            (pack_arena(members), members, [costs[index] for index in indices])
        )
    with BatchSession(
        config,
        jobs=jobs,
        verify=verify,
        steal=False,
        record_schedule=False,
        fault_plan=FAULT_PLAN,
    ) as session:
        groups = session._admit_packed(packed, config, isolate=False)
        tickets = {
            index: ticket
            for indices, group in zip(shards, groups)
            for index, ticket in zip(indices, group)
        }
        try:
            return [tickets[index].result() for index in range(len(instances))]
        except BaseException:
            # First error (or an interrupt) wins: withdraw the rest so
            # leaving the session does not wait for shards whose
            # results would be thrown away.
            for ticket in tickets.values():
                ticket.cancel()
            raise
