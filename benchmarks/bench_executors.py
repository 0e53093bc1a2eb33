"""E9 — executor and instrumentation overheads (methodology check).

Times the same solve four ways:

* fastpath executor (scaled-integer arrays — the sweep workhorse);
* lockstep executor (Fraction object cores);
* lockstep with invariant checking (Claims 1-2 verified every
  iteration — the cost of running in self-verifying mode);
* the full CONGEST message-passing engine.

All four produce bit-identical results (asserted); the timing ratios
justify using fastpath for the scaling experiments.  Also reports the
engine's message statistics for one run, substantiating the CONGEST
message-width claim on a mid-size instance.

Six hard gates ride along:

* ``test_fastpath_smoke_equality_gate`` — a fast fastpath-vs-lockstep
  differential check sized for CI;
* ``test_fastpath_speedup_trend_profile`` — the CI ``bench-trend``
  profile: on the seeded smoke instance, fastpath must match lockstep
  bit-for-bit *and* beat it by the 5x floor; emits the JSON consumed
  by ``benchmarks/trend.py``;
* ``test_fastpath_speedup_large_instance`` — the PR 1 acceptance
  criterion at ``n = 10^4, m = 5*10^4``, same floor;
* ``test_lane_speedup_gate`` — the PR 3 acceptance criterion: on a
  seeded lane-eligible instance the machine-width kernel lane (the
  default ``lane="auto"`` fastpath loop) must be bit-identical to and
  >= 2x faster than the pre-PR big-int loop (``lane="bigint"``);
* ``test_three_limb_speedup_gate`` — on a seeded huge-``beta_den``
  instance that disqualifies both narrower machine lanes, the
  three-limb lane must complete the whole run (no spill to big-int)
  bit-identically and >= 2x faster than the forced big-int loop;
* ``test_four_limb_speedup_gate`` — on a seeded regular rank-3
  instance with 10**30 weights at eps = 1/200 (past three-limb's
  headroom once its scale grows), ``lane="auto"`` must enter and
  finish on the four-limb lane bit-identically and >= 1.5x faster
  than the forced big-int loop.

The speedup gates persist machine-readable JSON (via ``publish_json``)
next to their text tables so the benchmark-trend pipeline can track
the ratios across commits.
"""

from __future__ import annotations

import time
from fractions import Fraction

from conftest import publish, publish_json

from repro.analysis.tables import render_table
from repro.core.params import AlgorithmConfig
from repro.core.solver import solve_mwhvc
from repro.hypergraph.generators import uniform_hypergraph, uniform_weights

N = 220
M = 650
RANK = 3
EPSILON = Fraction(1, 3)

LARGE_N = 10_000
LARGE_M = 50_000
LARGE_SEED = 7
SPEEDUP_FLOOR = 5.0

SMOKE_N = 2_000
SMOKE_M = 10_000


def build_instance(n=N, m=M, *, seed=4, weight_seed=5, max_weight=40):
    weights = uniform_weights(n, max_weight, seed=weight_seed)
    return uniform_hypergraph(n, m, RANK, seed=seed, weights=weights)


def assert_bit_identical(reference, other, *, what):
    assert other.cover == reference.cover, what
    assert other.weight == reference.weight, what
    assert other.iterations == reference.iterations, what
    assert other.rounds == reference.rounds, what
    assert other.dual == reference.dual, what
    assert other.levels == reference.levels, what
    assert other.stats == reference.stats, what


def test_equivalence_and_message_stats(benchmark):
    hypergraph = build_instance()
    config = AlgorithmConfig(epsilon=EPSILON)

    def run_all():
        lock = solve_mwhvc(hypergraph, config=config)
        fast = solve_mwhvc(hypergraph, config=config, executor="fastpath")
        checked = solve_mwhvc(
            hypergraph,
            config=AlgorithmConfig(epsilon=EPSILON, check_invariants=True),
        )
        engine = solve_mwhvc(hypergraph, config=config, executor="congest")
        return lock, fast, checked, engine

    lock, fast, checked, engine = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )
    assert lock.cover == fast.cover == checked.cover == engine.cover
    assert lock.rounds == engine.rounds
    assert lock.dual == engine.dual
    assert_bit_identical(lock, fast, what="fastpath vs lockstep")

    metrics = engine.metrics
    table = render_table(
        ["quantity", "value"],
        [
            ["rounds", metrics.rounds],
            ["iterations", engine.iterations],
            ["messages", metrics.messages],
            ["total bits", metrics.total_bits],
            ["max message bits", metrics.max_message_bits],
            ["mean message bits", round(metrics.mean_message_bits, 2)],
            ["bandwidth cap (bits)", metrics.bandwidth_cap_bits],
            ["bandwidth violations", metrics.bandwidth_violations],
            ["dropped messages", metrics.dropped_messages],
        ],
        title=(
            f"E9 — CONGEST engine statistics (n={N}, m={M}, rank={RANK}, "
            f"eps={EPSILON})"
        ),
    )
    publish("executor_message_stats", table)
    assert metrics.bandwidth_violations == 0
    assert metrics.max_message_bits <= metrics.bandwidth_cap_bits


def test_benchmark_fastpath(benchmark):
    hypergraph = build_instance()
    config = AlgorithmConfig(epsilon=EPSILON)
    benchmark(
        lambda: solve_mwhvc(hypergraph, config=config, executor="fastpath")
    )


def test_benchmark_lockstep(benchmark):
    hypergraph = build_instance()
    config = AlgorithmConfig(epsilon=EPSILON)
    benchmark(lambda: solve_mwhvc(hypergraph, config=config))


def test_benchmark_lockstep_checked(benchmark):
    hypergraph = build_instance()
    config = AlgorithmConfig(epsilon=EPSILON, check_invariants=True)
    benchmark(lambda: solve_mwhvc(hypergraph, config=config))


def test_benchmark_congest_engine(benchmark):
    hypergraph = build_instance()
    config = AlgorithmConfig(epsilon=EPSILON)
    benchmark(
        lambda: solve_mwhvc(hypergraph, config=config, executor="congest")
    )


def test_fastpath_smoke_equality_gate(benchmark):
    """CI gate: fastpath == lockstep on a mid-size seeded instance."""
    hypergraph = build_instance(
        SMOKE_N, SMOKE_M, seed=11, weight_seed=12
    )
    config = AlgorithmConfig(epsilon=EPSILON)

    def run_pair():
        fast = solve_mwhvc(
            hypergraph, config=config, executor="fastpath"
        )
        lock = solve_mwhvc(hypergraph, config=config)
        return fast, lock

    fast, lock = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    assert_bit_identical(lock, fast, what="smoke fastpath vs lockstep")


def _speedup_gate(benchmark, hypergraph, *, name, label, seed):
    """Timed fastpath-vs-lockstep pair: equality + 5x floor + reports.

    Timed with ``verify=False`` so the (identical, shared) certificate
    verification cost does not mask the executor difference; equality
    of every observable is still asserted on the returned results.
    Publishes both the human-readable table and the JSON blob the
    ``bench-trend`` CI job appends to the ``BENCH_3.json`` series.
    """
    config = AlgorithmConfig(epsilon=EPSILON)

    def run_pair():
        # Best-of-2 on both sides: a single-shot ratio on a shared CI
        # runner is too exposed to noisy neighbors for a hard gate.
        fast_times = []
        lock_times = []
        for _ in range(2):
            t0 = time.perf_counter()
            fast = solve_mwhvc(
                hypergraph, config=config, executor="fastpath",
                verify=False,
            )
            t1 = time.perf_counter()
            lock = solve_mwhvc(
                hypergraph, config=config, executor="lockstep",
                verify=False,
            )
            t2 = time.perf_counter()
            fast_times.append(t1 - t0)
            lock_times.append(t2 - t1)
        return fast, lock, min(fast_times), min(lock_times)

    fast, lock, fast_s, lock_s = benchmark.pedantic(
        run_pair, rounds=1, iterations=1
    )
    assert_bit_identical(lock, fast, what=f"{label} fastpath vs lockstep")
    speedup = lock_s / fast_s
    n = hypergraph.num_vertices
    m = hypergraph.num_edges
    table = render_table(
        ["executor", "seconds", "speedup vs lockstep"],
        [
            ["fastpath", f"{fast_s:.3f}", f"{speedup:.1f}x"],
            ["lockstep", f"{lock_s:.3f}", "1.0x"],
        ],
        title=(
            f"E9 — fastpath speedup (n={n}, m={m}, rank={RANK}, "
            f"eps={EPSILON}, seed={seed}, iterations={fast.iterations})"
        ),
    )
    publish(name, table)
    publish_json(
        name,
        {
            "gate": "fastpath_vs_lockstep_speedup",
            "profile": label,
            "n": n,
            "m": m,
            "rank": RANK,
            "epsilon": str(EPSILON),
            "seed": seed,
            "iterations": fast.iterations,
            "fastpath_seconds": round(fast_s, 6),
            "lockstep_seconds": round(lock_s, 6),
            "speedup": round(speedup, 3),
            "floor": SPEEDUP_FLOOR,
            "bit_identical": True,
        },
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"fastpath speedup {speedup:.2f}x below the {SPEEDUP_FLOOR}x floor"
    )


def test_fastpath_speedup_trend_profile(benchmark):
    """CI bench-trend gate: the smoke-size instance must hold the 5x floor."""
    hypergraph = build_instance(
        SMOKE_N, SMOKE_M, seed=11, weight_seed=12
    )
    _speedup_gate(
        benchmark,
        hypergraph,
        name="executor_fastpath_speedup_trend",
        label="trend",
        seed=11,
    )


def test_fastpath_speedup_large_instance(benchmark):
    """Acceptance gate: bit-identical and >= 5x on n=1e4, m=5e4."""
    hypergraph = build_instance(
        LARGE_N, LARGE_M, seed=LARGE_SEED, weight_seed=8, max_weight=60
    )
    _speedup_gate(
        benchmark,
        hypergraph,
        name="executor_fastpath_speedup",
        label="large",
        seed=LARGE_SEED,
    )


# PR 3 lane gate: seeded profile chosen to be comfortably int64
# lane-eligible (regular degrees keep the lcm-of-denominators scale
# tiny) with enough iteration depth (eps = 1/200) that the vectorized
# sweep advantage over the per-vertex Python loop is structural, not
# noise.
LANE_N = 4_000
LANE_RANK = 3
LANE_DEGREE = 9
LANE_MAX_WEIGHT = 10_000
LANE_EPSILON = Fraction(1, 200)
LANE_SEED = 5
LANE_SPEEDUP_FLOOR = 2.0


def test_lane_speedup_gate(benchmark):
    """Acceptance: the machine-width fastpath loop >= 2x the big-int loop."""
    from repro.core.batch import arena_eligibility
    from repro.hypergraph.generators import regular_hypergraph

    hypergraph = regular_hypergraph(
        LANE_N,
        LANE_RANK,
        LANE_DEGREE,
        seed=LANE_SEED,
        weights=uniform_weights(LANE_N, LANE_MAX_WEIGHT, seed=LANE_SEED + 1),
    )
    config = AlgorithmConfig(epsilon=LANE_EPSILON)
    eligible, reason = arena_eligibility(hypergraph, config)
    assert eligible, f"gate profile must be int64 lane-eligible: {reason}"

    # Warm-up outside the timed region so both lanes are steady-state.
    solve_mwhvc(hypergraph, config=config, executor="fastpath", verify=False)

    def run_pair():
        machine_times = []
        bigint_times = []
        for _ in range(2):
            t0 = time.perf_counter()
            machine = solve_mwhvc(
                hypergraph, config=config, executor="fastpath",
                verify=False,
            )
            t1 = time.perf_counter()
            bigint = solve_mwhvc(
                hypergraph, config=config, executor="fastpath",
                lane="bigint", verify=False,
            )
            t2 = time.perf_counter()
            machine_times.append(t1 - t0)
            bigint_times.append(t2 - t1)
        return machine, bigint, min(machine_times), min(bigint_times)

    machine, bigint, machine_s, bigint_s = benchmark.pedantic(
        run_pair, rounds=1, iterations=1
    )
    assert machine.lane == "int64", machine.lane
    assert bigint.lane == "bigint", bigint.lane
    assert_bit_identical(bigint, machine, what="machine lane vs big-int lane")
    speedup = bigint_s / machine_s
    table = render_table(
        ["lane", "seconds", "speedup vs big-int"],
        [
            ["int64 (machine)", f"{machine_s:.3f}", f"{speedup:.2f}x"],
            ["bigint (pre-PR loop)", f"{bigint_s:.3f}", "1.00x"],
        ],
        title=(
            f"E11 — single-instance kernel-lane speedup (n={LANE_N}, "
            f"{LANE_DEGREE}-regular, rank={LANE_RANK}, "
            f"W<={LANE_MAX_WEIGHT}, eps={LANE_EPSILON}, "
            f"iterations={machine.iterations})"
        ),
    )
    publish("executor_lane_speedup", table)
    publish_json(
        "executor_lane_speedup",
        {
            "gate": "fastpath_lane_vs_bigint_speedup",
            "n": LANE_N,
            "m": hypergraph.num_edges,
            "rank": LANE_RANK,
            "degree": LANE_DEGREE,
            "max_weight": LANE_MAX_WEIGHT,
            "epsilon": str(LANE_EPSILON),
            "seed": LANE_SEED,
            "iterations": machine.iterations,
            "machine_seconds": round(machine_s, 6),
            "bigint_seconds": round(bigint_s, 6),
            "speedup": round(speedup, 3),
            "floor": LANE_SPEEDUP_FLOOR,
            "bit_identical": True,
        },
    )
    assert speedup >= LANE_SPEEDUP_FLOOR, (
        f"machine-lane speedup {speedup:.2f}x below the "
        f"{LANE_SPEEDUP_FLOOR}x floor"
    )


# PR 6 three-limb gate: ``eps = (2^31 + 1) / 2^43`` has moderate
# magnitude (~2^-12, so z stays at 14 and the run converges) but a
# 43-bit power-of-two denominator, making ``beta_den ~ f * 2^43`` —
# a headroom factor past both the int64 bound and the two-limb 31-bit
# multiplier budget, yet comfortably inside the three-limb 62-bit one.
THREE_LIMB_N = 8_000
THREE_LIMB_SEED = 11
THREE_LIMB_EPSILON = Fraction((1 << 31) + 1, 1 << 43)
THREE_LIMB_SPEEDUP_FLOOR = 2.0


def test_three_limb_speedup_gate(benchmark):
    """Acceptance: the three-limb lane >= 2x big-int where two-limb can't go."""
    import repro.core.kernels as kernels_module
    from repro.core.fastpath import prepare_scaled_state
    from repro.hypergraph.generators import regular_hypergraph

    hypergraph = regular_hypergraph(
        THREE_LIMB_N,
        LANE_RANK,
        LANE_DEGREE,
        seed=THREE_LIMB_SEED,
        weights=uniform_weights(
            THREE_LIMB_N, LANE_MAX_WEIGHT, seed=THREE_LIMB_SEED + 1
        ),
    )
    config = AlgorithmConfig(epsilon=THREE_LIMB_EPSILON)
    state = prepare_scaled_state(hypergraph, config)
    for lane in ("int64", "two-limb"):
        eligible, reason = kernels_module.lane_eligibility(
            hypergraph, config, state, lane=lane
        )
        assert not eligible, f"{lane} must be ineligible on this profile"
    eligible, reason = kernels_module.lane_eligibility(
        hypergraph, config, state, lane="three-limb"
    )
    assert eligible, f"three-limb must admit this profile: {reason}"

    solve_mwhvc(hypergraph, config=config, executor="fastpath", verify=False)

    def run_pair():
        three_times = []
        bigint_times = []
        for _ in range(2):
            t0 = time.perf_counter()
            three = solve_mwhvc(
                hypergraph, config=config, executor="fastpath",
                verify=False,
            )
            t1 = time.perf_counter()
            bigint = solve_mwhvc(
                hypergraph, config=config, executor="fastpath",
                lane="bigint", verify=False,
            )
            t2 = time.perf_counter()
            three_times.append(t1 - t0)
            bigint_times.append(t2 - t1)
        return three, bigint, min(three_times), min(bigint_times)

    three, bigint, three_s, bigint_s = benchmark.pedantic(
        run_pair, rounds=1, iterations=1
    )
    # The whole run must have stayed on the three-limb lane — a
    # mid-run spill to big-int would report the final (big-int) lane.
    assert three.lane == "three-limb", three.lane
    assert bigint.lane == "bigint", bigint.lane
    assert_bit_identical(bigint, three, what="three-limb vs big-int lane")
    speedup = bigint_s / three_s
    table = render_table(
        ["lane", "seconds", "speedup vs big-int"],
        [
            ["three-limb", f"{three_s:.3f}", f"{speedup:.2f}x"],
            ["bigint", f"{bigint_s:.3f}", "1.00x"],
        ],
        title=(
            f"E11 — three-limb lane speedup (n={THREE_LIMB_N}, "
            f"{LANE_DEGREE}-regular, rank={LANE_RANK}, "
            f"W<={LANE_MAX_WEIGHT}, eps=(2^31+1)/2^43, "
            f"iterations={three.iterations})"
        ),
    )
    publish("executor_three_limb_speedup", table)
    publish_json(
        "executor_three_limb_speedup",
        {
            "gate": "fastpath_three_limb_vs_bigint_speedup",
            "n": THREE_LIMB_N,
            "m": hypergraph.num_edges,
            "rank": LANE_RANK,
            "degree": LANE_DEGREE,
            "max_weight": LANE_MAX_WEIGHT,
            "epsilon": "(2**31+1)/2**43",
            "seed": THREE_LIMB_SEED,
            "iterations": three.iterations,
            "three_limb_seconds": round(three_s, 6),
            "bigint_seconds": round(bigint_s, 6),
            "speedup": round(speedup, 3),
            "floor": THREE_LIMB_SPEEDUP_FLOOR,
            "bit_identical": True,
        },
    )
    assert speedup >= THREE_LIMB_SPEEDUP_FLOOR, (
        f"three-limb speedup {speedup:.2f}x below the "
        f"{THREE_LIMB_SPEEDUP_FLOOR}x floor"
    )


# Four-limb gate: 10**30 weights at eps = 1/200 need 140-149 bits once
# the scale has grown, past three-limb's 2**124 headroom, so before the
# four-limb row these instances ran on the big-int loop.  The instance
# enters four-limb from the first sweep (its nnz is far above the row's
# ``min_nnz``) and must finish there.
FOUR_LIMB_N = 3_000
FOUR_LIMB_DEGREE = 6
FOUR_LIMB_SEED = 13
FOUR_LIMB_MAX_WEIGHT = 10**30
FOUR_LIMB_SPEEDUP_FLOOR = 1.5


def test_four_limb_speedup_gate(benchmark):
    """Acceptance: the four-limb lane >= 1.5x big-int past three-limb."""
    from repro.hypergraph.generators import regular_hypergraph

    hypergraph = regular_hypergraph(
        FOUR_LIMB_N,
        LANE_RANK,
        FOUR_LIMB_DEGREE,
        seed=FOUR_LIMB_SEED,
        weights=uniform_weights(
            FOUR_LIMB_N, FOUR_LIMB_MAX_WEIGHT, seed=FOUR_LIMB_SEED + 1
        ),
    )
    config = AlgorithmConfig(epsilon=LANE_EPSILON)
    solve_mwhvc(hypergraph, config=config, executor="fastpath", verify=False)

    def run_pair():
        four_times = []
        bigint_times = []
        for _ in range(2):
            t0 = time.perf_counter()
            four = solve_mwhvc(
                hypergraph, config=config, executor="fastpath",
                verify=False,
            )
            t1 = time.perf_counter()
            bigint = solve_mwhvc(
                hypergraph, config=config, executor="fastpath",
                lane="bigint", verify=False,
            )
            t2 = time.perf_counter()
            four_times.append(t1 - t0)
            bigint_times.append(t2 - t1)
        return four, bigint, min(four_times), min(bigint_times)

    four, bigint, four_s, bigint_s = benchmark.pedantic(
        run_pair, rounds=1, iterations=1
    )
    # A mid-run spill would report the final (big-int) lane.
    assert four.lane == "four-limb", four.lane
    assert bigint.lane == "bigint", bigint.lane
    assert_bit_identical(bigint, four, what="four-limb vs big-int lane")
    speedup = bigint_s / four_s
    table = render_table(
        ["lane", "seconds", "speedup vs big-int"],
        [
            ["four-limb", f"{four_s:.3f}", f"{speedup:.2f}x"],
            ["bigint", f"{bigint_s:.3f}", "1.00x"],
        ],
        title=(
            f"Four-limb lane speedup (n={FOUR_LIMB_N}, "
            f"{FOUR_LIMB_DEGREE}-regular, rank={LANE_RANK}, W<=10^30, "
            f"eps={LANE_EPSILON}, iterations={four.iterations})"
        ),
    )
    publish("executor_four_limb_speedup", table)
    publish_json(
        "executor_four_limb_speedup",
        {
            "gate": "fastpath_four_limb_vs_bigint_speedup",
            "n": FOUR_LIMB_N,
            "m": hypergraph.num_edges,
            "rank": LANE_RANK,
            "degree": FOUR_LIMB_DEGREE,
            "max_weight": "10**30",
            "epsilon": str(LANE_EPSILON),
            "seed": FOUR_LIMB_SEED,
            "iterations": four.iterations,
            "four_limb_seconds": round(four_s, 6),
            "bigint_seconds": round(bigint_s, 6),
            "speedup": round(speedup, 3),
            "floor": FOUR_LIMB_SPEEDUP_FLOOR,
            "bit_identical": True,
        },
    )
    assert speedup >= FOUR_LIMB_SPEEDUP_FLOOR, (
        f"four-limb speedup {speedup:.2f}x below the "
        f"{FOUR_LIMB_SPEEDUP_FLOOR}x floor"
    )
