"""solve-large: the ``repro-cover solve --json`` path on one large instance.

Closed loop, one solve at a time, one process.  Each sample parses the
``.hg`` file (``hypergraph.io.load``), solves it with
``solve_mwhvc(executor="fastpath", epsilon=1/3)`` (verify on, the
default) and encodes the result with its dual
(``CoverResult.to_json(include_dual=True)``).  The instance has the
ROADMAP baseline shape: rank 3, n=20 000, m=100 000, integer weights up
to 10^4; it completes on the two-limb lane in about 10 iterations.  No
batch, store, pool or server code runs here, and the dual is encoded,
so a change that only builds duals lazily must read "no change".
CPU times are gated at the reference speed of ``host.Speedometer``.
"""

from __future__ import annotations

import gc
import json
from contextlib import nullcontext
from statistics import median

import checks
import host
import inputs
from outcome import Outcome
from spans import Tracer, engine_points, layer_metrics

#: Set-ups per run; ``setup_s`` is their median.  This workload takes
#: more than the others: one set-up costs only about 0.5 s of CPU.
SETUP_REPEATS = 9


def _set_up(seed: int, size: str, path) -> None:
    path.write_text(inputs.hg_text(inputs.large_instance(seed, size)))


def _sample(path) -> str:
    """One parse -> solve -> encode; returns the encoded result."""
    import repro.core.solver as solver
    import repro.hypergraph.io as hg_io

    hypergraph = hg_io.load(path)
    result = solver.solve_mwhvc(
        hypergraph, executor="fastpath", epsilon=inputs.EPSILON_LARGE
    )
    return result.to_json(include_dual=True)


def run(seed: int, seconds: float, trace: bool, size: str, workdir, spans_path) -> Outcome:
    path = workdir / "large.hg"
    with host.Speedometer() as meter:
        setup = [
            meter.measure(lambda: _set_up(seed, size, path))
            for _ in range(SETUP_REPEATS)
        ]

        gc.collect()
        host.reset_peak_rss()
        steal_before = host.steal_counters()
        window_ticks = len(meter.ticks)
        tracer = Tracer(engine_points()) if trace else None
        plain, traced, digests, traced_lanes = [], [], [], []
        first_text = None
        window_start = host.wall()
        # A traced run alternates traced and untraced samples: the
        # untraced ones give the overhead estimate and the digests to
        # compare with.
        while (
            not plain
            or (trace and not traced)
            or host.wall() - window_start < seconds
        ):
            traced_sample = tracer is not None and len(plain) >= len(traced)
            with tracer if traced_sample else nullcontext():
                text, cpu_s, wall_s, scaled_s = meter.measure(lambda: _sample(path))
            (traced if traced_sample else plain).append((cpu_s, wall_s, scaled_s))
            data = json.loads(text)
            if traced_sample:
                traced_lanes.append(data.get("lane"))
            digests.append(checks.digest(data))
            if first_text is None:
                first_text = text
            del text, data
        peak = host.peak_rss_mib()
        steal = host.steal_share(steal_before, host.steal_counters())

    if len(set(digests)) != 1:
        raise checks.CheckFailure("solve-large: samples disagree on the result")
    instance = inputs.large_instance(seed, size)
    data = json.loads(first_text)
    checks.check_cover(instance, data, "solve-large")
    checks.check_dual(instance, data, inputs.EPSILON_LARGE, "solve-large")

    samples = plain + traced
    setup_s = median(scaled for _, _, _, scaled in setup)
    solve_ms = median(scaled for _, _, scaled in plain) * 1e3
    outcome = Outcome(attempted=len(samples), failed=0, digest=digests[0])
    outcome.metrics = {
        "setup_s": (setup_s, "s"),
        "cpu_ms_per_instance": (solve_ms, "ms"),
        "request_p50_ms": (solve_ms, "ms"),
        "peak_rss_mib": (peak, "MiB"),
    }
    wall_over_cpu = sum(w for _, w, _ in samples) / sum(c for c, _, _ in samples)
    outcome.report = {
        "setup_s": (setup_s, "s"),
        "setup_cpu_s": (median(cpu for _, cpu, _, _ in setup), "s"),
        "solve_cpu_ms": (median(cpu for cpu, _, _ in plain) * 1e3, "ms"),
        "solve_cpu_ms_at_reference": (solve_ms, "ms"),
        "host.speed": (meter.speed(window_ticks), "ratio"),
        "peak_rss_mib": (peak, "MiB"),
        "failed_share": (0.0, "ratio"),
        "samples": (len(plain), "count"),
        "host.steal_share": (steal, "ratio"),
        "wall_over_cpu": (wall_over_cpu, "ratio"),
    }
    if tracer is not None:
        outcome.layers = layer_metrics(
            tracer, traced, plain, traced_lanes, steal, wall_over_cpu
        )
        tracer.dump(spans_path)
    return outcome
