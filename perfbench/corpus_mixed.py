"""corpus-mixed: the ``batch --store`` path on a packed 128-instance corpus.

One process.  Set-up packs 128 small instances into two 64-instance
segments with ``pack_corpus``.  Each timed pass opens ``ArenaCatalog``,
runs ``solve_corpus`` (mmap, in-process, verify on) and JSON-encodes
every result.  Between passes ``update_instance`` re-prices one vertex
of a random instance: the store's write path, beside its mmap read
path.  Instances are rank 3 and regular, n in {60, 120, 240, 480},
eps = 1/200, with weight classes that complete on all four lanes
(some spill to a wider lane mid-run).  Per-instance costs dominate
here rather than per-element array work, so a change that trades one
for the other shows here against solve-large.  CPU times are gated at
the reference speed of ``host.Speedometer``.
"""

from __future__ import annotations

import gc
import json
import shutil
from contextlib import nullcontext
from statistics import median

import checks
import host
import inputs
from outcome import Outcome
from spans import Tracer, engine_points, layer_metrics

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def _config():
    from repro.core.params import AlgorithmConfig

    return AlgorithmConfig(epsilon=inputs.EPSILON_SMALL)


def _hypergraph(instance):
    from repro.hypergraph.hypergraph import Hypergraph

    return Hypergraph(instance.n, instance.edges, instance.weights)


def _set_up(seed: int, size: str, directory) -> None:
    import repro.core.corpus as corpus

    instances = inputs.corpus_instances(seed, size)
    corpus.pack_corpus(
        [(instance.name, _hypergraph(instance)) for instance in instances],
        directory,
        segment_instances=inputs.SIZES[size]["segment_instances"],
        config=_config(),
    )


def _pass(directory, config):
    """One pass; returns (catalog, [(id, result, text)])."""
    import repro.core.corpus as corpus

    catalog = corpus.ArenaCatalog(directory)
    solved = []
    for segment in corpus.solve_corpus(catalog, config=config):
        for instance_id, result in zip(segment.ids, segment.results):
            solved.append((instance_id, result, result.to_json()))
    return catalog, solved


def _decoded(result, text) -> dict:
    """The encoded result plus its dual (the text carries no dual)."""
    data = json.loads(text)
    data["dual"] = {str(edge): str(value) for edge, value in result.dual.items()}
    return data


def run(seed: int, seconds: float, trace: bool, size: str, workdir, spans_path) -> Outcome:
    config = _config()
    with host.Speedometer() as meter:
        setup = []
        for repeat in range(SETUP_REPEATS):
            directory = workdir / f"corpus-{repeat}"
            setup.append(meter.measure(lambda: _set_up(seed, size, directory)))
            if repeat < SETUP_REPEATS - 1:
                shutil.rmtree(directory)

        instances = {
            instance.name: instance for instance in inputs.corpus_instances(seed, size)
        }
        order = list(instances)
        update_rng = inputs.stream_rng(seed, "corpus-updates")
        expected: dict[str, str] = {}
        checked: set[str] = set()
        first_digest = None
        passes, updates, traced_lanes = [], [], []
        tracer = Tracer(engine_points()) if trace else None

        gc.collect()
        host.reset_peak_rss()
        steal_before = host.steal_counters()
        window_ticks = len(meter.ticks)
        window_start = host.wall()
        while (
            not passes
            or (trace and len(passes) < 2)
            or host.wall() - window_start < seconds
        ):
            traced_round = tracer is not None and len(passes) % 2 == 0
            scope = tracer if traced_round else nullcontext()
            with scope:
                (catalog, solved), cpu_s, wall_s, scaled_s = meter.measure(
                    lambda: _pass(directory, config)
                )
            passes.append((cpu_s, wall_s, traced_round, scaled_s))
            if traced_round:
                traced_lanes.extend(result.lane for _, result, _ in solved)

            # Checks, outside the timed region.
            if [instance_id for instance_id, _, _ in solved] != order:
                raise checks.CheckFailure("corpus-mixed: a pass lost or reordered ids")
            for instance_id, result, text in solved:
                data = _decoded(result, text)
                found = checks.digest(data)
                if instance_id not in checked:
                    instance = instances[instance_id]
                    checks.check_cover(instance, data, instance_id)
                    checks.check_dual(instance, data, inputs.EPSILON_SMALL, instance_id)
                    checked.add(instance_id)
                if expected.setdefault(instance_id, found) != found:
                    raise checks.CheckFailure(
                        f"corpus-mixed: {instance_id} changed between passes"
                    )
            if first_digest is None:
                first_digest = checks.combine(expected[name] for name in order)
            del solved

            # One store write between passes.
            name = order[update_rng.randrange(len(order))]
            repriced = inputs.reprice(instances[name], seed, len(updates))
            hypergraph = _hypergraph(repriced)
            with scope:
                _, cpu_s, wall_s, scaled_s = meter.measure(
                    lambda: catalog.update_instance(name, hypergraph, config=config)
                )
            updates.append((cpu_s, wall_s, traced_round, scaled_s))
            instances[name] = repriced
            expected[name] = _reference_digest(hypergraph, config)
            checked.discard(name)
            del hypergraph, catalog
        peak = host.peak_rss_mib()
        steal = host.steal_share(steal_before, host.steal_counters())

    count = len(order)
    plain_passes = [sample for sample in passes if not sample[2]]
    plain_updates = [sample for sample in updates if not sample[2]]
    setup_s = median(scaled for _, _, _, scaled in setup)
    pass_cpu = median(scaled for _, _, _, scaled in plain_passes)
    update_ms = median(scaled for _, _, _, scaled in plain_updates) * 1e3
    timed = passes + updates
    wall_over_cpu = sum(s[1] for s in timed) / sum(s[0] for s in timed)
    outcome = Outcome(
        attempted=len(passes) * count + len(updates), failed=0, digest=first_digest
    )
    outcome.metrics = {
        "setup_s": (setup_s, "s"),
        "cpu_ms_per_instance": (pass_cpu / count * 1e3, "ms"),
        "request_p50_ms": (update_ms, "ms"),
        "peak_rss_mib": (peak, "MiB"),
    }
    outcome.report = {
        "setup_s": (setup_s, "s"),
        "setup_cpu_s": (median(cpu for _, cpu, _, _ in setup), "s"),
        "instances_per_cpu_s": (count / median(s[0] for s in plain_passes), "1/s"),
        "update_cpu_ms": (median(s[0] for s in plain_updates) * 1e3, "ms"),
        "cpu_ms_per_instance_at_reference": (pass_cpu / count * 1e3, "ms"),
        "update_cpu_ms_at_reference": (update_ms, "ms"),
        "host.speed": (meter.speed(window_ticks), "ratio"),
        "peak_rss_mib": (peak, "MiB"),
        "failed_share": (0.0, "ratio"),
        "passes": (len(plain_passes), "count"),
        "updates": (len(plain_updates), "count"),
        "host.steal_share": (steal, "ratio"),
        "wall_over_cpu": (wall_over_cpu, "ratio"),
    }
    if tracer is not None:
        # A traced round is one pass plus the update after it.
        rounds = [
            (p[0] + u[0], p[1] + u[1], p[3] + u[3])
            for p, u in zip(passes, updates)
        ]
        traced_rounds = [r for r, p in zip(rounds, passes) if p[2]]
        plain_rounds = [r for r, p in zip(rounds, passes) if not p[2]]
        outcome.layers = layer_metrics(
            tracer, traced_rounds, plain_rounds, traced_lanes, steal, wall_over_cpu
        )
        tracer.dump(spans_path)
    return outcome


def _reference_digest(hypergraph, config) -> str:
    """Digest of a solo fastpath solve: what the next pass must return."""
    import repro.core.solver as solver

    result = solver.solve_mwhvc(hypergraph, config=config, executor="fastpath")
    return checks.digest(result.as_dict(include_dual=True))
