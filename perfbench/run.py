"""Run one benchmark workload: seeded inputs, checked outputs, metrics.

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the engine is imported from
``src/`` next to this directory, never from an installed copy.  The
run prints one line per figure (``name value unit``), then, as its last
line, one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end figures every
workload reports (``END_TO_END``); with ``--trace 1`` a traced run
reports the per-layer figures (``PER_LAYER``).  A result that fails a
check prints ``"correct": false`` and exits 1.  ``--size smoke`` runs
tiny inputs for the benchmark's own tests.  Temporary files go to
``.perfbench-out/`` at the checkout root and are removed at exit,
except the traced run's spans.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("solve-large", "corpus-mixed", "serve-mixed")
#: The seed whose result digests are recorded in ``digests.json``.
DEFAULT_SEED = 1

#: End-to-end figures, the same names on every workload (see README.md).
END_TO_END = {
    "setup_s": "s",
    "cpu_ms_per_instance": "ms",
    "request_p50_ms": "ms",
    "peak_rss_mib": "MiB",
}

#: Per-layer figures of a traced run.  A layer a workload does not run
#: reads 0 there.
PER_LAYER = {
    "host.steal_share": "ratio",
    "wall_over_cpu": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_share": "ratio",
    "io.parse_ms": "ms",
    "fastpath.iteration0_ms": "ms",
    "fastpath.scalar_ms": "ms",
    "kernels.lane_setup_ms": "ms",
    "kernels.sweeps_ms": "ms",
    "kernels.finalize_ms": "ms",
    "kernels.iterations": "count",
    "kernels.spills": "count",
    "kernels.lane.int64": "count",
    "kernels.lane.two-limb": "count",
    "kernels.lane.three-limb": "count",
    "kernels.lane.bigint": "count",
    "lp.certify_ms": "ms",
    "lp.certify_calls": "count",
    "result.encode_ms": "ms",
    "result.bytes": "B",
    "batch.self_ms": "ms",
    "csr.slice_ms": "ms",
    "csr.unpack_ms": "ms",
    "csr.pack_ms": "ms",
    "store.load_ms": "ms",
    "store.load_bytes": "B",
    "store.save_ms": "ms",
    "store.save_wall_ms": "ms",
    "corpus.open_ms": "ms",
    "corpus.update_self_ms": "ms",
    "server.latency_p50_ms": "ms",
    "wire.overhead_p50_ms": "ms",
    "server.cpu_ms_per_request": "ms",
    "stream.batch_size": "count",
    "stream.steals": "count",
    "stream.splits": "count",
    "stream.duplicates": "count",
    "stream.retries": "count",
    "stream.degraded": "count",
    "breaker.trips": "count",
    "workers.cpu_ms_per_request": "ms",
    "workers.busy_share": "ratio",
    "incremental.warm_share": "ratio",
}


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    return parser.parse_args(argv)


def _import_engine() -> None:
    """Import ``repro`` from this checkout's ``src/`` or fail."""
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent.parent != source.resolve():
        raise ImportError(f"repro came from {repro.__file__}, not {source}")


def _figures(values: dict, names: dict) -> dict:
    unknown = set(values) - set(names)
    if unknown:
        raise KeyError(f"figures outside the declared set: {sorted(unknown)}")
    return {
        name: {"value": float(values[name][0]) if name in values else 0.0, "unit": unit}
        for name, unit in names.items()
    }


def _print_figures(title: str, figures: dict) -> None:
    print(title)
    for name, (value, unit) in figures.items():
        print(f"  {name:<28} {value!r} {unit}")


def main(argv=None) -> int:
    arguments = _arguments(argv)
    try:
        _import_engine()
    except ImportError as error:
        print(f"error: cannot import the engine: {error}", file=sys.stderr)
        return 2
    import checks

    module = importlib.import_module(arguments.workload.replace("-", "_"))
    workdir = OUT / "work" / f"{arguments.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / "spans" / f"{arguments.workload}-seed{arguments.seed}.json"
    print(
        f"perfbench {arguments.workload} seed={arguments.seed} "
        f"size={arguments.size} seconds={arguments.seconds:g} "
        f"trace={arguments.trace}"
    )
    try:
        outcome = module.run(
            arguments.seed, arguments.seconds, bool(arguments.trace),
            arguments.size, workdir, spans_path,
        )
        if arguments.seed == DEFAULT_SEED:
            recorded = json.loads((HERE / "digests.json").read_text())
            if recorded[arguments.size].get(arguments.workload) != outcome.digest:
                raise checks.CheckFailure(
                    f"digest {outcome.digest} differs from the one recorded "
                    f"for seed {DEFAULT_SEED}"
                )
    except Exception as failure:
        # A refused result, or an engine error that stopped the run.
        if not isinstance(failure, checks.CheckFailure):
            traceback.print_exc()
        print(f"check failed: {failure}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    _print_figures("workload figures:", outcome.report)
    if arguments.trace:
        _print_figures("per-layer figures:", outcome.layers)
    print(f"digest {outcome.digest}")
    metrics = (
        _figures(outcome.layers, PER_LAYER)
        if arguments.trace
        else _figures(outcome.metrics, END_TO_END)
    )
    print(json.dumps({
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
