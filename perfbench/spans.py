"""Outside-in layer trace: spans around the calls into each engine layer.

The benchmark wraps public callables at the names the engine actually
calls them by (a module attribute another module imported, or a class
attribute) and records one span per call: name, parent, wall start and
end, and process CPU.  Nothing under ``src/`` changes; spans inside the
program are a later step.  Leaving the ``Tracer`` context restores
every original, so untraced samples and runs never see a wrapper.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter
from pathlib import Path
from statistics import median

from checks import CheckFailure

#: Share of the traced CPU time the top-level spans must account for;
#: below it the per-layer figures would not explain the samples.
MIN_COVERAGE = 0.95
#: The kernel lanes, narrowest first.
LANES = ("int64", "two-limb", "three-limb", "bigint")


class Span:
    """One call: wall start and end, CPU used, and its children's share."""

    __slots__ = ("name", "parent", "start", "end", "cpu", "child_wall", "child_cpu")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = time.perf_counter_ns()
        self.end = self.start
        self.cpu = -time.process_time_ns()
        self.child_wall = 0
        self.child_cpu = 0

    @property
    def wall(self) -> int:
        return self.end - self.start


class Tracer:
    """Install with ``with Tracer(points) as tracer:``.

    ``points`` are ``(owner, attribute, span name, counter)`` tuples;
    ``counter(counts, args, result)``, when given, adds to
    :attr:`counts` after each call.
    """

    def __init__(self, points):
        self.points = points
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for owner, attribute, name, counter in self.points:
            original = vars(owner)[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name, counter))
        return self

    def __exit__(self, *exc_info) -> None:
        saved, self._saved = self._saved, []
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        self.spans.append(Span(name, self._stack[-1] if self._stack else -1))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter_ns()
        span.cpu += time.process_time_ns()
        self._stack.pop()
        if span.parent >= 0:
            parent = self.spans[span.parent]
            parent.child_wall += span.wall
            parent.child_cpu += span.cpu

    def _wrap(self, original, name: str, counter):
        if isinstance(original, staticmethod):
            return staticmethod(self._wrap(original.__func__, name, counter))
        tracer = self
        if inspect.isgeneratorfunction(original):
            # One span per step, so the consumer's own work between
            # steps is not charged to the generator.
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                generator = original(*args, **kwargs)
                while True:
                    span = tracer._open(name)
                    try:
                        item = next(generator)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(span)
                    yield item
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span = tracer._open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(span)
                if counter is not None:
                    counter(tracer.counts, args, result)
                return result

        return wrapper

    # -- summaries --------------------------------------------------------

    def self_cpu_ms(self, name: str) -> float:
        return sum(
            span.cpu - span.child_cpu for span in self.spans if span.name == name
        ) / 1e6

    def self_wall_ms(self, name: str) -> float:
        return sum(
            span.wall - span.child_wall for span in self.spans if span.name == name
        ) / 1e6

    def calls(self, name: str) -> int:
        return sum(span.name == name for span in self.spans)

    def root_cpu(self) -> float:
        """CPU seconds inside top-level spans (the traced share of work)."""
        return sum(span.cpu for span in self.spans if span.parent < 0) / 1e9

    def dump(self, path: Path) -> None:
        """Write every span as ``[name, parent, start_ns, end_ns, cpu_ns]``.

        ``parent`` is the parent's position in the list (-1 at the top).
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            [span.name, span.parent, span.start, span.end, span.cpu]
            for span in self.spans
        ]
        path.write_text(json.dumps(rows, separators=(",", ":")))


def _count_sweeps(counts, args, result) -> None:
    solved, spills = result
    counts["kernels.spills"] += len(spills)
    counts["kernels.iterations"] += sum(raw["iterations"] for raw in solved.values())


def _count_bytes(counts, args, result) -> None:
    counts["result.bytes"] += len(result.encode("utf-8"))


def _count_load_bytes(counts, args, result) -> None:
    counts["store.load_bytes"] += Path(args[0]).stat().st_size


def engine_points():
    """The layer boundaries the single-process workloads cross."""
    import repro.core.batch as batch
    import repro.core.corpus as corpus
    import repro.core.fastpath as fastpath
    import repro.core.solver as solver
    import repro.hypergraph.io as hg_io
    from repro.core.kernels import LaneRun
    from repro.core.result import CoverResult
    from repro.lp.duality import ApproximationCertificate

    return [
        (hg_io, "load", "io.parse", None),
        (solver, "run_fastpath", "fastpath.solo", None),
        (batch, "run_fastpath", "fastpath.solo", None),
        (fastpath, "prepare_scaled_state", "fastpath.iteration0", None),
        (batch, "prepare_scaled_state", "fastpath.iteration0", None),
        (LaneRun, "__init__", "kernels.lane_setup", None),
        (LaneRun, "solve", "kernels.sweeps", _count_sweeps),
        (fastpath, "finalize_lane_instance", "kernels.finalize", None),
        (batch, "finalize_lane_instance", "kernels.finalize", None),
        (ApproximationCertificate, "verify", "lp.certify", None),
        (CoverResult, "to_json", "result.encode", _count_bytes),
        (corpus, "solve_corpus", "corpus.solve", None),
        (corpus, "run_fastpath_batch", "batch.run", None),
        (batch, "slice_arena", "csr.slice", None),
        (corpus, "arena_hypergraphs", "csr.unpack", None),
        (corpus, "pack_arena", "csr.pack", None),
        (corpus, "load_arena", "store.load", _count_load_bytes),
        (corpus, "save_arena", "store.save", None),
        (corpus.ArenaCatalog, "__init__", "corpus.open", None),
        (corpus.ArenaCatalog, "update_instance", "corpus.update", None),
    ]


def layer_metrics(tracer, traced, plain, lanes, steal, wall_over_cpu) -> dict:
    """Per-layer figures per traced sample, from the spans.

    ``traced``/``plain`` are the ``(cpu s, wall s, cpu s at the
    reference speed)`` of the traced and untraced samples; ``lanes`` the
    completing lane of every instance the traced samples solved.
    """
    count = len(traced)
    traced_cpu = sum(cpu for cpu, _, _ in traced)

    def per(value):
        return value / count

    coverage = tracer.root_cpu() / traced_cpu
    if coverage < MIN_COVERAGE:
        raise CheckFailure(
            f"the spans cover only {coverage:.1%} of the traced CPU time"
        )
    layers = {
        "host.steal_share": (steal, "ratio"),
        "wall_over_cpu": (wall_over_cpu, "ratio"),
        "trace.coverage": (coverage, "ratio"),
        "trace.overhead_share": (
            median(s for _, _, s in traced) / median(s for _, _, s in plain) - 1
            if plain else 0.0,
            "ratio",
        ),
    }
    for metric, span in SPAN_METRICS.items():
        layers[metric] = (per(tracer.self_cpu_ms(span)), "ms")
    layers["store.save_wall_ms"] = (per(tracer.self_wall_ms("store.save")), "ms")
    layers["lp.certify_calls"] = (per(tracer.calls("lp.certify")), "count")
    for counter, unit in (
        ("kernels.iterations", "count"), ("kernels.spills", "count"),
        ("result.bytes", "B"), ("store.load_bytes", "B"),
    ):
        layers[counter] = (per(tracer.counts[counter]), unit)
    for lane in LANES:
        layers[f"kernels.lane.{lane}"] = (per(sum(seen == lane for seen in lanes)), "count")
    return layers


#: Per-layer CPU self times and the span each is read from.
SPAN_METRICS = {
    "io.parse_ms": "io.parse",
    "fastpath.iteration0_ms": "fastpath.iteration0",
    "fastpath.scalar_ms": "fastpath.solo",
    "kernels.lane_setup_ms": "kernels.lane_setup",
    "kernels.sweeps_ms": "kernels.sweeps",
    "kernels.finalize_ms": "kernels.finalize",
    "lp.certify_ms": "lp.certify",
    "result.encode_ms": "result.encode",
    "batch.self_ms": "batch.run",
    "csr.slice_ms": "csr.slice",
    "csr.unpack_ms": "csr.unpack",
    "csr.pack_ms": "csr.pack",
    "store.load_ms": "store.load",
    "store.save_ms": "store.save",
    "corpus.open_ms": "corpus.open",
    "corpus.update_self_ms": "corpus.update",
}
