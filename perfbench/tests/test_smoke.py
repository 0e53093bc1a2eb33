"""The benchmark's own tests, on its tiny ``--size smoke`` inputs.

    python3 -m pytest perfbench/tests -q

They run every workload end to end, check that every figure is
emitted with its unit, and check that a corrupted result fails the run.
"""

from __future__ import annotations

import dataclasses
import json
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._import_engine()

import checks  # noqa: E402
import corpus_mixed  # noqa: E402
import host  # noqa: E402
import serve_mixed  # noqa: E402
import solve_large  # noqa: E402
import spans  # noqa: E402

#: Each workload's own figures, printed in its report (name, unit).
REPORTED = {
    "solve-large": [
        ("setup_s", "s"), ("solve_cpu_ms", "ms"), ("peak_rss_mib", "MiB"),
        ("failed_share", "ratio"),
    ],
    "corpus-mixed": [
        ("setup_s", "s"), ("instances_per_cpu_s", "1/s"),
        ("update_cpu_ms", "ms"), ("peak_rss_mib", "MiB"),
        ("failed_share", "ratio"),
    ],
    "serve-mixed": [
        ("setup_s", "s"), ("instances_per_s", "1/s"), ("solve_p50_ms", "ms"),
        ("solve_p90_ms", "ms"), ("update_p50_ms", "ms"),
        ("cpu_ms_per_request", "ms"), ("peak_rss_mib", "MiB"),
        ("failed_share", "ratio"),
    ],
}
HOST = [("host.steal_share", "ratio"), ("wall_over_cpu", "ratio")]


def _bench(workload: str, trace: int, seed: int = 2):
    completed = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
            "--size", "smoke",
        ],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = completed.stdout.splitlines()
    result = json.loads(lines[-1])
    figures = {}
    for line in lines[:-1]:
        fields = line.split()
        if line.startswith("  ") and len(fields) == 3:
            figures[fields[0]] = (float(fields[1]), fields[2])
    return result, figures


def test_benchmark_json_declares_what_runs_emit():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    # The default seed also checks the digest recorded in digests.json.
    result, figures = _bench(workload, trace=0, seed=run.DEFAULT_SEED)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in metrics.values())
    for name, unit in REPORTED[workload] + HOST:
        assert figures[name][1] == unit
    assert figures["failed_share"][0] == 0.0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    result, _ = _bench(workload, trace=1)
    assert result["correct"] is True
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == run.PER_LAYER
    value = {name: m["value"] for name, m in metrics.items()}
    if workload == "serve-mixed":
        assert value["incremental.warm_share"] == 1.0
        assert value["server.latency_p50_ms"] > 0
        # Nothing is wrapped inside the server.
        assert value["trace.coverage"] == value["trace.overhead_share"] == 0
    else:
        assert value["trace.coverage"] >= 0.95
        assert value["lp.certify_calls"] >= 1
    if workload == "corpus-mixed":
        for lane in spans.LANES:
            assert value[f"kernels.lane.{lane}"] > 0


def test_tracer_restores_every_wrapped_callable():
    points = spans.engine_points()
    originals = [vars(owner)[attribute] for owner, attribute, _, _ in points]
    with spans.Tracer(points):
        assert all(
            vars(owner)[attribute] is not original
            for (owner, attribute, _, _), original in zip(points, originals)
        )
    assert all(
        vars(owner)[attribute] is original
        for (owner, attribute, _, _), original in zip(points, originals)
    )


def test_speedometer_scales_a_call_and_restores_sigprof():
    handler = signal.getsignal(signal.SIGPROF)
    with host.Speedometer() as meter:
        _, cpu_s, _, scaled_s = meter.measure(
            lambda: sum(i * i for i in range(2_000_000))
        )
        assert len(meter.ticks) > 2  # before, after and at least one inside
    assert signal.getsignal(signal.SIGPROF) is handler
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert cpu_s > 0
    # The readings inside the call count in its CPU, not in the scaled CPU.
    assert 0 < scaled_s < cpu_s * meter.speed()


# ----------------------------------------------------------------------
# A corrupted result fails the run
# ----------------------------------------------------------------------


def _drop_cover_vertex(data: dict) -> None:
    data["cover"] = data["cover"][1:]


def _change_dual(data: dict) -> None:
    first = next(iter(data["dual"]))
    data["dual"][first] = "1/" + str(10**9)


def _corrupting_to_json(monkeypatch, corrupt):
    from repro.core.result import CoverResult

    original = CoverResult.to_json

    def to_json(self, *, include_dual=False):
        data = json.loads(original(self, include_dual=True))
        corrupt(data)
        if not include_dual:
            data.pop("dual")
        return json.dumps(data)

    monkeypatch.setattr(CoverResult, "to_json", to_json)


@pytest.mark.parametrize("corrupt", [_drop_cover_vertex, _change_dual])
def test_corrupted_large_solve_fails(monkeypatch, tmp_path, corrupt):
    _corrupting_to_json(monkeypatch, corrupt)
    with pytest.raises(checks.CheckFailure):
        solve_large.run(2, 0.1, False, "smoke", tmp_path, tmp_path / "spans.json")


def test_corrupted_corpus_cover_fails(monkeypatch, tmp_path):
    _corrupting_to_json(monkeypatch, _drop_cover_vertex)
    with pytest.raises(checks.CheckFailure):
        corpus_mixed.run(2, 0.1, False, "smoke", tmp_path, tmp_path / "spans.json")


def test_corrupted_corpus_dual_fails(monkeypatch, tmp_path):
    import repro.core.corpus as corpus

    original = corpus.run_fastpath_batch

    def run_fastpath_batch(*args, **kwargs):
        results = original(*args, **kwargs)
        dual = dict(results[0].dual)
        dual[0] += 1
        results[0] = dataclasses.replace(results[0], dual=dual)
        return results

    monkeypatch.setattr(corpus, "run_fastpath_batch", run_fastpath_batch)
    with pytest.raises(checks.CheckFailure):
        corpus_mixed.run(2, 0.1, False, "smoke", tmp_path, tmp_path / "spans.json")


@pytest.mark.parametrize("field", ["cover", "dual_total"])
def test_corrupted_served_result_fails(monkeypatch, tmp_path, field):
    original = serve_mixed.Connection.request

    async def request(self, key, line):
        message, received = await original(self, key, line)
        if key == ("solve", "s0"):
            result = message["result"]
            if field == "cover":
                result["cover"] = result["cover"][1:]
            else:
                result["dual_total"] = "1/3"
        return message, received

    monkeypatch.setattr(serve_mixed.Connection, "request", request)
    with pytest.raises(checks.CheckFailure):
        serve_mixed.run(2, 1, False, "smoke", tmp_path, tmp_path / "spans.json")
