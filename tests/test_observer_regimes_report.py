"""Tests for the observer API, the Corollary 11/12 regime helpers,
result serialization, and the combined report assembler."""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

import pytest

from repro.analysis.report import (
    EXPERIMENT_ORDER,
    available_results,
    combined_report,
)
from repro.core import ConvergenceRecorder
from repro.core.params import AlgorithmConfig
from repro.core.regimes import (
    corollary11_applies,
    corollary12_applies,
    optimality_note,
)
from repro.core.solver import solve_mwhvc
from repro.exceptions import InvalidInstanceError
from repro.hypergraph.generators import (
    mixed_rank_hypergraph,
    regular_hypergraph,
    uniform_weights,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.lp.scaled import ScaledDual


@pytest.fixture
def instance():
    return regular_hypergraph(
        48, 3, 4, seed=2, weights=uniform_weights(48, 20, seed=3)
    )


class TestObserver:
    def test_snapshot_per_iteration(self, instance):
        recorder = ConvergenceRecorder()
        result = solve_mwhvc(instance, Fraction(1, 3), observer=recorder)
        assert recorder.iterations == result.iterations
        assert [s.iteration for s in recorder.snapshots] == list(
            range(1, result.iterations + 1)
        )

    def test_final_snapshot_matches_result(self, instance):
        recorder = ConvergenceRecorder()
        result = solve_mwhvc(instance, Fraction(1, 3), observer=recorder)
        last = recorder.snapshots[-1]
        assert last.live_edges == 0
        assert last.cover_weight == result.weight
        assert last.cover_size == len(result.cover)
        assert last.dual_total == result.dual_total
        assert last.max_level == result.stats.max_level

    def test_coverage_curve_monotone_to_one(self, instance):
        recorder = ConvergenceRecorder()
        solve_mwhvc(instance, Fraction(1, 2), observer=recorder)
        curve = recorder.coverage_curve()
        fractions_seen = [fraction for _, fraction in curve]
        assert fractions_seen == sorted(fractions_seen)
        assert fractions_seen[-1] == pytest.approx(1.0)

    def test_dual_curve_monotone(self, instance):
        recorder = ConvergenceRecorder()
        solve_mwhvc(instance, Fraction(1, 2), observer=recorder)
        values = [value for _, value in recorder.dual_curve()]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_half_coverage_iteration(self, instance):
        recorder = ConvergenceRecorder()
        solve_mwhvc(instance, Fraction(1, 2), observer=recorder)
        half = recorder.half_coverage_iteration()
        assert half is not None
        assert 1 <= half <= recorder.iterations

    def test_sparkline_shape(self, instance):
        recorder = ConvergenceRecorder()
        solve_mwhvc(instance, Fraction(1, 2), observer=recorder)
        line = recorder.sparkline()
        assert 0 < len(line) <= 61
        assert line[-1] == "@"  # full coverage block

    def test_empty_recorder(self):
        recorder = ConvergenceRecorder()
        assert recorder.coverage_curve() == []
        assert recorder.half_coverage_iteration() is None
        assert recorder.sparkline() == ""

    def test_observer_counts_events(self, instance):
        recorder = ConvergenceRecorder()
        result = solve_mwhvc(instance, Fraction(1, 3), observer=recorder)
        total_joins = sum(
            s.joins_this_iteration for s in recorder.snapshots
        )
        total_covered = sum(
            s.edges_covered_this_iteration for s in recorder.snapshots
        )
        assert total_joins == len(result.cover)
        assert total_covered == instance.num_edges

    def test_observer_rejected_on_congest(self, instance):
        recorder = ConvergenceRecorder()
        with pytest.raises(InvalidInstanceError):
            solve_mwhvc(
                instance, executor="congest", observer=recorder
            )

    def test_observer_works_for_both_schedules(self, instance):
        for schedule in ("spec", "compact"):
            recorder = ConvergenceRecorder()
            config = AlgorithmConfig(
                epsilon=Fraction(1, 3), schedule=schedule
            )
            result = solve_mwhvc(instance, config=config, observer=recorder)
            assert recorder.iterations == result.iterations


class TestRegimes:
    def test_corollary11_typical(self):
        # f=2, eps=1/4, huge Delta: squarely optimal.
        assert corollary11_applies(2, Fraction(1, 4), 2**20)

    def test_corollary11_large_rank_fails(self):
        # f much larger than (log Delta)^0.99.
        assert not corollary11_applies(40, Fraction(1, 4), 2**10)

    def test_corollary11_tiny_epsilon_fails(self):
        # eps below any polylog of Delta.
        assert not corollary11_applies(
            2, Fraction(1, 10**12), 2**10
        )

    def test_corollary12_allows_tinier_epsilon(self):
        # eps = 2^-(log Delta)^0.9: inside Cor 12 but outside Cor 11
        # for moderate polylog exponents.
        delta = 2**32
        epsilon = Fraction(1, 2**20)
        assert corollary12_applies(2, epsilon, delta)
        assert not corollary11_applies(2, epsilon, delta)

    def test_corollary12_requires_constant_rank(self):
        assert not corollary12_applies(9, Fraction(1, 2), 2**16)

    def test_optimality_note_strings(self):
        assert "Corollaries 11 and 12" in optimality_note(
            2, Fraction(1, 2), 2**20
        )
        assert "outside" in optimality_note(
            50, Fraction(1, 10**9), 8
        )


class TestResultSerialization:
    def test_as_dict_round_trips_json(self):
        hg = mixed_rank_hypergraph(
            10, 14, 3, seed=1, weights=uniform_weights(10, 9, seed=2)
        )
        result = solve_mwhvc(hg, Fraction(1, 2))
        data = json.loads(result.to_json(include_dual=True))
        assert data["weight"] == result.weight
        assert data["epsilon"] == "1/2"
        assert sorted(data["cover"]) == sorted(result.cover)
        assert len(data["dual"]) == hg.num_edges
        assert data["stats"]["max_level"] == result.stats.max_level
        assert "congest_metrics" not in data

    def test_congest_metrics_included(self):
        hg = Hypergraph(2, [(0, 1)])
        result = solve_mwhvc(hg, executor="congest")
        data = result.as_dict()
        assert data["congest_metrics"]["rounds"] == result.rounds

    def test_dual_excluded_by_default(self):
        hg = Hypergraph(2, [(0, 1)])
        result = solve_mwhvc(hg)
        assert "dual" not in result.as_dict()

    @staticmethod
    def assert_renders_like_dict(result):
        """A ScaledDual result encodes exactly as its dict copy does."""
        assert isinstance(result.dual, ScaledDual)
        plain = dataclasses.replace(result, dual=dict(result.dual))
        for include_dual in (False, True):
            assert result.to_json(include_dual=include_dual) == plain.to_json(
                include_dual=include_dual
            )
            assert result.as_dict(include_dual=include_dual) == plain.as_dict(
                include_dual=include_dual
            )
        data = json.loads(result.to_json(include_dual=True))
        assert list(data["dual"]) == [str(edge) for edge in result.dual]

    @pytest.mark.parametrize(
        "lane", ["int64", "two-limb", "three-limb", "four-limb", "bigint"]
    )
    @pytest.mark.parametrize("weights", ["int", "fraction", "huge"])
    def test_scaled_dual_encodes_like_its_dict(self, lane, weights):
        pool = {
            "int": uniform_weights(12, 40, seed=5),
            "fraction": [
                Fraction(3 * vertex + 2, 1 + vertex % 5) for vertex in range(12)
            ],
            "huge": [10**26 + 7 * vertex for vertex in range(12)],
        }[weights]
        hg = mixed_rank_hypergraph(12, 20, 3, seed=4, weights=pool)
        result = solve_mwhvc(
            hg, Fraction(1, 3), executor="fastpath", lane=lane
        )
        self.assert_renders_like_dict(result)

    def test_scaled_dual_encoding_edge_cases(self):
        hg = Hypergraph(3, [(0, 1), (1, 2), (0, 2), (0, 1, 2)], [4, 4, 4])
        result = solve_mwhvc(hg, executor="fastpath")
        # Zero and integral values, a negative one, and scales and
        # numerators past int64 (the math.gcd path).
        for scale, numerators in (
            (7, [0, 7, 21, 3]),
            (7, [0, -14, 5, 0]),
            (2**63, [2**62, 0, 2**63, 3]),
            (2**64 + 3, [1, 2**64 + 3, 0, 2**70]),
            (5, [2**63, 10, 0, 1]),
        ):
            self.assert_renders_like_dict(
                dataclasses.replace(
                    result, dual=ScaledDual(scale, numerators)
                )
            )
        # Solves whose numerators, or whose scale, pass 2**63.
        primes = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157)
        for weights in (
            [10**26 + 7 * vertex for vertex in range(12)],
            [Fraction(10 * vertex + 3, prime) for vertex, prime in enumerate(primes)],
        ):
            wide = solve_mwhvc(
                mixed_rank_hypergraph(12, 20, 3, seed=4, weights=weights),
                Fraction(1, 3),
                executor="fastpath",
            )
            assert max(wide.dual.scale, *wide.dual.numerators) >= 2**63
            self.assert_renders_like_dict(wide)
        assert wide.dual.scale >= 2**63
        # Edgeless: an empty dual object.
        empty = solve_mwhvc(Hypergraph(3, []), executor="fastpath")
        self.assert_renders_like_dict(empty)
        assert json.loads(empty.to_json(include_dual=True))["dual"] == {}


class TestReport:
    def test_combined_report(self, tmp_path):
        (tmp_path / "table1_vertex_cover.txt").write_text("T1 body\n")
        (tmp_path / "custom_extra.txt").write_text("extra body\n")
        report = combined_report(tmp_path)
        assert "table1_vertex_cover" in report
        assert "T1 body" in report
        assert "custom_extra" in report
        # Canonical experiments come before extras.
        assert report.index("table1_vertex_cover") < report.index(
            "custom_extra"
        )

    def test_available_results_order(self, tmp_path):
        for name in ("weight_independence", "approx_ratio"):
            (tmp_path / f"{name}.txt").write_text("x\n")
        ordered = available_results(tmp_path)
        assert ordered == [
            name
            for name in EXPERIMENT_ORDER
            if name in ("weight_independence", "approx_ratio")
        ]

    def test_empty_results_dir(self, tmp_path):
        assert "no experiment results" in combined_report(tmp_path)
