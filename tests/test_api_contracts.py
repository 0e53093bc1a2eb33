"""API-contract tests: documented behaviours of the public surface."""

from __future__ import annotations

from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest

from repro import AlgorithmConfig, Hypergraph, solve_mwhvc
from repro.core.params import theorem9_alpha
from repro.hypergraph.generators import path_graph


class TestConfigContracts:
    def test_explicit_config_wins_over_epsilon_argument(self):
        """Documented: when config is passed, its epsilon is used."""
        hg = path_graph(5, weights=[2, 1, 3, 1, 2])
        config = AlgorithmConfig(epsilon=Fraction(1, 8))
        result = solve_mwhvc(hg, epsilon=Fraction(1, 2), config=config)
        assert result.epsilon == Fraction(1, 8)

    def test_config_is_frozen(self):
        config = AlgorithmConfig()
        with pytest.raises(FrozenInstanceError):
            config.epsilon = Fraction(1, 3)

    def test_config_replace_revalidates(self):
        config = AlgorithmConfig()
        with pytest.raises(Exception):
            replace(config, schedule="bogus")

    def test_config_equality_ignores_validation_marker(self):
        assert AlgorithmConfig(epsilon="1/2") == AlgorithmConfig(
            epsilon=Fraction(1, 2)
        )

    def test_epsilon_accepts_strings_everywhere(self):
        hg = Hypergraph(2, [(0, 1)])
        a = solve_mwhvc(hg, "1/4")
        b = solve_mwhvc(hg, Fraction(1, 4))
        assert a.cover == b.cover and a.epsilon == b.epsilon


class TestDeterminismContracts:
    def test_repeated_runs_identical(self):
        hg = path_graph(9, weights=[5, 3, 8, 1, 9, 2, 7, 4, 6])
        results = [solve_mwhvc(hg, Fraction(1, 3)) for _ in range(3)]
        assert len({r.cover for r in results}) == 1
        assert len({r.rounds for r in results}) == 1
        assert len({tuple(sorted(r.dual.items())) for r in results}) == 1

    def test_dual_dict_ordering_is_edge_id(self):
        hg = Hypergraph(4, [(0, 1), (1, 2), (2, 3)])
        result = solve_mwhvc(hg)
        assert list(result.dual) == [0, 1, 2]

    def test_alpha_snapping_deterministic(self):
        values = {theorem9_alpha(2**40, 1, Fraction(1)) for _ in range(5)}
        assert len(values) == 1


class TestVerificationContracts:
    def test_verify_false_skips_certificate(self):
        hg = Hypergraph(3, [(0, 1, 2)])
        result = solve_mwhvc(hg, verify=False)
        assert result.certificate is None
        # Everything else is still populated.
        assert result.dual_total > 0

    def test_verify_true_default(self):
        hg = Hypergraph(3, [(0, 1, 2)])
        assert solve_mwhvc(hg).certificate is not None

    def test_max_iterations_guard_raises_cleanly(self):
        from repro.exceptions import RoundLimitExceededError

        hg = path_graph(8, weights=[3, 1, 4, 1, 5, 9, 2, 6])
        config = AlgorithmConfig(epsilon=Fraction(1, 16), max_iterations=1)
        with pytest.raises(RoundLimitExceededError):
            solve_mwhvc(hg, config=config)

    def test_congest_max_rounds_override(self):
        from repro.exceptions import RoundLimitExceededError

        hg = path_graph(8, weights=[3, 1, 4, 1, 5, 9, 2, 6])
        with pytest.raises(RoundLimitExceededError):
            solve_mwhvc(
                hg, Fraction(1, 16), executor="congest", max_rounds=3
            )

    def test_congest_refuses_fractional_weights_up_front(self, tmp_path):
        """The CONGEST engine sends weights as integer message fields:
        a fractional weight is an InvalidInstanceError before any
        round runs (the CLI exits 2), while integral Fraction weights,
        normalized to ints, still solve like every other executor."""
        from repro.cli import main
        from repro.exceptions import InvalidInstanceError
        from repro.hypergraph.io import dumps

        fractional = Hypergraph(
            3, [(0, 1), (1, 2)], weights=[Fraction(3, 2), 1, 2]
        )
        with pytest.raises(InvalidInstanceError, match="integer"):
            solve_mwhvc(fractional, executor="congest")
        path = tmp_path / "fractional.hg"
        path.write_text(dumps(fractional))
        assert main(["solve", str(path), "--executor", "congest"]) == 2
        integral = Hypergraph(
            3, [(0, 1), (1, 2)], weights=[Fraction(4, 2), 1, 2]
        )
        congest = solve_mwhvc(integral, executor="congest")
        assert congest.cover == solve_mwhvc(integral).cover
        assert congest.dual == solve_mwhvc(integral).dual
