"""Tests for the LP/duality substrate: primal/dual values, feasibility,
certificates, and reference optima."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from repro.exceptions import CertificateError, InvalidInstanceError
from repro.hypergraph.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    star_hypergraph,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.lp.covering_lp import (
    dual_feasible,
    dual_slack,
    dual_value,
    primal_feasible,
    primal_value,
    vertex_load,
)
from repro.lp.duality import (
    ApproximationCertificate,
    beta_for,
    beta_tight_vertices,
)
from repro.lp.reference import HAS_LP_SOLVER, exact_optimum, fractional_optimum
from repro.lp.scaled import ScaledDual


@pytest.fixture
def square():
    """4-cycle with weights [1, 2, 3, 4]."""
    return Hypergraph(
        4, [(0, 1), (1, 2), (2, 3), (0, 3)], weights=[1, 2, 3, 4]
    )


class TestPrimal:
    def test_primal_value(self, square):
        value = primal_value(square, [1, 0, 1, 0])
        assert value == Fraction(4)

    def test_primal_value_fractional(self, square):
        value = primal_value(square, [Fraction(1, 2)] * 4)
        assert value == Fraction(5)

    def test_primal_value_length_check(self, square):
        with pytest.raises(InvalidInstanceError):
            primal_value(square, [1, 0])

    def test_primal_feasible(self, square):
        assert primal_feasible(square, [1, 0, 1, 0])
        assert primal_feasible(square, [Fraction(1, 2)] * 4)
        assert not primal_feasible(square, [1, 0, 0, 0])
        assert not primal_feasible(square, [2, -1, 1, 1])
        assert not primal_feasible(square, [1, 1])

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_primal_infinite_value_rejected(self, square, value):
        with pytest.raises(InvalidInstanceError, match="not numeric"):
            primal_value(square, [value, 0, 1, 0])
        with pytest.raises(InvalidInstanceError, match="not numeric"):
            primal_feasible(square, [value, 0, 1, 0])


class TestDual:
    def test_dual_value(self):
        assert dual_value({0: Fraction(1, 2), 1: 1}) == Fraction(3, 2)

    def test_vertex_load_and_slack(self, square):
        delta = {0: Fraction(1, 2), 1: Fraction(1, 3)}
        assert vertex_load(square, delta, 1) == Fraction(5, 6)
        assert dual_slack(square, delta, 1) == 2 - Fraction(5, 6)

    def test_partial_packings_accepted(self, square):
        assert vertex_load(square, {}, 0) == 0

    def test_dual_feasible(self, square):
        assert dual_feasible(square, {0: Fraction(1, 2), 2: 1})
        # Vertex 0 has weight 1; edges 0 and 3 meet there.
        assert not dual_feasible(square, {0: 1, 3: Fraction(1, 10)})

    def test_dual_negative_infeasible(self, square):
        assert not dual_feasible(square, {0: Fraction(-1, 2)})

    def test_dual_unknown_edge_rejected(self, square):
        with pytest.raises(InvalidInstanceError):
            dual_feasible(square, {17: 1})

    @pytest.mark.parametrize("edge_id", ["0", 0.0, True, None])
    def test_dual_non_int_edge_id_rejected(self, square, edge_id):
        # 0.0 and True would otherwise alias edges 0 and 1.
        with pytest.raises(InvalidInstanceError, match="non-int hyperedge id"):
            dual_feasible(square, {edge_id: Fraction(1, 2)})

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_dual_infinite_value_rejected(self, square, value):
        with pytest.raises(InvalidInstanceError, match="not numeric"):
            dual_value({0: value})
        with pytest.raises(InvalidInstanceError, match="not numeric"):
            dual_feasible(square, {0: value})


class TestBetaTight:
    def test_beta_for(self):
        assert beta_for(2, Fraction(1)) == Fraction(1, 3)
        assert beta_for(3, Fraction(1, 2)) == Fraction(1, 7)

    def test_beta_tight_vertices(self, square):
        # Load vertex 0 (weight 1) fully.
        delta = {0: Fraction(1, 2), 3: Fraction(1, 2)}
        tight = beta_tight_vertices(square, delta, Fraction(1, 3))
        assert 0 in tight
        assert 2 not in tight


class TestCertificate:
    def test_verify_accepts_valid(self, square):
        delta = {0: 1, 1: 1, 2: 2}
        certificate = ApproximationCertificate.verify(
            square, {0, 1, 2, 3}, delta, 2, Fraction(1)
        )
        assert certificate.cover_weight == 10
        assert certificate.dual_total == 4
        assert certificate.certified_ratio == Fraction(10, 4)

    def test_verify_rejects_non_cover(self, square):
        with pytest.raises(CertificateError):
            ApproximationCertificate.verify(
                square, {0}, {0: 1}, 2, Fraction(1)
            )

    def test_verify_rejects_infeasible_dual(self, square):
        with pytest.raises(CertificateError, match="infeasible"):
            ApproximationCertificate.verify(
                square, {0, 2}, {0: 5, 1: 5}, 2, Fraction(1)
            )

    def test_verify_rejects_bad_ratio(self, square):
        # Tiny feasible dual cannot certify a heavy cover.
        with pytest.raises(CertificateError, match="exceeds"):
            ApproximationCertificate.verify(
                square,
                {0, 1, 2, 3},
                {0: Fraction(1, 100)},
                2,
                Fraction(1),
            )

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_verify_rejects_infinite_dual(self, square, value):
        with pytest.raises(InvalidInstanceError, match="not numeric"):
            ApproximationCertificate.verify(
                square, {0, 1, 2, 3}, {0: 1, 1: value}, 2, Fraction(1)
            )

    @pytest.mark.parametrize("edge_id", ["0", 0.0, True, None])
    def test_verify_rejects_non_int_edge_id(self, square, edge_id):
        with pytest.raises(InvalidInstanceError, match="non-int hyperedge id"):
            ApproximationCertificate.verify(
                square, {0, 1, 2, 3}, {edge_id: 1}, 2, Fraction(1)
            )

    def test_verify_fraction_weights(self):
        # load(v) * w.den <= L * w.num: vertex 1 carries 1/2 + 1/3 = 5/6.
        hypergraph = Hypergraph(
            3, [(0, 1), (1, 2)], weights=[Fraction(1, 2), Fraction(5, 6), 1]
        )
        delta = {0: Fraction(1, 2), 1: Fraction(1, 3)}
        certificate = ApproximationCertificate.verify(
            hypergraph, {1}, delta, 2, Fraction(1)
        )
        assert certificate.dual_total == Fraction(5, 6)
        assert certificate.cover_weight == Fraction(5, 6)
        with pytest.raises(CertificateError, match="infeasible"):
            ApproximationCertificate.verify(
                hypergraph.reweighted([Fraction(1, 2), Fraction(4, 5), 1]),
                {1},
                delta,
                2,
                Fraction(1),
            )

    def test_empty_instance_certificate(self):
        empty = Hypergraph(2, [])
        certificate = ApproximationCertificate.verify(
            empty, set(), {}, 1, Fraction(1)
        )
        assert certificate.certified_ratio is None


class TestReferenceOptima:
    def test_exact_path(self):
        # Path on 4 vertices: optimal unweighted cover has 2 vertices.
        solution = exact_optimum(path_graph(4))
        assert solution.weight == 2

    def test_exact_weighted_path(self):
        hg = path_graph(4, weights=[10, 1, 1, 10])
        solution = exact_optimum(hg)
        assert solution.weight == 2
        assert solution.cover == {1, 2}

    def test_exact_cycle(self):
        # Odd cycle C5 needs ceil(5/2) = 3 vertices.
        assert exact_optimum(cycle_graph(5)).weight == 3

    def test_exact_complete_graph(self):
        assert exact_optimum(complete_graph(5)).weight == 4

    def test_exact_star_hypergraph(self):
        hg = star_hypergraph(5, 3)
        assert exact_optimum(hg).weight == 1

    def test_exact_edgeless(self):
        solution = exact_optimum(Hypergraph(3, []))
        assert solution.weight == 0
        assert solution.cover == frozenset()

    def test_exact_size_guard(self):
        with pytest.raises(InvalidInstanceError):
            exact_optimum(path_graph(100), max_vertices=40)

    @pytest.mark.skipif(
        not HAS_LP_SOLVER, reason="fractional LP needs numpy+scipy"
    )
    def test_fractional_triangle_gap(self):
        # The triangle's fractional optimum is 1.5 < 2 integral.
        value = fractional_optimum(
            Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
        )
        assert value == pytest.approx(1.5, abs=1e-6)

    @pytest.mark.skipif(
        not HAS_LP_SOLVER, reason="fractional LP needs numpy+scipy"
    )
    def test_fractional_lower_bounds_integral(self):
        for n in (4, 5, 6, 7):
            hg = cycle_graph(n)
            assert fractional_optimum(hg) <= exact_optimum(hg).weight + 1e-9

    @pytest.mark.skipif(
        not HAS_LP_SOLVER, reason="fractional LP needs numpy+scipy"
    )
    def test_fractional_edgeless(self):
        assert fractional_optimum(Hypergraph(3, [])) == 0.0

    @pytest.mark.skipif(
        not HAS_LP_SOLVER, reason="fractional LP needs numpy+scipy"
    )
    def test_weak_duality_on_algorithm_dual(self, square):
        from repro.core.solver import solve_mwhvc

        result = solve_mwhvc(square, Fraction(1, 2))
        lp_value = fractional_optimum(square)
        assert float(result.dual_total) <= lp_value + 1e-6


class TestScaledDual:
    """``ScaledDual(S, D)`` is a read-only mapping ``e -> D_e / S``."""

    DUAL = ScaledDual(6, [0, 3, 6, 4, -2])
    EXPECTED = {
        0: Fraction(0),
        1: Fraction(1, 2),
        2: Fraction(1),
        3: Fraction(2, 3),
        4: Fraction(-1, 3),
    }

    def test_reads_as_its_fractions(self):
        dual = self.DUAL
        assert len(dual) == 5 and list(dual) == [0, 1, 2, 3, 4]
        assert [dual[edge] for edge in dual] == list(self.EXPECTED.values())
        assert dict(dual) == self.EXPECTED
        assert list(dual.items()) == list(self.EXPECTED.items())
        assert list(dual.values()) == list(self.EXPECTED.values())
        assert list(reversed(dual.items())) == list(
            reversed(self.EXPECTED.items())
        )
        assert (3, Fraction(2, 3)) in dual.items()
        assert dual.get(1) == Fraction(1, 2) and dual.get(5) is None
        assert 4 in dual and 5 not in dual
        assert all(type(value) is Fraction for value in dual.values())
        assert dual.reduced() == ([0, 1, 1, 2, -1], [1, 2, 1, 3, 3])

    def test_equality_with_dicts_both_ways_and_across_scales(self):
        dual = self.DUAL
        assert dual == self.EXPECTED and self.EXPECTED == dual
        assert ScaledDual(12, [0, 6, 12, 8, -4]) == dual
        assert dual == ScaledDual(12, [0, 6, 12, 8, -4])
        for other in (
            ScaledDual(6, [0, 3, 6, 4, -1]),
            ScaledDual(12, [0, 6, 12, 8, -3]),
            ScaledDual(6, [0, 3, 6, 4]),
            {**self.EXPECTED, 4: Fraction(1, 3)},
            {**self.EXPECTED, 5: Fraction(0)},
        ):
            assert dual != other and other != dual
        assert dual != [0, 3, 6, 4, -2]
        assert ScaledDual(1, ()) == {} and {} == ScaledDual(7, [])

    def test_keys_outside_the_edge_ids_raise_key_error(self):
        for key in (-1, 5, 10**30, "0", 1.5, None, (1,)):
            with pytest.raises(KeyError):
                self.DUAL[key]

    def test_read_only(self):
        with pytest.raises(TypeError):
            self.DUAL[0] = Fraction(1)
        with pytest.raises(TypeError):
            del self.DUAL[0]
        with pytest.raises(TypeError):
            hash(self.DUAL)
        copied = dict(self.DUAL)
        copied[0] = Fraction(1)
        assert self.DUAL[0] == 0

    def test_pickle_and_deepcopy_round_trip(self):
        for dual in (self.DUAL, ScaledDual(2**70 + 1, [2**80, 0, 3])):
            for twin in (
                pickle.loads(pickle.dumps(dual)),
                copy.deepcopy(dual),
                copy.copy(dual),
            ):
                assert type(twin) is ScaledDual
                assert twin.scale == dual.scale
                assert twin.numerators == dual.numerators
                assert twin == dual

    def test_rejects_a_bad_scale_or_numerator(self):
        for scale, numerators, error in (
            (0, [1], ValueError),
            (-3, [1], ValueError),
            (2.0, [1], TypeError),
            (True, [1], TypeError),
            ("6", [1], TypeError),
            (6, [1, 2.0], TypeError),
            (6, [Fraction(1)], TypeError),
            (6, [True], TypeError),
        ):
            with pytest.raises(error):
                ScaledDual(scale, numerators)

    def test_reduced_pairs_past_int64(self):
        for scale, numerators in (
            (2**64, [2**63, 2**64, 0, -(2**65), 3]),
            (10, [2**63, -(2**63), 5, 0]),
            (2**62, [-(2**63), 2**61, 1]),
        ):
            dual = ScaledDual(scale, numerators)
            pairs = list(zip(*dual.reduced()))
            assert pairs == [
                Fraction(value, scale).as_integer_ratio()
                for value in numerators
            ]
            assert dict(dual) == {
                edge: Fraction(value, scale)
                for edge, value in enumerate(numerators)
            }

    def test_reduced_takes_residues_when_only_numerators_pass_int64(
        self, monkeypatch
    ):
        """While ``S`` fits int64, numerators past int64 reduce through
        one ``np.gcd`` over ``D mod S`` (``gcd(D, S) = gcd(D mod S, S)``,
        negative ``D`` included), never the per-edge ``math.gcd`` loop,
        and the pairs equal the ``math.gcd`` reference."""
        import math

        import repro.lp.scaled as scaled_module

        def refuse(*args):
            raise AssertionError("math.gcd loop taken while S fits int64")

        if scaled_module._np is not None:
            monkeypatch.setattr(scaled_module, "gcd", refuse)
        for scale in (1, 6, 10**9 + 7, 2**62, 2**62 + 3, 2**63 - 25, 2**63 - 1):
            numerators = [
                2**63 - 1, 2**63, 2**63 + 1, -(2**63) + 1, -(2**63),
                -(2**63) - 1, 0, scale, -scale, 3 * scale + 1,
                2**200 + scale, -(2**130) * scale - 5, 7,
            ]
            divisors = [math.gcd(value, scale) for value in numerators]
            assert ScaledDual(scale, numerators).reduced() == (
                [value // divisor for value, divisor in zip(numerators, divisors)],
                [scale // divisor for divisor in divisors],
            ), scale

    def test_certificate_reads_the_scale_directly(self, square):
        cover = [1, 3]
        delta = ScaledDual(2, [1, 1, 1, 1])
        certificate = ApproximationCertificate.verify(
            square, cover, delta, 2, Fraction(1)
        )
        assert certificate == ApproximationCertificate.verify(
            square, cover, dict(delta), 2, Fraction(1)
        )
        assert certificate.dual_total == 2
        with pytest.raises(InvalidInstanceError, match="unknown hyperedge 4"):
            ApproximationCertificate.verify(
                square, cover, ScaledDual(2, [1] * 6), 2, Fraction(1)
            )
        with pytest.raises(CertificateError, match="infeasible"):
            ApproximationCertificate.verify(
                square, cover, ScaledDual(2, [1, -1, 1, 1]), 2, Fraction(1)
            )
