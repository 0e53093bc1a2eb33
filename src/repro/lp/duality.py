"""Weak-duality certificates for covering solutions (Claim 20).

The paper's approximation proof is: the produced cover ``C`` consists of
``beta``-tight vertices of a *feasible* dual packing, hence

    w(C) <= (1/(1-beta)) * sum_{v in C} sum_{e : v in e} delta(e)
         <= (f/(1-beta)) * sum_e delta(e)
         =  (f + eps) * dual value
         <= (f + eps) * OPT_fractional        (weak duality)

:class:`ApproximationCertificate` packages that chain so any caller can
verify the guarantee of a returned solution *exactly* — no LP solver and
no floating point involved.  This is the library's primary correctness
artifact; tests and benchmarks check certificates on every run.

:meth:`ApproximationCertificate.verify` checks the chain in exact
integers: every ``delta(e)`` is written over one common denominator
``L`` (a :class:`~repro.lp.scaled.ScaledDual`'s own scale, else the lcm
of the distinct denominators), each edge's numerator is
added onto its member vertices, and feasibility becomes
``load(v) <= L * w(v)`` per vertex and the ratio one big-integer
comparison.  The :class:`~fractions.Fraction` helpers of
:mod:`repro.lp.covering_lp` (:func:`~repro.lp.covering_lp.dual_feasible`,
:func:`~repro.lp.covering_lp.vertex_load`,
:func:`~repro.lp.covering_lp.dual_value`) remain the reference: the
integer checker must accept and reject exactly what they do.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from repro.exceptions import CertificateError
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.validation import require_cover
from repro.lp.covering_lp import (
    Numeric,
    _as_fraction,
    require_dual_edge_ids,
    vertex_load,
)
from repro.lp.scaled import ScaledDual

__all__ = ["ApproximationCertificate", "beta_tight_vertices", "beta_for"]

_INFEASIBLE = (
    "dual packing is infeasible: some vertex constraint "
    "sum_{e in E(v)} delta(e) <= w(v) is violated"
)


def beta_for(rank: int, epsilon: Fraction) -> Fraction:
    """``beta = eps / (f + eps)`` as defined in Section 3.1."""
    epsilon = Fraction(epsilon)
    return epsilon / (rank + epsilon)


def beta_tight_vertices(
    hypergraph: Hypergraph,
    delta: Mapping[int, Numeric],
    beta: Fraction,
) -> set[int]:
    """Vertices with ``sum_{e in E(v)} delta(e) >= (1 - beta) w(v)``."""
    beta = Fraction(beta)
    tight: set[int] = set()
    for vertex in range(hypergraph.num_vertices):
        load = vertex_load(hypergraph, delta, vertex)
        if load >= (1 - beta) * hypergraph.weight(vertex):
            tight.add(vertex)
    return tight


@dataclass(frozen=True)
class ApproximationCertificate:
    """Exact evidence that a cover is within ``(f + eps)`` of optimal.

    Attributes
    ----------
    cover_weight:
        ``w(C)`` of the verified cover.
    dual_total:
        ``sum_e delta(e)`` of the verified feasible packing; a lower
        bound on the fractional optimum by weak duality.
    ratio_bound:
        ``f + eps`` — the guarantee being certified.
    """

    cover_weight: Fraction
    dual_total: Fraction
    ratio_bound: Fraction

    @property
    def certified_ratio(self) -> Fraction | None:
        """``w(C) / dual_total``: a proven upper bound on the true ratio.

        ``None`` when the dual is zero (possible only for empty covers
        on edgeless instances).
        """
        if self.dual_total == 0:
            return None
        return self.cover_weight / self.dual_total

    @staticmethod
    def verify(
        hypergraph: Hypergraph,
        cover: Iterable[int],
        delta: Mapping[int, Numeric],
        rank: int,
        epsilon: Fraction,
    ) -> "ApproximationCertificate":
        """Check every link of the Claim 20 chain; raise on any failure.

        Verifies: (1) ``cover`` is a vertex cover, (2) ``delta`` is a
        feasible edge packing, (3) ``w(C) <= (f + eps) * sum delta``.
        Note (3) is implied by every cover vertex being beta-tight but
        is checked directly — it is the statement callers rely on.

        Every ``delta(e)`` is brought to one common denominator ``L``
        as ``N_e / L``, so (2) is ``sum_{e in E(v)} N_e <= L * w(v)``
        in integers and (3) one integer comparison.  A
        :class:`~repro.lp.scaled.ScaledDual` already is that form
        (``L = S``, ``N = D``); any other mapping gets its per-edge
        ratios and their lcm first.  The outcome, the exception type
        and the message are those of the Fraction chain
        :func:`~repro.hypergraph.validation.require_cover`,
        :func:`~repro.lp.covering_lp.dual_feasible`,
        :func:`~repro.lp.covering_lp.dual_value`.
        """
        epsilon = Fraction(epsilon)
        chosen = require_cover(hypergraph, cover)
        if isinstance(delta, ScaledDual):
            # Already N_e / L, keyed 0..len-1 with int values: only
            # keys past the last edge id can be unknown.
            common, scaled = delta.scale, delta.numerators
            require_dual_edge_ids(
                hypergraph, range(hypergraph.num_edges, len(scaled))
            )
            if min(scaled, default=0) < 0:
                raise CertificateError(_INFEASIBLE)
            edge_ids = None
        else:
            require_dual_edge_ids(hypergraph, delta)
            # Mapping order, so the first negative value rejects before
            # a later malformed one is converted, as in dual_feasible.
            # Two int lists rather than a list of (num, den) tuples:
            # ints are not tracked by the garbage collector, so a large
            # dual triggers no collections here.
            numerators, denominators = [], []
            for edge_id, value in delta.items():
                if type(value) is not Fraction and type(value) is not int:
                    value = _as_fraction(value, f"delta({edge_id})")
                numerator, denominator = value.as_integer_ratio()
                if numerator < 0:
                    raise CertificateError(_INFEASIBLE)
                numerators.append(numerator)
                denominators.append(denominator)
            distinct = set(denominators)
            common = lcm(*distinct)
            factors = {den: common // den for den in distinct}
            scaled = [
                num * factors[den]
                for num, den in zip(numerators, denominators)
            ]
            edge_ids = delta
        load = hypergraph._vertex_sums(scaled, edge_ids)
        for mass, weight in zip(load, hypergraph.weights):
            if type(weight) is int:
                if mass > common * weight:
                    raise CertificateError(_INFEASIBLE)
            elif mass * weight.denominator > common * weight.numerator:
                raise CertificateError(_INFEASIBLE)
        cover_weight = Fraction(hypergraph.cover_weight(chosen))
        bound = Fraction(rank) + epsilon
        total = sum(scaled)
        dual_total = Fraction(total, common)
        # w(C) > bound * total / L, cross-multiplied.
        if hypergraph.num_edges > 0 and (
            cover_weight.numerator * bound.denominator * common
            > bound.numerator * total * cover_weight.denominator
        ):
            raise CertificateError(
                f"cover weight {cover_weight} exceeds (f+eps) * dual = "
                f"{bound} * {dual_total} = {bound * dual_total}"
            )
        return ApproximationCertificate(
            cover_weight=cover_weight, dual_total=dual_total, ratio_bound=bound
        )
