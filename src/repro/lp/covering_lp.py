"""Primal covering LP and dual edge-packing representations (Appendix A).

The fractional relaxation of MWHVC is::

    minimize    sum_v w(v) x(v)
    subject to  sum_{v in e} x(v) >= 1   for every hyperedge e
                x(v) >= 0

and its dual is the Edge Packing problem::

    maximize    sum_e delta(e)
    subject to  sum_{e : v in e} delta(e) <= w(v)   for every vertex v
                delta(e) >= 0

The paper's entire approximation argument is weak duality on this pair
(Claim 20), so the library represents both explicitly and exactly
(:class:`fractions.Fraction` values), independent of any LP solver.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from numbers import Rational

from repro.exceptions import InvalidInstanceError
from repro.hypergraph.hypergraph import Hypergraph

__all__ = [
    "primal_value",
    "primal_feasible",
    "dual_value",
    "dual_feasible",
    "dual_slack",
    "vertex_load",
    "require_dual_edge_ids",
]

Numeric = Rational | int | float


def _as_fraction(value: Numeric, what: str) -> Fraction:
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError) as error:
        # OverflowError: Fraction(float("inf")); NaN raises ValueError.
        raise InvalidInstanceError(f"{what} {value!r} is not numeric") from error


def primal_value(hypergraph: Hypergraph, assignment: Sequence[Numeric]) -> Fraction:
    """Objective ``sum w(v) x(v)`` of a fractional primal assignment."""
    if len(assignment) != hypergraph.num_vertices:
        raise InvalidInstanceError(
            f"assignment has {len(assignment)} entries for "
            f"{hypergraph.num_vertices} vertices"
        )
    return sum(
        (
            Fraction(hypergraph.weight(vertex))
            * _as_fraction(value, f"x({vertex})")
            for vertex, value in enumerate(assignment)
        ),
        Fraction(0),
    )


def primal_feasible(
    hypergraph: Hypergraph, assignment: Sequence[Numeric]
) -> bool:
    """Whether ``assignment`` is a feasible fractional cover."""
    if len(assignment) != hypergraph.num_vertices:
        return False
    values = [_as_fraction(value, "x") for value in assignment]
    if any(value < 0 for value in values):
        return False
    return all(
        sum((values[vertex] for vertex in edge), Fraction(0)) >= 1
        for edge in hypergraph.edges
    )


def dual_value(delta: Mapping[int, Numeric]) -> Fraction:
    """Objective ``sum_e delta(e)`` of a dual packing."""
    return sum(
        (_as_fraction(value, f"delta({edge})") for edge, value in delta.items()),
        Fraction(0),
    )


def vertex_load(
    hypergraph: Hypergraph, delta: Mapping[int, Numeric], vertex: int
) -> Fraction:
    """``sum_{e in E(v)} delta(e)``: total dual mass on ``vertex``.

    Missing edges contribute zero, so partial packings are accepted.
    """
    return sum(
        (
            _as_fraction(delta.get(edge_id, 0), f"delta({edge_id})")
            for edge_id in hypergraph.incident_edges(vertex)
        ),
        Fraction(0),
    )


def dual_slack(
    hypergraph: Hypergraph, delta: Mapping[int, Numeric], vertex: int
) -> Fraction:
    """``w(v) - sum_{e in E(v)} delta(e)``: remaining packing capacity."""
    return Fraction(hypergraph.weight(vertex)) - vertex_load(
        hypergraph, delta, vertex
    )


def require_dual_edge_ids(
    hypergraph: Hypergraph, delta: Mapping[int, Numeric]
) -> None:
    """Raise unless every key of ``delta`` is a hyperedge id of ``hypergraph``.

    Ids must be ``int`` (``bool`` excluded), as vertex ids must be in
    :func:`~repro.hypergraph.validation.require_vertex_subset`: a
    ``0.0`` or ``True`` key would otherwise alias edge ``0`` or ``1``.

    Raises
    ------
    InvalidInstanceError
        Naming the first offending key in mapping order.
    """
    num_edges = hypergraph.num_edges
    for edge_id in delta:
        if not isinstance(edge_id, int) or isinstance(edge_id, bool):
            raise InvalidInstanceError(
                f"delta references non-int hyperedge id {edge_id!r}"
            )
        if not 0 <= edge_id < num_edges:
            raise InvalidInstanceError(
                f"delta references unknown hyperedge {edge_id}"
            )


def dual_feasible(
    hypergraph: Hypergraph, delta: Mapping[int, Numeric]
) -> bool:
    """Whether ``delta`` is a feasible edge packing (exact arithmetic).

    The reference checker: one :class:`Fraction` sum per vertex.
    :meth:`ApproximationCertificate.verify
    <repro.lp.duality.ApproximationCertificate.verify>` decides the
    same question in integers and is tested against this function.
    """
    require_dual_edge_ids(hypergraph, delta)
    if any(
        _as_fraction(value, f"delta({edge})") < 0
        for edge, value in delta.items()
    ):
        return False
    return all(
        dual_slack(hypergraph, delta, vertex) >= 0
        for vertex in range(hypergraph.num_vertices)
    )
