"""Validation helpers for hypergraph instances and covers.

These checks are shared by the solvers, the test suite, and the
benchmark harness.  They raise library exceptions with actionable
messages rather than returning booleans, so a failed check pinpoints
the offending edge/vertex.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.exceptions import CertificateError, InvalidInstanceError
from repro.hypergraph.hypergraph import Hypergraph

__all__ = [
    "require_cover",
    "require_vertex_subset",
    "check_paper_assumptions",
]


def require_vertex_subset(hypergraph: Hypergraph, vertices: Iterable[int]) -> set[int]:
    """Validate that ``vertices`` are ids of ``hypergraph``; return them as a set."""
    chosen = set(vertices)
    for vertex in chosen:
        if not isinstance(vertex, int) or isinstance(vertex, bool):
            raise InvalidInstanceError(f"vertex id {vertex!r} is not an int")
        if not 0 <= vertex < hypergraph.num_vertices:
            raise InvalidInstanceError(
                f"vertex id {vertex} outside 0..{hypergraph.num_vertices - 1}"
            )
    return chosen


def require_cover(hypergraph: Hypergraph, vertices: Iterable[int]) -> set[int]:
    """Validate that ``vertices`` is a vertex cover; return it as a set.

    Raises
    ------
    CertificateError
        If some hyperedge is not covered (the first offender is named).
    """
    chosen = require_vertex_subset(hypergraph, vertices)
    for edge_id, edge in enumerate(hypergraph.edges):
        if chosen.isdisjoint(edge):
            raise CertificateError(
                f"hyperedge {edge_id} = {edge} is not covered by the solution"
            )
    return chosen


def check_paper_assumptions(hypergraph: Hypergraph) -> list[str]:
    """Report which of the paper's Section 2 assumptions the instance meets.

    The algorithm itself works on any valid instance; these assumptions
    only matter for interpreting the CONGEST message-size accounting
    (weights and degrees polynomial in ``n``, ``Δ >= 3``).  Returns a
    list of human-readable warnings (empty when all assumptions hold).
    """
    warnings: list[str] = []
    n = max(hypergraph.num_vertices, 2)
    poly_bound = n**10
    if any(weight > poly_bound for weight in hypergraph.weights):
        warnings.append(
            "some vertex weight exceeds n^10; the O(log n) message-size "
            "accounting for weight exchange no longer applies"
        )
    if hypergraph.num_edges > poly_bound:
        warnings.append(
            "the number of hyperedges exceeds n^10; degree messages may "
            "exceed O(log n) bits"
        )
    if 0 < hypergraph.max_degree < 3:
        warnings.append(
            "maximum degree below 3; the paper assumes Δ >= 3 so that "
            "log log Δ > 0 in the round bounds"
        )
    return warnings
