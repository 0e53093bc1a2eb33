"""Output checks that do not trust the engine.

Every workload decodes what the program produced (JSON text or
response lines) and checks it here against the benchmark's own copy of
the instance: the cover hits every edge, its weight is the reported
weight and, where the dual travels with the result, the dual is a
feasible packing whose total is the reported total and certifies the
``(f + eps)`` ratio.  A digest of the solver output lets a run compare
samples with each other and with the digest recorded for the default
seed.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import lcm

#: The solver output a digest covers.  ``lane``, ``worker``, ``warm``
#: and timings are provenance, not output, and stay out.
DIGEST_FIELDS = (
    "cover", "weight", "dual", "dual_total", "iterations", "rounds",
    "levels", "stats",
)


class CheckFailure(Exception):
    """A result the benchmark refuses: the run is not correct."""


def solver_output(data: dict) -> dict:
    """The digested fields of one decoded result."""
    return {key: data[key] for key in DIGEST_FIELDS if key in data}


def digest(data: dict) -> str:
    """Digest of one decoded result's solver output."""
    text = json.dumps(solver_output(data), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def combine(digests) -> str:
    """One digest for an ordered sequence of digests."""
    return hashlib.sha256("\n".join(digests).encode("ascii")).hexdigest()


def check_cover(instance, data: dict, label: str) -> None:
    """The cover hits every edge and weighs what the result says."""
    cover = set(data["cover"])
    if not all(0 <= vertex < instance.n for vertex in cover):
        raise CheckFailure(f"{label}: cover names a vertex outside 0..n-1")
    for position, edge in enumerate(instance.edges):
        if cover.isdisjoint(edge):
            raise CheckFailure(f"{label}: edge {position} {edge} is uncovered")
    weights = instance.weights
    weight = sum(weights[vertex] for vertex in cover)
    if Fraction(str(data["weight"])) != weight:
        raise CheckFailure(
            f"{label}: reported weight {data['weight']} but the cover "
            f"weighs {weight}"
        )


def check_dual(instance, data: dict, epsilon: Fraction, label: str) -> None:
    """The dual is a feasible packing certifying the reported ratio.

    Works on one common denominator so the per-vertex load sums are
    plain integer additions.
    """
    dual = data["dual"]
    if set(dual) != {str(position) for position in range(len(instance.edges))}:
        raise CheckFailure(f"{label}: the dual does not name every edge once")
    values = [Fraction(dual[str(position)]) for position in range(len(instance.edges))]
    if any(value < 0 for value in values):
        raise CheckFailure(f"{label}: negative dual value")
    scale = 1
    for value in values:
        scale = lcm(scale, value.denominator)
    scaled = [value.numerator * (scale // value.denominator) for value in values]
    load = [0] * instance.n
    for amount, edge in zip(scaled, instance.edges):
        for vertex in edge:
            load[vertex] += amount
    for vertex, (used, weight) in enumerate(zip(load, instance.weights)):
        if used > weight * scale:
            raise CheckFailure(f"{label}: dual overloads vertex {vertex}")
    total = Fraction(sum(scaled), scale)
    if Fraction(data["dual_total"]) != total:
        raise CheckFailure(
            f"{label}: dual_total {data['dual_total']} but the dual sums "
            f"to {total}"
        )
    rank = max((len(edge) for edge in instance.edges), default=1)
    if Fraction(str(data["weight"])) > (rank + epsilon) * total:
        raise CheckFailure(f"{label}: cover weight exceeds (f+eps) * dual")
