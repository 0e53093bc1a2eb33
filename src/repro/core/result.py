"""Result objects returned by the MWHVC solvers.

A :class:`CoverResult` bundles the cover itself with everything the
paper's analysis talks about: round/iteration counts, the dual packing
(whose total is the weak-duality lower bound), the exact approximation
certificate, per-run statistics matching Lemmas 6–7, and — for CONGEST
executions — the engine's message metrics.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction

from repro.congest.metrics import RunMetrics
from repro.lp.duality import ApproximationCertificate
from repro.lp.scaled import ScaledDual

__all__ = ["AlgorithmStats", "CoverResult", "rational_for_json"]


def rational_for_json(value: int | Fraction) -> int | str:
    """A JSON-safe rendering of an exact weight-like quantity.

    Integers pass through unchanged (the overwhelmingly common case);
    non-integral rationals — possible since vertex weights may be
    Fractions — are rendered canonically as ``"num/den"`` strings, the
    same form :meth:`CoverResult.as_dict` uses for every other rational
    field (``str(Fraction(3, 2)) == "3/2"``).
    """
    if isinstance(value, int):
        return value
    value = Fraction(value)
    if value.denominator == 1:
        return value.numerator
    return str(value)


@dataclass(frozen=True, slots=True)
class AlgorithmStats:
    """Counters mirroring the quantities bounded in Section 4.2.

    * ``total_raise_events`` / ``max_raises_per_edge`` — e-raise
      iterations (Lemma 6 bounds the per-edge count by
      ``log_alpha(Δ · 2^(f z))``);
    * ``total_stuck_events`` / ``max_stuck_per_vertex_level`` — v-stuck
      iterations (Lemma 7 bounds the per-(vertex, level) count by
      ``alpha``, or ``2 alpha`` in Appendix C mode);
    * ``total_halvings`` — bid halvings across all edges (at most
      ``f·z`` each by Claim 4);
    * ``max_level`` — highest level reached (Claim 4: ``< z``).
    """

    total_raise_events: int
    max_raises_per_edge: int
    total_stuck_events: int
    max_stuck_per_vertex_level: int
    total_halvings: int
    max_level: int
    level_cap: int

    @staticmethod
    def empty(level_cap: int = 1) -> "AlgorithmStats":
        """Stats of a run that had nothing to do."""
        return AlgorithmStats(
            total_raise_events=0,
            max_raises_per_edge=0,
            total_stuck_events=0,
            max_stuck_per_vertex_level=0,
            total_halvings=0,
            max_level=0,
            level_cap=level_cap,
        )


@dataclass(frozen=True)
class CoverResult:
    """Outcome of one MWHVC execution.

    Attributes
    ----------
    cover:
        The computed vertex cover ``C``.
    weight:
        ``w(C)`` (an exact int, or a Fraction when vertex weights are
        fractional).
    rank / epsilon / guarantee:
        Instance rank ``f``, the slack ``eps``, and the certified bound
        ``f + eps``.
    iterations / rounds:
        Algorithm iterations and CONGEST communication rounds (rounds
        follow the engine's convention: number of synchronous steps
        until every node has locally terminated).
    dual:
        Final dual packing ``delta(e)`` per edge id (frozen values for
        covered edges), as a read-only ``Mapping``; ``dict(result.dual)``
        gives a mutable copy.  The scaled-integer executors hand out
        their own :class:`~repro.lp.scaled.ScaledDual` (one scale, one
        integer numerator per edge, Fractions built on read); lockstep
        and congest a plain dict.
    dual_total:
        ``sum_e delta(e)`` — an exact lower bound on the fractional
        optimum by weak duality.
    certificate:
        The verified Claim 20 chain, or ``None`` when verification was
        disabled.
    levels:
        Final level of every vertex.
    stats:
        Raise/stuck/halving counters (see :class:`AlgorithmStats`).
    metrics:
        CONGEST engine metrics, or ``None`` for lockstep runs.
    alpha_min / alpha_max:
        Range of alphas used across edges (they differ only under the
        local policy).
    lane:
        Which arithmetic lane completed the run for the scaled-integer
        executors (``"int64"``, ``"two-limb"``, ``"three-limb"`` or
        ``"bigint"``);
        ``None`` for the Fraction-core executors.  Metadata only —
        excluded from equality so differential comparisons across
        executors and lanes stay meaningful.
    worker:
        Which shard of a multiprocess batch execution
        (``solve_mwhvc_batch(..., jobs=N)``) solved this instance;
        ``None`` for in-process runs.  Like ``lane``, provenance
        metadata excluded from equality — parallelism must never be
        observable in the results themselves.
    warm / invalidated:
        Incremental re-solve provenance
        (:func:`repro.core.incremental.resolve_incremental`): whether
        the run reused cached per-component results (``warm=True``) or
        fell back to a from-scratch solve, and how many edges the
        mutation invalidated.  ``None`` for ordinary solves; excluded
        from equality so incremental results compare bit-identical to
        from-scratch ones.
    """

    cover: frozenset[int]
    weight: int | Fraction
    rank: int
    epsilon: Fraction
    iterations: int
    rounds: int
    dual: Mapping[int, Fraction]
    dual_total: Fraction
    certificate: ApproximationCertificate | None
    levels: tuple[int, ...]
    stats: AlgorithmStats
    metrics: RunMetrics | None
    alpha_min: Fraction
    alpha_max: Fraction
    lane: str | None = field(default=None, compare=False)
    worker: int | None = field(default=None, compare=False)
    warm: bool | None = field(default=None, compare=False)
    invalidated: int | None = field(default=None, compare=False)

    @property
    def guarantee(self) -> Fraction:
        """The proven approximation factor ``f + eps``."""
        return Fraction(self.rank) + self.epsilon

    @property
    def certified_ratio(self) -> Fraction | None:
        """``w(C) / dual_total`` — exact upper bound on the true ratio."""
        if self.dual_total == 0:
            return None
        return Fraction(self.weight) / self.dual_total

    def summary(self) -> str:
        """One-line human-readable digest."""
        ratio = self.certified_ratio
        ratio_text = f"{float(ratio):.4f}" if ratio is not None else "n/a"
        return (
            f"cover weight {self.weight} (certified ratio <= {ratio_text}, "
            f"guarantee {float(self.guarantee):.4f}) in "
            f"{self.iterations} iterations / {self.rounds} rounds"
        )

    def as_dict(self, *, include_dual: bool = False) -> dict:
        """JSON-safe dictionary view (Fractions rendered as strings).

        Used by experiment pipelines that persist runs; ``include_dual``
        adds the per-edge packing (potentially large).
        """
        data = {
            "cover": sorted(self.cover),
            "weight": rational_for_json(self.weight),
            "rank": self.rank,
            "epsilon": str(self.epsilon),
            "guarantee": str(self.guarantee),
            "iterations": self.iterations,
            "rounds": self.rounds,
            "dual_total": str(self.dual_total),
            "certified_ratio": (
                str(self.certified_ratio)
                if self.certified_ratio is not None
                else None
            ),
            "levels": list(self.levels),
            "alpha_min": str(self.alpha_min),
            "alpha_max": str(self.alpha_max),
            "stats": {
                "total_raise_events": self.stats.total_raise_events,
                "max_raises_per_edge": self.stats.max_raises_per_edge,
                "total_stuck_events": self.stats.total_stuck_events,
                "max_stuck_per_vertex_level": (
                    self.stats.max_stuck_per_vertex_level
                ),
                "total_halvings": self.stats.total_halvings,
                "max_level": self.stats.max_level,
                "level_cap": self.stats.level_cap,
            },
        }
        if self.lane is not None:
            data["lane"] = self.lane
        if self.worker is not None:
            data["worker"] = self.worker
        if self.warm is not None:
            data["warm"] = self.warm
        if self.invalidated is not None:
            data["invalidated"] = self.invalidated
        if self.metrics is not None:
            data["congest_metrics"] = self.metrics.as_dict()
        if include_dual:
            data["dual"] = {
                str(edge): f"{value}{over}"
                for edge, value, over in _dual_entries(self.dual)
            }
        return data

    def to_json(self, *, include_dual: bool = False) -> str:
        """Serialize :meth:`as_dict` to a JSON string.

        A :class:`~repro.lp.scaled.ScaledDual` is rendered in one pass
        over its reduced pairs and spliced in as the last field: the
        same bytes ``json.dumps`` writes for the ``as_dict`` form.
        """
        if not include_dual or not isinstance(self.dual, ScaledDual):
            return json.dumps(self.as_dict(include_dual=include_dual))
        body = ", ".join(
            [
                f'"{edge}": "{value}{over}"'
                for edge, value, over in _dual_entries(self.dual)
            ]
        )
        return f'{json.dumps(self.as_dict())[:-1]}, "dual": {{{body}}}}}'


def _dual_entries(dual: Mapping):
    """``(edge, value, suffix)`` with ``f"{value}{suffix}"`` the value's
    ``str()``; a :class:`~repro.lp.scaled.ScaledDual` gives its reduced
    numerators and ``"/den"`` suffixes (empty when integral), each
    suffix formatted once per distinct denominator."""
    if not isinstance(dual, ScaledDual):
        return ((edge, str(value), "") for edge, value in dual.items())
    numerators, denominators = dual.reduced()
    over = {den: f"/{den}" if den != 1 else "" for den in set(denominators)}
    return zip(
        range(len(numerators)), numerators, map(over.__getitem__, denominators)
    )
