"""What one workload run hands back to ``run.py``, and small helpers."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field


@dataclass
class Outcome:
    """Measurements of one run.

    ``metrics`` are the end-to-end figures every workload reports under
    the same names; ``layers`` the per-layer figures of a traced run;
    ``report`` the workload's own figures, printed by name for readers
    but not gated.  Every entry is ``name -> (value, unit)``.
    """

    attempted: int
    failed: int
    digest: str
    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)


def p90(values) -> float:
    """90th percentile, interpolated between the nearest samples."""
    return statistics.quantiles(values, n=10, method="inclusive")[-1]
