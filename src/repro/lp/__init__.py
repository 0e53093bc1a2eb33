"""LP/duality substrate: covering LP, edge packing, certificates, reference optima."""

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
from repro.lp.reference import ExactSolution, exact_optimum, fractional_optimum
from repro.lp.scaled import ScaledDual

__all__ = [
    "dual_feasible",
    "dual_slack",
    "dual_value",
    "primal_feasible",
    "primal_value",
    "vertex_load",
    "ApproximationCertificate",
    "beta_for",
    "beta_tight_vertices",
    "ScaledDual",
    "ExactSolution",
    "exact_optimum",
    "fractional_optimum",
]
