"""Algorithm parameters: ``eps``, ``beta``, levels cap ``z``, and ``alpha``.

Section 3.1 of the paper defines ``beta = eps/(f + eps)`` and the level
cap ``z = ceil(log2(1/beta))`` (Claim 4 shows no vertex ever reaches
level ``z``).  Theorem 9 chooses the bid multiplier ``alpha`` from
``Δ``, ``f``, ``eps`` and a constant ``gamma`` to obtain the optimal
round bound; the remark after Theorem 8 allows a *local* alpha computed
per hyperedge from the local maximum degree ``Δ(e)``.

This module centralizes those choices in :class:`AlgorithmConfig` so
every driver (CONGEST nodes, lockstep executor, ILP simulation) agrees
on the exact rationals used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Literal

from repro.core.numeric import ceil_log2_fraction, parse_epsilon
from repro.exceptions import InvalidInstanceError

__all__ = [
    "AlgorithmConfig",
    "beta_from",
    "level_cap",
    "theorem9_alpha",
    "resolve_alpha",
    "distinct_alphas",
]

Schedule = Literal["spec", "compact"]
IncrementMode = Literal["multi", "single"]
AlphaPolicy = Literal["theorem9", "fixed", "local"]

#: Denominator bound when snapping a real-valued alpha to a Fraction.
#: Keeps bid denominators small without materially changing the policy.
_ALPHA_DENOMINATOR_LIMIT = 4096


def beta_from(rank: int, epsilon: Fraction) -> Fraction:
    """``beta = eps / (f + eps)`` (Section 3.1).

    For rank 0 (edgeless instance) the value is irrelevant; we use
    ``f = 1`` to keep it well defined.
    """
    effective_rank = max(1, rank)
    return epsilon / (effective_rank + epsilon)


def level_cap(rank: int, epsilon: Fraction) -> int:
    """``z = ceil(log2(1/beta))``; levels always stay below ``z`` (Claim 4)."""
    beta = beta_from(rank, epsilon)
    return max(1, ceil_log2_fraction(1 / beta))


def theorem9_alpha(
    max_degree: int,
    rank: int,
    epsilon: Fraction,
    gamma: float = 0.001,
) -> Fraction:
    """The alpha of Theorem 9, snapped to a small exact rational.

    With ``X = log Δ / (f * log(f/eps) * log log Δ)``::

        alpha = max(2, X)   if X >= (log Δ)^(gamma/2)
        alpha = 2           otherwise

    ``log(f/eps)`` is clamped below at 1 (it can reach 0 when
    ``f = eps = 1``, where the bound degenerates anyway), and any
    ``Δ < 4`` short-circuits to 2 (``log log Δ <= 0`` otherwise —
    the paper assumes ``Δ >= 3``; base-2 logs make 4 the safe floor).
    """
    if gamma <= 0:
        raise InvalidInstanceError(f"gamma must be positive, got {gamma}")
    if max_degree < 4:
        return Fraction(2)
    effective_rank = max(1, rank)
    log_delta = math.log2(max_degree)
    log_log_delta = math.log2(log_delta)
    log_f_over_eps = max(1.0, math.log2(effective_rank / float(epsilon)))
    x = log_delta / (effective_rank * log_f_over_eps * log_log_delta)
    if x >= log_delta ** (gamma / 2):
        snapped = Fraction(max(2.0, x)).limit_denominator(
            _ALPHA_DENOMINATOR_LIMIT
        )
        return max(Fraction(2), snapped)
    return Fraction(2)


@dataclass(frozen=True)
class AlgorithmConfig:
    """Immutable configuration for one MWHVC run.

    Attributes
    ----------
    epsilon:
        Approximation slack; the guarantee is ``(f + epsilon)``.
    schedule:
        ``"spec"`` — 4 communication rounds per iteration, evaluating
        the raise/stuck condition on fully halved bids exactly as in
        the Section 3.2 pseudocode.  ``"compact"`` — the 2-round
        Appendix B packing (level increments and raise/stuck share a
        message; same-iteration halvings by *other* vertices are not
        yet visible to the raise/stuck test, which is safe because
        stale bids only over-estimate).
    increment_mode:
        ``"multi"`` — Section 3 (duals raised by the full bid, a vertex
        may gain several levels per iteration).  ``"single"`` —
        Appendix C (duals raised by ``bid/2``; at most one level per
        iteration, Corollary 21), required by the ILP simulation.
    alpha_policy / fixed_alpha / gamma:
        How the bid multiplier is chosen: ``"theorem9"`` (global, from
        ``Δ``), ``"fixed"`` (use ``fixed_alpha``), or ``"local"``
        (per-edge from ``Δ(e)``, Theorem 9 remark / Appendix B item 5).
    check_invariants:
        When ``True``, vertex cores verify Claims 1, 2 and 4 (and
        Corollary 21 in single mode) every iteration, raising
        :class:`~repro.exceptions.InvariantViolationError` on failure.
    max_iterations:
        Safety valve for the iteration loop (the algorithm provably
        terminates; this guards implementation bugs).
    ambient_rank / ambient_max_degree:
        Optional *pinned* global parameters.  A connected component
        solved standalone sees only its local ``f`` and ``Δ``, but the
        paper's parameters (``beta``, ``z``, the Theorem 9 alpha) are
        functions of the *global* rank and degree.  Pinning the
        ambient values makes a fragment solve bit-identical to its
        slice of a monolithic solve (the scale is representation-only,
        so only these parameter choices couple components).  The
        fields participate in equality/hashing on purpose: configs key
        the streaming session's micro-batch buffers, and fragments
        pinned to the same ambient instance must batch together.
    """

    epsilon: Fraction = Fraction(1)
    schedule: Schedule = "spec"
    increment_mode: IncrementMode = "multi"
    alpha_policy: AlphaPolicy = "theorem9"
    fixed_alpha: Fraction = Fraction(2)
    gamma: float = 0.001
    check_invariants: bool = False
    max_iterations: int = 1_000_000
    ambient_rank: int | None = None
    ambient_max_degree: int | None = None
    _validated: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", parse_epsilon(self.epsilon))
        if self.schedule not in ("spec", "compact"):
            raise InvalidInstanceError(
                f"schedule must be 'spec' or 'compact', got {self.schedule!r}"
            )
        if self.increment_mode not in ("multi", "single"):
            raise InvalidInstanceError(
                "increment_mode must be 'multi' or 'single', "
                f"got {self.increment_mode!r}"
            )
        if self.alpha_policy not in ("theorem9", "fixed", "local"):
            raise InvalidInstanceError(
                "alpha_policy must be 'theorem9', 'fixed' or 'local', "
                f"got {self.alpha_policy!r}"
            )
        fixed = Fraction(self.fixed_alpha)
        if fixed < 2:
            raise InvalidInstanceError(
                f"alpha must be >= 2 (Section 3.1), got {fixed}"
            )
        object.__setattr__(self, "fixed_alpha", fixed)
        if self.gamma <= 0:
            raise InvalidInstanceError(f"gamma must be positive, got {self.gamma}")
        if self.max_iterations < 1:
            raise InvalidInstanceError("max_iterations must be >= 1")
        for name in ("ambient_rank", "ambient_max_degree"):
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise InvalidInstanceError(
                    f"{name} must be a non-negative int or None, got {value!r}"
                )
        object.__setattr__(self, "_validated", True)

    def with_epsilon(self, epsilon: Fraction) -> "AlgorithmConfig":
        """A copy of this config with a different epsilon."""
        return replace(self, epsilon=parse_epsilon(epsilon))

    def effective_rank(self, rank: int) -> int:
        """The rank parameter formulas use: local, or the pinned ambient."""
        if self.ambient_rank is None:
            return rank
        return max(rank, self.ambient_rank)

    def effective_max_degree(self, max_degree: int) -> int:
        """The global ``Δ`` formulas use: local, or the pinned ambient."""
        if self.ambient_max_degree is None:
            return max_degree
        return max(max_degree, self.ambient_max_degree)

    def pinned(self, rank: int, max_degree: int) -> "AlgorithmConfig":
        """A copy with the ambient global parameters pinned.

        Solving a connected component under the pinned config is
        bit-identical to that component's slice of a monolithic solve
        of the full instance (see :mod:`repro.core.incremental`).
        """
        return replace(self, ambient_rank=rank, ambient_max_degree=max_degree)

    def beta(self, rank: int) -> Fraction:
        """``beta = eps/(f + eps)`` for an instance of rank ``rank``."""
        return beta_from(self.effective_rank(rank), self.epsilon)

    def z(self, rank: int) -> int:
        """Level cap ``z`` for an instance of rank ``rank``."""
        return level_cap(self.effective_rank(rank), self.epsilon)

    @property
    def rounds_per_iteration(self) -> int:
        """Communication rounds one iteration occupies on the network."""
        return 4 if self.schedule == "spec" else 2


def resolve_alpha(
    config: AlgorithmConfig,
    rank: int,
    max_degree: int,
    local_max_degree: int | None = None,
) -> Fraction:
    """The alpha an edge uses under ``config``.

    ``local_max_degree`` is ``Δ(e)`` and is consulted only by the
    ``"local"`` policy.  Ambient pinning raises ``rank`` and the global
    ``max_degree`` to the pinned values, but ``Δ(e)`` stays local: a
    connected component contains every edge incident to its vertices,
    so component-local per-edge degrees already equal the global ones.
    """
    if config.alpha_policy == "fixed":
        return config.fixed_alpha
    if config.alpha_policy == "local":
        if local_max_degree is None:
            raise InvalidInstanceError(
                "alpha_policy='local' requires the edge's local max degree"
            )
        return theorem9_alpha(
            local_max_degree,
            config.effective_rank(rank),
            config.epsilon,
            config.gamma,
        )
    return theorem9_alpha(
        config.effective_max_degree(max_degree),
        config.effective_rank(rank),
        config.epsilon,
        config.gamma,
    )


def distinct_alphas(alpha) -> list[Fraction]:
    """The distinct values of an instance's ``alpha``: one Fraction
    under ``"theorem9"`` and ``"fixed"``, else one per edge (scanned as
    ``(numerator, denominator)`` pairs, which hash faster)."""
    if isinstance(alpha, Fraction):
        return [alpha]
    pairs = {(value.numerator, value.denominator) for value in alpha}
    return [Fraction(num, den) for num, den in pairs]
