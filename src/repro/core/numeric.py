"""Exact-arithmetic helpers for the MWHVC algorithm.

Every quantity the algorithm manipulates (bids, dual variables, the
tightness threshold ``(1-beta) w(v)``) is kept as a
:class:`fractions.Fraction`.  Bids start as ``w(v*)/(2 |E(v*)|)`` and
evolve only by multiplication with powers of two and with ``alpha``
(itself snapped to a small rational), so values stay exact and compact
and every invariant in Section 4 is checked with zero rounding error.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

from repro.exceptions import AlgorithmError, InvalidInstanceError

__all__ = [
    "parse_epsilon",
    "parse_rational",
    "ceil_log2_fraction",
    "half_power",
    "exact_scaled_int",
]


def exact_scaled_int(value: Rational | int, scale: int) -> int:
    """``value * scale`` as an exact integer.

    The scaled-integer executors store every rational quantity as an
    integer numerator over one global ``scale`` chosen (as an lcm of
    all relevant denominators) so that these products are integral;
    this helper performs the conversion and *verifies* integrality, so
    a mis-chosen scale fails loudly instead of truncating.  Plain int
    values pass through with no overhead beyond the multiply.
    """
    scaled = value * scale
    if isinstance(scaled, int):
        return scaled
    numerator = int(scaled)
    if numerator != scaled:
        raise AlgorithmError(
            f"scale {scale} cannot represent {value!r} exactly"
        )
    return numerator


def parse_rational(value: Rational | int | float | str, what: str) -> Fraction:
    """Convert user input to an exact :class:`Fraction`.

    Accepts ints, Fractions, strings like ``"1/3"`` or ``"0.25"``, and
    floats (converted exactly via their binary expansion).
    """
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as error:
        raise InvalidInstanceError(f"{what} {value!r} is not a rational number") from error


def parse_epsilon(epsilon: Rational | int | float | str) -> Fraction:
    """Validate the approximation parameter ``eps in (0, 1]``."""
    value = parse_rational(epsilon, "epsilon")
    if not 0 < value <= 1:
        raise InvalidInstanceError(
            f"epsilon must satisfy 0 < epsilon <= 1, got {value}"
        )
    return value


def ceil_log2_fraction(value: Fraction) -> int:
    """``ceil(log2(value))`` computed exactly for a positive rational.

    Integer arithmetic only: ``ceil(log2(n/d))`` is the smallest ``k``
    with ``n <= d * 2^k``.
    """
    if value <= 0:
        raise InvalidInstanceError(f"log2 of non-positive value {value}")
    numerator, denominator = value.numerator, value.denominator
    if numerator > denominator:
        k = 0
        while numerator > denominator << k:
            k += 1
        return k
    # value <= 1: answer is -j for the largest j with n * 2^j <= d.
    j = 0
    while numerator << (j + 1) <= denominator:
        j += 1
    return -j


def half_power(exponent: int) -> Fraction:
    """``(1/2) ** exponent`` as an exact fraction (exponent >= 0)."""
    return Fraction(1, 1 << exponent)
