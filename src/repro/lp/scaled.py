"""Scaled-integer dual packings: one scale, one integer numerator per edge.

The scaled-integer executors finish a solve holding the Claim 20 packing
as ``delta(e) = D_e / S``, the form its certificate needs.
:class:`ScaledDual` keeps it that way as the result's ``dual``, so the
certificate, the worker wire and the JSON encoder read ``S`` and ``D``
directly; a :class:`~fractions.Fraction` is built only when read.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping, ValuesView
from fractions import Fraction
from math import gcd
from operator import attrgetter

try:
    import numpy as _np
except ImportError:  # pragma: no cover - depends on the environment
    _np = None

__all__ = ["ScaledDual"]


def _probe_fraction_slots() -> bool:
    """Whether Fractions built by filling CPython's private
    ``_numerator`` / ``_denominator`` slots behave exactly like the
    constructor's (:func:`raw_fraction_list` builds them that way); if
    not, it falls back to the constructor: slower, never wrong."""
    try:
        value = object.__new__(Fraction)
        value._numerator = 3
        value._denominator = 2
        reference = Fraction(3, 2)
        return (
            value == reference
            and value.numerator == 3
            and value.denominator == 2
            and value + Fraction(1, 2) == Fraction(2)
            and hash(value) == hash(reference)
        )
    except Exception:  # pragma: no cover - depends on the interpreter
        return False


#: Whether this interpreter supports the slot-layout fast path.
_HAS_FRACTION_SLOTS = _probe_fraction_slots()


def raw_fraction_list(numerators, denominators) -> list[Fraction]:
    """Fractions from parallel sequences of **already-canonical** pairs
    (lowest terms, positive denominator), the slots filled directly:
    :class:`ScaledDual`'s bulk ``items()`` and ``values()`` reduce once
    and then need one Fraction per edge, where the constructor's
    re-validation would dominate."""
    if not _HAS_FRACTION_SLOTS:
        return [
            Fraction(numerator, denominator)
            for numerator, denominator in zip(numerators, denominators)
        ]
    values = []
    append = values.append
    new = object.__new__
    for numerator, denominator in zip(numerators, denominators):
        value = new(Fraction)
        value._numerator = numerator
        value._denominator = denominator
        append(value)
    return values


class ScaledDual(Mapping):
    """A read-only dual packing ``e -> numerators[e] / scale``, ``e < m``.

    Values are Fractions built on read; ``dict(dual)`` is a mutable
    copy.  It equals any mapping with the same items, whatever the
    scale.  ``scale`` is a positive int and every numerator an int
    (negative ones allowed, so a corrupted packing reaches the check).
    """

    __slots__ = ("_scale", "_numerators")

    def __init__(self, scale: int, numerators) -> None:
        numerators = tuple(numerators)
        if type(scale) is not int:
            raise TypeError(f"scale must be an int, got {scale!r}")
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        if not set(map(type, numerators)) <= {int}:
            raise TypeError("every numerator must be an int")
        self._scale = scale
        self._numerators = numerators

    scale = property(attrgetter("_scale"), doc="The common denominator ``S``.")
    numerators = property(
        attrgetter("_numerators"), doc="``D_e`` per edge id ``e``, in id order."
    )

    def __getitem__(self, edge_id) -> Fraction:
        try:
            if edge_id >= 0:
                return Fraction(self._numerators[edge_id], self._scale)
        except (IndexError, TypeError, ValueError):
            pass
        raise KeyError(edge_id)

    def __iter__(self):
        return iter(range(len(self._numerators)))

    def __len__(self) -> int:
        return len(self._numerators)

    def items(self) -> _Items:
        return _Items(self)

    def values(self) -> _Values:
        return _Values(self)

    def reduced(self) -> tuple[list[int], list[int]]:
        """Every ``D_e / S`` in lowest terms, as ``(numerators,
        denominators)`` lists: one ``np.gcd`` pass when ``S`` and every
        ``D_e`` fit int64, ``math.gcd`` otherwise."""
        scale, numerators = self._scale, self._numerators
        if _np is not None and scale.bit_length() < 63:
            try:
                array = _np.array(numerators, dtype=_np.int64)
            except OverflowError:
                array = None
            # -2**63 has no int64 absolute value, which np.gcd needs.
            if array is not None and array.min(initial=0) > -(1 << 63):
                divisors = _np.gcd(array, scale)
                return (array // divisors).tolist(), (scale // divisors).tolist()
        divisors = [gcd(value, scale) for value in numerators]
        return (
            [value // divisor for value, divisor in zip(numerators, divisors)],
            [scale // divisor for divisor in divisors],
        )

    def _fractions(self) -> list[Fraction]:
        return raw_fraction_list(*self.reduced())

    def __eq__(self, other):
        if isinstance(other, ScaledDual) and other._scale == self._scale:
            return other._numerators == self._numerators
        return super().__eq__(other)

    def __repr__(self) -> str:
        return f"ScaledDual({self._scale!r}, {self._numerators!r})"


class _Items(ItemsView):
    __slots__ = ()

    def __iter__(self):
        return zip(self._mapping, self._mapping._fractions())

    def __reversed__(self):
        return reversed(list(self))


class _Values(ValuesView):
    __slots__ = ()

    def __iter__(self):
        return iter(self._mapping._fractions())
