"""Exact arithmetic for the linear-real-arithmetic theory solver.

The general simplex algorithm of Dutertre and de Moura ("A Fast
Linear-Arithmetic Solver for DPLL(T)", CAV 2006) handles strict
inequalities by working in the ordered field Q[delta] of *delta-rationals*:
values of the form ``c + k * delta`` where ``delta`` is an infinitesimal
positive symbol.  A strict bound ``x < b`` becomes the non-strict bound
``x <= b - delta`` which the simplex machinery treats uniformly.

:class:`DeltaRational` implements that field with ``fractions.Fraction``
components.  Ordering is lexicographic on ``(c, k)`` which matches the
semantics of an infinitesimal ``delta``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction, "DeltaRational"]


def to_fraction(value: Union[int, float, str, Fraction]) -> Fraction:
    """Convert *value* to an exact :class:`Fraction`.

    Floats are converted via ``Fraction(str(value))`` through their decimal
    repr so that e.g. ``0.1`` becomes ``1/10`` rather than the binary
    expansion ``3602879701896397/36028797018963968`` — case files carry
    decimal data and users expect decimal semantics.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError(f"cannot represent {value!r} exactly")
        return Fraction(str(value))
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot convert {type(value).__name__} to Fraction")


class DeltaRational:
    """An element ``c + k*delta`` of the ordered field Q[delta].

    ``delta`` is a positive infinitesimal: smaller than every positive
    rational yet greater than zero.  Only linear combinations appear in the
    simplex algorithm, so multiplication is supported only by a plain
    rational scalar.
    """

    __slots__ = ("c", "k")

    def __init__(self, c: Union[int, float, str, Fraction] = 0,
                 k: Union[int, float, str, Fraction] = 0) -> None:
        self.c = to_fraction(c)
        self.k = to_fraction(k)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def of(cls, value: RationalLike) -> "DeltaRational":
        """Coerce an int/Fraction/DeltaRational into a DeltaRational."""
        if isinstance(value, DeltaRational):
            return value
        return cls(value)

    @classmethod
    def strict_upper(cls, bound: Union[int, float, str, Fraction]) -> "DeltaRational":
        """The delta-rational expressing ``< bound`` as ``<= bound - delta``."""
        return cls(bound, -1)

    @classmethod
    def strict_lower(cls, bound: Union[int, float, str, Fraction]) -> "DeltaRational":
        """The delta-rational expressing ``> bound`` as ``>= bound + delta``."""
        return cls(bound, 1)

    # -- field operations ----------------------------------------------------

    def __add__(self, other: RationalLike) -> "DeltaRational":
        other = DeltaRational.of(other)
        return DeltaRational(self.c + other.c, self.k + other.k)

    __radd__ = __add__

    def __sub__(self, other: RationalLike) -> "DeltaRational":
        other = DeltaRational.of(other)
        return DeltaRational(self.c - other.c, self.k - other.k)

    def __rsub__(self, other: RationalLike) -> "DeltaRational":
        return DeltaRational.of(other) - self

    def __neg__(self) -> "DeltaRational":
        return DeltaRational(-self.c, -self.k)

    def __mul__(self, scalar: Union[int, Fraction]) -> "DeltaRational":
        if isinstance(scalar, DeltaRational):
            raise TypeError("delta-rationals form a Q-vector space; "
                            "multiply by a plain rational scalar only")
        scalar = to_fraction(scalar)
        return DeltaRational(self.c * scalar, self.k * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Union[int, Fraction]) -> "DeltaRational":
        scalar = to_fraction(scalar)
        if scalar == 0:
            raise ZeroDivisionError("division of delta-rational by zero")
        return DeltaRational(self.c / scalar, self.k / scalar)

    # -- ordering ------------------------------------------------------------

    def _key(self) -> tuple:
        return (self.c, self.k)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = DeltaRational(other)
        if not isinstance(other, DeltaRational):
            return NotImplemented
        return self._key() == other._key()

    def __lt__(self, other: RationalLike) -> bool:
        other = DeltaRational.of(other)
        return self._key() < other._key()

    def __le__(self, other: RationalLike) -> bool:
        other = DeltaRational.of(other)
        return self._key() <= other._key()

    def __gt__(self, other: RationalLike) -> bool:
        return DeltaRational.of(other) < self

    def __ge__(self, other: RationalLike) -> bool:
        return DeltaRational.of(other) <= self

    def __hash__(self) -> int:
        if self.k == 0:
            return hash(self.c)
        return hash(self._key())

    # -- conversion ----------------------------------------------------------

    def substitute(self, delta: Fraction) -> Fraction:
        """Evaluate at a concrete positive rational value of ``delta``."""
        return self.c + self.k * delta

    def __float__(self) -> float:
        # delta is infinitesimal; for display purposes it vanishes.
        return float(self.c)

    def __repr__(self) -> str:
        if self.k == 0:
            return f"DeltaRational({self.c})"
        sign = "+" if self.k > 0 else "-"
        return f"DeltaRational({self.c} {sign} {abs(self.k)}d)"


ZERO = DeltaRational(0)
ONE = DeltaRational(1)


def resolve_delta(values, lower_bounds, upper_bounds) -> Fraction:
    """Choose a concrete positive rational for ``delta``.

    Given variable assignments (delta-rationals) together with the lower and
    upper bounds they must respect, pick ``delta`` small enough that
    substituting it preserves every ordering relation.  For each pair
    ``a <= b`` of delta-rationals with ``a.c < b.c`` and ``a.k > b.k``, any
    ``delta < (b.c - a.c) / (a.k - b.k)`` works; we take half the minimum
    over all such pairs (and 1 when unconstrained).
    """
    limit = None

    def consider(lo: DeltaRational, hi: DeltaRational) -> None:
        nonlocal limit
        if lo.k > hi.k and lo.c < hi.c:
            candidate = (hi.c - lo.c) / (lo.k - hi.k)
            if limit is None or candidate < limit:
                limit = candidate

    pairs = []
    for i, value in enumerate(values):
        lo = lower_bounds[i]
        hi = upper_bounds[i]
        if lo is not None:
            pairs.append((lo, value))
        if hi is not None:
            pairs.append((value, hi))
    for lo, hi in pairs:
        consider(lo, hi)

    if limit is None:
        return Fraction(1)
    return limit / 2
