"""Univariate truncated series over the rationals, with finitely many
terms of negative degree allowed (Laurent series).

Every series carries an explicit ``order``: the largest degree through
which its coefficients are exact.  Binary operations compute the order of
the result from the orders and valuations of the operands, so precision
is never lost silently; asking for a coefficient beyond the order raises.

Objects are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Mapping

from .rationals import RationalLike, accumulate, numerators

__all__ = [
    "UniSeries",
    "divide_with_valuation",
    "laurent_divide",
    "exp_minus_one",
    "exp_series",
    "exp_over_one_minus_exp",
]

_ZERO = Fraction(0)


class UniSeries:
    """Series in one variable, exact through degree ``order``; degrees of
    either sign are allowed, so a finite pole is representable."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Mapping[int, RationalLike], order: int):
        order = int(order)
        out: dict[int, Fraction] = {}
        for deg, value in coeffs.items():
            deg = int(deg)
            if deg > order:
                raise ValueError(f"degree {deg} exceeds the truncation order {order}")
            value = Fraction(value)
            if value:
                out[deg] = value
        object.__setattr__(self, "coeffs", out)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("UniSeries is immutable")

    @classmethod
    def _trusted(cls, coeffs: dict[int, Fraction], order: int) -> "UniSeries":
        """Wrap coefficients already known to be non-zero ``Fraction``s of
        degree <= order, skipping the constructor's checks."""
        out = object.__new__(cls)
        object.__setattr__(out, "coeffs", coeffs)
        object.__setattr__(out, "order", order)
        return out

    @classmethod
    def zero(cls, order: int) -> "UniSeries":
        return cls({}, order)

    @classmethod
    def one(cls, order: int) -> "UniSeries":
        return cls({0: 1}, order)

    @classmethod
    def monomial(cls, degree: int, order: int, coeff: RationalLike = 1) -> "UniSeries":
        return cls({degree: coeff}, order)

    def is_zero(self) -> bool:
        return not self.coeffs

    def valuation(self) -> int:
        """Lowest stored degree; order + 1 for the zero series."""
        return min(self.coeffs) if self.coeffs else self.order + 1

    def coefficient(self, degree: int) -> Fraction:
        if degree > self.order:
            raise ValueError(
                f"coefficient of degree {degree} requested beyond truncation order {self.order}"
            )
        return self.coeffs.get(degree, _ZERO)

    def truncate(self, order: int) -> "UniSeries":
        if order > self.order:
            raise ValueError(f"cannot extend truncation order {self.order} to {order}")
        return UniSeries({d: c for d, c in self.coeffs.items() if d <= order}, order)

    def __add__(self, other: "UniSeries") -> "UniSeries":
        if not isinstance(other, UniSeries):
            return NotImplemented
        order = min(self.order, other.order)
        out = {d: c for d, c in self.coeffs.items() if d <= order}
        accumulate(out, ((d, c) for d, c in other.coeffs.items() if d <= order))
        return UniSeries._trusted(out, order)

    def __neg__(self) -> "UniSeries":
        return UniSeries({d: -c for d, c in self.coeffs.items()}, self.order)

    def __sub__(self, other: "UniSeries") -> "UniSeries":
        return self + (-other)

    def scale(self, factor: RationalLike) -> "UniSeries":
        factor = Fraction(factor)
        if not factor:
            return UniSeries.zero(self.order)
        return UniSeries({d: c * factor for d, c in self.coeffs.items()}, self.order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, UniSeries):
            return NotImplemented
        order = min(self.order + other.valuation(), other.order + self.valuation())
        if not self.coeffs or not other.coeffs:
            return UniSeries._trusted({}, order)
        # integer numerators over each operand's common denominator; the
        # right terms in increasing degree, so a left term stops at the
        # first right term past the order
        left, left_den = numerators(self.coeffs)
        right, right_den = numerators(other.coeffs)
        right.sort()
        acc: dict[int, int] = {}
        get = acc.get
        for d1, n1 in left:
            limit = order - d1
            for d2, n2 in right:
                if d2 > limit:
                    break
                d = d1 + d2
                acc[d] = get(d, 0) + n1 * n2
        den = left_den * right_den
        return UniSeries._trusted({d: Fraction(n, den) for d, n in acc.items() if n}, order)

    __rmul__ = __mul__

    def shift(self, k: int) -> "UniSeries":
        """Multiply by u^k (k of either sign); exact through order + k."""
        return UniSeries({d + k: c for d, c in self.coeffs.items()}, self.order + k)

    def negate_variable(self) -> "UniSeries":
        """Substitute u -> -u."""
        return UniSeries({d: c if d % 2 == 0 else -c for d, c in self.coeffs.items()}, self.order)

    def derivative(self) -> "UniSeries":
        """Termwise d/du; loses one representable order at the top."""
        out = {d - 1: d * c for d, c in self.coeffs.items() if d != 0}
        return UniSeries(out, self.order - 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        terms = ", ".join(f"{d}: {c}" for d, c in sorted(self.coeffs.items()))
        return f"UniSeries({{{terms}}}, order={self.order})"


def divide_with_valuation(num: UniSeries, den: UniSeries) -> UniSeries:
    """Exact quotient num/den when valuation(num) >= valuation(den), so the
    quotient has no pole.

    The quotient q satisfies q * den = num through the common representable
    order, which is min(num.order, den.order) - valuation(den).
    """
    if den.is_zero():
        raise ValueError("division by the zero series")
    vn, vd = num.valuation(), den.valuation()
    if not num.is_zero() and vn < vd:
        raise ValueError(f"valuation mismatch: numerator valuation {vn} < denominator valuation {vd}")
    order = min(num.order, den.order) - vd
    if order < 0:
        raise ValueError("insufficient truncation order for the quotient")
    if num.is_zero():
        return UniSeries.zero(order)
    nc = {d - vd: c for d, c in num.coeffs.items() if d - vd <= order}
    dc = {d - vd: c for d, c in den.coeffs.items() if d - vd <= order}
    lead = dc[0]
    q: dict[int, Fraction] = {}
    for n in range(order + 1):
        acc = nc.get(n, _ZERO)
        for i, qi in q.items():
            dj = dc.get(n - i)
            if dj:
                acc -= qi * dj
        if acc:
            q[n] = acc / lead
    return UniSeries(q, order)


def laurent_divide(num: UniSeries, den: UniSeries) -> UniSeries:
    """Exact quotient of any valuations; the result may have a pole."""
    if den.is_zero():
        raise ValueError("division by the zero series")
    vd = den.valuation()
    if num.is_zero():
        return UniSeries.zero(num.order - vd)
    vn = num.valuation()
    return divide_with_valuation(num.shift(-vn), den.shift(-vd)).shift(vn - vd)


def exp_minus_one(order: int) -> UniSeries:
    """exp(u) - 1 truncated: sum_{m=1}^{order} u^m / m!."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return UniSeries({m: Fraction(1, factorial(m)) for m in range(1, order + 1)}, order)


def exp_series(order: int) -> UniSeries:
    """exp(u) truncated at the given order."""
    return UniSeries({m: Fraction(1, factorial(m)) for m in range(order + 1)}, order)


@lru_cache(maxsize=64)
def exp_over_one_minus_exp(order: int) -> UniSeries:
    """Laurent expansion of exp(z) / (1 - exp(z)), valuation -1.

    Leading terms: -1/z - 1/2 - z/12 + z^3/720 - ...  Cached, because
    every word's character starts from this kernel; the series returned
    is immutable, so sharing it is safe.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    work = order + 2
    return laurent_divide(exp_series(work), -exp_minus_one(work)).truncate(order)
