"""Univariate truncated series over the rationals, with finitely many
terms of negative degree allowed (Laurent series).

Every series carries an explicit ``order``: the largest degree through
which its coefficients are exact.  Binary operations compute the order of
the result from the orders and valuations of the operands, so precision
is never lost silently; asking for a coefficient beyond the order raises.

A series holds the one stored form of :mod:`rationals`: each degree maps
to a non-zero integer numerator over one reduced denominator.  Every
operation, the guarded division and the exponential series included,
works on those integers; :attr:`UniSeries.coeffs` and
:meth:`UniSeries.coefficient` build ``Fraction``s only when they are read.

Objects are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd
from operator import index
from typing import Mapping

from .rationals import RationalLike, Terms, _sum, numerators

__all__ = [
    "UniSeries",
    "divide_with_valuation",
    "laurent_divide",
    "exp_minus_one",
    "exp_series",
    "exp_over_one_minus_exp",
]

class UniSeries(Terms):
    """Series in one variable, exact through degree ``order``; degrees of
    either sign are allowed, so a finite pole is representable.  The keys
    of ``_nums`` are degrees."""

    __slots__ = _SHAPE = ("order",)

    def __init__(self, coeffs: Mapping[int, RationalLike], order: int):
        order = index(order)

        def degree(deg) -> int:
            deg = index(deg)
            if deg > order:
                raise ValueError(f"degree {deg} exceeds the truncation order {order}")
            return deg

        self._set(*numerators(coeffs, degree), order)

    @classmethod
    def zero(cls, order: int) -> "UniSeries":
        return cls({}, order)

    @classmethod
    def one(cls, order: int) -> "UniSeries":
        return cls({0: 1}, order)

    @classmethod
    def monomial(cls, degree: int, order: int, coeff: RationalLike = 1) -> "UniSeries":
        return cls({degree: coeff}, order)

    coeffs = property(Terms._terms, doc="The terms as degree -> non-zero ``Fraction``.")

    def valuation(self) -> int:
        """Lowest stored degree; order + 1 for the zero series."""
        return min(self._nums) if self._nums else self.order + 1

    def coefficient(self, degree: int) -> Fraction:
        if degree > self.order:
            raise ValueError(
                f"coefficient of degree {degree} requested beyond truncation order {self.order}"
            )
        return self._coefficient(index(degree))

    def truncate(self, order: int) -> "UniSeries":
        if order > self.order:
            raise ValueError(f"cannot extend truncation order {self.order} to {order}")
        return self._like({d: n for d, n in self._nums.items() if d <= order}, self._den, order)

    def __add__(self, other: "UniSeries") -> "UniSeries":
        if not isinstance(other, UniSeries):
            return NotImplemented
        order = min(self.order, other.order)
        a, b = self.truncate(order), other.truncate(order)
        return self._like(*_sum(a._nums, a._den, b._nums, b._den), order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, UniSeries):
            return NotImplemented
        order = min(self.order + other.valuation(), other.order + self.valuation())
        # the right terms in increasing degree, so a left term stops at the
        # first right term past the order
        right = sorted(other._nums.items())
        acc: dict[int, int] = {}
        get = acc.get
        for d1, n1 in self._nums.items():
            limit = order - d1
            for d2, n2 in right:
                if d2 > limit:
                    break
                d = d1 + d2
                acc[d] = get(d, 0) + n1 * n2
        return self._like({d: n for d, n in acc.items() if n}, self._den * other._den, order)

    __rmul__ = __mul__

    def shift(self, k: int) -> "UniSeries":
        """Multiply by u^k (k of either sign); exact through order + k."""
        return self._like({d + k: n for d, n in self._nums.items()}, self._den, self.order + k)

    def negate_variable(self) -> "UniSeries":
        """Substitute u -> -u."""
        return self._like({d: -n if d % 2 else n for d, n in self._nums.items()}, self._den)

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
    # q = (den._den / num._den) p, where p divides the two numerator series:
    # p_n = (a_n - sum_{j>0} b_j p_{n-j}) / b_0.  The p_n are held as integers
    # over the least common denominator of those found so far.
    a = {d - vd: n for d, n in num._nums.items() if d - vd <= order}
    b = [(d - vd, n) for d, n in sorted(den._nums.items()) if d - vd <= order]
    lead = b.pop(0)[1]
    p: dict[int, int] = {}
    p_den = 1
    for n in range(order + 1):
        acc = a.get(n, 0) * p_den
        for j, bj in b:
            if j > n:
                break
            pj = p.get(n - j)
            if pj:
                acc -= pj * bj
        if acc:
            # p_n = acc / (p_den * lead), over lcm(p_den, its reduced denominator)
            d = abs(p_den * lead) // gcd(acc, p_den * lead)
            step = d // gcd(p_den, d)
            if step != 1:
                p = {i: pi * step for i, pi in p.items()}
                p_den *= step
            p[n] = acc * step // lead
    return num._like({i: pi * den._den for i, pi in p.items()}, p_den * num._den, order)


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
    return exp_series(order) - UniSeries.one(order)


def exp_series(order: int) -> UniSeries:
    """exp(u) truncated at the given order, over the denominator order!."""
    top = factorial(max(order, 0))
    nums = {m: top // factorial(m) for m in range(order + 1)}
    return object.__new__(UniSeries)._set(nums, top, order)


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
