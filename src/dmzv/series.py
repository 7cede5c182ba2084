"""Univariate truncated series over the rationals, with finitely many
terms of negative degree allowed (Laurent series).

Every series carries an explicit ``order``: the largest degree through
which its coefficients are exact.  Binary operations compute the order of
the result from the orders and valuations of the operands, so precision
is never lost silently; asking for a coefficient beyond the order raises.

A series holds the one stored form of :mod:`rationals`: each degree maps
to a non-zero integer numerator over one reduced denominator.  Every
operation works on those integers, and a quotient is built from the
integer divided-power quotient of :mod:`dmzv.tables`;
:attr:`UniSeries.coeffs` and :meth:`UniSeries.coefficient` build
``Fraction``s only when they are read.

Objects are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import index
from typing import Mapping

from .rationals import RationalLike, Terms, _sum, numerators

__all__ = ["UniSeries", "exp_over_one_minus_exp"]


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


def quotient_series(alpha, beta, valuation: int, order: int) -> UniSeries:
    """a / b exact through ``order``, where n! [u^n] of a and b are alpha(n)
    and beta(n) from degree ``valuation`` on, both 0 below it: the
    divided-power quotient q_n of :func:`dmzv.tables.divided_quotient`
    over D, as the numerators q_n D order!/n! over D order!."""
    from .tables import divided_quotient  # here, so that ``convert`` does not load it

    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    nums, den = divided_quotient(alpha, beta, valuation, order)
    scaled, scale = {}, 1  # scale: order!/n!
    for n in range(order, -1, -1):
        if nums[n]:
            scaled[n] = nums[n] * scale
        scale *= n or 1
    return object.__new__(UniSeries)._set(scaled, den * scale, order)


@lru_cache(maxsize=64)
def exp_over_one_minus_exp(order: int) -> UniSeries:
    """Laurent expansion of exp(z) / (1 - exp(z)), valuation -1.

    Leading terms: -1/z - 1/2 - z/12 + z^3/720 - ...  It is
    -z exp(z) / (exp(z) - 1), n! [z^n] -n over 1 from degree 1, divided
    and shifted down one degree.  Cached, because every word's character
    starts from this kernel; the series returned is immutable, so sharing
    it is safe.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    return quotient_series(lambda n: -n, lambda n: 1, 1, order + 1).shift(-1)
