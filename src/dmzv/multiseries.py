"""Power series in several variables, truncated per variable.

A ``MultiSeries`` with ``nvars`` variables and per-variable cap ``cap``
stores exact coefficients for every exponent vector in {0..cap}^nvars.
Because exponents are non-negative, truncated multiplication is exact on
that whole box, so there is no order bookkeeping beyond the shape check.

A series is held in the packed form of :class:`rationals.Packed`, which
it shares with ``LaurentPolynomial``: each exponent vector is one int and
each coefficient an integer numerator over one common denominator.  The
fields are as wide as 2 * cap requires, so adding two codes adds their
exponent vectors without carries, and the product drops the terms past
the cap by a test of each field's top bit.  :meth:`MultiSeries.coefficient`,
:attr:`MultiSeries.coeffs` and ``sorted_terms`` unpack when they are read.

The two substitution helpers are the bridge from univariate factors to
multivariate generating functions; both guard their truncation
preconditions and refuse to produce inexact coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product
from operator import attrgetter, index
from typing import Mapping, Sequence

from .rationals import Packed, RationalLike, _layout, _pack, accumulate, multinomial, numerators
from .series import UniSeries

__all__ = ["MultiSeries", "substitute_linear_form", "substitute_linear_forms"]

class MultiSeries(Packed):
    """Sparse r-variable power series over the rationals, capped per variable."""

    # the ring is (nvars, cap), and the fields are as wide as 2 * cap
    # requires, the largest exponent of a product before the cap drops it
    __slots__ = ()
    _MISMATCH = "shape mismatch: ({0[0]} vars, cap {0[1]}) vs ({1[0]} vars, cap {1[1]})"
    nvars = property(attrgetter("_nvars"))
    cap = property(lambda self: self._ring[1])

    def __init__(self, coeffs: Mapping[tuple[int, ...], RationalLike], nvars: int, cap: int):
        nvars, cap = index(nvars), index(cap)
        if nvars < 1:
            raise ValueError(f"nvars must be >= 1, got {nvars}")
        if cap < 0:
            raise ValueError(f"cap must be >= 0, got {cap}")

        def exponents(exps) -> tuple[int, ...]:
            exps = tuple(map(index, exps))
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} does not have length {nvars}")
            if any(e < 0 or e > cap for e in exps):
                raise ValueError(f"exponent vector {exps} outside the box [0, {cap}]^{nvars}")
            return exps

        nums, den = numerators(coeffs, exponents)
        self._fill((nvars, cap), nvars, 2 * cap, nums.items(), den)

    @classmethod
    def constant(cls, value: RationalLike, nvars: int, cap: int) -> "MultiSeries":
        zero = (0,) * nvars
        return cls({zero: value}, nvars, cap)

    @classmethod
    def zero(cls, nvars: int, cap: int) -> "MultiSeries":
        return cls({}, nvars, cap)

    coeffs = property(Packed._terms, doc="The terms as exponent tuple -> non-zero ``Fraction``.")

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        exps = tuple(map(index, exps))
        nvars, cap = self._ring
        if len(exps) != nvars or any(e < 0 or e > cap for e in exps):
            raise ValueError(f"exponent vector {exps} outside the box [0, {cap}]^{nvars}")
        return self._coefficient(_pack(_layout(nvars, self._bound), exps))

    def _product_bound(self, other: "MultiSeries") -> int:
        return self._bound

    def _cap_limit(self, layout) -> int:
        return _pack(layout, (self.cap + 1,) * self._nvars) - layout.zero

    __mul__ = __rmul__ = Packed.__mul__

    def negate_variables(self) -> "MultiSeries":
        """Substitute t_i -> -t_i for every variable: flip odd total degrees."""
        # the terms unpack in the order of their codes
        codes = {c: -n if sum(e) % 2 else n for c, (e, n) in zip(self._nums, self._unpacked())}
        return self._like(codes, self._den)

    def __repr__(self) -> str:
        head = ", ".join(f"{e}: {c}" for e, c in self.sorted_terms()[:6])
        tail = ", ..." if len(self._nums) > 6 else ""
        return f"MultiSeries({{{head}{tail}}}, nvars={self.nvars}, cap={self.cap})"


def substitute_linear_form(series: UniSeries, weights: Sequence[int], cap: int) -> MultiSeries:
    """Evaluate a univariate series at sum_j weights_j * t_j, capped per variable.

    Exact for every exponent vector in the box, which requires the input to
    be exact through degree len(weights) * cap and to have no pole.
    """
    weights = tuple(map(index, weights))
    nvars = len(weights)
    if nvars < 1:
        raise ValueError("weights must be non-empty")
    if min(series._nums, default=0) < 0:
        raise ValueError(
            f"cannot substitute a series with a pole (valuation {series.valuation()})"
        )
    needed = nvars * cap
    if series.order < needed:
        raise ValueError(
            f"insufficient univariate order: have {series.order}, need {needed} "
            f"for {nvars} variables with cap {cap}"
        )
    # the series' numerators, each written at its packed code
    nums = series._nums
    layout = _layout(nvars, 2 * cap)
    codes: dict[int, int] = {}
    for exps in iter_product(range(cap + 1), repeat=nvars):
        n = nums.get(sum(exps))
        if not n:
            continue
        w = 1
        for wi, ei in zip(weights, exps):
            if ei:
                if wi == 0:
                    w = 0
                    break
                w *= wi**ei
        if not w:
            continue
        codes[_pack(layout, exps)] = n * multinomial(exps) * w
    return object.__new__(MultiSeries)._set(codes, series._den, (nvars, cap), nvars, 2 * cap)


def substitute_linear_forms(
    series: MultiSeries, rows: Sequence[Sequence[int]], cap: int
) -> MultiSeries:
    """Substitute variable i -> sum_j rows[i][j] * u_j into a multivariate series.

    The substitution is homogeneous in total degree, so the result is exact
    on the whole output box provided the input box covers total degree
    (output nvars) * cap.
    """
    if len(rows) != series.nvars:
        raise ValueError(f"need one weight row per variable ({series.nvars}), got {len(rows)}")
    rows = [tuple(map(index, row)) for row in rows]
    nvars = len(rows[0])
    if any(len(row) != nvars for row in rows):
        raise ValueError("all weight rows must have the same length")
    if series.cap < nvars * cap:
        raise ValueError(
            f"insufficient multivariate order: input cap {series.cap}, "
            f"need {nvars * cap} for output cap {cap}"
        )
    base: list[MultiSeries] = []
    for row in rows:
        terms: dict[tuple[int, ...], int] = {}
        if cap >= 1:
            for j, w in enumerate(row):
                if w:
                    e = tuple(1 if jj == j else 0 for jj in range(nvars))
                    terms[e] = w
        base.append(MultiSeries(terms, nvars, cap))
    powers: list[dict[int, MultiSeries]] = [
        {0: MultiSeries.constant(1, nvars, cap)} for _ in rows
    ]

    def power(i: int, n: int) -> MultiSeries:
        cache = powers[i]
        while n not in cache:
            top = max(cache)
            cache[top + 1] = cache[top] * base[i]
        return cache[n]

    # every power of an integer linear form has integer coefficients, so
    # each term's numerators are over the input's denominator.  An input
    # term of total degree above nvars * cap expands to terms of that total
    # degree, none of which lies in the output box.
    one = MultiSeries.constant(1, nvars, cap)
    top = nvars * cap
    acc: dict[int, int] = {}
    for exps, n in series._unpacked():
        if sum(exps) > top:
            continue
        term = one
        for i, a in enumerate(exps):
            if a:
                term = term * power(i, a)
                if term.is_zero():
                    break
        accumulate(acc, ((code, n * m) for code, m in term._nums.items()))
    return one._like(acc, series._den)
