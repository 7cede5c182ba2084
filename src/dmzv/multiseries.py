"""Power series in several variables, truncated per variable.

A ``MultiSeries`` with ``nvars`` variables and per-variable cap ``cap``
stores exact coefficients for every exponent vector in {0..cap}^nvars.
Because exponents are non-negative, truncated multiplication is exact on
that whole box, so there is no order bookkeeping beyond the shape check.

A series holds its terms in the stored form of :class:`rationals.Terms`,
integer numerators over one common denominator, each keyed by its exponent
vector packed into one int.  The fields are as wide as 2 * cap requires,
so adding two codes adds their exponent vectors without carries, and the
product drops the terms past the cap by a test of each field's top bit.
:meth:`MultiSeries.coefficient`, :attr:`MultiSeries.coeffs` and
``sorted_terms`` unpack when they are read.

The two substitution helpers are the bridge from univariate factors to
multivariate generating functions; both guard their truncation
preconditions and refuse to produce inexact coefficients.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iter_product
from numbers import Rational
from operator import attrgetter, index
from struct import Struct
from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple, Sequence

from .rationals import Terms, _sum, accumulate, multinomial, numerators
from .series import UniSeries

if TYPE_CHECKING:
    from fractions import Fraction

    from .rationals import RationalLike

__all__ = ["MultiSeries", "substitute_linear_form", "substitute_linear_forms"]

# An exponent vector is packed into one int, ``width`` bits per variable
# with the first variable in the highest field, each exponent stored plus
# 2**(width - 1).  Then the integer order of codes is the lexicographic
# order of the vectors; the sum of two codes minus the code of the zero
# vector is the code of the vectors' sum whenever every entry of that sum
# fits a field; and a code XOR the zero vector's code holds each exponent
# as a two's complement field, which ``struct`` reads and writes.  The
# zero vector's code is also the top bit of every field.
_FORMATS = {8: "b", 16: "h", 32: "i", 64: "q"}


class _Layout(NamedTuple):
    width: int  # bits per field
    zero: int  # the code of the zero vector
    size: int  # bytes per code
    fields: Struct


@lru_cache(maxsize=None)
def _layout(nvars: int, cap: int) -> _Layout:
    """The layout of ``nvars`` fields, each the narrowest that holds 2 * cap,
    the largest exponent of a product before the cap drops it."""
    width = next((width for width in _FORMATS if 2 * cap < 1 << (width - 1)), None)
    if width is None:
        raise ValueError(f"cap {cap} is too large to pack")
    fields = Struct(f">{nvars}{_FORMATS[width]}")
    zero = int.from_bytes(bytes([0x80] + [0] * (width // 8 - 1)) * nvars, "big")
    return _Layout(width, zero, fields.size, fields)


def _pack(layout: _Layout, exps: Sequence[int]) -> int:
    return int.from_bytes(layout.fields.pack(*exps), "big") ^ layout.zero


class MultiSeries(Terms):
    """Sparse r-variable power series over the rationals, capped per variable."""

    # the keys of ``_nums`` are exponent vectors packed at _layout(nvars, cap)
    __slots__ = _SHAPE = ("_nvars", "_cap")
    nvars = property(attrgetter("_nvars"))
    cap = property(attrgetter("_cap"))

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
        layout = _layout(nvars, cap)
        self._set({_pack(layout, e): n for e, n in nums.items()}, den, nvars, cap)

    @classmethod
    def constant(cls, value: RationalLike, nvars: int, cap: int) -> "MultiSeries":
        zero = (0,) * nvars
        return cls({zero: value}, nvars, cap)

    @classmethod
    def zero(cls, nvars: int, cap: int) -> "MultiSeries":
        return cls({}, nvars, cap)

    def _unpacked(self, ordered: bool = False) -> Iterator[tuple[tuple[int, ...], int]]:
        """(exponent tuple, integer numerator over ``_den``) for each term,
        unpacked one at a time; in lexicographic exponent order when
        ``ordered``."""
        layout = _layout(self._nvars, self._cap)
        unpack, zero, size = layout.fields.unpack, layout.zero, layout.size
        codes = self._nums
        if ordered:
            return ((unpack((c ^ zero).to_bytes(size, "big")), codes[c]) for c in sorted(codes))
        return ((unpack((c ^ zero).to_bytes(size, "big")), n) for c, n in codes.items())

    @property
    def coeffs(self) -> dict[tuple[int, ...], Fraction]:
        """The terms as exponent tuple -> non-zero ``Fraction``."""
        from fractions import Fraction

        den = self._den
        return {exps: Fraction(n, den) for exps, n in self._unpacked()}

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in lexicographic exponent order."""
        from fractions import Fraction

        den = self._den
        return [(exps, Fraction(n, den)) for exps, n in self._unpacked(ordered=True)]

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        exps = tuple(map(index, exps))
        nvars, cap = self._nvars, self._cap
        if len(exps) != nvars or any(e < 0 or e > cap for e in exps):
            raise ValueError(f"exponent vector {exps} outside the box [0, {cap}]^{nvars}")
        return self._coefficient(_pack(_layout(nvars, cap), exps))

    def _same_shape(self, other: "MultiSeries") -> None:
        if (self._nvars, self._cap) != (other._nvars, other._cap):
            raise ValueError(f"shape mismatch: ({self._nvars} vars, cap {self._cap}) "
                             f"vs ({other._nvars} vars, cap {other._cap})")

    def __add__(self, other):
        if not isinstance(other, MultiSeries):
            return NotImplemented
        self._same_shape(other)
        return self._like(*_sum(self._nums, self._den, other._nums, other._den))

    def __mul__(self, other):
        if not isinstance(other, MultiSeries):
            # an int or a Fraction, which registers as a Rational
            return self.scale(other) if isinstance(other, Rational) else NotImplemented
        self._same_shape(other)
        # the left codes less the zero vector's code, so adding a right
        # code gives the code of the product term; ``limit`` is the vector
        # whose every field is cap + 1, less the zero vector's code
        layout = _layout(self._nvars, self._cap)
        zero = layout.zero
        limit = _pack(layout, (self._cap + 1,) * self._nvars) - zero
        right = list(other._nums.items())
        # A pair is kept when no field of c1 - limit + c2 has its top bit
        # set.  Whether it does depends only on the left exponents of the
        # variables the right operand uses, so the fitting right terms are
        # found once per such projection.
        used = projection = 0
        for c2, _ in right:
            used |= c2 ^ zero
        field = (1 << layout.width) - 1
        for shift in range(0, 8 * layout.size, layout.width):
            if used >> shift & field:
                projection |= field << shift
        fitting: dict[int, list[tuple[int, int]]] = {}
        acc: dict[int, int] = {}
        get = acc.get
        for c1, n1 in self._nums.items():
            c1 -= zero
            key = c1 & projection
            terms = fitting.get(key)
            if terms is None:
                terms = fitting[key] = [t for t in right if not (c1 - limit + t[0]) & zero]
            for c2, n2 in terms:
                e = c1 + c2
                acc[e] = get(e, 0) + n1 * n2
        for e in [e for e, n in acc.items() if not n]:
            del acc[e]
        return self._like(acc, self._den * other._den)

    __rmul__ = __mul__

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
    layout = _layout(nvars, cap)
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
    return object.__new__(MultiSeries)._set(codes, series._den, nvars, cap)


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
