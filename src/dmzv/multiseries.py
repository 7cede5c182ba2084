"""Power series in several variables, truncated per variable.

A ``MultiSeries`` with ``nvars`` variables and per-variable cap ``cap``
stores exact coefficients for every exponent vector in {0..cap}^nvars.
Because exponents are non-negative, truncated multiplication is exact on
that whole box, so there is no order bookkeeping beyond the shape check.

The two substitution helpers are the bridge from univariate factors to
multivariate generating functions; both guard their truncation
preconditions and refuse to produce inexact coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product
from typing import Mapping, Sequence

from .rationals import RationalLike, accumulate, multinomial, numerators
from .series import UniSeries

__all__ = ["MultiSeries", "substitute_linear_form", "substitute_linear_forms"]

_ZERO = Fraction(0)


class MultiSeries:
    """Sparse r-variable power series over the rationals, capped per variable."""

    __slots__ = ("nvars", "cap", "coeffs")

    def __init__(self, coeffs: Mapping[tuple[int, ...], RationalLike], nvars: int, cap: int):
        if nvars < 1:
            raise ValueError(f"nvars must be >= 1, got {nvars}")
        if cap < 0:
            raise ValueError(f"cap must be >= 0, got {cap}")
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, value in coeffs.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} does not have length {nvars}")
            if any(e < 0 or e > cap for e in exps):
                raise ValueError(f"exponent vector {exps} outside the box [0, {cap}]^{nvars}")
            value = Fraction(value)
            if value:
                clean[exps] = value
        object.__setattr__(self, "nvars", int(nvars))
        object.__setattr__(self, "cap", int(cap))
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("MultiSeries is immutable")

    @classmethod
    def _trusted(
        cls, coeffs: dict[tuple[int, ...], Fraction], nvars: int, cap: int
    ) -> "MultiSeries":
        """Wrap coefficients already known to be non-zero ``Fraction``s on
        in-box exponent tuples, skipping the constructor's checks."""
        out = object.__new__(cls)
        object.__setattr__(out, "nvars", nvars)
        object.__setattr__(out, "cap", cap)
        object.__setattr__(out, "coeffs", coeffs)
        return out

    @classmethod
    def constant(cls, value: RationalLike, nvars: int, cap: int) -> "MultiSeries":
        zero = (0,) * nvars
        return cls({zero: value}, nvars, cap)

    @classmethod
    def zero(cls, nvars: int, cap: int) -> "MultiSeries":
        return cls({}, nvars, cap)

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.nvars or any(e < 0 or e > self.cap for e in exps):
            raise ValueError(f"exponent vector {exps} outside the box [0, {self.cap}]^{self.nvars}")
        return self.coeffs.get(exps, _ZERO)

    def _check_shape(self, other: "MultiSeries") -> None:
        if self.nvars != other.nvars or self.cap != other.cap:
            raise ValueError(
                "shape mismatch: "
                f"({self.nvars} vars, cap {self.cap}) vs ({other.nvars} vars, cap {other.cap})"
            )

    def __add__(self, other: "MultiSeries") -> "MultiSeries":
        if not isinstance(other, MultiSeries):
            return NotImplemented
        self._check_shape(other)
        out = accumulate(dict(self.coeffs), other.coeffs.items())
        return MultiSeries._trusted(out, self.nvars, self.cap)

    def __neg__(self) -> "MultiSeries":
        return MultiSeries({e: -c for e, c in self.coeffs.items()}, self.nvars, self.cap)

    def __sub__(self, other: "MultiSeries") -> "MultiSeries":
        return self + (-other)

    def scale(self, factor: RationalLike) -> "MultiSeries":
        factor = Fraction(factor)
        if not factor:
            return MultiSeries.zero(self.nvars, self.cap)
        return MultiSeries({e: c * factor for e, c in self.coeffs.items()}, self.nvars, self.cap)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, MultiSeries):
            return NotImplemented
        self._check_shape(other)
        nvars, cap = self.nvars, self.cap
        # Exponent vectors are packed into one int, `width` bits per
        # variable, so adding two codes adds the vectors without carries.
        # With `bias` added, a field's top bit is set exactly when that
        # exponent of the sum exceeds the cap.
        width = cap.bit_length() + 1
        mask = (1 << width) - 1
        shifts = [width * i for i in range(nvars)]
        top = 1 << (width - 1)
        high = sum(top << sh for sh in shifts)
        bias = sum((top - 1 - cap) << sh for sh in shifts)
        left, left_den = _packed(self.coeffs, shifts)
        right, right_den = _packed(other.coeffs, shifts)
        # Whether a right term fits beside a left one depends only on the
        # left exponents of the variables the right operand uses, so the
        # fitting right terms are found once per such projection.
        used = 0
        for code, _ in right:
            used |= code
        projection = sum(mask << sh for sh in shifts if used & (mask << sh))
        fitting: dict[int, list[tuple[int, int]]] = {}
        acc: dict[int, int] = {}
        get = acc.get
        for c1, n1 in left:
            key = c1 & projection
            terms = fitting.get(key)
            if terms is None:
                biased = c1 + bias
                terms = fitting[key] = [t for t in right if not (biased + t[0]) & high]
            for c2, n2 in terms:
                e = c1 + c2
                acc[e] = get(e, 0) + n1 * n2
        den = left_den * right_den
        out = {
            tuple([(code >> sh) & mask for sh in shifts]): Fraction(num, den)
            for code, num in acc.items()
            if num
        }
        return MultiSeries._trusted(out, nvars, cap)

    __rmul__ = __mul__

    def negate_variables(self) -> "MultiSeries":
        """Substitute t_i -> -t_i for every variable: flip odd total degrees."""
        return MultiSeries(
            {e: (c if sum(e) % 2 == 0 else -c) for e, c in self.coeffs.items()},
            self.nvars,
            self.cap,
        )

    def terms_sorted(self):
        """Terms in lexicographic exponent order."""
        return sorted(self.coeffs.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.cap == other.cap
            and self.coeffs == other.coeffs
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        head = ", ".join(f"{e}: {c}" for e, c in self.terms_sorted()[:6])
        tail = ", ..." if len(self.coeffs) > 6 else ""
        return f"MultiSeries({{{head}{tail}}}, nvars={self.nvars}, cap={self.cap})"


def _packed(coeffs: Mapping[tuple[int, ...], Fraction], shifts: Sequence[int]):
    """:func:`numerators` with each exponent vector packed into one int,
    ``shifts[i]`` bits up for variable i."""
    terms, den = numerators(coeffs)
    return [(sum(e << sh for e, sh in zip(exps, shifts)), n) for exps, n in terms], den


def substitute_linear_form(series: UniSeries, weights: Sequence[int], cap: int) -> MultiSeries:
    """Evaluate a univariate series at sum_j weights_j * t_j, capped per variable.

    Exact for every exponent vector in the box, which requires the input to
    be exact through degree len(weights) * cap and to have no pole.
    """
    weights = tuple(int(w) for w in weights)
    nvars = len(weights)
    if nvars < 1:
        raise ValueError("weights must be non-empty")
    if min(series.coeffs, default=0) < 0:
        raise ValueError(
            f"cannot substitute a series with a pole (valuation {series.valuation()})"
        )
    needed = nvars * cap
    if series.order < needed:
        raise ValueError(
            f"insufficient univariate order: have {series.order}, need {needed} "
            f"for {nvars} variables with cap {cap}"
        )
    out: dict[tuple[int, ...], Fraction] = {}
    for exps in iter_product(range(cap + 1), repeat=nvars):
        c = series.coefficient(sum(exps))
        if not c:
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
        out[exps] = c * multinomial(exps) * w
    return MultiSeries(out, nvars, cap)


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
    rows = [tuple(int(w) for w in row) for row in rows]
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
        terms: dict[tuple[int, ...], Fraction] = {}
        if cap >= 1:
            for j, w in enumerate(row):
                if w:
                    e = tuple(1 if jj == j else 0 for jj in range(nvars))
                    terms[e] = Fraction(w)
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

    acc: dict[tuple[int, ...], Fraction] = {}
    for exps, c in series.coeffs.items():
        term = MultiSeries.constant(c, nvars, cap)
        for i, a in enumerate(exps):
            if a:
                term = term * power(i, a)
                if term.is_zero():
                    break
        accumulate(acc, term.coeffs.items())
    return MultiSeries._trusted(acc, nvars, cap)
