"""Exact rational scalars, the sum and common denominator of sparse
exact terms, and elementary combinatorial functions.

Every coefficient and every value in this package is a
``fractions.Fraction``: arbitrary precision, reduced on construction,
denominator always positive.  There is no floating-point mode anywhere.
Every sparse type adds through :func:`accumulate`, and the products of
``UniSeries``, ``MultiSeries`` and ``LaurentPolynomial`` and the word
character put their terms over one denominator through :func:`numerators`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import Iterable, Mapping, Sequence, TypeVar, Union

Rational = Fraction
RationalLike = Union[Fraction, int]
K = TypeVar("K")

__all__ = [
    "Rational",
    "accumulate",
    "common_denominator",
    "numerators",
    "binomial",
    "pochhammer",
    "multinomial",
    "format_rational",
    "parse_rational",
]

_ZERO = Fraction(0)


def accumulate(
    acc: dict[K, Fraction], terms: Iterable[tuple[K, Fraction]], zero: RationalLike = _ZERO
) -> dict[K, Fraction]:
    """Add the (key, coefficient) pairs ``terms`` into ``acc`` in place and
    return ``acc``; a key whose sum is zero is dropped, so ``acc`` never
    stores a zero coefficient.  This is the sum of every sparse exact type;
    with ``zero=0`` it sums integer numerators."""
    get = acc.get
    for key, c in terms:
        s = get(key, zero) + c
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)
    return acc


def common_denominator(coeffs: Iterable[Fraction]) -> int:
    """The least common multiple of the coefficients' denominators."""
    # pairwise rather than lcm(*...): argument tuples of a dozen or more
    # entries would stay allocated in the interpreter's tuple free lists
    den = 1
    for c in coeffs:
        den = lcm(den, c.denominator)
    return den


def numerators(coeffs: Mapping[K, Fraction]) -> tuple[list[tuple[K, int]], int]:
    """Terms as (key, integer numerator) over the common denominator of all
    coefficients, and that denominator; the keys are degrees for a series,
    exponent vectors for a multivariate series or a polynomial and words
    for a word sum."""
    den = common_denominator(coeffs.values())
    return [(d, c.numerator * (den // c.denominator)) for d, c in coeffs.items()], den


def binomial(n: int, k: int) -> int:
    """C(n, k), with the convention C(n, k) = 0 for k < 0 or k > n.

    Requires n >= 0.
    """
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def pochhammer(s: RationalLike, k: int) -> Fraction:
    """Rising factorial s(s+1)...(s+k-1); the empty product 1 for k = 0."""
    if k < 0:
        raise ValueError(f"pochhammer requires k >= 0, got k={k}")
    out = Fraction(1)
    for i in range(k):
        out *= s + i
    return out


def multinomial(parts: Sequence[int] | Iterable[int]) -> int:
    """(sum parts)! / prod(part!) for non-negative integer parts."""
    total = 0
    out = 1
    for p in parts:
        if p < 0:
            raise ValueError(f"multinomial parts must be >= 0, got {p}")
        total += p
        out *= comb(total, p)
    return out


def format_rational(value: RationalLike) -> str:
    """Render as "p/q", omitting the denominator when it is 1."""
    return str(Fraction(value))


def parse_rational(text: str) -> Fraction:
    """Inverse of :func:`format_rational`; accepts "p/q" and "p"."""
    return Fraction(text.strip())
