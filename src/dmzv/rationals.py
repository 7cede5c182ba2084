"""Exact rational scalars, the one stored form of sparse exact terms, and
elementary combinatorial functions.

Every coefficient and every value in this package is exact, a
``fractions.Fraction`` when it is read; there is no floating-point mode
anywhere.  ``fractions`` is a view: this module, and every layer that
``convert`` and ``shuffle`` run, computes on integers, and imports it
only where a ``Fraction`` is built, so those commands never load it (nor
the ``decimal`` module that it loads).  Every sparse type holds its terms
in the one form of :class:`Terms`: non-zero integer numerators over one
reduced denominator.  The constructors take their input into that form
through :func:`numerators`, which refuses a float coefficient (each type
takes its degrees or exponents through ``operator.index``).  Every sum of
terms goes through :func:`accumulate`, and a sum of single values of
scattered denominators, as (numerator, denominator) pairs, through
:func:`exact_pair`: the multi-sum, and (as the ``Fraction`` of
:func:`exact_sum`) the expanded sides of ``verify``'s value identities
and its Bernoulli convolution check.  The Bernoulli fill and the
conversion residuals read values already put over one common
denominator, so each of their sums is one integer dot product; a pair
is written by :func:`format_pair`, one gcd, as :func:`format_rational`
writes its ``Fraction``.
"""

from __future__ import annotations

from functools import reduce
from math import comb, gcd, lcm
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence, TypeVar, Union

if TYPE_CHECKING:
    from fractions import Fraction

    RationalLike = Union[Fraction, int]
K = TypeVar("K")

__all__ = [
    "accumulate",
    "exact_pair",
    "exact_sum",
    "json_integer",
    "numerators",
    "binomial",
    "pochhammer",
    "multinomial",
    "format_rational",
    "format_pair",
    "parse_rational",
]


def accumulate(acc: dict[K, int], terms: Iterable[tuple[K, int]]) -> dict[K, int]:
    """Add the (key, integer numerator) pairs ``terms`` into ``acc`` in
    place and return ``acc``; a key whose sum is zero is dropped, so
    ``acc`` never stores a zero numerator.  This is the sum of every sparse
    exact type, on numerators over one denominator."""
    get = acc.get
    for key, n in terms:
        s = get(key, 0) + n
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)
    return acc


def exact_pair(terms: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """The sum of the (integer numerator, positive denominator) pairs
    ``terms``, over a running denominator widened by a pairwise lcm, as
    its (numerator, denominator), not reduced."""
    total, common = 0, 1
    for n, den in terms:
        if common % den:
            wider = lcm(common, den)
            total, common = total * (wider // common), wider
        total += n * (common // den)
    return total, common


def exact_sum(terms: Iterable[tuple[int, int]]) -> Fraction:
    """The :func:`exact_pair` sum of ``terms`` as a ``Fraction``."""
    from fractions import Fraction

    return Fraction(*exact_pair(terms))


def _over_one_denominator(pairs: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """The numerators of the (numerator, positive denominator) ``pairs``,
    zeros included, over their least common denominator, and that
    denominator."""
    den = reduce(lcm, (d for _, d in pairs), 1)
    return [n * (den // d) for n, d in pairs], den


def json_integer(value, what: str) -> int:
    """``value``, an integer of a JSON record; a float, a string or a bool
    is refused, not converted."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _exact(value: RationalLike) -> int | Fraction:
    """``value`` as an int, when it is one, or a ``Fraction``; a float is
    refused, because its binary expansion is not the decimal that was
    meant.  Either has the ``numerator`` and ``denominator`` it is read by."""
    if type(value) is int:
        return value
    if isinstance(value, float):
        raise TypeError(f"coefficient {value!r} is a float; use an int or a Fraction")
    from fractions import Fraction

    return Fraction(value)


def numerators(
    coeffs: Mapping[K, RationalLike], key: Callable[[K], K]
) -> tuple[dict[K, int], int]:
    """The stored form of ``coeffs``: each key taken through ``key``, which
    converts it and refuses one outside the type's range, mapped to the
    non-zero numerator of its :func:`_exact` coefficient over their least
    common denominator, and that denominator; reduced, as every
    ``Fraction`` is."""
    # pairwise lcm: lcm(*...) would leave argument tuples of a dozen or more
    # entries in the interpreter's tuple free lists
    terms = []
    den = 1
    for k, c in coeffs.items():
        k, c = key(k), _exact(c)
        if c:
            terms.append((k, c))
            den = lcm(den, c.denominator)
    return {k: c.numerator * (den // c.denominator) for k, c in terms}, den


def _reduced(nums: dict[K, int], den: int) -> tuple[dict[K, int], int]:
    """``nums`` (in place) and ``den`` divided by the greatest common
    divisor of the denominator and every numerator, so that the terms have
    one stored form."""
    if den != 1:
        g = den
        for n in nums.values():
            g = gcd(g, n)
            if g == 1:
                return nums, den
        for key in nums:
            nums[key] //= g
        den //= g
    return nums, den


class Terms:
    """Sparse exact terms in their one stored form: ``_nums`` maps each key
    to its non-zero integer numerator over ``_den``, and no common factor
    divides them all, so equal elements are stored equally.  A subclass
    lists in ``_SHAPE`` the slots it adds (a series' order, or its number
    of variables and cap) and states its sum and product; the negation, difference, scaling,
    equality and ``Fraction`` views are stated here once."""

    __slots__ = ("_nums", "_den")
    _SHAPE: tuple[str, ...] = ()

    def _set(self, nums: dict, den: int, *shape):
        """Hold non-zero numerators ``nums`` over ``den``, reduced first, and
        the values ``shape`` of the ``_SHAPE`` slots; return this object."""
        for name, value in zip(("_nums", "_den", *self._SHAPE), (*_reduced(nums, den), *shape)):
            object.__setattr__(self, name, value)
        return self

    def _like(self, nums: dict, den: int, *shape):
        """A new element of this type, of the shape given or else of this one's."""
        shape = shape or [getattr(self, name) for name in self._SHAPE]
        return object.__new__(type(self))._set(nums, den, *shape)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self) -> bool:
        return not self._nums

    def _terms(self) -> dict:
        from fractions import Fraction

        den = self._den
        return {key: Fraction(n, den) for key, n in self._nums.items()}

    def _coefficient(self, key) -> Fraction:
        from fractions import Fraction

        return Fraction(self._nums.get(key, 0), self._den)

    def _formatted(self, key) -> str:
        """The coefficient at ``key`` as :func:`format_rational` writes it,
        from its numerator."""
        return format_pair(self._nums.get(key, 0), self._den)

    def __neg__(self):
        return self._like({key: -n for key, n in self._nums.items()}, self._den)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor: RationalLike):
        factor = _exact(factor)
        nums = {key: n * factor.numerator for key, n in self._nums.items()} if factor else {}
        return self._like(nums, self._den * factor.denominator)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        # the stored form is unique
        return (self._den == other._den and self._nums == other._nums
                and all(getattr(self, name) == getattr(other, name) for name in self._SHAPE))

    __hash__ = None  # type: ignore[assignment]


def _sum(left: dict, left_den: int, right: dict, right_den: int) -> tuple[dict, int]:
    """The numerators and the denominator of the sum of two sets of terms,
    each given as its numerators over its denominator."""
    den = lcm(left_den, right_den)
    scale_left, scale_right = den // left_den, den // right_den
    acc = {key: n * scale_left for key, n in left.items()}
    return accumulate(acc, ((key, n * scale_right) for key, n in right.items())), den


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
    from fractions import Fraction

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
    from fractions import Fraction

    return str(Fraction(value))


def format_pair(numerator: int, denominator: int) -> str:
    """numerator / denominator (denominator > 0) as :func:`format_rational`
    renders it, reduced by one gcd."""
    g = gcd(numerator, denominator)
    return f"{numerator // g}/{denominator // g}" if g != denominator else str(numerator // g)


def parse_rational(text: str) -> Fraction:
    """Inverse of :func:`format_rational`; accepts "p/q" and "p", and
    refuses anything but a string (a JSON number or null among them)."""
    from fractions import Fraction

    if not isinstance(text, str):
        raise ValueError(f"rational must be a string, got {text!r}")
    return Fraction(text.strip())
