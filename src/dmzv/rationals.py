"""Exact rational scalars, the one stored form of sparse exact terms, the
packed store of multivariate terms, and elementary combinatorial
functions.

Every coefficient and every value in this package is exact, a
``fractions.Fraction`` when it is read; there is no floating-point mode
anywhere.  Every sparse type holds its terms in the one form of
:class:`Terms`: non-zero integer numerators over one reduced denominator.
The constructors take their input into that form through
:func:`numerators`, which refuses a float coefficient (each type takes its
degrees or exponents through ``operator.index``).  Every sum of terms
goes through :func:`accumulate`, and a sum of single values of scattered
denominators, as (numerator, denominator) pairs, through
:func:`exact_sum`: the multi-sum, and the expanded sides of ``verify``'s
value identities and its Bernoulli convolution check.  The Bernoulli
fill and the conversion residuals read values already put over one
common denominator, so each of their sums is one integer dot product.
``MultiSeries`` and ``LaurentPolynomial`` are also both held in the packed
form of :class:`Packed`, which states their sum, equality and product once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, gcd, lcm
from struct import Struct
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar, Union

RationalLike = Union[Fraction, int]
K = TypeVar("K")

__all__ = [
    "accumulate",
    "exact_sum",
    "json_integer",
    "numerators",
    "binomial",
    "pochhammer",
    "multinomial",
    "format_rational",
    "parse_rational",
]

_ZERO = Fraction(0)


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


def exact_sum(terms: Iterable[tuple[int, int]]) -> Fraction:
    """The sum of the (integer numerator, positive denominator) pairs
    ``terms``, over a running denominator widened by a pairwise lcm."""
    total, common = 0, 1
    for n, den in terms:
        if common % den:
            wider = lcm(common, den)
            total, common = total * (wider // common), wider
        total += n * (common // den)
    return Fraction(total, common)


def _over_one_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The numerators of ``values``, zeros included, over their least
    common denominator, and that denominator."""
    den = reduce(lcm, (v.denominator for v in values), 1)
    return [v.numerator * (den // v.denominator) for v in values], den


def json_integer(value, what: str) -> int:
    """``value``, an integer of a JSON record; a float, a string or a bool
    is refused, not converted."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _exact(value: RationalLike) -> Fraction:
    """``value`` as a ``Fraction``; a float is refused, because its binary
    expansion is not the decimal that was meant."""
    if isinstance(value, float):
        raise TypeError(f"coefficient {value!r} is a float; use an int or a Fraction")
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
    lists in ``_SHAPE`` the slots it adds (a series' order, a ring) and
    states its sum and product; the negation, difference, scaling,
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
        den = self._den
        return {key: Fraction(n, den) for key, n in self._nums.items()}

    def _coefficient(self, key) -> Fraction:
        n = self._nums.get(key)
        return Fraction(n, self._den) if n else _ZERO

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


# An exponent vector is packed into one int, ``width`` bits per variable
# with the first variable in the highest field, each exponent stored plus
# 2**(width - 1).  Then the integer order of codes is the lexicographic
# order of the vectors; the sum of two codes minus the code of the zero
# vector is the code of the vectors' sum whenever every entry of that sum
# fits a field; and a code XOR the zero vector's code holds each exponent
# as a two's complement field, which ``struct`` reads and writes.  The
# zero vector's code is also the top bit of every field.
_FORMATS = {8: "b", 16: "h", 32: "i", 64: "q"}


def _width(bound: int) -> int:
    """The narrowest field width holding every exponent of absolute value
    at most ``bound``."""
    for width in _FORMATS:
        if bound < 1 << (width - 1):
            return width
    raise ValueError(f"exponents of absolute value {bound} are too large to pack")


class _Layout(NamedTuple):
    width: int  # bits per field
    zero: int  # the code of the zero vector
    size: int  # bytes per code
    fields: Struct


def _layout(nvars: int, bound: int) -> _Layout:
    """The layout of ``nvars`` fields that hold every exponent of absolute
    value at most ``bound``."""
    return _fields(nvars, _width(bound))


@lru_cache(maxsize=None)
def _fields(nvars: int, width: int) -> _Layout:
    fields = Struct(f">{nvars}{_FORMATS[width]}")
    zero = int.from_bytes(bytes([0x80] + [0] * (width // 8 - 1)) * nvars, "big")
    return _Layout(width, zero, fields.size, fields)


def _pack(layout: _Layout, exps: Sequence[int]) -> int:
    return int.from_bytes(layout.fields.pack(*exps), "big") ^ layout.zero


class Packed(Terms):
    """Sparse exact terms of one ring, held packed: the keys of ``_nums``
    are packed exponent vectors, in fields that are the narrowest that hold
    every exponent of absolute value at most ``_bound``.

    A subclass names its ring by ``_ring`` and ``_MISMATCH``, sets the
    width of a product by ``_product_bound`` and may cap a product's
    exponents by ``_cap_limit``.  It binds ``__mul__`` in its own body, where
    the benchmark's layer tracer (``bench/layers.py``) looks for it.
    """

    __slots__ = _SHAPE = ("_ring", "_nvars", "_bound")
    _MISMATCH = "operands in different rings: {} vs {}"

    def _fill(self, ring, nvars: int, bound: int, pairs: Iterable[tuple[Sequence[int], int]],
              den: int):
        """:meth:`_set` from (exponent tuple, numerator) pairs."""
        layout = _layout(nvars, bound)
        return self._set({_pack(layout, e): n for e, n in pairs}, den, ring, nvars, bound)

    def _unpacked(self, ordered: bool = False) -> Iterator[tuple[tuple[int, ...], int]]:
        """(exponent tuple, integer numerator over ``_den``) for each term,
        unpacked one at a time; in lexicographic exponent order when
        ``ordered``."""
        layout = _layout(self._nvars, self._bound)
        unpack, zero, size = layout.fields.unpack, layout.zero, layout.size
        codes = self._nums
        if ordered:
            return ((unpack((c ^ zero).to_bytes(size, "big")), codes[c]) for c in sorted(codes))
        return ((unpack((c ^ zero).to_bytes(size, "big")), n) for c, n in codes.items())

    def _terms(self) -> dict[tuple[int, ...], Fraction]:
        den = self._den
        return {exps: Fraction(n, den) for exps, n in self._unpacked()}

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in lexicographic exponent order."""
        den = self._den
        return [(exps, Fraction(n, den)) for exps, n in self._unpacked(ordered=True)]

    def _codes_at(self, bound: int) -> dict[int, int]:
        # the codes repacked at the width ``bound`` sets, which is never
        # narrower than this one's own
        if _width(bound) == _width(self._bound):
            return self._nums
        layout = _layout(self._nvars, bound)
        return {_pack(layout, exps): n for exps, n in self._unpacked()}

    def _same_ring(self, other: "Packed") -> None:
        if self._ring != other._ring:
            raise ValueError(self._MISMATCH.format(self._ring, other._ring))

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._same_ring(other)
        bound = max(self._bound, other._bound)
        acc, den = _sum(self._codes_at(bound), self._den, other._codes_at(bound), other._den)
        return self._like(acc, den, self._ring, self._nvars, bound)

    def _product_bound(self, other: "Packed") -> int:
        """The bound that sets the width of the product's fields."""
        return self._bound + other._bound

    def _cap_limit(self, layout: _Layout) -> int | None:
        """The vector whose every field is one past the largest exponent a
        product keeps, packed at ``layout`` less its zero vector's code; or
        ``None`` to keep every product term."""
        return None

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        self._same_ring(other)
        # both operands at the width that holds every exponent of the
        # product; the left codes less the zero vector's code, so adding a
        # right code gives the code of the product term
        bound = self._product_bound(other)
        layout = _layout(self._nvars, bound)
        zero, limit = layout.zero, self._cap_limit(layout)
        right = list(other._codes_at(bound).items())
        # A capped product keeps a pair when no field of c1 - limit + c2
        # has its top bit set.  Whether it does depends only on the left
        # exponents of the variables the right operand uses, so the fitting
        # right terms are found once per such projection.
        projection = 0
        if limit is not None:
            used = 0
            for c2, _ in right:
                used |= c2 ^ zero
            field = (1 << layout.width) - 1
            for shift in range(0, 8 * layout.size, layout.width):
                if used >> shift & field:
                    projection |= field << shift
        fitting: dict[int, list[tuple[int, int]]] = {}
        acc: dict[int, int] = {}
        get = acc.get
        for c1, n1 in self._codes_at(bound).items():
            c1 -= zero
            key = c1 & projection
            terms = fitting.get(key)
            if terms is None:
                terms = fitting[key] = right if limit is None else [
                    t for t in right if not (c1 - limit + t[0]) & zero
                ]
            for c2, n2 in terms:
                e = c1 + c2
                acc[e] = get(e, 0) + n1 * n2
        for e in [e for e, n in acc.items() if not n]:
            del acc[e]
        return self._like(acc, self._den * other._den, self._ring, self._nvars, bound)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        if self._ring != other._ring:
            return False
        if _width(self._bound) == _width(other._bound):
            # the stored form of a ring element at one width is unique
            return self._den == other._den and self._nums == other._nums
        return self._terms() == other._terms()


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
    """Inverse of :func:`format_rational`; accepts "p/q" and "p", and
    refuses anything but a string (a JSON number or null among them)."""
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string, got {text!r}")
    return Fraction(text.strip())
