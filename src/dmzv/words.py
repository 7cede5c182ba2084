"""Words over {d, y}, their deformed shuffle product, and the Laurent character.

The product is NOT the classical shuffle: single letters multiply as
y * y = yy, and the d-rule carries a correction term.  The recursion,
applied with a fixed case priority for determinism:

    1 * w = w * 1 = w
    (y u) * v = y (u * v)                     (left starts with y)
    u * (y v) = y (u * v)                     (left starts with d, right with y)
    (d u) * (d v) = d (u * (d v)) - u * (d d v)

Each step either shortens the left word or moves a y out front, so the
recursion terminates; it extends bilinearly to rational combinations.
On raw word sums the product is not commutative (the d-rule treats its
arguments asymmetrically); the commutator always lies in the kernel of
the character below, so character images do commute.

The character maps a word d^{a_1} y ... d^{a_r} y to the Laurent series
obtained by applying, right to left, the operators (multiply by x, then
differentiate a_i times) to x(z) = exp(z)/(1 - exp(z)), finishing with
a_1 plain derivatives.  Words ending in d map to 0 and the empty word to
1, which is the unique linear extension killing the ideal generated by
the Leibniz defects and by words ending in d.

Since x' = x + x^2, differentiating a polynomial p(x) gives the
polynomial p'(x) (x + x^2).  So a word's image is an integer polynomial
in x of degree at most its length, and :func:`character` evaluates the
combined polynomial of a word sum once, against a cached table of the
powers of x.  The same equation builds that table: (x^j)' = j x^j +
j x^(j+1), so each power is one derivative of the one before, and no
series is multiplied.  A kernel that breaks x' = x + x^2 then makes the
character fail multiplicativity.

A word sum holds the one stored form of :mod:`rationals`: each word maps
to a non-zero integer numerator over one reduced denominator.  The product
and the character work on those integers, and a word sum is written from
them; :attr:`WordSum.terms` builds ``Fraction``s only when it is read.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import TYPE_CHECKING, Iterable, Mapping, Union

from .rationals import Terms, _sum, accumulate, format_pair, numerators
from .series import UniSeries, exp_over_one_minus_exp

if TYPE_CHECKING:
    from .rationals import RationalLike

__all__ = [
    "Word",
    "WordSum",
    "word_product",
    "character",
    "multiplicativity_defect",
    "leibniz_defect",
]

ALPHABET = ("d", "y")


class Word:
    """Immutable word over the alphabet {d, y}; the empty word is the unit."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[str] = ()):
        letters = tuple(letters)
        for ch in letters:
            if ch not in ALPHABET:
                raise ValueError(f"letter {ch!r} is not in the alphabet {ALPHABET}")
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Word is immutable")

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse from a string over {d, y}; "1" (or "") is the empty word."""
        text = text.strip()
        if text in ("", "1"):
            return cls()
        return cls(text)

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __lt__(self, other: "Word") -> bool:
        return (len(self.letters), self.letters) < (len(other.letters), other.letters)

    def __str__(self) -> str:
        return "".join(self.letters) if self.letters else "1"

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def prepend(self, letter: str) -> "Word":
        return Word((letter,) + self.letters)


class WordSum(Terms):
    """Finite rational linear combination of words; the keys of ``_nums``
    are words."""

    __slots__ = ()

    def __init__(self, terms: Mapping[Word, RationalLike] = ()):
        self._set(*numerators(dict(terms), _word))

    @classmethod
    def of(cls, word: Word, coeff: RationalLike = 1) -> "WordSum":
        return cls({word: coeff})

    terms = property(Terms._terms, doc="The terms as word -> non-zero ``Fraction``.")

    def __add__(self, other: "WordSum") -> "WordSum":
        return self._like(*_sum(self._nums, self._den, other._nums, other._den))

    def prepend(self, letter: str) -> "WordSum":
        return self._like({w.prepend(letter): n for w, n in self._nums.items()}, self._den)

    def __str__(self) -> str:
        if not self._nums:
            return "0"
        bits = []
        den = self._den
        for word in sorted(self._nums):
            n = self._nums[word]
            if n == den:
                body = str(word)
            elif n == -den:
                body = f"-{word}"
            else:
                body = f"{format_pair(n, den)}*{word}"
            bits.append(body)
        return " + ".join(bits).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"WordSum({str(self)})"


def _word(key: Word) -> Word:
    if not isinstance(key, Word):
        raise TypeError(f"word sum key {key!r} is not a Word")
    return key


# A product of words is its terms as (letters, integer coefficient) pairs:
# the recursion starts from coefficient 1 and only prepends letters and
# subtracts, so every coefficient is an integer.  Only the d-rule, where the
# recursion branches, is cached; the other rules are one prepended letter
# each.  The d-rule products and the character's polynomials are cached on
# letter tuples (hashing a tuple is cheaper than calling Word.__hash__), and
# the kernel's power tables, integer numerators like the series they come
# from, on (order, top power).  The sizes hold the largest working sets
# measured: 1,040 d-rule products, 3,060 polynomials (suffixes included) and
# 2 power tables for all 400 shuffle pairs the benchmark draws from, in one
# process, and 298 d-rule products, 373 polynomials and 17 power tables for
# a default verify run, the same as at its largest accepted caps.
def _product_letters(
    u: tuple[str, ...], v: tuple[str, ...]
) -> tuple[tuple[tuple[str, ...], int], ...]:
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    if u[0] == "y":
        return _prepended("y", _product_letters(u[1:], v))
    if v[0] == "y":
        return _prepended("y", _product_letters(u, v[1:]))
    return _d_product(u, v)


@lru_cache(maxsize=4096)
def _d_product(
    u: tuple[str, ...], v: tuple[str, ...]
) -> tuple[tuple[tuple[str, ...], int], ...]:
    # the d-rule, for u and v that both start with d
    acc = dict(_prepended("d", _product_letters(u[1:], v)))
    accumulate(acc, ((w, -c) for w, c in _product_letters(u[1:], ("d",) + v)))
    return tuple(acc.items())


def _prepended(letter: str, terms) -> tuple[tuple[tuple[str, ...], int], ...]:
    head = (letter,)
    return tuple((head + w, c) for w, c in terms)


def word_product(
    left: Union[Word, WordSum], right: Union[Word, WordSum]
) -> WordSum:
    """The deformed shuffle product, extended bilinearly."""
    if isinstance(left, Word) and isinstance(right, Word):
        product = _product_letters(left.letters, right.letters)
        return object.__new__(WordSum)._set({Word(w): c for w, c in product}, 1)
    if isinstance(left, Word):
        left = WordSum.of(left)
    if isinstance(right, Word):
        right = WordSum.of(right)
    out: dict[Word, int] = {}
    for wu, nu in left._nums.items():
        for wv, nv in right._nums.items():
            n = nu * nv
            product = _product_letters(wu.letters, wv.letters)
            accumulate(out, ((Word(w), n * cw) for w, cw in product))
    return left._like(out, left._den * right._den)


def character(w: Union[Word, WordSum], order: int) -> UniSeries:
    """The algebra character into Laurent series, exact through ``order``.

    The kernel x = exp(z)/(1 - exp(z)) satisfies x' = x + x^2, so every
    word's image is an integer polynomial in x (:func:`_character_poly`),
    and the image of a word sum is the one rational polynomial sum c P_w.
    That polynomial is evaluated once, as integer numerators against a
    cached table of the kernel's powers, and the sums are the image's
    numerators.
    """
    terms, poly_den = ([(w, 1)], 1) if isinstance(w, Word) else (w._nums.items(), w._den)
    poly: dict[int, int] = {}
    for word, n in terms:
        for power, count in _character_poly(word.letters):
            poly[power] = poly.get(power, 0) + count * n
    poly = {power: n for power, n in poly.items() if n}
    if not poly:
        return UniSeries.zero(order)
    powers, den = _kernel_powers(order, max(poly))
    acc: dict[int, int] = {}
    get = acc.get
    for power, n in poly.items():
        for d, m in powers[power]:
            acc[d] = get(d, 0) + n * m
    nums = {d: acc[d] for d in sorted(acc) if acc[d]}
    return object.__new__(UniSeries)._set(nums, den * poly_den, order)


@lru_cache(maxsize=4096)
def _character_poly(letters: tuple[str, ...]) -> tuple[tuple[int, int], ...]:
    """A word's image as an integer polynomial in the kernel x, as
    (power, coefficient) pairs.  Read right to left from 1, a y multiplies
    by x and a d differentiates, p(x) -> p'(x) (x + x^2); so the empty
    word gives 1 and a word ending in d gives 0."""
    if not letters:
        return ((0, 1),)
    rest = _character_poly(letters[1:])
    if letters[0] == "y":
        return tuple((power + 1, count) for power, count in rest)
    out: dict[int, int] = {}
    for power, count in rest:
        if power:
            out[power] = out.get(power, 0) + power * count
            out[power + 1] = out.get(power + 1, 0) + power * count
    return tuple(sorted(out.items()))


@lru_cache(maxsize=32)
def _kernel_powers(
    order: int, top: int
) -> tuple[tuple[tuple[tuple[int, int], ...], ...], int]:
    """x^0 .. x^top for the kernel x, exact through ``order``: for each
    power its (degree, integer numerator) pairs over one common
    denominator, and that denominator.

    Since x' = x + x^2, (x^j)' = j x^j + j x^(j+1), so each power is built
    from the one before by one derivative: x^(j+1) = ((x^j)' - j x^j) / j.
    A derivative is exact through one degree less than the series it
    differentiates, so x is taken exact through order + top - 1.  Over the
    kernel's denominator D, x^j has the denominator D (j-1)!."""
    if not top:
        return (((0, 1),),), 1
    kernel = exp_over_one_minus_exp(order + top - 1)
    # x^j as numerators over D (j-1)!, exact through order + top - j
    powers = [{0: 1}, kernel._nums]
    for j in range(1, top):
        power, exact = powers[-1], order + top - 1 - j
        nxt = {d - 1: d * n for d, n in power.items() if d}
        for d, n in power.items():
            if d <= exact:
                nxt[d] = nxt.get(d, 0) - j * n
        powers.append({d: n for d, n in nxt.items() if n})
    # x^j over the common denominator D (top-1)!, truncated at ``order``
    den = kernel._den * factorial(top - 1)
    scales = [den, *(factorial(top - 1) // factorial(j - 1) for j in range(1, top + 1))]
    return tuple(
        tuple((d, n * scale) for d, n in power.items() if d <= order)
        for power, scale in zip(powers, scales)
    ), den


def multiplicativity_defect(u: Word, v: Word, order: int) -> UniSeries:
    """character(u * v) - character(u) character(v), exact through ``order``."""
    lhs = character(word_product(u, v), order)
    pad = order + max(len(u), len(v), 1)
    rhs = character(u, pad) * character(v, pad)
    return (lhs - rhs.truncate(order)).truncate(order)


def leibniz_defect(u: Word, v: Word, order: int) -> UniSeries:
    """Character image of d(u * v) - (d u) * v - u * (d v), exact through
    ``order``; vanishes because such elements generate part of the ideal
    the character kills."""
    s = word_product(u, v)
    lhs = character(s.prepend("d"), order)
    rhs = character(word_product(u.prepend("d"), v), order) + character(
        word_product(u, v.prepend("d")), order
    )
    return lhs - rhs
