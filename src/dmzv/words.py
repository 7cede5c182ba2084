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
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from .rationals import RationalLike, format_rational
from .series import UniSeries, exp_over_one_minus_exp

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

    def head(self) -> str:
        return self.letters[0]

    def tail(self) -> "Word":
        return Word(self.letters[1:])

    def prepend(self, letter: str) -> "Word":
        return Word((letter,) + self.letters)


class WordSum:
    """Finite rational linear combination of words."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, RationalLike] = ()):
        clean: dict[Word, Fraction] = {}
        for word, coeff in dict(terms).items():
            coeff = Fraction(coeff)
            if coeff:
                clean[word] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("WordSum is immutable")

    @classmethod
    def of(cls, word: Word, coeff: RationalLike = 1) -> "WordSum":
        return cls({word: coeff})

    @classmethod
    def zero(cls) -> "WordSum":
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "WordSum") -> "WordSum":
        out = dict(self.terms)
        for word, coeff in other.terms.items():
            s = out.get(word, Fraction(0)) + coeff
            if s:
                out[word] = s
            else:
                out.pop(word, None)
        return WordSum(out)

    def __neg__(self) -> "WordSum":
        return WordSum({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "WordSum") -> "WordSum":
        return self + (-other)

    def scale(self, factor: RationalLike) -> "WordSum":
        factor = Fraction(factor)
        return WordSum({w: c * factor for w, c in self.terms.items()})

    def prepend(self, letter: str) -> "WordSum":
        return WordSum({w.prepend(letter): c for w, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, WordSum) and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for word, coeff in sorted(self.terms.items()):
            if coeff == 1:
                body = str(word)
            elif coeff == -1:
                body = f"-{word}"
            else:
                body = f"{format_rational(coeff)}*{word}"
            bits.append(body)
        return " + ".join(bits).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"WordSum({str(self)})"


_PRODUCT_MEMO: dict[tuple[tuple[str, ...], tuple[str, ...]], WordSum] = {}


def _product_words(u: Word, v: Word) -> WordSum:
    key = (u.letters, v.letters)
    hit = _PRODUCT_MEMO.get(key)
    if hit is not None:
        return hit
    if not u:
        out = WordSum.of(v)
    elif not v:
        out = WordSum.of(u)
    elif u.head() == "y":
        out = _product_words(u.tail(), v).prepend("y")
    elif v.head() == "y":
        out = _product_words(u, v.tail()).prepend("y")
    else:
        out = _product_words(u.tail(), v).prepend("d") - _product_words(
            u.tail(), v.prepend("d")
        )
    _PRODUCT_MEMO[key] = out
    return out


def word_product(
    left: Union[Word, WordSum], right: Union[Word, WordSum]
) -> WordSum:
    """The deformed shuffle product, extended bilinearly."""
    if isinstance(left, Word) and isinstance(right, Word):
        return _product_words(left, right)
    if isinstance(left, Word):
        left = WordSum.of(left)
    if isinstance(right, Word):
        right = WordSum.of(right)
    out = WordSum.zero()
    for wu, cu in left.terms.items():
        for wv, cv in right.terms.items():
            out = out + _product_words(wu, wv).scale(cu * cv)
    return out


def _derivative_counts(word: Word) -> list[int]:
    # word must end with y: count the d-run before each y
    counts, run = [], 0
    for ch in word.letters:
        if ch == "d":
            run += 1
        else:
            counts.append(run)
            run = 0
    return counts


_CHARACTER_MEMO: dict[tuple[tuple[str, ...], int], UniSeries] = {}


def character(w: Union[Word, WordSum], order: int) -> UniSeries:
    """The algebra character into Laurent series, exact through ``order``.

    The kernel series is computed with enough working order that every
    derivative and every multiplication by the valuation -1 kernel still
    leaves the result exact through the requested order.
    """
    if isinstance(w, WordSum):
        acc = UniSeries.zero(order)
        for word, coeff in w.terms.items():
            acc = acc + character(word, order) * coeff
        return acc
    key = (w.letters, order)
    hit = _CHARACTER_MEMO.get(key)
    if hit is not None:
        return hit
    if not w:
        out = UniSeries.one(order)
    elif w.letters[-1] == "d":
        out = UniSeries.zero(order)
    else:
        counts = _derivative_counts(w)
        kernel = exp_over_one_minus_exp(order + len(w) + 1)
        out = kernel
        for k in reversed(counts[1:]):
            out = kernel * out.derivative_n(k)
        out = out.derivative_n(counts[0])
        if out.order < order:
            raise ValueError(
                f"insufficient order: got {out.order}, need {order} for word {w}"
            )
        out = out.truncate(order)
    _CHARACTER_MEMO[key] = out
    return out


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
