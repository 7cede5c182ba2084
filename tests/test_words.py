from fractions import Fraction
from itertools import product as iter_product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmzv.series import UniSeries, exp_over_one_minus_exp
from dmzv.words import (
    Word,
    WordSum,
    _character_poly,
    _kernel_powers,
    character,
    leibniz_defect,
    multiplicativity_defect,
    word_product,
)


def derivative(s):
    """Termwise d/du of a series; loses one representable order at the top."""
    return UniSeries({d - 1: d * c for d, c in s.coeffs.items()}, s.order - 1)


def operator_character(w, order):
    """The character by its definition, on Fraction series: starting from
    the kernel for the last y, read the word right to left, multiplying by
    the kernel for each further y and differentiating for each d."""
    if isinstance(w, WordSum):
        acc = UniSeries.zero(order)
        for word, coeff in w.terms.items():
            acc = acc + operator_character(word, order) * coeff
        return acc
    letters = w.letters
    if not letters:
        return UniSeries.one(order)
    if letters[-1] == "d":
        return UniSeries.zero(order)
    kernel = exp_over_one_minus_exp(order + len(letters) + 1)
    out = kernel
    for letter in reversed(letters[:-1]):
        out = derivative(out) if letter == "d" else kernel * out
    return out.truncate(order)


def words_up_to(n, ending_in_y=False):
    out = [] if ending_in_y else [Word()]
    for length in range(1, n + 1):
        for letters in iter_product(("d", "y"), repeat=length):
            if ending_in_y and letters[-1] != "y":
                continue
            out.append(Word(letters))
    return out


def test_parse_and_str():
    assert str(Word.parse("dy")) == "dy"
    assert str(Word.parse("1")) == "1"
    assert str(Word.parse("")) == "1"
    with pytest.raises(ValueError):
        Word.parse("da!")


def test_product_base_cases():
    w = Word.parse("ddy")
    assert word_product(Word(), w) == WordSum.of(w)
    assert word_product(w, Word()) == WordSum.of(w)


def test_product_examples():
    assert word_product(Word.parse("y"), Word.parse("y")) == WordSum.of(Word.parse("yy"))
    assert word_product(Word.parse("dy"), Word.parse("y")) == WordSum.of(Word.parse("ydy"))
    expected = WordSum({Word.parse("dydy"): 1, Word.parse("yddy"): -1})
    assert word_product(Word.parse("dy"), Word.parse("dy")) == expected


def test_product_preserves_total_length():
    for u in words_up_to(3):
        for v in words_up_to(3):
            for word in word_product(u, v).terms:
                assert len(word) == len(u) + len(v)


def test_product_is_not_commutative_on_representatives():
    # the raw algebra is non-commutative; a frozen example, with the
    # commutator landing in the character's kernel
    u, v = Word.parse("dy"), Word.parse("ddy")
    commutator = word_product(u, v) - word_product(v, u)
    assert not commutator.is_zero()
    assert character(commutator, 10).is_zero()


def test_character_kills_all_small_commutators():
    words = words_up_to(4)
    for i, u in enumerate(words):
        for v in words[i + 1 :]:
            commutator = word_product(u, v) - word_product(v, u)
            if not commutator.is_zero():
                assert character(commutator, 10).is_zero()


def test_associativity_fails_on_representatives_but_not_under_character():
    u = Word.parse("dy")
    lhs = word_product(word_product(u, u), u)
    rhs = word_product(u, word_product(u, u))
    assert lhs != rhs  # frozen finding: raw word sums do not associate
    assert character(lhs - rhs, 10).is_zero()


def test_character_of_unit_and_dead_words():
    assert character(Word(), 6).coeffs == {0: Fraction(1)}
    assert character(Word.parse("d"), 6).is_zero()
    assert character(Word.parse("yd"), 6).is_zero()


def test_character_single_y_is_kernel():
    x = exp_over_one_minus_exp(10)
    assert character(Word.parse("y"), 10) == x


def test_character_yy_is_kernel_squared():
    x = exp_over_one_minus_exp(12)
    expected = (x * x).truncate(10)
    assert character(Word.parse("yy"), 10) == expected


def test_character_dy_is_kernel_derivative():
    x = exp_over_one_minus_exp(12)
    expected = derivative(x).truncate(10)
    assert character(Word.parse("dy"), 10) == expected
    # leading terms: z^{-2} - 1/12 + ...
    got = character(Word.parse("dy"), 6)
    assert got.coefficient(-2) == 1
    assert got.coefficient(-1) == 0
    assert got.coefficient(0) == Fraction(-1, 12)


def test_character_poly_examples():
    # dy -> x' = x + x^2; ddy -> (1 + 2x)(x + x^2) = x + 3x^2 + 2x^3
    assert _character_poly(("d", "y")) == ((1, 1), (2, 1))
    assert _character_poly(("d", "d", "y")) == ((1, 1), (2, 3), (3, 2))
    assert _character_poly(("y", "d", "y")) == ((2, 1), (3, 1))
    assert _character_poly(("y", "d")) == ()
    assert _character_poly(()) == ((0, 1),)


def test_multiplicativity_examples():
    for a, b in (("y", "y"), ("dy", "y"), ("dy", "dy")):
        defect = multiplicativity_defect(Word.parse(a), Word.parse(b), 10)
        assert defect.is_zero()


def test_multiplicativity_all_pairs_length_3():
    words = words_up_to(3, ending_in_y=True) + [Word()]
    for u in words:
        for v in words:
            assert multiplicativity_defect(u, v, 10).is_zero()


def test_leibniz_vanishes_under_character():
    words = words_up_to(3, ending_in_y=True)
    for u in words:
        for v in words:
            assert leibniz_defect(u, v, 10).is_zero()


def test_wordsum_rendering():
    s = WordSum({Word.parse("dydy"): 1, Word.parse("yddy"): -1})
    assert str(s) == "dydy - yddy"
    assert str(WordSum({Word(): Fraction(1, 2)})) == "1/2*1"
    assert str(WordSum()) == "0"


words_over_dy = st.text(alphabet="dy", max_size=6).map(Word.parse)


@settings(max_examples=100, deadline=None)
@given(words_over_dy, words_over_dy)
def test_word_product_preserves_length(u, v):
    product = word_product(u, v)
    assert all(len(w) == len(u) + len(v) for w in product.terms)


@settings(max_examples=100, deadline=None)
@given(words_over_dy, words_over_dy, st.integers(min_value=0, max_value=10))
def test_character_multiplicative_on_random_words(u, v, order):
    assert multiplicativity_defect(u, v, order).is_zero()


words_up_to_10 = st.text(alphabet="dy", max_size=10).map(Word.parse)
word_sums = st.dictionaries(
    st.text(alphabet="dy", max_size=8).map(Word.parse),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    max_size=6,
).map(WordSum)


@settings(max_examples=200, deadline=None)
@given(words_up_to_10, st.integers(min_value=0, max_value=24))
def test_character_matches_operator_route_on_words(w, order):
    got, want = character(w, order), operator_character(w, order)
    assert (got.order, got.coeffs) == (want.order, want.coeffs)


@settings(max_examples=100, deadline=None)
@given(word_sums, st.integers(min_value=0, max_value=24))
def test_character_matches_operator_route_on_word_sums(s, order):
    got, want = character(s, order), operator_character(s, order)
    assert (got.order, got.coeffs) == (want.order, want.coeffs)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=16))
def test_kernel_powers_match_repeated_products(order, top):
    # the derivative chain against x^j = x^(j-1) x, with x exact through
    # order + top - 1, compared as Fractions
    want = [UniSeries.one(order)]
    if top:
        kernel = exp_over_one_minus_exp(order + top - 1)
        want.append(kernel)
        while len(want) <= top:
            want.append(want[-1] * kernel)
    powers, den = _kernel_powers(order, top)
    got = [{d: Fraction(n, den) for d, n in power} for power in powers]
    assert got == [power.truncate(order).coeffs for power in want]


@st.composite
def word_sum_pairs(draw):
    """Two word sums; half the time the second is c - a for a sum c with
    integer coefficients, so that a + b cancels every denominator of a."""
    a, c = draw(word_sums), draw(word_sums)
    if draw(st.booleans()):
        return a, c
    return a, WordSum({w: round(x) for w, x in c.terms.items()}) - a


@settings(max_examples=100, deadline=None)
@given(word_sum_pairs())
def test_word_sum_operations_match_fraction_oracle(pair):
    # against the same operations on Fraction dicts, built through the
    # constructor; ``==`` compares numerators and denominator, so a result
    # left over an unreduced denominator fails
    a, b = pair
    A, B = a.terms, b.terms
    zero = Fraction(0)
    assert a + b == WordSum({w: A.get(w, zero) + B.get(w, zero) for w in A.keys() | B.keys()})
    assert a - b == WordSum({w: A.get(w, zero) - B.get(w, zero) for w in A.keys() | B.keys()})
    product = {}
    for wu, cu in A.items():
        for wv, cv in B.items():
            for w, cw in word_product(wu, wv).terms.items():
                product[w] = product.get(w, zero) + cu * cv * cw
    assert word_product(a, b) == WordSum(product)
