import json
import pickle
from fractions import Fraction
from itertools import product as iter_product

import pytest

import dmzv
from dmzv import expansion, shiftcoeffs
from dmzv.expansion import rendered_text
from dmzv.multipoly import LaurentPolynomial
from dmzv.shiftcoeffs import (
    ShiftedZetaExpression,
    check_contraction,
    check_merge_substitution,
    check_reindexing,
    check_trailing_shift,
    coefficient_polynomial,
    shifted_zeta_expression,
)


def coefficient_lookup(depth):
    """The family of one depth as (l, m) -> coefficient, read off its record."""
    return {(l, m): coef for coef, l, m in shifted_zeta_expression(depth)}


# ---------------------------------------------------------------------------
# independent brute-force oracle: expand the product with bare dicts
# ---------------------------------------------------------------------------

def brute_force_expansion(depth):
    """Expand the defining product over exponent dicts keyed by
    (u-exponents, v-exponents); written without the polynomial class."""

    def multiply(p, q):
        out = {}
        for (eu1, ev1), c1 in p.items():
            for (eu2, ev2), c2 in q.items():
                key = (
                    tuple(a + b for a, b in zip(eu1, eu2)),
                    tuple(a + b for a, b in zip(ev1, ev2)),
                )
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return {k: v for k, v in out.items() if v}

    zero_u = (0,) * depth
    zero_v = (0,) * depth

    def unit_u(i):
        return tuple(1 if j == i else 0 for j in range(depth))

    def unit_v(j, power=1):
        return tuple(power if i == j else 0 for i in range(depth))

    poly = {(zero_u, zero_v): Fraction(1)}
    for j in range(depth):
        factor = {(zero_u, zero_v): Fraction(1)}
        for i in range(j, depth):
            # -(u_i v_i) * v_j^{-1}
            key = (unit_u(i), tuple(a + b for a, b in zip(unit_v(i), unit_v(j, -1))))
            factor[key] = factor.get(key, Fraction(0)) - 1
            if j > 0:
                key2 = (
                    unit_u(i),
                    tuple(a + b for a, b in zip(unit_v(i), unit_v(j - 1, -1))),
                )
                factor[key2] = factor.get(key2, Fraction(0)) + 1
        poly = multiply(poly, factor)
    return poly


def family_from_brute_force(depth):
    return {
        (eu, ev): int(c) for (eu, ev), c in brute_force_expansion(depth).items()
    }


def test_depth1_polynomial():
    variables = ("u1", "v1")
    expected = LaurentPolynomial.constant(1, variables) - LaurentPolynomial.monomial(
        variables, {"u1": 1}
    )
    assert coefficient_polynomial(1) == expected
    assert coefficient_lookup(1) == {((0,), (0,)): 1, ((1,), (0,)): -1}


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_expansion_matches_brute_force(depth):
    assert coefficient_lookup(depth) == family_from_brute_force(depth)


def test_depth2_specific_entries():
    coeffs = coefficient_lookup(2)
    assert coeffs[((0, 1), (0, 0))] == -1
    assert coeffs[((0, 0), (0, 0))] == 1
    oracle = family_from_brute_force(2)
    assert len(coeffs) == len(oracle) == 7


def test_depth2_vanishing_pattern():
    # entries with last shift outside {l2 - 1, l2} are absent
    coeffs = coefficient_lookup(2)
    for (l, m) in coeffs:
        assert m[-1] in (l[-1] - 1, l[-1])
        assert m[-1] >= 0


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_trailing_shift_vanishing(depth):
    checks = check_trailing_shift(depth)
    assert all(c.status == "pass" for c in checks)


@pytest.mark.parametrize("depth", [2, 3])
def test_contraction_identity(depth):
    checks = check_contraction(depth)
    assert all(c.status == "pass" for c in checks)


def test_contraction_specific_entries_depth2():
    from dmzv.rationals import binomial

    cur = coefficient_lookup(2)
    prev = coefficient_lookup(1)
    for l in ((0, 0), (1, 1)):
        lr = l[-1]
        m = (0,)
        left = cur.get((l, (m[-1] - lr, lr)), 0) + cur.get((l, (m[-1] - lr + 1, lr - 1)), 0)
        mid = binomial(l[0] + l[1], l[0]) * prev.get(((l[0] + l[1],), m), 0)
        right = -cur.get(((l[0], lr + 1), (m[-1] - lr, lr)), 0)
        assert left == mid == right


@pytest.mark.parametrize("depth", [2, 3, 4])
def test_merge_substitution(depth):
    checks = check_merge_substitution(depth)
    assert all(c.status == "pass" for c in checks)


def test_merge_substitution_grid_oracle_depth2():
    """Evaluate the defining product numerically on a grid; fully
    independent of the polynomial expansion and substitution machinery."""

    def product_eval(depth, u, v):
        total = Fraction(1)
        for j in range(depth):
            inner = sum(u[i] * v[i] for i in range(j, depth))
            bracket = 1 / v[j] - (1 / v[j - 1] if j > 0 else Fraction(0))
            total *= 1 - inner * bracket
        return total

    points = [Fraction(n) for n in (1, 2, 3, 4, 5)]
    for u1, u2, v1, z in iter_product(points, repeat=4):
        lhs = product_eval(2, (u1, u2), (v1, (u2 + z) / u2 * v1))
        rhs = (z + 1) * product_eval(1, (u1 + u2 + z,), (v1,))
        assert lhs == rhs


@pytest.mark.parametrize("depth", [2, 3])
def test_reindexing(depth):
    checks = check_reindexing(depth)
    assert all(c.status == "pass" for c in checks)


def test_expression_depth1():
    expr = shifted_zeta_expression(1)
    assert expr.terms == ((1, (0,), (0,)), (-1, (1,), (0,)))
    # reads as: value(s) = (1 - s) * zeta(s)
    text = "".join(rendered_text(1, expr))
    assert text == "value(s1) = zeta(s1) - poch(s1,1)*zeta(s1)"


def test_expression_round_trip_and_bijection():
    expr = shifted_zeta_expression(2)
    data = expr.to_json_dict()
    assert ShiftedZetaExpression.from_json_dict(data) == expr
    assert len(expr.terms) == len(coefficient_lookup(2))
    blob = json.dumps(data, sort_keys=True)
    assert json.dumps(json.loads(blob), sort_keys=True) == blob


@pytest.mark.parametrize("term, message", [
    ({"coef": 1, "l": [0], "m": [0, 0, 3]}, "does not have depth 2"),
    ({"coef": 1, "l": [0, 1, 2], "m": [0, 0]}, "does not have depth 2"),
    ({"coef": 1, "l": [-1, 0], "m": [0, 0]}, "negative Pochhammer degree"),
    ({"coef": 1, "l": [0, 0], "m": [1, 0]}, "do not sum to zero"),
    ({"coef": 1, "l": [0.5, 0], "m": [0, 0]}, "l entry must be an integer, got 0.5"),
    ({"coef": 1, "l": [True, 0], "m": [0, 0]}, "l entry must be an integer, got True"),
    ({"coef": 1, "l": [0, 0], "m": [1.0, -1]}, "m entry must be an integer, got 1.0"),
    ({"coef": 1, "l": [0, 0], "m": [False, 0]}, "m entry must be an integer, got False"),
    ({"coef": 1.7, "l": [0, 0], "m": [0, 0]}, "coef must be an integer, got 1.7"),
    ({"coef": "3", "l": [0, 0], "m": [0, 0]}, "coef must be an integer, got '3'"),
    ({"coef": True, "l": [0, 0], "m": [0, 0]}, "coef must be an integer, got True"),
    ({"coef": 0, "l": [0, 0], "m": [0, 0]}, "zero coefficient"),
])
def test_expression_refuses_malformed_terms(term, message):
    with pytest.raises(ValueError, match=message):
        ShiftedZetaExpression.from_json_dict({"depth": 2, "terms": [term]})


def test_expression_refuses_a_repeated_term():
    data = shifted_zeta_expression(2).to_json_dict()
    repeated = {**data, "terms": [*data["terms"], {**data["terms"][3], "coef": 5}]}
    with pytest.raises(ValueError, match=r"repeated term l=\(0, 2\), m=\(-1, 1\)"):
        ShiftedZetaExpression.from_json_dict(repeated)


@pytest.mark.parametrize("coef", [Fraction(1, 2), 1.0, "1"])
def test_expression_refuses_a_non_integer_coefficient_object(coef):
    with pytest.raises(ValueError, match="non-integer coefficient"):
        ShiftedZetaExpression(2, ((coef, (0, 0), (0, 0)),))


@pytest.mark.parametrize("depth", [2.0, "2", True])
def test_expression_refuses_a_non_integer_depth(depth):
    data = shifted_zeta_expression(2).to_json_dict()
    with pytest.raises(ValueError, match=f"depth must be an integer, got {depth!r}"):
        ShiftedZetaExpression.from_json_dict({**data, "depth": depth})


def test_zero_sum_constraint_enforced():
    for depth in (1, 2, 3, 4):
        for (_, m) in coefficient_lookup(depth):
            assert sum(m) == 0


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_expression_terms_are_sorted_and_the_lookup_matches(depth):
    terms = shifted_zeta_expression(depth).terms
    keys = [(l, m) for _, l, m in terms]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    lookup = coefficient_lookup(depth)
    assert lookup == {(l, m): coef for coef, l, m in terms}
    assert len(lookup) == len(terms)


def _code(depth, exps):
    """The code of an exponent vector l + m: each exponent plus 8 as one
    hex digit, u1 first and v_r last."""
    return int("".join(f"{e + 8:x}" for e in exps), 16)


def test_expression_refuses_a_non_integer_coefficient(monkeypatch):
    def halved(depth):
        return [_code(depth, (0,) * (2 * depth))], [Fraction(1, 2)]

    shifted_zeta_expression.cache_clear()
    monkeypatch.setattr(expansion, "expand", halved)
    try:
        with pytest.raises(ValueError, match="non-integer coefficient"):
            shifted_zeta_expression(2)
    finally:
        shifted_zeta_expression.cache_clear()


# ---------------------------------------------------------------------------
# the packed product against the tuple/Fraction product it replaced
# ---------------------------------------------------------------------------

def tuple_product(a, b):
    """The earlier ``LaurentPolynomial`` product: exponent tuples added
    entrywise, integer numerators over each operand's common denominator,
    one ``Fraction`` per output term.  The reference route; it lives only
    here."""
    from math import lcm
    from operator import add

    left_den = lcm(*(c.denominator for c in a.values()))
    right_den = lcm(*(c.denominator for c in b.values()))
    right = [(e, c.numerator * (right_den // c.denominator)) for e, c in b.items()]
    acc = {}
    for e1, c1 in a.items():
        n1 = c1.numerator * (left_den // c1.denominator)
        for e2, n2 in right:
            e = tuple(map(add, e1, e2))
            acc[e] = acc.get(e, 0) + n1 * n2
    return {e: Fraction(n, left_den * right_den) for e, n in acc.items() if n}


def defining_factors(depth):
    """The factors 1 - (u_j v_j + ... + u_r v_r)(1/v_j - 1/v_{j-1}) as
    exponent tuple -> Fraction dicts."""
    variables = shiftcoeffs.poly_variables(depth)
    zero = (0,) * (2 * depth)

    def unit(name, power=1):
        return tuple(power if v == name else 0 for v in variables)

    factors = []
    for j in range(1, depth + 1):
        factor = {zero: Fraction(1)}
        # -u_i v_i / v_j, and +u_i v_i / v_{j-1} past the first factor
        brackets = [(f"v{j}", -1)] + ([(f"v{j - 1}", 1)] if j > 1 else [])
        for i in range(j, depth + 1):
            for v, sign in brackets:
                e = tuple(map(sum, zip(unit(f"u{i}"), unit(f"v{i}"), unit(v, -1))))
                factor[e] = factor.get(e, Fraction(0)) + sign
        factors.append({e: c for e, c in factor.items() if c})
    return factors


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6, 7])
def test_packed_expansion_matches_the_tuple_product(depth):
    expected = {(0,) * (2 * depth): Fraction(1)}
    for factor in defining_factors(depth):
        expected = tuple_product(expected, factor)
    expected = sorted(expected.items())
    assert coefficient_polynomial(depth).sorted_terms() == expected
    # packed from the expansion's bytes in the stored form the constructor gives
    assert coefficient_polynomial(depth) == LaurentPolynomial(
        dict(expected), shiftcoeffs.poly_variables(depth))
    # the heap product's codes and the record's stream give the same
    # terms in the same order
    terms = [(c.numerator, e[:depth], e[depth:]) for e, c in expected]
    codes, coefs = expansion.family(depth)
    assert [(c, e[:depth], e[depth:])
            for c, e in expansion.terms(depth, codes, coefs)] == terms
    assert list(codes) == [_code(depth, e) for e, _ in expected]
    assert list(shiftcoeffs.shifted_zeta_terms(depth)) == terms


def test_each_term_is_checked_once(monkeypatch):
    # the terms are checked once, on their packed codes; _check_term only
    # runs to name a bad term, so a sound expansion never calls it
    calls = []
    check = expansion.check_term

    def counted(*term):
        calls.append(term)
        return check(*term)

    monkeypatch.setattr(expansion, "check_term", counted)
    shifted_zeta_expression.cache_clear()
    try:
        record = shifted_zeta_expression(4)
    finally:
        shifted_zeta_expression.cache_clear()
    assert len(record.terms) == 236
    assert calls == []


def _first_refusal(depth, codes, coefs):
    # the message check_term gives the first bad term, term by term
    for code, coef in zip(codes, coefs):
        exps = tuple(int(digit, 16) - 8 for digit in f"{code:0{2 * depth}x}")
        try:
            expansion.check_term(depth, coef, exps[:depth], exps[depth:])
        except ValueError as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("depth, extra, coef", [
    (2, {"u1": 7}, Fraction(1, 2)),
    (2, {"u2": -1}, 1),
    (2, {"v1": 1}, 1),
    (2, {"v1": -1}, 3),
    # shifts summing to 15, which the fields' sum modulo 2**4 - 1 alone
    # would take for zero
    (3, {"v1": 7, "v2": 7, "v3": 1}, 1),
    # sound terms, with fields at both ends of their range
    (2, {"u1": 7, "v1": 5, "v2": -5}, 1),
    (3, {"u3": 7, "v1": -7, "v2": 7}, 1),
    (7, {"u7": 7, "v1": 7, "v2": 7, "v3": 7, "v4": -7, "v5": -7, "v6": -8, "v7": 1}, -5),
    (2, {"u1": 7}, 0),
    # every v field at its largest, a sum of 15 * 7 = 105 in the lanes
    (7, {f"v{k}": 7 for k in range(1, 8)}, 1),
])
def test_packed_check_refuses_what_check_term_refuses(monkeypatch, depth, extra, coef):
    variables = shiftcoeffs.poly_variables(depth)
    code = _code(depth, [extra.get(name, 0) for name in variables])
    pairs = sorted([*zip(*expansion.expand(depth)), (code, coef)], key=lambda pair: pair[0])
    codes, coefs = [c for c, _ in pairs], [n for _, n in pairs]
    monkeypatch.setattr(expansion, "expand", lambda d: (codes, coefs))
    message = _first_refusal(depth, codes, coefs)
    if message is None:
        assert len(expansion.family(depth)[0]) == len(codes)
    else:
        with pytest.raises(ValueError) as refused:
            expansion.family(depth)
        assert str(refused.value) == message


@pytest.mark.parametrize("public", ["dmzv.coefficient_polynomial",
                                    "dmzv.shifted_zeta_expression",
                                    "shiftcoeffs.shifted_zeta_terms"])
def test_expansion_refuses_a_depth_its_codes_cannot_hold(public):
    # 2 * 8 fields of 4 bits would not fit a signed 64-bit code: the public
    # functions take depths 1..7, and refuse the rest before any arithmetic
    module, name = public.split(".")
    function = getattr({"dmzv": dmzv, "shiftcoeffs": shiftcoeffs}[module], name)
    for depth in (0, 8):
        with pytest.raises(ValueError, match=rf"depth must be in 1\.\.7, got {depth}"):
            function(depth)
    with pytest.raises(ValueError, match=r"depth must be in 1\.\.7, got 8"):
        expansion.expand(8)


def test_expression_streams_the_packed_polynomial():
    # the record holds the checked expansion itself; its terms are read
    # off it in sorted (l, m) order on each pass
    expr = shifted_zeta_expression(3)
    assert expr.polynomial == coefficient_polynomial(3)
    assert len(expr) == 38 and list(expr) == list(expr) == list(expr.terms)
    rebuilt = ShiftedZetaExpression(3, reversed(expr.terms))
    assert rebuilt.polynomial == expr.polynomial and rebuilt.terms == expr.terms


def test_expression_is_a_frozen_record():
    expr = shifted_zeta_expression(2)
    copy = ShiftedZetaExpression(2, list(expr.terms))
    assert copy == expr and hash(copy) == hash(expr) and copy is not expr
    assert copy.terms == expr.terms and type(copy.terms) is tuple
    assert ShiftedZetaExpression(2, expr.terms[1:]) != expr
    assert expr != (2, expr.terms)
    assert repr(ShiftedZetaExpression(1, ())) == "ShiftedZetaExpression(depth=1, terms=())"
    with pytest.raises(AttributeError):
        expr.depth = 3
    assert pickle.loads(pickle.dumps(expr)) == expr
    assert pickle.loads(pickle.dumps(expr)).polynomial == expr.polynomial
