"""The integer coefficient family behind the shifted-zeta representation.

The desingularized function of depth r is a finite integer-coefficient
combination of products of Pochhammer factors with argument-shifted
classical multiple zeta functions.  The coefficients are read off an
explicit Laurent polynomial: the product over j = 1..r of

    1 - (u_j v_j + ... + u_r v_r) * (1/v_j - 1/v_{j-1}),     1/v_0 := 0.

For every monomial, the u-exponents give the Pochhammer degrees l and the
v-exponents give the argument shifts m; the shifts of each monomial sum
to zero.  This module expands that product exactly, extracts the family,
verifies its structural identities, and exports the symbolic expression.

The family has one form, the record :class:`ShiftedZetaExpression`: the
depth and the expanded polynomial, every term of which has been checked
once.  Iterating the record reads the (coef, l, m) terms off the packed
polynomial in sorted (l, m) order, unpacking one at a time.
:func:`shifted_zeta_terms` expands and checks a fresh record, from which
``gr-coeffs`` writes all its formats; :func:`shifted_zeta_expression` is
the same call, cached, and every check reads its records, the merge
substitution their polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import product as iter_product
from typing import Iterable, Iterator, Mapping

from .multipoly import LaurentPolynomial
from .rationals import _layout, binomial, json_integer
from .report import Check, FrozenRecord

__all__ = [
    "coefficient_polynomial",
    "check_trailing_shift",
    "check_contraction",
    "check_merge_substitution",
    "check_reindexing",
    "ShiftedZetaExpression",
    "shifted_zeta_terms",
    "rendered_text",
    "shifted_zeta_expression",
]


def poly_variables(depth: int) -> tuple[str, ...]:
    return tuple(f"u{j}" for j in range(1, depth + 1)) + tuple(
        f"v{j}" for j in range(1, depth + 1)
    )


def coefficient_polynomial(depth: int) -> LaurentPolynomial:
    """Exact expansion of the defining product in u_1..u_r, v_1..v_r."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    variables = poly_variables(depth)
    one = LaurentPolynomial.constant(1, variables)
    poly = one
    for j in range(1, depth + 1):
        inner = LaurentPolynomial.zero(variables)
        for i in range(j, depth + 1):
            inner = inner + LaurentPolynomial.monomial(
                variables, {f"u{i}": 1, f"v{i}": 1}
            )
        bracket = LaurentPolynomial.monomial(variables, {f"v{j}": -1})
        if j > 1:
            bracket = bracket - LaurentPolynomial.monomial(variables, {f"v{j-1}": -1})
        poly = poly * (one - inner * bracket)
    return poly


def check_trailing_shift(depth: int) -> list[Check]:
    """Every nonzero coefficient has last shift in {l_r - 1, l_r} and >= 0."""
    expression = shifted_zeta_expression(depth)
    bad = []
    for value, l, m in expression:
        if m[-1] < 0 or m[-1] not in (l[-1] - 1, l[-1]):
            bad.append({"l": list(l), "m": list(m), "coefficient": value})
    desc = f"trailing-shift vanishing at depth {depth} ({len(expression)} entries)"
    return [Check.of(desc, {"violations": bad} if bad else None)]


def _zero_sum_vectors(length: int, lo: int, hi: int):
    """All integer vectors of the given length with entries in [lo, hi]
    summing to zero."""
    if length == 0:
        yield ()
        return
    for head in iter_product(range(lo, hi + 1), repeat=length - 1):
        last = -sum(head)
        if lo <= last <= hi:
            yield head + (last,)


def check_contraction(depth: int) -> list[Check]:
    """The two-sided contraction rule relating depth r to depth r - 1.

    For every l and every zero-sum (r-1)-vector m in the scanned range,
    the two coefficients at trailing shifts (m_{r-1} - l_r, l_r) and
    (m_{r-1} - l_r + 1, l_r - 1) sum to C(l_{r-1} + l_r, l_{r-1}) times
    the depth-(r-1) coefficient at (l', m), and that equals minus the
    coefficient at l with its last entry raised by one.  Unlisted
    coefficients read as zero; the scan covers the full support plus a
    margin of one in each l component.
    """
    if depth < 2:
        raise ValueError(f"contraction check needs depth >= 2, got {depth}")
    # each record as an (l, m) -> coefficient lookup
    cur = {(l, m): coef for coef, l, m in shifted_zeta_expression(depth)}
    prev = {(l, m): coef for coef, l, m in shifted_zeta_expression(depth - 1)}

    # the componentwise maximum of l over the support, plus one
    l_bounds = [max(column) + 1 for column in zip(*(l for l, _ in cur))]
    m_values: set[int] = set()
    for _, m in cur:
        m_values.update(m)
        m_values.add(m[-2] + m[-1])
    for _, m in prev:
        m_values.update(m)
    lo, hi = min(m_values | {0}), max(m_values | {0})

    bad = []
    count = 0
    for l in iter_product(*(range(b + 1) for b in l_bounds)):
        lr = l[-1]
        l_merged = l[:-2] + (l[-2] + l[-1],)
        for m in _zero_sum_vectors(depth - 1, lo, hi):
            count += 1
            left = cur.get((l, m[:-1] + (m[-1] - lr, lr)), 0) + cur.get(
                (l, m[:-1] + (m[-1] - lr + 1, lr - 1)), 0
            )
            mid = binomial(l[-2] + lr, l[-2]) * prev.get((l_merged, m), 0)
            right = -cur.get((l[:-1] + (lr + 1,), m[:-1] + (m[-1] - lr, lr)), 0)
            if left != mid or mid != right:
                bad.append(
                    {
                        "l": list(l),
                        "m": list(m),
                        "sum_of_pair": left,
                        "binomial_side": mid,
                        "raised_side": right,
                    }
                )
    desc = f"contraction identity at depth {depth} ({count} index pairs scanned)"
    return [Check.of(desc, {"violations": bad[:10]} if bad else None)]


def check_merge_substitution(depth: int) -> list[Check]:
    """Substituting v_r -> ((u_r + z)/u_r) v_{r-1} collapses the depth-r
    polynomial to (z + 1) times the depth-(r-1) polynomial with its last
    two u arguments merged into u_{r-1} + u_r + z.

    Both sides are multiplied by u_r**D, where D clears every negative
    u_r power the substitution introduces, and compared monomial by
    monomial as exact Laurent polynomials.  Both polynomials are those of
    the records :func:`shifted_zeta_expression` gives, so a fault in the
    family at either depth breaks the identity.  A term with a negative
    last shift has a negative power of v_r, which cannot be substituted
    into; the check then fails with that term as its witness.
    """
    if depth < 2:
        raise ValueError(f"merge substitution check needs depth >= 2, got {depth}")
    variables = poly_variables(depth) + ("z",)
    mono = partial(LaurentPolynomial.monomial, variables)
    prev_u, last_u, prev_v = f"u{depth-1}", f"u{depth}", f"v{depth-1}"
    expression = shifted_zeta_expression(depth)
    cur = expression.polynomial.with_variables(variables)
    try:
        lhs = cur.substitute(
            f"v{depth}", mono({prev_v: 1}) + mono({prev_v: 1, last_u: -1, "z": 1})
        )
    except ValueError:
        bad = next(((coef, l, m) for coef, l, m in expression if m[-1] < 0), None)
        if bad is None:
            raise
        coef, l, m = bad
        witness = {"negative_last_shift": {"l": list(l), "m": list(m), "coefficient": coef}}
        desc = f"merge substitution identity at depth {depth} (negative power of v{depth})"
        return [Check.of(desc, witness)]
    prev = shifted_zeta_expression(depth - 1).polynomial.with_variables(variables)
    merged_arg = mono({prev_u: 1}) + mono({last_u: 1}) + mono({"z": 1})
    rhs = (mono({}) + mono({"z": 1})) * prev.substitute(prev_u, merged_arg)

    clearing = max(0, -lhs.min_degree(last_u), -rhs.min_degree(last_u))
    lhs_cleared = lhs.shift_variable(last_u, clearing)
    rhs_cleared = rhs.shift_variable(last_u, clearing)

    witness = None
    if lhs_cleared != rhs_cleared:
        diff = lhs_cleared - rhs_cleared
        exps, coeff = diff.sorted_terms()[0]
        witness = {"monomial": dict(zip(diff.variables, exps)), "difference": str(coeff)}
    desc = f"merge substitution identity at depth {depth} (cleared by u{depth}^{clearing})"
    return [Check.of(desc, witness)]


def _regrouping_check(description: str, totals: dict, splits) -> Check:
    """Sum ``totals`` (vector -> coefficient sum) directly, then regroup it
    through the bijection v <-> (v_1..v_{r-2}, v_{r-1} + v_r; p=v_{r-1},
    q=v_r): over each merged vector w and each p in ``splits(w)``, with
    q = w_{r-1} - p.  The regrouping must hit every vector exactly once and
    preserve the total."""
    direct = sum(totals.values())
    keyed = {(v[:-2] + (v[-2] + v[-1],), v[-2], v[-1]): value for v, value in totals.items()}
    regrouped = 0
    hits = 0
    for merged in sorted({key[0] for key in keyed}):
        for p in splits(merged):
            key = (merged, p, merged[-1] - p)
            if key in keyed:
                regrouped += keyed[key]
                hits += 1
    witness = None
    if direct != regrouped or hits != len(totals):
        witness = {
            "direct_sum": direct,
            "regrouped_sum": regrouped,
            "hits": hits,
            "points": len(totals),
        }
    return Check.of(description, witness)


def check_reindexing(depth: int) -> list[Check]:
    """Regrouping correctness of the scans over the coefficient family.

    Shift side: summing over all zero-sum shift vectors n equals summing
    over zero-sum (r-1)-vectors m and integer splittings p + q = m_{r-1}.
    Degree side: summing over all degree vectors l equals summing over
    merged degree vectors k and non-negative splittings p + q = k_{r-1}.
    """
    if depth < 2:
        raise ValueError(f"reindexing check needs depth >= 2, got {depth}")
    shifts: dict[tuple[int, ...], int] = {}
    degrees: dict[tuple[int, ...], int] = {}
    for value, l, m in shifted_zeta_expression(depth):
        shifts[m] = shifts.get(m, 0) + value
        degrees[l] = degrees.get(l, 0) + value
    lo = min((min(n) for n in shifts), default=0)
    hi = max((max(n) for n in shifts), default=0)
    return [
        # a merged shift vector that is not zero-sum is outside the
        # regrouped range, so its points go unhit and the check fails
        _regrouping_check(
            f"shift regrouping at depth {depth} ({len(shifts)} shift vectors)",
            shifts,
            lambda m: range(lo, hi + 1) if sum(m) == 0 else (),
        ),
        _regrouping_check(
            f"degree regrouping at depth {depth} ({len(degrees)} degree vectors)",
            degrees,
            lambda k: range(k[-1] + 1),
        ),
    ]


Term = tuple[int, tuple[int, ...], tuple[int, ...]]


def _check_term(depth: int, coef, l: tuple[int, ...], m: tuple[int, ...]) -> None:
    """Refuse a term that is not of the given depth, whose coefficient is
    not a non-zero integer (an int, or a ``Fraction`` with denominator 1),
    whose l has a negative entry or whose shifts m do not sum to zero."""
    if len(l) != depth or len(m) != depth:
        raise ValueError(f"term l={l}, m={m} does not have depth {depth}")
    # a float has no denominator
    if getattr(coef, "denominator", None) != 1:
        raise ValueError(f"non-integer coefficient {coef} on l={l}, m={m}")
    if not coef:
        raise ValueError(f"zero coefficient on l={l}, m={m}")
    if min(l, default=0) < 0:
        raise ValueError(f"negative Pochhammer degree in l={l}")
    if sum(m) != 0:
        raise ValueError(f"shifts m={m} do not sum to zero")


def _render_term(coef: int, l: tuple[int, ...], m: tuple[int, ...]) -> str:
    if coef == -1:
        head = "-"
    elif coef == 1:
        head = ""
    else:
        head = f"{coef}*"
    factors = [f"poch(s{j},{lj})" for j, lj in enumerate(l, start=1) if lj]
    shifted = ", ".join(
        f"s{j}" + (f"{mj:+d}" if mj else "") for j, mj in enumerate(m, start=1)
    )
    factors.append(f"zeta({shifted})")
    return head + "*".join(factors)


def rendered_text(depth: int, terms: Iterable[Term]) -> Iterator[str]:
    """The one-line rendering of the terms, e.g. value(s1) = zeta(s1) -
    poch(s1,1)*zeta(s1), in pieces made while the terms are read: the
    head, then each term with the sign that joins it to the line."""
    yield "value(" + ", ".join(f"s{j}" for j in range(1, depth + 1)) + ") = "
    lead = ""
    for term in terms:
        text = _render_term(*term)
        if lead and text.startswith("-"):
            yield " - " + text[1:]
        else:
            yield lead + text
        lead = " + "


class ShiftedZetaExpression(FrozenRecord):
    """Symbolic transcription: value = sum of coef * prod_j (s_j)_{l_j}
    times the classical function at arguments shifted by m.

    The record holds the depth and the checked packed polynomial whose
    monomials u^l v^m carry the coefficients.  Iterating it unpacks the
    (coef, l, m) terms one at a time in sorted (l, m) order (each exponent
    tuple is l + m, so that is exponent order); :attr:`terms` is that
    stream as a tuple, built when read.  Exported as data only; nothing in
    this package evaluates it.
    """

    __slots__ = ("depth", "polynomial")

    def __new__(cls, depth: int, terms: Iterable[Term]):
        """The record of the given terms, each refused as
        :func:`_check_term` refuses it; a repeated (l, m) is refused too."""
        nums = {}
        for coef, l, m in terms:
            _check_term(depth, coef, l, m)
            key = (*l, *m)
            if key in nums:
                raise ValueError(f"repeated term l={l}, m={m}")
            nums[key] = coef
        return cls._of(depth, LaurentPolynomial(nums, poly_variables(depth)))

    @classmethod
    def _of(cls, depth: int, polynomial: LaurentPolynomial) -> "ShiftedZetaExpression":
        # the polynomial's terms have been checked
        out = object.__new__(cls)
        object.__setattr__(out, "depth", depth)
        object.__setattr__(out, "polynomial", polynomial)
        return out

    def __len__(self) -> int:
        return len(self.polynomial)

    def __iter__(self) -> Iterator[Term]:
        depth = self.depth
        for exps, n in self.polynomial.numerator_terms(ordered=True):
            yield n, exps[:depth], exps[depth:]

    @property
    def terms(self) -> tuple[Term, ...]:
        return tuple(self)

    def _fields(self) -> tuple:
        # equality, hashing and pickling go through the terms
        return self.depth, self.terms

    def __repr__(self) -> str:
        return f"{type(self).__name__}(depth={self.depth!r}, terms={self.terms!r})"

    def to_json_dict(self) -> dict:
        # l and m are the record's own tuples; JSON writes them as lists
        return {
            "depth": self.depth,
            "terms": [{"coef": coef, "l": l, "m": m} for coef, l, m in self],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ShiftedZetaExpression":
        """Inverse of :meth:`to_json_dict`; every coefficient, depth and
        entry of l and m must be a JSON integer (a float, a string or a
        bool is refused, not converted)."""
        terms = tuple(
            (
                json_integer(t["coef"], "coef"),
                tuple(json_integer(x, "l entry") for x in t["l"]),
                tuple(json_integer(x, "m entry") for x in t["m"]),
            )
            for t in data["terms"]
        )
        return cls(depth=json_integer(data["depth"], "depth"), terms=terms)


def _packed_terms_pass(depth: int, polynomial: LaurentPolynomial) -> bool:
    """Whether every term passes :func:`_check_term`, read off the packed
    codes without unpacking them.  The polynomial has the depth's 2 * depth
    variables, and its reduced denominator is 1 exactly when every
    coefficient is an integer.  A field holds its exponent plus 2**(w - 1),
    so an exponent is >= 0 exactly when its field's top bit is set: the u
    fields, the high half of a code, all have it when the code has every
    top bit of that half.  As 2**w = 1 modulo 2**w - 1, the low half (the v
    fields) is congruent to the sum of its fields, the shift sum plus depth
    * 2**(w - 1); that settles a zero sum when depth times the exponent
    bound is below the modulus.  False when a term fails, or when the
    fields are too wide for the residue to settle the sums."""
    if polynomial._nvars != 2 * depth or polynomial.denominator != 1:
        return False
    layout = _layout(2 * depth, polynomial._bound)
    modulus = (1 << layout.width) - 1
    if depth * polynomial._bound >= modulus:
        return False
    low = (1 << depth * layout.width) - 1
    top_bits = layout.zero & ~low
    zero_sum = (depth << layout.width - 1) % modulus
    return all(
        code & top_bits == top_bits and (code & low) % modulus == zero_sum
        for code in polynomial._nums
    )


def _first_bad_term(depth: int, polynomial: LaurentPolynomial) -> tuple[Term, str] | None:
    """The first term, in (l, m) order, that :func:`_check_term` refuses,
    with its message; None when every term passes.  The check runs on the
    packed codes; only when it does not pass are the terms unpacked, for
    :func:`_check_term` to name the first bad one."""
    if _packed_terms_pass(depth, polynomial):
        return None
    den = polynomial.denominator
    for exps, n in polynomial.numerator_terms(ordered=True):
        term = (Fraction(n, den), exps[:depth], exps[depth:])
        try:
            _check_term(depth, *term)
        except ValueError as exc:
            return term, str(exc)
    return None


def shifted_zeta_terms(depth: int) -> ShiftedZetaExpression:
    """The coefficient family of one depth, expanded afresh and uncached.

    Every term is checked once, before this returns, so a non-integer
    coefficient, a negative u-exponent or shifts that do not sum to zero,
    any of which would indicate an expansion bug, raise before the first
    term is read (:func:`_first_bad_term`).
    """
    polynomial = coefficient_polynomial(depth)
    bad = _first_bad_term(depth, polynomial)
    if bad is not None:
        raise ValueError(bad[1])
    return ShiftedZetaExpression._of(depth, polynomial)


# One cache entry per depth: a ``verify`` run, whose depth is capped at 6,
# needs depths 1 through 6.
@lru_cache(maxsize=8)
def shifted_zeta_expression(depth: int) -> ShiftedZetaExpression:
    """:func:`shifted_zeta_terms`, cached: the record every check reads."""
    return shifted_zeta_terms(depth)
