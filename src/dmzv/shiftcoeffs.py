"""The integer coefficient family behind the shifted-zeta representation.

The desingularized function of depth r is a finite integer-coefficient
combination of products of Pochhammer factors with argument-shifted
classical multiple zeta functions.  The coefficients are read off an
explicit Laurent polynomial: the product over j = 1..r of

    1 - (u_j v_j + ... + u_r v_r) * (1/v_j - 1/v_{j-1}),     1/v_0 := 0.

For every monomial, the u-exponents give the Pochhammer degrees l and the
v-exponents give the argument shifts m; the shifts of each monomial sum
to zero.  :mod:`dmzv.expansion` expands that product on integers, and
``gr-coeffs`` writes every format from there; this module holds the
family as a record and verifies its structural identities.

The record :class:`ShiftedZetaExpression` holds the depth and the
:func:`coefficient_polynomial`, the ``LaurentPolynomial`` of the
expansion's checked terms, read back in sorted (l, m) order.
:func:`shifted_zeta_terms` builds a fresh record and
:func:`shifted_zeta_expression` a cached one, which every check reads.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import product as iter_product
from typing import Iterable, Iterator, Mapping

from .expansion import Term, byte_codes, check_term, family
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
    "shifted_zeta_expression",
]


def poly_variables(depth: int) -> tuple[str, ...]:
    return tuple(f"u{j}" for j in range(1, depth + 1)) + tuple(
        f"v{j}" for j in range(1, depth + 1)
    )


def coefficient_polynomial(depth: int) -> LaurentPolynomial:
    """Exact expansion of the defining product in u_1..u_r, v_1..v_r, the
    checked terms of :func:`expansion.family`; a depth outside 1..7 raises."""
    # every exponent is in [-2, depth] and u_r**depth is a term: byte fields
    codes, coefs = family(depth)
    zero = _layout(2 * depth, depth).zero
    nums = {code ^ zero: n for code, n in zip(byte_codes(depth, codes), coefs)}
    return object.__new__(LaurentPolynomial)._set(nums, 1, poly_variables(depth), 2 * depth, depth)


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
        :func:`expansion.check_term` refuses it; a repeated (l, m) is
        refused too."""
        nums = {}
        for coef, l, m in terms:
            check_term(depth, coef, l, m)
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


def shifted_zeta_terms(depth: int) -> ShiftedZetaExpression:
    """The coefficient family of one depth (1..7), expanded afresh and
    uncached, every term checked before this returns (:func:`expansion.family`)."""
    return ShiftedZetaExpression._of(depth, coefficient_polynomial(depth))


# One cache entry per depth: a ``verify`` run, whose depth is capped at 6,
# needs depths 1 through 6.
@lru_cache(maxsize=8)
def shifted_zeta_expression(depth: int) -> ShiftedZetaExpression:
    """:func:`shifted_zeta_terms`, cached: the record every check reads."""
    return shifted_zeta_terms(depth)
