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
expansion's packed codes and coefficients, read back in sorted (l, m)
order.  :func:`shifted_zeta_terms` builds a fresh record and
:func:`shifted_zeta_expression` a cached one, which every check reads.
Each check reads the records as plain dicts keyed by exponent tuples.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import product as iter_product
from typing import Iterable, Iterator, Mapping, Sequence

from .expansion import Term, check_depth, check_term, family, pack
from .expansion import terms as unpacked_terms
from .rationals import accumulate, binomial, json_integer, multinomial
from .report import Check, FrozenRecord

__all__ = [
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

    Both sides (:func:`merge_sides`) are multiplied by u_r**D, where D
    clears every negative u_r power the substitution introduces, and
    compared monomial by monomial.  Both polynomials are those of the
    records :func:`shifted_zeta_expression` gives, so a fault in the
    family at either depth breaks the identity.  A term with a negative
    last shift has a negative power of v_r, which cannot be substituted
    into; the check then fails with that term as its witness.
    """
    if depth < 2:
        raise ValueError(f"merge substitution check needs depth >= 2, got {depth}")
    bad = next(((coef, l, m) for coef, l, m in shifted_zeta_expression(depth) if m[-1] < 0),
               None)
    if bad is not None:
        coef, l, m = bad
        witness = {"negative_last_shift": {"l": list(l), "m": list(m), "coefficient": coef}}
        desc = f"merge substitution identity at depth {depth} (negative power of v{depth})"
        return [Check.of(desc, witness)]
    lhs, rhs = merge_sides(depth)
    lowest = min((key[depth - 1] for side in (lhs, rhs) for key in side), default=0)
    clearing = max(0, -lowest)
    # the difference, keyed as both sides are: shifting every key by
    # u_r**D keeps their order
    diff = accumulate(lhs, ((key, -n) for key, n in rhs.items()))
    witness = None
    if diff:
        key = min(diff)
        exps = (*key[:depth - 1], key[depth - 1] + clearing, *key[depth:])
        witness = {"monomial": dict(zip((*poly_variables(depth), "z"), exps)),
                   "difference": str(diff[key])}
    desc = f"merge substitution identity at depth {depth} (cleared by u{depth}^{clearing})"
    return [Check.of(desc, witness)]


def merge_sides(depth: int) -> tuple[dict, dict]:
    """The two sides of the merge substitution at depth r, each as
    {exponent tuple over u_1..u_r, v_1..v_r, z: coefficient}, expanded in
    closed form; every term of the depth-r record must have m_r >= 0.

    Left: (1 + z/u_r)**m_r by the binomial theorem takes c u^l v^m to
    C(m_r, j) c u^(l_1..l_{r-1}, l_r - j) v^(m_1..m_{r-2}, m_{r-1} + m_r, 0)
    z^j for j = 0..m_r.  Right: (u_{r-1} + u_r + z)**n times (1 + z) by the
    multinomial theorem takes the depth-(r-1) term c u^l v^m, n = l_{r-1},
    to multinomial(a, b, n - a - b) c u^(l_1..l_{r-2}, a, b) v^(m, 0)
    z^(n - a - b + e) for e in {0, 1}.
    """
    lhs = accumulate({}, (
        ((*l[:-1], l[-1] - j, *m[:-2], m[-2] + m[-1], 0, j), binomial(m[-1], j) * coef)
        for coef, l, m in shifted_zeta_expression(depth) for j in range(m[-1] + 1)))

    def merged(coef, l, m):
        n = l[-1]
        if n < 0:
            raise ValueError(f"cannot substitute into the negative power u{depth - 1}**{n}")
        for a in range(n + 1):
            for b in range(n - a + 1):
                c = multinomial((a, b, n - a - b)) * coef
                for e in (0, 1):
                    yield (*l[:-1], a, b, *m, 0, n - a - b + e), c

    rhs = accumulate({}, (term for coef, l, m in shifted_zeta_expression(depth - 1)
                          for term in merged(coef, l, m)))
    return lhs, rhs


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

    The record holds the depth, the codes of the monomials u^l v^m in
    increasing order, packed as :func:`expansion.pack` packs them, and
    their coefficients: the arrays of :func:`expansion.family`, or the
    constructor's checked terms.  Iterating it unpacks the (coef, l, m)
    terms one at a time in code order, which is sorted (l, m) order;
    :attr:`terms` is that stream as a tuple, built when read.  Exported as
    data only; nothing in this package evaluates it.
    """

    __slots__ = ("depth", "codes", "coefs")

    def __new__(cls, depth: int, terms: Iterable[Term]):
        """The record of the given terms, each refused as
        :func:`expansion.check_term` refuses it or when an exponent is
        outside [-8, 7]; a depth outside 1..7 and a repeated (l, m) are
        refused too."""
        check_depth(depth)
        coefs = {}
        for coef, l, m in terms:
            check_term(depth, coef, l, m)
            code = pack((*l, *m))
            if code in coefs:
                raise ValueError(f"repeated term l={l}, m={m}")
            coefs[code] = int(coef)
        codes = sorted(coefs)
        return cls._of(depth, array("q", codes), [coefs[code] for code in codes])

    @classmethod
    def _of(cls, depth: int, codes: Sequence[int], coefs: Sequence) -> "ShiftedZetaExpression":
        # the terms have been checked, and the codes are in increasing order
        out = object.__new__(cls)
        for name, value in zip(cls.__slots__, (depth, codes, coefs)):
            object.__setattr__(out, name, value)
        return out

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[Term]:
        depth = self.depth
        for coef, exps in unpacked_terms(depth, self.codes, self.coefs):
            yield coef, exps[:depth], exps[depth:]

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
    return ShiftedZetaExpression._of(depth, *family(depth))


# One cache entry per depth: a ``verify`` run, whose depth is capped at 6,
# needs depths 1 through 6.
@lru_cache(maxsize=8)
def shifted_zeta_expression(depth: int) -> ShiftedZetaExpression:
    """:func:`shifted_zeta_terms`, cached: the record every check reads."""
    return shifted_zeta_terms(depth)
