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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iter_product
from typing import Mapping

from .multipoly import LaurentPolynomial
from .rationals import binomial
from .report import Check

__all__ = [
    "coefficient_polynomial",
    "ShiftCoefficients",
    "shift_coefficients",
    "check_trailing_shift",
    "check_contraction",
    "check_merge_substitution",
    "check_reindexing",
    "ShiftedZetaExpression",
    "shifted_zeta_expression",
]


def poly_variables(depth: int) -> tuple[str, ...]:
    return tuple(f"u{j}" for j in range(1, depth + 1)) + tuple(
        f"v{j}" for j in range(1, depth + 1)
    )


# One cache entry per depth: a ``verify`` run, whose depth is capped at 6,
# needs depths 1 through 6.
@lru_cache(maxsize=8)
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


@dataclass(frozen=True)
class ShiftCoefficients:
    """Map (l, m) -> nonzero integer coefficient for one depth."""

    depth: int
    entries: Mapping[tuple[tuple[int, ...], tuple[int, ...]], int]

    def get(self, l: tuple[int, ...], m: tuple[int, ...]) -> int:
        """Coefficient at (l, m); unlisted pairs are zero."""
        return self.entries.get((tuple(l), tuple(m)), 0)

    def l_support_bounds(self) -> tuple[int, ...]:
        """Componentwise maximum of l over the support."""
        bounds = [0] * self.depth
        for l, _ in self.entries:
            for j, x in enumerate(l):
                bounds[j] = max(bounds[j], x)
        return tuple(bounds)


@lru_cache(maxsize=8)
def shift_coefficients(depth: int) -> ShiftCoefficients:
    """Read the coefficient family off the expanded polynomial.

    Raises if any monomial has a negative u-exponent, a non-integer
    coefficient, or shifts that do not sum to zero; any of those would
    indicate an expansion bug.
    """
    poly = coefficient_polynomial(depth)
    entries: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for exps, coeff in poly.terms.items():
        l = exps[:depth]
        m = exps[depth:]
        if any(e < 0 for e in l):
            raise ValueError(f"negative u-exponent in monomial {exps}")
        if sum(m) != 0:
            raise ValueError(f"nonzero m-sum on monomial {exps}")
        if coeff.denominator != 1:
            raise ValueError(f"non-integer coefficient {coeff} on monomial {exps}")
        entries[(l, m)] = int(coeff)
    return ShiftCoefficients(depth, entries)


def check_trailing_shift(depth: int) -> list[Check]:
    """Every nonzero coefficient has last shift in {l_r - 1, l_r} and >= 0."""
    coeffs = shift_coefficients(depth)
    checks = []
    bad = []
    for (l, m), value in sorted(coeffs.entries.items()):
        if m[-1] < 0 or m[-1] not in (l[-1] - 1, l[-1]):
            bad.append({"l": list(l), "m": list(m), "coefficient": value})
    desc = f"trailing-shift vanishing at depth {depth} ({len(coeffs.entries)} entries)"
    if bad:
        checks.append(Check.failed(desc, {"violations": bad}))
    else:
        checks.append(Check.passed(desc))
    return checks


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
    cur = shift_coefficients(depth)
    prev = shift_coefficients(depth - 1)

    l_bounds = [b + 1 for b in cur.l_support_bounds()]
    m_values: set[int] = set()
    for _, m in cur.entries:
        m_values.update(m)
        m_values.add(m[-2] + m[-1])
    for _, m in prev.entries:
        m_values.update(m)
    lo, hi = min(m_values | {0}), max(m_values | {0})

    checks = []
    bad = []
    count = 0
    for l in iter_product(*(range(b + 1) for b in l_bounds)):
        lr = l[-1]
        l_merged = l[:-2] + (l[-2] + l[-1],)
        for m in _zero_sum_vectors(depth - 1, lo, hi):
            count += 1
            left = cur.get(l, m[:-1] + (m[-1] - lr, lr)) + cur.get(
                l, m[:-1] + (m[-1] - lr + 1, lr - 1)
            )
            mid = binomial(l[-2] + lr, l[-2]) * prev.get(l_merged, m)
            right = -cur.get(l[:-1] + (lr + 1,), m[:-1] + (m[-1] - lr, lr))
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
    if bad:
        checks.append(Check.failed(desc, {"violations": bad[:10]}))
    else:
        checks.append(Check.passed(desc))
    return checks


def check_merge_substitution(depth: int) -> list[Check]:
    """Substituting v_r -> ((u_r + z)/u_r) v_{r-1} collapses the depth-r
    polynomial to (z + 1) times the depth-(r-1) polynomial with its last
    two u arguments merged into u_{r-1} + u_r + z.

    Both sides are multiplied by u_r**D, where D clears every negative
    u_r power the substitution introduces, and compared monomial by
    monomial as exact Laurent polynomials.
    """
    if depth < 2:
        raise ValueError(f"merge substitution check needs depth >= 2, got {depth}")
    variables = poly_variables(depth) + ("z",)
    cur = coefficient_polynomial(depth).with_variables(variables)

    last_v = f"v{depth}"
    prev_v = f"v{depth-1}"
    last_u = f"u{depth}"
    replacement = LaurentPolynomial.monomial(variables, {prev_v: 1}) + (
        LaurentPolynomial.monomial(variables, {prev_v: 1, last_u: -1, "z": 1})
    )
    lhs = cur.substitute(last_v, replacement)

    merged_arg = (
        LaurentPolynomial.monomial(variables, {f"u{depth-1}": 1})
        + LaurentPolynomial.monomial(variables, {last_u: 1})
        + LaurentPolynomial.monomial(variables, {"z": 1})
    )
    prev = coefficient_polynomial(depth - 1).with_variables(variables)
    rhs = (LaurentPolynomial.constant(1, variables) + LaurentPolynomial.monomial(variables, {"z": 1})) * prev.substitute(
        f"u{depth-1}", merged_arg
    )

    clearing = max(0, -lhs.min_degree(last_u), -rhs.min_degree(last_u))
    lhs_cleared = lhs.shift_variable(last_u, clearing)
    rhs_cleared = rhs.shift_variable(last_u, clearing)

    desc = f"merge substitution identity at depth {depth} (cleared by u{depth}^{clearing})"
    if lhs_cleared == rhs_cleared:
        return [Check.passed(desc)]
    diff = lhs_cleared - rhs_cleared
    exps, coeff = diff.sorted_terms()[0]
    witness = {
        "monomial": dict(zip(diff.variables, exps)),
        "difference": str(coeff),
    }
    return [Check.failed(desc, witness)]


def check_reindexing(depth: int) -> list[Check]:
    """Regrouping correctness of the scans over the coefficient family.

    Shift side: summing over all zero-sum shift vectors n equals summing
    over zero-sum (r-1)-vectors m and splittings p + q = m_{r-1}, via the
    bijection n <-> (m_1..m_{r-2}, n_{r-1} + n_r; p=n_{r-1}, q=n_r).
    Degree side: the same regrouping for l via l <-> (l', p=l_{r-1},
    q=l_r).  Both directions must hit every support point exactly once
    and preserve the total.
    """
    if depth < 2:
        raise ValueError(f"reindexing check needs depth >= 2, got {depth}")
    coeffs = shift_coefficients(depth)
    checks = []

    # shift side: sum over zero-sum n directly, then re-enumerate over
    # zero-sum (r-1)-vectors m and integer splittings p + q = m_{r-1}
    f: dict[tuple[int, ...], int] = {}
    for (_, m), value in coeffs.entries.items():
        f[m] = f.get(m, 0) + value
    direct = sum(f.values())
    lo = min((min(n) for n in f), default=0)
    hi = max((max(n) for n in f), default=0)
    keyed = {(n[:-2] + (n[-2] + n[-1],), n[-2], n[-1]): value for n, value in f.items()}
    regrouped = 0
    hit = 0
    m_candidates = {n[:-2] + (n[-2] + n[-1],) for n in f}
    for m in sorted(m_candidates):
        for p in range(lo, hi + 1):
            q = m[-1] - p
            key = (m, p, q)
            if key in keyed:
                regrouped += keyed[key]
                hit += 1
    desc = f"shift regrouping at depth {depth} ({len(f)} shift vectors)"
    if direct == regrouped and hit == len(f) and all(sum(m) == 0 for m in m_candidates):
        checks.append(Check.passed(desc))
    else:
        checks.append(
            Check.failed(
                desc,
                {"direct_sum": direct, "regrouped_sum": regrouped, "hits": hit, "points": len(f)},
            )
        )

    # degree side: sum over l directly, then re-enumerate over merged
    # degree vectors k and non-negative splittings p + q = k_{r-1}
    g: dict[tuple[int, ...], int] = {}
    for (l, _), value in coeffs.entries.items():
        g[l] = g.get(l, 0) + value
    direct_l = sum(g.values())
    keyed_l = {(l[:-2] + (l[-2] + l[-1],), l[-2], l[-1]): value for l, value in g.items()}
    regrouped_l = 0
    hit_l = 0
    k_candidates = {l[:-2] + (l[-2] + l[-1],) for l in g}
    for k in sorted(k_candidates):
        for p in range(k[-1] + 1):
            q = k[-1] - p
            key = (k, p, q)
            if key in keyed_l:
                regrouped_l += keyed_l[key]
                hit_l += 1
    desc = f"degree regrouping at depth {depth} ({len(g)} degree vectors)"
    if direct_l == regrouped_l and hit_l == len(g):
        checks.append(Check.passed(desc))
    else:
        checks.append(
            Check.failed(
                desc,
                {
                    "direct_sum": direct_l,
                    "regrouped_sum": regrouped_l,
                    "hits": hit_l,
                    "points": len(g),
                },
            )
        )
    return checks


@dataclass(frozen=True)
class ShiftedZetaExpression:
    """Symbolic transcription: value = sum of coef * prod_j (s_j)_{l_j}
    times the classical function at arguments shifted by m.

    Exported as data only; nothing in this package evaluates it.
    """

    depth: int
    terms: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]

    def to_json_dict(self) -> dict:
        return {
            "depth": self.depth,
            "terms": [
                {"coef": coef, "l": list(l), "m": list(m)} for coef, l, m in self.terms
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ShiftedZetaExpression":
        terms = tuple(
            (int(t["coef"]), tuple(t["l"]), tuple(t["m"])) for t in data["terms"]
        )
        return cls(depth=int(data["depth"]), terms=terms)

    def render_text(self) -> str:
        """Human-readable one-liner, e.g. zeta_des(s1) = (1 - s1) zeta(s1)."""
        args = ", ".join(f"s{j}" for j in range(1, self.depth + 1))
        bits = []
        for coef, l, m in self.terms:
            factors = []
            if coef == -1:
                head = "-"
            elif coef == 1:
                head = ""
            else:
                head = f"{coef}*"
            for j, lj in enumerate(l, start=1):
                if lj:
                    factors.append(f"poch(s{j},{lj})")
            shifted = ", ".join(
                f"s{j}" + (f"{mj:+d}" if mj else "") for j, mj in enumerate(m, start=1)
            )
            factors.append(f"zeta({shifted})")
            bits.append(head + "*".join(factors))
        return f"value({args}) = " + " + ".join(bits).replace("+ -", "- ")


def shifted_zeta_expression(depth: int) -> ShiftedZetaExpression:
    """Faithful transcription of the coefficient family, sorted by (l, m)."""
    coeffs = shift_coefficients(depth)
    terms = tuple(
        (value, l, m) for (l, m), value in sorted(coeffs.entries.items())
    )
    return ShiftedZetaExpression(depth, terms)
