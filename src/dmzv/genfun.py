"""Generating functions and exact values of the two zeta-value families.

Both families have the same generating-function shape: a product over i
of one depth-1 factor evaluated at T_i = t_i + ... + t_r.  A
:class:`Family` record holds everything that tells them apart (the
factor, the multi-sum row weight that its coefficients give, and the
names), and each computation below is written once over that record.

Values come by two routes that share no input.  The generating-function
route reads the value at -k as (-1)^{k_1+...+k_r} k_1! ... k_r! times the
coefficient of t^k: off the truncated multivariate series built here, or,
for a whole table, off the same product without a series
(:mod:`dmzv.tables`).  The Bernoulli multi-sum computes single values: a
sum over the row-tail vectors of the upper-triangular non-negative
integer matrices with prescribed column sums, each counted with its
integer multinomial weight and weighted by one Bernoulli factor per row
tail.  It never builds a series and is the witness the ``routes`` suite
checks tables against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from operator import add, index, mul
from typing import Callable, Iterable, NamedTuple, Sequence

from .bernoulli import BernoulliCache, bernoulli
from .multiseries import MultiSeries, substitute_linear_form
from .rationals import _over_one_denominator, exact_sum, multinomial
from .series import UniSeries, quotient_series

__all__ = [
    "Family",
    "FKMT",
    "EMS",
    "FAMILIES",
    "fkmt_factor",
    "ems_factor",
    "ems_prefactor",
    "fkmt_series",
    "ems_series",
    "ems_series_from_fkmt",
    "fkmt_value",
    "ems_value",
    "conversion_table",
    "index_box",
    "value_table",
    "series_value_table",
]

# ---------------------------------------------------------------------------
# depth-1 factors
# ---------------------------------------------------------------------------

# Entries kept by each cached factor and series builder below.  A
# ``verify`` run builds at most 10 factors of one kind, also at its largest
# accepted caps.  The series it compares are read once, so built uncached;
# ``fkmt_series`` and ``ems_series`` serve rereads.
SERIES_CACHE_SIZE = 32


def _family_factor(name: str, order: int) -> UniSeries:
    # the quotient of the family's divided powers, both from degree 2
    from .tables import DIVIDED_POWERS  # here, so that ``convert`` does not load it

    return quotient_series(*DIVIDED_POWERS[name], 2, order)


@lru_cache(maxsize=SERIES_CACHE_SIZE)
def fkmt_factor(order: int) -> UniSeries:
    """((1 - u) exp(u) - 1) / (exp(u) - 1)^2, exact through ``order``.

    Numerator and denominator both vanish to second order, with n! [u^n]
    1 - n and 2^n - 2.  Expansion starts -1/2 + u/6 + ...
    """
    return _family_factor("FKMT", order)


@lru_cache(maxsize=SERIES_CACHE_SIZE)
def ems_factor(order: int) -> UniSeries:
    """(u - (exp(u) - 1)) / (u (exp(u) - 1)), exact through ``order``.

    Equals 1/(exp(u) - 1) - 1/u; n! [u^n] of numerator and denominator
    are -1 and n from degree 2.  Expansion starts -1/2 + u/12 + ...
    """
    return _family_factor("EMS", order)


@lru_cache(maxsize=SERIES_CACHE_SIZE)
def ems_prefactor(order: int) -> UniSeries:
    """(1 - exp(-u)) / u, the unit factor of the family conversion: n! [u^n]
    (-1)^(n+1) over the monomial u."""
    return quotient_series(lambda n: (-1) ** (n + 1), lambda n: int(n == 1), 1, order)


def _tail_weights(depth: int, i: int) -> tuple[int, ...]:
    # weights selecting t_i + t_{i+1} + ... + t_depth
    return (0,) * (i - 1) + (1,) * (depth - i + 1)


def _product_series(family: Family, depth: int, cap: int) -> MultiSeries:
    # the product over i of the family's depth-1 factor at t_i + ... + t_depth
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    factor = family.factor(depth * cap)
    out = MultiSeries.constant(1, depth, cap)
    for i in range(1, depth + 1):
        out = out * substitute_linear_form(factor, _tail_weights(depth, i), cap)
    return out


@lru_cache(maxsize=SERIES_CACHE_SIZE)
def fkmt_series(depth: int, cap: int) -> MultiSeries:
    """Generating function of the desingularized values."""
    return _product_series(FKMT, depth, cap)


@lru_cache(maxsize=SERIES_CACHE_SIZE)
def ems_series(depth: int, cap: int) -> MultiSeries:
    """Generating function of the renormalized values."""
    return _product_series(EMS, depth, cap)


def ems_series_from_fkmt(depth: int, cap: int) -> MultiSeries:
    """The renormalized generating function built from the desingularized
    one: flip the sign of every variable and multiply by the unit
    prefactor (1 - exp(-(t_i + ... + t_r))) / (t_i + ... + t_r) for each i."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    prefactor = ems_prefactor(depth * cap)
    # a build of its own, like the product below: the desingularized
    # series is not cached for it
    out = _product_series(FKMT, depth, cap).negate_variables()
    for i in range(1, depth + 1):
        out = out * substitute_linear_form(prefactor, _tail_weights(depth, i), cap)
    return out


# ---------------------------------------------------------------------------
# the two families
# ---------------------------------------------------------------------------

RowWeight = Callable[[int, BernoulliCache | None], Fraction]


class Family(NamedTuple):
    """Everything that tells one value family from the other.

    ``factor(order)`` is the depth-1 factor of the generating function.
    Row ``n`` of the multi-sum is weighted by ``row_weight(n, cache)``,
    which is also (-1)^n times the depth-1 value at -n.  ``label`` names
    the family in check descriptions.
    """

    name: str
    label: str
    factor: Callable[[int], UniSeries]
    row_weight: RowWeight


FKMT = Family("FKMT", "desingularized", fkmt_factor, lambda n, cache: bernoulli(n + 1, cache))
EMS = Family(
    "EMS", "renormalized", ems_factor, lambda n, cache: bernoulli(n + 1, cache) / (n + 1)
)
FAMILIES = {family.name: family for family in (FKMT, EMS)}


# ---------------------------------------------------------------------------
# values: Bernoulli multi-sum route
# ---------------------------------------------------------------------------

def _checked_index(k: Sequence[int]) -> tuple[int, ...]:
    k = tuple(map(index, k))
    if not k:
        raise ValueError("the multi-index must have depth >= 1")
    if any(x < 0 for x in k):
        raise ValueError(f"multi-index entries must be >= 0, got {k}")
    return k


def _compositions(total: int, parts: int):
    # all ordered tuples of `parts` non-negative integers summing to `total`,
    # in lexicographic order (fixed for reproducibility of traces)
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


# The multi-sum's columns, by entry total, number of rows and field width
# (89 in a default ``verify`` run, 133 at its largest accepted caps): the
# entries of each, packed one per `width`-bit field with row i at bit
# i * width, and its multinomial count.
@lru_cache(maxsize=256)
def _column(total: int, parts: int, width: int) -> tuple[tuple[int, int], ...]:
    return tuple((sum(e << (i * width) for i, e in enumerate(entries)), multinomial(entries))
                 for entries in _compositions(total, parts))


def _multisum(k: tuple[int, ...], cache: BernoulliCache | None, row_weight: RowWeight) -> Fraction:
    # The sum over every upper-triangular matrix (nu_ij), 1 <= i <= j <= r,
    # whose column sums are the entries of k, of prod_j k_j! / prod_i nu_ij!
    # times prod_i row_weight(nu_ii + ... + nu_ir).  Matrices with the same
    # row-tail vector carry the same weight, so the columns are folded in
    # one at a time, keeping only the integer multinomial count of each
    # partial row-tail vector; the weights are read once per distinct tail
    # vector at the end.  A tail vector is packed into one int, row i in
    # the field at bit i * width: every entry is at most sum(k), so no field
    # overflows, and adding a column's entries is one int sum.
    width = max(sum(k), 1).bit_length()
    tails: dict[int, int] = {0: 1}
    for j, total in enumerate(k):
        column = _column(total, j + 1, width)
        folded: dict[int, int] = {}
        get = folded.get
        for tail, count in tails.items():
            for entries, ways in column:
                key = tail + entries
                folded[key] = get(key, 0) + count * ways
        tails = folded
    mask = (1 << width) - 1
    shifts = range(0, len(k) * width, width)
    weights: dict[int, tuple[int, int]] = {}

    def terms():
        # Each tail vector reads its rows' weights in row order up to the
        # first zero, as the matrix-by-matrix enumeration does; the others
        # go to exact_sum as (count times weights, denominator) pairs.
        for tail, count in tails.items():
            den = 1
            for shift in shifts:
                n = tail >> shift & mask
                weight = weights.get(n)
                if weight is None:
                    value = row_weight(n, cache)
                    weight = weights[n] = (value.numerator, value.denominator)
                if not weight[0]:
                    break
                count *= weight[0]
                den *= weight[1]
            else:
                yield count, den

    total = exact_sum(terms())
    return -total if sum(k) % 2 else total


def fkmt_value(k: Sequence[int], cache: BernoulliCache | None = None) -> Fraction:
    """Desingularized value at -k via the Bernoulli multi-sum, with row
    weight B_{n+1}.  No truncation bookkeeping is needed, so this route
    handles index entries of any size."""
    return _multisum(_checked_index(k), cache, FKMT.row_weight)


def ems_value(k: Sequence[int], cache: BernoulliCache | None = None) -> Fraction:
    """Renormalized value at -k via the same multi-sum with row weight
    B_{n+1} / (n+1)."""
    return _multisum(_checked_index(k), cache, EMS.row_weight)


# ---------------------------------------------------------------------------
# depth-1 conversion between the families
# ---------------------------------------------------------------------------

ConversionRow = tuple[Fraction, Fraction, Fraction, Fraction]


def conversion_table(max_weight: int, cache: BernoulliCache | None = None) -> list[ConversionRow]:
    """Rows k = 0..max_weight of the depth-1 conversion table:
    (desingularized value at -k, renormalized value at -k, first residual,
    second residual).

    The residuals are LHS - RHS of the two conversion relations.  First:
    the renormalized value as a binomial combination of desingularized
    ones weighted by (-1)^j / (i+1).  Second: the desingularized value as
    a Bernoulli-weighted combination of renormalized ones.  Both are 0.

    Each depth-1 value (multi-sum route) and each Bernoulli number is read
    once for the whole table.  Each list of values is put over one common
    denominator, and each residual is one integer dot product against a
    row of binomials, stepped by Pascal's rule.
    """
    if max_weight < 0:
        raise ValueError(f"max_weight must be >= 0, got {max_weight}")
    weights = range(max_weight + 1)
    fkmt = [fkmt_value((j,), cache) for j in weights]
    ems = [ems_value((j,), cache) for j in weights]
    f, f_den = _over_one_denominator(fkmt)
    e, e_den = _over_one_denominator(ems)
    b, b_den = _over_one_denominator([bernoulli(i, cache) for i in weights])
    # (-1)^j fkmt_j, as numerators over f_den
    signed_f = [-n if j % 2 else n for j, n in enumerate(f)]
    rows = []
    row = [1]  # C(k, 0..k)
    for k in weights:
        wider = [1, *map(add, row, row[1:]), 1]  # C(k+1, 0..k+1)
        # ems_k - sum_i C(k, i) (-1)^j / (i+1) fkmt_j, with j = k - i and
        # C(k, i) / (i+1) = C(k+1, i+1) / (k+1)
        dot = sum(map(mul, wider[1:], signed_f[k::-1]))
        first = Fraction(e[k] * (k + 1) * f_den - dot * e_den, (k + 1) * f_den * e_den)
        # fkmt_k - (-1)^k sum_i C(k, i) B_i ems_j
        dot = sum(map(mul, map(mul, row, b), e[k::-1]))
        second = Fraction(f[k] * b_den * e_den - (-dot if k % 2 else dot) * f_den,
                          f_den * b_den * e_den)
        rows.append((fkmt[k], ems[k], first, second))
        row = wider
    return rows


# ---------------------------------------------------------------------------
# value tables
# ---------------------------------------------------------------------------

def index_box(depth: int, max_weight: int) -> Iterable[tuple[int, ...]]:
    """Every depth-``depth`` multi-index with entries <= max_weight, in
    lexicographic order."""
    return iter_product(range(max_weight + 1), repeat=depth)


def value_table(family: str, depth: int, max_weight: int) -> dict[tuple[int, ...], Fraction]:
    """The value at -k for every k with entries <= max_weight, keyed by k
    in lexicographic order, from :func:`dmzv.tables.last_level`."""
    from .tables import last_level  # here, so that ``convert`` does not load it

    nums, den = last_level(family, depth, max_weight)
    return {k: Fraction(n, den) for k, n in zip(index_box(depth, max_weight), nums)}


# the name under which the benchmark's layer tracer spans value tables
series_value_table = value_table
