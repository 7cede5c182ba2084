"""Generating functions and exact values of the two zeta-value families.

Both families have the same generating-function shape: a product over i
of one depth-1 factor evaluated at T_i = t_i + ... + t_r.  A
:class:`Family` record holds everything that tells them apart (the
factor, the multi-sum row weight that its coefficients give, and the
names), and each computation below is written once over that record.

Two independent routes are provided for each family:

* a series route: build the closed-form generating function as a
  truncated multivariate series and read values off its coefficients
  (value = (-1)^{k_1+...+k_r} * k_1! ... k_r! * coefficient);
* a Bernoulli multi-sum route: enumerate upper-triangular non-negative
  integer matrices with prescribed column sums and weight each row tail
  with a Bernoulli factor.

The series route never touches the Bernoulli table and the multi-sum
route never builds a series, so agreement between them is a meaningful
check rather than a tautology.  Value tables come from the series route:
one generating function covers a whole box of indices.  The multi-sum
computes single values and is the witness the ``routes`` suite checks
tables against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from math import factorial
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .bernoulli import BernoulliCache, bernoulli
from .multiseries import MultiSeries, substitute_linear_form
from .rationals import binomial, format_rational, parse_rational
from .series import UniSeries, divide_with_valuation, exp_minus_one, exp_series

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
    "fkmt_value_series",
    "ems_value_series",
    "fkmt_value",
    "ems_value",
    "depth1_conversion_residuals",
    "ValueTable",
    "value_table",
    "series_value_table",
]

# ---------------------------------------------------------------------------
# depth-1 factors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def fkmt_factor(order: int) -> UniSeries:
    """((1 - u) exp(u) - 1) / (exp(u) - 1)^2, exact through ``order``.

    Numerator and denominator both vanish to second order, hence the
    guarded division.  Expansion starts -1/2 + u/6 + ...
    """
    work = order + 2
    e = exp_series(work)
    num = e - e.shift(1) - UniSeries.one(work)
    den = exp_minus_one(work) * exp_minus_one(work)
    return divide_with_valuation(num, den)


@lru_cache(maxsize=None)
def ems_factor(order: int) -> UniSeries:
    """(u - (exp(u) - 1)) / (u (exp(u) - 1)), exact through ``order``.

    Equals 1/(exp(u) - 1) - 1/u; expansion starts -1/2 + u/12 + ...
    """
    work = order + 2
    num = UniSeries.monomial(1, work) - exp_minus_one(work)
    den = exp_minus_one(work).shift(1)
    return divide_with_valuation(num, den)


@lru_cache(maxsize=None)
def ems_prefactor(order: int) -> UniSeries:
    """(1 - exp(-u)) / u, the unit factor of the family conversion."""
    work = order + 1
    num = -(exp_minus_one(work).negate_variable())
    den = UniSeries.monomial(1, work)
    return divide_with_valuation(num, den)


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


@lru_cache(maxsize=None)
def fkmt_series(depth: int, cap: int) -> MultiSeries:
    """Generating function of the desingularized values."""
    return _product_series(FKMT, depth, cap)


@lru_cache(maxsize=None)
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
    out = fkmt_series(depth, cap).negate_variables()
    for i in range(1, depth + 1):
        out = out * substitute_linear_form(prefactor, _tail_weights(depth, i), cap)
    return out


# ---------------------------------------------------------------------------
# the two families
# ---------------------------------------------------------------------------

RowWeight = Callable[[int, BernoulliCache | None], Fraction]


class Family(NamedTuple):
    """Everything that tells one value family from the other.

    ``factor(order)`` is the depth-1 factor of the generating function and
    ``series`` the cached generating function built from it.  Row ``n`` of
    the multi-sum is weighted by ``row_weight(n, cache)``, which is also
    (-1)^n times the depth-1 value at -n.  ``label`` names the family in
    check descriptions.
    """

    name: str
    label: str
    factor: Callable[[int], UniSeries]
    series: Callable[[int, int], MultiSeries]
    row_weight: RowWeight


# ``series`` calls the module-level entry point by name, so a wrapper
# installed on it (a profiler's, or the benchmark's layer tracer) also
# sees the calls made through the record.
FKMT = Family(
    "FKMT",
    "desingularized",
    fkmt_factor,
    lambda depth, cap: fkmt_series(depth, cap),
    lambda n, cache: bernoulli(n + 1, cache),
)
EMS = Family(
    "EMS",
    "renormalized",
    ems_factor,
    lambda depth, cap: ems_series(depth, cap),
    lambda n, cache: bernoulli(n + 1, cache) / (n + 1),
)
FAMILIES = {family.name: family for family in (FKMT, EMS)}


# ---------------------------------------------------------------------------
# values: series-extraction route
# ---------------------------------------------------------------------------

def _coefficient_to_value(coeff: Fraction, k: Sequence[int]) -> Fraction:
    sign = -1 if sum(k) % 2 else 1
    fact = 1
    for x in k:
        fact *= factorial(x)
    return sign * fact * coeff


def _checked_index(k: Sequence[int]) -> tuple[int, ...]:
    k = tuple(int(x) for x in k)
    if not k:
        raise ValueError("the multi-index must have depth >= 1")
    if any(x < 0 for x in k):
        raise ValueError(f"multi-index entries must be >= 0, got {k}")
    return k


def _value_series(family: Family, k: Sequence[int]) -> Fraction:
    k = _checked_index(k)
    series = family.series(len(k), max(k))
    return _coefficient_to_value(series.coefficient(k), k)


def fkmt_value_series(k: Sequence[int]) -> Fraction:
    """Desingularized value at -k, read off the generating function."""
    return _value_series(FKMT, k)


def ems_value_series(k: Sequence[int]) -> Fraction:
    """Renormalized value at -k, read off the generating function."""
    return _value_series(EMS, k)


# ---------------------------------------------------------------------------
# values: Bernoulli multi-sum route
# ---------------------------------------------------------------------------

def _compositions(total: int, parts: int):
    # all ordered tuples of `parts` non-negative integers summing to `total`,
    # in lexicographic order (fixed for reproducibility of traces)
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _multisum(k: tuple[int, ...], cache: BernoulliCache | None, row_weight: RowWeight) -> Fraction:
    # every upper-triangular matrix (nu_ij), 1 <= i <= j <= r, whose column
    # sums are the entries of k, with row i weighted by
    # row_weight(nu_ii + ... + nu_ir)
    r = len(k)
    columns = [list(_compositions(k[j], j + 1)) for j in range(r)]
    numerator = 1
    for x in k:
        numerator *= factorial(x)
    total = Fraction(0)
    for cols in iter_product(*columns):
        row_tails = [0] * r
        denom = 1
        for col in cols:
            for i, entry in enumerate(col):
                row_tails[i] += entry
                denom *= factorial(entry)
        term = Fraction(numerator, denom)
        for tail in row_tails:
            weight = row_weight(tail, cache)
            if not weight:
                term = Fraction(0)
                break
            term *= weight
        total += term
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

def depth1_conversion_residuals(
    k: int, cache: BernoulliCache | None = None
) -> tuple[Fraction, Fraction]:
    """Residuals (LHS - RHS) of the two depth-1 conversion relations.

    First: the renormalized value as a binomial combination of
    desingularized ones weighted by (-1)^j / (i+1).  Second: the
    desingularized value as a Bernoulli-weighted combination of
    renormalized ones.  Both residuals are 0.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    ems_from_fkmt = Fraction(0)
    for i in range(k + 1):
        j = k - i
        sign = -1 if j % 2 else 1
        ems_from_fkmt += binomial(k, i) * Fraction(sign, i + 1) * fkmt_value((j,), cache)
    first = ems_value((k,), cache) - ems_from_fkmt

    fkmt_from_ems = Fraction(0)
    for i in range(k + 1):
        j = k - i
        fkmt_from_ems += binomial(k, i) * bernoulli(i, cache) * ems_value((j,), cache)
    if k % 2:
        fkmt_from_ems = -fkmt_from_ems
    second = fkmt_value((k,), cache) - fkmt_from_ems
    return first, second


# ---------------------------------------------------------------------------
# value tables
# ---------------------------------------------------------------------------

@dataclass
class ValueTable:
    """A grid of exact values for one family at one depth."""

    family: str
    depth: int
    entries: dict[tuple[int, ...], Fraction]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {tuple(FAMILIES)}, got {self.family!r}")
        for key in self.entries:
            if len(key) != self.depth:
                raise ValueError(f"multi-index {key} does not have depth {self.depth}")

    def value(self, k: Sequence[int]) -> Fraction:
        return self.entries[tuple(k)]

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "depth": self.depth,
            "values": [
                {"args": list(k), "value": format_rational(v)}
                for k, v in sorted(self.entries.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ValueTable":
        entries = {
            tuple(row["args"]): parse_rational(row["value"]) for row in data["values"]
        }
        return cls(family=data["family"], depth=int(data["depth"]), entries=entries)

    def to_csv_rows(self) -> list[list[str]]:
        header = [f"k{i}" for i in range(1, self.depth + 1)] + ["value"]
        rows = [header]
        for k, v in sorted(self.entries.items()):
            rows.append([str(x) for x in k] + [format_rational(v)])
        return rows


def _index_box(depth: int, max_weight: int) -> Iterable[tuple[int, ...]]:
    return iter_product(range(max_weight + 1), repeat=depth)


def value_table(family: str, depth: int, max_weight: int) -> ValueTable:
    """All values with index entries <= max_weight, read off one generating
    function that covers the whole box [0, max_weight]^depth."""
    fam = FAMILIES.get(family.upper())
    if fam is None:
        raise ValueError(f"unknown family {family.upper()!r}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if max_weight < 0:
        raise ValueError(f"max_weight must be >= 0, got {max_weight}")
    series = fam.series(depth, max_weight)
    entries = {
        k: _coefficient_to_value(series.coefficient(k), k)
        for k in _index_box(depth, max_weight)
    }
    return ValueTable(fam.name, depth, entries)


# Second name of value_table, kept for existing callers; the benchmark's
# layer tracer spans value tables under this name.
series_value_table = value_table
