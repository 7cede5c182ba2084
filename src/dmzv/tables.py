"""Value tables of both families on integers alone: no ``fractions``.

The generating function is a product of one depth-1 factor F at
t_i + ... + t_r (arXiv 1804.05568); read at -k, that is the last-entry
recurrence zeta(k) = sum_c C(k_r, c) zeta(..., k_{r-1} + c) zeta(k_r - c).
Its depth-1 values q_n = n! [u^n] F come from F in divided-power
(Hurwitz-series) form (Keigher, "On the ring of Hurwitz series", 1997):
the product of two such series is the binomial convolution.  F is divided
by (e^u - 1)^2 or u (e^u - 1), not by the Bernoulli fill's (e^u - 1)/u, so
a table shares no input with the multi-sum that ``routes`` checks it by.
The same quotient builds the factors and the words kernel as series
(:func:`dmzv.series.quotient_series`).
"""

from itertools import product
from math import comb, gcd, lcm
from operator import add, mul

# n! [u^n], n >= 2, of the factor's numerator and denominator (0 at n < 2)
DIVIDED_POWERS = {"FKMT": (lambda n: 1 - n, lambda n: 2**n - 2),
                  "EMS": (lambda n: -1, lambda n: n)}


def divided_quotient(alpha, beta, valuation: int, order: int) -> tuple[list[int], int]:
    """q_m = m! [u^m] of a / b, m = 0..order, as numerators over their least
    common denominator D, and D, where n! [u^n] of a and b are alpha(n) and
    beta(n) from degree v = ``valuation`` on, both 0 below it, and
    beta(v) > 0.  A product of divided-power series is the binomial
    convolution, so each q_m is one integer dot product with a Pascal row."""
    v = valuation
    betas = [beta(j) for j in range(order + v + 1)]
    nums, den, row = [], 1, [1]  # row: C(n, 0..n)
    for n in range(order + v + 1):
        if n >= v:
            # C(m+v, m) beta_v q_m = alpha_{m+v} - sum_{i<m} C(m+v, i) beta_{m+v-i} q_i
            m = n - v
            p = alpha(n) * den - sum(map(mul, map(mul, row, betas[n:v:-1]), nums))
            q = den * row[m] * betas[v]
            g = gcd(p, q)
            p, q = p // g, q // g
            if den % q:  # the running denominator widens, as in BernoulliCache._fill
                scale = lcm(den, q) // den
                nums, den = [x * scale for x in nums], den * scale
            nums.append(p * (den // q))
        row = [1, *map(add, row, row[1:]), 1]  # Pascal's rule
    return nums, den


def depth1_numerators(family: str, order: int) -> tuple[list[int], int]:
    """The values at -n, n = 0..order, as numerators over their least
    common denominator D, and D.  The value at -n is (-1)^n q_n, q_n the
    :func:`divided_quotient` of the family's factor."""
    powers = DIVIDED_POWERS.get(family.upper())
    if powers is None:
        raise ValueError(f"unknown family {family.upper()!r}")
    nums, den = divided_quotient(*powers, 2, order)
    return [-n if m % 2 else n for m, n in enumerate(nums)], den


def last_level(family: str, depth: int, max_weight: int) -> tuple[list[int], int]:
    """The values at -k, k in [0, max_weight]^depth in lexicographic order,
    as numerators over D^depth, and D^depth.  Level d holds entries <=
    max_weight before its last, which runs to (depth - d + 1) * max_weight;
    each value is a dot product of a recurrence row and a run of level d - 1."""
    if depth < 1 or max_weight < 0:
        raise ValueError(f"depth must be >= 1 and max_weight >= 0, got {depth}, {max_weight}")
    level, den = depth1_numerators(family, depth * max_weight)
    recurrence = [[comb(b, c) * level[b - c] for c in range(b + 1)]
                  for b in range((depth - 1) * max_weight + 1)]
    for d in range(2, depth + 1):
        top = (depth - d + 1) * max_weight
        stride = top + max_weight + 1  # entries per prefix at level d - 1
        level = [sum(map(mul, recurrence[b], level[start + a:start + a + b + 1]))
                 for start in range(0, len(level), stride)
                 for a in range(max_weight + 1) for b in range(top + 1)]
    return level, den**depth


def rows(level: tuple[list[int], int], depth: int, max_weight: int):
    """(k, the value at -k as "p/q", or "p" when q is 1) for every k of a
    :func:`last_level`, in its order, each reduced by one gcd when read."""
    nums, den = level
    for k, n in zip(product(range(max_weight + 1), repeat=depth), nums):
        g = gcd(n, den)
        yield k, f"{n // g}/{den // g}" if g != den else str(n // g)


def value_rows(family: str, depth: int, max_weight: int):
    """The :func:`rows` of one family's table over [0, max_weight]^depth."""
    return rows(last_level(family, depth, max_weight), depth, max_weight)
