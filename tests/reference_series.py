"""The series division chain the package built its depth-1 series by,
kept as the reference route the divided-power builders are checked
against: a guarded division of two ``UniSeries`` on their integer
numerators, its Laurent form, the exponential series, and the factors,
the conversion prefactor and the words kernel built from them.  It
shares no code with :func:`dmzv.tables.divided_quotient`."""

from math import factorial, gcd

from dmzv.series import UniSeries


def divide_with_valuation(num: UniSeries, den: UniSeries) -> UniSeries:
    """Exact quotient num/den when valuation(num) >= valuation(den), so the
    quotient has no pole.

    The quotient q satisfies q * den = num through the common representable
    order, which is min(num.order, den.order) - valuation(den).
    """
    if den.is_zero():
        raise ValueError("division by the zero series")
    vn, vd = num.valuation(), den.valuation()
    if not num.is_zero() and vn < vd:
        raise ValueError(f"valuation mismatch: numerator valuation {vn} < denominator valuation {vd}")
    order = min(num.order, den.order) - vd
    if order < 0:
        raise ValueError("insufficient truncation order for the quotient")
    if num.is_zero():
        return UniSeries.zero(order)
    # q = (den._den / num._den) p, where p divides the two numerator series:
    # p_n = (a_n - sum_{j>0} b_j p_{n-j}) / b_0.  The p_n are held as integers
    # over the least common denominator of those found so far.
    a = {d - vd: n for d, n in num._nums.items() if d - vd <= order}
    b = [(d - vd, n) for d, n in sorted(den._nums.items()) if d - vd <= order]
    lead = b.pop(0)[1]
    p: dict[int, int] = {}
    p_den = 1
    for n in range(order + 1):
        acc = a.get(n, 0) * p_den
        for j, bj in b:
            if j > n:
                break
            pj = p.get(n - j)
            if pj:
                acc -= pj * bj
        if acc:
            # p_n = acc / (p_den * lead), over lcm(p_den, its reduced denominator)
            d = abs(p_den * lead) // gcd(acc, p_den * lead)
            step = d // gcd(p_den, d)
            if step != 1:
                p = {i: pi * step for i, pi in p.items()}
                p_den *= step
            p[n] = acc * step // lead
    return num._like({i: pi * den._den for i, pi in p.items()}, p_den * num._den, order)


def laurent_divide(num: UniSeries, den: UniSeries) -> UniSeries:
    """Exact quotient of any valuations; the result may have a pole."""
    if den.is_zero():
        raise ValueError("division by the zero series")
    vd = den.valuation()
    if num.is_zero():
        return UniSeries.zero(num.order - vd)
    vn = num.valuation()
    return divide_with_valuation(num.shift(-vn), den.shift(-vd)).shift(vn - vd)


def exp_minus_one(order: int) -> UniSeries:
    """exp(u) - 1 truncated: sum_{m=1}^{order} u^m / m!."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return exp_series(order) - UniSeries.one(order)


def exp_series(order: int) -> UniSeries:
    """exp(u) truncated at the given order, over the denominator order!."""
    top = factorial(max(order, 0))
    nums = {m: top // factorial(m) for m in range(order + 1)}
    return object.__new__(UniSeries)._set(nums, top, order)


def fkmt_factor(order: int) -> UniSeries:
    """((1 - u) exp(u) - 1) / (exp(u) - 1)^2, exact through ``order``."""
    work = order + 2
    e = exp_series(work)
    num = e - e.shift(1) - UniSeries.one(work)
    den = exp_minus_one(work) * exp_minus_one(work)
    return divide_with_valuation(num, den)


def ems_factor(order: int) -> UniSeries:
    """(u - (exp(u) - 1)) / (u (exp(u) - 1)), exact through ``order``."""
    work = order + 2
    num = UniSeries.monomial(1, work) - exp_minus_one(work)
    den = exp_minus_one(work).shift(1)
    return divide_with_valuation(num, den)


def ems_prefactor(order: int) -> UniSeries:
    """(1 - exp(-u)) / u, exact through ``order``."""
    work = order + 1
    num = -(exp_minus_one(work).negate_variable())
    den = UniSeries.monomial(1, work)
    return divide_with_valuation(num, den)


def exp_over_one_minus_exp(order: int) -> UniSeries:
    """exp(z) / (1 - exp(z)), valuation -1, exact through ``order``."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    work = order + 2
    return laurent_divide(exp_series(work), -exp_minus_one(work)).truncate(order)
