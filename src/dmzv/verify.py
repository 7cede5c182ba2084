"""The identity verification harness.

Every finite identity the library implements is packaged as a named
suite that checks it exhaustively over a capped index range, with exact
rational comparisons and a witness for every failure.  The caps
:func:`run_all` gives the suites are the ones the acceptance criteria
prescribe; the whole default run (``dmzv verify``) takes about 0.11 s in
a fresh process on a shared 2-vCPU x86-64 host (median of 15 runs, Python
3.11.7).  The expanded side of each value identity, and the Bernoulli
convolution, is summed on integer (numerator, denominator) pairs by
:func:`~dmzv.rationals.exact_sum`.

Value lookups go through a per-run memo (:class:`ValueStore`) so the
shuffle-type suites, which revisit indices heavily, stay fast, and so a
deliberately corrupted Bernoulli table can be injected to demonstrate
that the harness notices.  The series a suite compares are built for its
caps and not cached, and the value store goes with the arguments of the
last suite given it.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import wraps
from itertools import product as iter_product
from operator import add, index
from typing import Optional, Sequence

from .bernoulli import BernoulliCache, bernoulli, default_cache
from .expansion import first_bad_term
from .genfun import (
    EMS,
    FKMT,
    _product_series,
    conversion_table,
    ems_series_from_fkmt,
    ems_value,
    fkmt_factor,
    fkmt_value,
    index_box,
    value_table,
)
from .multiseries import substitute_linear_form, substitute_linear_forms
from .names import SUITES
from .rationals import binomial, exact_sum, format_rational
from .report import Check, FrozenRecord, IdentityReport
from .shiftcoeffs import (
    check_contraction,
    check_merge_substitution,
    check_reindexing,
    check_trailing_shift,
    shifted_zeta_expression,
)
from .words import Word, character, leibniz_defect, multiplicativity_defect, word_product

__all__ = ["ValueStore", "VerifyConfig", "run_all", "reports_pass", "SUITES"]


class ValueStore:
    """Memoized exact values for both families, multi-sum route."""

    def __init__(self, cache: Optional[BernoulliCache] = None):
        self.cache = cache if cache is not None else default_cache()
        self._memo: dict[tuple[str, tuple[int, ...]], Fraction] = {}

    def fkmt(self, k: Sequence[int]) -> Fraction:
        return self._value("FKMT", fkmt_value, k)

    def ems(self, k: Sequence[int]) -> Fraction:
        return self._value("EMS", ems_value, k)

    def _value(self, family: str, compute, k: Sequence[int]) -> Fraction:
        key = (family, tuple(k))
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = compute(key[1], self.cache)
        return value


def _suite(name: str):
    """Decorator for the suite ``name``: the function returns the suite's
    checks, and a call of the decorated function returns its report,
    timed over the call, whose parameters are the call's arguments by
    name, in the function's parameter order, without the value store or
    Bernoulli cache.
    """

    def decorate(checks_of):
        code = checks_of.__code__
        names = code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]

        @wraps(checks_of)
        def run(*args, **kwargs) -> IdentityReport:
            started = time.monotonic()
            checks = checks_of(*args, **kwargs)
            given = dict(zip(names, args), **kwargs)
            return IdentityReport(
                suite=name,
                parameters={
                    k: given[k] for k in names if k in given and k not in ("store", "cache")
                },
                checks=checks,
                elapsed=time.monotonic() - started,
            )

        return run

    return decorate


def _value_check(description: str, lhs: Fraction, rhs: Fraction, index_info: dict) -> Check:
    witness = None
    if lhs != rhs:
        witness = {**index_info, "lhs": format_rational(lhs), "rhs": format_rational(rhs)}
    return Check.of(description, witness)


def _series_check(description: str, lhs, rhs) -> Check:
    """Equality of two multivariate series; a failure's witness is the
    lowest exponent at which they differ."""
    witness = None
    if lhs != rhs:
        diff = lhs - rhs
        # codes sort in lexicographic exponent order
        exps, n = next(diff._unpacked(ordered=True))
        witness = {"exponent": list(exps), "difference": format_rational(Fraction(n, diff._den))}
    return Check.of(description, witness)


def _defect_check(description: str, u: Word, v: Word, defect) -> Check:
    """Vanishing of a word pair's defect series; a failure's witness is
    its lowest non-zero coefficient."""
    witness = None
    if not defect.is_zero():
        degree = defect.valuation()
        witness = {
            "u": str(u),
            "v": str(v),
            "first_degree": degree,
            "coefficient": format_rational(defect.coefficient(degree)),
        }
    return Check.of(description, witness)


def _multisum_routes(store: ValueStore):
    # each family with the store's multi-sum lookup for it
    return ((FKMT, store.fkmt), (EMS, store.ems))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

@_suite("bernoulli")
def verify_bernoulli(max_index: int, cache: Optional[BernoulliCache] = None) -> list[Check]:
    """Anchors, odd vanishing, and the defining convolution recurrence."""
    checks = []
    anchors = {0: Fraction(1), 1: Fraction(-1, 2), 2: Fraction(1, 6)}
    for m, expected in anchors.items():
        checks.append(
            _value_check(f"B_{m} anchor", bernoulli(m, cache), expected, {"m": m})
        )
    for m in range(3, max_index + 2, 2):
        checks.append(
            _value_check(f"B_{m} vanishes (odd index)", bernoulli(m, cache), Fraction(0), {"m": m})
        )
    values = [bernoulli(j, cache) for j in range(max_index + 1)]
    row = [1, 1]  # C(1, j)
    for m in range(1, max_index + 1):
        row = [1, *map(add, row, row[1:]), 1]  # C(m + 1, j), by Pascal's rule
        acc = exact_sum(
            (c * b.numerator, b.denominator) for c, b in zip(row, values[: m + 1]) if b
        )
        checks.append(
            _value_check(f"convolution recurrence at m={m}", acc, Fraction(0), {"m": m})
        )
    return checks


@_suite("depth1")
def verify_depth1(max_weight: int, store: Optional[ValueStore] = None) -> list[Check]:
    """Depth-1 closed forms for both families, by both routes.

    Desingularized: (-1)^k B_{k+1}.  Renormalized: (-1)^k B_{k+1}/(k+1),
    which also matches the classical values at non-positive integers.
    """
    store = store or ValueStore()
    checks = []
    routes = [
        (family, multisum, value_table(family.name, 1, max_weight))
        for family, multisum in _multisum_routes(store)
    ]
    for k in range(max_weight + 1):
        sign = -1 if k % 2 else 1
        for family, multisum, table in routes:
            closed = sign * family.row_weight(k, store.cache)
            # "series" names the generating-function route (dmzv.tables)
            for route, value in (("multi-sum", multisum((k,))), ("series", table[(k,)])):
                checks.append(
                    _value_check(
                        f"{family.label} depth-1 closed form, k={k} ({route} route)",
                        value,
                        closed,
                        {"k": k},
                    )
                )
    return checks


@_suite("routes")
def verify_routes(
    max_depth: int, max_weight: int, store: Optional[ValueStore] = None
) -> list[Check]:
    """Recurrence tables equal the Bernoulli multi-sum, both families."""
    store = store or ValueStore()
    checks = []
    for depth in range(1, max_depth + 1):
        routes = [
            (family, multisum, value_table(family.name, depth, max_weight))
            for family, multisum in _multisum_routes(store)
        ]
        for k in index_box(depth, max_weight):
            for family, multisum, table in routes:
                checks.append(
                    _value_check(
                        f"{family.label} routes agree at {k}",
                        multisum(k),
                        table[k],
                        {"k": list(k)},
                    )
                )
    return checks


@_suite("recurrence")
def verify_recurrence(
    depths: Sequence[int], weights: Sequence[int], store: Optional[ValueStore] = None
) -> list[Check]:
    """Depth recurrence: the depth-r value as a binomial combination of
    depth-(r-1) values times depth-1 values, splitting every entry after
    the first."""
    store = store or ValueStore()
    checks = []
    for depth, weight in zip(depths, weights):
        for k in index_box(depth, weight):
            rest = k[1:]
            terms = []
            for splits in iter_product(*(range(x + 1) for x in rest)):
                coeff = 1
                for ka, ia in zip(rest, splits):
                    coeff *= binomial(ka, ia)
                j_total = sum(rest) - sum(splits)
                a, b = store.fkmt(splits), store.fkmt((k[0] + j_total,))
                terms.append((coeff * a.numerator * b.numerator, a.denominator * b.denominator))
            checks.append(
                _value_check(
                    f"depth recurrence at depth {depth}, k={k}",
                    store.fkmt(k),
                    exact_sum(terms),
                    {"k": list(k)},
                )
            )
    return checks


@_suite("telescope")
def verify_telescope(depths: Sequence[int], max_weight: int) -> list[Check]:
    """Series identity: the product of depth-1 series in separate
    variables equals the full generating function at telescoped
    arguments (t_i = u_i - u_{i+1}, t_r = u_r), compared coefficientwise.

    The right side is built by genuine linear substitution into the
    expanded multivariate series, so the telescoping cancellation happens
    inside the series arithmetic rather than by symbolic shortcut.
    """
    checks = []
    for depth in depths:
        cap = max_weight
        factor = fkmt_factor(depth * cap)
        lhs = None
        for i in range(depth):
            unit = tuple(1 if j == i else 0 for j in range(depth))
            piece = substitute_linear_form(factor, unit, cap)
            lhs = piece if lhs is None else lhs * piece
        full = _product_series(FKMT, depth, depth * cap)
        rows = []
        for i in range(depth):
            row = [0] * depth
            row[i] = 1
            if i + 1 < depth:
                row[i + 1] = -1
            rows.append(row)
        rhs = substitute_linear_forms(full, rows, cap)
        checks.append(
            _series_check(f"telescoped factorization at depth {depth}, cap {cap}", lhs, rhs)
        )
        const = lhs.coefficient((0,) * depth)
        checks.append(
            _value_check(
                f"constant term (-1/2)^{depth} at depth {depth}",
                const,
                Fraction(-1, 2) ** depth,
                {"depth": depth},
            )
        )
    return checks


def _shuffle_terms(k: tuple[int, ...], l: tuple[int, ...]):
    """Expansion terms (coefficient, index) of the shuffle-type product of
    the values at k and l.  Both families share it: the source paper
    (arXiv 1804.05568) proves it for the desingularized values, and
    Ebrahimi-Fard, Manchon and Singer for the renormalized ones."""
    for splits in iter_product(*(range(x + 1) for x in l)):
        coeff = 1
        for la, ia in zip(l, splits):
            c = binomial(la, ia)
            coeff = coeff * (-c if ia % 2 else c)
        i_total = sum(splits)
        j = tuple(la - ia for la, ia in zip(l, splits))
        yield coeff, k[:-1] + (k[-1] + i_total,) + j


def _shuffle_expansion(value, k: tuple[int, ...], l: tuple[int, ...]) -> Fraction:
    """The expanded side of the shuffle-type product, read from ``value``,
    one family's lookup."""
    terms = []
    for coeff, at in _shuffle_terms(k, l):
        v = value(at)
        terms.append((coeff * v.numerator, v.denominator))
    return exact_sum(terms)


@_suite("shuffle")
def verify_shuffle(
    shapes: Sequence[tuple[int, int]], max_weight: int, store: Optional[ValueStore] = None
) -> list[Check]:
    """Shuffle-type product: a product of two desingularized values is an
    integer binomial combination of depth-(p+q) values."""
    store = store or ValueStore()
    checks = []
    for p, q in shapes:
        for k in index_box(p, max_weight):
            for l in index_box(q, max_weight):
                checks.append(
                    _value_check(
                        f"shuffle-type product (p={p}, q={q}) at k={k}, l={l}",
                        store.fkmt(k) * store.fkmt(l),
                        _shuffle_expansion(store.fkmt, k, l),
                        {"p": p, "q": q, "k": list(k), "l": list(l)},
                    )
                )
    return checks


@_suite("last-entry")
def verify_last_entry(
    depths: Sequence[int], max_weight: int, store: Optional[ValueStore] = None
) -> list[Check]:
    """Last-entry recurrence: split only the final index entry into a
    binomial combination of depth-(r-1) values times depth-1 values."""
    store = store or ValueStore()
    checks = []
    for depth in depths:
        for k in index_box(depth, max_weight):
            terms = []
            for i in range(k[-1] + 1):
                j = k[-1] - i
                shifted = k[:-2] + (k[-2] + i,)
                a, b = store.fkmt(shifted), store.fkmt((j,))
                terms.append((binomial(k[-1], i) * a.numerator * b.numerator,
                              a.denominator * b.denominator))
            checks.append(
                _value_check(
                    f"last-entry recurrence at depth {depth}, k={k}",
                    store.fkmt(k),
                    exact_sum(terms),
                    {"k": list(k)},
                )
            )
    return checks


@_suite("inversion")
def verify_inversion(
    depths: Sequence[int], weights: Sequence[int], store: Optional[ValueStore] = None
) -> list[Check]:
    """Product inversion: a depth-(r-1) value times a depth-1 value as an
    alternating binomial combination of depth-r values, and termwise
    agreement of that expansion with the q = 1 shuffle-type expansion."""
    store = store or ValueStore()
    checks = []
    for depth, weight in zip(depths, weights):
        for k in index_box(depth - 1, weight):
            for l in range(weight + 1):
                terms = []
                pairs = []
                for i in range(l + 1):
                    j = l - i
                    c = binomial(l, i)
                    coeff = -c if i % 2 else c
                    at = k[:-1] + (k[-1] + i, j)
                    terms.append((coeff, at))
                    v = store.fkmt(at)
                    pairs.append((coeff * v.numerator, v.denominator))
                lhs = store.fkmt(k) * store.fkmt((l,))
                checks.append(
                    _value_check(
                        f"product inversion at depth {depth}, k={k}, l={l}",
                        lhs,
                        exact_sum(pairs),
                        {"k": list(k), "l": l},
                    )
                )
                shuffle_terms = list(_shuffle_terms(k, (l,)))
                witness = None
                if sorted(terms) != sorted(shuffle_terms):
                    witness = {
                        "k": list(k),
                        "l": l,
                        "inversion_terms": [[c, list(i)] for c, i in terms],
                        "shuffle_terms": [[c, list(i)] for c, i in shuffle_terms],
                    }
                checks.append(
                    Check.of(
                        f"inversion matches q=1 shuffle expansion termwise, k={k}, l={l}",
                        witness,
                    )
                )
    return checks


@_suite("ems-shuffle")
def verify_ems_shuffle(max_weight: int, store: Optional[ValueStore] = None) -> list[Check]:
    """The renormalized family's low-depth shuffle-type product examples."""
    store = store or ValueStore()
    weights = range(max_weight + 1)
    checks = []
    for a, b in iter_product(weights, repeat=2):
        checks.append(
            _value_check(
                f"renormalized product, depths (1,1), a={a}, b={b}",
                store.ems((a,)) * store.ems((b,)),
                _shuffle_expansion(store.ems, (b,), (a,)),
                {"a": a, "b": b},
            )
        )
    for a, b, c in iter_product(weights, repeat=3):
        checks.append(
            _value_check(
                f"renormalized product, depths (1,2), a={a}, b={b}, c={c}",
                store.ems((a,)) * store.ems((b, c)),
                _shuffle_expansion(store.ems, (a,), (b, c)),
                {"a": a, "b": b, "c": c},
            )
        )
    return checks


@_suite("conversion")
def verify_conversion(
    max_depth: int, cap: int, max_weight: int, store: Optional[ValueStore] = None
) -> list[Check]:
    """Family conversion: at the series level, the renormalized
    generating function equals the sign-flipped desingularized one times
    the unit prefactor; at the value level, the two depth-1 conversion
    relations have zero residual."""
    store = store or ValueStore()
    checks = []
    for depth in range(1, max_depth + 1):
        checks.append(
            _series_check(
                f"series conversion at depth {depth}, cap {cap}",
                ems_series_from_fkmt(depth, cap),
                _product_series(EMS, depth, cap),
            )
        )
    for k, (_, _, first, second) in enumerate(conversion_table(max_weight, store.cache)):
        witness = None
        if first != 0 or second != 0:
            witness = {
                "k": k,
                "ems_from_fkmt_residual": format_rational(first),
                "fkmt_from_ems_residual": format_rational(second),
            }
        checks.append(Check.of(f"depth-1 conversion residuals at k={k}", witness))
    return checks


@_suite("shift-coeffs")
def verify_shift_coeffs(max_depth: int) -> list[Check]:
    """Structural identities of the shifted-zeta coefficient family."""
    checks = []
    for depth in range(1, max_depth + 1):
        expr = shifted_zeta_expression(depth)
        # the record's own terms, checked again: a record built past its
        # constructor's checks fails here
        witness, poly = None, expr.polynomial
        if bad := first_bad_term(depth, ((Fraction(n, poly.denominator), e[:depth], e[depth:])
                                         for e, n in poly.numerator_terms(ordered=True))):
            (coef, l, m), reason = bad
            witness = {"coef": format_rational(coef), "l": list(l), "m": list(m), "reason": reason}
        checks.append(
            Check.of(
                f"zero-sum shifts and integer coefficients at depth {depth} "
                f"({len(expr)} entries)",
                witness,
            )
        )
        checks.extend(check_trailing_shift(depth))
    for depth in range(2, min(max_depth, 3) + 1):
        checks.extend(check_contraction(depth))
        checks.extend(check_reindexing(depth))
    for depth in range(2, max_depth + 1):
        checks.extend(check_merge_substitution(depth))
    return checks


def _words_ending_in_y(max_length: int) -> list[Word]:
    words = []
    for length in range(1, max_length + 1):
        for letters in iter_product(("d", "y"), repeat=length):
            if letters[-1] == "y":
                words.append(Word(letters))
    return words


@_suite("words")
def verify_words(max_length: int, order: int) -> list[Check]:
    """Word-algebra checks: the character maps commutators to zero (raw
    word sums do not commute, but their images must), the character's
    multiplicativity, and the vanishing of the Leibniz defects."""
    checks = []

    all_words = [Word()]
    for length in range(1, max_length + 2):
        for letters in iter_product(("d", "y"), repeat=length):
            all_words.append(Word(letters))
    bad_pairs = []
    for i, u in enumerate(all_words):
        for v in all_words[i + 1 :]:
            commutator = word_product(u, v) - word_product(v, u)
            if commutator.is_zero():
                continue
            if not character(commutator, order).is_zero():
                bad_pairs.append([str(u), str(v)])
    checks.append(
        Check.of(
            f"character kills every commutator, word pairs of length <= {max_length + 1} "
            f"through order {order}",
            {"pairs": bad_pairs} if bad_pairs else None,
        )
    )

    products = [Word()] + _words_ending_in_y(max_length)
    for u in products:
        for v in products:
            checks.append(
                _defect_check(
                    f"character multiplicative on ({u}, {v}) through order {order}",
                    u,
                    v,
                    multiplicativity_defect(u, v, order),
                )
            )
    for u in _words_ending_in_y(max_length):
        for v in _words_ending_in_y(max_length):
            checks.append(
                _defect_check(
                    f"Leibniz defect vanishes on ({u}, {v}) through order {order}",
                    u,
                    v,
                    leibniz_defect(u, v, order),
                )
            )
    return checks


# ---------------------------------------------------------------------------
# configuration and the aggregate run
# ---------------------------------------------------------------------------

class VerifyConfig(FrozenRecord):
    """What a verify run is asked to do.

    ``suites`` selects suites by name (None runs all of them).  ``depth``,
    ``max_weight`` and ``truncation`` limit the suites' acceptance caps the
    way ``run_all`` states (None leaves them as they are), and each
    ``(m, value)`` in ``corrupt_bernoulli`` overwrites B_m in the run's own
    Bernoulli table.  Each cap that is set is taken through
    ``operator.index``, so a float or other non-integral cap raises
    ``TypeError`` here instead of failing the suites that read it.
    """

    __slots__ = ("suites", "depth", "max_weight", "truncation", "corrupt_bernoulli")

    def __init__(
        self,
        suites: Optional[Sequence[str]] = None,
        depth: Optional[int] = None,
        max_weight: Optional[int] = None,
        truncation: Optional[int] = None,
        corrupt_bernoulli: tuple[tuple[int, Fraction], ...] = (),
    ):
        depth, max_weight, truncation = (
            None if cap is None else index(cap) for cap in (depth, max_weight, truncation)
        )
        for field, value in zip(
            self.__slots__, (suites, depth, max_weight, truncation, corrupt_bernoulli)
        ):
            object.__setattr__(self, field, value)


def _suite_arguments(config: VerifyConfig, store: ValueStore) -> dict[str, tuple]:
    """Each suite's arguments: its acceptance caps, limited by the config.

    ``max_weight`` lowers some weight caps and replaces others, ``depth``
    lowers the depth caps and drops deeper entries (with their weights)
    from the depth lists, and ``truncation`` replaces the series orders.
    """
    d, w, t = config.depth, config.max_weight, config.truncation

    def lower(limit, cap):
        return cap if limit is None else min(limit, cap)

    def given(value, cap):
        return cap if value is None else value

    def shallow(depths):
        return tuple(r for r in depths if d is None or r <= d)

    def paired(depths, weights):
        # the depths ascend, so the kept ones are a prefix: keep their weights
        kept = shallow(depths)
        return kept, tuple(lower(w, x) for x in weights[: len(kept)])

    return {
        "bernoulli": (40, store.cache),
        "depth1": (20 if w is None else max(w, 1), store),
        "routes": (lower(d, 3), given(w, 4), store),
        "recurrence": (*paired((2, 3, 4), (4, 4, 2)), store),
        "telescope": (shallow((2, 3)), lower(w, 3)),
        "shuffle": (((1, 1), (1, 2), (2, 1), (2, 2)), lower(w, 3), store),
        "last-entry": (shallow((2, 3)), given(w, 4), store),
        "inversion": (*paired((2, 3), (4, 2)), store),
        "ems-shuffle": (lower(w, 3), store),
        "conversion": (lower(d, 3), given(t, 5), given(w, 10), store),
        "shift-coeffs": (4 if d is None else max(d, 1),),
        "words": (3, given(t, 10)),
    }


def _run_suite(name: str, arguments: tuple) -> IdentityReport:
    # the suite is looked up when it runs, so a replacement installed on
    # the module (a test's or a tracer's) is the one called; a suite that
    # raises becomes a failed report, so the other suites still run and
    # the run as a whole fails instead of aborting
    started = time.monotonic()
    try:
        return globals()["verify_" + name.replace("-", "_")](*arguments)
    except Exception as exc:
        check = Check.of(
            f"suite raised {type(exc).__name__}: {exc}",
            {"exception": type(exc).__name__, "message": str(exc)},
        )
        return IdentityReport(name, {}, [check], time.monotonic() - started)


def run_all(config: Optional[VerifyConfig] = None) -> list[IdentityReport]:
    """Run the selected suites (all by default) and return their reports.

    An unknown suite name raises ``ValueError``, as does a corruption
    whose value is the true B_m, since it would inject no fault."""
    config = config or VerifyConfig()
    selected = SUITES if config.suites is None else tuple(config.suites)
    unknown = [name for name in selected if name not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite names: {unknown}; valid names: {list(SUITES)}")

    cache: Optional[BernoulliCache] = None
    if config.corrupt_bernoulli:
        cache = BernoulliCache()
        for m, value in config.corrupt_bernoulli:
            cache.corrupt(m, value)
            # against the true table: in this one an earlier corruption
            # has already moved the entries filled after it
            if value == bernoulli(m):
                raise ValueError(f"corrupting B_{m} with {value} injects no fault: "
                                 "it is the true value")
    store = ValueStore(cache)
    cache = store.cache
    # each suite's arguments are dropped when it ends, and with the last
    # ones that hold it the value store and its memo
    arguments = _suite_arguments(config, store)
    pending = [arguments[name] for name in reversed(selected)]
    del arguments, store
    reports = [_run_suite(name, pending.pop()) for name in selected]
    unread = cache.unread_corruptions()
    if unread:
        # a fault no suite read cannot have been detected: fail the run
        # rather than let it pass vacuously
        indices = ", ".join(f"B_{m}" for m in unread)
        reports.append(
            IdentityReport(
                suite="fault-injection",
                parameters={"corrupt_bernoulli": sorted({m for m, _ in config.corrupt_bernoulli})},
                checks=[
                    Check.of(
                        f"injected fault not exercised: no suite read {indices}",
                        {"unread": unread},
                    )
                ],
            )
        )
    return reports


def reports_pass(reports: Sequence[IdentityReport]) -> bool:
    return all(r.passed for r in reports)
