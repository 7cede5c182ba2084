"""The identity verification harness.

Every finite identity the library implements is packaged as a named
suite that checks it exhaustively over a capped index range, with exact
rational comparisons and a witness for every failure.  Default caps are
the ones the acceptance criteria prescribe; the whole default run
finishes in well under five minutes on ordinary hardware.

Value lookups go through a per-run memo (:class:`ValueStore`) so the
shuffle-type suites, which revisit indices heavily, stay fast, and so a
deliberately corrupted Bernoulli table can be injected to demonstrate
that the harness notices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product as iter_product
from typing import Optional, Sequence

from .bernoulli import BernoulliCache, bernoulli, default_cache
from .genfun import (
    EMS,
    FKMT,
    conversion_table,
    ems_series,
    ems_series_from_fkmt,
    ems_value,
    fkmt_factor,
    fkmt_series,
    fkmt_value,
    value_table,
)
from .multiseries import substitute_linear_form, substitute_linear_forms
from .rationals import binomial, format_rational
from .report import Check, IdentityReport
from .shiftcoeffs import (
    check_contraction,
    check_merge_substitution,
    check_reindexing,
    check_trailing_shift,
    shift_coefficients,
)
from .words import Word, character, leibniz_defect, multiplicativity_defect, word_product

__all__ = ["ValueStore", "VerifyConfig", "run_all", "reports_pass", "SUITES"]


class ValueStore:
    """Memoized exact values for both families, multi-sum route."""

    def __init__(self, cache: Optional[BernoulliCache] = None):
        self.cache = cache if cache is not None else default_cache()
        self._memo: dict[tuple[str, tuple[int, ...]], Fraction] = {}

    def fkmt(self, k: Sequence[int]) -> Fraction:
        key = ("FKMT", tuple(k))
        if key not in self._memo:
            self._memo[key] = fkmt_value(key[1], self.cache)
        return self._memo[key]

    def ems(self, k: Sequence[int]) -> Fraction:
        key = ("EMS", tuple(k))
        if key not in self._memo:
            self._memo[key] = ems_value(key[1], self.cache)
        return self._memo[key]


def _report(suite: str, parameters: dict, checks: list[Check], started: float) -> IdentityReport:
    return IdentityReport(
        suite=suite,
        parameters=parameters,
        checks=checks,
        elapsed=time.monotonic() - started,
    )


def _value_check(description: str, lhs: Fraction, rhs: Fraction, index_info: dict) -> Check:
    if lhs == rhs:
        return Check.passed(description)
    witness = dict(index_info)
    witness["lhs"] = format_rational(lhs)
    witness["rhs"] = format_rational(rhs)
    return Check.failed(description, witness)


def _series_check(description: str, lhs, rhs) -> Check:
    """Equality of two multivariate series; a failure's witness is the
    lowest exponent at which they differ."""
    if lhs == rhs:
        return Check.passed(description)
    exps, coeff = sorted((lhs - rhs).coeffs.items())[0]
    return Check.failed(
        description, {"exponent": list(exps), "difference": format_rational(coeff)}
    )


def _defect_check(description: str, u: Word, v: Word, defect) -> Check:
    """Vanishing of a word pair's defect series; a failure's witness is
    its lowest non-zero coefficient."""
    if defect.is_zero():
        return Check.passed(description)
    degree = defect.valuation()
    return Check.failed(
        description,
        {
            "u": str(u),
            "v": str(v),
            "first_degree": degree,
            "coefficient": format_rational(defect.coefficient(degree)),
        },
    )


def _multisum_routes(store: ValueStore):
    # each family with the store's multi-sum lookup for it
    return ((FKMT, store.fkmt), (EMS, store.ems))


def _box(weight: int, depth: int):
    return iter_product(range(weight + 1), repeat=depth)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def verify_bernoulli(max_index: int = 40, cache: Optional[BernoulliCache] = None) -> IdentityReport:
    """Anchors, odd vanishing, and the defining convolution recurrence."""
    started = time.monotonic()
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
    for m in range(1, max_index + 1):
        acc = sum(binomial(m + 1, j) * bernoulli(j, cache) for j in range(m + 1))
        checks.append(
            _value_check(f"convolution recurrence at m={m}", acc, Fraction(0), {"m": m})
        )
    return _report("bernoulli", {"max_index": max_index}, checks, started)


def verify_depth1(max_weight: int = 20, store: Optional[ValueStore] = None) -> IdentityReport:
    """Depth-1 closed forms for both families, by both routes.

    Desingularized: (-1)^k B_{k+1}.  Renormalized: (-1)^k B_{k+1}/(k+1),
    which also matches the classical values at non-positive integers.
    """
    started = time.monotonic()
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
            for route, value in (("multi-sum", multisum((k,))), ("series", table.value((k,)))):
                checks.append(
                    _value_check(
                        f"{family.label} depth-1 closed form, k={k} ({route} route)",
                        value,
                        closed,
                        {"k": k},
                    )
                )
    return _report("depth1", {"max_weight": max_weight}, checks, started)


def verify_routes(
    max_depth: int = 3, max_weight: int = 4, store: Optional[ValueStore] = None
) -> IdentityReport:
    """Series extraction equals the Bernoulli multi-sum, both families."""
    started = time.monotonic()
    store = store or ValueStore()
    checks = []
    for depth in range(1, max_depth + 1):
        routes = [
            (family, multisum, value_table(family.name, depth, max_weight))
            for family, multisum in _multisum_routes(store)
        ]
        for k in _box(max_weight, depth):
            for family, multisum, table in routes:
                checks.append(
                    _value_check(
                        f"{family.label} routes agree at {k}",
                        multisum(k),
                        table.value(k),
                        {"k": list(k)},
                    )
                )
    return _report(
        "routes", {"max_depth": max_depth, "max_weight": max_weight}, checks, started
    )


def verify_recurrence(
    depths: Sequence[int] = (2, 3, 4),
    weights: Sequence[int] = (4, 4, 2),
    store: Optional[ValueStore] = None,
) -> IdentityReport:
    """Depth recurrence: the depth-r value as a binomial combination of
    depth-(r-1) values times depth-1 values, splitting every entry after
    the first."""
    started = time.monotonic()
    store = store or ValueStore()
    checks = []
    for depth, weight in zip(depths, weights):
        for k in _box(weight, depth):
            rest = k[1:]
            rhs = Fraction(0)
            for splits in iter_product(*(range(x + 1) for x in rest)):
                coeff = 1
                for ka, ia in zip(rest, splits):
                    coeff *= binomial(ka, ia)
                j_total = sum(rest) - sum(splits)
                rhs += coeff * store.fkmt(splits) * store.fkmt((k[0] + j_total,))
            checks.append(
                _value_check(
                    f"depth recurrence at depth {depth}, k={k}",
                    store.fkmt(k),
                    rhs,
                    {"k": list(k)},
                )
            )
    return _report(
        "recurrence",
        {"depths": list(depths), "weights": list(weights)},
        checks,
        started,
    )


def verify_telescope(
    depths: Sequence[int] = (2, 3), max_weight: int = 3
) -> IdentityReport:
    """Series identity: the product of depth-1 series in separate
    variables equals the full generating function at telescoped
    arguments (t_i = u_i - u_{i+1}, t_r = u_r), compared coefficientwise.

    The right side is built by genuine linear substitution into the
    expanded multivariate series, so the telescoping cancellation happens
    inside the series arithmetic rather than by symbolic shortcut.
    """
    started = time.monotonic()
    checks = []
    for depth in depths:
        cap = max_weight
        factor = fkmt_factor(depth * cap)
        lhs = None
        for i in range(depth):
            unit = tuple(1 if j == i else 0 for j in range(depth))
            piece = substitute_linear_form(factor, unit, cap)
            lhs = piece if lhs is None else lhs * piece
        full = fkmt_series(depth, depth * cap)
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
    return _report(
        "telescope", {"depths": list(depths), "max_weight": max_weight}, checks, started
    )


def _shuffle_terms(p: int, q: int, k: tuple[int, ...], l: tuple[int, ...]):
    """Expansion terms (coefficient, index) of the shuffle-type product."""
    for splits in iter_product(*(range(x + 1) for x in l)):
        coeff = 1
        for la, ia in zip(l, splits):
            c = binomial(la, ia)
            coeff = coeff * (-c if ia % 2 else c)
        i_total = sum(splits)
        j = tuple(la - ia for la, ia in zip(l, splits))
        index = k[:-1] + (k[-1] + i_total,) + j
        yield coeff, index


def verify_shuffle(
    shapes: Sequence[tuple[int, int]] = ((1, 1), (1, 2), (2, 1), (2, 2)),
    max_weight: int = 3,
    store: Optional[ValueStore] = None,
) -> IdentityReport:
    """Shuffle-type product: a product of two desingularized values is an
    integer binomial combination of depth-(p+q) values."""
    started = time.monotonic()
    store = store or ValueStore()
    checks = []
    for p, q in shapes:
        for k in _box(max_weight, p):
            for l in _box(max_weight, q):
                lhs = store.fkmt(k) * store.fkmt(l)
                rhs = Fraction(0)
                for coeff, index in _shuffle_terms(p, q, k, l):
                    rhs += coeff * store.fkmt(index)
                checks.append(
                    _value_check(
                        f"shuffle-type product (p={p}, q={q}) at k={k}, l={l}",
                        lhs,
                        rhs,
                        {"p": p, "q": q, "k": list(k), "l": list(l)},
                    )
                )
    return _report(
        "shuffle",
        {"shapes": [list(s) for s in shapes], "max_weight": max_weight},
        checks,
        started,
    )


def verify_last_entry(
    depths: Sequence[int] = (2, 3),
    max_weight: int = 4,
    store: Optional[ValueStore] = None,
) -> IdentityReport:
    """Last-entry recurrence: split only the final index entry into a
    binomial combination of depth-(r-1) values times depth-1 values."""
    started = time.monotonic()
    store = store or ValueStore()
    checks = []
    for depth in depths:
        for k in _box(max_weight, depth):
            rhs = Fraction(0)
            for i in range(k[-1] + 1):
                j = k[-1] - i
                shifted = k[:-2] + (k[-2] + i,)
                rhs += binomial(k[-1], i) * store.fkmt(shifted) * store.fkmt((j,))
            checks.append(
                _value_check(
                    f"last-entry recurrence at depth {depth}, k={k}",
                    store.fkmt(k),
                    rhs,
                    {"k": list(k)},
                )
            )
    return _report(
        "last-entry", {"depths": list(depths), "max_weight": max_weight}, checks, started
    )


def verify_inversion(
    depths: Sequence[int] = (2, 3),
    weights: Sequence[int] = (4, 2),
    store: Optional[ValueStore] = None,
) -> IdentityReport:
    """Product inversion: a depth-(r-1) value times a depth-1 value as an
    alternating binomial combination of depth-r values, and termwise
    agreement of that expansion with the q = 1 shuffle-type expansion."""
    started = time.monotonic()
    store = store or ValueStore()
    checks = []
    for depth, weight in zip(depths, weights):
        for k in _box(weight, depth - 1):
            for l in range(weight + 1):
                terms = []
                rhs = Fraction(0)
                for i in range(l + 1):
                    j = l - i
                    c = binomial(l, i)
                    coeff = -c if i % 2 else c
                    index = k[:-1] + (k[-1] + i, j)
                    terms.append((coeff, index))
                    rhs += coeff * store.fkmt(index)
                lhs = store.fkmt(k) * store.fkmt((l,))
                checks.append(
                    _value_check(
                        f"product inversion at depth {depth}, k={k}, l={l}",
                        lhs,
                        rhs,
                        {"k": list(k), "l": l},
                    )
                )
                shuffle_terms = list(_shuffle_terms(depth - 1, 1, k, (l,)))
                desc = f"inversion matches q=1 shuffle expansion termwise, k={k}, l={l}"
                if sorted(terms) == sorted(shuffle_terms):
                    checks.append(Check.passed(desc))
                else:
                    checks.append(
                        Check.failed(
                            desc,
                            {
                                "k": list(k),
                                "l": l,
                                "inversion_terms": [[c, list(i)] for c, i in terms],
                                "shuffle_terms": [
                                    [c, list(i)] for c, i in shuffle_terms
                                ],
                            },
                        )
                    )
    return _report(
        "inversion", {"depths": list(depths), "weights": list(weights)}, checks, started
    )


def verify_ems_shuffle(
    max_weight: int = 3, store: Optional[ValueStore] = None
) -> IdentityReport:
    """The renormalized family's low-depth shuffle-type product examples."""
    started = time.monotonic()
    store = store or ValueStore()
    checks = []
    for a in range(max_weight + 1):
        for b in range(max_weight + 1):
            lhs = store.ems((a,)) * store.ems((b,))
            rhs = Fraction(0)
            for k in range(a + 1):
                c = binomial(a, k)
                rhs += (-c if k % 2 else c) * store.ems((b + k, a - k))
            checks.append(
                _value_check(
                    f"renormalized product, depths (1,1), a={a}, b={b}",
                    lhs,
                    rhs,
                    {"a": a, "b": b},
                )
            )
    for a in range(max_weight + 1):
        for b in range(max_weight + 1):
            for c in range(max_weight + 1):
                lhs = store.ems((a,)) * store.ems((b, c))
                rhs = Fraction(0)
                for i1 in range(b + 1):
                    for i2 in range(c + 1):
                        coeff = binomial(b, i1) * binomial(c, i2)
                        if (i1 + i2) % 2:
                            coeff = -coeff
                        rhs += coeff * store.ems((a + i1 + i2, b - i1, c - i2))
                checks.append(
                    _value_check(
                        f"renormalized product, depths (1,2), a={a}, b={b}, c={c}",
                        lhs,
                        rhs,
                        {"a": a, "b": b, "c": c},
                    )
                )
    return _report("ems-shuffle", {"max_weight": max_weight}, checks, started)


def verify_conversion(
    max_depth: int = 3,
    cap: int = 5,
    max_weight: int = 10,
    store: Optional[ValueStore] = None,
) -> IdentityReport:
    """Family conversion: at the series level, the renormalized
    generating function equals the sign-flipped desingularized one times
    the unit prefactor; at the value level, the two depth-1 conversion
    relations have zero residual."""
    started = time.monotonic()
    store = store or ValueStore()
    checks = []
    for depth in range(1, max_depth + 1):
        checks.append(
            _series_check(
                f"series conversion at depth {depth}, cap {cap}",
                ems_series_from_fkmt(depth, cap),
                ems_series(depth, cap),
            )
        )
    for k, (_, _, first, second) in enumerate(conversion_table(max_weight, store.cache)):
        desc = f"depth-1 conversion residuals at k={k}"
        if first == 0 and second == 0:
            checks.append(Check.passed(desc))
        else:
            checks.append(
                Check.failed(
                    desc,
                    {
                        "k": k,
                        "ems_from_fkmt_residual": format_rational(first),
                        "fkmt_from_ems_residual": format_rational(second),
                    },
                )
            )
    return _report(
        "conversion",
        {"max_depth": max_depth, "cap": cap, "max_weight": max_weight},
        checks,
        started,
    )


def verify_shift_coeffs(max_depth: int = 4) -> IdentityReport:
    """Structural identities of the shifted-zeta coefficient family."""
    started = time.monotonic()
    checks = []
    for depth in range(1, max_depth + 1):
        coeffs = shift_coefficients(depth)
        checks.append(
            Check.passed(
                f"zero-sum shifts and integer coefficients at depth {depth} "
                f"({len(coeffs.entries)} entries)"
            )
        )
        checks.extend(check_trailing_shift(depth))
    for depth in range(2, min(max_depth, 3) + 1):
        checks.extend(check_contraction(depth))
        checks.extend(check_reindexing(depth))
    for depth in range(2, max_depth + 1):
        checks.extend(check_merge_substitution(depth))
    return _report("shift-coeffs", {"max_depth": max_depth}, checks, started)


def _words_ending_in_y(max_length: int) -> list[Word]:
    words = []
    for length in range(1, max_length + 1):
        for letters in iter_product(("d", "y"), repeat=length):
            if letters[-1] == "y":
                words.append(Word(letters))
    return words


def verify_words(max_length: int = 3, order: int = 10) -> IdentityReport:
    """Word-algebra checks: the character maps commutators to zero (raw
    word sums do not commute, but their images must), the character's
    multiplicativity, and the vanishing of the Leibniz defects."""
    started = time.monotonic()
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
    desc = (
        f"character kills every commutator, word pairs of length <= {max_length + 1} "
        f"through order {order}"
    )
    checks.append(
        Check.passed(desc) if not bad_pairs else Check.failed(desc, {"pairs": bad_pairs})
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
    return _report(
        "words", {"max_length": max_length, "order": order}, checks, started
    )


# ---------------------------------------------------------------------------
# configuration and the aggregate run
# ---------------------------------------------------------------------------

@dataclass
class VerifyConfig:
    """Caps for every suite; the defaults match the acceptance criteria."""

    suites: Optional[Sequence[str]] = None
    bernoulli_max: int = 40
    depth1_weight: int = 20
    routes_depth: int = 3
    routes_weight: int = 4
    recurrence_depths: tuple[int, ...] = (2, 3, 4)
    recurrence_weights: tuple[int, ...] = (4, 4, 2)
    telescope_depths: tuple[int, ...] = (2, 3)
    telescope_weight: int = 3
    shuffle_shapes: tuple[tuple[int, int], ...] = ((1, 1), (1, 2), (2, 1), (2, 2))
    shuffle_weight: int = 3
    last_entry_depths: tuple[int, ...] = (2, 3)
    last_entry_weight: int = 4
    inversion_depths: tuple[int, ...] = (2, 3)
    inversion_weights: tuple[int, ...] = (4, 2)
    ems_weight: int = 3
    conversion_depth: int = 3
    conversion_cap: int = 5
    conversion_weight: int = 10
    shift_depth: int = 4
    words_length: int = 3
    words_order: int = 10
    corrupt_bernoulli: tuple[tuple[int, Fraction], ...] = ()

    def capped(
        self,
        depth: Optional[int] = None,
        max_weight: Optional[int] = None,
        truncation: Optional[int] = None,
    ) -> "VerifyConfig":
        """A copy whose suite caps are limited by a maximum depth, a
        maximum index weight and a series truncation order (the CLI's
        ``--depth``, ``--max-weight`` and ``--truncation``); None leaves
        the caps it governs unchanged."""
        out = replace(self)
        if max_weight is not None:
            w = max_weight
            out.routes_weight = w
            out.recurrence_weights = tuple(min(w, x) for x in out.recurrence_weights)
            out.telescope_weight = min(w, out.telescope_weight)
            out.shuffle_weight = min(w, out.shuffle_weight)
            out.last_entry_weight = w
            out.inversion_weights = tuple(min(w, x) for x in out.inversion_weights)
            out.ems_weight = min(w, out.ems_weight)
            out.conversion_weight = w
            out.depth1_weight = max(w, 1)
        if depth is not None:
            d = depth
            out.routes_depth = min(d, out.routes_depth)
            out.recurrence_depths = tuple(x for x in out.recurrence_depths if x <= d)
            out.recurrence_weights = out.recurrence_weights[: len(out.recurrence_depths)]
            out.telescope_depths = tuple(x for x in out.telescope_depths if x <= d)
            out.last_entry_depths = tuple(x for x in out.last_entry_depths if x <= d)
            out.inversion_depths = tuple(x for x in out.inversion_depths if x <= d)
            out.inversion_weights = out.inversion_weights[: len(out.inversion_depths)]
            out.conversion_depth = min(d, out.conversion_depth)
            out.shift_depth = max(d, 1)
        if truncation is not None:
            out.conversion_cap = truncation
            out.words_order = truncation
        return out


SUITES = (
    "bernoulli",
    "depth1",
    "routes",
    "recurrence",
    "telescope",
    "shuffle",
    "last-entry",
    "inversion",
    "ems-shuffle",
    "conversion",
    "shift-coeffs",
    "words",
)


def _run_suite(name: str, runner) -> IdentityReport:
    # a suite that raises becomes a failed report, so the other suites
    # still run and the run as a whole fails instead of aborting
    started = time.monotonic()
    try:
        return runner()
    except Exception as exc:
        check = Check.failed(
            f"suite raised {type(exc).__name__}: {exc}",
            {"exception": type(exc).__name__, "message": str(exc)},
        )
        return _report(name, {}, [check], started)


def run_all(config: Optional[VerifyConfig] = None) -> list[IdentityReport]:
    """Run the selected suites (all by default) and return their reports."""
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
    store = ValueStore(cache)

    runners = {
        "bernoulli": lambda: verify_bernoulli(config.bernoulli_max, store.cache),
        "depth1": lambda: verify_depth1(config.depth1_weight, store),
        "routes": lambda: verify_routes(config.routes_depth, config.routes_weight, store),
        "recurrence": lambda: verify_recurrence(
            config.recurrence_depths, config.recurrence_weights, store
        ),
        "telescope": lambda: verify_telescope(
            config.telescope_depths, config.telescope_weight
        ),
        "shuffle": lambda: verify_shuffle(config.shuffle_shapes, config.shuffle_weight, store),
        "last-entry": lambda: verify_last_entry(
            config.last_entry_depths, config.last_entry_weight, store
        ),
        "inversion": lambda: verify_inversion(
            config.inversion_depths, config.inversion_weights, store
        ),
        "ems-shuffle": lambda: verify_ems_shuffle(config.ems_weight, store),
        "conversion": lambda: verify_conversion(
            config.conversion_depth, config.conversion_cap, config.conversion_weight, store
        ),
        "shift-coeffs": lambda: verify_shift_coeffs(config.shift_depth),
        "words": lambda: verify_words(config.words_length, config.words_order),
    }
    reports = [_run_suite(name, runners[name]) for name in selected]
    unread = store.cache.unread_corruptions()
    if unread:
        # a fault no suite read cannot have been detected: fail the run
        # rather than let it pass vacuously
        indices = ", ".join(f"B_{m}" for m in unread)
        reports.append(
            IdentityReport(
                suite="fault-injection",
                parameters={"corrupt_bernoulli": sorted({m for m, _ in config.corrupt_bernoulli})},
                checks=[
                    Check.failed(
                        f"injected fault not exercised: no suite read {indices}",
                        {"unread": unread},
                    )
                ],
            )
        )
    return reports


def reports_pass(reports: Sequence[IdentityReport]) -> bool:
    return all(r.passed for r in reports)
