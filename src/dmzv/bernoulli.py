"""Bernoulli numbers in the x/(exp(x) - 1) convention, so B_1 = -1/2.

The table is filled with the convolution recurrence

    sum_{j=0}^{m} C(m+1, j) * B_j = 0   for m >= 1,

which follows from multiplying the exponential generating function by
(exp(x) - 1)/x.  Using the recurrence rather than an actual series
division keeps this module independent of the series code, so the
series-based cross-check in the test suite is a genuine second route.

Each new entry is one integer dot product: the cache keeps the table as
integer numerators over their running common denominator, and the row
of binomials C(n+1, j) that the next entry reads, stepped by Pascal's
rule; both are extended as the table grows.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import lcm
from operator import add, index, mul

from .rationals import RationalLike, _exact, _over_one_denominator

__all__ = ["BernoulliCache", "bernoulli", "default_cache"]


class BernoulliCache:
    """Growable table of Bernoulli numbers.

    Values are immutable once computed and the fill step runs under a
    lock, so concurrent readers always observe a consistent table.
    """

    def __init__(self) -> None:
        self._table: list[Fraction] = [Fraction(1)]
        self._lock = threading.Lock()
        self._unread: set[int] = set()  # corrupted indices no caller has read
        # the table as it stands, as numerators over the common denominator
        # ``_den``, and the binomials C(n+1, 0..n+1) for n = len(_table)
        self._nums: list[int] = [1]
        self._den = 1
        self._row: list[int] = [1, 2, 1]

    def value(self, m: int) -> Fraction:
        m = index(m)
        if m < 0:
            raise ValueError(f"Bernoulli index must be >= 0, got {m}")
        if m >= len(self._table):
            with self._lock:
                self._fill(m)
        if self._unread:
            self._unread.discard(m)
        return self._table[m]

    def _fill(self, m: int) -> None:
        # B_n = -sum_{j<n} C(n+1, j) B_j / (n+1), one integer dot product.
        # It reads the table as it stands, so later entries are computed
        # from a corrupted one.
        table = self._table
        while len(table) <= m:
            n = len(table)
            b = Fraction(-sum(map(mul, self._row, self._nums)), self._den * (n + 1))
            table.append(b)
            den = self._den
            if den % b.denominator:
                self._den = wider = lcm(den, b.denominator)
                scale = wider // den
                self._nums = [num * scale for num in self._nums]
            self._nums.append(b.numerator * (self._den // b.denominator))
            row = self._row
            self._row = [1, *map(add, row, row[1:]), 1]  # Pascal's rule

    def known(self) -> int:
        """Number of values currently in the table."""
        return len(self._table)

    def corrupt(self, m: int, value: RationalLike) -> None:
        """Overwrite a cached value, for fault-injection testing only.

        The verification harness is expected to notice a corrupted table;
        this hook exists so that tests (and ``verify --corrupt-bernoulli``)
        can prove that it does.  Never call this on the shared default
        cache.  The index counts as unread until a later :meth:`value`
        call returns it.  A float value is refused with ``TypeError``.
        """
        m, value = index(m), _exact(value)
        self.value(m)
        with self._lock:
            self._table[m] = value
            self._nums, self._den = _over_one_denominator(self._table)
            self._unread.add(m)

    def unread_corruptions(self) -> list[int]:
        """Corrupted indices that no :meth:`value` call has returned since
        they were corrupted, in increasing order."""
        return sorted(self._unread)


_DEFAULT = BernoulliCache()


def default_cache() -> BernoulliCache:
    """The shared process-wide cache."""
    return _DEFAULT


def bernoulli(m: int, cache: BernoulliCache | None = None) -> Fraction:
    """B_m, with B_0 = 1, B_1 = -1/2, B_2 = 1/6, B_m = 0 for odd m >= 3."""
    return (cache if cache is not None else _DEFAULT).value(m)
