"""Bernoulli numbers in the x/(exp(x) - 1) convention, so B_1 = -1/2.

The table is filled with the convolution recurrence

    sum_{j=0}^{m} C(m+1, j) * B_j = 0   for m >= 1,

which follows from multiplying the exponential generating function by
(exp(x) - 1)/x.  Using the recurrence rather than an actual series
division keeps this module independent of the series code, so the
series-based cross-check in the test suite is a genuine second route.
"""

from __future__ import annotations

import threading
from fractions import Fraction

from .rationals import RationalLike, binomial

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

    def value(self, m: int) -> Fraction:
        if m < 0:
            raise ValueError(f"Bernoulli index must be >= 0, got {m}")
        if m >= len(self._table):
            with self._lock:
                self._fill(m)
        if self._unread:
            self._unread.discard(m)
        return self._table[m]

    def _fill(self, m: int) -> None:
        table = self._table
        while len(table) <= m:
            n = len(table)
            acc = Fraction(0)
            for j in range(n):
                acc += binomial(n + 1, j) * table[j]
            table.append(-acc / (n + 1))

    def known(self) -> int:
        """Number of values currently in the table."""
        return len(self._table)

    def corrupt(self, m: int, value: RationalLike) -> None:
        """Overwrite a cached value, for fault-injection testing only.

        The verification harness is expected to notice a corrupted table;
        this hook exists so that tests (and ``verify --corrupt-bernoulli``)
        can prove that it does.  Never call this on the shared default
        cache.  The index counts as unread until a later :meth:`value`
        call returns it.
        """
        self.value(m)
        self._table[m] = Fraction(value)
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
