"""Bernoulli numbers in the x/(exp(x) - 1) convention, so B_1 = -1/2.

The table is filled with the convolution recurrence

    sum_{j=0}^{m} C(m+1, j) * B_j = 0   for m >= 1,

which follows from multiplying the exponential generating function by
(exp(x) - 1)/x.  Using the recurrence rather than an actual series
division keeps this module independent of the series code, so the
series-based cross-check in the test suite is a genuine second route.

Each new entry is one integer dot product: the cache keeps the table as
reduced (numerator, denominator) pairs, the same table as integer
numerators over their running common denominator, and the row of
binomials C(n+1, j) that the next entry reads, stepped by Pascal's rule;
all three are extended as the table grows.  The fill builds no
``Fraction``: :meth:`BernoulliCache.pair` reads an entry as its pair, and
:meth:`BernoulliCache.value` as a ``Fraction`` built on its first read.
"""

from __future__ import annotations

import threading
from math import gcd, lcm
from operator import add, index, mul
from typing import TYPE_CHECKING

from .rationals import _exact, _over_one_denominator

if TYPE_CHECKING:
    from fractions import Fraction

    from .rationals import RationalLike

__all__ = ["BernoulliCache", "bernoulli", "bernoulli_pair", "default_cache"]


class BernoulliCache:
    """Growable table of Bernoulli numbers.

    Values are immutable once computed and the fill step runs under a
    lock, so concurrent readers always observe a consistent table.
    """

    def __init__(self) -> None:
        # each entry as its reduced (numerator, positive denominator)
        self._table: list[tuple[int, int]] = [(1, 1)]
        self._fractions: dict[tuple[int, int], Fraction] = {}  # each pair value() has read
        self._lock = threading.Lock()
        self._unread: set[int] = set()  # corrupted indices no caller has read
        # the table as it stands, as numerators over the common denominator
        # ``_den``, and the binomials C(n+1, 0..n+1) for n = len(_table)
        self._nums: list[int] = [1]
        self._den = 1
        self._row: list[int] = [1, 2, 1]

    def pair(self, m: int) -> tuple[int, int]:
        """B_m as its reduced (numerator, positive denominator)."""
        m = index(m)
        if m < 0:
            raise ValueError(f"Bernoulli index must be >= 0, got {m}")
        if m >= len(self._table):
            with self._lock:
                self._fill(m)
        if self._unread:
            self._unread.discard(m)
        return self._table[m]

    def value(self, m: int) -> Fraction:
        """B_m, the same ``Fraction`` on every read of the same entry."""
        pair = self.pair(m)
        value = self._fractions.get(pair)
        if value is None:
            from fractions import Fraction

            # setdefault: concurrent first reads all return the one stored
            value = self._fractions.setdefault(pair, Fraction(*pair))
        return value

    def _fill(self, m: int) -> None:
        # B_n = -sum_{j<n} C(n+1, j) B_j / (n+1), one integer dot product.
        # It reads the table as it stands, so later entries are computed
        # from a corrupted one.
        table = self._table
        while len(table) <= m:
            n = len(table)
            p, q = -sum(map(mul, self._row, self._nums)), self._den * (n + 1)
            g = gcd(p, q)
            p, q = p // g, q // g
            table.append((p, q))
            den = self._den
            if den % q:
                self._den = wider = lcm(den, q)
                scale = wider // den
                self._nums = [num * scale for num in self._nums]
            self._nums.append(p * (self._den // q))
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
        cache.  The index counts as unread until a later :meth:`value` or
        :meth:`pair` call returns it.  A float value is refused with ``TypeError``.
        """
        m, value = index(m), _exact(value)
        self.pair(m)
        with self._lock:
            self._table[m] = (value.numerator, value.denominator)
            self._nums, self._den = _over_one_denominator(self._table)
            self._unread.add(m)

    def unread_corruptions(self) -> list[int]:
        """Corrupted indices that no :meth:`value` or :meth:`pair` call has
        returned since they were corrupted, in increasing order."""
        return sorted(self._unread)


_DEFAULT = BernoulliCache()


def default_cache() -> BernoulliCache:
    """The shared process-wide cache."""
    return _DEFAULT


def bernoulli(m: int, cache: BernoulliCache | None = None) -> Fraction:
    """B_m, with B_0 = 1, B_1 = -1/2, B_2 = 1/6, B_m = 0 for odd m >= 3."""
    return (cache if cache is not None else _DEFAULT).value(m)


def bernoulli_pair(m: int, cache: BernoulliCache | None = None) -> tuple[int, int]:
    """B_m as its reduced (numerator, positive denominator)."""
    return (cache if cache is not None else _DEFAULT).pair(m)
