"""Multivariate polynomials with integer exponents of either sign.

A polynomial lives in the ring named by its variable tuple.  Binary
operations (``+``, ``-``, ``*`` and ``substitute``) work in one ring: both
operands must have the same variable tuple, or a ``ValueError`` names the
two; polynomials of different rings are never equal.  ``with_variables``
embeds a polynomial into a larger ring first.  Exponents may be negative
on any variable, which is what the coefficient-polynomial machinery needs
for its 1/v_j factors; substitution, however, is only defined into
non-negative powers.

A polynomial is held in the packed form of :class:`rationals.Packed`,
which it shares with ``MultiSeries``: each exponent vector is one int,
with fields as wide as the largest absolute exponent requires, and each
coefficient an integer numerator over one common denominator.  The
exponent tuples and ``Fraction`` coefficients of :attr:`terms` are
unpacked when read.
"""

from __future__ import annotations

from operator import attrgetter, index
from typing import Iterable, Mapping, Sequence

from .rationals import Packed, RationalLike, numerators

__all__ = ["LaurentPolynomial"]


def _largest(exps: Iterable[Sequence[int]]) -> int:
    """The largest absolute value of any exponent of the vectors."""
    return max((abs(e) for v in exps for e in v), default=0)


class LaurentPolynomial(Packed):
    """Sparse polynomial over named variables; exponents in Z."""

    # the ring is the variable tuple, and the fields are as wide as the
    # largest absolute exponent requires
    __slots__ = ()
    variables = property(attrgetter("_ring"))
    denominator = property(attrgetter("_den"),
                           doc="The least common denominator of the coefficients.")

    def __init__(
        self,
        terms: Mapping[tuple[int, ...], RationalLike],
        variables: Sequence[str],
    ):
        variables = tuple(str(v) for v in variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable names in {variables}")

        def exponents(exps) -> tuple[int, ...]:
            exps = tuple(map(index, exps))
            if len(exps) != len(variables):
                raise ValueError(f"exponent vector {exps} does not match variables {variables}")
            return exps

        nums, den = numerators(terms, exponents)
        self._fill(variables, len(variables), _largest(nums), nums.items(), den)

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "LaurentPolynomial":
        return cls({}, variables)

    @classmethod
    def constant(cls, value: RationalLike, variables: Sequence[str]) -> "LaurentPolynomial":
        return cls({(0,) * len(tuple(variables)): value}, variables)

    @classmethod
    def monomial(
        cls,
        variables: Sequence[str],
        exponents: Mapping[str, int],
        coeff: RationalLike = 1,
    ) -> "LaurentPolynomial":
        variables = tuple(variables)
        exps = [0] * len(variables)
        for name, e in exponents.items():
            exps[variables.index(name)] = e
        return cls({tuple(exps): coeff}, variables)

    def __len__(self) -> int:
        return len(self._nums)

    numerator_terms = Packed._unpacked
    terms = property(Packed._terms, doc="The terms as exponent tuple -> non-zero ``Fraction``.")

    def _with_terms(
        self, variables: tuple[str, ...], pairs: list[tuple[tuple[int, ...], int]]
    ) -> "LaurentPolynomial":
        # (exponent tuple, numerator) pairs over this polynomial's
        # denominator, packed
        out = object.__new__(LaurentPolynomial)
        return out._fill(variables, len(variables), _largest(e for e, _ in pairs), pairs, self._den)

    def with_variables(self, new_variables: Sequence[str]) -> "LaurentPolynomial":
        """Re-embed into a ring whose variables are a superset of the current ones."""
        new_variables = tuple(str(v) for v in new_variables)
        positions = []
        for name in self.variables:
            if name not in new_variables:
                raise ValueError(f"variable {name!r} missing from {new_variables}")
            positions.append(new_variables.index(name))
        out = []
        for exps, n in self._unpacked():
            e = [0] * len(new_variables)
            for pos, val in zip(positions, exps):
                e[pos] = val
            out.append((tuple(e), n))
        return self._with_terms(new_variables, out)

    __mul__ = __rmul__ = Packed.__mul__

    def shift_variable(self, name: str, k: int) -> "LaurentPolynomial":
        """Multiply by name**k (k may be negative)."""
        idx = self.variables.index(name)
        out = [(e[:idx] + (e[idx] + k,) + e[idx + 1 :], n) for e, n in self._unpacked()]
        return self._with_terms(self.variables, out)

    def min_degree(self, name: str) -> int:
        idx = self.variables.index(name)
        return min((e[idx] for e, _ in self._unpacked()), default=0)

    def substitute(self, name: str, replacement: "LaurentPolynomial") -> "LaurentPolynomial":
        """Replace every occurrence of the named variable by a polynomial.

        Homomorphic: substitution commutes with ring operations.  The
        replacement must be in the same ring, and every exponent of the
        substituted variable must be non-negative.
        """
        self._same_ring(replacement)
        if name not in self.variables:
            raise ValueError(f"variable {name!r} not in {self.variables}")
        variables = self.variables
        idx = variables.index(name)
        grouped: dict[int, list[tuple[tuple[int, ...], int]]] = {}
        for exps, c in self._unpacked():
            n = exps[idx]
            if n < 0:
                raise ValueError(
                    f"cannot substitute into the negative power {name}**{n}"
                )
            grouped.setdefault(n, []).append((exps[:idx] + (0,) + exps[idx + 1 :], c))
        powers: dict[int, LaurentPolynomial] = {0: LaurentPolynomial.constant(1, variables)}

        def rep_power(n: int) -> LaurentPolynomial:
            while n not in powers:
                top = max(powers)
                powers[top + 1] = powers[top] * replacement
            return powers[n]

        out = LaurentPolynomial.zero(variables)
        for n, terms in grouped.items():
            out = out + self._with_terms(variables, terms) * rep_power(n)
        return out

    def __repr__(self) -> str:
        if self.is_zero():
            return "LaurentPolynomial(0)"
        bits = []
        for exps, c in self.sorted_terms():
            mono = "*".join(
                f"{v}^{e}" for v, e in zip(self.variables, exps) if e
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "LaurentPolynomial(" + " + ".join(bits) + ")"
