"""Multivariate polynomials with integer exponents of either sign.

A polynomial lives in the ring named by its variable tuple.  Binary
operations (``+``, ``-``, ``*`` and ``substitute``) work in one ring: both
operands must have the same variable tuple, or a ``ValueError`` names the
two; polynomials of different rings are never equal.  ``with_variables``
embeds a polynomial into a larger ring first.  Exponents may be negative
on any variable, which is what the coefficient-polynomial machinery needs
for its 1/v_j factors; substitution, however, is only defined into
non-negative powers.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Mapping, Sequence

from .rationals import RationalLike, accumulate, common_denominator, numerators

__all__ = ["LaurentPolynomial"]


class LaurentPolynomial:
    """Sparse polynomial over named variables; exponents in Z."""

    __slots__ = ("variables", "terms")

    def __init__(
        self,
        terms: Mapping[tuple[int, ...], RationalLike],
        variables: Sequence[str],
    ):
        variables = tuple(str(v) for v in variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable names in {variables}")
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, value in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(variables):
                raise ValueError(f"exponent vector {exps} does not match variables {variables}")
            value = Fraction(value)
            if value:
                clean[exps] = value
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("LaurentPolynomial is immutable")

    @classmethod
    def _trusted(
        cls, terms: dict[tuple[int, ...], Fraction], variables: tuple[str, ...]
    ) -> "LaurentPolynomial":
        """Wrap terms already known to be non-zero ``Fraction``s on integer
        exponent tuples of the ring's length, skipping the constructor's
        checks."""
        out = object.__new__(cls)
        object.__setattr__(out, "variables", variables)
        object.__setattr__(out, "terms", terms)
        return out

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
            exps[variables.index(name)] = int(e)
        return cls({tuple(exps): coeff}, variables)

    def is_zero(self) -> bool:
        return not self.terms

    def with_variables(self, new_variables: Sequence[str]) -> "LaurentPolynomial":
        """Re-embed into a ring whose variables are a superset of the current ones."""
        new_variables = tuple(str(v) for v in new_variables)
        positions = []
        for name in self.variables:
            if name not in new_variables:
                raise ValueError(f"variable {name!r} missing from {new_variables}")
            positions.append(new_variables.index(name))
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            e = [0] * len(new_variables)
            for pos, val in zip(positions, exps):
                e[pos] = val
            out[tuple(e)] = c
        return LaurentPolynomial(out, new_variables)

    def _same_ring(self, other: "LaurentPolynomial") -> None:
        if self.variables != other.variables:
            raise ValueError(f"operands in different rings: {self.variables} vs {other.variables}")

    def __add__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        self._same_ring(other)
        return LaurentPolynomial._trusted(
            accumulate(dict(self.terms), other.terms.items()), self.variables
        )

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial({e: -c for e, c in self.terms.items()}, self.variables)

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def scale(self, factor: RationalLike) -> "LaurentPolynomial":
        factor = Fraction(factor)
        if not factor:
            return LaurentPolynomial.zero(self.variables)
        return LaurentPolynomial({e: c * factor for e, c in self.terms.items()}, self.variables)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        self._same_ring(other)
        # integer numerators over each operand's common denominator; the
        # left operand's are taken term by term, and the sums become
        # Fractions in place, so the product is held once
        left_den = common_denominator(self.terms.values())
        right, right_den = numerators(other.terms)
        acc: dict[tuple[int, ...], int] = {}
        get = acc.get
        for e1, c1 in self.terms.items():
            n1 = c1.numerator * (left_den // c1.denominator)
            for e2, n2 in right:
                e = tuple(map(add, e1, e2))
                acc[e] = get(e, 0) + n1 * n2
        for e in [e for e, n in acc.items() if not n]:
            del acc[e]
        den = left_den * right_den
        for e, n in acc.items():
            acc[e] = Fraction(n) if den == 1 else Fraction(n, den)
        return LaurentPolynomial._trusted(acc, self.variables)

    __rmul__ = __mul__

    def shift_variable(self, name: str, k: int) -> "LaurentPolynomial":
        """Multiply by name**k (k may be negative)."""
        idx = self.variables.index(name)
        out = {
            e[:idx] + (e[idx] + k,) + e[idx + 1 :]: c for e, c in self.terms.items()
        }
        return LaurentPolynomial(out, self.variables)

    def min_degree(self, name: str) -> int:
        idx = self.variables.index(name)
        return min((e[idx] for e in self.terms), default=0)

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
        grouped: dict[int, dict[tuple[int, ...], Fraction]] = {}
        for exps, c in self.terms.items():
            n = exps[idx]
            if n < 0:
                raise ValueError(
                    f"cannot substitute into the negative power {name}**{n}"
                )
            cleared = exps[:idx] + (0,) + exps[idx + 1 :]
            grouped.setdefault(n, {})[cleared] = c
        powers: dict[int, LaurentPolynomial] = {0: LaurentPolynomial.constant(1, variables)}

        def rep_power(n: int) -> LaurentPolynomial:
            while n not in powers:
                top = max(powers)
                powers[top + 1] = powers[top] * replacement
            return powers[n]

        out: dict[tuple[int, ...], Fraction] = {}
        for n, terms in grouped.items():
            product = LaurentPolynomial._trusted(terms, variables) * rep_power(n)
            accumulate(out, product.terms.items())
        return LaurentPolynomial._trusted(out, variables)

    def sorted_terms(self):
        """Terms in lexicographic exponent order."""
        return sorted(self.terms.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

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
