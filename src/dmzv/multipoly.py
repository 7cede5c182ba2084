"""Multivariate polynomials with integer exponents of either sign.

These carry named variables so that rings over different variable sets
combine naturally: binary operations align the operands to the union of
their variable tuples first.  Exponents may be negative on any variable,
which is what the coefficient-polynomial machinery needs for its 1/v_j
factors; substitution, however, is only defined into non-negative powers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .rationals import RationalLike

__all__ = ["LaurentPolynomial"]

_ZERO = Fraction(0)


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

    def coefficient_of(self, exps: Sequence[int]) -> Fraction:
        exps = tuple(int(e) for e in exps)
        if len(exps) != len(self.variables):
            raise ValueError(f"exponent vector {exps} does not match variables {self.variables}")
        return self.terms.get(exps, _ZERO)

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

    def _aligned(self, other: "LaurentPolynomial"):
        if self.variables == other.variables:
            return self, other
        union = list(self.variables)
        for name in other.variables:
            if name not in union:
                union.append(name)
        return self.with_variables(union), other.with_variables(union)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPolynomial.constant(other, self.variables)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        a, b = self._aligned(other)
        out = dict(a.terms)
        for e, c in b.terms.items():
            s = out.get(e, _ZERO) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPolynomial(out, a.variables)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial({e: -c for e, c in self.terms.items()}, self.variables)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPolynomial.constant(other, self.variables)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

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
        a, b = self._aligned(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(e, _ZERO) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return LaurentPolynomial(out, a.variables)

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

        Homomorphic: substitution commutes with ring operations.  Requires
        every exponent of the substituted variable to be non-negative.
        """
        if name not in self.variables:
            raise ValueError(f"variable {name!r} not in {self.variables}")
        union = list(self.variables)
        for v in replacement.variables:
            if v not in union:
                union.append(v)
        poly = self.with_variables(union)
        rep = replacement.with_variables(union)
        idx = union.index(name)
        grouped: dict[int, dict[tuple[int, ...], Fraction]] = {}
        for exps, c in poly.terms.items():
            n = exps[idx]
            if n < 0:
                raise ValueError(
                    f"cannot substitute into the negative power {name}**{n}"
                )
            cleared = exps[:idx] + (0,) + exps[idx + 1 :]
            grouped.setdefault(n, {})[cleared] = c
        powers: dict[int, LaurentPolynomial] = {0: LaurentPolynomial.constant(1, union)}

        def rep_power(n: int) -> LaurentPolynomial:
            while n not in powers:
                top = max(powers)
                powers[top + 1] = powers[top] * rep
            return powers[n]

        out = LaurentPolynomial.zero(union)
        for n, terms in grouped.items():
            out = out + LaurentPolynomial(terms, union) * rep_power(n)
        return out

    def evaluate(self, values: Mapping[str, RationalLike]) -> Fraction:
        """Evaluate at a rational point; variables with negative exponents
        must be assigned nonzero values."""
        point = []
        for name in self.variables:
            if name not in values:
                raise ValueError(f"no value supplied for variable {name!r}")
            point.append(Fraction(values[name]))
        total = Fraction(0)
        pow_cache: dict[tuple[int, int], Fraction] = {}
        for exps, c in self.terms.items():
            prod = c
            for i, e in enumerate(exps):
                if not e:
                    continue
                key = (i, e)
                if key not in pow_cache:
                    if point[i] == 0 and e < 0:
                        raise ZeroDivisionError(
                            f"variable {self.variables[i]!r} has a pole at 0"
                        )
                    pow_cache[key] = point[i] ** e
                prod *= pow_cache[key]
            total += prod
        return total

    def sorted_terms(self):
        """Terms in lexicographic exponent order."""
        return sorted(self.terms.items())

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPolynomial.constant(other, self.variables)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        a, b = self._aligned(other)
        return a.terms == b.terms

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
