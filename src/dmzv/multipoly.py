"""Multivariate polynomials with integer exponents of either sign.

A polynomial lives in the ring named by its variable tuple.  Binary
operations (``+``, ``-``, ``*`` and ``substitute``) work in one ring: both
operands must have the same variable tuple, or a ``ValueError`` names the
two; polynomials of different rings are never equal.  ``with_variables``
embeds a polynomial into a larger ring first.  Exponents may be negative
on any variable, which is what the coefficient-polynomial machinery needs
for its 1/v_j factors; substitution, however, is only defined into
non-negative powers.

A polynomial is held packed: each exponent vector is one int and each
coefficient an integer numerator over one common denominator, the idiom
of the ``MultiSeries`` product and :func:`rationals.numerators`.  The
exponent tuples and ``Fraction`` coefficients of :attr:`terms` are
unpacked when read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from struct import Struct
from typing import Iterator, Mapping, NamedTuple, Sequence

from .rationals import RationalLike, accumulate, numerators

__all__ = ["LaurentPolynomial"]

# An exponent vector is packed into one int, ``width`` bits per variable
# with the first variable in the highest field, each exponent stored plus
# 2**(width - 1).  Then the integer order of codes is the lexicographic
# order of the vectors; the sum of two codes minus the code of the zero
# vector is the code of the vectors' sum whenever every entry of that sum
# fits a field; and a code XOR the zero vector's code holds each exponent
# as a two's complement field, which ``struct`` reads and writes.
_FORMATS = {8: "b", 16: "h", 32: "i", 64: "q"}


def _width(bound: int) -> int:
    """The narrowest field width holding every exponent of absolute value
    at most ``bound``."""
    for width in _FORMATS:
        if bound < 1 << (width - 1):
            return width
    raise ValueError(f"exponents of absolute value {bound} are too large to pack")


class _Layout(NamedTuple):
    zero: int  # the code of the zero vector
    size: int  # bytes per code
    fields: Struct


@lru_cache(maxsize=None)
def _layout(nvars: int, width: int) -> _Layout:
    fields = Struct(f">{nvars}{_FORMATS[width]}")
    zero = int.from_bytes(bytes([0x80] + [0] * (width // 8 - 1)) * nvars, "big")
    return _Layout(zero, fields.size, fields)


def _pack(layout: _Layout, exps: Sequence[int]) -> int:
    return int.from_bytes(layout.fields.pack(*exps), "big") ^ layout.zero


def _unpack(layout: _Layout, code: int) -> tuple[int, ...]:
    return layout.fields.unpack((code ^ layout.zero).to_bytes(layout.size, "big"))


def _encoded(
    nvars: int, terms: list[tuple[tuple[int, ...], int]]
) -> tuple[int, dict[int, int]]:
    """The largest absolute value of any exponent of the (exponent tuple,
    numerator) pairs ``terms``, and the numerators on packed codes of the
    width it sets."""
    exps = [e for e, _ in terms]
    bound = max(max(map(max, exps), default=0), -min(map(min, exps), default=0)) if nvars else 0
    layout = _layout(nvars, _width(bound))
    return bound, {_pack(layout, e): n for e, n in terms}


def _reduced(codes: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """``codes`` (in place) and ``den`` divided by the greatest common
    divisor of the denominator and every numerator, so that each
    polynomial has one stored form."""
    if den != 1:
        g = den
        for n in codes.values():
            g = gcd(g, n)
            if g == 1:
                return codes, den
        for code in codes:
            codes[code] //= g
        den //= g
    return codes, den


class LaurentPolynomial:
    """Sparse polynomial over named variables; exponents in Z."""

    # the exponents' absolute values are at most ``_bound``, which sets
    # the field width; ``_codes`` maps each packed exponent vector to its
    # non-zero numerator over ``_den``, and no common factor divides them all
    __slots__ = ("variables", "_bound", "_codes", "_den")

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
        pairs, den = numerators(clean)
        self._set(variables, *_encoded(len(variables), pairs), den)

    def _set(self, variables: tuple[str, ...], bound: int, codes: dict[int, int], den: int):
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "_bound", bound)
        object.__setattr__(self, "_codes", codes)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("LaurentPolynomial is immutable")

    @classmethod
    def _packed(
        cls, variables: tuple[str, ...], bound: int, codes: dict[int, int], den: int
    ) -> "LaurentPolynomial":
        """Wrap non-zero numerators over ``den`` on codes of the width that
        ``bound`` sets, reduced first, skipping the constructor's checks."""
        out = object.__new__(cls)
        out._set(variables, bound, *_reduced(codes, den))
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
        return not self._codes

    def __len__(self) -> int:
        return len(self._codes)

    @property
    def denominator(self) -> int:
        """The least common denominator of the coefficients."""
        return self._den

    def numerator_terms(self, ordered: bool = False) -> Iterator[tuple[tuple[int, ...], int]]:
        """(exponent tuple, integer numerator over :attr:`denominator`) for
        each term, unpacked one at a time; in lexicographic exponent order
        when ``ordered``."""
        layout = _layout(len(self.variables), _width(self._bound))
        codes = self._codes
        if ordered:
            return ((_unpack(layout, code), codes[code]) for code in sorted(codes))
        return ((_unpack(layout, code), n) for code, n in codes.items())

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """The terms as exponent tuple -> non-zero ``Fraction``."""
        den = self._den
        return {exps: Fraction(n, den) for exps, n in self.numerator_terms()}

    def _codes_at(self, bound: int) -> dict[int, int]:
        # the codes repacked at the width ``bound`` sets, which is never
        # narrower than the polynomial's own
        nvars, width = len(self.variables), _width(bound)
        if width == _width(self._bound):
            return self._codes
        layout = _layout(nvars, width)
        return {_pack(layout, exps): n for exps, n in self.numerator_terms()}

    def _with_terms(
        self, variables: tuple[str, ...], terms: list[tuple[tuple[int, ...], int]]
    ) -> "LaurentPolynomial":
        # (exponent tuple, numerator) pairs over this polynomial's
        # denominator, repacked
        return LaurentPolynomial._packed(variables, *_encoded(len(variables), terms), self._den)

    def with_variables(self, new_variables: Sequence[str]) -> "LaurentPolynomial":
        """Re-embed into a ring whose variables are a superset of the current ones."""
        new_variables = tuple(str(v) for v in new_variables)
        positions = []
        for name in self.variables:
            if name not in new_variables:
                raise ValueError(f"variable {name!r} missing from {new_variables}")
            positions.append(new_variables.index(name))
        out = []
        for exps, n in self.numerator_terms():
            e = [0] * len(new_variables)
            for pos, val in zip(positions, exps):
                e[pos] = val
            out.append((tuple(e), n))
        return self._with_terms(new_variables, out)

    def _same_ring(self, other: "LaurentPolynomial") -> None:
        if self.variables != other.variables:
            raise ValueError(f"operands in different rings: {self.variables} vs {other.variables}")

    def __add__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        self._same_ring(other)
        bound = max(self._bound, other._bound)
        den = lcm(self._den, other._den)
        left, right = den // self._den, den // other._den
        acc = {code: n * left for code, n in self._codes_at(bound).items()}
        accumulate(acc, ((code, n * right) for code, n in other._codes_at(bound).items()), 0)
        return LaurentPolynomial._packed(self.variables, bound, acc, den)

    def __neg__(self) -> "LaurentPolynomial":
        codes = {code: -n for code, n in self._codes.items()}
        return LaurentPolynomial._packed(self.variables, self._bound, codes, self._den)

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def scale(self, factor: RationalLike) -> "LaurentPolynomial":
        factor = Fraction(factor)
        if not factor:
            return LaurentPolynomial.zero(self.variables)
        codes = {code: n * factor.numerator for code, n in self._codes.items()}
        return LaurentPolynomial._packed(
            self.variables, self._bound, codes, self._den * factor.denominator
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        self._same_ring(other)
        # both operands at the width that holds every exponent of the
        # product; the left codes less the zero vector's code, so adding a
        # right code gives the code of the product term
        bound = self._bound + other._bound
        zero = _layout(len(self.variables), _width(bound)).zero
        right = list(other._codes_at(bound).items())
        acc: dict[int, int] = {}
        get = acc.get
        for c1, n1 in self._codes_at(bound).items():
            c1 -= zero
            for c2, n2 in right:
                e = c1 + c2
                acc[e] = get(e, 0) + n1 * n2
        for e in [e for e, n in acc.items() if not n]:
            del acc[e]
        return LaurentPolynomial._packed(self.variables, bound, acc, self._den * other._den)

    __rmul__ = __mul__

    def shift_variable(self, name: str, k: int) -> "LaurentPolynomial":
        """Multiply by name**k (k may be negative)."""
        idx = self.variables.index(name)
        out = [(e[:idx] + (e[idx] + k,) + e[idx + 1 :], n) for e, n in self.numerator_terms()]
        return self._with_terms(self.variables, out)

    def min_degree(self, name: str) -> int:
        idx = self.variables.index(name)
        return min((e[idx] for e, _ in self.numerator_terms()), default=0)

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
        for exps, c in self.numerator_terms():
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

    def sorted_terms(self):
        """Terms in lexicographic exponent order."""
        den = self._den
        return [(exps, Fraction(n, den)) for exps, n in self.numerator_terms(ordered=True)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        if self.variables != other.variables:
            return False
        if _width(self._bound) == _width(other._bound):
            # the stored form of a polynomial at one width is unique
            return self._den == other._den and self._codes == other._codes
        return self.terms == other.terms

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
