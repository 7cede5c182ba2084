"""The shifted-zeta coefficient family, expanded on integers alone.

The product over j = 1..r of 1 - (u_j v_j + ... + u_r v_r) * (1/v_j -
1/v_{j-1}), 1/v_0 := 0, is a heap product of packed monomials (Johnson
1974; Monagan and Pearce 2007) on two ``array('q')``: codes in increasing
order, one 4-bit field per variable (u_1 highest, each exponent plus 8, so
code order is (l, m) order), and their coefficients.  A factor's product
is one ``heapq.merge`` of the codes shifted by each of its monomials,
equal codes summed and zeros dropped.
"""

from __future__ import annotations

import sys
from array import array
from heapq import merge
from operator import index
from struct import iter_unpack
from typing import Iterable, Iterator, Sequence

__all__ = ["MAX_DEPTH", "check_depth", "check_term", "expand", "family",
           "first_bad_term", "pack", "rendered_text", "terms"]

_WIDTH, _BIAS = 4, 8
# Every exponent of every partial product is in [-2, depth]: u_i in
# [0, i], v_k in [-2, k].  A field holds [-8, 7], and 2 * 7 fields fill 56
# of a code's 63 bits, so a deeper family is refused.  ``gr-coeffs
# --format json`` peaks at 14.4 MiB RSS at depth 6 and 16.2 MiB at depth 7
# (fresh process, Python 3.11.7, x86-64 Linux; ``BENCH_29.json``).
MAX_DEPTH = 7
# A code's 16 hex digits as signed exponents: digit d is d - 8.
_EXPONENT_OF_DIGIT = bytes.maketrans(b"0123456789abcdef", bytes([*range(248, 256), *range(8)]))
_CHUNK = 4096  # codes unpacked at a time
Term = tuple[int, tuple[int, ...], tuple[int, ...]]


def check_depth(depth: int) -> None:
    """Refuse a depth whose codes a signed 64-bit integer cannot hold, and
    one that is not an integer (TypeError)."""
    if not 1 <= index(depth) <= MAX_DEPTH:
        raise ValueError(f"depth must be in 1..{MAX_DEPTH}, got {depth}")


def pack(exps: Sequence[int]) -> int:
    """The code of the exponent vector l + m; an exponent that no field
    holds is refused, and one that is not an integer (TypeError)."""
    out = 0
    for e in map(index, exps):
        if not -_BIAS <= e < _BIAS:
            raise ValueError(f"exponent {e} in {tuple(exps)} is outside [-8, 7]")
        out = out << _WIDTH | e + _BIAS
    return out


def expand(depth: int) -> tuple[array, array]:
    """The codes, in increasing order, and the non-zero coefficients of the
    defining product's expansion in u_1..u_r, v_1..v_r."""
    check_depth(depth)
    # the unit of u_i, and of v_i, in a code
    u = [0] + [1 << _WIDTH * (2 * depth - i) for i in range(1, depth + 1)]
    v = [0] + [1 << _WIDTH * (depth - i) for i in range(1, depth + 1)]
    codes, coefs = array("q", [_BIAS * sum(u + v)]), array("q", [1])
    for j in range(1, depth + 1):
        # 1 - u_i v_i / v_j + u_i v_i / v_{j-1}, as (code shift, coefficient) pairs
        factor = [(0, 1)] + [(u[i] + v[i] - v[k], sign) for i in range(j, depth + 1)
                             for k, sign in ((j, -1), (j - 1, 1)) if k]
        out_codes, out_coefs, last, total = array("q"), array("q"), -1, 0
        # the end code, above every code, writes out the last sum
        for code, coef in merge(*(zip(map(shift.__add__, codes), map(c.__mul__, coefs))
                                  for shift, c in factor), [(1 << 63, 0)]):
            if code == last:
                total += coef
                continue
            if total:
                out_codes.append(last)
                out_coefs.append(total)
            last, total = code, coef
        codes, coefs = out_codes, out_coefs
    return codes, coefs


def terms(depth: int, codes: Sequence[int], coefs: Sequence) -> Iterator[tuple]:
    """Each term as (coef, exponent vector l + m), in code order.  Each chunk
    of codes is written big-endian in hex, and each digit (a field) turned
    into its exponent as a signed byte: 16 bytes a code."""
    fmt = f"{16 - 2 * depth}x{2 * depth}b"
    for start in range(0, len(codes), _CHUNK):
        chunk = array("q", codes[start:start + _CHUNK])
        if sys.byteorder == "little":
            chunk.byteswap()
        spelled = chunk.tobytes().hex().encode().translate(_EXPONENT_OF_DIGIT)
        yield from zip(coefs[start:start + _CHUNK], iter_unpack(fmt, spelled))


def check_term(depth: int, coef, l: tuple[int, ...], m: tuple[int, ...]) -> None:
    """Refuse a term that is not of the given depth, whose coefficient is
    not a non-zero integer (an int, or a ``Fraction`` with denominator 1),
    whose l has a negative entry or whose shifts m do not sum to zero."""
    if len(l) != depth or len(m) != depth:
        raise ValueError(f"term l={l}, m={m} does not have depth {depth}")
    # a float has no denominator
    if getattr(coef, "denominator", None) != 1:
        raise ValueError(f"non-integer coefficient {coef} on l={l}, m={m}")
    if not coef:
        raise ValueError(f"zero coefficient on l={l}, m={m}")
    if min(l, default=0) < 0:
        raise ValueError(f"negative Pochhammer degree in l={l}")
    if sum(m) != 0:
        raise ValueError(f"shifts m={m} do not sum to zero")


def family(depth: int) -> tuple[array, array]:
    """:func:`expand`, every term checked: the first that :func:`check_term`
    refuses, a sign of an expansion bug, raises.  The check reads the codes:
    an exponent is >= 0 exactly when its field's top bit is set, and the even
    and the odd v fields, added lane by lane, put their sum (the shift sum
    plus 8 * depth, at most 15 * 7) in byte lanes that add up modulo 255."""
    codes, coefs = expand(depth)
    u_top = sum(_BIAS << _WIDTH * f for f in range(depth, 2 * depth))
    v_mask, lanes = (1 << _WIDTH * depth) - 1, int("0f" * 4, 16)
    if not all(type(coef) is int and coef and code & u_top == u_top
               and ((code & v_mask & lanes) + ((code & v_mask) >> 4 & lanes)) % 255
               == _BIAS * depth for code, coef in zip(codes, coefs)):
        if bad := first_bad_term(depth, ((coef, exps[:depth], exps[depth:])
                                         for coef, exps in terms(depth, codes, coefs))):
            raise ValueError(bad[1])
    return codes, coefs


def first_bad_term(depth: int, terms: Iterable[Term]) -> tuple[Term, str] | None:
    """The first term :func:`check_term` refuses, with its message, or None."""
    for term in terms:
        try:
            check_term(depth, *term)
        except ValueError as exc:
            return term, str(exc)
    return None


def _render_term(coef: int, l: tuple[int, ...], m: tuple[int, ...]) -> str:
    if coef == -1:
        head = "-"
    elif coef == 1:
        head = ""
    else:
        head = f"{coef}*"
    factors = [f"poch(s{j},{lj})" for j, lj in enumerate(l, start=1) if lj]
    shifted = ", ".join(
        f"s{j}" + (f"{mj:+d}" if mj else "") for j, mj in enumerate(m, start=1)
    )
    factors.append(f"zeta({shifted})")
    return head + "*".join(factors)


def rendered_text(depth: int, terms: Iterable[Term]) -> Iterator[str]:
    """The one-line rendering of the terms, e.g. value(s1) = zeta(s1) -
    poch(s1,1)*zeta(s1), in pieces made while the terms are read: the
    head, then each term with the sign that joins it to the line."""
    yield "value(" + ", ".join(f"s{j}" for j in range(1, depth + 1)) + ") = "
    lead = ""
    for term in terms:
        text = _render_term(*term)
        if lead and text.startswith("-"):
            yield " - " + text[1:]
        else:
            yield lead + text
        lead = " + "
