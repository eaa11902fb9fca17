"""Truncated p-adic arithmetic: residues modulo p^E.

A value is a plain integer residue in [0, p^E), where E is its context's
working precision.  Addition, subtraction and multiplication mod p^E lose no
digits, and there is no division, because the series stream divides by units
only and inverts them once per partial sum read out.  A valuation is taken
only of a difference: one that vanishes is known to vanish through E digits
and no further, so a verdict drawn from it claims ">= E", never more.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .exactcore import RatLike, p_integral, p_split, require_odd_prime


class _CtxFields(NamedTuple):
    p: int
    prec: int
    modulus: int  # p^prec


class PadicCtx(_CtxFields):
    """The ring Z/p^prec for an odd prime p, built as `PadicCtx(p, prec)`.
    `_replace`, `_make` and unpickling build through the constructor, which
    checks p and prec and sets the modulus."""

    __slots__ = ()

    def __new__(cls, p: int, prec: int) -> PadicCtx:
        require_odd_prime(p)
        if prec < 1:
            raise ValueError(f"working precision must be >= 1, got {prec}")
        return super().__new__(cls, p, prec, p**prec)

    def __getnewargs__(self) -> tuple[int, int]:
        return self.p, self.prec

    @classmethod
    def _make(cls, iterable: Iterable) -> PadicCtx:
        p, prec, _ = iterable  # the modulus follows from them
        return cls(p, prec)

    def __repr__(self) -> str:
        return f"PadicCtx(p={self.p}, prec={self.prec})"


def describe(r: int, ctx: PadicCtx) -> str:
    """The residue r mod p^prec as "u * p^v mod p^prec", u a unit or 0."""
    p, prec = ctx.p, ctx.prec
    r %= ctx.modulus
    v, u = p_split(r, p) if r else (prec, 0)
    return f"{u} * {p}^{v} mod {p}^{prec}"


def from_rational(x: RatLike, ctx: PadicCtx) -> int:
    """Reduce a p-integral int or Fraction into [0, p^prec), inverting the
    denominator; NotPIntegralError, from `exactcore.p_integral`, when p divides it."""
    x = p_integral(x, ctx.p)
    return x.numerator * pow(x.denominator, -1, ctx.modulus) % ctx.modulus


def required_guard(N: int, e: int, p: int) -> int:
    """Working precision of a case that needs e digits and sums up to N terms.

    No operation loses digits, so e digits would do; this is e plus
    floor(log_p N) plus 2, a margin kept from when division by k <= N could
    cost floor(log_p N) digits.  It sets the E of a ">=E" verdict, so
    lowering it changes report bytes.
    """
    if N < 1:
        raise ValueError(f"summation bound must be >= 1, got {N}")
    if e < 1:
        raise ValueError(f"target exponent must be >= 1, got {e}")
    log_term = 0
    n = N
    while n >= p:
        n //= p
        log_term += 1
    return e + log_term + 2
