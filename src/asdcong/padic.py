"""Truncated p-adic arithmetic: residues modulo p^E with explicit valuation.

A value is a residue class u * p^v modulo p^E, where E is its context's
working precision.  Every value carries all E digits: addition, subtraction
and multiplication lose none, and there is no division, because the series
stream divides by units only and inverts them once per partial sum read out.
A difference that vanishes is known to vanish through E digits and no
further, so a verdict drawn from it claims ">= E", never more.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exactcore import NotPIntegralError, RatLike, require_odd_prime, vp_int


class CtxMismatchError(ValueError):
    """Operands built over different PadicCtx instances."""


@dataclass(frozen=True)
class PadicCtx:
    """The ring Z/p^prec for an odd prime p."""

    p: int
    prec: int
    modulus: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        require_odd_prime(self.p)
        if self.prec < 1:
            raise ValueError(f"working precision must be >= 1, got {self.prec}")
        object.__setattr__(self, "modulus", self.p**self.prec)

    def __repr__(self) -> str:
        return f"PadicCtx(p={self.p}, prec={self.prec})"


@dataclass(frozen=True)
class PadicApprox:
    """Residue class u * p^v modulo p^E, E = ctx.prec.

    Invariants: 0 <= v <= E; the zero class is (v=E, u=0); otherwise u is a
    unit in [1, p^(E-v)).
    """

    ctx: PadicCtx
    v: int
    u: int

    def __post_init__(self) -> None:
        p, prec = self.ctx.p, self.ctx.prec
        if not 0 <= self.v <= prec:
            raise ValueError(f"valuation {self.v} outside [0, {prec}]")
        if self.v == prec:
            if self.u != 0:
                raise ValueError("zero class must carry u = 0")
        else:
            if not 0 < self.u < p ** (prec - self.v) or self.u % p == 0:
                raise ValueError(f"u = {self.u} is not a reduced unit")

    # --- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, ctx: PadicCtx) -> PadicApprox:
        return cls(ctx, ctx.prec, 0)

    @classmethod
    def from_residue(cls, ctx: PadicCtx, r: int) -> PadicApprox:
        """Normalize an integer residue into (v, u) form."""
        r %= ctx.modulus
        if r == 0:
            return cls.zero(ctx)
        v = vp_int(r, ctx.p)
        return cls(ctx, v, r // ctx.p**v)

    # --- queries ----------------------------------------------------------

    def is_zero_class(self) -> bool:
        """True when the value is indistinguishable from 0 at this precision."""
        return self.v == self.ctx.prec

    def residue(self) -> int:
        """The canonical integer representative in [0, p^prec)."""
        return self.u * self.ctx.p**self.v

    def describe(self) -> str:
        p = self.ctx.p
        return f"{self.u} * {p}^{self.v} mod {p}^{self.ctx.prec}"

    def __repr__(self) -> str:
        return f"PadicApprox({self.describe()})"

    # --- arithmetic -------------------------------------------------------

    def _join(self, other: PadicApprox) -> None:
        if self.ctx != other.ctx:
            raise CtxMismatchError(f"mixed contexts {self.ctx} and {other.ctx}")

    def add(self, other: PadicApprox) -> PadicApprox:
        self._join(other)
        return PadicApprox.from_residue(self.ctx, self.residue() + other.residue())

    def sub(self, other: PadicApprox) -> PadicApprox:
        self._join(other)
        return PadicApprox.from_residue(self.ctx, self.residue() - other.residue())

    def neg(self) -> PadicApprox:
        return PadicApprox.from_residue(self.ctx, -self.residue())

    def mul(self, other: PadicApprox) -> PadicApprox:
        self._join(other)
        return PadicApprox.from_residue(self.ctx, self.residue() * other.residue())

    __add__ = add
    __sub__ = sub
    __mul__ = mul
    __neg__ = neg


def from_rational(x: RatLike, ctx: PadicCtx) -> PadicApprox:
    """Reduce a p-integral rational into the context, inverting the denominator."""
    x = Fraction(x)
    if vp_int(x.denominator, ctx.p) > 0:
        raise NotPIntegralError(f"{x} is not p-integral at p = {ctx.p}")
    return PadicApprox.from_residue(ctx, x.numerator * pow(x.denominator, -1, ctx.modulus))


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
