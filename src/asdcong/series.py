"""Summation objects: central-binomial partial sums, exact and streamed
modulo p^E, and Apery numbers.

The flagship sum is S_N(m) = sum_{k=0}^{N-1} C(2k,k) / m^k.  Two sign
conventions are first-class: "corrected" (the one the whole congruence family
actually satisfies, equal to the truncated 1F0[1/2; 4/m] series through the
identity (1/2)_k 4^k / k! = C(2k,k)) and "literal" (alternating signs,
(-1)^k C(2k,k) / m^k), kept as a falsification target for the scan command.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .exactcore import NotPIntegralError, binomial
from .padic import PadicApprox, PadicCtx

VARIANTS = ("corrected", "literal")


@dataclass(frozen=True)
class SeriesSpec:
    """Parameters of S_N(m): the base m and the sign convention."""

    m: int
    variant: str = "corrected"

    def __post_init__(self) -> None:
        if self.m == 0:
            raise ValueError("series base m must be nonzero")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")

    @property
    def sign(self) -> int:
        """The sign of the ratio between consecutive terms."""
        return -1 if self.variant == "literal" else 1


def _scaled_sum(N: int, spec: SeriesSpec) -> int:
    """m^(N-1) S_N = sum_{k<N} sign^k C(2k,k) m^(N-1-k), by integer Horner.

    C(2k,k) is carried by C(2k+2,k+1) = C(2k,k) * 2(2k+1) / (k+1), a division
    that is exact, so no rational arithmetic happens inside the loop.
    """
    if N < 0:
        raise ValueError(f"term count must be >= 0, got {N}")
    sign, m = spec.sign, spec.m
    total, c = 0, 1
    for k in range(N):
        total = total * m + c
        c = c * (sign * (4 * k + 2)) // (k + 1)
    return total


def s_sum_exact(N: int, spec: SeriesSpec) -> Fraction:
    """Exact S_N: the sum of the first N terms (empty sum for N = 0)."""
    scaled = _scaled_sum(N, spec)
    return Fraction(scaled, spec.m ** (N - 1)) if N else Fraction(0)


def s_sums_mod(points: Iterable[int], spec: SeriesSpec, ctx: PadicCtx) -> dict[int, int]:
    """S_N mod p^prec, as a residue in [0, p^prec), for every N in points.

    Inverse-free: term k is p^v * T / D, where v is the exact valuation of
    C(2k,k), T the product over j < k of the p-free part of ±2(2j+1) and D
    the product of m times the p-free part of j+1, both mod p^prec.  The
    running sum is kept as A / D, so the only modular inverse is one
    pow(D, -1) per point.  Needs p not dividing m.
    """
    stops = sorted(set(points))
    if stops and stops[0] < 0:
        raise ValueError(f"term count must be >= 0, got {stops[0]}")
    p, prec, mod, m = ctx.p, ctx.prec, ctx.modulus, spec.m
    if m % p == 0:
        raise NotPIntegralError(
            f"series terms at m = {m} are not p-integral for p = {p}"
        )
    sign = spec.sign
    sums: dict[int, int] = {}
    a, t, d, v, pv = 0, 1, 1, 0, 1
    k = 0
    for stop in stops:
        for k in range(k, stop):
            a += pv * t
            num, den = sign * (4 * k + 2), k + 1
            if num % p == 0 or den % p == 0:
                while num % p == 0:
                    num //= p
                    v += 1
                while den % p == 0:
                    den //= p
                    v -= 1
                # v falls as well as rises, so p^v is recomputed exactly
                # rather than carried as a residue that would stick at 0.
                pv = p**v if v < prec else 0
            dm = den * m
            a = a * dm % mod
            d = d * dm % mod
            t = t * num % mod
        k = stop
        sums[stop] = a * pow(d, -1, mod) % mod
    return sums


def s_sum_mod(N: int, spec: SeriesSpec, ctx: PadicCtx) -> PadicApprox:
    """S_N mod p^prec via the streaming ratio recurrence; needs p not dividing m."""
    return PadicApprox.from_residue(ctx, s_sums_mod((N,), spec, ctx)[N])


def apery(n: int) -> int:
    """Apery number A_n = sum_k C(n,k)^2 C(n+k,k)^2, by direct summation."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    return sum(binomial(n, k) ** 2 * binomial(n + k, k) ** 2 for k in range(n + 1))
