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
from itertools import accumulate
from operator import mul
from typing import Iterable, Mapping

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

    @property
    def base(self) -> int:
        """The signed base: the series is sum C(2k,k) / base^k in either variant."""
        return self.sign * self.m


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


def _require_unit(m: int, p: int) -> None:
    if m % p == 0:
        raise NotPIntegralError(f"series terms at m = {m} are not p-integral for p = {p}")


#: Terms per block of the shared walk in `s_sums_mod`.
_BLOCK = 256


class _Base:
    """One signed base m of a walk: its running sum A / D, the points it still
    has to read out (last first) and m^1, m^2, ... up to a block's length."""

    __slots__ = ("a", "d", "stops", "sums", "powers")

    def __init__(self, m: int, stops: list[int], mod: int, sums: dict[int, int]) -> None:
        self.a, self.d, self.stops, self.sums = 0, 1, stops, sums
        power = 1
        self.powers = [power := power * m % mod for _ in range(min(_BLOCK, stops[0]))]


def s_sums_mod(points_by_base: Mapping[int, Iterable[int]], ctx: PadicCtx) -> dict[int, dict[int, int]]:
    """S_N(m) mod p^prec for every signed base m and every N in its points.

    Returns {m: {N: residue in [0, p^prec)}}.  A negative m is the literal
    variant at |m|: sum (-1)^k C(2k,k) / |m|^k = sum C(2k,k) / (-|m|)^k.

    One walk over C(2k,k) serves every base.  Term k is p^v_k T_k / (U_k m^k),
    where v_k is the exact valuation of C(2k,k) and T_k, U_k are the products
    over j < k of the p-free parts of 2(2j+1) and of j+1, mod p^prec.  The
    walk goes in blocks [b, e) of at most _BLOCK terms and forms
    y_k = p^v_k T_k U_e / U_k, which do not depend on m; a base keeps its
    partial sum as A / (U m^N) and updates it once per block,
    A <- A (U_e / U_b) m^(e-b) + sum y_k m^(e-k), one dot product against its
    powers of m.  So the only modular inverse is one per point read out, and
    each base stops at its own last point.  Needs p not dividing any m.
    """
    p, prec, mod = ctx.p, ctx.prec, ctx.modulus
    stops: dict[int, list[int]] = {}
    for m, points in points_by_base.items():
        _require_unit(m, p)
        stops[m] = sorted(set(points), reverse=True)
        if stops[m] and stops[m][-1] < 0:
            raise ValueError(f"term count must be >= 0, got {stops[m][-1]}")
    sums: dict[int, dict[int, int]] = {m: {} for m in stops}
    cuts = sorted(set().union(*stops.values()))
    if not cuts:
        return sums
    bases = [_Base(m, stops[m], mod, sums[m]) for m in stops if stops[m]]
    # p^v, and 0 once v reaches prec; v_k stays below the bit length of 2k.
    p_powers = [p**v for v in range(prec)] + [0] * (2 * cuts[-1]).bit_length()
    strip, up, down = p.__rfloordiv__, (1).__add__, (-1).__add__
    t, v, k = 1, 0, 0
    for cut in cuts:
        while k < cut:
            e = min(k + _BLOCK, cut)
            size = e - k
            # 2(2j+1) and j+1 for j in [k, e), made p-free; dv[j - k] = v_(j+1) - v_j.
            nums = list(range(4 * k + 2, 4 * e + 2, 4))
            dens = list(range(k + 1, e + 1))
            dv = [0] * size
            q = p
            while q < 2 * e:
                first = ((q - 1) // 2 - k) % q  # q | 2j+1
                if first < size:
                    nums[first::q] = map(strip, nums[first::q])
                    dv[first::q] = map(up, dv[first::q])
                first = (-k - 1) % q  # q | j+1
                if first < size:
                    dens[first::q] = map(strip, dens[first::q])
                    dv[first::q] = map(down, dv[first::q])
                q *= p
            ts = [t]  # T_j, then T_e last
            ts += [t := t * num % mod for num in nums]
            ts.pop()
            ratio = 1  # U_e / U_j from j = e - 1 down to k
            suffixes = [ratio := ratio * den % mod for den in reversed(dens)]
            vs = list(accumulate(dv, initial=v))
            v = vs.pop()
            vs.reverse()
            # y_j from j = e - 1 down, to meet m^(e-j) = powers[e - 1 - j].
            ys = list(map(mul, map(mul, map(p_powers.__getitem__, vs), reversed(ts)), suffixes))
            for base in bases:
                scale = ratio * base.powers[size - 1] % mod
                base.a = (base.a * scale + sum(map(mul, ys, base.powers))) % mod
                base.d = base.d * scale % mod
            k = e
        for base in bases:
            if base.stops[-1] == cut:
                base.sums[cut] = base.a * pow(base.d, -1, mod) % mod
                base.stops.pop()
        bases = [base for base in bases if base.stops]
    return sums


def s_sum_mod(N: int, spec: SeriesSpec, ctx: PadicCtx) -> PadicApprox:
    """S_N mod p^prec as a PadicApprox: one point of `s_sums_mod`; needs p not dividing m."""
    _require_unit(spec.m, ctx.p)  # the error names m as given, not the signed base
    return PadicApprox.from_residue(ctx, s_sums_mod({spec.base: (N,)}, ctx)[spec.base][N])


def apery(n: int) -> int:
    """Apery number A_n = sum_k C(n,k)^2 C(n+k,k)^2, by direct summation."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    return sum(binomial(n, k) ** 2 * binomial(n + k, k) ** 2 for k in range(n + 1))
