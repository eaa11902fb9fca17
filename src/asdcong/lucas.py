"""The Legendre symbol and Lucas sequences u_n(a, 1), exact and modular.

u_n = a u_{n-1} - u_{n-2} with u_0 = 0, u_1 = 1, and u_{-n} = -u_n.  The
congruence suites take a = m - 2.  Modulo p^e every term comes from fast
doubling.  For m in {1, 2, 3} the sequence is purely periodic with period 3,
4 or 6; those orbits serve the exact `lucas_u` and lemma-2-4's block sums,
and the tests check the modular path against them.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

from .exactcore import require_odd_prime
from .padic import PadicCtx


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) by Euler's criterion: a^((p-1)/2) mod p is 0 when
    p | a, else 1 or p - 1 by quadratic residuosity."""
    require_odd_prime(p)
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


# Exact periodic orbits of u_n(a, 1) for the degenerate discriminants.
_PERIODIC_ORBITS = {
    -1: (0, 1, -1),
    0: (0, 1, 0, -1),
    1: (0, 1, 1, 0, -1, -1),
}


def lucas_u(n: int, a: int) -> int:
    """Exact u_n(a, 1), any integer n."""
    if n < 0:
        return -lucas_u(-n, a)
    if a in _PERIODIC_ORBITS:
        orbit = _PERIODIC_ORBITS[a]
        return orbit[n % len(orbit)]
    return next(islice(_u_values(a), n, None))


def _u_values(a: int) -> Iterator[int]:
    """u_0, u_1, u_2, ... exactly, one recurrence step per value."""
    u0, u1 = 0, 1
    while True:
        yield u0
        u0, u1 = u1, a * u1 - u0


def _u_pair_mod(n: int, a: int, mod: int) -> tuple[int, int]:
    """(u_n, u_{n+1}) mod `mod` for n >= 0 by fast doubling: one step per bit
    of n, from the top, takes (u_k, u_{k+1}) to the pair at 2k or 2k + 1."""
    uk, uk1 = 0, 1 % mod
    for bit in bin(n)[2:]:
        u2k = uk * (2 * uk1 - a * uk) % mod
        u2k1 = (uk1 * uk1 - uk * uk) % mod
        uk, uk1 = (u2k1, (a * u2k1 - u2k) % mod) if bit == "1" else (u2k, u2k1)
    return uk, uk1


def lucas_u_mod(n: int, a: int, ctx: PadicCtx) -> int:
    """u_n(a, 1) modulo p^prec, in [0, p^prec), by fast doubling; n may be
    astronomically large."""
    if n < 0:
        return -lucas_u_mod(-n, a, ctx) % ctx.modulus
    return _u_pair_mod(n, a, ctx.modulus)[0]
