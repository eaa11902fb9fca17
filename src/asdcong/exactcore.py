"""Exact arithmetic primitives: binomials, primality, p-adic valuations.

Everything in this module is ground truth for the rest of the package: plain
Python integers (arbitrary precision), no floating point anywhere.  The
valuations of rationals take an int or a ``fractions.Fraction`` (always in
lowest terms, positive denominator) as a caller gives it; a sweep passes
only integers, so this module never imports ``fractions``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    from fractions import Fraction

RatLike = Union[int, "Fraction"]

#: Valuation of zero.
INF = math.inf


class NotPIntegralError(ValueError):
    """A rational with negative p-adic valuation reached a p-integral context.

    This is a meaningful detector, not just a guard: it is how degenerate
    inputs (e.g. a series evaluated at m with p | m) announce themselves.
    """


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIMALITY_LIMIT = 1 << 64


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, valid for all n < 2**64."""
    if n >= PRIMALITY_LIMIT:
        raise ValueError(f"primality test supports n < 2**64 only, got {n}")
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")


def require_odd_prime(p: int) -> None:
    require_prime(p)
    if p == 2:
        raise ValueError("p = 2 is out of scope; only odd primes are supported")


def binomial(n: int, k: int) -> int:
    """C(n, k) for n >= 0, with C(n, k) = 0 when k < 0 or k > n.

    The out-of-range convention matters: several identity right-hand sides
    sum binomials past their natural support and rely on the zero terms.
    """
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n = {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def p_split(n: int, p: int) -> tuple[int, int]:
    """(v, n / p^v), v the exponent of p in a nonzero n; p >= 2 assumed (at 1 it never ends)."""
    if n == 0:
        raise ValueError("a p-power split needs a nonzero integer")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def vp_int(n: int, p: int) -> int:
    """Exponent of p in a nonzero integer, from `p_split` (p >= 2 assumed, not checked)."""
    return p_split(n, p)[0]


def vp(x: RatLike, p: int) -> int | float:
    """p-adic valuation of an int or a Fraction, read from its numerator and
    denominator as given (a float is not converted): vp(num) - vp(den), and
    INF for zero."""
    require_prime(p)
    if x == 0:
        return INF
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


def p_integral(x: RatLike, p: int, label: str = "") -> RatLike:
    """x itself, an int or a Fraction, after a check that p does not divide
    its denominator; NotPIntegralError, naming `label` and x, when it does
    (only a Fraction can fail it)."""
    if x.denominator % p == 0:
        raise NotPIntegralError(f"{label}{x} is not p-integral at p = {p}")
    return x


def rat_congruent(x: RatLike, y: RatLike, p: int) -> int | float:
    """vp(x - y) for p-integral rationals: x ≡ y (mod p^e) exactly when it is
    >= e, and it is INF when x == y.

    Inputs with negative valuation raise NotPIntegralError rather than giving
    a valuation: "the statement is ill-posed" is a different answer than "the
    congruence fails".
    """
    require_prime(p)
    p_integral(x, p, "left side ")
    p_integral(y, p, "right side ")
    # x - y is this over x.den y.den, a unit at p, so no gcd is needed.
    diff = x.numerator * y.denominator - y.numerator * x.denominator
    return INF if diff == 0 else vp_int(diff, p)
