import random

import pytest

from asdcong.exactcore import is_prime
from asdcong.lucas import (
    legendre,
    lucas_u,
    lucas_u_mod,
)
from asdcong.padic import PadicCtx

ODD_PRIMES_TO_100 = [p for p in range(3, 101) if is_prime(p)]


def naive_u_table(a, mod, n_max):
    """Independent oracle: the recurrence u_n = a u_(n-1) - u_(n-2) iterated term by term."""
    table = [0, 1 % mod]
    for _ in range(n_max - 1):
        table.append((a * table[-1] - table[-2]) % mod)
    return table


class TestLegendre:
    def test_examples(self):
        assert legendre(-3, 7) == 1  # -3 = 4 is a square mod 7
        assert legendre(2, 5) == -1
        assert legendre(21, 7) == 0

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            legendre(3, 2)
        with pytest.raises(ValueError):
            legendre(3, 15)

    def test_matches_nonzero_squares(self):
        # Independent of Euler's criterion, which is the implementation.
        for p in [p for p in range(3, 201) if is_prime(p)]:
            squares = {x * x % p for x in range(1, p)}
            for a in range(-2 * p, 2 * p + 1):
                expected = 0 if a % p == 0 else 1 if a % p in squares else -1
                assert legendre(a, p) == expected

    def test_supplementary_laws_at_a_large_prime(self):
        # (-1/p) = 1 iff p = 1 mod 4, (2/p) = 1 iff p = +-1 mod 8.
        p = 2**61 - 1  # p = 7 mod 8
        assert legendre(-1, p) == (1 if p % 4 == 1 else -1) == -1
        assert legendre(2, p) == (1 if p % 8 in (1, 7) else -1) == 1
        assert legendre(-2, p) == legendre(-1, p) * legendre(2, p)
        assert legendre(p, p) == legendre(-p, p) == 0

    def test_euler_criterion(self):
        for p in [p for p in range(3, 201) if is_prime(p)]:
            for a in range(1, p):
                assert legendre(a, p) % p == pow(a, (p - 1) // 2, p)

    def test_negative_arguments(self):
        for p in ODD_PRIMES_TO_100:
            for a in range(-30, 0):
                assert legendre(a, p) == legendre(a % p, p)


class TestLucasExact:
    def test_examples(self):
        assert lucas_u(0, 123) == 0
        assert lucas_u(1, 9) == 1
        assert lucas_u(4, 3) == 21  # 0, 1, 3, 8, 21
        assert lucas_u(-2, -1) == 1

    def test_negation_rule(self):
        rng = random.Random(11)
        for _ in range(25):
            a = rng.randrange(-50, 51)
            for n in list(range(12)) + [rng.randrange(13, 1001) for _ in range(6)]:
                assert lucas_u(-n, a) == -lucas_u(n, a)

    def test_prime_scaling_identity(self):
        # u_{pl}(m-2, 1) = (m(m-4)/p) u_l(m-2, 1) exactly, for m in {1,2,3}.
        for m in (1, 2, 3):
            for p in ODD_PRIMES_TO_100:
                sym = legendre(m * (m - 4), p)
                for l in range(51):
                    assert lucas_u(p * l, m - 2) == sym * lucas_u(l, m - 2)

    def test_periodicity(self):
        for m, period in ((1, 3), (2, 4), (3, 6)):
            for n in range(-100, 101):
                assert lucas_u(n + period, m - 2) == lucas_u(n, m - 2)

    def test_periodic_path_matches_recurrence(self):
        for a in (-1, 0, 1):
            table = naive_u_table(a, 10**9, 60)
            for n in range(60):
                assert lucas_u(n, a) % 10**9 == table[n]


class TestLucasMod:
    def test_examples(self):
        ctx = PadicCtx(7, 3)
        assert lucas_u_mod(1, 5, ctx) == 1
        assert lucas_u_mod(6, 1, ctx) == 0

    def test_matches_naive_up_to_ten_thousand(self):
        rng = random.Random(31337)
        for _ in range(20):
            a = rng.randrange(-40, 41)
            p = rng.choice((3, 5, 7, 11, 13))
            prec = rng.randrange(1, 6)
            ctx = PadicCtx(p, prec)
            mod = ctx.modulus
            table = naive_u_table(a, mod, 10**4)
            for n in range(10**4 + 1):
                assert lucas_u_mod(n, a, ctx) == table[n]
            for n in range(1, 10**4 + 1, 97):
                assert lucas_u_mod(-n, a, ctx) == (-table[n]) % mod

    def test_matches_naive_large_indices(self):
        # a = 3, p = 5, four digits: fast doubling against a million-step
        # naive iteration.
        ctx = PadicCtx(5, 4)
        table = naive_u_table(3, ctx.modulus, 10**6)
        rng = random.Random(4)
        for n in [0, 1, 10**4, 10**6] + [rng.randrange(10**6) for _ in range(400)]:
            assert lucas_u_mod(n, 3, ctx) == table[n]

    def test_negative_indices(self):
        ctx = PadicCtx(11, 2)
        for n in range(1, 200):
            assert lucas_u_mod(-n, 4, ctx) == (-lucas_u(n, 4)) % ctx.modulus

    def test_periodic_fast_path_vs_doubling(self):
        # The exact m in {1,2,3} orbits answer instantly even at astronomical
        # n; the modular fast-doubling path must agree with them.
        ctx = PadicCtx(13, 5)
        for a in (-1, 0, 1):
            for n in [0, 1, 2, 5, 6, 10**6, 10**12 + 7, 10**18 + 9, 10**400 + 1]:
                assert lucas_u_mod(n, a, ctx) == lucas_u(n, a) % ctx.modulus

    def test_agrees_with_exact_reduction(self):
        ctx = PadicCtx(3, 6)
        for n in range(0, 300):
            assert lucas_u_mod(n, 7, ctx) == lucas_u(n, 7) % ctx.modulus
