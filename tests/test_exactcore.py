import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asdcong.exactcore import (
    INF,
    NotPIntegralError,
    binomial,
    is_prime,
    p_split,
    rat_congruent,
    p_integral,
    vp,
    vp_int,
)
from asdcong.padic import PadicCtx, from_rational

SMALL_PRIMES = (3, 5, 7, 11, 13)


def pascal_rows(n_max):
    """Independent binomial oracle: Pascal's triangle built row by row."""
    row = [1]
    yield row
    for _ in range(n_max):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
        yield row


def trial_division_valuation(n, p):
    """Independent valuation oracle."""
    assert n != 0
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class TestBinomial:
    def test_small_cases(self):
        assert binomial(6, 3) == 20
        assert binomial(0, 0) == 1
        assert binomial(4, 5) == 0
        assert binomial(4, -1) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_matches_pascal_triangle(self):
        for n, row in enumerate(pascal_rows(200)):
            for k, expected in enumerate(row):
                assert binomial(n, k) == expected

    def test_addition_recurrence(self):
        for n in range(1, 201):
            for k in range(1, n + 1):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


class TestPochhammer:
    def test_central_binomial_bridge(self):
        # (1/2)_k 4^k / k! = C(2k, k): the link between the 1F0 terms and
        # the central binomial sums.  The rising factorial (1/2)_k is built
        # up one factor at a time.
        rising = Fraction(1)
        for k in range(501):
            assert rising * 4**k / math.factorial(k) == binomial(2 * k, k)
            rising *= Fraction(1, 2) + k


class TestVp:
    def test_examples(self):
        assert vp(33000, 5) == trial_division_valuation(33000, 5) == 3
        assert vp(0, 7) == INF
        assert vp(Fraction(7, 2), 3) == 0
        assert vp(Fraction(15, 8), 2) == -3
        assert vp(Fraction(1, 9), 3) == -2

    def test_non_prime_rejected(self):
        for bad in (1, 6, 0, -3):
            with pytest.raises(ValueError):
                vp(10, bad)

    @given(
        p=st.sampled_from(SMALL_PRIMES),
        a=st.integers(-(10**6), 10**6).filter(lambda x: x != 0),
        b=st.integers(-(10**6), 10**6).filter(lambda x: x != 0),
        c=st.integers(1, 10**6),
        d=st.integers(1, 10**6),
    )
    @settings(max_examples=150, deadline=None)
    def test_multiplicative_and_ultrametric(self, p, a, b, c, d):
        x = Fraction(a, c)
        y = Fraction(b, d)
        assert vp(x * y, p) == vp(x, p) + vp(y, p)
        if x + y != 0:
            lo = min(vp(x, p), vp(y, p))
            assert vp(x + y, p) >= lo
            if vp(x, p) != vp(y, p):
                assert vp(x + y, p) == lo


class TestPSplit:
    def test_examples(self):
        assert p_split(33000, 5) == (3, 264)
        assert p_split(-18, 3) == (2, -2)
        assert p_split(7, 3) == (0, 7)
        assert vp_int(-18, 3) == 2

    def test_zero_rejected(self):
        for split in (p_split, vp_int):
            with pytest.raises(ValueError):
                split(0, 3)


class TestRatCongruent:
    # rat_congruent(x, y, p) is vp(x - y); x = y (mod p^e) when it is >= e.
    def test_examples(self):
        assert rat_congruent(99, -1, 5) == 2  # 99 + 1 = 100 = 4 * 5^2
        assert rat_congruent(5, -1, 5) == 0  # 5 + 1 = 6, coprime to 5
        assert rat_congruent(Fraction(7, 3), Fraction(7, 3), 11) == INF
        assert rat_congruent(Fraction(1, 2), Fraction(-13, 2), 7) == 1  # 7, over a unit

    def test_not_p_integral_raises(self):
        with pytest.raises(NotPIntegralError, match="left side 1/5"):
            rat_congruent(Fraction(1, 5), 0, 5)
        with pytest.raises(NotPIntegralError, match="right side 3/25"):
            rat_congruent(0, Fraction(3, 25), 5)

    def test_bad_parameters(self):
        # p = 1 must raise, not hang: 1 divides every integer, so a p-power
        # split at p = 1 never ends.
        for bad in (0, 1, 4):
            with pytest.raises(ValueError):
                rat_congruent(1, 1, bad)

    @given(
        p=st.sampled_from(SMALL_PRIMES),
        nums=st.tuples(*(st.integers(-500, 500) for _ in range(3))),
        dens=st.tuples(*(st.integers(1, 60) for _ in range(3))),
    )
    @settings(max_examples=150, deadline=None)
    def test_equivalence_relation(self, p, nums, dens):
        # Congruence mod p^e is an equivalence relation for every e: in
        # valuations, v(x - x) = INF, v(x - y) = v(y - x), and
        # v(x - z) >= min(v(x - y), v(y - z)).
        def integralize(num, den):
            while den % p == 0:
                den //= p
            return Fraction(num, den)

        x, y, z = (integralize(n, d) for n, d in zip(nums, dens))
        assert rat_congruent(x, x, p) == INF
        assert rat_congruent(x, y, p) == rat_congruent(y, x, p) == vp(x - y, p)
        assert rat_congruent(x, z, p) >= min(rat_congruent(x, y, p), rat_congruent(y, z, p))

    @given(
        p=st.sampled_from(SMALL_PRIMES),
        sides=st.lists(
            st.tuples(st.integers(-(10**25), 10**25), st.integers(1, 10**6), st.booleans()),
            min_size=2,
            max_size=2,
        ),
        same=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_cross_multiplied_matches_the_difference(self, p, sides, same):
        # rat_congruent cross-multiplies instead of building x - y as a
        # Fraction; its value is the valuation of that difference, for ints
        # and Fractions of either sign, and INF when x == y.  A side that is
        # not p-integral is still named.
        def value(num, den, as_int):
            if as_int:
                return num
            while den % p == 0:
                den //= p
            return Fraction(num, den)

        x, y = (value(*side) for side in sides)
        if same:
            y = Fraction(x) if type(x) is int else x
        assert rat_congruent(x, y, p) == vp(Fraction(x) - Fraction(y), p)
        bad = Fraction(x) / p ** (vp(x, p) + 1) if x else Fraction(1, p)
        with pytest.raises(NotPIntegralError, match="left side"):
            rat_congruent(bad, y, p)
        with pytest.raises(NotPIntegralError, match="right side"):
            rat_congruent(x, bad, p)


class TestIntegersPassThrough:
    # An int has the numerator and denominator the checks read: it goes
    # through them as it is, and reads as its Fraction would.
    @given(
        x=st.integers(-(10**30), 10**30),
        y=st.integers(-(10**30), 10**30),
        p=st.sampled_from(SMALL_PRIMES),
        prec=st.integers(1, 40),
        mixed=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_int_matches_its_fraction(self, x, y, p, prec, mixed):
        ctx = PadicCtx(p, prec)
        assert p_integral(x, p) is x
        other = Fraction(y) if mixed else y
        assert rat_congruent(x, other, p) == rat_congruent(Fraction(x), Fraction(y), p)
        assert rat_congruent(other, x, p) == rat_congruent(Fraction(y), Fraction(x), p)
        assert from_rational(x, ctx) == from_rational(Fraction(x), ctx)
        assert vp(x, p) == vp(Fraction(x), p)


class TestIsPrime:
    def test_small_values(self):
        primes_below_100 = [n for n in range(100) if is_prime(n)]
        sieve = [True] * 100
        sieve[0] = sieve[1] = False
        for i in range(2, 10):
            if sieve[i]:
                for j in range(i * i, 100, i):
                    sieve[j] = False
        assert primes_below_100 == [n for n in range(100) if sieve[n]]

    def test_large_values(self):
        assert is_prime(2**61 - 1)
        assert not is_prime((2**31 - 1) * (2**31 + 11))
        with pytest.raises(ValueError):
            is_prime(2**64)

    def test_random_semiprimes(self):
        rng = random.Random(7)
        small = [p for p in range(3, 1000) if is_prime(p)]
        for _ in range(200):
            a, b = rng.choice(small), rng.choice(small)
            assert not is_prime(a * b)
