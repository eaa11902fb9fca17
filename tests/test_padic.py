import pickle
import random
import re
from fractions import Fraction

import pytest

from asdcong.exactcore import NotPIntegralError, vp_int
from asdcong.padic import PadicCtx, describe, from_rational, required_guard


def random_p_integral(rng, p, span=10**6):
    num = rng.randrange(-span, span + 1)
    den = rng.randrange(1, 10**4)
    while den % p == 0:
        den //= p
    return Fraction(num, den)


class TestCtx:
    def test_validation(self):
        ctx = PadicCtx(5, 3)
        assert ctx.modulus == 125
        with pytest.raises(ValueError):
            PadicCtx(2, 3)  # p = 2 out of scope
        with pytest.raises(ValueError):
            PadicCtx(9, 3)
        with pytest.raises(ValueError):
            PadicCtx(5, 0)

    def test_replace_and_pickle_build_through_the_constructor(self):
        ctx = PadicCtx(5, 3)
        with pytest.raises(ValueError):
            ctx._replace(prec=0)
        with pytest.raises(ValueError):
            ctx._replace(p=9)
        assert ctx._replace(prec=4) == PadicCtx(5, 4) and ctx._replace(prec=4).modulus == 625
        back = pickle.loads(pickle.dumps(ctx))
        assert type(back) is PadicCtx and back == ctx and back.modulus == 125
        assert repr(back) == "PadicCtx(p=5, prec=3)"


class TestFromRational:
    def test_examples(self):
        ctx = PadicCtx(5, 2)
        assert from_rational(99, ctx) == 24  # 99 mod 25
        assert from_rational(-1, ctx) == 24
        assert from_rational(0, ctx) == 0

        ctx3 = PadicCtx(3, 2)
        y = from_rational(Fraction(15, 8), ctx3)
        assert y == 3  # 15 * 8^{-1} = 15 * 8 = 120 = 3 mod 9
        assert vp_int(y, 3) == 1 and y // 3 == 1  # unit is 5 * 8^{-1} = 1 mod 3

    def test_not_p_integral(self):
        ctx = PadicCtx(3, 4)
        with pytest.raises(NotPIntegralError):
            from_rational(Fraction(1, 3), ctx)

    def test_deep_zero(self):
        ctx = PadicCtx(3, 2)
        assert from_rational(27, ctx) == 0


class TestDescribe:
    def test_forms(self):
        assert describe(80, PadicCtx(3, 4)) == "80 * 3^0 mod 3^4"  # a unit
        assert describe(98, PadicCtx(7, 3)) == "2 * 7^2 mod 7^3"  # a multiple of p
        assert describe(from_rational(Fraction(15, 8), PadicCtx(3, 2)), PadicCtx(3, 2)) == "1 * 3^1 mod 3^2"
        assert describe(0, PadicCtx(3, 4)) == "0 * 3^4 mod 3^4"  # the zero class
        assert describe(81 * 7, PadicCtx(3, 4)) == "0 * 3^4 mod 3^4"

    def test_negative_input(self):
        assert describe(-115, PadicCtx(5, 6)) == "3102 * 5^1 mod 5^6"
        assert describe(-1, PadicCtx(3, 4)) == "80 * 3^0 mod 3^4"


class TestOracleEquivalence:
    def test_ops_match_exact_arithmetic(self):
        # 1000 random p-integral pairs: reducing then operating must equal
        # operating exactly then reducing.
        rng = random.Random(2024)
        for _ in range(1000):
            p = rng.choice((3, 5, 7, 11, 13))
            ctx = PadicCtx(p, rng.randrange(1, 8))
            mod = ctx.modulus
            x = random_p_integral(rng, p)
            y = random_p_integral(rng, p)
            xa, ya = from_rational(x, ctx), from_rational(y, ctx)
            assert (xa + ya) % mod == from_rational(x + y, ctx)
            assert (xa - ya) % mod == from_rational(x - y, ctx)
            assert (xa * ya) % mod == from_rational(x * y, ctx)

    def test_canonical_after_ops(self):
        # Every residue lies in [0, p^E), and describe's unit and valuation
        # rebuild it.
        rng = random.Random(99)
        for _ in range(300):
            p = rng.choice((3, 5, 7))
            ctx = PadicCtx(p, 6)
            x = from_rational(random_p_integral(rng, p), ctx)
            y = from_rational(random_p_integral(rng, p), ctx)
            for value in (x, y, from_rational(x + y, ctx), from_rational(x - y, ctx), from_rational(x * y, ctx)):
                assert 0 <= value < ctx.modulus
                form = re.fullmatch(rf"(\d+) \* {p}\^(\d+) mod {p}\^6", describe(value, ctx))
                u, v = int(form[1]), int(form[2])
                assert u * p**v == value
                assert (u == 0 and v == ctx.prec) or (u % p != 0 and 0 < u < p ** (ctx.prec - v))


class TestRequiredGuard:
    def test_examples(self):
        assert required_guard(100, 4, 5) == 8
        assert required_guard(1, 1, 3) == 3
        assert required_guard(10**6, 6, 3) == 20

    def test_exact_powers(self):
        assert required_guard(125, 1, 5) == 1 + 3 + 2
        assert required_guard(124, 1, 5) == 1 + 2 + 2

    def test_validation(self):
        with pytest.raises(ValueError):
            required_guard(0, 1, 3)
        with pytest.raises(ValueError):
            required_guard(10, 0, 3)
