import random
from fractions import Fraction

import pytest

from asdcong.exactcore import NotPIntegralError
from asdcong.padic import (
    CtxMismatchError,
    PadicApprox,
    PadicCtx,
    from_rational,
    required_guard,
)


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


class TestFromRational:
    def test_examples(self):
        ctx = PadicCtx(5, 2)
        x = from_rational(99, ctx)
        assert (x.v, x.u) == (0, 24)  # 99 mod 25 = 24

        z = from_rational(0, ctx)
        assert z.is_zero_class() and (z.v, z.u) == (2, 0)

        ctx3 = PadicCtx(3, 2)
        y = from_rational(Fraction(15, 8), ctx3)
        assert y.v == 1 and y.u == 1  # unit is 5 * 8^{-1} = 1 mod 3

    def test_not_p_integral(self):
        ctx = PadicCtx(3, 4)
        with pytest.raises(NotPIntegralError):
            from_rational(Fraction(1, 3), ctx)

    def test_deep_zero(self):
        ctx = PadicCtx(3, 2)
        assert from_rational(27, ctx).is_zero_class()


class TestArithmetic:
    def test_add_identity(self):
        ctx = PadicCtx(7, 3)
        x = from_rational(Fraction(13, 5), ctx)
        assert x.add(PadicApprox.zero(ctx)) == x

    def test_mul_valuations(self):
        ctx = PadicCtx(3, 3)
        three = from_rational(3, ctx)
        nine = three.mul(three)
        assert (nine.v, nine.u) == (2, 1)

    def test_sub_to_zero_class(self):
        ctx = PadicCtx(5, 2)
        d = from_rational(99, ctx).sub(from_rational(-1, ctx))
        assert d.is_zero_class() and (d.v, d.u) == (2, 0)

    def test_invariants(self):
        ctx = PadicCtx(5, 2)
        assert PadicApprox.zero(ctx) == PadicApprox(ctx, 2, 0)
        assert PadicApprox.from_residue(ctx, -5) == PadicApprox(ctx, 1, 4)
        for v, u in ((3, 0), (-1, 1), (2, 1), (0, 5), (0, 25), (1, 5), (0, 0)):
            with pytest.raises(ValueError):
                PadicApprox(ctx, v, u)

    def test_ctx_mismatch(self):
        a = from_rational(1, PadicCtx(3, 2))
        b = from_rational(1, PadicCtx(5, 2))
        with pytest.raises(CtxMismatchError):
            a.add(b)

    def test_operator_sugar(self):
        ctx = PadicCtx(7, 2)
        x = from_rational(10, ctx)
        y = from_rational(3, ctx)
        assert x + y == from_rational(13, ctx)
        assert x - y == from_rational(7, ctx)
        assert x * y == from_rational(30, ctx)
        assert -x == from_rational(-10, ctx)


class TestOracleEquivalence:
    def test_ops_match_exact_arithmetic(self):
        # 1000 random p-integral pairs: reducing then operating must equal
        # operating exactly then reducing.
        rng = random.Random(2024)
        for _ in range(1000):
            p = rng.choice((3, 5, 7, 11, 13))
            ctx = PadicCtx(p, rng.randrange(1, 8))
            x = random_p_integral(rng, p)
            y = random_p_integral(rng, p)
            xa, ya = from_rational(x, ctx), from_rational(y, ctx)
            assert xa.add(ya) == from_rational(x + y, ctx)
            assert xa.sub(ya) == from_rational(x - y, ctx)
            assert xa.mul(ya) == from_rational(x * y, ctx)

    def test_canonical_after_ops(self):
        rng = random.Random(99)
        for _ in range(300):
            p = rng.choice((3, 5, 7))
            ctx = PadicCtx(p, 6)
            x = from_rational(random_p_integral(rng, p), ctx)
            y = from_rational(random_p_integral(rng, p), ctx)
            for value in (x + y, x - y, x * y):
                if value.v < ctx.prec:
                    assert value.u % p != 0
                    assert 0 < value.u < p ** (ctx.prec - value.v)
                else:
                    assert value.u == 0


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
