import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asdcong import series
from asdcong.exactcore import NotPIntegralError, p_split, vp, vp_int
from asdcong.padic import PadicCtx, from_rational
from asdcong.series import (
    _BLOCK,
    _degree_bound,
    _diffs,
    _extend,
    _level,
    _level_polys,
    _walk,
    apery,
    s_sum_exact,
    s_sum_mod,
    s_sums_exact,
    s_sums_mod,
)


def brute_s_sum(N, m, sign=1):
    """Independent oracle: explicit central binomials, no ratio recurrence."""
    return sum(Fraction(sign**k * math.comb(2 * k, k), m**k) for k in range(N))


def brute_scaled_sum(N, b):
    """b^(N-1) S_N(b) as the integer sum of C(2k,k) b^(N-1-k) over k < N."""
    return sum(math.comb(2 * k, k) * b ** (N - 1 - k) for k in range(N))


def _add(f, g, mod):
    """f + g mod `mod`, coefficient lists, without zero top coefficients."""
    if len(f) < len(g):
        f, g = g, f
    out = [(c + e) % mod for c, e in zip(f, [*g, *[0] * (len(f) - len(g))])]
    while len(out) > 1 and not out[-1]:
        out.pop()
    return out


def _times_linear(poly, a, b, mod):
    """poly * (a x + b) mod `mod`."""
    return _add([b * c for c in poly], [0, *(a * c for c in poly)], mod)


def block_polys(p, level, prec, bases):
    """The reference for `_level_polys`: D, NR / 2 and NQ_m for blocks of
    P = p^level terms as monomial coefficients, multiplied out over all P
    terms of a block, by the formulas of `_level_polys`'s docstring."""
    big, mod = p**level, p**prec
    d_poly, nr_poly = [1], [pow(2, big - 1, mod)]
    for c in range(1, 2 * big):
        v, u = p_split(c, p)
        if c < big:
            d_poly = _times_linear(d_poly, big // p**v, u, mod)
        if c % 2 and c != big:
            nr_poly = _times_linear(nr_poly, 2 * big // p**v, u, mod)
    nq = {m: [1] for m in bases}
    prefix, w = [1], 0
    for r in range(1, big):
        v_num, u_num = p_split(2 * r - 1, p)
        v_den, u_den = p_split(r, p)
        prefix = _times_linear(prefix, 4 * big // p**v_num, 2 * u_num, mod)
        w += v_num - v_den
        scaled = list(map(pow(p, w, mod).__mul__, prefix))
        for m, g in nq.items():
            nq[m] = _add(_times_linear(g, m * big // p**v_den, m * u_den, mod), scaled, mod)
    return d_poly, nr_poly, nq


def newton(poly, mod, top):
    """The forward differences at 0 of the polynomial with coefficients
    `poly`, taken exactly from its values at 0 .. its degree, mod `mod` up
    to order top; the ones above top must vanish mod `mod`."""
    values = [sum(c * j**i for i, c in enumerate(poly)) for j in range(max(len(poly), top + 1))]
    diffs = []
    while values:
        diffs.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    assert all(d % mod == 0 for d in diffs[top + 1 :])
    return [d % mod for d in diffs[: top + 1]]


def carries_adding_k_plus_k(k, p):
    """Kummer oracle: carries when adding k + k in base p."""
    carries = 0
    carry = 0
    while k or carry:
        digit = 2 * (k % p) + carry
        carry = 1 if digit >= p else 0
        carries += carry
        k //= p
    return carries


class TestSSumExact:
    def test_examples(self):
        assert s_sum_exact(1, 17) == 1
        assert s_sum_exact(0, 3) == 0
        assert s_sum_exact(5, 1) == 99  # 1+2+6+20+70
        assert s_sum_exact(3, 4) == Fraction(15, 8)
        assert s_sum_exact(5, -1) == 55  # 1-2+6-20+70, the literal variant at m = 1

    def test_matches_brute_force(self):
        for m in (1, -1, 2, 3, 4, -4, 5, -7, 10, -10):
            for N in (0, 1, 2, 7, 40, 150, 1000):
                assert s_sum_exact(N, m) == brute_s_sum(N, m)
                assert s_sum_exact(N, -m) == brute_s_sum(N, m, -1)


class TestSSumsExact:
    def test_walk_matches_brute_force(self):
        # Signed bases on one walk, each given at random one of the point
        # sets 0 and 1, duplicates, an unsorted list around the chunk edges,
        # nothing at all, or random points (every set is used each time).  Every value equals the direct
        # sum, and a base walked alone gives what it gives in company.
        rng = random.Random(2017)
        for _ in range(4):
            large = rng.randrange(10**20, 10**21)
            bases = [1, -1, 2, -2, 10, -10, large, -large]
            point_sets = [
                [0, 1],
                [5, 5, 1, 5, 0, 1],
                [2 * _BLOCK + 3, 7, _BLOCK, 1, _BLOCK - 1, _BLOCK + 1, 0],
                [],
                [rng.randrange(3 * _BLOCK) for _ in range(6)],
            ]
            points_by_base = {b: point_sets[i % len(point_sets)] for i, b in enumerate(rng.sample(bases, len(bases)))}
            sums = s_sums_exact(points_by_base)
            assert set(sums) == set(points_by_base)
            for b, points in points_by_base.items():
                assert set(sums[b]) == set(points)
                for N in points:
                    assert sums[b][N] == brute_scaled_sum(N, b), (b, N)
                assert s_sums_exact({b: points}) == {b: sums[b]}
        assert s_sums_exact({}) == {}

    def test_rejects(self):
        with pytest.raises(ValueError):
            s_sums_exact({1: (3, -1)})
        with pytest.raises(ValueError):
            s_sums_exact({2: (4,), -2: (3, -2)})
        with pytest.raises(ValueError):
            s_sums_exact({0: (3,)})

    def test_one_point_reads_keep_s_sum_exact(self):
        # s_sum_exact reads one point of the walk over the signed base; it
        # equals the sign-carrying sum sum_k sign^k C(2k,k) m^(N-1-k) / m^(N-1)
        # in both variants.
        for m in (1, 2, 3, 4, 5, 7, 10, -1, -3, -10, 12345):
            for variant, sign in (("corrected", 1), ("literal", -1)):
                for N in (0, 1, 2, 3, 17, _BLOCK, _BLOCK + 1, 600):
                    scaled = sum(sign**k * math.comb(2 * k, k) * m ** (N - 1 - k) for k in range(N))
                    expected = Fraction(scaled, m ** (N - 1)) if N else Fraction(0)
                    assert s_sum_exact(N, sign * m) == expected, (m, variant, N)


class TestSSumMod:
    def test_examples(self):
        out = s_sum_mod(5, 1, PadicCtx(5, 2))
        assert out == 24  # 99 = -1 mod 25

        out = s_sum_mod(3, 2, PadicCtx(3, 2))
        assert out == 8  # 7/2 = 8 mod 9

        assert s_sum_mod(0, 9, PadicCtx(5, 3)) == 0

    def test_p_divides_m_rejected(self):
        with pytest.raises(NotPIntegralError):
            s_sum_mod(4, 10, PadicCtx(5, 2))

    def test_matches_oracle(self):
        # (3, 2) at N = 3^6: valuations of C(2k,k) rise past prec and fall back.
        for p, prec, extra in ((3, 5, ()), (5, 4, ()), (7, 3, ()), (3, 2, (3**6,))):
            ctx = PadicCtx(p, prec)
            for m in (1, 2, 3, 4, -1, -5, 9):
                if m % p == 0:
                    continue
                for b in (m, -m):  # the corrected and the literal variant
                    for N in (0, 1, 2, p, 3 * p**2, 500, *extra):
                        expected = from_rational(s_sum_exact(N, b), ctx)
                        assert s_sum_mod(N, b, ctx) == expected

    def test_deep_oracle_agrees(self):
        # At N = 20000 the oracle's numerator has about 40k bits.
        ctx = PadicCtx(5, 8)
        for b in (3, -3):
            assert from_rational(s_sum_exact(20000, b), ctx) == s_sum_mod(20000, b, ctx)

    def test_checkpoints(self):
        cases = (
            (PadicCtx(7, 4), 3, (300, 0, 50, 50)),
            (PadicCtx(3, 2), 2, (0, 13, 3**5, 3**5 + 1, 3**6, 3**6 + 1)),
            (PadicCtx(3, 3), 4, range(41)),
            (PadicCtx(5, 2), 7, range(41)),
            (PadicCtx(5, 2), 1, ()),
        )
        for ctx, b, points in cases:
            sums = s_sums_mod({b: points}, ctx)[b]
            assert set(sums) == set(points)
            for N, residue in sums.items():
                assert residue == from_rational(s_sum_exact(N, b), ctx)
                assert 0 <= residue < ctx.modulus
            if 0 in sums:
                assert sums[0] == 0
        with pytest.raises(ValueError):
            s_sums_mod({1: (5, -1)}, PadicCtx(3, 2))

    def test_shared_walk_matches_oracle(self):
        # Random sets of signed bases on one walk, with points around the
        # block edges; (3, 2) reaches N = 3^6, where valuations cross prec.
        rng = random.Random(2018)
        exact = {}
        edges = (0, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK)
        for p, prec, extra in ((3, 5, ()), (5, 4, ()), (7, 3, ()), (101, 3, ()), (3, 2, (3**6,))):
            ctx = PadicCtx(p, prec)
            units = [m for m in range(-12, 13) if m % p]
            for _ in range(3):
                m = rng.choice(units)
                bases = {m, -m, *rng.sample(units, 2)}
                points_by_base = {
                    b: {*rng.sample(edges, 2), *rng.sample(range(2 * _BLOCK + 2), 3), *extra} for b in bases
                }
                points_by_base[m].update(edges)
                idle = rng.choice([u for u in units if u not in bases])
                points_by_base[idle] = ()
                sums = s_sums_mod(points_by_base, ctx)
                assert sums[idle] == {}
                assert set(sums) == set(points_by_base)
                for b, points in points_by_base.items():
                    for N in points:
                        if (N, b) not in exact:
                            exact[N, b] = s_sum_exact(N, b)
                        assert sums[b][N] == from_rational(exact[N, b], ctx), (p, prec, b, N)

    def test_block_levels_match_oracle(self):
        # Every level walks the same sums: blocks of P = p^L terms against
        # the level-0 walk at every point and the exact oracle at the smaller
        # ones, with points on and around block edges and chunk edges.  Base
        # 1 also reads every point of one block past the first chunk, whose
        # edge term p divides (so at prec 1 its valuation has reached prec),
        # while base -1 walks through that block and reads nothing in it.
        rng = random.Random(7)
        exact = {}
        for p in (3, 5, 7, 11, 101):
            units = [m for m in range(-12, 13) if m % p]
            full = next(j for j in range(_BLOCK + 2, 2 * _BLOCK) if math.comb(2 * j, j) % p == 0)
            level = 1
            while p**level <= 400:
                big = p**level
                edges = (0, 1, big - 1, big, big + 1, 2 * big, 5 * big + 3, _BLOCK * big - 1, _BLOCK * big)
                edges += ((_BLOCK + 1) * big + big // 2,)
                for prec in (1, 2, 6, 13, 33):
                    bases = {b for b in (1, -1, 10, -10) if b % p} | set(rng.sample(units, 2))
                    points_by_base = {b: {*rng.sample(edges, 4), *rng.sample(range(3 * big), 2)} for b in bases}
                    points_by_base[1].update(edges, rng.sample(range(_BLOCK * big), 3))
                    points_by_base[1].update(range(full * big, (full + 1) * big))
                    points_by_base[-1].add((full + 1) * big + 1)
                    idle = rng.choice([u for u in units if u not in bases])
                    points_by_base[idle] = ()
                    sums = _walk(points_by_base, PadicCtx(p, prec), level)
                    assert sums == _walk(points_by_base, PadicCtx(p, prec), 0), (p, level, prec)
                    assert sums[idle] == {}
                    for b, points in points_by_base.items():
                        for N in points:
                            if N > 3000:
                                continue
                            if (N, b) not in exact:
                                exact[N, b] = s_sum_exact(N, b)
                            assert sums[b][N] == from_rational(exact[N, b], PadicCtx(p, prec))
                level += 1

    def test_block_polys(self):
        # Level 0 is the plain walk: every polynomial is 1.
        assert _level_polys(5, 0, 4, (1, -2)) == ([1], [1], {1: [1], -2: [1]})
        # Block j holds the terms k in [Pj, P(j+1)), P = p^L.  D and NR / 2
        # are its products of units, and its terms sum to
        # C(2Pj, Pj) NQ_m(j) / (D(j) m^(P(j+1)-1)).  A polynomial in Newton
        # form is sum_i diffs[i] C(j, i).
        def unit(c, p):
            while c % p == 0:
                c //= p
            return c

        def value(diffs, j):
            return sum(d * math.comb(j, i) for i, d in enumerate(diffs))

        for p, level, prec in ((3, 1, 4), (3, 2, 5), (3, 3, 2), (5, 2, 7), (7, 1, 3)):
            big, ctx = p**level, PadicCtx(p, prec)
            d_poly, nr_poly, nq = _level_polys(p, level, prec, (1, 2, -4))
            for j in range(5):
                d_value = math.prod(unit(big * j + c, p) for c in range(1, big))
                nr_value = 2 ** (big - 1) * math.prod(unit(2 * big * j + c, p) for c in range(1, 2 * big, 2) if c != big)
                assert value(d_poly, j) % ctx.modulus == d_value % ctx.modulus
                assert value(nr_poly, j) % ctx.modulus == nr_value % ctx.modulus
                for m, poly in nq.items():
                    block = brute_s_sum(big * (j + 1), m) - brute_s_sum(big * j, m)
                    closed = Fraction(math.comb(2 * big * j, big * j) * value(poly, j), d_value * m ** (big * (j + 1) - 1))
                    assert from_rational(block, ctx) == from_rational(closed, ctx), (p, level, prec, j, m)

    def test_level_polys_match_the_direct_build(self):
        # Each level built from the one below equals the forward differences
        # of the polynomials multiplied out over a whole block, at every
        # level with p^L <= 2000, and the direct ones' differences above
        # the degree bound vanish.
        rng = random.Random(11)
        for p in (3, 5, 7, 11):
            units = [m for m in range(-12, 13) if m % p]
            level = 0
            while p**level <= 2000:
                for prec in (1, 2, 5, 12, 33):
                    bases = rng.sample(units, 3)
                    mod, top = p**prec, _degree_bound(p, level, prec)
                    d_poly, nr_poly, nq = block_polys(p, level, prec, bases)
                    direct = newton(d_poly, mod, top), newton(nr_poly, mod, top), {m: newton(g, mod, top) for m, g in nq.items()}
                    assert _level_polys(p, level, prec, bases) == direct, (p, level, prec)
                level += 1

    def test_extend_and_diffs(self):
        # Forward differences and the values and differences rebuilt from
        # them by running sums, against direct evaluation of random integer
        # polynomials; differences above the degree read 0.
        rng = random.Random(12)
        for _ in range(300):
            p = rng.choice((2, 3, 5, 31))
            mod = p ** rng.randrange(1, 40)
            poly = [rng.randrange(-mod, mod) for _ in range(rng.randrange(12))] + [rng.randrange(1, mod)]
            degree = len(poly) - 1

            def f(j):
                return sum(c * j**i for i, c in enumerate(poly))

            def delta(i, x):  # Δ^i f(x), directly
                return sum((-1) ** (i - l) * math.comb(i, l) * f(x + l) for l in range(i + 1)) % mod

            count, size = degree + 1 + rng.randrange(4), rng.randrange(1, 40)
            diffs = _diffs([f(j) for j in range(count)], mod)
            assert diffs == [delta(i, 0) for i in range(count)]
            assert diffs[degree + 1 :] == [0] * (count - degree - 1)
            values, ends = _extend(diffs, size)
            assert [v % mod for v in values] == [f(j) % mod for j in range(size)]
            assert [d % mod for d in ends] == [delta(i, size) for i in range(count)]

    def test_long_walks_reduce_their_state(self):
        # A walk through many chunks with no point between, at small and
        # large moduli and degrees: the carried differences are reduced once
        # per chunk, and the residues are those of the level-0 walk.  An
        # unreduced state would only be slower.
        for p, prec, level in ((3, 2, 1), (3, 12, 2), (5, 6, 2), (7, 20, 1)):
            far = 12 * _BLOCK * p**level
            points_by_base = {1: (far + 1,), -2: (far - 1, far // 2)}
            ctx = PadicCtx(p, prec)
            assert _walk(points_by_base, ctx, level) == _walk(points_by_base, ctx, 0), (p, prec, level)

    def test_walk_above_level_0_starts_at_term_0(self):
        # The differences are carried from block 0, so above level 0 only
        # the default start is taken; level 0 starts from any edge.
        ctx = PadicCtx(3, 4)
        with pytest.raises(ValueError):
            _walk({1: (20,)}, ctx, 1, (9, 1, 0, {}))
        with pytest.raises(ValueError):
            _walk({1: (40,)}, ctx, 2, (9, 1, 0, {1: (0, 1)}))
        assert _walk({1: (20,)}, ctx, 1) == _walk({1: (20,)}, ctx, 0)
        edge = _walk({1: (9, 10)}, ctx, 0)[1]
        # From edge 9 with the empty sum, point 10 reads the term C(18, 9), a unit.
        assert _walk({1: (10,)}, ctx, 0, (9, math.comb(18, 9), 0, {}))[1][10] == (edge[10] - edge[9]) % ctx.modulus

    def test_shared_walk_rejects(self):
        with pytest.raises(NotPIntegralError):
            s_sums_mod({1: (4,), 10: (4,)}, PadicCtx(5, 2))
        with pytest.raises(NotPIntegralError):
            s_sums_mod({-5: ()}, PadicCtx(5, 2))
        with pytest.raises(ValueError):
            s_sums_mod({1: (4,), -1: (3, -2)}, PadicCtx(5, 2))
        # Base 0 is rejected as in `s_sums_exact`, not as a base p divides.
        with pytest.raises(ValueError, match="series base m must be nonzero"):
            s_sums_mod({1: (4,), 0: (3,)}, PadicCtx(5, 2))


@st.composite
def _level_streams(draw):
    """A prime and each base's points n p^a + r: at a block edge, one past it, or farther in."""
    p = draw(st.sampled_from((3, 5, 7, 13)))

    def point(a, n, r):
        return n * p**a + r % (p**a + 1)

    points = st.builds(point, st.integers(1, 8 if p == 3 else 4), st.integers(1, p), st.one_of(st.integers(0, 1), st.integers(0, 10**5)))
    return p, draw(st.lists(st.lists(points, min_size=1, max_size=10), min_size=1, max_size=5))


@settings(max_examples=200, deadline=None)
@given(stream=_level_streams(), prec=st.integers(1, 40), rng=st.randoms(use_true_random=False))
@example(stream=(13, [[1860, 72, 114244]]), prec=27, rng=random.Random(1))  # one base, its points out of order
def test_level_ignores_the_order_of_points_and_bases(stream, prec, rng):
    # s_sums_mod hands `_level` the caller's lists as given: a base's points
    # in any order or repeated, and the bases in any order, price the same.
    p, points = stream
    stops = {m: sorted(set(ns)) for m, ns in enumerate(points, 1)}
    shuffled = {}
    for m in rng.sample(list(stops), len(stops)):
        ns = points[m - 1] + rng.choices(points[m - 1], k=rng.randint(0, 5))
        rng.shuffle(ns)
        shuffled[m] = ns
    assert _level(p, prec, shuffled) == _level(p, prec, stops)


@st.composite
def _block_walks(draw):
    """A prime, a level and signed bases, each with points on, next to or inside block edges."""
    p = draw(st.sampled_from((3, 5, 7)))
    level = draw(st.integers(1, 3))
    big = p**level
    offsets = st.one_of(st.sampled_from((-1, 0, 1)), st.integers(0, big - 1))
    point = st.builds(lambda j, r: max(j * big + r, 0), st.integers(0, 9), offsets)
    bases = draw(st.lists(st.sampled_from([m for m in range(-12, 13) if m % p]), min_size=1, max_size=4, unique=True))
    return p, level, {m: draw(st.lists(point, max_size=5)) for m in bases}


@settings(max_examples=100, deadline=None)
@given(walk=_block_walks(), prec=st.integers(1, 33), block=st.integers(1, 3))
def test_walks_in_chunks_of_one_to_three_blocks(walk, prec, block):
    # With _BLOCK at 1, 2 or 3 a walk above level 0 takes chunks that short,
    # so its carried differences cross many chunk edges, each base's powers
    # are that short, and every tail walk goes in chunks that short too.
    # The residues are those of the level-0 walk at the default _BLOCK.
    p, level, points_by_base = walk
    ctx = PadicCtx(p, prec)
    plain = _walk(points_by_base, ctx, 0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series, "_BLOCK", block)
        assert _walk(points_by_base, ctx, level) == plain


def central_binomials_mod(p, prec, k_max):
    """C(2k,k) mod p^prec for k <= k_max, read off the modular stream of
    S_N(1) as the term S_{k+1} - S_k."""
    ctx = PadicCtx(p, prec)
    sums = s_sums_mod({1: range(k_max + 2)}, ctx)[1]
    return [(sums[k + 1] - sums[k]) % ctx.modulus for k in range(k_max + 1)]


class TestCentralBinomialStream:
    def test_examples(self):
        values = central_binomials_mod(5, 2, 3)
        assert values[0] == 1
        assert (vp_int(values[3], 5), values[3] // 5) == (1, 4)  # C(6,3) = 20 = 5 * 4

    def test_matches_exact_binomials(self):
        for p in (3, 5, 7):
            ctx = PadicCtx(p, 4)
            for k, approx in enumerate(central_binomials_mod(p, 4, 2000)):
                assert approx == from_rational(math.comb(2 * k, k), ctx)

    def test_kummer_carry_valuations(self):
        # The stream's exact valuation is the carry count of k + k in base p.
        for p in (3, 5, 7):
            # deep enough that no valuation saturates
            for k, approx in enumerate(central_binomials_mod(p, 25, 2000)):
                assert vp_int(approx, p) == carries_adding_k_plus_k(k, p)
                assert vp_int(approx, p) == vp(math.comb(2 * k, k), p)


class TestApery:
    def test_examples(self):
        assert apery(0) == 1
        assert apery(1) == 5
        assert apery(4) == 33001

    def test_recurrence_oracle(self):
        # Independent route: (n+1)^3 A_{n+1} = (34n^3+51n^2+27n+5) A_n - n^3 A_{n-1}.
        a_prev, a_here = 1, 5
        for n in range(1, 60):
            rhs = (34 * n**3 + 51 * n**2 + 27 * n + 5) * a_here - n**3 * a_prev
            a_next, rem = divmod(rhs, (n + 1) ** 3)
            assert rem == 0
            assert apery(n + 1) == a_next
            a_prev, a_here = a_here, a_next

    def test_strictly_increasing(self):
        values = [apery(n) for n in range(61)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(v > 0 for v in values)
