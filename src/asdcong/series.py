"""Summation objects: central-binomial partial sums, exact and streamed
modulo p^E, and Apery numbers.

The flagship sum is S_N(b) = sum_{k=0}^{N-1} C(2k,k) / b^k at a signed base
b.  The "corrected" variant at m, b = m, is the one the whole congruence
family actually satisfies, equal to the truncated 1F0[1/2; 4/m] series through
the identity (1/2)_k 4^k / k! = C(2k,k); the "literal" one, b = -m (alternating
signs), is kept as a falsification target for the scan command.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, count, repeat, zip_longest
from operator import add, lshift, mul, rshift
from typing import Iterable, Mapping

from .exactcore import NotPIntegralError, binomial, p_split
from .padic import PadicCtx


#: Terms per chunk of the exact walk in `s_sums_exact`, and block indices
#: per chunk of the modular one in `s_sums_mod`.
_BLOCK = 256


def s_sums_exact(points_by_base: Mapping[int, Iterable[int]]) -> dict[int, dict[int, int]]:
    """b^(N-1) S_N(b), an integer, for every signed base b (negative for
    the literal variant, as in `s_sums_mod`) and every N in its points.

    Each base runs one Horner walk, total <- total b + C(2k,k): after k + 1
    steps the total is b^k S_(k+1), so one walk to a base's last point
    passes every earlier one.  C(2k,k), the same for every base, is carried
    by C(2k+2,k+1) = C(2k,k) 2(2k+1) / (k+1), an exact division, in chunks
    of at most _BLOCK terms cut at every point, and each base still walking
    folds the chunk in.  No rational arithmetic happens inside the loop.
    """
    stops = _stops(points_by_base)
    sums: dict[int, dict[int, int]] = {b: {} for b in stops}
    totals = dict.fromkeys(stops, 0)
    live = [b for b in stops if stops[b]]
    c, k = 1, 0
    for cut in sorted({point for points in stops.values() for point in points}):
        while k < cut:
            e = min(k + _BLOCK, cut)
            terms = [c]  # C(2j,j) for j in [k, e]; the last one starts the next chunk
            terms += [c := c * (4 * j + 2) // (j + 1) for j in range(k, e)]
            terms.pop()
            for b in live:
                total = totals[b]
                for term in terms:
                    total = total * b + term
                totals[b] = total
            k = e
        for b in live:
            if stops[b][-1] == cut:
                sums[b][stops[b].pop()] = totals[b]
        live = [b for b in live if stops[b]]
    return sums


def s_sum_exact(N: int, b: int) -> Fraction:
    """Exact S_N(b) at the signed base b: the sum of the first N terms (empty
    sum for N = 0), one point of `s_sums_exact`."""
    scaled = s_sums_exact({b: (N,)})[b][N]
    return Fraction(scaled, b ** (N - 1)) if N else Fraction(0)


def require_unit(m: int, p: int | None = None) -> None:
    """Reject base 0 and, given p, a base that p divides; the error names m as given."""
    if m == 0:
        raise ValueError("series base m must be nonzero")
    if p is not None and m % p == 0:
        raise NotPIntegralError(f"series terms at m = {m} are not p-integral for p = {p}")


def _stops(points_by_base: Mapping[int, Iterable[int]], p: int | None = None) -> dict[int, list[int]]:
    """Each base's distinct points, last first, after `require_unit` and a check that none is < 0."""
    stops: dict[int, list[int]] = {}
    for b, points in points_by_base.items():
        require_unit(b, p)
        stops[b] = sorted(set(points), reverse=True)
        if stops[b] and stops[b][-1] < 0:
            raise ValueError(f"term count must be >= 0, got {stops[b][-1]}")
    return stops


# Polynomial toolkit.  A polynomial is its list of coefficients mod `mod`,
# constant first, without zero top coefficients (the constant stays).  A
# product or shift keeps the coefficients up to x^top: every one of them is
# then exact, as the map to polynomials mod x^(top+1) is a ring map.


def _trim(poly: list[int]) -> list[int]:
    """poly without its zero top coefficients (the constant stays)."""
    while len(poly) > 1 and not poly[-1]:
        poly.pop()
    return poly


def _add(f: list[int], g: list[int], mod: int) -> list[int]:
    """f + g mod `mod`."""
    if len(f) < len(g):
        f, g = g, f
    return _trim(list(map(mod.__rmod__, map(add, f, [*g, *[0] * (len(f) - len(g))]))))


def _times_linear(poly: list[int], a: int, b: int, mod: int) -> list[int]:
    """poly * (a x + b) mod `mod`."""
    return _add(list(map(b.__mul__, poly)), [0, *map(a.__mul__, poly)], mod)


def _pack(coefficients: Iterable[int], width: int) -> int:
    """The coefficients as one integer, a slot of `width` bits each, the first lowest."""
    return sum(map(lshift, coefficients, count(0, width)))


def _unpack(values: Iterable[int], shifts: Iterable[int], mask: int, mod: int) -> list[int]:
    """The slot of `mask`'s width at bit `shift` of `value`, mod `mod`, for
    each value and shift in step: one slot of many values, or many slots of
    one value."""
    return list(map(mod.__rmod__, map(mask.__and__, map(rshift, values, shifts))))


def _horner(poly: list[int], xs: range) -> list[int]:
    """poly(x) at every x, by Horner's rule: one C-level pass per coefficient."""
    values = [poly[-1]] * len(xs)
    for c in poly[-2::-1]:
        values = list(map(c.__add__, map(mul, values, xs)))
    return values


def _slots(value: int, size: int, width: int, mod: int) -> list[int]:
    """The first `size` slots of `width` bits of `value`, mod `mod`, trimmed."""
    return _trim(_unpack(repeat(value), range(0, size * width, width), (1 << width) - 1, mod))


def _times(f: list[int], g: list[int], mod: int, top: int) -> list[int]:
    """f g mod `mod` up to x^top, by one product of the packed coefficients
    (Kronecker substitution); a constant factor scales the other."""
    if len(g) > len(f):
        f, g = g, f
    if len(g) == 1:
        return _trim([c * g[0] % mod for c in f[: top + 1]])
    f, g = f[: top + 1], g[: top + 1]
    width = (len(g) * (mod - 1) ** 2).bit_length()
    return _slots(_pack(f, width) * _pack(g, width), min(top + 1, len(f) + len(g) - 1), width, mod)


def _shifts(poly: list[int], a: int, size: int, mod: int, top: int) -> list[list[int]]:
    """poly(a x + b) mod `mod` up to x^top for b = 0 .. size - 1, a > 0:
    poly's value at x = a 2^w + b holds the coefficients in slots of w
    bits, and Horner's rule gives every b in one pass per coefficient."""
    degree = len(poly) - 1
    if not degree:
        return [poly] * size
    width = (len(poly) * (mod - 1) * (a + size) ** degree).bit_length()
    values = _horner(poly, range(a << width, (a << width) + size))
    return [_slots(value, min(top, degree) + 1, width, mod) for value in values]


def _next_level(
    polys: tuple[list[int], list[int], dict[int, list[int]]], p: int, big: int, mod: int, top: int
) -> tuple[list[int], list[int], dict[int, list[int]]]:
    """D, NR / 2 and NQ_m for blocks of p big terms (see `_level_polys`) from
    those for blocks of `big` terms, up to x^top.

    Block J of the new level is the blocks j = pJ + r, r < p, of the old
    one; put D_r = D(pJ + r) and so on.  Then the new
    D = prod_r D_r prod_(0<r<p) (pJ + r) and, for the full NR = 2 (NR / 2),
    NR = prod_r NR_r prod_(r != (p-1)/2) (2pJ + 2r + 1): the factors of the
    old blocks plus the ones at their edges.  The new NQ_m is
    sum_r m^(big (p-1-r)) p^w_r prod_(r'<r) n_r' NQ_m,r prod_(r<r''<p) e_r'',
    where e_r = (pJ + r) D_r, n_r = NR_r (2pJ + 2r + 1), divided by p at
    2r + 1 = p, and w_r = 1 for r > (p-1)/2, else 0: the old blocks' sums
    brought to the new block's edge and denominator.  It is built by
    Horner's rule over r, G <- m^big e_r G + p^w_r prod_(r'<r) n_r' NQ_m,r,
    on the prefix products of the n_r' that also build NR, shared by every
    base.  A constant old polynomial (level 0) makes every step a
    `_times_linear`.
    """
    d_poly, nr_poly, nq = polys
    shifted = [_shifts(poly, p, p, mod, top) for poly in (d_poly, nr_poly, *nq.values())]
    ds, nrs, nqs = shifted[0], shifted[1], dict(zip(nq, shifted[2:]))
    half = (p - 1) // 2
    # After step r, prefix is prod_(r'<=r) n_r' / 2^(r+1) without its factor
    # 2J + 1, and scaled[r] is p^w_(r+1) prod_(r'<=r) n_r'.
    prefix, scaled = [1], []
    for r in range(p):
        if r != half:
            prefix = _times_linear(prefix, 2 * p, 2 * r + 1, mod)
        prefix = _times(prefix, nrs[r], mod, top)
        if r < half:
            scaled.append([c * 2 ** (r + 1) % mod for c in prefix])
        elif r < p - 1:
            scaled.append(_times_linear(prefix, 2 ** (r + 2) * p, 2 ** (r + 1) * p, mod))
    nr_next = [c * pow(2, p - 1, mod) % mod for c in prefix]
    d_next = ds[0]
    for r in range(1, p):
        d_next = _times(_times_linear(d_next, p, r, mod), ds[r], mod, top)
    nq_next = {}
    for m, shifts in nqs.items():
        step = pow(m, big, mod)
        g = shifts[0]
        for r in range(1, p):
            g = _times(_times_linear(g, step * p, step * r, mod), ds[r], mod, top)
            g = _add(g, _times(scaled[r - 1], shifts[r], mod, top), mod)
        nq_next[m] = g
    return d_next, nr_next, nq_next


def _level_polys(p: int, level: int, prec: int, bases: Iterable[int]) -> tuple[list[int], list[int], dict[int, list[int]]]:
    """D, NR / 2 and NQ_m for each signed base m, as coefficients mod p^prec
    of polynomials in the block index j, built level by level from level 0,
    where all three are 1 (`_next_level`).

    With P = p^level, block j holds the terms k in [Pj, P(j+1)), and x' is x
    with its p-powers removed.  The units of k + 1 over the block are
    (j+1)' D(j), D(j) = prod_{0<c<P} (Pj + c) / p^v(c); those of 2(2k+1) are
    (2j+1)' NR(j), NR(j) = 2^P prod (2Pj + c) / p^v(c) over odd c < 2P,
    c != P.  The block's terms sum to C(2Pj, Pj) NQ_m(j) / (D(j) m^(P(j+1)-1)),
    NQ_m(j) = sum_{r<P} m^(P-1-r) p^w_r prod_{i<r} n_i(j) prod_{r<=i<P-1} d_i(j),
    where n_i(j) = 2(2Pj+2i+1) / p^v(2i+1), d_i(j) = (Pj+i+1) / p^v(i+1) and
    w_r = v_p C(2r, r) collects the p-powers.  Each factor loses only the
    p-power of its constant: at 2i+1 = P it is 2P(2j+1), and it enters as
    2(2j+1) with P counted in w_r, since 2j+1 itself may be divisible by p.

    Every factor but 2(2j+1) has a j-coefficient divisible by p, and the
    terms of NQ_m that carry 2(2j+1) have r > (P-1)/2, where r + r carries
    out of the low L digits and so w_r >= 1.  So the coefficient of j^d is
    divisible by p^d in all three: above `_degree_bound` every coefficient
    vanishes mod p^prec, and each level keeps only those up to it, so that
    a level costs p Taylor shifts and products of degree below prec per
    polynomial, whatever P is.
    """
    mod = p**prec
    polys: tuple[list[int], list[int], dict[int, list[int]]] = ([1], [1], {m: [1] for m in bases})
    for below in range(level):
        polys = _next_level(polys, p, p**below, mod, _degree_bound(p, below + 1, prec))
    return polys


class _Base:
    """One signed base m of a walk: its sum A / D, D = U m^(Pj), at the block
    edge j reached, the points it still has to read out (last first), the bit
    where NQ_m sits in the packed block polynomial, and m^(Pi+1) and m^(P(i+1))
    for i below the longest chunk from `start` (one list at level 0)."""

    __slots__ = ("m", "a", "d", "stops", "sums", "shift", "powers", "scales")

    def __init__(self, m: int, ad: tuple[int, int], stops: list[int], sums: dict[int, int], shift: int, start: int, big: int, mod: int) -> None:
        self.m, (self.a, self.d), self.stops, self.sums, self.shift = m, ad, stops, sums, shift
        count, step = min(_BLOCK, (stops[0] - start) // big), pow(m, big, mod)
        power = m % mod
        self.powers = [power] + [power := power * step % mod for _ in range(count - 1)]
        power = 1
        self.scales = self.powers if big == 1 else [power := power * step % mod for _ in range(count)]


def _walk(
    points_by_base: Mapping[int, Iterable[int]],
    ctx: PadicCtx,
    level: int,
    start: tuple[int, int, int, Mapping[int, tuple[int, int]]] = (0, 1, 0, {}),
) -> dict[int, dict[int, int]]:
    """`s_sums_mod` in blocks of p^level terms; every level gives the same residues.

    The block polynomials come from `_level_polys`, each level built from
    the one below, so their cost grows with the level, not with p^level.
    The walk starts from `start`: a block edge k (a term index), T_k, v_k
    and each base's (A, D), its sum A / D at the edge; a base not named
    there starts from the empty sum.  The default is term 0.  The points
    past an edge inside its block are read by one level-0 walk from that
    edge, which has no such points, so this recursion is one level deep.
    """
    p, prec, mod = ctx.p, ctx.prec, ctx.modulus
    big = p**level
    k, t, v, starts = start
    stops = _stops(points_by_base, p)
    sums: dict[int, dict[int, int]] = {m: {} for m in stops}
    cuts = sorted({point // big for points in stops.values() for point in points})
    if not cuts:
        return sums
    live = [m for m in stops if stops[m]]
    # NR / 2, D and every NQ_m packed into one polynomial, a slot of `width`
    # bits each: at 0 <= j < cuts[-1] no value overflows its slot.
    d_poly, nr_poly, nq = _level_polys(p, level, prec, live)
    polys = [nr_poly, d_poly, *nq.values()]
    degree = max(map(len, polys)) - 1
    width = ((degree + 1) * mod * cuts[-1] ** degree).bit_length()
    packed = [_pack(cs, width) for cs in zip_longest(*polys, fillvalue=0)]
    mask = (1 << width) - 1
    bases = [_Base(m, starts.get(m, (0, 1)), stops[m], sums[m], width * i, k, big, mod) for i, m in enumerate(live, 2)]
    # p^v, and 0 once v reaches prec; v_j stays below the bit length of 2j.
    p_powers = [p**v for v in range(prec)] + [0] * (2 * cuts[-1]).bit_length()
    strip, up, down = p.__rfloordiv__, (1).__add__, (-1).__add__
    k //= big
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
            ratio = 1  # U_e / U_j from j = e - 1 down to k
            if level:
                values = _horner(packed, range(k, e))
                nums = list(map(mul, nums, _unpack(values, repeat(0), mask, mod)))
                fulls = list(map(mul, dens, _unpack(values, repeat(width), mask, mod)))
                # The block's sum divides by its own D(j): U_e / (U_j D(j)).
                after = [ratio] + [ratio := ratio * full % mod for full in reversed(fulls)]
                after.pop()
                suffixes = list(map(mul, reversed(dens), after))
            else:
                suffixes = [ratio := ratio * den % mod for den in reversed(dens)]
            ts = [t]  # T_j, then T_e last
            ts += [t := t * num % mod for num in nums]
            ts.pop()
            vs = list(accumulate(dv, initial=v))
            v = vs.pop()
            vs.reverse()
            # y_j from j = e - 1 down, to meet m^(P(e-1-j)+1) = powers[e - 1 - j].
            ys = list(map(mul, map(mul, map(p_powers.__getitem__, vs), reversed(ts)), suffixes))
            for base in bases:
                scale = ratio * base.scales[size - 1] % mod
                terms = map(mul, ys, reversed(_unpack(values, repeat(base.shift), mask, mod))) if level else ys
                base.a = (base.a * scale + sum(map(mul, terms, base.powers))) % mod
                base.d = base.d * scale % mod
            k = e
        edge, stop = big * cut, big * (cut + 1)
        tails, tail_starts = {}, {}
        for base in bases:
            if base.stops[-1] == edge:
                base.sums[base.stops.pop()] = base.a * pow(base.d, -1, mod) % mod
            tail = []
            while base.stops and base.stops[-1] < stop:
                tail.append(base.stops.pop())
            if tail:
                tails[base.m], tail_starts[base.m] = tail, (base.a, base.d)
        if tails:
            for m, read in _walk(tails, ctx, 0, (edge, t, v, tail_starts)).items():
                sums[m].update(read)
        bases = [base for base in bases if base.stops]
    return sums


def _degree_bound(p: int, level: int, prec: int) -> int:
    """The degree above which D, NR and NQ_m vanish mod p^prec.

    The j-coefficient of (p^level j + c) / p^v(c) has valuation level - v(c):
    1 for p - 1 of the c, 2 for (p - 1) p of them, and so on, so the
    coefficient of j^d is divisible by p to the sum of the d smallest.  The
    bound is at most p^level - 1, the number of such factors.
    """
    degree = total = 0
    for val in range(1, level + 1):
        count = (p - 1) * p ** (val - 1)
        take = min(count, (prec - 1 - total) // val)
        degree += take
        total += take * val
        if take < count:
            break
    return degree


def _level(p: int, prec: int, stops: Mapping[int, list[int]]) -> int:
    """The block level with the least estimated time for these points.

    The weights are CPython timings of `_walk` in nanoseconds, fitted by
    least squares to walks of the benchmark's streams and of random ones at
    every affordable level.  A level-0 walk costs, per term, a step and each
    base's fold, and per point a chunk's set-up and each base's fold.  From
    level 1 up the walk over block indices costs the same per index plus a
    pass per coefficient and per slot of the packed polynomial, and each
    base's fold per block that holds a point.  The points inside blocks
    cost one level-0 walk from each such block's edge, to its farthest
    point, with each base going to its own.  Building the polynomials costs
    per level p Taylor shifts and products per polynomial, with as many
    coefficients as the level and the one below keep (`_next_level`), so
    the build grows about linearly with the level.  The inverse per point is
    the same at every level.  So a stream with few points far out walks
    large blocks, and a short or dense one stays at level 0.
    """
    points = {point for ns in stops.values() for point in ns}
    lasts = [max(ns) for ns in stops.values() if ns]
    top = max(points, default=0)
    bases, slots = len(lasts), len(lasts) + 2

    def plain(terms: int, base_terms: int, cuts: int) -> int:  # a level-0 walk
        return 640 * terms + 70 * base_terms + (14_000 + 700 * bases) * cuts

    best, chosen = plain(top, sum(lasts), len(points)), 0
    build = degree = 0
    level = 1
    while p**level <= top:
        big = p**level
        below, degree = degree, _degree_bound(p, level, prec)
        build += p * slots * (1_300 * (degree + 1) + 2_800 * below)
        if build >= best:
            break  # and so at every higher level
        reach: dict[int, int] = {}  # the farthest point in each block that holds one
        ends = 0
        for ns in stops.values():
            own: dict[int, int] = {}
            for point in ns:
                j, offset = divmod(point, big)
                own[j] = max(own.get(j, 0), offset)
            ends += sum(own.values())
            for j, offset in own.items():
                reach[j] = max(reach.get(j, 0), offset)
        blocks = top // big
        cost = build + plain(blocks, sum(last // big for last in lasts), 0) + 2_400 * bases * len(reach)
        cost += blocks * (degree * (300 + 23 * slots) + 170 * slots)
        cost += plain(sum(reach.values()), ends, sum(1 for point in points if point % big))
        cost += 43_000 * sum(1 for offset in reach.values() if offset)  # each such walk's set-up
        if cost < best:
            best, chosen = cost, level
        level += 1
    return chosen


def s_sums_mod(points_by_base: Mapping[int, Iterable[int]], ctx: PadicCtx) -> dict[int, dict[int, int]]:
    """S_N(m) mod p^prec for every signed base m and every N in its points.

    Returns {m: {N: residue in [0, p^prec)}}.  A negative m is the literal
    variant at |m|: sum (-1)^k C(2k,k) / |m|^k = sum C(2k,k) / (-|m|)^k.

    One walk over C(2k,k) serves every base.  It goes in blocks of P = p^L
    terms, L chosen here from p, prec and the points (`_level`).  The
    C(2Pj, Pj) at the block edges satisfy the level-0 recurrence in j with
    the units of 2(2j+1) and j+1 scaled by two polynomials in j (NR and D of
    `_level_polys`), and block j's P terms sum to C(2Pj, Pj) NQ_m(j) /
    (D(j) m^(P(j+1)-1)), so each block costs a few polynomial values instead
    of P steps; at L = 0 the polynomials are 1 and a block is one term.
    Level L's polynomials are composed from p Taylor-shifted copies of level
    L - 1's, each truncated at `_degree_bound`, so building them costs about
    L times a level's work, however large p^L is.

    Edge j's term is p^v_j T_j / (U_j m^(Pj)), where v_j is the exact
    valuation of C(2Pj, Pj) and T_j, U_j are the products over i < j of the
    numerator and denominator units, mod p^prec.  The walk takes the block
    indices in chunks [b, e) of at most _BLOCK (cut at every block that
    holds a point), evaluates the polynomials at the whole chunk with one
    packed Horner pass per coefficient, and forms y_j = p^v_j T_j U_e /
    (U_j D(j)), which do not depend on m.  A base keeps its sum as
    A / (U m^(Pj)) and updates it once per chunk,
    A <- A (U_e / U_b) m^(P(e-b)) + sum y_j NQ_m(j) m^(P(e-1-j)+1), one dot
    product against its powers of m.  A point N = PJ reads A at edge J; the
    points N = PJ + R, 0 < R < P, of every base are read by one level-0 walk
    of `_walk` from edge J.  Each point costs one modular inverse, and each
    base stops at its own last point.  Needs p not dividing any m.
    """
    points = {m: list(ns) for m, ns in points_by_base.items()}
    return _walk(points, ctx, _level(ctx.p, ctx.prec, points))


def s_sum_mod(N: int, b: int, ctx: PadicCtx) -> int:
    """S_N(b) mod p^prec in [0, p^prec) at the signed base b: one point of
    `s_sums_mod`; needs p not dividing b."""
    return s_sums_mod({b: (N,)}, ctx)[b][N]


def apery(n: int) -> int:
    """Apery number A_n = sum_k C(n,k)^2 C(n+k,k)^2, by direct summation."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    return sum(binomial(n, k) ** 2 * binomial(n + k, k) ** 2 for k in range(n + 1))
