"""Summation objects: central-binomial partial sums, exact and streamed
modulo p^E, and Apery numbers.

The flagship sum is S_N(b) = sum_{k=0}^{N-1} C(2k,k) / b^k at a signed base
b.  The "corrected" variant at m, b = m, is the one the whole congruence
family actually satisfies, equal to the truncated 1F0[1/2; 4/m] series through
the identity (1/2)_k 4^k / k! = C(2k,k); the "literal" one, b = -m (alternating
signs), is kept as a falsification target for the scan command.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add, mul, sub
from typing import TYPE_CHECKING, Iterable, Mapping

from .exactcore import NotPIntegralError, binomial
from .padic import PadicCtx

if TYPE_CHECKING:
    from fractions import Fraction


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
    sum for N = 0), one point of `s_sums_exact`.  It serves `eval` and the
    public API; a sweep reads the integers, so only this imports `fractions`."""
    from fractions import Fraction

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


# Newton form.  A polynomial f in the block index is kept as its forward
# differences at 0, Δ^i f(0) mod `mod` for i up to a degree bound; then
# f(j) = sum_i Δ^i f(0) C(j, i) mod `mod` at every j >= 0 (see `_degree_bound`).


def _extend(diffs: list[int], size: int) -> tuple[list[int], list[int]]:
    """f(j) for j < size from f's forward differences at 0, Δ^i f(0) for
    i < len(diffs), and the differences at size, Δ^i f(size): one C-level
    running-sum pass per order above 0, Δ^i f(j) = Δ^i f(0) + sum_(j'<j)
    Δ^(i+1) f(j').  Nothing is reduced."""
    values, ends = [diffs[-1]] * (size + 1), [diffs[-1]]
    for d in diffs[-2::-1]:
        values = list(accumulate(values, initial=d))
        values.pop()
        ends.append(values[-1])
    values.pop()
    ends.reverse()
    return values, ends


def _diffs(values: list[int], mod: int) -> list[int]:
    """Δ^i f(0) mod `mod` for i < len(values), from the values f(0), f(1), ..."""
    out = []
    while values:
        out.append(values[0] % mod)
        values = list(map(sub, values[1:], values))
    return out


def _next_level(
    polys: tuple[list[int], list[int], dict[int, list[int]]], p: int, big: int, mod: int, top: int
) -> tuple[list[int], list[int], dict[int, list[int]]]:
    """D, NR / 2 and NQ_m for blocks of p big terms (see `_level_polys`) from
    those for blocks of `big` terms, in Newton form up to Δ^top.

    Block J of the new level is the blocks j = pJ + r, r < p, of the old
    one; put D_r = D(pJ + r) and so on.  Then the new
    D = prod_r D_r prod_(0<r<p) j and, for the full NR = 2 (NR / 2),
    NR = prod_r NR_r prod_(r != (p-1)/2) (2j + 1): the factors of the old
    blocks plus the ones at their edges.  The new NQ_m is
    sum_r m^(big (p-1-r)) p^w_r prod_(r'<r) n_r' NQ_m,r prod_(r<r''<p) e_r'',
    where e_r = j D_r, n_r = NR_r (2j + 1), divided by p at 2r + 1 = p, and
    w_r = 1 for r > (p-1)/2, else 0: the old blocks' sums brought to the
    new block's edge and denominator.  It is built by Horner's rule over r,
    G <- m^big e_r G + p^w_r prod_(r'<r) n_r' NQ_m,r, on the prefix
    products of the n_r' that also build NR, shared by every base.

    All of this is done on values: each old polynomial is extended to
    j < p (top + 1) by running sums (`_extend`), the products and the
    Horner steps run on vectors over J <= top, one C-level pass per
    factor, and the top + 1 new values are differenced (`_diffs`).
    """
    size = p * (top + 1)
    ds, hs, *qs = [_extend(diffs, size)[0] for diffs in (polys[0], polys[1], *polys[2].values())]
    half = (p - 1) // 2
    reduce = mod.__rmod__

    def times_n(prefix: list[int], r: int) -> list[int]:  # prefix n_r / 2, without 2J + 1 at r = half
        factors = map(mul, prefix, hs[r::p])
        if r != half:
            factors = map(mul, factors, range(2 * r + 1, 2 * size, 2 * p))
        return list(map(reduce, factors))

    # At step r, prefix is prod_(r'<r) n_r' / 2^r without its factor 2J + 1,
    # and scaled is p^w_r prod_(r'<r) n_r'.
    prefix = times_n([1] * (top + 1), 0)
    d_next = list(map(reduce, ds[0::p]))
    nq_next = {m: list(map(reduce, q[0::p])) for m, q in zip(polys[2], qs)}
    steps = [pow(m, big, mod) for m in nq_next]
    odd = range(1, 2 * top + 2, 2)  # 2J + 1
    for r in range(1, p):
        if r <= half:
            scaled = list(map(reduce, map((2**r % mod).__mul__, prefix)))
        else:
            scaled = list(map(reduce, map(mul, map((2**r * p % mod).__mul__, prefix), odd)))
        edge = list(map(reduce, map(mul, ds[r::p], range(r, size, p))))  # e_r
        d_next = list(map(reduce, map(mul, d_next, edge)))
        for (m, g), q, step in zip(nq_next.items(), qs, steps):
            nq_next[m] = list(map(reduce, map(add, map(mul, map(step.__mul__, g), edge), map(mul, scaled, q[r::p]))))
        prefix = times_n(prefix, r)
    h_next = list(map(pow(2, p - 1, mod).__mul__, prefix))
    return _diffs(d_next, mod), _diffs(h_next, mod), {m: _diffs(g, mod) for m, g in nq_next.items()}


def _level_polys(p: int, level: int, prec: int, bases: Iterable[int]) -> tuple[list[int], list[int], dict[int, list[int]]]:
    """D, NR / 2 and NQ_m for each signed base m, polynomials in the block
    index j in Newton form: their forward differences at 0, Δ^i f(0) mod
    p^prec for i <= `_degree_bound`.  They are built level by level from
    level 0, where all three are 1 (`_next_level`).

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
    divisible by p^d in all three, and so are their differences of order
    d or more: above `_degree_bound` all of them vanish mod p^prec.  A
    level then costs p (bases + 2) vector products of that length and a
    running sum per difference order, whatever P is.
    """
    mod = p**prec
    polys: tuple[list[int], list[int], dict[int, list[int]]] = ([1], [1], {m: [1] for m in bases})
    for below in range(level):
        polys = _next_level(polys, p, p**below, mod, _degree_bound(p, below + 1, prec))
    return polys


class _Base:
    """One signed base m of a walk: its sum A / D, D = U m^(Pj), at the block
    edge j reached, the points it still has to read out (last first), the
    forward differences of NQ_m at block j, and m^(Pi+1) and m^(P(i+1)) for
    i below the longest chunk from `start` (one list at level 0)."""

    __slots__ = ("m", "a", "d", "stops", "sums", "nq", "powers", "scales")

    def __init__(self, m: int, ad: tuple[int, int], stops: list[int], sums: dict[int, int], nq: list[int], start: int, big: int, mod: int) -> None:
        self.m, (self.a, self.d), self.stops, self.sums, self.nq = m, ad, stops, sums, nq
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
    The walk carries their forward differences at the current block, one
    list per polynomial, and makes each chunk's values and the next chunk's
    differences by running sums (`_extend`).  It reduces the differences
    once per chunk for speed only: unreduced they grow, slower but never
    wrong.  The walk starts from
    `start`: a block edge k (a term index), T_k, v_k and each base's
    (A, D), its sum A / D at the edge; a base not named there starts from
    the empty sum.  The default is term 0, and above level 0, where the
    differences are carried from block 0, it is the only start taken
    (ValueError otherwise).  The points past an edge inside its block are
    read by one level-0 walk from that edge, which has no such points, so
    this recursion is one level deep.
    """
    p, prec, mod = ctx.p, ctx.prec, ctx.modulus
    big = p**level
    k, t, v, starts = start
    if level and k:
        raise ValueError(f"a walk at level {level} starts at term 0, not {k}")
    stops = _stops(points_by_base, p)
    sums: dict[int, dict[int, int]] = {m: {} for m in stops}
    cuts = sorted({point // big for points in stops.values() for point in points})
    if not cuts:
        return sums
    live = [m for m in stops if stops[m]]
    # The differences of D and NR / 2 at the chunk's first block; each base carries NQ_m's.
    d_diffs, nr_diffs, nq = _level_polys(p, level, prec, live)
    bases = [_Base(m, starts.get(m, (0, 1)), stops[m], sums[m], nq[m], k, big, mod) for m in live]
    # p^v, and 0 once v reaches prec; v_j stays below the bit length of 2j.
    p_powers = [p**v for v in range(prec)] + [0] * (2 * cuts[-1]).bit_length()
    strip, up, down, reduce = p.__rfloordiv__, (1).__add__, (-1).__add__, mod.__rmod__
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
                nr_values, nr_diffs = _extend(nr_diffs, size)
                d_values, d_diffs = _extend(d_diffs, size)
                nr_diffs, d_diffs = list(map(reduce, nr_diffs)), list(map(reduce, d_diffs))
                nums = list(map(mul, nums, nr_values))
                fulls = list(map(mul, dens, d_values))
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
                terms = ys
                if level:
                    values, nq_diffs = _extend(base.nq, size)
                    base.nq = list(map(reduce, nq_diffs))
                    terms = map(mul, ys, reversed(values))
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
    """The order above which the coefficients and the forward differences
    at 0 of D, NR and NQ_m vanish mod p^prec.

    The j-coefficient of (p^level j + c) / p^v(c) has valuation level - v(c):
    1 for p - 1 of the c, 2 for (p - 1) p of them, and so on, so the
    coefficient c_d of j^d is divisible by p to the sum of the d smallest.
    The differences are Δ^i f(0) = i! sum_(d>=i) c_d S(d, i), S the
    Stirling numbers of the second kind, integers: so above the bound they
    vanish too, with no division, at any p.  Then
    f(j) = sum_(i<=bound) Δ^i f(0) C(j, i) mod p^prec at every j >= 0.  The
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
    every affordable level, when the walk still packed its polynomials into
    one integer per difference order.  A level-0 walk costs, per term, a
    step and each base's fold.  From level 1 up the walk over block indices
    costs about twice that per index plus a running-sum pass per difference
    order and polynomial, and per block that holds a point a chunk's passes
    and each base's fold.  The points inside blocks cost one level-0 walk
    from each such block's edge to the farthest point in it, priced as if
    every base went that far: one dict of those points per level, shared by
    the bases.  Building the polynomials costs per level p vector products
    per polynomial, as long as the level's degree bound, and running sums
    as many as the level below keeps (`_next_level`), so the build grows
    about linearly with the level.  The inverse per point is the same at
    every level.  So a stream with few points far out walks large blocks,
    and a short or dense one stays at level 0.  Every level with blocks no
    longer than the last point is priced in full, and the cheapest is taken.
    """
    lasts = [max(ns) for ns in stops.values() if ns]
    points = sorted({point for ns in stops.values() for point in ns})
    top = max(lasts, default=0)
    bases, polys = len(lasts), len(lasts) + 2

    def plain(terms: int, base_terms: int) -> int:  # a level-0 walk
        return 640 * terms + 70 * base_terms

    costs = [plain(top, sum(lasts))]  # by level
    build = degree = 0
    big = p
    while big <= top:
        below, degree = degree, _degree_bound(p, len(costs), prec)
        build += p * polys * (1_300 + (degree + 1) * (400 + 63 * below))
        blocks = top // big
        # Each block that holds a point: the offset of its last one, points sorted.
        reach = dict(zip(map(big.__rfloordiv__, points), map(big.__rmod__, points)))
        inside = sum(reach.values())
        costs.append(
            build
            + 2 * plain(blocks, sum(last // big for last in lasts))
            + blocks * degree * (22 + 35 * polys)
            + len(reach) * (1_400 * (degree + 1) + 3_600 * bases)
            + plain(inside, bases * inside)
            + 43_000 * sum(map(bool, reach.values()))  # each such walk's set-up
        )
        big *= p
    return costs.index(min(costs))


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
    Level L's polynomials are kept in Newton form, their forward
    differences at 0 up to `_degree_bound`, and composed from the values of
    level L - 1's at the p sub-blocks of each block, so building them costs
    about L times a level's work, however large p^L is.

    Edge j's term is p^v_j T_j / (U_j m^(Pj)), where v_j is the exact
    valuation of C(2Pj, Pj) and T_j, U_j are the products over i < j of the
    numerator and denominator units, mod p^prec.  The walk takes the block
    indices in chunks [b, e) of at most _BLOCK (cut at every block that
    holds a point), evaluates the polynomials at the whole chunk with one
    running-sum pass per polynomial and difference order, and forms
    y_j = p^v_j T_j U_e / (U_j D(j)), which do not depend on m.  A base keeps its sum as
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
