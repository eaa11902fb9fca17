"""Congruence cases and their dual-path evaluation.

Every congruence statement the package knows about is a suite of cases,
described by one `Suite` record in `SUITES`.  A series statement is one
`sides` function of S_N and u_n(a, 1), read two ways: as exact integers, S_N
times a unit at p, from the exact walk and the exact Lucas numbers (the
oracle path), and as residues mod p^E from the modular stream and fast
doubling (the modular path).  A case takes
either path or both; when both run they must agree (disagreement is a bug
detector and aborts the sweep, it is never reported as a mere failure).

Verdict semantics: a case passes when the p-adic valuation of LHS - RHS
reaches the required exponent.  Degenerate inputs (e.g. p dividing the series
base m) produce *errored* results, distinct from failures: the statement is
ill-posed there rather than false.
"""

from __future__ import annotations

import os
from contextlib import AbstractContextManager, nullcontext
from functools import cache, partial
from itertools import chain
from math import lcm
from operator import attrgetter, mul
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Sequence

from .exactcore import (
    INF,
    NotPIntegralError,
    binomial,
    is_prime,
    require_odd_prime,
    vp_int,
)
from .lucas import _PERIODIC_ORBITS, legendre, lucas_u, lucas_u_mod
from .padic import PadicCtx, required_guard
from .report import Report
from .series import apery, s_sums_exact, s_sums_mod

if TYPE_CHECKING:
    from random import Random


class EngineSelfCheckError(RuntimeError):
    """Oracle and modular paths disagreed: an implementation bug, not a finding."""


# ---------------------------------------------------------------------------
# Achieved valuations
# ---------------------------------------------------------------------------


class AchievedValuation(NamedTuple):
    """What we certifiably know about vp(LHS - RHS).

    Exact: the valuation is `value`, INF when LHS == RHS as exact values.
    Not exact: the difference vanished at `value` working digits, and the
    true valuation may be anything >= value.  The flag keeps modular runs
    honest: they can never claim more digits than they carried.
    """

    value: int | float
    exact: bool = True

    def satisfies(self, e: int | float) -> bool:
        return self.value >= e

    def margin(self, e: int | float) -> int | float:
        """Certified lower bound on achieved - required."""
        return INF if self.value == INF else self.value - e

    def to_json(self) -> int | str:
        if self.value == INF:
            return "inf"
        return self.value if self.exact else f">={self.value}"

    def __str__(self) -> str:
        return str(self.to_json())


def _exact_achieved(diff: int, p: int) -> AchievedValuation:
    return AchievedValuation(vp_int(diff, p) if diff else INF)


def _modular_achieved(diff: int, ctx: PadicCtx) -> AchievedValuation:
    diff %= ctx.modulus
    if diff == 0:
        return AchievedValuation(ctx.prec, exact=False)
    return AchievedValuation(vp_int(diff, ctx.p))


def _check_paths_agree(case: CongruenceCase, oracle: AchievedValuation, modular: AchievedValuation) -> None:
    # The oracle is exact; a modular bound saw zero through `value` digits.
    agree = modular.value == oracle.value if modular.exact else modular.value <= oracle.value
    if not agree:
        raise EngineSelfCheckError(
            f"oracle says {oracle}, modular pipeline says {modular} for {case}"
        )


# ---------------------------------------------------------------------------
# Cases and results
# ---------------------------------------------------------------------------

_PARAMS = ("p", "m", "n", "alpha", "s", "l", "k", "variant", "trial")

# Every case of a suite leaves the same fields None, so a tuple comparison
# never orders None against a value.
_SORT_KEY = attrgetter("suite", *_PARAMS)


class _CaseFields(NamedTuple):
    suite: str
    p: int | None = None
    m: int | None = None
    n: int | None = None
    alpha: int | None = None
    s: int | None = None
    l: int | None = None
    k: int | None = None
    variant: str | None = None
    trial: int | None = None


def _check_value(field: str, value) -> None:
    """Raise unless a field's value is in its range or None."""
    if field == "variant":
        if value is not None and value not in ("corrected", "literal"):
            raise ValueError(f"unknown variant {value!r}")
    elif value is not None and value < (least := 0 if field in ("l", "trial") else 1):
        raise ValueError(f"{field} must be >= {least}, got {value}")


class CongruenceCase(_CaseFields):
    """One fully-instantiated congruence instance.

    Only the fields applicable to the suite may be set; construction
    validates applicability, the structural preconditions (primality,
    ranges, 0 <= k <= n p^alpha, ...) and the suite's own rule.  So do
    `_replace`, `_make` and unpickling, which build through the constructor;
    `enumerate_cases` makes the same checks and builds its cases without it.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> CongruenceCase:
        self = super().__new__(cls, *args, **kwargs)
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}")
        suite = SUITES[self.suite]
        wanted = suite.fields
        for f in _PARAMS:
            value = getattr(self, f)
            if f in wanted and value is None:
                raise ValueError(f"suite {self.suite} requires parameter {f}")
            if f not in wanted and value is not None:
                raise ValueError(f"suite {self.suite} does not take parameter {f}")
        if self.p is not None:
            require_odd_prime(self.p)
        for f in ("n", "alpha", "l", "trial", "variant"):
            _check_value(f, getattr(self, f))
        if self.m == 0:
            raise ValueError("m must be nonzero")
        if self.k is not None:
            top = self.p**self.alpha * self.n
            if not 0 <= self.k <= top:
                raise ValueError(f"need 0 <= k <= {top}, got k={self.k}")
        reason = suite.rule(self) if suite.rule is not None else None
        if reason:
            raise ValueError(f"suite {self.suite} {reason}")
        return self

    @classmethod
    def _make(cls, iterable: Iterable) -> CongruenceCase:
        return cls(*iterable)

    def sort_key(self) -> tuple:
        return _SORT_KEY(self)

    @property
    def param_slots(self) -> tuple[tuple[str, int], ...]:
        """Each of the suite's params with the position of its value in the case."""
        return _PARAM_SLOTS[self.suite]

    def params_dict(self) -> dict:
        return {f: self[at] for f, at in _PARAM_SLOTS[self.suite]}

    def __str__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.params_dict().items())
        return f"{self.suite}({inner})"


class CaseResult(NamedTuple):
    """Verdict for one case: achieved valuation against the required exponent."""

    case: CongruenceCase
    required_exponent: int | float
    achieved: AchievedValuation | None
    error: str | None = None
    path: str = "oracle"

    @property
    def passed(self) -> bool:
        return self.achieved is not None and self.achieved.satisfies(self.required_exponent)

    @property
    def margin(self) -> int | float | None:
        if self.achieved is None:
            return None
        return self.achieved.margin(self.required_exponent)

    def to_json_entry(self) -> dict:
        return {
            "suite": self.case.suite,
            "params": self.case.params_dict(),
            "required_exponent": self.required_exponent,
            "achieved_valuation": None if self.achieved is None else self.achieved.to_json(),
            "pass": self.passed,
            "error": self.error,
        }


class EngineSettings(NamedTuple):
    """Evaluation policy: which path a case takes, and the sweep seed."""

    oracle_cutoff: int = 3000
    crosscheck_cutoff: int = 1500
    seed: int = 0

    def path_for(self, index: int) -> str:
        if index <= self.crosscheck_cutoff:
            return "both"
        if index <= self.oracle_cutoff:
            return "oracle"
        return "modular"


DEFAULT_SETTINGS = EngineSettings()


class SweepRanges(NamedTuple):
    """Parameter ranges for a sweep; None fields fall back to suite defaults.

    Each is any sequence of ints: a tuple, or a `range`, which the CLI keeps
    for a span such as `--primes 1..1000000` so that a wide one costs no
    memory.  The report's `meta.invocation.ranges` writes either as a list.
    """

    primes: Sequence[int] | None = None
    m_values: Sequence[int] | None = None
    n_values: Sequence[int] | None = None
    alpha_values: Sequence[int] | None = None
    s_values: Sequence[int] | None = None
    l_values: Sequence[int] | None = None
    trials: int | None = None


# ---------------------------------------------------------------------------
# Suite records
# ---------------------------------------------------------------------------

#: (lhs, rhs) of a case, as read from S_N by N, u_n(a, 1) by (n, a) and the
#: unit `one` that every read of S_N carries: two integers, the statement's
#: sides times one p-unit that both share.  On the oracle path they are
#: exact; on the modular path they are residues to reduce mod p^E.
Sides = Callable[[CongruenceCase, Callable, Callable, int], tuple[int, int]]

#: An exact integer by base and N: b^(N-1) S_N from the sweep's walks at
#: each signed base b, or lemma-2-2's right side at each m.
Scaled = Mapping[int, Mapping[int, int]]


class _SuiteFields(NamedTuple):
    fields: tuple[str, ...]
    required: Callable[[CongruenceCase], int | float]
    defaults: SweepRanges
    index: Callable[[CongruenceCase], int] | None = None
    cap: int = 10_000
    sides: Sides | None = None
    #: A valuation of another kind, given the sweep's exact sums and
    #: lemma-2-2's right sides.
    evaluate: Callable[[CongruenceCase, EngineSettings, Scaled, Scaled], AchievedValuation] | None = None
    points: Callable[[CongruenceCase], tuple[int, ...]] | None = None
    #: A condition beyond the shared ones: returns why a case breaks it.
    rule: Callable[[CongruenceCase], str | None] | None = None
    #: The series base when the statement fixes it rather than taking m.
    m: int | None = None


class Suite(_SuiteFields):
    """Everything the engine knows about one statement.

    `index` is the largest summation bound a case touches: it picks the
    evaluation path and is what the sweep's index cap bounds, `cap` unless
    the sweep gives one.  The verdict compares vp(lhs - rhs) from `sides`
    with `required`, unless the statement is of another kind and its own
    `evaluate(case, settings, scaled, right_sides)` returns the achieved valuation,
    given the sweep's exact scaled sums and, from `sun_tauraso_table`,
    lemma-2-2's right sides, each by base and N.  The sides are integers:
    the statement's two sides times a factor that is a unit at p, which
    leaves vp(lhs - rhs) as it is, as lemma-2-2 compares m^(n-1) S_n in
    place of S_n.  lemma-2-1-ii's come times k, lemma-2-3's and
    eq-sun-asd's times 2, and lemma-2-4's times 2L, L the lcm of its
    block's k.  A suite with `points` reads S_N(m) at those term counts,
    and its `index` T is the largest of them.  Every
    `sides(case, s_sum, u, one)` gets `lucas_u` and, from the sweep's exact
    walk at the signed base b, b^(T-1) S_N, integers that share the unit
    one = b^(T-1), on the oracle path; a constant term is multiplied by
    `one`.  A series suite (`points` and no `evaluate`) is checked on
    either path or both: on the modular path it gets S_N mod p^E from its
    stream, `lucas_u_mod` and one = 1, and the difference of the sides is
    reduced mod the case's own p^E.

    `index`, `points` and `rule` read only the case's parameters: the
    enumerator applies `index` and `rule` to candidates that no constructor
    has checked, and keeps those that pass as its cases.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> Suite:
        self = super().__new__(cls, *args, **kwargs)
        if self.index is None:
            points = self.points
            return self._replace(index=lambda case: max(points(case)))
        return self

    @classmethod
    def _make(cls, iterable: Iterable) -> Suite:
        return cls(*iterable)


def _top(case) -> int:
    return case.n * case.p**case.alpha


def _scaled(case) -> tuple[int, int]:
    """n p^alpha and n p^(alpha-1): the term counts a scaling law compares."""
    return _top(case), case.n * case.p ** (case.alpha - 1)


def _m_in_1_2_3(case) -> str | None:
    if case.m not in (1, 2, 3):
        return f"needs m in {{1,2,3}}, got {case.m}"
    return None


def _s_at_most_alpha(case) -> str | None:
    if not 1 <= case.s <= case.alpha:
        return f"needs 1 <= s <= alpha, got s={case.s}, alpha={case.alpha}"
    return None


# ---------------------------------------------------------------------------
# Shared arithmetic pieces
# ---------------------------------------------------------------------------


def _fermat_quotient(m: int, p: int, a: int) -> int:
    """(m^phi(p^a) - 1) / p^a, an exact division when p does not divide m,
    twice the paper's F(m, p, a); NotPIntegralError when it is not exact,
    named for lemma-2-4's right side, the one side that meets it: elsewhere
    p | m errors the case first."""
    quotient, rest = divmod(m ** (p**a - p ** (a - 1)) - 1, p**a)
    if rest:
        raise NotPIntegralError(f"right side is not p-integral at p = {p}: {p}^{a} does not divide {m}^phi - 1")
    return quotient


def sun_tauraso_table(points_by_base: Mapping[int, Iterable[int]]) -> dict[int, dict[int, int]]:
    """sum_{k<n} C(2n,k) u_{n-k}(m-2, 1), an integer, for every base m and
    every n in its points: lemma-2-2's right sides, in one n-major pass.

    Each n that some base reads builds its row C(2n, k), k < n, once, by the
    exact division C(2n,k+1) = C(2n,k) (2n-k) / (k+1), and every base that
    reads n dots the row with u_n..u_1.  A base keeps the prefix u_0..u_n of
    its Lucas sequence and extends it by one recurrence step per index as n
    grows, so the pass holds one row and one prefix per base.
    """
    readers: dict[int, list[int]] = {}
    for m, ns in points_by_base.items():
        for n in set(ns):
            readers.setdefault(n, []).append(m)
    prefixes = {m: [0, 1] for m in points_by_base}
    table: dict[int, dict[int, int]] = {m: {} for m in points_by_base}
    for n in sorted(readers):
        row = [c := 1]
        row += [c := c * (2 * n - k) // (k + 1) for k in range(n)]
        row.pop()  # C(2n, n) is past the sum
        for m in readers[n]:
            u = prefixes[m]
            while len(u) <= n:
                u.append((m - 2) * u[-1] - u[-2])
            # u ends at u_n once n >= 1; at n = 0 the row is empty.
            table[m][n] = sum(map(mul, row, reversed(u)))
    return table


def sun_tauraso_rhs(m: int, n: int) -> int:
    """sum_{k<n} C(2n,k) u_{n-k}(m-2, 1), an integer: one point of `sun_tauraso_table`."""
    return sun_tauraso_table({m: (n,)})[m][n]


# ---------------------------------------------------------------------------
# Series suites: exact or modular sides, as the S_N and u_n they are given
# ---------------------------------------------------------------------------


def _statement_m(case: CongruenceCase) -> int | None:
    """The case's m, or the series base its suite fixes in place of one."""
    return SUITES[case.suite].m if case.m is None else case.m


def _base(case: CongruenceCase) -> int:
    """The signed base of the series a case reads: literal at m is corrected at -m."""
    m = _statement_m(case)
    return -m if case.variant == "literal" else m


def _symbol(case: CongruenceCase) -> int:
    """(m(m-4)/p)."""
    m = _statement_m(case)
    return legendre(m * (m - 4), case.p)


def _lucas_term(case: CongruenceCase) -> tuple[int, int]:
    """The index and the a of u_{p - (m(m-4)/p)}(m-2, 1)."""
    return case.p - _symbol(case), _statement_m(case) - 2


def _scaling(multiplier: Callable[[CongruenceCase], int], case, s_sum, u, one) -> tuple[int, int]:
    hi, lo = _scaled(case)
    return s_sum(hi), multiplier(case) * s_sum(lo)


def _mod_p(case, s_sum, u, one) -> tuple[int, int]:
    return s_sum(case.p), _symbol(case) * one


def _mod_p2(case, s_sum, u, one) -> tuple[int, int]:
    return s_sum(case.p), (_symbol(case) + u(*_lucas_term(case))) * one


def _sun_asd(case, s_sum, u, one) -> tuple[int, int]:
    """Both sides times 2, which clears the half in the correction term."""
    hi, M = _scaled(case)
    lhs = 2 * (s_sum(hi) - _symbol(case) * s_sum(M))
    # Term M of the series is sign^M C(2M,M) / m^M and C(2M-1, M-1) is half
    # of C(2M, M), so M C(2M-1, M-1) / m^(M-1) = M m sign^M (S_{M+1} - S_M) / 2,
    # where m sign^M is the signed base b for odd M and m for even M.  Unlike
    # the binomial form, this one reads the same mod p^E as over Q.
    m_sign = _base(case) if M % 2 else _statement_m(case)
    rhs = M * m_sign * (s_sum(M + 1) - s_sum(M)) * u(*_lucas_term(case))
    return lhs, rhs


def _sun_asd_points(case: CongruenceCase) -> tuple[int, ...]:
    hi, M = _scaled(case)
    return hi, M, M + 1


# ---------------------------------------------------------------------------
# Oracle-only suites
# ---------------------------------------------------------------------------


def _apery_sides(case: CongruenceCase, s_sum, u, one) -> tuple[int, int]:
    top, low = _scaled(case)
    return apery(top - 1), apery(low - 1)


def _lemma_2_1_i(case: CongruenceCase, s_sum, u, one) -> tuple[int, int]:
    top, low = _scaled(case)
    return binomial(top, case.k), binomial(low, case.k // case.p)


def _lemma_2_1_ii(case: CongruenceCase, s_sum, u, one) -> tuple[int, int]:
    """Both sides times k, a unit at p by the suite's rule."""
    (top, low), p, k = _scaled(case), case.p, case.k
    return k * binomial(top, k), top * binomial(low - 1, (k - 1) // p) * (-1) ** (k - 1 - (k - 1) // p)


def _lemma_2_1_iii(case: CongruenceCase, s_sum, u, one) -> tuple[int, int]:
    (top, low), p, k = _scaled(case), case.p, case.k
    return binomial(top - 1, k), binomial(low - 1, k // p) * (-1) ** (k - k // p)


def _evaluate_lemma_2_2(
    case: CongruenceCase, settings: EngineSettings, scaled: Scaled, right_sides: Scaled
) -> AchievedValuation:
    equal = scaled[case.m][case.n] == right_sides[case.m][case.n]
    return AchievedValuation(INF if equal else 0)


def _lemma_2_3_sides(case: CongruenceCase, s_sum, u, one) -> tuple[int, int]:
    """Both sides times 2: the integer Fermat quotients at alpha and s."""
    return _fermat_quotient(case.m, case.p, case.alpha), _fermat_quotient(case.m, case.p, case.s)


#: A multiple of 2 and of every orbit length (3, 4 and 6) of lemma-2-4's
#: Lucas sequences, so (-1)^k u_{N-k} depends only on k mod it.
_BLOCK_PERIOD = 12

#: For each m in {1, 2, 3} and N mod `_BLOCK_PERIOD`, the signed orbit
#: coefficient (-1)^r u_{N-r}(m-2, 1) of each residue r mod the period.
_ORBIT_COEFFICIENTS = {
    a + 2: tuple(
        tuple((-1) ** r * orbit[(top - r) % len(orbit)] for r in range(_BLOCK_PERIOD))
        for top in range(_BLOCK_PERIOD)
    )
    for a, orbit in _PERIODIC_ORBITS.items()
}


@cache
def _block_weights(p: int, s: int, l: int) -> tuple[int, tuple[int, ...]]:
    """L, the lcm of the k in [l p^s, (l+1) p^s) prime to p, and for each
    r < `_BLOCK_PERIOD` the sum of L/k over those k with k = r mod it: one
    table per block, for every m, n and alpha that reads it."""
    ks = [k for k in range(l * p**s, (l + 1) * p**s) if k % p]
    common = lcm(*ks)
    weights = [0] * _BLOCK_PERIOD
    for k in ks:
        weights[k % _BLOCK_PERIOD] += common // k
    return common, tuple(weights)


def _lemma_2_4_sides(case: CongruenceCase, s_sum, u, one) -> tuple[int, int]:
    """Both sides times 2L, L from `_block_weights`: integers, and 2L is a
    unit at p, so vp(lhs - rhs) is that of the statement's sides."""
    p, m, n, l, a, s = case.p, case.m, case.n, case.l, case.alpha, case.s
    # For m in {1,2,3}, u_j(m-2, 1) runs through a period-T orbit (negative j
    # too), and T divides the block period, so the block sum is one weighted
    # sum over the residues, with weights shared by every case on the block.
    top = p**a * n
    common, weights = _block_weights(p, s, l)
    lhs = 2 * sum(map(mul, _ORBIT_COEFFICIENTS[m][top % _BLOCK_PERIOD], weights))
    # 2L times -F(m, p, alpha), F = (m^phi(p^alpha) - 1) / (2 p^alpha).
    quotient = _fermat_quotient(m, p, a)
    tail = u(p ** (a - s) * n - l, m - 2) + u(p ** (a - s) * n - l - 1, m - 2)
    rhs = -(_symbol(case) ** s * (-1) ** l * tail) * quotient * common
    return lhs, rhs


def synthesize_block_sequence(p: int, alpha: int, l: int, rng: Random) -> dict[int, int]:
    """Random integers on block l at scale p^alpha whose level-s block sums
    vanish mod p^s for every 1 <= s <= alpha.

    Adjustment goes innermost level first; at level s the excess is already a
    multiple of p^(s-1), so fixing one entry per block preserves the finer
    levels.  Each level's block sums are those of p adjusted blocks of the
    level below, taken in one pass over them.
    """
    seq = [rng.randrange(-999, 1000) for _ in range(p**alpha)]
    sums = seq
    for s in range(1, alpha + 1):
        size = p**s
        sums = [sum(sums[i : i + p]) for i in range(0, len(sums), p)]
        for b, total in enumerate(sums):
            excess = total % size
            seq[(b + 1) * size - 1] -= excess
            sums[b] = total - excess
    return dict(enumerate(seq, l * p**alpha))


def _evaluate_lemma_2_5(
    case: CongruenceCase, settings: EngineSettings, scaled: Scaled, right_sides: Scaled
) -> AchievedValuation:
    """One synthesized block-vanishing sequence a_k; the weighted block sum
    sum_k a_k (-1)^k C(t, k), t = m' p^alpha n' - 1, is checked mod p^alpha
    for every m' in {1,2,3} and n' in {1,2}.

    The six pairs give five rows, m' n' in {1, 2, 3, 4, 6}.  Each is walked
    across the block by its ratio from one binomial at the block's first
    index: the signed weight w_k = (-1)^k C(t, k) steps to
    w_{k+1} = w_k (k - t) / (k + 1), an exact division.  No row is held, so
    memory stays that of the block."""
    from random import Random  # only this suite pays for the import

    p, a, l = case.p, case.alpha, case.l
    rng = Random(f"{settings.seed}:{p}:{a}:{l}:{case.trial}")
    seq = synthesize_block_sequence(p, a, l, rng)
    lo = l * p**a
    worst: int | float = INF
    for product in (1, 2, 3, 4, 6):
        t = product * p**a - 1
        weight = (-1) ** lo * binomial(t, lo)
        total = 0
        for k, value in seq.items():
            total += value * weight
            weight = weight * (k - t) // (k + 1)
        if total:
            worst = min(worst, vp_int(total, p))
    return AchievedValuation(worst)


# ---------------------------------------------------------------------------
# The registry: one record per statement
# ---------------------------------------------------------------------------

_PRIMES = (3, 5, 7, 11, 13)
_SMALL_PRIMES = (3, 5, 7)
_M_AROUND_ZERO = tuple(range(-10, 11))


def _lemma_2_1(
    sides: Sides,
    required: Callable[[CongruenceCase], int],
    rule: Callable[[CongruenceCase], str | None] | None = None,
) -> Suite:
    """One part of Lemma 2.1; the three parts share fields, index and grid."""
    return Suite(
        fields=("p", "n", "alpha", "k"),
        required=required,
        index=_top,
        defaults=SweepRanges(primes=_SMALL_PRIMES, n_values=(1, 2), alpha_values=(1, 2)),
        sides=sides,
        rule=rule,
    )


# Desk-scale default grids, one per suite; together they form the default
# verification sweep.
SUITES: dict[str, Suite] = {
    # S_{n p^a}(m) ≡ (m(m-4)/p) S_{n p^(a-1)}(m) mod p^(2a), m in {1,2,3}.
    "thm-main": Suite(
        fields=("p", "m", "n", "alpha", "variant"),
        required=lambda c: 2 * c.alpha,
        defaults=SweepRanges(primes=_PRIMES, m_values=(1, 2, 3), n_values=(1, 2, 3), alpha_values=(1, 2, 3)),
        sides=partial(_scaling, _symbol),
        points=_scaled,
        rule=_m_in_1_2_3,
    ),
    # S_{n p^a}(4) ≡ p S_{n p^(a-1)}(4) mod p^(2a).
    "thm-m4": Suite(
        fields=("p", "n", "alpha", "variant"),
        required=lambda c: 2 * c.alpha,
        defaults=SweepRanges(primes=_PRIMES, n_values=(1, 2, 3), alpha_values=(1, 2, 3)),
        sides=partial(_scaling, attrgetter("p")),
        points=_scaled,
        m=4,
    ),
    # A_{n p^a - 1} ≡ A_{n p^(a-1) - 1} mod p^(3a), p >= 5.
    "eq-apery": Suite(
        fields=("p", "n", "alpha"),
        required=lambda c: 3 * c.alpha,
        index=_top,
        defaults=SweepRanges(primes=(5, 7, 11), n_values=(1, 2), alpha_values=(1, 2)),
        cap=200,
        sides=_apery_sides,
        rule=lambda c: f"needs p >= 5, got p={c.p}" if c.p < 5 else None,
    ),
    # S_p(m) ≡ (m(m-4)/p) mod p.
    "eq-mod-p": Suite(
        fields=("p", "m", "variant"),
        required=lambda c: 1,
        defaults=SweepRanges(primes=_PRIMES, m_values=_M_AROUND_ZERO),
        sides=_mod_p,
        points=lambda c: (c.p,),
    ),
    # S_p(m) ≡ (m(m-4)/p) + u_{p-(m(m-4)/p)}(m-2, 1) mod p^2.
    "eq-mod-p2": Suite(
        fields=("p", "m", "variant"),
        required=lambda c: 2,
        defaults=SweepRanges(primes=_PRIMES, m_values=_M_AROUND_ZERO),
        sides=_mod_p2,
        points=lambda c: (c.p,),
    ),
    # The mod p^(a+1) refinement with the binomial-weighted Lucas correction.
    "eq-sun-asd": Suite(
        fields=("p", "m", "n", "alpha", "variant"),
        required=lambda c: c.alpha + 1,
        defaults=SweepRanges(primes=_PRIMES, m_values=_M_AROUND_ZERO, n_values=(1, 2), alpha_values=(1, 2)),
        cap=1_000,
        sides=_sun_asd,
        points=_sun_asd_points,
    ),
    # The binomial transfer congruences, parts (i)-(iii).
    "lemma-2-1-i": _lemma_2_1(
        _lemma_2_1_i,
        lambda c: 2 * c.alpha,
        lambda c: f"needs p | k, got k={c.k}" if c.k % c.p != 0 else None,
    ),
    "lemma-2-1-ii": _lemma_2_1(
        _lemma_2_1_ii,
        lambda c: 2 * c.alpha,
        lambda c: f"needs p not dividing k, got k={c.k}" if c.k % c.p == 0 else None,
    ),
    "lemma-2-1-iii": _lemma_2_1(_lemma_2_1_iii, lambda c: c.alpha),
    # The exact identity m^(n-1) S_n(m) = sum_{k<n} C(2n,k) u_{n-k}(m-2, 1).
    "lemma-2-2": Suite(
        fields=("m", "n"),
        required=lambda c: INF,
        defaults=SweepRanges(m_values=_M_AROUND_ZERO, n_values=tuple(range(1, 101))),
        evaluate=_evaluate_lemma_2_2,
        points=lambda c: (c.n,),
    ),
    # Fermat-quotient factors at levels alpha and s agree mod p^s.
    "lemma-2-3": Suite(
        fields=("p", "m", "alpha", "s"),
        required=lambda c: c.s,
        index=lambda c: c.p**c.alpha,
        defaults=SweepRanges(primes=_SMALL_PRIMES, m_values=(2, 3, 5, 7), alpha_values=(1, 2, 3, 4)),
        sides=_lemma_2_3_sides,
        rule=_s_at_most_alpha,
    ),
    # Block sums of (-1)^k u_{p^a n - k}/k against the scaled Lucas pair, mod p^s.
    "lemma-2-4": Suite(
        fields=("p", "m", "n", "alpha", "s", "l"),
        required=lambda c: c.s,
        index=lambda c: max(_top(c), (c.l + 1) * c.p**c.s),
        defaults=SweepRanges(primes=_SMALL_PRIMES, m_values=(1, 2, 3), n_values=(1, 2), alpha_values=(1, 2, 3)),
        sides=_lemma_2_4_sides,
        rule=lambda c: _m_in_1_2_3(c) or _s_at_most_alpha(c),
    ),
    # Block-vanishing sequences feeding the alternating binomial-weighted sum.
    "lemma-2-5": Suite(
        fields=("p", "alpha", "l", "trial"),
        required=lambda c: c.alpha,
        index=lambda c: (c.l + 1) * c.p**c.alpha,
        defaults=SweepRanges(primes=(3, 5), alpha_values=(1, 2), l_values=(0,), trials=100),
        evaluate=_evaluate_lemma_2_5,
    ),
}

#: Each suite's params, with the position of each one's value in a case.
_PARAM_SLOTS = {
    name: tuple((f, _CaseFields._fields.index(f)) for f in suite.fields) for name, suite in SUITES.items()
}


# ---------------------------------------------------------------------------
# Sweep planner: one modular stream per prime, one exact walk per base
# ---------------------------------------------------------------------------

#: One walk over C(2k,k) mod p^prec: p, prec, and for each signed base the
#: sorted N at which it reads out S_N.
Stream = tuple[int, int, dict[int, tuple[int, ...]]]


def _working_precision(case: CongruenceCase) -> int:
    suite = SUITES[case.suite]
    return required_guard(suite.index(case), suite.required(case), case.p)


def _path(case: CongruenceCase, settings: EngineSettings) -> str:
    """A series suite (points and no evaluate) takes the path its settings
    give for the case's index; every other suite takes the oracle path."""
    suite = SUITES[case.suite]
    if suite.points is None or suite.evaluate is not None:
        return "oracle"
    return settings.path_for(suite.index(case))


def _p_divides_m(case: CongruenceCase) -> bool:
    """Whether p divides the statement's m: such a case is ill-posed."""
    m = _statement_m(case)
    return case.p is not None and m is not None and m % case.p == 0


def _plan(
    cases: Sequence[CongruenceCase], settings: EngineSettings
) -> tuple[list[Stream], dict[int, set[int]], dict[int, set[int]]]:
    """Where cases of suites with points read their sums, in one pass: one
    stream per prime, most terms first, the N each signed base's exact walk
    reads out, and the n at which each m reads lemma-2-2's right side.  An
    ill-posed case reads none.

    Every series case at p reads prefixes of S_N(m) for one signed base m,
    and the bases at p share one walk over C(2k,k) mod p^E.  It runs at the
    highest working precision among the prime's cases: each case reduces the
    residue to its own precision, which gives the value a stream at that
    precision would have.  A base reads the union of its cases' points, so
    (m, literal) and (-m, corrected) are one base.
    """
    precs: dict[int, int] = {}
    reads: dict[int, dict[int, set[int]]] = {}
    walks: dict[int, set[int]] = {}
    right: dict[int, set[int]] = {}
    for case in cases:
        if _p_divides_m(case):
            continue
        path, base, points = _path(case, settings), _base(case), SUITES[case.suite].points(case)
        if path != "oracle":
            precs[case.p] = max(precs.get(case.p, 1), _working_precision(case))
            reads.setdefault(case.p, {}).setdefault(base, set()).update(points)
        if path != "modular":
            walks.setdefault(base, set()).update(points)
        if case.suite == "lemma-2-2":
            right.setdefault(case.m, set()).add(case.n)
    streams = [
        (p, precs[p], {base: tuple(sorted(ns)) for base, ns in reads[p].items()}) for p in precs
    ]
    streams.sort(key=lambda s: (sum(ns[-1] for ns in s[2].values()), s[0]), reverse=True)
    return streams, walks, right


def _stream_sums(stream: Stream) -> dict[tuple[int, int], dict[int, int]]:
    p, prec, points_by_base = stream
    return {(p, base): by_n for base, by_n in s_sums_mod(points_by_base, PadicCtx(p, prec)).items()}


def _exact_sides(case: CongruenceCase, scaled: Scaled) -> tuple[int, int]:
    """The sides from exact values.  A series case at the signed base b with
    top point T reads S_N as b^(N-1) S_N from `scaled` at b times b^(T-N),
    so every read and `one` carry the unit b^(T-1); any other takes one = 1."""
    suite = SUITES[case.suite]
    if suite.points is None:
        return suite.sides(case, None, lucas_u, 1)
    base, top = _base(case), suite.index(case)
    sums = scaled[base]
    return suite.sides(case, lambda N: sums[N] * base ** (top - N), lucas_u, base ** (top - 1))


def _modular_sides(
    case: CongruenceCase, sums: Mapping[tuple[int, int], Mapping[int, int]], ctx: PadicCtx
) -> tuple[int, int]:
    """The sides from the residues of S_N in `sums` at (p, b) and `lucas_u_mod`, with one = 1."""
    return SUITES[case.suite].sides(case, sums[case.p, _base(case)].__getitem__, partial(lucas_u_mod, ctx=ctx), 1)


def _evaluate(
    case: CongruenceCase,
    settings: EngineSettings,
    sums: Mapping[tuple[int, int], Mapping[int, int]],
    scaled: Scaled,
    right_sides: Scaled,
) -> CaseResult:
    """One case's verdict on its path.  A suite with points reads S_N there,
    by N: S_N mod p^E (E at least its working precision) from `sums` at
    (p, b), b^(N-1) S_N from `scaled` at b, where b is the signed base.
    lemma-2-2 reads its right side from `right_sides` at m."""
    suite = SUITES[case.suite]
    required = suite.required(case)
    path = _path(case, settings)
    oracle = modular = None
    try:
        if _p_divides_m(case):
            m = _statement_m(case)
            raise NotPIntegralError(f"p = {case.p} divides m = {m}: series values are not p-integral")
        if suite.evaluate is not None:
            oracle = suite.evaluate(case, settings, scaled, right_sides)
        elif path != "modular":
            lhs, rhs = _exact_sides(case, scaled)
            oracle = _exact_achieved(lhs - rhs, case.p)
        if path != "oracle":
            ctx = PadicCtx(case.p, _working_precision(case))
            lhs, rhs = _modular_sides(case, sums, ctx)
            # The shared stream may carry more digits than this case.
            modular = _modular_achieved(lhs - rhs, ctx)
    except NotPIntegralError as exc:
        return CaseResult(case, required, None, str(exc))
    if oracle is not None and modular is not None:
        _check_paths_agree(case, oracle, modular)
    return CaseResult(case, required, oracle if oracle is not None else modular, path=path)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _given(ranges: SweepRanges | None) -> dict:
    """The fields a sweep's ranges set, by name: each overrides a suite default."""
    if ranges is None:
        return {}
    return {name: value for name, value in ranges._asdict().items() if value is not None}


def _odd_primes(values: Sequence[int], cap: int) -> list[int]:
    """The odd primes among values up to cap: no suite's index is below p.
    A rising range is cut at the cap before it is walked."""
    if isinstance(values, range) and values.step > 0:
        values = range(values.start, min(values.stop, cap + 1), values.step)
    return [p for p in values if 2 < p <= cap and is_prime(p)]


def enumerate_cases(
    suite: str,
    ranges: SweepRanges | None = None,
    variant: str = "corrected",
    max_index: int | None = None,
) -> list[CongruenceCase]:
    """All valid cases of a suite over the given (or default) grids.

    Inapplicable combinations (m = 0, p | m, a suite rule broken, index cap
    exceeded) are skipped here; they are not errors, they are simply not
    instances of the statement.  Without given values, s runs over 1..alpha,
    l over 0..2p, k over 0..n p^alpha and trial over 0..trials-1.

    Each of the constructor's checks runs once, so a case is built as a
    plain tuple: p is an odd prime by `_odd_primes`, a grid of n, alpha, l
    or the variant is checked when the walk first reaches it, and m = 0,
    p | m, the rule and the cap drop combinations.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    record = SUITES[suite]
    r = record.defaults._replace(**_given(ranges))
    cap = record.cap if max_index is None else max_index
    values = {
        "p": lambda c: [p for p in _odd_primes(r.primes, cap) if record.m is None or record.m % p],
        # p comes before m in every suite that takes both.
        "m": lambda c: [m for m in r.m_values if m and (c.p is None or m % c.p)],
        "n": lambda c: r.n_values,
        "alpha": lambda c: r.alpha_values,
        "s": lambda c: range(1, c.alpha + 1) if r.s_values is None else r.s_values,
        "l": lambda c: range(2 * c.p + 1) if r.l_values is None else r.l_values,
        # Past the cap no k passes the index test, so the loop is skipped.
        "k": lambda c: range(_top(c) + 1) if _top(c) <= cap else (),
        "trial": lambda c: range(r.trials or 0),
        "variant": lambda c: (variant,),
    }
    unchecked = {"n", "alpha", "l", "variant"}
    row = [suite] + [None] * len(_PARAMS)
    rule, index, last = record.rule or (lambda case: None), record.index, len(record.fields) - 1
    new = tuple.__new__
    cases: list[CongruenceCase] = []

    def walk(i: int) -> None:
        name = record.fields[i]
        grid, at = values[name](new(CongruenceCase, row)), _CaseFields._fields.index(name)
        if name in unchecked:
            unchecked.remove(name)
            for value in grid:
                _check_value(name, value)
        for value in grid:
            row[at] = value
            if i < last:
                walk(i + 1)
            elif not rule(case := new(CongruenceCase, row)) and index(case) <= cap:
                cases.append(case)

    walk(0)
    return cases


def pool_size(jobs: int, units: int) -> int:
    """Worker processes worth starting: no more than asked for, usable CPUs,
    or work units.  Workers are forked, so this process is the only one where
    fork is missing or another thread runs: a forked worker would get that
    thread's locks, held by no one left to release them."""
    if jobs <= 1 or not hasattr(os, "fork"):
        return 1
    import threading  # only a parallel sweep pays for the import

    if threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(jobs, cpus, units))


def _pool(calls: Sequence[Callable[[], object]], workers: int) -> AbstractContextManager[Callable[[], list]]:
    """A context that runs `calls` on `workers` processes, this one among
    them, and gives a function that returns their results in order: this
    process runs them when they are asked for, with workers forked by
    `pool.forked` beside it."""
    if workers == 1:
        return nullcontext(lambda: [call() for call in calls])
    from .pool import forked  # compiled and imported for a parallel sweep only

    return forked(calls, workers)


def _evaluate_batch(settings: EngineSettings, cases: Sequence[CongruenceCase]) -> list[CaseResult]:
    return [_evaluate(case, settings, {}, {}, {}) for case in cases]


def run_cases(
    cases: Sequence[CongruenceCase],
    settings: EngineSettings = DEFAULT_SETTINGS,
    jobs: int = 1,
) -> list[CaseResult]:
    """Evaluate cases on up to `jobs` processes and sort deterministically;
    degeneracies become errored results, never raised.

    This is the one way to evaluate a case: a lone case is
    `run_cases([case], settings)[0]`.  A case whose suite has points reads
    them from one stream per prime and one exact walk per signed base, and
    lemma-2-2 its right sides from one pass of `sun_tauraso_table`, in this
    process, which holds them until those cases are done.  The streams run
    first, most terms first, while this process walks; then the other cases
    run in contiguous batches while this process evaluates the cases that
    read sums.
    """
    reading = [case for case in cases if SUITES[case.suite].points is not None]
    free = [case for case in cases if SUITES[case.suite].points is None]
    streams, walks, right = _plan(reading, settings)
    # Eight batches per worker: with four, one worker got lemma-2-5's heavy tail.
    size = max(1, -(-len(free) // (8 * pool_size(jobs, len(free)))))
    batches = [partial(_evaluate_batch, settings, free[i : i + size]) for i in range(0, len(free), size)]
    with _pool([partial(_stream_sums, stream) for stream in streams], pool_size(jobs, len(streams))) as streamed:
        scaled = s_sums_exact(walks)
        right_sides = sun_tauraso_table(right)
        sums = {key: by_n for part in streamed() for key, by_n in part.items()}
    with _pool(batches, pool_size(jobs, len(batches))) as evaluated:
        results = [_evaluate(case, settings, sums, scaled, right_sides) for case in reading]
        del sums, scaled, right_sides  # no batch reads them
        results.extend(chain.from_iterable(evaluated()))
    return sorted(results, key=lambda result: result.case.sort_key())


def run_suite(
    suite: str,
    ranges: SweepRanges | None = None,
    variant: str = "corrected",
    max_index: int | None = None,
    jobs: int = 1,
    settings: EngineSettings = DEFAULT_SETTINGS,
) -> Report:
    """Enumerate and evaluate one suite (or "all"), returning a Report."""
    suites = list(SUITES) if suite == "all" else [suite]
    cases: list[CongruenceCase] = []
    for one in suites:
        cases.extend(enumerate_cases(one, ranges, variant, max_index))
    results = run_cases(cases, settings, jobs)
    meta = {
        "suite": suite,
        "variant": variant,
        "ranges": _given(ranges),
        "max_index": max_index,
        "seed": settings.seed,
        "oracle_cutoff": settings.oracle_cutoff,
        "crosscheck_cutoff": settings.crosscheck_cutoff,
    }
    return Report.from_results(meta, results)
