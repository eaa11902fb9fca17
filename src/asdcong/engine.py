"""Congruence cases and their dual-path evaluation.

Every congruence statement the package knows about is a suite of cases.  A
case is evaluated on the exact-rational oracle path, on the modular residue
pipeline, or on both; when both run they must agree (disagreement is a bug
detector and aborts the sweep, it is never reported as a mere failure).

Verdict semantics: a case passes when the p-adic valuation of LHS - RHS
reaches the required exponent.  Degenerate inputs (e.g. p dividing the series
base m) produce *errored* results, distinct from failures: the statement is
ill-posed there rather than false.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .exactcore import (
    INF,
    NotPIntegralError,
    binomial,
    is_prime,
    rat_congruent,
    require_odd_prime,
    vp,
)
from .lucas import LucasParams, legendre, lucas_u, lucas_u_mod
from .padic import (
    PadicApprox,
    PadicCtx,
    PrecisionExhaustedError,
    from_rational,
    required_guard,
)
from .series import (
    SeriesSpec,
    apery,
    central_binomial_stream,
    s_sum_exact,
    s_sum_mod_with_checkpoints,
)

SUITES = (
    "thm-main",
    "thm-m4",
    "eq-apery",
    "eq-mod-p",
    "eq-mod-p2",
    "eq-sun-asd",
    "lemma-2-1-i",
    "lemma-2-1-ii",
    "lemma-2-1-iii",
    "lemma-2-2",
    "lemma-2-3",
    "lemma-2-4",
    "lemma-2-5",
)

#: Suites evaluated through both the exact oracle and the residue pipeline.
SERIES_SUITES = ("thm-main", "thm-m4", "eq-mod-p", "eq-mod-p2", "eq-sun-asd")


class EngineSelfCheckError(RuntimeError):
    """Oracle and modular paths disagreed: an implementation bug, not a finding."""


# ---------------------------------------------------------------------------
# Achieved valuations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AchievedValuation:
    """What we certifiably know about vp(LHS - RHS).

    kind "exact": the valuation is exactly `value` (unit part seen).
    kind "at_least": the difference vanished at `value` working digits; the
    true valuation may be anything >= value.  kind "infinite": LHS == RHS as
    exact values.  The distinction keeps modular runs honest: they can never
    claim more digits than they carried.
    """

    kind: str
    value: int | None = None

    @classmethod
    def exact(cls, v: int) -> AchievedValuation:
        return cls("exact", v)

    @classmethod
    def at_least(cls, bound: int) -> AchievedValuation:
        return cls("at_least", bound)

    @classmethod
    def infinite(cls) -> AchievedValuation:
        return cls("infinite")

    def satisfies(self, e: int | float) -> bool:
        if self.kind == "infinite":
            return True
        if e == INF:
            return False
        return self.value >= e

    def margin(self, e: int | float) -> int | float:
        """Certified lower bound on achieved - required."""
        if self.kind == "infinite":
            return INF
        if e == INF:
            return -INF
        return self.value - e

    def to_json(self) -> int | str:
        if self.kind == "infinite":
            return "inf"
        if self.kind == "at_least":
            return f">={self.value}"
        return self.value

    def __str__(self) -> str:
        return str(self.to_json())


def _oracle_achieved(achieved: int | float) -> AchievedValuation:
    if achieved == INF:
        return AchievedValuation.infinite()
    return AchievedValuation.exact(achieved)


def _modular_achieved(diff: PadicApprox) -> AchievedValuation:
    if diff.is_zero_class():
        return AchievedValuation.at_least(diff.prec)
    return AchievedValuation.exact(diff.v)


def _check_paths_agree(case: CongruenceCase, oracle: AchievedValuation, modular: AchievedValuation) -> None:
    if modular.kind == "exact":
        ok = oracle.kind == "exact" and oracle.value == modular.value
    else:  # modular saw zero through `value` digits
        ok = oracle.kind == "infinite" or (
            oracle.kind == "exact" and oracle.value >= modular.value
        )
    if not ok:
        raise EngineSelfCheckError(
            f"oracle says {oracle}, modular pipeline says {modular} for {case}"
        )


# ---------------------------------------------------------------------------
# Cases and results
# ---------------------------------------------------------------------------

_SUITE_FIELDS = {
    "thm-main": ("p", "m", "n", "alpha", "variant"),
    "thm-m4": ("p", "n", "alpha", "variant"),
    "eq-apery": ("p", "n", "alpha"),
    "eq-mod-p": ("p", "m", "variant"),
    "eq-mod-p2": ("p", "m", "variant"),
    "eq-sun-asd": ("p", "m", "n", "alpha", "variant"),
    "lemma-2-1-i": ("p", "n", "alpha", "k"),
    "lemma-2-1-ii": ("p", "n", "alpha", "k"),
    "lemma-2-1-iii": ("p", "n", "alpha", "k"),
    "lemma-2-2": ("m", "n"),
    "lemma-2-3": ("p", "m", "alpha", "s"),
    "lemma-2-4": ("p", "m", "n", "alpha", "s", "l"),
    "lemma-2-5": ("p", "alpha", "l", "trial"),
    "asd-custom": ("p", "n", "alpha"),
}

_SORT_SENTINEL = -(2**62)


@dataclass(frozen=True)
class CongruenceCase:
    """One fully-instantiated congruence instance.

    Only the fields applicable to the suite may be set; construction
    validates applicability and the structural preconditions (primality,
    ranges, parity of k for the binomial-transfer parts, alpha >= s, ...).
    """

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

    def __post_init__(self) -> None:
        if self.suite not in _SUITE_FIELDS:
            raise ValueError(f"unknown suite {self.suite!r}")
        wanted = _SUITE_FIELDS[self.suite]
        for f in ("p", "m", "n", "alpha", "s", "l", "k", "variant", "trial"):
            value = getattr(self, f)
            if f in wanted and value is None:
                raise ValueError(f"suite {self.suite} requires parameter {f}")
            if f not in wanted and value is not None:
                raise ValueError(f"suite {self.suite} does not take parameter {f}")
        if self.p is not None:
            require_odd_prime(self.p)
        if self.suite == "eq-apery" and self.p < 5:
            raise ValueError("the Apery congruence needs p >= 5")
        for f in ("n", "alpha"):
            value = getattr(self, f)
            if value is not None and value < 1:
                raise ValueError(f"{f} must be >= 1, got {value}")
        if self.s is not None and not 1 <= self.s <= self.alpha:
            raise ValueError(f"need 1 <= s <= alpha, got s={self.s}, alpha={self.alpha}")
        if self.l is not None and self.l < 0:
            raise ValueError(f"l must be >= 0, got {self.l}")
        if self.trial is not None and self.trial < 0:
            raise ValueError(f"trial must be >= 0, got {self.trial}")
        if self.variant is not None and self.variant not in ("corrected", "literal"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.m is not None:
            if self.suite in ("thm-main", "lemma-2-4") and self.m not in (1, 2, 3):
                raise ValueError(f"suite {self.suite} needs m in {{1,2,3}}, got {self.m}")
            if self.m == 0:
                raise ValueError("m must be nonzero")
        if self.k is not None:
            top = self.p**self.alpha * self.n
            if not 0 <= self.k <= top:
                raise ValueError(f"need 0 <= k <= {top}, got k={self.k}")
            if self.suite == "lemma-2-1-i" and self.k % self.p != 0:
                raise ValueError(f"part (i) needs p | k, got k={self.k}")
            if self.suite == "lemma-2-1-ii" and self.k % self.p == 0:
                raise ValueError(f"part (ii) needs p not dividing k, got k={self.k}")

    def sort_key(self) -> tuple:
        def key(x):
            return _SORT_SENTINEL if x is None else x

        return (
            self.suite,
            key(self.p),
            key(self.m),
            key(self.n),
            key(self.alpha),
            key(self.s),
            key(self.l),
            key(self.k),
            key(self.trial),
            self.variant or "",
        )

    def params_dict(self) -> dict:
        out = {}
        for f in _SUITE_FIELDS[self.suite]:
            out[f] = getattr(self, f)
        return out

    def __str__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.params_dict().items())
        return f"{self.suite}({inner})"


@dataclass(frozen=True)
class CaseResult:
    """Verdict for one case: achieved valuation against the required exponent."""

    case: CongruenceCase
    required_exponent: int | float
    achieved: AchievedValuation | None
    passed: bool
    error: str | None = None
    lhs: object = None
    rhs: object = None
    path: str = "oracle"

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


@dataclass(frozen=True)
class EngineSettings:
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


def _required_exponent(case: CongruenceCase) -> int | float:
    suite = case.suite
    if suite in ("thm-main", "thm-m4", "lemma-2-1-i", "lemma-2-1-ii"):
        return 2 * case.alpha
    if suite == "eq-apery":
        return 3 * case.alpha
    if suite == "eq-mod-p":
        return 1
    if suite == "eq-mod-p2":
        return 2
    if suite == "eq-sun-asd":
        return case.alpha + 1
    if suite in ("lemma-2-1-iii", "lemma-2-5"):
        return case.alpha
    if suite == "lemma-2-2":
        return INF
    if suite in ("lemma-2-3", "lemma-2-4"):
        return case.s
    raise ValueError(f"no required exponent for suite {suite!r}")


def _case_index(case: CongruenceCase) -> int:
    """Largest summation bound the case touches; drives the path choice."""
    if case.suite in ("thm-main", "thm-m4", "eq-sun-asd", "eq-apery"):
        return case.n * case.p**case.alpha
    if case.suite in ("eq-mod-p", "eq-mod-p2"):
        return case.p
    if case.suite.startswith("lemma-2-1"):
        return case.n * case.p**case.alpha
    if case.suite == "lemma-2-2":
        return case.n
    if case.suite == "lemma-2-3":
        return case.p**case.alpha
    if case.suite == "lemma-2-4":
        return max(case.n * case.p**case.alpha, (case.l + 1) * case.p**case.s)
    if case.suite == "lemma-2-5":
        return (case.l + 1) * case.p**case.alpha
    return 0


# ---------------------------------------------------------------------------
# Shared arithmetic pieces
# ---------------------------------------------------------------------------


def fermat_quotient_factor(m: int, p: int, alpha: int) -> Fraction:
    """(m^(p^alpha - p^(alpha-1)) - 1) / (2 p^alpha), p-integral for p not dividing m."""
    require_odd_prime(p)
    if m == 0:
        raise ValueError("m must be nonzero")
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    return Fraction(m ** (p**alpha - p ** (alpha - 1)) - 1, 2 * p**alpha)


def sun_tauraso_lhs(m: int, n: int) -> Fraction:
    """m^(n-1) * sum_{k<n} C(2k,k)/m^k."""
    return m ** (n - 1) * s_sum_exact(n, SeriesSpec(m))


def sun_tauraso_rhs(m: int, n: int) -> Fraction:
    """sum_{k<n} C(2n,k) u_{n-k}(m-2, 1)."""
    params = LucasParams(m - 2)
    return Fraction(sum(binomial(2 * n, k) * lucas_u(n - k, params) for k in range(n)))


# ---------------------------------------------------------------------------
# Generic two-term scaling congruence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsdSpec:
    """A sequence with a claimed scaling law a_{idx(n,a)} ≡ λ a_{idx(n,a-1)} mod p^{e(a)}."""

    sequence: Callable[[int], Fraction]
    multiplier: Fraction
    exponent: Callable[[int], int]
    index_map: Callable[[int, int], int]
    label: str = ""


def asd_check(spec: AsdSpec, p: int, n: int, alpha: int) -> CaseResult:
    """Evaluate vp(a_hi - λ a_lo) against the scaling law's exponent function."""
    case = CongruenceCase("asd-custom", p=p, n=n, alpha=alpha)
    required = spec.exponent(alpha)
    try:
        lhs = Fraction(spec.sequence(spec.index_map(n, alpha)))
        rhs = spec.multiplier * Fraction(spec.sequence(spec.index_map(n, alpha - 1)))
        verdict = rat_congruent(lhs, rhs, p, required)
    except NotPIntegralError as exc:
        return CaseResult(case, required, None, False, error=str(exc))
    achieved = _oracle_achieved(verdict.achieved)
    return CaseResult(case, required, achieved, verdict.holds, lhs=lhs, rhs=rhs)


def apery_asd_spec(p: int) -> AsdSpec:
    """Apery numbers at indices n p^alpha - 1, multiplier 1, exponent 3 alpha."""
    if p < 5:
        raise ValueError("the Apery congruence needs p >= 5")
    require_odd_prime(p)
    return AsdSpec(
        sequence=lambda i: Fraction(apery(i)),
        multiplier=Fraction(1),
        exponent=lambda a: 3 * a,
        index_map=lambda n, a: n * p**a - 1,
        label=f"apery@p={p}",
    )


def series_asd_spec(p: int, m: int, variant: str = "corrected") -> AsdSpec:
    """S_N(m) at N = n p^alpha, multiplier (m(m-4)/p), exponent 2 alpha."""
    require_odd_prime(p)
    spec = SeriesSpec(m, variant)
    return AsdSpec(
        sequence=lambda i: s_sum_exact(i, spec),
        multiplier=Fraction(legendre(m * (m - 4), p)),
        exponent=lambda a: 2 * a,
        index_map=lambda n, a: n * p**a,
        label=f"series@p={p},m={m},{variant}",
    )


# ---------------------------------------------------------------------------
# Series suites: oracle and modular sides
# ---------------------------------------------------------------------------


def _series_m(case: CongruenceCase) -> int:
    return 4 if case.suite == "thm-m4" else case.m


def _series_sides_exact(case: CongruenceCase) -> tuple[Fraction, Fraction]:
    p = case.p
    m = _series_m(case)
    spec = SeriesSpec(m, case.variant)
    sym = legendre(m * (m - 4), p)
    if case.suite == "thm-main":
        return (
            s_sum_exact(case.n * p**case.alpha, spec),
            sym * s_sum_exact(case.n * p ** (case.alpha - 1), spec),
        )
    if case.suite == "thm-m4":
        return (
            s_sum_exact(case.n * p**case.alpha, spec),
            p * s_sum_exact(case.n * p ** (case.alpha - 1), spec),
        )
    if case.suite == "eq-mod-p":
        return s_sum_exact(p, spec), Fraction(sym)
    if case.suite == "eq-mod-p2":
        u = lucas_u(p - sym, LucasParams(m - 2))
        return s_sum_exact(p, spec), Fraction(sym + u)
    if case.suite == "eq-sun-asd":
        M = case.n * p ** (case.alpha - 1)
        lhs = s_sum_exact(case.n * p**case.alpha, spec) - sym * s_sum_exact(M, spec)
        rhs = (
            Fraction(M, m ** (M - 1))
            * binomial(2 * M - 1, M - 1)
            * lucas_u(p - sym, LucasParams(m - 2))
        )
        return lhs, rhs
    raise ValueError(f"{case.suite} has no exact series evaluator")


def _central_binomial_at(ctx: PadicCtx, k: int) -> PadicApprox:
    value = None
    for value in central_binomial_stream(ctx, k):
        pass
    return value


def _series_sides_mod(
    case: CongruenceCase, ctx: PadicCtx, partial_sums: dict[int, int]
) -> tuple[PadicApprox, PadicApprox]:
    p = ctx.p
    m = _series_m(case)
    sym = legendre(m * (m - 4), p)

    def s_sum(N: int) -> PadicApprox:
        return PadicApprox.from_residue(ctx, partial_sums[N])

    if case.suite == "thm-main":
        lhs = s_sum(case.n * p**case.alpha)
        rhs = from_rational(sym, ctx).mul(s_sum(case.n * p ** (case.alpha - 1)))
        return lhs, rhs
    if case.suite == "thm-m4":
        lhs = s_sum(case.n * p**case.alpha)
        rhs = from_rational(p, ctx).mul(s_sum(case.n * p ** (case.alpha - 1)))
        return lhs, rhs
    if case.suite == "eq-mod-p":
        return s_sum(p), from_rational(sym, ctx)
    if case.suite == "eq-mod-p2":
        rhs = from_rational(sym, ctx).add(lucas_u_mod(p - sym, LucasParams(m - 2), ctx))
        return s_sum(p), rhs
    if case.suite == "eq-sun-asd":
        M = case.n * p ** (case.alpha - 1)
        lhs = s_sum(case.n * p**case.alpha).sub(from_rational(sym, ctx).mul(s_sum(M)))
        # C(2M-1, M-1) = C(2M, M) / 2, and 2 is a unit here.
        half_cb = _central_binomial_at(ctx, M).div(from_rational(2, ctx))
        factor = PadicApprox.from_residue(ctx, M * pow(m, -(M - 1), ctx.modulus))
        rhs = factor.mul(half_cb).mul(lucas_u_mod(p - sym, LucasParams(m - 2), ctx))
        return lhs, rhs
    raise ValueError(f"{case.suite} has no modular series evaluator")


# ---------------------------------------------------------------------------
# Sweep planner: one modular stream per (p, m, variant)
# ---------------------------------------------------------------------------

StreamKey = tuple[int, int, str]
#: One pass over S_N(m) mod p^prec: (p, m, variant), prec, and the sorted N
#: at which it reads out S_N.
Stream = tuple[StreamKey, int, tuple[int, ...]]


def _working_precision(case: CongruenceCase) -> int:
    return required_guard(_case_index(case), _required_exponent(case), case.p)


def _stream_key(case: CongruenceCase, settings: EngineSettings) -> StreamKey | None:
    """The series (p, m, variant) a case reads on the modular path, if any."""
    if case.suite not in SERIES_SUITES:
        return None
    m = _series_m(case)
    if m % case.p == 0 or settings.path_for(_case_index(case)) == "oracle":
        return None
    return case.p, m, case.variant


def _stream_points(case: CongruenceCase) -> tuple[int, ...]:
    """The term counts N at which a series case reads S_N."""
    if case.suite in ("eq-mod-p", "eq-mod-p2"):
        return (case.p,)
    return case.n * case.p**case.alpha, case.n * case.p ** (case.alpha - 1)


def _plan_streams(cases: Sequence[CongruenceCase], settings: EngineSettings) -> list[Stream]:
    """One stream per series the cases read, largest first.

    Every case of a (p, m, variant) reads prefixes of the same series, so one
    pass at the highest working precision among them serves them all: each
    case reduces the residue to its own precision, which gives the value a
    stream at that precision would have.
    """
    precs: dict[StreamKey, int] = {}
    points: dict[StreamKey, set[int]] = {}
    for case in cases:
        key = _stream_key(case, settings)
        if key is None:
            continue
        precs[key] = max(precs.get(key, 1), _working_precision(case))
        points.setdefault(key, set()).update(_stream_points(case))
    streams = [(key, precs[key], tuple(sorted(points[key]))) for key in precs]
    return sorted(streams, key=lambda s: (s[2][-1], s[1], s[0]), reverse=True)


def _stream_sums(stream: Stream) -> dict[int, int]:
    (p, m, variant), prec, points = stream
    ctx = PadicCtx(p, prec)
    _, taken = s_sum_mod_with_checkpoints(points[-1], SeriesSpec(m, variant), ctx, points)
    return {N: value.residue() for N, value in taken.items()}


def _run_streams(
    streams: Sequence[Stream], pool: ProcessPoolExecutor | None = None
) -> dict[StreamKey, dict[int, int]]:
    sums = map(_stream_sums, streams) if pool is None else pool.map(_stream_sums, streams)
    return {stream[0]: value for stream, value in zip(streams, sums)}


def _evaluate_series_case(
    case: CongruenceCase, settings: EngineSettings, partial_sums: dict[int, int] | None
) -> CaseResult:
    p = case.p
    m = _series_m(case)
    required = _required_exponent(case)
    if m % p == 0:
        return CaseResult(
            case,
            required,
            None,
            False,
            error=f"p = {p} divides m = {m}: series values are not p-integral",
        )
    path = settings.path_for(_case_index(case))
    lhs = rhs = None
    oracle = modular = None
    if path in ("oracle", "both"):
        lhs, rhs = _series_sides_exact(case)
        verdict = rat_congruent(lhs, rhs, p, required)
        oracle = _oracle_achieved(verdict.achieved)
    if path in ("modular", "both"):
        ctx = PadicCtx(p, _working_precision(case))
        mod_lhs, mod_rhs = _series_sides_mod(case, ctx, partial_sums)
        modular = _modular_achieved(mod_lhs.sub(mod_rhs))
        if lhs is None:
            lhs, rhs = mod_lhs, mod_rhs
    if oracle is not None and modular is not None:
        _check_paths_agree(case, oracle, modular)
    achieved = oracle if oracle is not None else modular
    return CaseResult(
        case,
        required,
        achieved,
        achieved.satisfies(required),
        lhs=lhs,
        rhs=rhs,
        path=path,
    )


# ---------------------------------------------------------------------------
# Oracle-only suites
# ---------------------------------------------------------------------------


def _oracle_result(case, lhs: Fraction, rhs: Fraction) -> CaseResult:
    required = _required_exponent(case)
    verdict = rat_congruent(lhs, rhs, case.p, required)
    achieved = _oracle_achieved(verdict.achieved)
    return CaseResult(case, required, achieved, verdict.holds, lhs=lhs, rhs=rhs)


def _evaluate_eq_apery(case: CongruenceCase, settings: EngineSettings) -> CaseResult:
    p = case.p
    lhs = Fraction(apery(case.n * p**case.alpha - 1))
    rhs = Fraction(apery(case.n * p ** (case.alpha - 1) - 1))
    return _oracle_result(case, lhs, rhs)


def _evaluate_lemma_2_1(case: CongruenceCase, settings: EngineSettings) -> CaseResult:
    p, n, a, k = case.p, case.n, case.alpha, case.k
    top = p**a * n
    low = p ** (a - 1) * n
    if case.suite == "lemma-2-1-i":
        lhs = Fraction(binomial(top, k))
        rhs = Fraction(binomial(low, k // p))
    elif case.suite == "lemma-2-1-ii":
        lhs = Fraction(binomial(top, k))
        rhs = Fraction(top, k) * binomial(low - 1, (k - 1) // p) * (-1) ** (k - 1 - (k - 1) // p)
    else:
        lhs = Fraction(binomial(top - 1, k))
        rhs = Fraction(binomial(low - 1, k // p) * (-1) ** (k - k // p))
    return _oracle_result(case, lhs, rhs)


def _evaluate_lemma_2_2(case: CongruenceCase, settings: EngineSettings) -> CaseResult:
    lhs = sun_tauraso_lhs(case.m, case.n)
    rhs = sun_tauraso_rhs(case.m, case.n)
    equal = lhs == rhs
    achieved = AchievedValuation.infinite() if equal else AchievedValuation.exact(0)
    return CaseResult(case, INF, achieved, equal, lhs=lhs, rhs=rhs)


def _evaluate_lemma_2_3(case: CongruenceCase, settings: EngineSettings) -> CaseResult:
    if case.m % case.p == 0:
        return CaseResult(
            case,
            _required_exponent(case),
            None,
            False,
            error=f"p = {case.p} divides m = {case.m}: quotient is not p-integral",
        )
    lhs = fermat_quotient_factor(case.m, case.p, case.alpha)
    rhs = fermat_quotient_factor(case.m, case.p, case.s)
    return _oracle_result(case, lhs, rhs)


def _evaluate_lemma_2_4(case: CongruenceCase, settings: EngineSettings) -> CaseResult:
    p, m, n, l, a, s = case.p, case.m, case.n, case.l, case.alpha, case.s
    if m % p == 0:
        return CaseResult(
            case,
            _required_exponent(case),
            None,
            False,
            error=f"p = {p} divides m = {m}: the scaling factor is not p-integral",
        )
    params = LucasParams(m - 2)
    lhs = Fraction(0)
    for k in range(l * p**s, (l + 1) * p**s):
        if k == 0 or k % p == 0:
            continue
        lhs += Fraction((-1) ** k * lucas_u(p**a * n - k, params), k)
    sym = legendre(m * (m - 4), p)
    tail = lucas_u(p ** (a - s) * n - l, params) + lucas_u(p ** (a - s) * n - l - 1, params)
    rhs = sym**s * -fermat_quotient_factor(m, p, a) * (-1) ** l * tail
    return _oracle_result(case, lhs, rhs)


# ---------------------------------------------------------------------------
# Block-vanishing sequences (lemma-2-5)
# ---------------------------------------------------------------------------


def synthesize_block_sequence(
    p: int,
    alpha: int,
    l: int,
    rng: random.Random,
    levels: Sequence[int] | None = None,
) -> dict[int, int]:
    """Random integers on block l at scale p^alpha whose level-s block sums
    vanish mod p^s for each requested level (default: every 1 <= s <= alpha).

    Adjustment goes innermost level first; at level s the excess is already a
    multiple of p^(s-1), so fixing one entry per block preserves the finer
    levels.
    """
    lo = l * p**alpha
    seq = {k: rng.randrange(-999, 1000) for k in range(lo, lo + p**alpha)}
    for s in sorted(levels if levels is not None else range(1, alpha + 1)):
        if not 1 <= s <= alpha:
            raise ValueError(f"levels must lie in [1, alpha], got {s}")
        size = p**s
        for b0 in range(lo, lo + p**alpha, size):
            excess = sum(seq[k] for k in range(b0, b0 + size)) % p**s
            seq[b0 + size - 1] -= excess
    return seq


def _lemma_2_5_trial(
    case: CongruenceCase,
    seed: int,
    m_values: Sequence[int] = (1, 2, 3),
    n_values: Sequence[int] = (1, 2),
    levels: Sequence[int] | None = None,
) -> CaseResult:
    p, a, l = case.p, case.alpha, case.l
    rng = random.Random(f"{seed}:{p}:{a}:{l}:{case.trial}")
    seq = synthesize_block_sequence(p, a, l, rng, levels)
    worst: int | float = INF
    for mm in m_values:
        for nn in n_values:
            total = sum(
                value * binomial(mm * p**a * nn - 1, k) * (-1) ** k
                for k, value in seq.items()
            )
            worst = min(worst, vp(Fraction(total), p))
    achieved = AchievedValuation.infinite() if worst == INF else AchievedValuation.exact(worst)
    return CaseResult(case, a, achieved, achieved.satisfies(a))


def _evaluate_lemma_2_5(case: CongruenceCase, settings: EngineSettings) -> CaseResult:
    return _lemma_2_5_trial(case, settings.seed)


_DISPATCH = {
    "eq-apery": _evaluate_eq_apery,
    "lemma-2-1-i": _evaluate_lemma_2_1,
    "lemma-2-1-ii": _evaluate_lemma_2_1,
    "lemma-2-1-iii": _evaluate_lemma_2_1,
    "lemma-2-2": _evaluate_lemma_2_2,
    "lemma-2-3": _evaluate_lemma_2_3,
    "lemma-2-4": _evaluate_lemma_2_4,
    "lemma-2-5": _evaluate_lemma_2_5,
}


def evaluate_case(
    case: CongruenceCase,
    settings: EngineSettings = DEFAULT_SETTINGS,
    partial_sums: dict[int, int] | None = None,
) -> CaseResult:
    """Evaluate one case; degeneracies become errored results, never raises.

    On the modular path a series case reads S_N mod p^E (E at least its
    working precision) from `partial_sums`, keyed by N.  run_cases passes
    them from the streams it shares across the sweep; without them the case
    is planned and streamed on its own.
    """
    try:
        if case.suite not in SERIES_SUITES:
            return _DISPATCH[case.suite](case, settings)
        if partial_sums is None:
            sums = _run_streams(_plan_streams([case], settings))
            partial_sums = sums.get(_stream_key(case, settings))
        return _evaluate_series_case(case, settings, partial_sums)
    except (NotPIntegralError, PrecisionExhaustedError, ZeroDivisionError) as exc:
        return CaseResult(case, _required_exponent(case), None, False, error=str(exc))


# ---------------------------------------------------------------------------
# Single-case convenience checks (the public verbs)
# ---------------------------------------------------------------------------


def check_theorem_main(
    p: int,
    n: int,
    alpha: int,
    m: int,
    variant: str = "corrected",
    settings: EngineSettings = DEFAULT_SETTINGS,
) -> CaseResult:
    """S_{n p^a}(m) ≡ (m(m-4)/p) S_{n p^(a-1)}(m) mod p^(2a), m in {1,2,3}."""
    case = CongruenceCase("thm-main", p=p, m=m, n=n, alpha=alpha, variant=variant)
    return evaluate_case(case, settings)


def check_theorem_m4(
    p: int, n: int, alpha: int, variant: str = "corrected", settings: EngineSettings = DEFAULT_SETTINGS
) -> CaseResult:
    """S_{n p^a}(4) ≡ p S_{n p^(a-1)}(4) mod p^(2a)."""
    case = CongruenceCase("thm-m4", p=p, n=n, alpha=alpha, variant=variant)
    return evaluate_case(case, settings)


def check_eq_mod_p(
    p: int, m: int, variant: str = "corrected", settings: EngineSettings = DEFAULT_SETTINGS
) -> CaseResult:
    """S_p(m) ≡ (m(m-4)/p) mod p."""
    case = CongruenceCase("eq-mod-p", p=p, m=m, variant=variant)
    return evaluate_case(case, settings)


def check_eq_mod_p2(
    p: int, m: int, variant: str = "corrected", settings: EngineSettings = DEFAULT_SETTINGS
) -> CaseResult:
    """S_p(m) ≡ (m(m-4)/p) + u_{p-(m(m-4)/p)}(m-2, 1) mod p^2."""
    case = CongruenceCase("eq-mod-p2", p=p, m=m, variant=variant)
    return evaluate_case(case, settings)


def check_eq_sun_asd(
    p: int, n: int, alpha: int, m: int, variant: str = "corrected", settings: EngineSettings = DEFAULT_SETTINGS
) -> CaseResult:
    """The mod p^(a+1) refinement with the binomial-weighted Lucas correction term."""
    case = CongruenceCase("eq-sun-asd", p=p, m=m, n=n, alpha=alpha, variant=variant)
    return evaluate_case(case, settings)


def check_apery(p: int, n: int, alpha: int, settings: EngineSettings = DEFAULT_SETTINGS) -> CaseResult:
    """A_{n p^a - 1} ≡ A_{n p^(a-1) - 1} mod p^(3a), p >= 5."""
    case = CongruenceCase("eq-apery", p=p, n=n, alpha=alpha)
    return evaluate_case(case, settings)


def check_lemma_2_1(
    p: int, n: int, alpha: int, k: int, part: str, settings: EngineSettings = DEFAULT_SETTINGS
) -> CaseResult:
    """The three binomial transfer congruences (parts i, ii, iii)."""
    if part not in ("i", "ii", "iii"):
        raise ValueError(f"part must be 'i', 'ii' or 'iii', got {part!r}")
    case = CongruenceCase(f"lemma-2-1-{part}", p=p, n=n, alpha=alpha, k=k)
    return evaluate_case(case, settings)


def check_identity_sun_tauraso(m: int, n: int) -> CaseResult:
    """Exact identity m^(n-1) S_n(m) = sum_{k<n} C(2n,k) u_{n-k}(m-2,1)."""
    case = CongruenceCase("lemma-2-2", m=m, n=n)
    return evaluate_case(case)


def check_lemma_2_3(m: int, p: int, alpha: int, s: int, settings: EngineSettings = DEFAULT_SETTINGS) -> CaseResult:
    """Fermat-quotient factors at levels alpha and s agree mod p^s."""
    case = CongruenceCase("lemma-2-3", p=p, m=m, alpha=alpha, s=s)
    return evaluate_case(case, settings)


def check_lemma_2_4(
    m: int, p: int, n: int, l: int, alpha: int, s: int, settings: EngineSettings = DEFAULT_SETTINGS
) -> CaseResult:
    """Block sums of (-1)^k u_{p^a n - k}/k against the scaled Lucas pair, mod p^s."""
    case = CongruenceCase("lemma-2-4", p=p, m=m, n=n, alpha=alpha, s=s, l=l)
    return evaluate_case(case, settings)


def check_lemma_2_5(
    p: int,
    alpha: int,
    l: int = 0,
    n_upper: int = 2,
    block_exponents: Sequence[int] | None = None,
    trials: int = 100,
    seed: int = 0,
    m_upper: int = 3,
) -> list[CaseResult]:
    """Trials of the block-vanishing hypothesis feeding the weighted conclusion.

    Each trial synthesizes a sequence whose level-s block sums vanish mod p^s
    (levels default to all 1..alpha) and checks the alternating binomial-
    weighted block sum mod p^alpha over the (m', n') grid.
    """
    require_odd_prime(p)
    results = []
    for trial in range(trials):
        case = CongruenceCase("lemma-2-5", p=p, alpha=alpha, l=l, trial=trial)
        results.append(
            _lemma_2_5_trial(
                case,
                seed,
                m_values=range(1, m_upper + 1),
                n_values=range(1, n_upper + 1),
                levels=block_exponents,
            )
        )
    return results


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRanges:
    """Parameter ranges for a sweep; None fields fall back to suite defaults."""

    primes: tuple[int, ...] | None = None
    m_values: tuple[int, ...] | None = None
    n_values: tuple[int, ...] | None = None
    alpha_values: tuple[int, ...] | None = None
    s_values: tuple[int, ...] | None = None
    l_values: tuple[int, ...] | None = None
    trials: int | None = None


# Desk-scale default grids, one per suite; together they form the default
# verification sweep.
SUITE_DEFAULTS: dict[str, tuple[SweepRanges, int]] = {
    "thm-main": (
        SweepRanges(primes=(3, 5, 7, 11, 13), m_values=(1, 2, 3), n_values=(1, 2, 3), alpha_values=(1, 2, 3)),
        10_000,
    ),
    "thm-m4": (SweepRanges(primes=(3, 5, 7, 11, 13), n_values=(1, 2, 3), alpha_values=(1, 2, 3)), 10_000),
    "eq-apery": (SweepRanges(primes=(5, 7, 11), n_values=(1, 2), alpha_values=(1, 2)), 200),
    "eq-mod-p": (SweepRanges(primes=(3, 5, 7, 11, 13), m_values=tuple(range(-10, 11))), 10_000),
    "eq-mod-p2": (SweepRanges(primes=(3, 5, 7, 11, 13), m_values=tuple(range(-10, 11))), 10_000),
    "eq-sun-asd": (
        SweepRanges(primes=(3, 5, 7, 11, 13), m_values=tuple(range(-10, 11)), n_values=(1, 2), alpha_values=(1, 2)),
        1_000,
    ),
    "lemma-2-1-i": (SweepRanges(primes=(3, 5, 7), n_values=(1, 2), alpha_values=(1, 2)), 10_000),
    "lemma-2-1-ii": (SweepRanges(primes=(3, 5, 7), n_values=(1, 2), alpha_values=(1, 2)), 10_000),
    "lemma-2-1-iii": (SweepRanges(primes=(3, 5, 7), n_values=(1, 2), alpha_values=(1, 2)), 10_000),
    "lemma-2-2": (SweepRanges(m_values=tuple(range(-10, 11)), n_values=tuple(range(1, 101))), 10_000),
    "lemma-2-3": (SweepRanges(primes=(3, 5, 7), m_values=(2, 3, 5, 7), alpha_values=(1, 2, 3, 4)), 10_000),
    "lemma-2-4": (SweepRanges(primes=(3, 5, 7), m_values=(1, 2, 3), n_values=(1, 2), alpha_values=(1, 2, 3)), 10_000),
    "lemma-2-5": (SweepRanges(primes=(3, 5), alpha_values=(1, 2), l_values=(0,), trials=100), 10_000),
}


def _merge_ranges(given: SweepRanges | None, defaults: SweepRanges) -> SweepRanges:
    if given is None:
        return defaults
    merged = {}
    for f in fields(SweepRanges):
        value = getattr(given, f.name)
        merged[f.name] = getattr(defaults, f.name) if value is None else value
    return SweepRanges(**merged)


def _odd_primes(values: Iterable[int]) -> list[int]:
    return [p for p in values if p > 2 and is_prime(p)]


def enumerate_cases(
    suite: str,
    ranges: SweepRanges | None = None,
    variant: str = "corrected",
    max_index: int | None = None,
) -> list[CongruenceCase]:
    """All valid cases of a suite over the given (or default) grids.

    Inapplicable combinations (p | m, index cap exceeded, s > alpha, ...) are
    skipped here; they are not errors, they are simply not instances of the
    statement.
    """
    if suite not in SUITE_DEFAULTS:
        raise ValueError(f"unknown suite {suite!r}")
    defaults, default_cap = SUITE_DEFAULTS[suite]
    r = _merge_ranges(ranges, defaults)
    cap = default_cap if max_index is None else max_index
    series_variant = variant if suite in SERIES_SUITES else None
    cases: list[CongruenceCase] = []

    if suite in ("thm-main", "thm-m4"):
        for p in _odd_primes(r.primes):
            for m in r.m_values if suite == "thm-main" else (4,):
                if suite == "thm-main" and (m not in (1, 2, 3) or m % p == 0):
                    continue
                for n in r.n_values:
                    for a in r.alpha_values:
                        if n * p**a > cap:
                            continue
                        kw = {"m": m} if suite == "thm-main" else {}
                        cases.append(
                            CongruenceCase(suite, p=p, n=n, alpha=a, variant=series_variant, **kw)
                        )
    elif suite == "eq-apery":
        for p in _odd_primes(r.primes):
            if p < 5:
                continue
            for n in r.n_values:
                for a in r.alpha_values:
                    if n * p**a > cap:
                        continue
                    cases.append(CongruenceCase(suite, p=p, n=n, alpha=a))
    elif suite in ("eq-mod-p", "eq-mod-p2"):
        for p in _odd_primes(r.primes):
            if p > cap:
                continue
            for m in r.m_values:
                if m == 0 or m % p == 0:
                    continue
                cases.append(CongruenceCase(suite, p=p, m=m, variant=series_variant))
    elif suite == "eq-sun-asd":
        for p in _odd_primes(r.primes):
            for m in r.m_values:
                if m == 0 or m % p == 0:
                    continue
                for n in r.n_values:
                    for a in r.alpha_values:
                        if n * p**a > cap:
                            continue
                        cases.append(CongruenceCase(suite, p=p, m=m, n=n, alpha=a, variant=series_variant))
    elif suite.startswith("lemma-2-1"):
        part = suite.rsplit("-", 1)[1]
        for p in _odd_primes(r.primes):
            for n in r.n_values:
                for a in r.alpha_values:
                    top = n * p**a
                    if top > cap:
                        continue
                    for k in range(top + 1):
                        if part == "i" and k % p != 0:
                            continue
                        if part == "ii" and k % p == 0:
                            continue
                        cases.append(CongruenceCase(suite, p=p, n=n, alpha=a, k=k))
    elif suite == "lemma-2-2":
        for m in r.m_values:
            if m == 0:
                continue
            for n in r.n_values:
                if n > cap:
                    continue
                cases.append(CongruenceCase(suite, m=m, n=n))
    elif suite == "lemma-2-3":
        for p in _odd_primes(r.primes):
            for m in r.m_values:
                if m == 0 or m % p == 0:
                    continue
                for a in r.alpha_values:
                    if p**a > cap:
                        continue
                    for s in r.s_values or range(1, a + 1):
                        if not 1 <= s <= a:
                            continue
                        cases.append(CongruenceCase(suite, p=p, m=m, alpha=a, s=s))
    elif suite == "lemma-2-4":
        for p in _odd_primes(r.primes):
            for m in r.m_values:
                if m not in (1, 2, 3) or m % p == 0:
                    continue
                for a in r.alpha_values:
                    if p**a > cap:
                        continue
                    for s in r.s_values or range(1, a + 1):
                        if not 1 <= s <= a:
                            continue
                        for n in r.n_values:
                            if n * p**a > cap:
                                continue
                            for l in r.l_values if r.l_values is not None else range(2 * p + 1):
                                if (l + 1) * p**s > cap:
                                    continue
                                cases.append(
                                    CongruenceCase(suite, p=p, m=m, n=n, alpha=a, s=s, l=l)
                                )
    elif suite == "lemma-2-5":
        for p in _odd_primes(r.primes):
            for a in r.alpha_values:
                for l in r.l_values if r.l_values is not None else (0,):
                    if (l + 1) * p**a > cap:
                        continue
                    for trial in range(r.trials or 0):
                        cases.append(CongruenceCase(suite, p=p, alpha=a, l=l, trial=trial))
    return cases


def pool_size(jobs: int, units: int) -> int:
    """Worker processes worth starting: no more than asked for, CPUs, or work units."""
    return max(1, min(jobs, os.cpu_count() or 1, units))


def _pool_eval(payload: tuple[CongruenceCase, EngineSettings, dict[int, int] | None]) -> CaseResult:
    return evaluate_case(*payload)


def run_cases(
    cases: Sequence[CongruenceCase],
    settings: EngineSettings = DEFAULT_SETTINGS,
    jobs: int = 1,
) -> list[CaseResult]:
    """Evaluate cases (optionally on a process pool) and sort deterministically.

    The modular series values are streamed first, once per (p, m, variant);
    on a pool the streams are mapped, largest first, before the cases.
    """
    streams = _plan_streams(cases, settings)
    workers = pool_size(jobs, len(cases))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            sums = _run_streams(streams, pool)
            payloads = [(c, settings, sums.get(_stream_key(c, settings))) for c in cases]
            chunk = max(1, len(cases) // (workers * 8))
            results = list(pool.map(_pool_eval, payloads, chunksize=chunk))
    else:
        sums = _run_streams(streams)
        results = [evaluate_case(c, settings, sums.get(_stream_key(c, settings))) for c in cases]
    return sorted(results, key=lambda result: result.case.sort_key())


def run_suite(
    suite: str,
    ranges: SweepRanges | None = None,
    variant: str = "corrected",
    max_index: int | None = None,
    jobs: int = 1,
    settings: EngineSettings | None = None,
    seed: int = 0,
):
    """Enumerate and evaluate one suite (or "all"), returning a Report."""
    from .report import Report

    settings = settings or replace(DEFAULT_SETTINGS, seed=seed)
    suites = list(SUITE_DEFAULTS) if suite == "all" else [suite]
    cases: list[CongruenceCase] = []
    for one in suites:
        cases.extend(enumerate_cases(one, ranges, variant, max_index))
    results = run_cases(cases, settings, jobs)
    overrides = {}
    if ranges is not None:
        for f in fields(SweepRanges):
            value = getattr(ranges, f.name)
            if value is not None:
                overrides[f.name] = list(value) if isinstance(value, tuple) else value
    meta = {
        "suite": suite,
        "variant": variant,
        "ranges": overrides,
        "max_index": max_index,
        "seed": settings.seed,
        "oracle_cutoff": settings.oracle_cutoff,
        "crosscheck_cutoff": settings.crosscheck_cutoff,
    }
    return Report.from_results(meta, results)
