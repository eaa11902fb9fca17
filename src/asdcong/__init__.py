"""Exact and p-adic verification of Atkin-Swinnerton-Dyer type congruences
for truncated central-binomial series and related sequences."""

from ._version import __version__
from .exactcore import (
    INF,
    CongruenceVerdict,
    NotPIntegralError,
    binomial,
    is_prime,
    rat_congruent,
    vp,
)
from .padic import (
    CtxMismatchError,
    PadicApprox,
    PadicCtx,
    PrecisionExhaustedError,
    from_rational,
    required_guard,
)
from .lucas import LucasParams, jacobi, legendre, lucas_u, lucas_u_mod
from .series import SeriesSpec, apery, s_sum_exact, s_sum_mod
from .engine import (
    AchievedValuation,
    CaseResult,
    CongruenceCase,
    EngineSettings,
    SUITES,
    SweepRanges,
    check_apery,
    check_eq_mod_p,
    check_eq_mod_p2,
    check_eq_sun_asd,
    check_identity_sun_tauraso,
    check_lemma_2_1,
    check_lemma_2_3,
    check_lemma_2_4,
    check_theorem_main,
    check_theorem_m4,
    enumerate_cases,
    evaluate_case,
    fermat_quotient_factor,
    run_cases,
    run_suite,
    sun_tauraso_lhs,
    sun_tauraso_rhs,
    synthesize_block_sequence,
)
from .report import Report

__all__ = [name for name in dir() if not name.startswith("_")]
