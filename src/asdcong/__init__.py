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
from .padic import PadicCtx, from_rational, required_guard
from .lucas import LucasParams, jacobi, legendre, lucas_u, lucas_u_mod
from .series import SeriesSpec, apery, s_sum_exact, s_sum_mod
from .engine import (
    AchievedValuation,
    CaseResult,
    CongruenceCase,
    EngineSettings,
    SUITES,
    SweepRanges,
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
