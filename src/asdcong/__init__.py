"""Exact and p-adic verification of Atkin-Swinnerton-Dyer type congruences
for truncated central-binomial series and related sequences."""

from ._version import __version__
from .exactcore import (
    INF,
    NotPIntegralError,
    binomial,
    is_prime,
    rat_congruent,
    vp,
)
from .padic import PadicCtx, from_rational, required_guard
from .lucas import legendre, lucas_u, lucas_u_mod
from .series import apery, s_sum_exact, s_sum_mod
from .engine import (
    AchievedValuation,
    CaseResult,
    CongruenceCase,
    EngineSettings,
    SUITES,
    SweepRanges,
    enumerate_cases,
    run_cases,
    run_suite,
)
from .report import Report

__all__ = [
    "INF", "SUITES", "AchievedValuation", "CaseResult", "CongruenceCase",
    "EngineSettings", "NotPIntegralError", "PadicCtx", "Report", "SweepRanges", "apery", "binomial",
    "enumerate_cases", "from_rational", "is_prime", "legendre", "lucas_u", "lucas_u_mod",
    "rat_congruent", "required_guard", "run_cases", "run_suite", "s_sum_exact", "s_sum_mod", "vp",
]
