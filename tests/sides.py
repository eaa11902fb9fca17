"""Helpers for tests that pin the paper's worked values: one case's verdict,
and the two sides of a case over Q."""

import asdcong.engine
from asdcong.engine import SUITES, CongruenceCase, EngineSettings, run_cases, sun_tauraso_rhs
from asdcong.lucas import lucas_u
from asdcong.series import s_sum_exact


def check(suite, settings=EngineSettings(), **params):
    """Evaluate one case, a sweep of one; a series case is of the corrected
    variant unless given."""
    if "variant" in SUITES[suite].fields:
        params.setdefault("variant", "corrected")
    return run_cases([CongruenceCase(suite, **params)], settings)[0]


def oracle_sides(case):
    """(lhs, rhs) of a case as the oracle path reads them: the suite's `sides`
    from exact S_N and `lucas_u`, or lemma-2-2's identity as m^(n-1) S_n(m)
    against the Sun-Tauraso sum."""
    if case.suite == "lemma-2-2":
        return case.m ** (case.n - 1) * s_sum_exact(case.n, case.m), sun_tauraso_rhs(case.m, case.n)
    b = asdcong.engine._base(case)
    return SUITES[case.suite].sides(case, lambda N: s_sum_exact(N, b), lucas_u)
