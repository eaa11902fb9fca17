"""Helpers for tests that pin the paper's worked values: one case's verdict,
the two sides of a case over Q, and the p-unit the engine's integer sides
carry over the paper's."""

from fractions import Fraction

import asdcong.engine
from asdcong.engine import SUITES, CongruenceCase, EngineSettings, run_cases, sun_tauraso_rhs
from asdcong.exactcore import require_odd_prime
from asdcong.series import s_sum_exact, s_sums_exact


def check(suite, settings=EngineSettings(), **params):
    """Evaluate one case, a sweep of one; a series case is of the corrected
    variant unless given."""
    if "variant" in SUITES[suite].fields:
        params.setdefault("variant", "corrected")
    return run_cases([CongruenceCase(suite, **params)], settings)[0]


def fermat_quotient_factor(m, p, alpha):
    """The paper's F(m, p, alpha) = (m^(p^alpha - p^(alpha-1)) - 1) / (2 p^alpha),
    p-integral for p not dividing m: the reference for lemmas 2.3 and 2.4."""
    require_odd_prime(p)
    if m == 0:
        raise ValueError("m must be nonzero")
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    return Fraction(m ** (p**alpha - p ** (alpha - 1)) - 1, 2 * p**alpha)


def unit(case, one):
    """The p-unit that a case's integer sides share over the paper's, given
    the unit `one` its reads of S_N carry: `one` times 2 on eq-sun-asd and
    lemma-2-3, k on lemma-2-1-ii and 2L on lemma-2-4, L the lcm of the
    block's k."""
    if case.suite in ("eq-sun-asd", "lemma-2-3"):
        return 2 * one
    if case.suite == "lemma-2-1-ii":
        return case.k * one
    if case.suite == "lemma-2-4":
        common, _ = asdcong.engine._block_weights(case.p, case.s, case.l)
        return 2 * common * one
    return one


def oracle_one(case):
    """The unit the oracle's reads of S_N carry: b^(T-1) for a series case
    at the signed base b with top point T, else 1."""
    suite = SUITES[case.suite]
    return 1 if suite.points is None else asdcong.engine._base(case) ** (suite.index(case) - 1)


def oracle_sides(case):
    """(lhs, rhs) of a case as the oracle path reads them, given over the
    unit they share, as the paper writes them: the engine's integer sides
    from the exact walk and `lucas_u`, or lemma-2-2's identity as
    m^(n-1) S_n(m) against the Sun-Tauraso sum."""
    if case.suite == "lemma-2-2":
        return case.m ** (case.n - 1) * s_sum_exact(case.n, case.m), sun_tauraso_rhs(case.m, case.n)
    points = SUITES[case.suite].points
    scaled = {} if points is None else s_sums_exact({asdcong.engine._base(case): points(case)})
    lhs, rhs = asdcong.engine._exact_sides(case, scaled)
    common = unit(case, oracle_one(case))
    return Fraction(lhs, common), Fraction(rhs, common)
