"""Acceptance sweep: every criterion at its stated (exact) tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.  All congruence verdicts are exact valuation comparisons; there
are no numerical tolerances anywhere.
"""

import random
import time
from fractions import Fraction

from asdcong.engine import (
    AchievedValuation,
    CongruenceCase,
    EngineSettings,
    SweepRanges,
    run_cases,
    run_suite,
)
from asdcong.exactcore import INF, is_prime
from asdcong.padic import PadicCtx, from_rational, required_guard
from asdcong.series import s_sum_exact, s_sums_mod
from sides import check, oracle_sides

ORACLE_ONLY = EngineSettings(oracle_cutoff=10**9, crosscheck_cutoff=0)
MODULAR_ONLY = EngineSettings(oracle_cutoff=0, crosscheck_cutoff=0)


def _verdict(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:>2} [{label}]: {status}{suffix}")
    return ok


def _clean(report):
    counts = report.counts()
    return counts["failed"] == 0 and counts["errored"] == 0, counts


def test_criterion_1_theorem_main_sweep():
    report = run_suite("thm-main")  # p in {3,5,7,11,13}, m in {1,2,3}, n,a in {1,2,3}
    ok, counts = _clean(report)
    anchors = [
        oracle_sides(CongruenceCase("thm-main", p=p, n=1, alpha=1, m=m, variant="corrected"))[0] == lhs
        for p, m, lhs in ((5, 1, 99), (3, 2, Fraction(7, 2)), (5, 3, Fraction(319, 81)))
    ]
    ok = ok and all(anchors)
    assert _verdict(1, "thm-main sweep", ok, f"{counts['total']} cases")
    assert counts["total"] >= 100


def test_criterion_2_theorem_m4_sweep():
    report = run_suite("thm-m4")
    ok, counts = _clean(report)
    p3 = CongruenceCase("thm-m4", p=3, n=1, alpha=1, variant="corrected")
    p5 = check("thm-m4", p=5, n=1, alpha=1)
    ok = ok and oracle_sides(p3) == (Fraction(15, 8), 3)
    ok = ok and p5.achieved == AchievedValuation(2)  # v5(315/128 - 5) = 2
    assert _verdict(2, "thm-m4 sweep", ok, f"{counts['total']} cases")


def test_criterion_3_apery():
    report = run_suite("eq-apery")  # p in {5,7,11}, n,a in {1,2}, index <= 200
    ok, counts = _clean(report)
    ok = ok and check("eq-apery", p=5, n=1, alpha=1).achieved == AchievedValuation(3)
    assert _verdict(3, "apery", ok, f"{counts['total']} cases")


def test_criterion_4_displayed_equations():
    oks = []
    totals = 0
    for suite in ("eq-mod-p", "eq-mod-p2", "eq-sun-asd"):
        report = run_suite(suite)  # m in [-10,10]\{0}, p in {3,5,7,11,13}
        ok, counts = _clean(report)
        oks.append(ok)
        totals += counts["total"]
    anchor = check("eq-sun-asd", p=3, n=1, alpha=1, m=5)
    mod9 = lambda x: (Fraction(x) * pow(Fraction(x).denominator, -1, 9)).numerator % 9
    lhs, rhs = oracle_sides(anchor.case)
    anchor_ok = anchor.passed and lhs == Fraction(66, 25) and rhs == 21 and mod9(lhs) == mod9(rhs) == 3
    ok = all(oks) and anchor_ok
    assert _verdict(4, "eq-mod-p/p2/sun-asd", ok, f"{totals} cases")


def test_criterion_5_lemma_suite():
    oks = []
    totals = 0
    for suite in ("lemma-2-1-i", "lemma-2-1-ii", "lemma-2-1-iii", "lemma-2-3", "lemma-2-4"):
        report = run_suite(suite)
        ok, counts = _clean(report)
        oks.append(ok)
        totals += counts["total"]
    assert _verdict(5, "lemma suite", all(oks), f"{totals} cases")


def test_criterion_6_exact_identity():
    report = run_suite("lemma-2-2")  # m in [-10,10]\{0}, n <= 100
    ok, counts = _clean(report)
    ok = ok and counts["total"] == 20 * 100
    ok = ok and all(r.achieved == AchievedValuation(INF) for r in report.results)
    assert _verdict(6, "exact identity", ok, f"{counts['total']} equalities")


def test_criterion_7_block_sequences():
    report = run_suite("lemma-2-5", settings=EngineSettings(seed=0))  # (p,a) in {3,5}x{1,2}, 100 trials each
    ok, counts = _clean(report)
    ok = ok and counts["total"] == 400
    assert _verdict(7, "synthesized block sequences", ok, f"{counts['total']} trials")


def test_criterion_8_falsification_duty():
    primes = (3, 5, 7, 11, 13, 17, 19)
    ranges = SweepRanges(primes=primes)
    literal = run_suite("thm-main", ranges, variant="literal")
    corrected = run_suite("thm-main", ranges, variant="corrected")
    literal_failures = {
        (r.case.p, r.case.m, r.case.n, r.case.alpha) for r in literal.failures()
    }
    ok = (5, 1, 1, 1) in literal_failures and len(literal_failures) >= 1
    ok = ok and not corrected.failures()
    detail = f"literal: {len(literal_failures)} failures, corrected: 0"
    assert _verdict(8, "falsification duty", ok, detail)


def test_criterion_9_dual_path_equivalence():
    rng = random.Random(20260811)
    primes = [p for p in range(3, 1400) if is_prime(p)]
    checked = 0
    ok = True
    while checked < 500:
        suite = rng.choice(("thm-main", "thm-m4", "eq-mod-p", "eq-mod-p2", "eq-sun-asd"))
        p = rng.choice(primes)
        kwargs = {"p": p, "variant": "corrected"}
        if suite in ("thm-main", "thm-m4", "eq-sun-asd"):
            alpha = rng.choice((1, 2, 3))
            if p**alpha > 1500:
                continue
            n = rng.randrange(1, 1500 // p**alpha + 1)
            kwargs.update(n=n, alpha=alpha)
        if suite == "thm-main":
            kwargs["m"] = rng.choice((1, 2, 3))
        elif suite in ("eq-mod-p", "eq-mod-p2", "eq-sun-asd"):
            kwargs["m"] = rng.choice([v for v in range(-10, 11) if v])
        if kwargs.get("m") is not None and kwargs["m"] % p == 0:
            continue
        case = CongruenceCase(suite, **kwargs)
        oracle = run_cases([case], ORACLE_ONLY)[0]
        modular = run_cases([case], MODULAR_ONLY)[0]
        checked += 1
        if oracle.error or modular.error:
            ok = ok and (oracle.error is not None) == (modular.error is not None)
            continue
        if modular.achieved.exact:
            agree = oracle.achieved == modular.achieved
        else:  # difference vanished through all carried digits
            agree = oracle.achieved.value >= modular.achieved.value
        ok = ok and agree and (oracle.passed == modular.passed)
    assert _verdict(9, "dual-path equivalence", ok, f"{checked} random cases")


def test_criterion_10_scale():
    ctx = PadicCtx(5, required_guard(10**6, 8, 5))
    start = time.monotonic()
    sums = s_sums_mod({1: (3000, 10**6)}, ctx)[1]
    elapsed = time.monotonic() - start
    oracle = from_rational(s_sum_exact(3000, 1), ctx)
    ok = elapsed < 30.0 and sums[3000] == oracle and sums[10**6] != 0
    assert _verdict(10, "scale", ok, f"N=1e6 in {elapsed:.2f}s at p=5, e=8")


def test_criterion_11_deep_alpha():
    # thm-main at alpha = 30, N = 3^30 n about 2e14 and 4e14, on the modular
    # path alone at 92 digits: one stream in blocks of 3^L terms, L in the
    # twenties, each level's polynomials built from the level below.
    ranges = SweepRanges(primes=(3,), m_values=(1, 2), n_values=(1, 2), alpha_values=(30,))
    start = time.monotonic()
    report = run_suite("thm-main", ranges, max_index=10**15, settings=MODULAR_ONLY)
    elapsed = time.monotonic() - start
    achieved = {(r.case.m, r.case.n): r.achieved for r in report.results}
    expected = {(1, 1): 60, (1, 2): 61, (2, 1): 60, (2, 2): 61}
    ok = all(r.passed and r.required_exponent == 60 for r in report.results) and elapsed < 10.0
    ok = ok and achieved == {key: AchievedValuation(value, True) for key, value in expected.items()}
    assert _verdict(11, "deep alpha", ok, f"alpha=30 at p=3 in {elapsed:.2f}s")


def test_criterion_12_deeper_alpha():
    # thm-main at alpha = 80, N = 3^80 n about 1.5e38 and 3e38, on the
    # modular path alone at 242 digits: the same stream as at alpha = 30,
    # with levels in the seventies, each built in Newton form.
    ranges = SweepRanges(primes=(3,), m_values=(1, 2), n_values=(1, 2), alpha_values=(80,))
    start = time.monotonic()
    report = run_suite("thm-main", ranges, max_index=10**40, settings=MODULAR_ONLY)
    elapsed = time.monotonic() - start
    achieved = {(r.case.m, r.case.n): r.achieved for r in report.results}
    expected = {(1, 1): 160, (1, 2): 161, (2, 1): 160, (2, 2): 161}
    ok = all(r.passed and r.required_exponent == 160 for r in report.results) and elapsed < 10.0
    ok = ok and achieved == {key: AchievedValuation(value, True) for key, value in expected.items()}
    assert _verdict(12, "deeper alpha", ok, f"alpha=80 at p=3 in {elapsed:.2f}s")
