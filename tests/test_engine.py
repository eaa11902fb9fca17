import hashlib
import math
import os
import pickle
import random
import threading
import time
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import asdcong.engine
from asdcong.engine import (
    DEFAULT_SETTINGS,
    SUITES,
    AchievedValuation,
    CaseResult,
    CongruenceCase,
    EngineSelfCheckError,
    EngineSettings,
    SweepRanges,
    enumerate_cases,
    fermat_quotient_factor,
    pool_size,
    run_cases,
    run_suite,
    sun_tauraso_rhs,
    synthesize_block_sequence,
)
from asdcong.exactcore import INF, is_prime, vp, vp_int
from asdcong.lucas import legendre, lucas_u
from asdcong.padic import PadicCtx, from_rational, required_guard
from asdcong.report import Report
from asdcong.series import _level, s_sum_mod, s_sums_exact
from sides import check, oracle_sides

ORACLE_ONLY = EngineSettings(oracle_cutoff=10**9, crosscheck_cutoff=0)
MODULAR_ONLY = EngineSettings(oracle_cutoff=0, crosscheck_cutoff=0)


class TestAchievedValuation:
    def test_satisfies_and_margin(self):
        assert AchievedValuation(3).satisfies(3)
        assert not AchievedValuation(2).satisfies(3)
        assert AchievedValuation(8, exact=False).satisfies(5)
        assert AchievedValuation(INF).satisfies(10**9)
        assert AchievedValuation(5).margin(2) == 3
        assert AchievedValuation(INF).margin(2) == INF

    def test_json_forms(self):
        assert AchievedValuation(4).to_json() == 4
        assert AchievedValuation(7, exact=False).to_json() == ">=7"
        assert AchievedValuation(INF).to_json() == "inf"

    @given(
        st.one_of(st.builds(AchievedValuation, st.integers(), st.booleans()), st.just(AchievedValuation(INF))),
        st.one_of(st.integers(min_value=1), st.just(INF)),
    )
    def test_satisfies_is_a_nonnegative_margin(self, achieved, e):
        assert achieved.satisfies(e) == (achieved.margin(e) >= 0)
        text = achieved.to_json()
        if achieved.value == INF:
            assert text == "inf"
        elif achieved.exact:
            assert type(text) is int and text == achieved.value
        else:
            assert text == f">={achieved.value}"

    # The oracle is exact.  An exact modular valuation must equal it; a
    # modular bound (zero through all 3 carried digits) must not exceed it.
    @pytest.mark.parametrize(
        "oracle, modular, error",
        [
            (0, AchievedValuation(3), "oracle says 0, modular pipeline says 3"),
            (3, AchievedValuation(3), None),
            (5, AchievedValuation(3), "oracle says 5, modular pipeline says 3"),
            (INF, AchievedValuation(3), "oracle says inf, modular pipeline says 3"),
            (0, AchievedValuation(3, exact=False), "oracle says 0, modular pipeline says >=3"),
            (3, AchievedValuation(3, exact=False), None),
            (5, AchievedValuation(3, exact=False), None),
            (INF, AchievedValuation(3, exact=False), None),
        ],
    )
    def test_paths_agree(self, oracle, modular, error):
        case = CongruenceCase("eq-mod-p", p=5, m=1, variant="corrected")
        if error is None:
            asdcong.engine._check_paths_agree(case, AchievedValuation(oracle), modular)
        else:
            with pytest.raises(EngineSelfCheckError) as exc:
                asdcong.engine._check_paths_agree(case, AchievedValuation(oracle), modular)
            assert str(exc.value) == f"{error} for eq-mod-p(p=5, m=1, variant=corrected)"


class TestCaseValidation:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            CongruenceCase("thm-nonsense", p=5)

    def test_missing_and_extra_params(self):
        with pytest.raises(ValueError):
            CongruenceCase("thm-main", p=5, m=1, n=1, variant="corrected")  # no alpha
        with pytest.raises(ValueError):
            CongruenceCase("lemma-2-2", m=1, n=2, p=5)  # p not applicable

    def test_structural_preconditions(self):
        with pytest.raises(ValueError):
            CongruenceCase("thm-main", p=15, m=1, n=1, alpha=1, variant="corrected")
        with pytest.raises(ValueError):
            CongruenceCase("thm-main", p=2, m=1, n=1, alpha=1, variant="corrected")
        with pytest.raises(ValueError):
            CongruenceCase("thm-main", p=5, m=4, n=1, alpha=1, variant="corrected")
        with pytest.raises(ValueError):
            CongruenceCase("eq-apery", p=3, n=1, alpha=1)
        with pytest.raises(ValueError):
            CongruenceCase("lemma-2-3", p=3, m=2, alpha=1, s=2)  # s > alpha
        with pytest.raises(ValueError):
            CongruenceCase("eq-mod-p", p=5, m=0, variant="corrected")

    def test_every_way_of_building_validates(self):
        # A case is a tuple: _replace and _make build through the
        # constructor, so they cannot give a case that it would refuse.
        case = CongruenceCase("thm-main", p=5, m=1, n=1, alpha=1, variant="corrected")
        with pytest.raises(ValueError):
            case._replace(p=4)
        with pytest.raises(ValueError):
            CongruenceCase._make(("thm-main", 5, 1, 1, 0, None, None, None, "corrected", None))
        moved = case._replace(p=7)
        assert type(moved) is CongruenceCase and moved == CongruenceCase("thm-main", p=7, m=1, n=1, alpha=1, variant="corrected")

    def test_part_parity(self):
        with pytest.raises(ValueError):
            CongruenceCase("lemma-2-1-i", p=3, n=1, alpha=1, k=2)
        with pytest.raises(ValueError):
            CongruenceCase("lemma-2-1-ii", p=3, n=1, alpha=1, k=3)
        with pytest.raises(ValueError):
            CongruenceCase("lemma-2-1-iv", p=3, n=1, alpha=1, k=0)


class TestTheoremMain:
    def test_anchor_m3_p5(self):
        result = check("thm-main", p=5, n=1, alpha=1, m=3)
        assert result.passed
        assert oracle_sides(result.case) == (Fraction(319, 81), -1)
        assert result.achieved == AchievedValuation(2)  # 400/81 has v5 = 2

    def test_anchor_m2_p3(self):
        result = check("thm-main", p=3, n=1, alpha=1, m=2)
        assert result.passed
        assert oracle_sides(result.case) == (Fraction(7, 2), -1)

    def test_degenerate_symbol_m1_p3(self):
        # (m(m-4)/3) = 0 for m = 1, so the sum itself must vanish mod 3^(2a).
        result = check("thm-main", p=3, n=1, alpha=2, m=1)
        assert result.passed
        assert oracle_sides(result.case) == (17577, 0)  # 17577 = 81 * 217
        assert result.achieved == AchievedValuation(4)

    def test_literal_variant_fails(self):
        result = check("thm-main", p=5, n=1, alpha=1, m=1, variant="literal")
        assert not result.passed and result.error is None
        assert result.achieved == AchievedValuation(0)
        assert oracle_sides(result.case)[0] == 55

    def test_p_divides_m_is_errored(self):
        result = check("thm-main", p=3, n=1, alpha=1, m=3)
        assert result.error is not None and not result.passed
        assert result.achieved is None

    def test_modular_path_agrees(self):
        for p, n, alpha, m in ((5, 1, 1, 1), (3, 2, 2, 2), (7, 1, 2, 3)):
            via_oracle = check("thm-main", ORACLE_ONLY, p=p, n=n, alpha=alpha, m=m)
            via_modular = check("thm-main", MODULAR_ONLY, p=p, n=n, alpha=alpha, m=m)
            assert via_oracle.passed and via_modular.passed
            assert via_modular.path == "modular"


class TestTheoremM4:
    def test_anchor_p3(self):
        result = check("thm-m4", p=3, n=1, alpha=1)
        assert result.passed
        assert oracle_sides(result.case) == (Fraction(15, 8), 3)

    def test_anchor_p5(self):
        result = check("thm-m4", p=5, n=1, alpha=1)
        assert result.passed
        assert oracle_sides(result.case)[0] == Fraction(315, 128)
        assert result.achieved == AchievedValuation(2)  # -325/128, 325 = 13*25

    def test_anchor_p7(self):
        result = check("thm-m4", p=7, n=1, alpha=1)
        assert result.passed and result.required_exponent == 2


class TestModPEquations:
    def test_eq_mod_p_anchor(self):
        result = check("eq-mod-p", p=7, m=1)
        assert result.passed
        assert oracle_sides(result.case) == (1275, 1)  # (-3/7) = +1

    def test_eq_mod_p2_anchors(self):
        result = check("eq-mod-p2", p=3, m=5)
        assert result.passed
        assert oracle_sides(result.case) == (Fraction(41, 25), 20)  # -1 + u_4(3,1)

        result = check("eq-mod-p2", p=5, m=1)
        assert result.passed
        assert oracle_sides(result.case) == (99, -1)  # u_6(-1,1) = 0

    def test_symbol_zero_branch(self):
        # p | m-4 makes the symbol vanish; both statements still hold.
        result = check("eq-mod-p", p=3, m=7)
        assert result.passed and oracle_sides(result.case)[1] == 0
        result = check("eq-mod-p2", p=3, m=7)
        assert result.passed and oracle_sides(result.case)[1] == lucas_u(3, 5)

    def test_negative_m(self):
        for m in (-1, -2, -9):
            assert check("eq-mod-p", p=7, m=m).passed
            assert check("eq-mod-p2", p=7, m=m).passed


class TestSunAsd:
    def test_anchor_p3_m5(self):
        result = check("eq-sun-asd", p=3, n=1, alpha=1, m=5)
        assert result.passed
        lhs, rhs = oracle_sides(result.case)
        assert (lhs, rhs) == (Fraction(66, 25), 21)
        # both sides are 3 mod 9
        assert (lhs - rhs) % 9 == 0 or vp(lhs - rhs, 3) >= 2

    def test_vanishing_correction_term(self):
        result = check("eq-sun-asd", p=5, n=1, alpha=1, m=1)
        assert result.passed and oracle_sides(result.case)[1] == 0  # u_6(-1,1) = 0

    def test_higher_alpha(self):
        result = check("eq-sun-asd", p=3, n=2, alpha=2, m=5)
        assert result.passed and result.required_exponent == 3

    def test_series_form_of_the_correction_term(self):
        # The sides read M C(2M-1, M-1) / m^(M-1) off the series as
        # M m sign^M (S_{M+1} - S_M) / 2, M = n p^(alpha-1); the paper's
        # binomial form is the reference.  Odd M on the literal variant
        # fails it if sign^M is dropped.
        cases = [
            CongruenceCase("eq-sun-asd", p=p, m=m, n=n, alpha=a, variant=v)
            for p in (3, 5, 7, 11, 13)
            for m in range(-10, 11)
            if m % p
            for n in (1, 2, 3)
            for a in (1, 2, 3)
            for v in ("corrected", "literal")
        ]
        points = {}
        for c in cases:
            points.setdefault(-c.m if c.variant == "literal" else c.m, set()).update(SUITES[c.suite].points(c))
        sums = s_sums_exact(points)
        for c in cases:
            b = -c.m if c.variant == "literal" else c.m
            M = c.n * c.p ** (c.alpha - 1)
            _, rhs = asdcong.engine._sun_asd(c, lambda N: Fraction(sums[b][N], b ** (N - 1)), lucas_u)
            paper = Fraction(M, c.m ** (M - 1)) * math.comb(2 * M - 1, M - 1) * lucas_u(*asdcong.engine._lucas_term(c))
            assert rhs == paper, c


class TestApery:
    def test_anchor_exact_valuation(self):
        result = check("eq-apery", p=5, n=1, alpha=1)
        assert result.passed
        assert result.achieved == AchievedValuation(3)

    def test_p7(self):
        result = check("eq-apery", p=7, n=1, alpha=1)
        assert result.passed
        diff = sum(math.comb(6, k) ** 2 * math.comb(6 + k, k) ** 2 for k in range(7)) - 1
        assert result.achieved == AchievedValuation(vp(diff, 7))

    def test_alpha2(self):
        result = check("eq-apery", p=5, n=1, alpha=2)
        assert result.passed and result.required_exponent == 6


class TestLemma21:
    def test_part_i_anchor(self):
        result = check("lemma-2-1-i", p=3, n=2, alpha=1, k=3)
        assert result.passed
        assert oracle_sides(result.case) == (20, 2)  # C(6,3) vs C(2,1), diff 18

    def test_part_ii_anchor(self):
        result = check("lemma-2-1-ii", p=3, n=1, alpha=1, k=2)
        assert result.passed
        assert oracle_sides(result.case) == (3, Fraction(-3, 2))  # diff 9/2

    def test_part_iii_anchor(self):
        result = check("lemma-2-1-iii", p=3, n=1, alpha=2, k=4)
        assert result.passed
        assert oracle_sides(result.case) == (70, -2)  # diff 72 = 8 * 9

    def test_boundary_k(self):
        top = check("lemma-2-1-i", p=5, n=2, alpha=1, k=10)
        assert top.passed  # k = p^a n: C(N, N) = 1 vs C(N/p, N/p) = 1
        assert check("lemma-2-1-i", p=5, n=1, alpha=1, k=0).passed


class TestSunTauraso:
    def test_examples(self):
        result = check("lemma-2-2", m=1, n=2)
        assert result.passed and oracle_sides(result.case) == (3, 3)
        result = check("lemma-2-2", m=2, n=1)
        assert result.passed and oracle_sides(result.case) == (1, 1)
        result = check("lemma-2-2", m=-7, n=40)
        assert result.passed and result.achieved == AchievedValuation(INF)

    def test_helpers_match_definitions(self):
        for m in (m for m in range(-10, 11) if m):
            for n in (1, 2, 17, 60):
                direct = m ** (n - 1) * sum(
                    Fraction(math.comb(2 * k, k), m**k) for k in range(n)
                )
                assert s_sums_exact({m: (n,)})[m][n] == direct
                assert type(sun_tauraso_rhs(m, n)) is int
                assert sun_tauraso_rhs(m, n) == sum(
                    math.comb(2 * n, k) * lucas_u(n - k, m - 2)
                    for k in range(n)
                )

    @staticmethod
    def direct_rhs(m, n):
        return sum(math.comb(2 * n, k) * lucas_u(n - k, m - 2) for k in range(n))

    @given(
        st.dictionaries(
            st.one_of(st.sampled_from((1, -1, 2, -2, 3, -10)), st.integers(-12, 12)),
            st.lists(st.integers(0, 45), max_size=6),
            max_size=5,
        )
    )
    def test_table_matches_definition(self, points):
        # One n-major pass serves every base: bases may read the same n or
        # disjoint ones, in any order and more than once, and the prefix u
        # of a periodic (m = 1, 2, 3) or a growing base is extended as n grows.
        table = asdcong.engine.sun_tauraso_table(points)
        assert table == {m: {n: self.direct_rhs(m, n) for n in ns} for m, ns in points.items()}

    def test_table_examples(self):
        points = {1: [5, 1, 5, 3], -1: (2, 4), 2: [7], -2: [1, 1], 3: [30, 6, 2], -10: [9, 40, 9]}
        table = asdcong.engine.sun_tauraso_table(points)
        for m, ns in points.items():
            assert table[m] == {n: self.direct_rhs(m, n) for n in ns}
            assert all(type(value) is int for value in table[m].values())
        assert table[1][1] == table[-2][1] == 1

    def test_sweep_reads_the_table(self, monkeypatch):
        # The sweep compares each lemma-2-2 case with the right side the
        # pass built for it: a wrong value at one (m, n) fails that case
        # alone, and the other cases of a mixed sweep pass.
        real = asdcong.engine.sun_tauraso_table

        def off_by_one(points):
            table = real(points)
            table[2][3] += 1
            return table

        monkeypatch.setattr(asdcong.engine, "sun_tauraso_table", off_by_one)
        lemma = enumerate_cases("lemma-2-2", SweepRanges(m_values=(-3, 1, 2), n_values=(1, 2, 3, 4)))
        series = enumerate_cases("thm-main", SweepRanges(primes=(3, 5), n_values=(1, 2), alpha_values=(1, 2)))
        results = run_cases(lemma + series)
        assert len(results) == len(lemma) + len(series) and len(lemma) == 12
        failed = [r for r in results if not r.passed]
        assert [r.case for r in failed] == [CongruenceCase("lemma-2-2", m=2, n=3)]
        assert failed[0].achieved == AchievedValuation(0) and failed[0].error is None


class TestLemma23:
    def test_anchor(self):
        result = check("lemma-2-3", m=2, p=3, alpha=2, s=1)
        assert result.passed
        assert oracle_sides(result.case) == (Fraction(7, 2), Fraction(1, 2))
        assert result.achieved == AchievedValuation(1)

    def test_alpha_equals_s(self):
        result = check("lemma-2-3", m=7, p=5, alpha=2, s=2)
        assert result.passed and result.achieved == AchievedValuation(INF)

    def test_deeper_case(self):
        result = check("lemma-2-3", m=3, p=5, alpha=3, s=2)
        assert result.passed and result.required_exponent == 2

    def test_p_divides_m(self):
        result = check("lemma-2-3", m=3, p=3, alpha=2, s=1)
        assert result.error is not None

    def test_factor_values(self):
        assert fermat_quotient_factor(2, 3, 1) == Fraction(3, 6)
        assert fermat_quotient_factor(2, 3, 2) == Fraction(63, 18)
        assert fermat_quotient_factor(1, 7, 3) == 0


class TestLemma24:
    def test_anchor_two_term_sum(self):
        result = check("lemma-2-4", m=2, p=3, n=1, l=0, alpha=1, s=1)
        assert result.passed
        assert oracle_sides(result.case) == (Fraction(1, 2), Fraction(1, 2))

    def test_m1_symbol_kills_rhs(self):
        result = check("lemma-2-4", m=1, p=5, n=1, l=0, alpha=1, s=1)
        assert result.passed
        assert oracle_sides(result.case) == (Fraction(-5, 12), 0)
        assert result.achieved == AchievedValuation(1)

    def test_wider_block(self):
        result = check("lemma-2-4", m=3, p=5, n=2, l=1, alpha=2, s=2)
        assert result.passed and result.required_exponent == 2

    def test_p_divides_m(self):
        result = check("lemma-2-4", m=3, p=3, n=1, l=0, alpha=1, s=1)
        assert result.error is not None

    def test_block_sum_matches_definition(self):
        for p in (3, 5, 7):
            for m in (1, 2, 3):
                if m % p == 0:
                    continue
                for alpha, s in ((1, 1), (2, 1), (2, 2)):
                    for l in (0, 1, 2 * p):
                        for n in (1, 2):
                            direct = sum(
                                Fraction((-1) ** k * lucas_u(p**alpha * n - k, m - 2), k)
                                for k in range(l * p**s, (l + 1) * p**s)
                                if k % p
                            )
                            case = CongruenceCase("lemma-2-4", m=m, p=p, n=n, l=l, alpha=alpha, s=s)
                            assert oracle_sides(case)[0] == direct

    def test_shared_weights_match_per_term_sum(self):
        # Every s <= alpha and l <= 2p: 7070 cases, many on the same block.
        ranges = SweepRanges(primes=(3, 5, 7, 11, 13), n_values=(1, 2, 3, 4), alpha_values=(1, 2, 3, 4))
        cases = enumerate_cases("lemma-2-4", ranges, max_index=20_000)
        assert len(cases) == 7070
        blocks = {}
        negative = 0
        for case in cases:
            p, s, l, top = case.p, case.s, case.l, case.n * case.p**case.alpha
            if (p, s, l) not in blocks:
                ks = [k for k in range(l * p**s, (l + 1) * p**s) if k % p]
                blocks[p, s, l] = ks, math.lcm(*ks)
            ks, common = blocks[p, s, l]
            negative += ks[-1] > top
            direct = Fraction(sum((-1) ** k * lucas_u(top - k, case.m - 2) * (common // k) for k in ks), common)
            assert asdcong.engine._lemma_2_4_sides(case, None, lucas_u)[0] == direct, case
        assert negative > 1000  # blocks reaching past N, where the Lucas index is negative


class TestLemma25:
    def test_zero_sequence_is_trivial(self):
        seq = {k: 0 for k in range(9)}
        total = sum(a * math.comb(17, k) * (-1) ** k for k, a in seq.items())
        assert total == 0

    def test_exhaustive_alpha1_p3(self):
        # Every residue block (a0, a1, a2) with a0+a1+a2 = 0 mod 3 satisfies
        # the weighted conclusion mod 3.
        for a0 in range(3):
            for a1 in range(3):
                a2 = (-a0 - a1) % 3
                for mm in (1, 2, 3):
                    for nn in (1, 2):
                        total = sum(
                            a * math.comb(3 * mm * nn - 1, k) * (-1) ** k
                            for k, a in enumerate((a0, a1, a2))
                        )
                        assert total % 3 == 0

    def test_synthesizer_establishes_hypothesis(self):
        rng = random.Random(1)
        for p, alpha, l in ((3, 2, 0), (5, 2, 1), (3, 3, 2)):
            seq = synthesize_block_sequence(p, alpha, l, rng)
            lo = l * p**alpha
            assert sorted(seq) == list(range(lo, lo + p**alpha))
            for s in range(1, alpha + 1):
                for b0 in range(lo, lo + p**alpha, p**s):
                    block = sum(seq[k] for k in range(b0, b0 + p**s))
                    assert block % p**s == 0

    def test_trials_pass(self):
        for p, alpha in ((3, 1), (3, 2), (5, 2)):
            ranges = SweepRanges(primes=(p,), alpha_values=(alpha,), trials=25)
            report = run_suite("lemma-2-5", ranges, settings=EngineSettings(seed=42))
            assert report.meta["invocation"]["seed"] == 42
            results = report.results
            assert len(results) == 25
            assert all(r.passed for r in results)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**64),
        p=st.sampled_from([3, 5, 7]),
        alpha=st.integers(1, 3),
        l=st.integers(0, 3),
        trial=st.integers(0, 200),
    )
    @example(seed=0, p=3, alpha=1, l=3, trial=0)
    def test_matches_definition(self, seed, p, alpha, l, trial):
        # The same sequence from the same Random string, and all six weighted
        # sums from math.comb.  From l = 1 on, the rows with m' n' <= l start
        # past their top, where every weight is 0.
        seq = synthesize_block_sequence(p, alpha, l, random.Random(f"{seed}:{p}:{alpha}:{l}:{trial}"))
        worst = min(
            vp(sum(value * (-1) ** k * math.comb(mm * p**alpha * nn - 1, k) for k, value in seq.items()), p)
            for mm in (1, 2, 3)
            for nn in (1, 2)
        )
        case = CongruenceCase("lemma-2-5", p=p, alpha=alpha, l=l, trial=trial)
        assert run_cases([case], EngineSettings(seed=seed)) == [CaseResult(case, alpha, AchievedValuation(worst))]

    def test_seed_determinism(self):
        ranges = SweepRanges(primes=(3,), alpha_values=(2,), trials=5)
        a, b = (run_suite("lemma-2-5", ranges, settings=EngineSettings(seed=9)).results for _ in range(2))
        assert [r.achieved for r in a] == [r.achieved for r in b]


class TestDualPath:
    def test_crosscheck_runs_both(self):
        result = check("thm-main", p=5, n=1, alpha=1, m=1)
        assert result.path == "both"

    def test_path_for_cutoffs(self):
        # Up to the crosscheck cutoff a series case takes both paths, even
        # above the oracle cutoff; between the two, the oracle alone; above
        # both, the modular path alone.
        no_oracle = EngineSettings(oracle_cutoff=0)
        assert [no_oracle.path_for(i) for i in (3, 1500, 1501)] == ["both", "both", "modular"]
        assert [DEFAULT_SETTINGS.path_for(i) for i in (1500, 1501, 3000, 3001)] == ["both", "oracle", "oracle", "modular"]
        assert check("thm-main", no_oracle, p=3, m=1, n=1, alpha=6).path == "both"  # index 729

    def test_only_series_suites_take_the_modular_path(self):
        # A series suite has points and no evaluate; every other suite takes
        # the oracle path whatever the cutoffs.
        default = run_suite("all", settings=EngineSettings()).results
        reports = {v: run_suite("all", variant=v, settings=MODULAR_ONLY) for v in ("corrected", "literal")}
        modular = reports["corrected"].results
        assert [r.case for r in default] == [r.case for r in modular]
        for a, b in zip(default, modular):
            assert (a.passed, a.error) == (b.passed, b.error)
            suite = SUITES[a.case.suite]
            if suite.points is None or suite.evaluate is not None:
                assert a.path == b.path == "oracle"
                assert a.achieved == b.achieved
            elif b.error is None:
                assert b.path == "modular"
        # These bytes pin the ">=E" and exact valuations of every series case
        # on the modular path alone.
        digests = {
            "corrected": "73834001dec160aa47d6e90430bcb91e78e8bd94097f0c9e0e3e1682358af984",
            "literal": "c4634766baf040f898f286165c54b339e6cbb406ff1f1f5e16b9253cfcfe15a7",
        }
        for variant, report in reports.items():
            assert hashlib.sha256(report.to_json_text().encode("utf-8")).hexdigest() == digests[variant], variant

    def test_modular_matches_oracle_sample(self):
        rng = random.Random(77)
        primes = [3, 5, 7, 11, 13, 17, 19, 23]
        for _ in range(60):
            p = rng.choice(primes)
            m = rng.choice([1, 2, 3])
            if m % p == 0:
                continue
            alpha = rng.choice([1, 2])
            n = rng.randrange(1, max(2, 1400 // p**alpha) + 1)
            oracle = check("thm-main", ORACLE_ONLY, p=p, n=n, alpha=alpha, m=m)
            modular = check("thm-main", MODULAR_ONLY, p=p, n=n, alpha=alpha, m=m)
            assert oracle.passed == modular.passed
            if modular.achieved.exact:
                assert oracle.achieved == modular.achieved
            else:
                assert oracle.achieved.exact and oracle.achieved.value >= modular.achieved.value


def per_case_modular_valuation(case):
    """The modular verdict from streams of the case's own, at its own precision."""
    p, n, a = case.p, case.n, case.alpha
    m = 4 if case.suite == "thm-m4" else case.m
    b = -m if case.variant == "literal" else m
    sym = legendre(m * (m - 4), p)
    hi, lo = n * p**a, n * p ** (a - 1)
    required = a + 1 if case.suite == "eq-sun-asd" else 2 * a
    ctx = PadicCtx(p, required_guard(hi, required, p))
    factor = p if case.suite == "thm-m4" else sym
    diff = s_sum_mod(hi, b, ctx) - factor * s_sum_mod(lo, b, ctx)
    if case.suite == "eq-sun-asd":
        rhs = Fraction(lo, m ** (lo - 1)) * math.comb(2 * lo - 1, lo - 1) * lucas_u(p - sym, m - 2)
        diff -= from_rational(rhs, ctx)
    diff %= ctx.modulus
    if diff == 0:
        return AchievedValuation(ctx.prec, exact=False)
    return AchievedValuation(vp_int(diff, p))


def brute_force_cases(suite, ranges=None, variant="corrected", max_index=None):
    """`enumerate_cases` the slow way: every combination of candidate values,
    in the grids' order, that the validating constructor accepts, with p not
    dividing m and the index within the cap."""
    record = SUITES[suite]
    overrides = {} if ranges is None else {k: v for k, v in ranges._asdict().items() if v is not None}
    r = record.defaults._replace(**overrides)
    cap = record.cap if max_index is None else max_index
    candidates = {
        "p": lambda c: r.primes,
        "m": lambda c: r.m_values,
        "n": lambda c: r.n_values,
        "alpha": lambda c: r.alpha_values,
        "s": lambda c: range(1, c["alpha"] + 1) if r.s_values is None else r.s_values,
        "l": lambda c: range(2 * c["p"] + 1) if r.l_values is None else r.l_values,
        # The index n p^alpha is at least k, so no k above the cap passes.
        "k": lambda c: range(min(c["n"] * c["p"] ** c["alpha"], cap) + 1),
        "trial": lambda c: range(r.trials),
        "variant": lambda c: (variant,),
    }

    def combinations(i, chosen):
        if i == len(record.fields):
            yield dict(chosen)
            return
        for value in candidates[record.fields[i]](chosen):
            chosen[record.fields[i]] = value
            yield from combinations(i + 1, chosen)

    found = []
    for params in combinations(0, {}):
        try:
            case = CongruenceCase(suite, **params)
        except ValueError:
            continue
        m = record.m if case.m is None else case.m
        if case.p is not None and m is not None and m % case.p == 0:
            continue
        if record.index(case) <= cap:
            found.append(case)
    return found


# Small grids: primes and m with the values every suite skips (non-primes,
# even 2, m = 0 and multiples of p), and caps that cut inside the grids.
SMALL_GRIDS = st.builds(
    SweepRanges,
    primes=st.none() | st.lists(st.integers(1, 60) | st.sampled_from([3, 5, 7]), min_size=1, max_size=5).map(tuple),
    m_values=st.none() | st.lists(st.integers(-12, 12) | st.sampled_from([1, 2, 3]), min_size=1, max_size=4).map(tuple),
    n_values=st.none() | st.lists(st.integers(1, 3), max_size=2).map(tuple),
    alpha_values=st.none() | st.lists(st.integers(1, 3), max_size=2).map(tuple),
    s_values=st.none() | st.lists(st.integers(-1, 4), max_size=3).map(tuple),
    l_values=st.none() | st.lists(st.integers(0, 6), max_size=3).map(tuple),
    trials=st.none() | st.integers(0, 3),
)


class TestEnumeration:
    """`enumerate_cases` checks each grid value and each combination once and
    builds cases without the constructor: they must be the cases the
    constructor would build, and every case it would accept."""

    @pytest.mark.parametrize("variant", ["corrected", "literal"])
    def test_default_grids(self, variant):
        for suite, record in SUITES.items():
            cases = enumerate_cases(suite, variant=variant)
            assert cases and all(type(case) is CongruenceCase for case in cases)
            assert cases == [CongruenceCase(*case) for case in cases] == brute_force_cases(suite, variant=variant)
            # The walk filters m by p, so p must be set first.
            if {"p", "m"} <= set(record.fields):
                assert record.fields.index("p") < record.fields.index("m")

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(sorted(SUITES)),
        SMALL_GRIDS,
        st.sampled_from(["corrected", "literal"]),
        st.integers(0, 600),
    )
    def test_small_grids(self, suite, ranges, variant, max_index):
        cases = enumerate_cases(suite, ranges, variant, max_index)
        assert all(type(case) is CongruenceCase for case in cases)
        assert cases == [CongruenceCase(*case) for case in cases]
        assert cases == brute_force_cases(suite, ranges, variant, max_index)

    @pytest.mark.parametrize(
        ("suite", "ranges", "variant", "message"),
        [
            ("thm-nonsense", None, "corrected", "unknown suite 'thm-nonsense'"),
            ("thm-main", SweepRanges(n_values=(0,)), "corrected", "n must be >= 1, got 0"),
            ("thm-main", SweepRanges(alpha_values=(0, 1)), "corrected", "alpha must be >= 1, got 0"),
            ("lemma-2-4", SweepRanges(l_values=(-1,)), "corrected", "l must be >= 0, got -1"),
            ("thm-main", None, "bogus", "unknown variant 'bogus'"),
            # A grid is checked when the walk first reaches it, even if the
            # rule would drop every combination: s runs over 1..alpha.
            ("lemma-2-3", SweepRanges(alpha_values=(0,)), "corrected", "alpha must be >= 1, got 0"),
        ],
    )
    def test_grid_errors(self, suite, ranges, variant, message):
        with pytest.raises(ValueError) as raised:
            enumerate_cases(suite, ranges, variant)
        assert str(raised.value) == message

    def test_unreached_grids_are_not_checked(self):
        # No prime, or no m that p leaves, so the walk never reaches n or the variant.
        assert enumerate_cases("thm-main", SweepRanges(primes=(), n_values=(0,))) == []
        assert enumerate_cases("thm-main", SweepRanges(primes=(3,), m_values=(3, 0)), "bogus") == []
        # The variant is no field of lemma-2-2.
        assert len(enumerate_cases("lemma-2-2", variant="bogus")) == 2000


class TestSweeps:
    def test_enumeration_filters(self):
        cases = enumerate_cases("thm-main")
        keys = {(c.p, c.m, c.n, c.alpha) for c in cases}
        assert (3, 3, 1, 1) not in keys  # p | m skipped
        assert (5, 1, 3, 3) in keys
        assert all(c.n * c.p**c.alpha <= 10_000 for c in cases)

        capped = enumerate_cases("thm-main", max_index=100)
        assert capped and all(c.n * c.p**c.alpha <= 100 for c in capped)

    def test_default_case_counts(self):
        counts = {suite: len(enumerate_cases(suite)) for suite in SUITES}
        assert counts == {
            "thm-main": 126,
            "thm-m4": 45,
            "eq-apery": 11,
            "eq-mod-p": 88,
            "eq-mod-p2": 88,
            "eq-sun-asd": 352,
            "lemma-2-1-i": 66,
            "lemma-2-1-ii": 240,
            "lemma-2-1-iii": 306,
            "lemma-2-2": 2000,
            "lemma-2-3": 90,
            "lemma-2-4": 1104,
            "lemma-2-5": 400,
        }
        assert sum(counts.values()) == 4916

    def test_lemma_2_4_default_l_range(self):
        cases = enumerate_cases(
            "lemma-2-4", SweepRanges(primes=(3,), alpha_values=(1,), n_values=(1,))
        )
        assert {c.l for c in cases} == set(range(7))  # 0..2p

    def test_empty_ranges(self):
        report = run_suite("thm-main", SweepRanges(primes=()))
        counts = report.counts()
        assert counts == {"total": 0, "passed": 0, "failed": 0, "errored": 0}

    def test_small_sweep_all_pass(self):
        ranges = SweepRanges(primes=(3, 5, 7, 11, 13), n_values=(1, 2), alpha_values=(1, 2))
        report = run_suite("thm-main", ranges)
        counts = report.counts()
        assert counts["failed"] == 0 and counts["errored"] == 0
        assert counts["total"] > 0

    def test_literal_sweep_records_failures(self):
        ranges = SweepRanges(primes=(5,), m_values=(1,), n_values=(1,), alpha_values=(1,))
        report = run_suite("thm-main", ranges, variant="literal")
        assert report.counts()["failed"] == 1

    def test_monotone_in_alpha(self):
        ranges = SweepRanges(primes=(3, 5, 7), n_values=(1, 2), alpha_values=(1, 2, 3))
        report = run_suite("thm-main", ranges)
        by_key = {}
        for r in report.results:
            c = r.case
            by_key[(c.p, c.m, c.n, c.alpha)] = r.passed
        for (p, m, n, alpha), passed in by_key.items():
            if passed and alpha > 1 and (p, m, n, alpha - 1) in by_key:
                assert by_key[(p, m, n, alpha - 1)]

    def test_default_report_digest(self, pool):
        # The default report is the one every user runs; its bytes are part
        # of the contract.  At jobs=2 the streams, then the cases that read
        # no series sums, run on two workers while this process walks and
        # evaluates the series cases.
        for jobs in (1, 2):
            pool.clear()
            digest = hashlib.sha256(run_suite("all", jobs=jobs).to_json_text().encode("utf-8")).hexdigest()
            assert digest == "ba4a41bc9c916b2ff120c06538b56ec7be9767a5b6c2088c4520c60df4213d3b", (
                f"the default report's bytes changed at jobs={jobs}; a report change must be "
                "deliberate, noted in CHANGES.md, and this digest updated with it"
            )
            assert pool == [jobs, jobs]

    def test_literal_report_digest(self):
        # The literal variant fails 659 cases, so this report holds the
        # failing entries and negative and infinite margins the default lacks.
        for jobs in (1, 2):
            report = run_suite("all", variant="literal", jobs=jobs)
            digest = hashlib.sha256(report.to_json_text().encode("utf-8")).hexdigest()
            assert digest == "c5b20219550924a98ba4bd21c74868ba605b241bee480252c655b25c734f5761", (
                f"the literal report's bytes changed at jobs={jobs}; a report change must be "
                "deliberate, noted in CHANGES.md, and this digest updated with it"
            )

    def test_modular_deep_report_digest(self):
        # thm-main at p = 3 out to alpha = 10 on the modular path alone: one
        # stream at up to 33 digits, walked in blocks of 3^L terms with
        # L >= 1 (see test_stream_levels).  No other digest pins such a walk.
        ranges = SweepRanges(primes=(3,), m_values=(1, 2), n_values=(1, 2, 3), alpha_values=tuple(range(1, 11)))
        report = run_suite("thm-main", ranges, max_index=200_000, settings=MODULAR_ONLY)
        digest = hashlib.sha256(report.to_json_text().encode("utf-8")).hexdigest()
        assert digest == "17bd0439a755b59dbbab8e1fdaba918606befb15ca8295cd6227090d31c37fc1"

    def test_parallel_determinism(self, pool):
        ranges = SweepRanges(primes=(3, 5), n_values=(1, 2), alpha_values=(1, 2))
        sequential = run_suite("thm-main", ranges, jobs=1)
        parallel = run_suite("thm-main", ranges, jobs=3)
        assert pool == [1, 1, 2, 1]
        assert sequential.to_json_text() == parallel.to_json_text()

    def test_results_round_trip_through_pickle(self):
        # Forked workers send their results back pickled: every suite's
        # result comes back equal and of the same types.
        ranges = SweepRanges(primes=(3, 5), m_values=(1, 3), n_values=(1,), alpha_values=(1,), trials=1)
        report = run_suite("all", ranges, max_index=30)
        one_each = {result.case.suite: result for result in report.results}
        assert set(one_each) == set(SUITES)
        for result in one_each.values():
            back = pickle.loads(pickle.dumps(result))
            assert back == result
            assert [type(x) for x in (back, back.case, back.achieved)] == [CaseResult, CongruenceCase, AchievedValuation]

    def test_report_shape(self):
        report = run_suite("eq-apery", SweepRanges(primes=(5,), n_values=(1,), alpha_values=(1,)))
        doc = report.to_json_dict()
        assert set(doc) == {"meta", "cases", "summary"}
        entry = doc["cases"][0]
        assert set(entry) == {
            "suite",
            "params",
            "required_exponent",
            "achieved_valuation",
            "pass",
            "error",
        }
        assert doc["summary"]["min_margin_by_suite"]["eq-apery"] == 0  # exactly 3 vs 3

    def test_pool_size(self, monkeypatch):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        assert pool_size(1, 100) == 1
        assert pool_size(10**6, 100) == min(cpus, 100)
        assert pool_size(10**6, 1) == 1
        assert pool_size(2, 0) == 1
        assert pool_size(0, 100) == pool_size(-5, 100) == 1
        # Pinned to one CPU (taskset -c 0), a process gets one worker.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert pool_size(8, 100) == 1
        # Workers are forked: without fork, or beside another thread, there
        # is only this process.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert pool_size(8, 100) == 2
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(60,))
        thread.start()
        try:
            assert pool_size(8, 100) == 1
        finally:
            release.set()
            thread.join(60)
        assert not thread.is_alive()
        assert pool_size(8, 100) == 2
        monkeypatch.delattr(os, "fork", raising=False)
        assert pool_size(8, 100) == 1

    def test_serial_sweep_starts_nothing(self, monkeypatch):
        # At jobs=1 neither pool_size nor a sweep reads the affinity mask or
        # forks: a sweep of one case pays for neither.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: pytest.fail("affinity looked up"), raising=False)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"), raising=False)
        assert pool_size(1, 100) == 1
        cases = enumerate_cases("eq-mod-p", SweepRanges(primes=(5, 7), m_values=(1,))) + enumerate_cases("lemma-2-3")
        assert all(r.passed for r in run_cases(cases, jobs=1))
        assert run_cases(cases[:1])[0].passed

    def test_pool(self, monkeypatch):
        # Every worker, this process and the forked ones, takes calls while
        # they last, and the results come back in the calls' order.
        me = os.getpid()

        def pid_after(k):
            time.sleep(0.005)
            return k, os.getpid()

        calls = [partial(pid_after, k) for k in range(40)]
        forked, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forked.append(fork()) or forked[-1])
        for workers in (1, 2, 3):
            forked.clear()
            with asdcong.engine._pool(calls, workers) as gathered:
                results = gathered()
            assert [k for k, _ in results] == list(range(40))
            assert len(forked) == workers - 1
            assert {pid for _, pid in results} == {me, *forked}
            for pid in forked:  # reaped
                with pytest.raises(ChildProcessError):
                    os.waitpid(pid, os.WNOHANG)

        # A forked worker's exception is raised here, and a worker that ends
        # without sending its results is an error too.
        def elsewhere(action):
            if os.getpid() != me:
                action()
            time.sleep(0.005)

        def disagree():
            raise EngineSelfCheckError("in a worker")

        with pytest.raises(EngineSelfCheckError, match="in a worker"):
            with asdcong.engine._pool([partial(elsewhere, disagree)] * 20, 2) as gathered:
                gathered()
        with pytest.raises(ChildProcessError):
            with asdcong.engine._pool([partial(elsewhere, partial(os._exit, 0))] * 20, 2) as gathered:
                gathered()

        # More workers than CPUs share out more numbers than a pipe holds at
        # once (64 KiB on Linux): every result lands in its place, so no
        # number was lost or torn.
        start = time.perf_counter()
        with asdcong.engine._pool([partial(int, k) for k in range(20_000)], 4) as gathered:
            assert gathered() == list(range(20_000))
        assert time.perf_counter() - start < 30

        # An exception here stops the forked workers at once.
        start = time.perf_counter()
        with pytest.raises(KeyError):
            with asdcong.engine._pool([partial(time.sleep, 60)] * 2, 2):
                raise KeyError
        assert time.perf_counter() - start < 30

    def test_shared_streams(self, pool):
        # Cases of one (p, m, variant) at different working precisions share
        # one stream; each must see what a stream of its own would give.
        cases = [
            CongruenceCase("thm-main", p=3, m=m, n=n, alpha=a, variant="corrected")
            for m in (1, 2)
            for n in (1, 2, 3)
            for a in range(1, 6)
        ]
        cases += [
            CongruenceCase("thm-m4", p=p, n=n, alpha=a, variant=variant)
            for p in (3, 5)
            for n in (1, 2)
            for a in (1, 2, 3)
            for variant in ("corrected", "literal")
        ]
        cases += [
            CongruenceCase("eq-sun-asd", p=3, m=m, n=n, alpha=a, variant=variant)
            for m in (-4, 1, 2, 4)
            for n in (1, 2)
            for a in (1, 2)
            for variant in ("corrected", "literal")
        ]

        def precision(c):
            required = c.alpha + 1 if c.suite == "eq-sun-asd" else 2 * c.alpha
            return required_guard(c.n * c.p**c.alpha, required, c.p)

        precs = {}
        for c in cases:
            precs.setdefault((c.p, c.m, c.variant), set()).add(precision(c))
        assert len(precs[(3, 1, "corrected")]) > 1

        serial, parallel = (run_cases(cases, MODULAR_ONLY, jobs) for jobs in (1, 2))
        assert pool == [1, 1, 2, 1]
        assert Report.from_results({}, serial).to_json_text() == Report.from_results({}, parallel).to_json_text()
        for result in serial:
            assert result.path == "modular"
            assert result.achieved == per_case_modular_valuation(result.case)
            alone = run_cases([result.case], MODULAR_ONLY)[0]
            assert alone.achieved == result.achieved, result.case

    def test_stream_plan(self):
        # One stream per prime, at the prime's highest working precision.
        wide = enumerate_cases("thm-main", SweepRanges(primes=tuple(range(3, 51))), max_index=100_000)
        streams = asdcong.engine._plan(wide, DEFAULT_SETTINGS)[0]
        assert sorted(p for p, _, _ in streams) == [p for p in range(3, 48, 2) if is_prime(p)]
        assert len(streams) == 14
        totals = [sum(ns[-1] for ns in by_base.values()) for _, _, by_base in streams]
        assert totals == sorted(totals, reverse=True)

        ranges = SweepRanges(primes=(3,), m_values=(1, 2), n_values=(1, 2, 3), alpha_values=tuple(range(1, 11)))
        deep = enumerate_cases("thm-main", ranges, max_index=200_000)
        ((p, prec, by_base),) = asdcong.engine._plan(deep, MODULAR_ONLY)[0]
        assert (p, set(by_base)) == (3, {1, 2})
        assert prec == max(required_guard(c.n * 3**c.alpha, 2 * c.alpha, 3) for c in deep)
        reads = {c.n * 3**a for c in deep for a in (c.alpha, c.alpha - 1)}
        assert by_base[1] == by_base[2] == tuple(sorted(reads))

        # (m, literal) and (-m, corrected) are one base reading both cases' points.
        cases = [
            CongruenceCase("eq-sun-asd", p=5, m=2, n=1, alpha=1, variant="literal"),
            CongruenceCase("eq-sun-asd", p=5, m=-2, n=2, alpha=1, variant="corrected"),
        ]
        assert asdcong.engine._plan(cases, MODULAR_ONLY)[0] == [(5, 5, {-2: (1, 2, 3, 5, 10)})]

    def test_stream_levels(self):
        # The default sweep's streams are short and dense: they stay at level
        # 0, the plain walk, but for p = 13's, whose 20 bases read out to
        # 6591 in blocks of 13^2 terms.  modular-deep's reads 23 points out
        # to 3^11 and walks blocks of 3^6 terms.  scan-wide's 14 streams walk
        # plainly up to p = 5, in blocks of p^2 terms from p = 7 to 43, and
        # in blocks of p terms at 47.  README and the CI step titles name the
        # levels of the deep runs, CI's eq-sun-asd grid and eq-mod-p.
        def levels(cases, settings=DEFAULT_SETTINGS):
            streams = asdcong.engine._plan(cases, settings)[0]
            return {p: _level(p, prec, {m: list(ns) for m, ns in by_base.items()}) for p, prec, by_base in streams}

        default = [case for suite, record in SUITES.items() if record.points for case in enumerate_cases(suite)]
        assert levels(default) == {3: 0, 5: 0, 7: 0, 11: 0, 13: 2}
        ranges = SweepRanges(primes=(3,), m_values=(1, 2), n_values=(1, 2, 3), alpha_values=tuple(range(1, 11)))
        assert levels(enumerate_cases("thm-main", ranges, max_index=200_000), MODULAR_ONLY) == {3: 6}
        wide = enumerate_cases("thm-main", SweepRanges(primes=tuple(range(3, 51))), max_index=100_000)
        assert levels(wide) == {p: 0 if p <= 5 else 1 if p == 47 else 2 for p in range(3, 48, 2) if is_prime(p)}
        ranges = SweepRanges(primes=tuple(range(3, 61)), m_values=(1, 2, 3, 5), n_values=(1, 2), alpha_values=tuple(range(1, 7)))
        sun = levels(enumerate_cases("eq-sun-asd", ranges, max_index=2_000_000), EngineSettings(3000, 3000))
        assert sun == {p: 4 if p <= 11 else 3 if p <= 37 else 2 for p in range(3, 60, 2) if is_prime(p)}
        for alpha, level, max_index in ((30, 26, 10**15), (80, 76, 10**40)):
            ranges = SweepRanges(primes=(3,), m_values=(1, 2), n_values=(1, 2), alpha_values=(alpha,))
            assert levels(enumerate_cases("thm-main", ranges, max_index=max_index), MODULAR_ONLY) == {3: level}
        mod_p = levels(enumerate_cases("eq-mod-p", SweepRanges(primes=tuple(range(3, 10_001)), m_values=(1,))))
        assert len(mod_p) == 1037 and set(mod_p.values()) == {0}

    def test_shared_sums_match_lone_cases(self, monkeypatch, pool):
        # run_cases reads every S_N from one stream per prime and one exact
        # walk per signed base; a lone case is a sweep of one.  Both must
        # give the same verdicts, serially and on a pool, and a sweep plans
        # its reading cases and walks once.
        walks, planned = [], []
        walk, plan = asdcong.engine.s_sums_exact, asdcong.engine._plan
        monkeypatch.setattr(asdcong.engine, "s_sums_exact", lambda points: walks.append(points) or walk(points))
        monkeypatch.setattr(asdcong.engine, "_plan", lambda cases, settings: planned.append(cases) or plan(cases, settings))
        # lemma-2-2 reads exact walks only: no stream, so no work for a pool.
        grids = [
            (enumerate_cases("thm-main", SweepRanges(primes=tuple(range(3, 51))), max_index=100_000), 2),
            (enumerate_cases("lemma-2-2"), 1),
            (enumerate_cases("eq-sun-asd") + enumerate_cases("eq-sun-asd", variant="literal"), 2),
        ]
        for cases, workers in grids:
            lone = sorted((run_cases([c])[0] for c in cases), key=lambda r: r.case.sort_key())
            for jobs in (1, 2):
                walks.clear()
                planned.clear()
                pool.clear()
                shared = run_cases(cases, jobs=jobs)
                assert pool == [1 if jobs == 1 else workers, 1]
                assert len(walks) == len(planned) == 1
                assert sorted(planned[0], key=CongruenceCase.sort_key) == sorted(cases, key=CongruenceCase.sort_key)
                assert [r.case for r in shared] == [r.case for r in lone]
                for a, b in zip(shared, lone):
                    assert (a.achieved, a.passed, a.path) == (b.achieved, b.passed, b.path), a.case

    def test_p_divides_m_inside_a_sweep(self, pool):
        # The enumerator skips p | m, so these cases are built by hand: each
        # must come back errored from a sweep that also streams and walks
        # valid cases at the same primes, and every result must equal a sweep
        # of its case alone.
        def series(suite, p, m, **params):
            return [CongruenceCase(suite, p=p, m=m, variant=v, **params) for v in ("corrected", "literal")]

        divided = [
            *series("thm-main", 3, 3, n=1, alpha=2),
            *series("eq-sun-asd", 5, 5, n=1, alpha=1),
            *series("eq-sun-asd", 5, -10, n=2, alpha=1),
            *series("eq-mod-p2", 5, 10),
            CongruenceCase("lemma-2-4", p=3, m=3, n=1, alpha=2, s=1, l=0),
        ]
        valid = [
            *series("thm-main", 3, 1, n=1, alpha=2),
            *series("thm-main", 3, 2, n=2, alpha=3),
            *series("eq-sun-asd", 5, 2, n=1, alpha=1),
            *series("eq-sun-asd", 5, -3, n=2, alpha=1),
            *series("eq-mod-p2", 5, 2),
            CongruenceCase("lemma-2-4", p=3, m=1, n=1, alpha=2, s=1, l=0),
        ]
        for settings in (DEFAULT_SETTINGS, MODULAR_ONLY):
            lone = {c: run_cases([c], settings)[0] for c in divided + valid}
            for jobs in (1, 2):
                pool.clear()
                results = run_cases(divided + valid, settings, jobs)
                assert pool == [jobs, jobs]
                assert [r.case for r in results if r.error] == sorted(divided, key=CongruenceCase.sort_key)
                for r in results:
                    alone = lone[r.case]
                    assert (r.achieved, r.error) == (alone.achieved, alone.error)

    def test_prime_cap_before_primality(self, monkeypatch):
        # Every suite's index is at least p, so candidates above the cap give
        # no case and are dropped before the primality test.
        tested = []
        monkeypatch.setattr(asdcong.engine, "is_prime", lambda n: tested.append(n) or is_prime(n))
        listed = (3, 4, 5, 7, 11, 13)
        for suite, record in SUITES.items():
            if "p" not in record.fields:
                continue
            capped = enumerate_cases(suite, SweepRanges(primes=listed + (61, 67, 10**6 + 3)), max_index=60)
            assert capped and capped == enumerate_cases(suite, SweepRanges(primes=listed), max_index=60)
        assert tested and max(tested) <= 60

    def test_span_sweeps_as_its_list(self):
        # A range is cut at the cap before it is walked, so a span of 10^15
        # candidates costs what its first fifty do.
        cases = enumerate_cases("thm-main", SweepRanges(primes=range(1, 10**15)), max_index=50)
        assert cases and cases == enumerate_cases("thm-main", SweepRanges(primes=tuple(range(1, 51))), max_index=50)

    def test_sorting_stability(self):
        cases = enumerate_cases("eq-mod-p", SweepRanges(primes=(5, 3), m_values=(2, -2, 1)))
        results = run_cases(cases)
        ordering = [(r.case.p, r.case.m) for r in results]
        assert ordering == sorted(ordering)
