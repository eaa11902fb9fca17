import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asdcong.engine import SUITES, AchievedValuation, CaseResult, CongruenceCase, SweepRanges, enumerate_cases, run_cases
from asdcong.exactcore import INF
from asdcong.report import Report


class StubCase(tuple):
    """A case whose parameters need not pass CongruenceCase's validation: the
    tuple (suite, *values), its params in the order given."""

    def __new__(cls, suite: str, params: dict) -> "StubCase":
        self = super().__new__(cls, (suite, *params.values()))
        self.param_slots = tuple((name, at) for at, name in enumerate(params, 1))
        return self

    @property
    def suite(self) -> str:
        return self[0]

    def params_dict(self) -> dict:
        return {name: self[at] for name, at in self.param_slots}


# Strings a hand-written encoder gets wrong first: quotes, backslashes,
# control characters, characters outside ASCII, and the marks of format
# strings, which reach an entry's template as suite names and params keys.
AWKWARD = st.sampled_from(
    ['say "no"', "a\\b", "line\nbreak\ttab", "p = 3 ∤ m: ∞ ≠ 0", "\x00\x1f", "😀", "100%", "%s %(p)d %%", "{", "}", "{0} {p}}{"]
)
STRINGS = st.one_of(st.text(max_size=12), AWKWARD)
# Both sides of 2^63, where an int becomes a decimal string.
INTS = st.one_of(
    st.integers(-1000, 1000),
    st.integers(-(2**64), 2**64),
    st.sampled_from([2**63 - 1, 2**63, -(2**63) + 1, -(2**63), 10**40, -(10**40)]),
)
# Floats follow _json_safe: infinities become strings, integral ones ints.
FLOATS = st.one_of(st.floats(), st.sampled_from([INF, -INF, math.nan, -0.0, 2.0, 0.5, 1e300]))
SCALARS = st.one_of(st.none(), st.booleans(), INTS, STRINGS, FLOATS)
ACHIEVED = st.one_of(
    st.none(),
    st.builds(AchievedValuation, INTS),
    st.builds(AchievedValuation, st.integers(0, 60), st.just(False)),
    st.just(AchievedValuation(INF)),
)
RESULTS = st.builds(
    CaseResult,
    case=st.builds(
        StubCase,
        suite=st.one_of(st.sampled_from(["thm-main", "lemma-2-4"]), STRINGS),
        params=st.dictionaries(st.one_of(st.sampled_from(["p", "m", "variant"]), STRINGS), SCALARS, max_size=5),
    ),
    required_exponent=st.one_of(st.just(INF), st.integers(0, 40), INTS),
    achieved=ACHIEVED,
    error=st.one_of(st.none(), STRINGS),
)
# A span on the command line stays a range; the report writes it as a list.
RANGES = st.builds(range, st.integers(-5, 5), st.integers(-5, 5), st.sampled_from([1, 2, -1]))
META = st.recursive(
    SCALARS | RANGES, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(STRINGS, inner, max_size=3), max_leaves=8
)


class TestJsonText:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(RESULTS, max_size=6), st.dictionaries(STRINGS, META, max_size=4))
    def test_equals_json_dumps_of_the_dict(self, results, invocation):
        report = Report.from_results(invocation, results)
        written = io.StringIO()
        report.write(written)
        reference = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
        assert written.getvalue() == report.to_json_text() == reference
        # A result passes exactly when its valuation reaches the required exponent.
        for result, entry in zip(results, report.to_json_dict()["cases"]):
            achieved = result.achieved
            assert entry["pass"] == (achieved is not None and achieved.satisfies(result.required_exponent))

    def test_empty_sweep(self):
        text = Report.from_results({}, []).to_json_text()
        assert '\n  "cases": [],\n' in text
        assert json.loads(text)["summary"]["total"] == 0


class TestRealResults:
    @pytest.mark.parametrize("variant", ["corrected", "literal"])
    def test_every_suite_equals_json_dumps(self, variant):
        # Real cases of every suite, failing ones too at the literal variant,
        # and one case errored because p divides m.
        ranges = SweepRanges(primes=(3, 5), m_values=(-3, 1, 2, 3), n_values=(1,), alpha_values=(1,), trials=1)
        cases = [case for suite in SUITES for case in enumerate_cases(suite, ranges, variant, max_index=30)]
        results = run_cases([*cases, CongruenceCase("eq-mod-p", p=5, m=5, variant="corrected")])
        assert {r.case.suite for r in results} == set(SUITES)
        assert [r.case for r in results if r.error is not None] == [CongruenceCase("eq-mod-p", p=5, m=5, variant="corrected")]
        assert variant == "corrected" or any(r.error is None and not r.passed for r in results)
        report = Report.from_results({"suite": "all", "variant": variant}, results)
        assert report.to_json_text() == json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
