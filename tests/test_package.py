import asdcong

# The package's public names.  A change that widens or narrows the API
# changes this set on purpose.
PUBLIC = {
    "INF", "SUITES", "AchievedValuation", "CaseResult", "CongruenceCase", "CongruenceVerdict",
    "EngineSettings", "NotPIntegralError", "PadicCtx", "Report", "SweepRanges", "apery", "binomial",
    "enumerate_cases", "evaluate_case", "fermat_quotient_factor", "from_rational", "is_prime", "jacobi",
    "legendre", "lucas_u", "lucas_u_mod", "rat_congruent", "required_guard", "run_cases", "run_suite",
    "s_sum_exact", "s_sum_mod", "sun_tauraso_rhs", "synthesize_block_sequence", "vp",
}


def test_star_import_binds_the_public_names_only():
    assert len(asdcong.__all__) == len(PUBLIC) and set(asdcong.__all__) == PUBLIC
    namespace = {}
    exec("from asdcong import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC  # no submodule among them
