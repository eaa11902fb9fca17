import ast
import pathlib
import re
import shlex

import asdcong
from asdcong import cli
from asdcong.engine import SUITES, AchievedValuation, CaseResult, Suite

# The package's public names.  A change that widens or narrows the API
# changes this set on purpose.
PUBLIC = {
    "INF", "SUITES", "AchievedValuation", "CaseResult", "CongruenceCase",
    "EngineSettings", "NotPIntegralError", "PadicCtx", "Report", "SweepRanges", "apery", "binomial",
    "enumerate_cases", "from_rational", "is_prime", "legendre", "lucas_u", "lucas_u_mod",
    "rat_congruent", "required_guard", "run_cases", "run_suite", "s_sum_exact", "s_sum_mod", "vp",
}


def test_star_import_binds_the_public_names_only():
    assert len(asdcong.__all__) == len(PUBLIC) and set(asdcong.__all__) == PUBLIC
    namespace = {}
    exec("from asdcong import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC  # no submodule among them


def test_every_private_helper_is_used():
    # A module-level _name in the package that nothing outside its own
    # definition reads, in the package or its tests, is dead code.
    root = pathlib.Path(asdcong.__file__).parent
    files = [*root.glob("*.py"), *pathlib.Path(__file__).parent.glob("*.py")]
    defined, used = {}, set()
    for path in files:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                own = {t.id for t in targets if isinstance(t, ast.Name)}
            else:
                own = set()
            if path.parent == root:
                defined.update((name, path.name) for name in own if name.startswith("_") and not name.startswith("__"))
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
                if name is not None and name not in own:
                    used.add(name)
    assert sorted(f"{module}: {name}" for name, module in defined.items() if name not in used) == []


def test_suite_contract_is_documented_and_used():
    # Every Suite field is named in README's "Adding a suite", and every
    # optional one is set by some record: a stale doc or a dead field fails.
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Adding a suite", 1)[1].split("\n#", 1)[0]
    for name in Suite._fields:
        assert f"`{name}`" in section, name
        if name in Suite._field_defaults:
            assert any(getattr(record, name) != Suite._field_defaults[name] for record in SUITES.values()), name


def test_readme_example_runs():
    # The library example is the README's one python block: it runs, and
    # each line with a comment gives the value the comment starts with.
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    commented = [line.split("  # ", 1) for line in block.splitlines() if "  # " in line]
    for code, comment in commented:
        assert comment.startswith(repr(eval(code, namespace))), code
    result = namespace["result"]
    assert len(commented) == 3
    assert result.passed is True and str(result.achieved) == "2" and result.achieved == AchievedValuation(2, True)


def test_readme_eval_examples_run(capsys):
    # Each line of README's `eval` block runs through the CLI and prints the
    # value its comment ends with, or a residue in the form it names.
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("### eval\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    printed = []
    for line in block.splitlines():
        command, comment = line.split("  # ", 1)
        program, *argv = shlex.split(command)
        assert program == "asdcong" and cli.main(argv) == 0, line
        printed.append(capsys.readouterr().out)
        if "u * p^v mod p^e" in comment:
            assert re.fullmatch(r"\d+ \* 3\^\d+ mod 3\^2\n", printed[-1]), line
        else:
            assert printed[-1] == comment.split()[-1] + "\n", line
    assert len(printed) == 4


def test_case_result_holds_the_verdict_only():
    # The report reads the first four fields; `path` says which evaluation
    # ran (ROADMAP item 6).  The sides of the congruence are not kept: tests
    # read them from the suite's `sides`, and a sweep need not hold them.
    assert CaseResult._fields == ("case", "required_exponent", "achieved", "error", "path")


def test_achieved_valuation_is_a_number_and_a_flag():
    # Equality (INF) and a lower bound from a modular run (exact=False) need
    # no third form.
    assert AchievedValuation._fields == ("value", "exact")
