import json
import os
import pathlib
import subprocess
import sys

import pytest

import asdcong.engine
from asdcong.cli import main, parse_int_values, parse_modulus
from asdcong.engine import AchievedValuation
from asdcong.lucas import lucas_u


class TestParsing:
    def test_int_values(self):
        assert parse_int_values("1,2,3") == (1, 2, 3)
        # A lone span stays a range; a list with a span in it is a tuple.
        assert parse_int_values("3..6") == range(3, 7) and tuple(parse_int_values("3..6")) == (3, 4, 5, 6)
        assert parse_int_values("-2..1") == range(-2, 2)
        assert parse_int_values("1,4..6,9") == (1, 4, 5, 6, 9)
        assert parse_int_values("5..3") == range(5, 4) and not parse_int_values("5..3")
        with pytest.raises(ValueError):
            parse_int_values("x")

    def test_modulus(self):
        assert parse_modulus("5^2") == (5, 2)
        assert parse_modulus("7") == (7, 1)
        with pytest.raises(ValueError):
            parse_modulus("5^0")
        with pytest.raises(ValueError):
            parse_modulus("abc")


class TestVerify:
    def test_pass_writes_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "verify",
                "--suite",
                "thm-main",
                "--primes",
                "3..13",
                "--m",
                "1,2,3",
                "--n",
                "1..2",
                "--alpha",
                "1..2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["failed"] == 0
        assert doc["summary"]["errored"] == 0
        assert doc["summary"]["total"] == len(doc["cases"]) > 0
        assert doc["meta"]["tool"] == "asdcong"
        assert all(case["pass"] for case in doc["cases"])

    def test_literal_falsification_exits_1(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "verify",
                "--suite",
                "thm-main",
                "--variant",
                "literal",
                "--primes",
                "5..5",
                "--m",
                "1",
                "--n",
                "1..1",
                "--alpha",
                "1..1",
                "--out",
                str(out),
            ]
        )
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["summary"]["failed"] == 1
        assert doc["cases"][0]["achieved_valuation"] == 0

    def test_exact_identity_sweep(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["verify", "--suite", "lemma-2-2", "--m", "-5..5", "--n", "1..50", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["total"] == 10 * 50
        assert doc["summary"]["min_margin_by_suite"]["lemma-2-2"] == "inf"
        assert doc["cases"][0]["required_exponent"] == "inf"

    def test_stdout_when_no_out_flag(self, capsys):
        code = main(
            ["verify", "--suite", "eq-mod-p", "--primes", "3..3", "--m", "1,2"]
        )
        assert code == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["summary"]["passed"] == 2

    def test_invalid_flags_exit_2(self, tmp_path, capsys, monkeypatch):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "no-such-suite"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--primes", "bogus"])
        assert exc.value.code == 2
        bad = [("--jobs", "0"), ("--jobs", "-5"), ("--jobs", "two"), ("--trials", "-3"), ("--trials", "x")]
        bad += [("--n", "0"), ("--n", "2,0"), ("--alpha", "0"), ("--alpha", "0..2"), ("--l", "-1"), ("--l", "-1..1")]
        bad += [("--primes", "18446744073709551629"), ("--primes", "3,18446744073709551616")]
        bad += [("--max-index", "-1"), ("--max-index", "x"), ("--oracle-cutoff", "-1"), ("--crosscheck-cutoff", "-1")]
        for command in ("verify", "scan"):
            for flag, value in bad + ([("--stop-after", "-1")] if command == "scan" else []):
                with pytest.raises(SystemExit) as exc:
                    main([command, "--suite", "eq-mod-p", flag, value])
                assert exc.value.code == 2
        # An unwritable --out, or an empty one, is rejected before any case
        # runs: one error line, exit 2.
        capsys.readouterr()
        monkeypatch.setattr(asdcong.engine, "run_cases", lambda *args, **kwargs: pytest.fail("the sweep ran"))
        for out in (tmp_path / "missing" / "x.json", tmp_path, ""):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--suite", "eq-mod-p", "--out", str(out)])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            (line,) = [line for line in captured.err.splitlines() if "error:" in line]
            assert line.startswith("asdcong verify: error: argument --out: "), line

    def test_malformed_span_names_the_token(self, capsys):
        for token in ("5..", "..5", "1..2..3"):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--primes", token])
            assert exc.value.code == 2
            (line,) = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
            assert line.endswith(f"error: argument --primes: malformed span '{token}'"), line

    def test_self_check_disagreement_exits_3(self, capsys, monkeypatch, pool):
        # A modular path that disagrees with the oracle is a bug: one stderr
        # line and exit 3, not a traceback and not a failed case's exit 1.
        monkeypatch.setattr(asdcong.engine, "_modular_achieved", lambda diff, ctx: AchievedValuation(-1))
        # At --jobs 2 two primes make two streams, which run on two
        # workers; the error still comes from this process, which evaluates
        # every case that reads sums.
        runs = [("verify", "5", "1"), ("scan", "5", "1"), ("verify", "5,7", "2"), ("scan", "5,7", "2")]
        for command, primes, jobs in runs:
            pool.clear()
            code = main([command, "--suite", "eq-mod-p", "--primes", primes, "--m", "1", "--jobs", jobs])
            assert pool == [int(jobs), 1]
            captured = capsys.readouterr()
            assert code == 3
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            assert line.startswith("error: EngineSelfCheckError: oracle says "), line

    def test_byte_identical_reports(self, tmp_path):
        args = [
            "verify",
            "--suite",
            "thm-main",
            "--primes",
            "3..7",
            "--n",
            "1..2",
            "--alpha",
            "1..2",
        ]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        third = tmp_path / "c.json"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert main(args + ["--jobs", "4", "--out", str(third)]) == 0
        assert first.read_bytes() == second.read_bytes() == third.read_bytes()
        # A span, which stays a range, sweeps and reports as its list does.
        spanned, listed = tmp_path / "span.json", tmp_path / "list.json"
        assert main(["verify", "--suite", "thm-main", "--primes", "3..13", "--out", str(spanned)]) == 0
        assert main(["verify", "--suite", "thm-main", "--primes", "3,4,5,6,7,8,9,10,11,12,13", "--out", str(listed)]) == 0
        assert spanned.read_bytes() == listed.read_bytes()

    def test_lemma_2_5_seeded(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        args = ["verify", "--suite", "lemma-2-5", "--trials", "10", "--seed", "3"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestScan:
    def test_literal_scan_prints_failures(self, capsys):
        code = main(
            [
                "scan",
                "--suite",
                "thm-main",
                "--variant",
                "literal",
                "--primes",
                "3..20",
                "--n",
                "1..1",
                "--alpha",
                "1..1",
            ]
        )
        assert code == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines and all(line.startswith("FAIL") for line in lines)
        assert any("p=5 m=1" in line for line in lines)

    def test_corrected_scan_is_quiet(self, capsys):
        code = main(
            ["scan", "--suite", "thm-main", "--primes", "3..13", "--n", "1..2", "--alpha", "1..2"]
        )
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_empty_range(self, capsys):
        code = main(["scan", "--suite", "thm-main", "--primes", "23..22"])
        assert code == 0
        assert capsys.readouterr().out == ""
        # An empty --s is an empty sweep, as for every other list flag, not "every s".
        for suite, s in (("lemma-2-3", "3..2"), ("lemma-2-4", ""), ("lemma-2-3", ",")):
            assert main(["verify", "--suite", suite, "--s", s]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["summary"]["total"] == 0
            assert doc["meta"]["invocation"]["ranges"]["s_values"] == []

    def test_stop_after(self, capsys):
        args = ["scan", "--suite", "thm-main", "--variant", "literal", "--primes", "3..20", "--alpha", "1..2"]
        assert main(args) == 1
        full = capsys.readouterr().out.splitlines()
        assert len(full) > 5
        for stop in (1, 2, 5):
            assert main(args + ["--stop-after", str(stop)]) == 1
            assert capsys.readouterr().out.splitlines() == full[:stop]

    def test_no_cases_scan(self, capsys):
        code = main(["scan", "--suite", "eq-apery", "--primes", "3..3"])
        assert code == 0
        assert capsys.readouterr().out == ""
        # A zero cap is a legal, vacuous sweep; a negative one is a usage error.
        assert main(["scan", "--suite", "thm-main", "--max-index", "0"]) == 0
        assert capsys.readouterr().out == ""


class TestEval:
    def test_series_exact(self, capsys):
        assert main(["eval", "--series", "s", "--m", "1", "--N", "5"]) == 0
        assert capsys.readouterr().out.strip() == "99"
        assert main(["eval", "--series", "s", "--m", "5", "--N", "3"]) == 0
        assert capsys.readouterr().out.strip() == "41/25"
        assert main(["eval", "--series", "s", "--m", "1", "--N", "5", "--variant", "literal"]) == 0
        assert capsys.readouterr().out.strip() == "55"  # 1 - 2 + 6 - 20 + 70

    def test_series_modular(self, capsys):
        assert main(["eval", "--series", "s", "--m", "2", "--N", "3", "--mod", "3^2"]) == 0
        assert capsys.readouterr().out.strip() == "8 * 3^0 mod 3^2"

    def test_apery(self, capsys):
        assert main(["eval", "--series", "apery", "--index", "4"]) == 0
        assert capsys.readouterr().out.strip() == "33001"

    def test_lucas(self, capsys):
        assert main(["eval", "--series", "lucas", "--m", "3", "--index", "4"]) == 0
        assert capsys.readouterr().out.strip() == "-1"

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
    def test_exact_value_past_the_digit_limit(self, capsys):
        # u_10000(5, 1) has 6804 digits, past CPython's default int-to-str
        # limit of 4300: eval lifts the limit for its conversion and restores it.
        limit = sys.get_int_max_str_digits()
        assert main(["eval", "--series", "lucas", "--m", "7", "--index", "10000"]) == 0
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            expected = str(lucas_u(10000, 5))
        finally:
            sys.set_int_max_str_digits(limit)
        assert capsys.readouterr().out == expected + "\n"

    def test_malformed_modulus_exits_2(self):
        for bad in ("x", "4^2", "5^-1", "2^3", "3^", "3^^2", "9^2"):
            with pytest.raises(SystemExit) as exc:
                main(["eval", "--series", "s", "--m", "1", "--N", "5", "--mod", bad])
            assert exc.value.code == 2

    def test_negative_counts_exit_2(self, capsys):
        # A negative term count or Apery index is a bad flag, not a run-time
        # error; a Lucas index may be negative.
        for argv in (["--series", "s", "--m", "1", "--N", "-1"], ["--series", "apery", "--index", "-1"]):
            with pytest.raises(SystemExit) as exc:
                main(["eval", *argv])
            assert exc.value.code == 2
        capsys.readouterr()
        assert main(["eval", "--series", "lucas", "--m", "3", "--index", "-1"]) == 0
        assert capsys.readouterr().out.strip() == "-1"

    def test_degenerate_modulus_reports_error(self, capsys):
        code = main(["eval", "--series", "s", "--m", "5", "--N", "3", "--mod", "5^2"])
        assert code == 1
        assert "error" in capsys.readouterr().err
        # The p | m error names m as given, in either variant.
        code = main(["eval", "--series", "s", "--m", "5", "--N", "3", "--variant", "literal", "--mod", "5^2"])
        assert code == 1
        assert capsys.readouterr().err == "error: series terms at m = 5 are not p-integral for p = 5\n"
        # Base 0 is rejected the same way on the exact and the modular path.
        for mod in ([], ["--mod", "5^2"]):
            assert main(["eval", "--series", "s", "--m", "0", "--N", "3", *mod]) == 1
            assert capsys.readouterr().err == "error: series base m must be nonzero\n"


def _run_program(*argv, stdout=subprocess.PIPE):
    """`python -m asdcong` with argv, as a program: (exit code, stdout, stderr)."""
    return _run_python("-m", "asdcong", *argv, stdout=stdout)


def _run_python(*args, stdout=subprocess.PIPE):
    """`python` with args and the package on its path: (exit code, stdout, stderr)."""
    src = str(pathlib.Path(asdcong.engine.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


_ONE_CASE = ("verify", "--suite", "eq-mod-p", "--primes", "5", "--m", "1")
_ONE_CASE_SUMMARY = "verify: 1 cases, 1 passed, 0 failed, 0 errored\n"
_EVAL = ("eval", "--series", "s", "--m", "1", "--N", "5")


class TestProgram:
    def test_verify_writes_the_report_and_one_summary_line(self):
        code, out, err = _run_program(*_ONE_CASE)
        assert code == 0
        assert json.loads(out)["summary"]["passed"] == 1
        assert err == _ONE_CASE_SUMMARY

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (_ONE_CASE, 0, _ONE_CASE_SUMMARY),
            (("scan", "--suite", "thm-main", "--variant", "literal", "--primes", "3..20"), 1, ""),
            (_EVAL, 0, ""),
        ],
        ids=["verify", "scan", "eval"],
    )
    def test_closed_pipe_ends_the_output_quietly(self, argv, code, err):
        # A reader that closed the pipe stops the writing, not the command:
        # no traceback, and the exit code is the sweep's own.
        read, write = os.pipe()
        os.close(read)
        try:
            assert _run_program(*argv, stdout=write) == (code, None, err)
        finally:
            os.close(write)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_write_error_exits_2(self):
        # A report that cannot be written, to stdout or to --out, is one
        # error line and exit 2, as an --out path that cannot be written is;
        # so is an eval value that cannot be written.
        with open("/dev/full", "w") as full:
            runs = [
                ("the report", _run_program(*_ONE_CASE, stdout=full)),
                ("the report", _run_program(*_ONE_CASE, "--out", "/dev/full")),
                ("the value", _run_program(*_EVAL, stdout=full)),
            ]
        for noun, (code, _, err) in runs:
            assert code == 2
            assert err.startswith(f"error: cannot write {noun}: ") and err.count("\n") == 1, err

    def test_start_up_loads_no_class_generator(self):
        # Each run is a fresh process: the records are tuples, so neither an
        # import nor a sweep pays for `dataclasses` and the `inspect` it loads.
        loaded = "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        for script in (
            f"import sys, asdcong.cli; {loaded}",
            f"import sys, asdcong.cli; asdcong.cli.main({[*_ONE_CASE, '--out', os.devnull]}); {loaded}",
        ):
            code, out, err = _run_python("-c", script)
            assert (code, out) == (0, "[]\n"), err

    def test_serial_sweep_loads_no_random_or_threading(self):
        # `random` serves only lemma-2-5's sequences and `threading` only a
        # parallel sweep's pool size, so a serial thm-main case imports
        # neither.  -S keeps the start-up files of site-packages, which may
        # import either, out of the check.
        one_case = ["verify", "--suite", "thm-main", "--primes", "3", "--m", "1", "--n", "1", "--alpha", "1"]
        script = (
            f"import sys, asdcong.cli; asdcong.cli.main({[*one_case, '--jobs', '1', '--out', os.devnull]}); "
            "print(sorted({'random', 'threading'} & set(sys.modules)))"
        )
        code, out, err = _run_python("-S", "-c", script)
        assert (code, out, err) == (0, "[]\n", _ONE_CASE_SUMMARY)

    def test_sweep_loads_no_fractions(self):
        # Every suite takes its verdict from integer sides, so the default
        # sweep over every suite's grid never imports `fractions`, nor the
        # `decimal` it loads: only `s_sum_exact`, for `eval`, does.
        loaded = "print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
        runs = [
            (["verify", "--out", os.devnull], "[]\n"),
            (["eval", "--series", "s", "--m", "5", "--N", "3"], "41/25\n['decimal', 'fractions']\n"),
        ]
        for argv, expected in runs:
            code, out, err = _run_python("-S", "-c", f"import sys, asdcong.cli; asdcong.cli.main({argv}); {loaded}")
            assert (code, out) == (0, expected), err
