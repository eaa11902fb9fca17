"""Command-line front end: verify / scan / eval.

`verify` runs congruence sweeps and writes the JSON report (stdout or --out),
exiting 0 only when every evaluated case passed.  `scan` prints failures and
errors only, for counterexample hunting.  Either exits 3 when the oracle and
modular paths disagree on a case: that is a bug, not a finding.  `eval`
prints single values (series sums, Apery numbers, Lucas terms), exactly or
modulo p^e.  Each command exits 2 when its output cannot be written.

Reports are byte-identical across reruns and worker counts; everything that
could vary (timing, scheduling) is kept out of them.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from itertools import chain
from typing import Iterator, Sequence

from .engine import DEFAULT_SETTINGS, SUITES, EngineSelfCheckError, EngineSettings, SweepRanges, run_suite
from .exactcore import PRIMALITY_LIMIT
from .lucas import lucas_u, lucas_u_mod
from .padic import PadicCtx, describe
from .series import apery, require_unit, s_sum_exact, s_sum_mod


def parse_int_values(text: str) -> Sequence[int]:
    """Comma-separated integers and inclusive a..b spans: "1,3..5" -> (1,3,4,5).

    A lone span stays a range, "3..5" -> range(3, 6), so a wide one costs no
    memory.  A span with a > b is empty rather than an error, so an empty
    sweep is a legitimate (vacuously passing) invocation.
    """
    spans: list[Sequence[int]] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if ".." in token:
            try:
                lo, hi = map(int, token.split(".."))
            except ValueError:
                raise ValueError(f"malformed span {token!r}") from None
            spans.append(range(lo, hi + 1))
        else:
            spans.append((int(token),))
    if len(spans) == 1 and isinstance(spans[0], range):
        return spans[0]
    return tuple(chain.from_iterable(spans))


def parse_modulus(text: str) -> tuple[int, int]:
    """A prime power written p^e (or a bare prime p, meaning e = 1)."""
    base, caret, exp = text.partition("^")
    p = int(base)
    e = int(exp) if caret else 1  # "3^" is malformed, not 3^1
    if e < 1:
        raise ValueError(f"exponent in {text!r} must be >= 1")
    return p, e


def _int_at_least(low: int):
    """An argparse type for integers >= low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _int_values_within(low: int | None = None, below: int | None = None):
    """An argparse type for value lists whose every value is >= low and < below."""

    def parse(text: str) -> Sequence[int]:
        try:
            values = parse_int_values(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        # A span rises by one: its ends are its least and greatest values.
        checked = (values[0], values[-1]) if isinstance(values, range) and values else values
        for value in checked:
            if low is not None and value < low:
                raise argparse.ArgumentTypeError(f"values must be >= {low}, got {value}")
            if below is not None and value >= below:
                raise argparse.ArgumentTypeError(f"values must be < {below}, got {value}")
        return values

    return parse


def _report_path(text: str) -> str:
    """An argparse type for --out: a file the report can be written to, checked
    before the sweep runs rather than after it.  An empty path names no file."""
    target = text if os.path.exists(text) else os.path.dirname(text) or "."
    if not text or os.path.isdir(text) or not os.access(target, os.W_OK):
        raise argparse.ArgumentTypeError(f"cannot write a report to {text!r}")
    return text


def _add_sweep_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--suite", default="all", choices=("all", *SUITES))
    cmd.add_argument("--primes", type=_int_values_within(below=PRIMALITY_LIMIT), metavar="A..B|LIST",
                     help="candidate primes below 2^64; non-(odd-prime) values are skipped")
    cmd.add_argument("--m", dest="m_values", type=_int_values_within(), metavar="LIST",
                     help="series bases / identity parameters where applicable")
    cmd.add_argument("--n", dest="n_values", type=_int_values_within(1), metavar="A..B|LIST")
    cmd.add_argument("--alpha", dest="alpha_values", type=_int_values_within(1), metavar="A..B|LIST")
    cmd.add_argument("--s", dest="s_values", type=_int_values_within(), metavar="A..B|LIST")
    cmd.add_argument("--l", dest="l_values", type=_int_values_within(0), metavar="A..B|LIST")
    cmd.add_argument("--trials", type=_int_at_least(0),
                     help="trial count for synthesized-sequence suites")
    cmd.add_argument("--variant", default="corrected", choices=("corrected", "literal"))
    cmd.add_argument("--max-index", type=_int_at_least(0), default=None,
                     help="cap on the largest summation bound n*p^alpha")
    cmd.add_argument("--jobs", type=_int_at_least(1), default=1,
                     help="worker processes (at most one per usable CPU and per prime stream or case batch)")
    cmd.add_argument("--seed", type=int, default=0, help="seed for synthesized sequences")
    cmd.add_argument("--oracle-cutoff", type=_int_at_least(0), default=DEFAULT_SETTINGS.oracle_cutoff,
                     help="series cases with an index above --crosscheck-cutoff and up to this "
                     "are checked by the exact oracle alone, those above both cutoffs by the "
                     "modular path alone; other suites always take the oracle path")
    cmd.add_argument("--crosscheck-cutoff", type=_int_at_least(0), default=DEFAULT_SETTINGS.crosscheck_cutoff,
                     help="series cases with an index up to this are checked on both paths, "
                     "oracle and modular, even above --oracle-cutoff")


def _run_sweep(args: argparse.Namespace):
    return run_suite(
        args.suite,
        ranges=SweepRanges._make(getattr(args, name) for name in SweepRanges._fields),
        variant=args.variant,
        max_index=args.max_index,
        jobs=args.jobs,
        settings=EngineSettings(
            oracle_cutoff=args.oracle_cutoff,
            crosscheck_cutoff=args.crosscheck_cutoff,
            seed=args.seed,
        ),
    )


@contextmanager
def _writing(noun: str) -> Iterator[None]:
    """Write the output in this context, flushed to stdout at its end.  A
    reader that closed the pipe ends the writing quietly, and the command
    exits as it would have; any other write error prints "cannot write
    `noun`" and exits 2.  Either way stdout then points at os.devnull, so
    the flush at exit cannot fail."""
    try:
        yield
        sys.stdout.flush()
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write {noun}: {exc}", file=sys.stderr)
            sys.exit(2)


def cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    report = _run_sweep(args)
    with _writing("the report"):
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                report.write(handle)
        else:
            report.write(sys.stdout)
    counts = report.summary()  # the summary the report was written with
    print(
        "verify: {total} cases, {passed} passed, {failed} failed, {errored} errored".format(**counts),
        file=sys.stderr,
    )
    return 0 if counts["failed"] == 0 and counts["errored"] == 0 else 1


def _result_line(result) -> str:
    params = " ".join(f"{k}={v}" for k, v in result.case.params_dict().items())
    if result.error is not None:
        return f"ERROR {result.case.suite} {params}: {result.error}"
    return (
        f"FAIL {result.case.suite} {params} "
        f"required={result.required_exponent} achieved={result.achieved} "
        f"margin={result.margin}"
    )


def cmd_scan(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    failures = _run_sweep(args).failures()
    with _writing("the report"):
        for result in failures[: args.stop_after or None]:
            print(_result_line(result))
    return 1 if failures else 0


def _exact_text(value) -> str:
    """str(value) at any length: CPython's int-to-str digit limit (3.10.7 on)
    is lifted for this conversion only and then restored."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return str(value)
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def cmd_eval(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    ctx = None
    if args.mod:
        try:
            ctx = PadicCtx(*parse_modulus(args.mod))
        except ValueError as exc:
            parser.error(f"malformed modulus {args.mod!r}: {exc}")

    try:
        if args.series == "s":
            if args.m is None or args.N is None:
                parser.error("--series s needs --m and --N")
            b = -args.m if args.variant == "literal" else args.m
            if ctx:
                require_unit(args.m, ctx.p)  # the error names m as given, not b
            value = s_sum_mod(args.N, b, ctx) if ctx else s_sum_exact(args.N, b)
        elif args.series == "apery":
            if args.index is None:
                parser.error("--series apery needs --index")
            if args.index < 0:
                parser.error(f"--series apery needs --index >= 0, got {args.index}")
            value = apery(args.index)
        else:  # lucas
            if args.m is None or args.index is None:
                parser.error("--series lucas needs --m and --index")
            value = lucas_u_mod(args.index, args.m - 2, ctx) if ctx else lucas_u(args.index, args.m - 2)
        text = describe(value, ctx) if ctx else _exact_text(value)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with _writing("the value"):
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asdcong",
        description="Verify Atkin-Swinnerton-Dyer type congruences for truncated "
        "central-binomial series, Apery numbers, and their supporting identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run sweeps and write the JSON report")
    _add_sweep_flags(verify)
    verify.add_argument("--out", type=_report_path, metavar="PATH", help="report path (default: stdout)")
    verify.set_defaults(func=cmd_verify)

    scan = sub.add_parser("scan", help="run sweeps, print failures/errors only")
    _add_sweep_flags(scan)
    scan.add_argument("--stop-after", type=_int_at_least(0), default=0, metavar="F",
                      help="print at most F failures (0 = all)")
    scan.set_defaults(func=cmd_scan)

    ev = sub.add_parser("eval", help="print one value, exact or modulo p^e")
    ev.add_argument("--series", required=True, choices=("s", "apery", "lucas"))
    ev.add_argument("--m", type=int, help="series base (s) or Lucas parameter m, a = m-2 (lucas)")
    ev.add_argument("--N", type=_int_at_least(0), help="term count for --series s")
    ev.add_argument("--index", type=int, help="index for apery (>= 0) or lucas (any integer)")
    ev.add_argument("--variant", default="corrected", choices=("corrected", "literal"))
    ev.add_argument("--mod", metavar="P^E", help="reduce modulo the prime power p^e")
    ev.set_defaults(func=cmd_eval)
    return parser


_LIST_FLAGS = ("--primes", "--m", "--n", "--alpha", "--s", "--l")


def _glue_negative_values(argv: list[str]) -> list[str]:
    """Turn ["--m", "-5..5"] into ["--m=-5..5"] so argparse accepts it."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        follower = argv[i + 1] if i + 1 < len(argv) else ""
        if token in _LIST_FLAGS and len(follower) > 1 and follower[0] == "-" and follower[1].isdigit():
            out.append(f"{token}={follower}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if not argv:
        argv = ["verify"]
    parser = build_parser()
    args = parser.parse_args(_glue_negative_values(argv))
    try:
        return args.func(args, parser)
    except EngineSelfCheckError as exc:
        print(f"error: EngineSelfCheckError: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
