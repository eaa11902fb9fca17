"""Deterministic report assembly and serialization.

The report is a single JSON document {"meta", "cases", "summary"}.  Two runs
with the same effective parameters must produce byte-identical documents no
matter how many workers evaluated the cases, so nothing time- or
schedule-dependent may enter, cases are emitted in sorted order, and keys are
sorted.  Integers that would overflow 64-bit consumers are serialized as
decimal strings; the infinite valuation is the string "inf".

The document is `json.dumps(to_json_dict(), sort_keys=True, indent=2)`.
With an indent CPython encodes in pure Python, and it builds the whole text
before a byte is written.  `Report.write` writes the same text as it goes:
each case entry from a template with its suite and outcome written in,
built once per write for each suite, param slots and outcome and filled by
position from the case, then `meta` and `summary` walked item by item, so
neither the text nor a long list in `meta` is held whole.
"""

from __future__ import annotations

import io
import math
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Sequence, TextIO

from ._version import __version__

_I64_MAX = 2**63 - 1


def _json_safe(value):
    """Recursively convert to JSON-encodable values per the report conventions."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value) if abs(value) > _I64_MAX else value
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if value.is_integer():
            return int(value)
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, range)):
        return [_json_safe(v) for v in value]
    return str(value)


def _scalar_text(value) -> str | None:
    """`value` as the indented document writes it, if it is no list or dict
    with items, else None: `_json_pieces` walks those.  Values are taken
    as `_json_safe` takes them."""
    # Small ints first: the report is mostly those.
    if type(value) is int and -_I64_MAX <= value <= _I64_MAX:
        return int.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value) if -_I64_MAX <= value <= _I64_MAX else encode_basestring_ascii(str(value))
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if math.isinf(value):
            return '"inf"' if value > 0 else '"-inf"'
        return int.__repr__(int(value)) if value.is_integer() else float.__repr__(value)
    if isinstance(value, dict):
        return None if value else "{}"
    if isinstance(value, (list, tuple, range)):
        return None if value else "[]"
    return encode_basestring_ascii(str(value))


def _json_pieces(value, pad: str) -> Iterator[str]:
    """`value` as the indented document writes it at a depth of `pad`, in
    pieces: a dict or list is walked item by item, keys sorted, so a long
    one is never built as one string."""
    text = _scalar_text(value)
    if text is not None:
        yield text
        return
    inner = pad + "  "
    if isinstance(value, dict):
        items = {str(k): v for k, v in value.items()}
        pairs = ((f"{inner}{encode_basestring_ascii(key)}: ", items[key]) for key in sorted(items))
        brackets = "{}"
    else:
        pairs = zip(repeat(inner), value)
        brackets = "[]"
    sep = brackets[0] + "\n"
    for head, item in pairs:
        text = _scalar_text(item)
        if text is None:
            yield sep + head
            yield from _json_pieces(item, inner)
        else:
            yield sep + head + text
        sep = ",\n"
    yield f"\n{pad}{brackets[1]}"


def _json_text(value, pad: str) -> str:
    """`value` as the indented document writes it at a depth of `pad`."""
    return _scalar_text(value) or "".join(_json_pieces(value, pad))


def _entry(result) -> tuple[str, tuple[int, ...]]:
    """The entry of `result` with its suite and outcome written in, params
    keys in sorted order, and a %s hole for each param's value; and the
    position in the case of each param's value, in that order.  Every `%`
    of the text written in is doubled."""
    case = result.case
    slots = sorted(case.param_slots)
    achieved = None if result.achieved is None else result.achieved.to_json()
    achieved, error, passed, required, suite = (
        _json_text(v, " " * 8).replace("%", "%%")
        for v in (achieved, result.error, result.passed, result.required_exponent, case.suite)
    )
    params = ",\n".join(f"        {encode_basestring_ascii(k).replace('%', '%%')}: %s" for k, _ in slots)
    text = (
        f'    {{\n      "achieved_valuation": {achieved},\n      "error": {error},\n      "params": '
        + ("{\n" + params + "\n      }" if slots else "{}")
        + f',\n      "pass": {passed},\n      "required_exponent": {required},\n      "suite": {suite}\n    }}'
    )
    return text, tuple(at for _, at in slots)


class Report:
    """Aggregated, deterministically ordered case results, a tuple: they are
    fixed once the report is built, so its summary is taken once.

    A result's case gives its `suite`, its `param_slots` (each param's name
    and the position of its value in the case), its values by position, and
    `params_dict()`, the params by name, which `to_json_dict` reads."""

    def __init__(self, meta: dict, results: Iterable = ()) -> None:
        self.meta = meta
        self.results = tuple(results)
        self._summary: dict | None = None

    @classmethod
    def from_results(cls, invocation: dict, results: Sequence) -> Report:
        return cls({"tool": "asdcong", "version": __version__, "invocation": invocation}, results)

    def counts(self) -> dict:
        return {key: self.summary()[key] for key in ("total", "passed", "failed", "errored")}

    def failures(self) -> list:
        return [r for r in self.results if r.error is not None or not r.passed]

    def summary(self) -> dict:
        """The counts by outcome and the smallest certified valuation margin
        per suite, errored cases aside: one walk over the results, on the
        first call, whose dict every later call returns."""
        if self._summary is None:
            passed = errored = 0
            margins: dict[str, int | float] = {}
            for r in self.results:
                if r.error is not None:
                    errored += 1
                    continue
                passed += r.passed
                suite, margin = r.case.suite, r.margin
                if margin is not None and (suite not in margins or margin < margins[suite]):
                    margins[suite] = margin
            total = len(self.results)
            self._summary = {
                "total": total,
                "passed": passed,
                "failed": total - passed - errored,
                "errored": errored,
                "min_margin_by_suite": margins,
            }
        return self._summary

    def to_json_dict(self) -> dict:
        """The document as plain JSON values; the reference for `write`."""
        cases = [r.to_json_entry() for r in self.results]
        return _json_safe({"meta": self.meta, "cases": cases, "summary": self.summary()})

    def write(self, handle: TextIO) -> None:
        """Write `json.dumps(self.to_json_dict(), sort_keys=True, indent=2)`
        and a newline to `handle` as it goes: the cases one entry at a time,
        then `meta` and `summary` item by item, in chunks of a few hundred
        pieces."""
        pieces = self._pieces()
        while chunk := "".join(islice(pieces, 256)):
            handle.write(chunk)

    def _pieces(self) -> Iterator[str]:
        yield '{\n  "cases": ['
        sep = "\n"
        # Entries by suite, param slots and outcome, for this write only: the
        # default report has under a hundred of them.
        entries: dict[tuple, tuple[str, tuple[int, ...]]] = {}
        for r in self.results:
            case = r.case
            key = (case.suite, case.param_slots, r.achieved, r.error, r.required_exponent)
            if (entry := entries.get(key)) is None:
                entry = entries[key] = _entry(r)
            text, positions = entry
            # A small int fills its hole as it is, since %s writes its repr.
            # Only a params value can be a list or dict, at a depth of 8.
            yield sep + text % tuple(
                [
                    v if type(v) is int and -_I64_MAX <= v <= _I64_MAX else _json_text(v, " " * 8)
                    for v in map(case.__getitem__, positions)
                ]
            )
            sep = ",\n"
        yield "\n  ]" if self.results else "]"
        yield ',\n  "meta": '
        yield from _json_pieces(self.meta, "  ")
        yield ',\n  "summary": '
        yield from _json_pieces(self.summary(), "  ")
        yield "\n}\n"

    def to_json_text(self) -> str:
        """The text `write` writes."""
        buffer = io.StringIO()
        self.write(buffer)
        return buffer.getvalue()
