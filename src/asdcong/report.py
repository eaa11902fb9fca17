"""Deterministic report assembly and serialization.

The report is a single JSON document {"meta", "cases", "summary"}.  Two runs
with the same effective parameters must produce byte-identical documents no
matter how many workers evaluated the cases, so nothing time- or
schedule-dependent may enter, cases are emitted in sorted order, and keys are
sorted.  Integers that would overflow 64-bit consumers are serialized as
decimal strings; the infinite valuation is the string "inf".

The document is `json.dumps(to_json_dict(), sort_keys=True, indent=2)`.
With an indent CPython encodes in pure Python, so `to_json_text` writes the
case entries itself from one template and leaves only `meta` and `summary`
to `json.dumps`; the result is the same text.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from typing import Iterable, Sequence

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
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return str(value)


def _json_text(value, pad: str) -> str:
    """`value` as the indented document writes it at a depth of `pad`.

    Plain scalars are written here; anything else, NaN included, goes
    through `json.dumps` as the reference does."""
    kind = type(value)
    if kind is int:
        return int.__repr__(value) if -_I64_MAX <= value <= _I64_MAX else encode_basestring_ascii(str(value))
    if kind is str:
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is float and value == value:
        if math.isinf(value):
            return '"inf"' if value > 0 else '"-inf"'
        return int.__repr__(int(value)) if value.is_integer() else float.__repr__(value)
    return json.dumps(_json_safe(value), sort_keys=True, indent=2).replace("\n", "\n" + pad)


# One case entry, keys in sorted order; `params` is filled in by _params_text.
_ENTRY = """    {{
      "achieved_valuation": {},
      "error": {},
      "params": {},
      "pass": {},
      "required_exponent": {},
      "suite": {}
    }}"""


def _params_text(params: dict) -> str:
    if not params:
        return "{}"
    lines = [f"        {encode_basestring_ascii(k)}: {_json_text(v, ' ' * 8)}" for k, v in sorted(params.items())]
    return "{\n" + ",\n".join(lines) + "\n      }"


def _entry_text(entry: dict) -> str:
    return _ENTRY.format(
        _json_text(entry["achieved_valuation"], " " * 6),
        _json_text(entry["error"], " " * 6),
        _params_text(entry["params"]),
        _json_text(entry["pass"], " " * 6),
        _json_text(entry["required_exponent"], " " * 6),
        _json_text(entry["suite"], " " * 6),
    )


class Report:
    """Aggregated, deterministically ordered case results."""

    def __init__(self, meta: dict, results: Iterable = ()) -> None:
        self.meta = meta
        self.results = list(results)

    @classmethod
    def from_results(cls, invocation: dict, results: Sequence) -> Report:
        meta = {
            "tool": "asdcong",
            "version": __version__,
            "invocation": invocation,
        }
        return cls(meta, results)

    def counts(self) -> dict:
        passed = failed = errored = 0
        for r in self.results:
            if r.error is not None:
                errored += 1
            elif r.passed:
                passed += 1
            else:
                failed += 1
        return {
            "total": len(self.results),
            "passed": passed,
            "failed": failed,
            "errored": errored,
        }

    def min_margin_by_suite(self) -> dict:
        """Smallest certified valuation margin per suite, errored cases aside."""
        margins: dict[str, int | float] = {}
        for r in self.results:
            if r.error is not None or r.margin is None:
                continue
            suite = r.case.suite
            if suite not in margins or r.margin < margins[suite]:
                margins[suite] = r.margin
        return margins

    def failures(self) -> list:
        return [r for r in self.results if r.error is not None or not r.passed]

    def summary(self) -> dict:
        summary = self.counts()
        summary["min_margin_by_suite"] = self.min_margin_by_suite()
        return summary

    def to_json_dict(self) -> dict:
        """The document as plain JSON values; the reference for to_json_text."""
        return _json_safe(
            {
                "meta": self.meta,
                "cases": [r.to_json_entry() for r in self.results],
                "summary": self.summary(),
            }
        )

    def to_json_text(self) -> str:
        """`json.dumps(self.to_json_dict(), sort_keys=True, indent=2)` and a newline."""
        entries = [_entry_text(r.to_json_entry()) for r in self.results]
        cases = "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"
        meta = _json_text(self.meta, "  ")
        summary = _json_text(self.summary(), "  ")
        return f'{{\n  "cases": {cases},\n  "meta": {meta},\n  "summary": {summary}\n}}\n'
