"""Arithmetic shared by the harness, the tracer and compare mode.

Nothing here imports asdcong, so the tests can exercise it on synthetic data.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from typing import Iterable, Sequence


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def is_better(a: float, b: float, better: str) -> bool:
    """True when `a` is strictly better than `b` for a metric of direction `better`."""
    return a < b if better == "lower" else a > b


def pair_wins(parent: Sequence[float], change: Sequence[float], better: str) -> tuple[int, int]:
    """(pairs, pairs the change won) over runs paired in order; a tie is no win."""
    pairs = list(zip(parent, change))
    return len(pairs), sum(is_better(c, p, better) for p, c in pairs)


def verdict(parent: Sequence[float], change: Sequence[float], better: str, bound: float | None) -> str:
    """Classify a change against its parent for one metric on one workload.

    "improved": the change wins at least nine tenths of the pairs and the
    medians differ by more than the parent's interquartile distance.
    "unresolved": the parent's own spread exceeds the bound, and not every
    change run beats every parent run; metrics without a bound are never
    more than unresolved unless improved or identical.
    "no worse within bound" / "regressed": the change median is worse than
    the parent median by at most / more than `bound` as a share of it.
    "unchanged": every run on both sides reads the same, as counts do.
    """
    if len(set(parent) | set(change)) == 1:
        return "unchanged"
    n, wins = pair_wins(parent, change, better)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    gain = p_med - c_med if better == "lower" else c_med - p_med
    if n and wins >= 0.9 * n and gain > p_q3 - p_q1:
        return "improved"
    if bound is None:
        return "unresolved"
    all_better = all(is_better(c, p, better) for c in change for p in parent)
    if spread(parent) > bound and not all_better:
        return "unresolved"
    if p_med and -gain / abs(p_med) > bound:
        return "regressed"
    return "no worse within bound"


class TermLog:
    """Terms streamed by a series evaluator against the terms actually needed.

    A call summing the first N terms of the series identified by `key`
    streams N terms; a sweep that reused one running sum per key would only
    need the largest N seen for that key.
    """

    def __init__(self) -> None:
        self.calls = 0
        self.terms = 0
        self.prec_terms = 0
        self.needed: dict[tuple, int] = {}

    def add(self, key: tuple, n_terms: int, prec: int = 0) -> None:
        self.calls += 1
        self.terms += n_terms
        self.prec_terms += n_terms * prec
        self.needed[key] = max(self.needed.get(key, 0), n_terms)

    @property
    def useful_ratio(self) -> float:
        return sum(self.needed.values()) / self.terms if self.terms else 0.0

    @property
    def prec_weighted(self) -> float:
        """Working precision averaged over terms: sum N*prec / sum N."""
        return self.prec_terms / self.terms if self.terms else 0.0


def verdict_digest(cases: Iterable[dict]) -> str:
    """Digest of a report's verdicts: suite, params, required exponent, pass,
    and whether the case errored, plus the case count.

    Achieved valuations and every other report field stay out on purpose, so
    a change that certifies more digits keeps the digest.
    """
    rows = sorted(
        json.dumps(
            [c["suite"], c["params"], c["required_exponent"], c["pass"], c["error"] is None],
            sort_keys=True,
        )
        for c in cases
    )
    h = hashlib.sha256()
    h.update(f"{len(rows)}\n".encode())
    for row in rows:
        h.update(row.encode() + b"\n")
    return h.hexdigest()
