"""Exact-reference checks and the tally of one benchmark run.

A check compares a library result with a reference that does not come
from the solver under test: a closed form, a characteristic root
computed here, an exact count or a gauge-equivalent system.  Every
exception, wrong count and out-of-tolerance value is a failure and is
named; library warnings are counted separately by category.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

# Failures the library is known to produce.  They are counted in
# `failed` and named in every report like any other failure; the run's
# `correct` flag turns false only for a failure outside this set, so that
# a new wrong answer shows even while these stay open.  Remove an entry
# once the library fixes it.
KNOWN_DEFECTS = {
    "points-deltaprime": {
        "bridge/cantor-d4": "finds 12 of 16 states without a warning",
        "bridge/cantor-d5": "finds 13 of 32 states",
    },
    "general-lambda": {
        "magnetic/n1-gauged": "delta-magnetic gauge hides the single delta state",
        "magnetic/n2-gauged": "delta-magnetic gauge hides the delta states",
        "magnetic/n4-gauged": "delta-magnetic gauge hides the delta states",
        "limit/4d-g8": "first-order convergent family classified divergent "
                       "(found by this benchmark)",
    },
    "nystrom-cantor": {
        "certify/cantor-d6": "SupportOverlap from rounding at touching supports",
    },
    "cli-readme": {},
}


@dataclass
class Verdict:
    """Outcome of one check: pass/fail, a reason, and what it measured."""

    ok: bool
    detail: str = ""
    rel_err: Optional[float] = None      # worst relative error vs a closed form
    found: Optional[int] = None          # bound states found ...
    exact: Optional[int] = None          # ... and the exact number


def count(got: int, want: int, what: str = "count") -> Verdict:
    """Exact count check."""
    got, want = int(got), int(want)
    if got == want:
        return Verdict(True, f"{what} {got}")
    return Verdict(False, f"{what} {got}, exact {want}")


def states(found: int, exact: int) -> Verdict:
    """Bound-state count check; also feeds the found/exact ratio."""
    v = count(found, exact, "states")
    v.found, v.exact = int(found), int(exact)
    return v


def close(got, ref, rtol: float, what: str = "value") -> Verdict:
    """Relative agreement of each value with its reference, within rtol."""
    got = [float(g) for g in _seq(got)]
    ref = [float(r) for r in _seq(ref)]
    if len(got) != len(ref):
        return Verdict(False, f"{what}: {len(got)} values, reference has {len(ref)}")
    worst = 0.0
    for g, r in zip(got, ref):
        err = abs(g - r) / abs(r) if r != 0 else abs(g)
        if not math.isfinite(err):
            err = math.inf
        worst = max(worst, err)
    ok = worst <= rtol
    detail = f"{what} rel err {worst:.2e} {'<=' if ok else '>'} {rtol:g}"
    return Verdict(ok, detail, rel_err=worst)


def require(cond: bool, detail: str) -> Verdict:
    return Verdict(bool(cond), detail)


def combine(*verdicts: Verdict) -> Verdict:
    """All checks must pass; errors, found and exact accumulate."""
    out = Verdict(True)
    parts = []
    for v in verdicts:
        out.ok = out.ok and v.ok
        if v.detail:
            parts.append(v.detail)
        if v.rel_err is not None:
            out.rel_err = max(out.rel_err or 0.0, v.rel_err)
        if v.found is not None:
            out.found = (out.found or 0) + v.found
            out.exact = (out.exact or 0) + v.exact
    out.detail = "; ".join(parts)
    return out


def _seq(x):
    try:
        return list(x)
    except TypeError:
        return [x]


@dataclass
class ProblemRecord:
    name: str
    layer: str
    verdict: Optional[Verdict] = None
    error: Optional[str] = None          # exception raised by the library call
    warnings: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.error is not None or self.verdict is None or not self.verdict.ok


class Tally:
    """Per-problem verdicts of one run; a problem fails if any execution fails."""

    def __init__(self, workload: str):
        self.workload = workload
        self.records: dict[str, ProblemRecord] = {}

    def record(self, name: str, layer: str, verdict: Optional[Verdict],
               error: Optional[str], warnings: dict) -> None:
        rec = self.records.get(name)
        if rec is None:
            rec = self.records[name] = ProblemRecord(name, layer, warnings=dict(warnings))
        if rec.error is None and error is not None:
            rec.error = error
        if verdict is not None and (rec.verdict is None or rec.verdict.ok):
            rec.verdict = verdict

    @property
    def attempted(self) -> int:
        return len(self.records)

    def failures(self) -> list[ProblemRecord]:
        return [r for r in self.records.values() if r.failed]

    @property
    def failed(self) -> int:
        return len(self.failures())

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def max_rel_err(self) -> Optional[float]:
        errs = [r.verdict.rel_err for r in self.records.values()
                if r.verdict is not None and r.verdict.rel_err is not None]
        return max(errs) if errs else None

    def unexpected(self) -> list[ProblemRecord]:
        known = KNOWN_DEFECTS.get(self.workload, {})
        return [r for r in self.failures() if r.name not in known]

    @property
    def correct(self) -> bool:
        return not self.unexpected()

    def warning_totals(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.records.values():
            for cat, n in r.warnings.items():
                out[cat] = out.get(cat, 0) + n
        return out

    def states_found_ratio(self) -> Optional[float]:
        found = exact = 0
        for r in self.records.values():
            if r.verdict is not None and r.verdict.exact is not None:
                found += r.verdict.found
                exact += r.verdict.exact
        return found / exact if exact else None

    def layer_failures(self, layer: str) -> int:
        return sum(1 for r in self.failures() if r.layer == layer)

    def report_lines(self) -> list[str]:
        known = KNOWN_DEFECTS.get(self.workload, {})
        lines = []
        for r in self.failures():
            why = r.error if r.error is not None else (
                r.verdict.detail if r.verdict is not None else "not checked")
            tag = "known defect" if r.name in known else "UNEXPECTED"
            lines.append(f"FAIL {r.name} ({tag}): {why}")
        return lines
