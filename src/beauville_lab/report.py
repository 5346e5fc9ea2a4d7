"""Verification reports with a canonical serialized form.

A report records one named check, its status (verified, refuted or
unsupported), the parameters it ran with, the named assumptions it consumed
and a short witness string.  The JSON rendering is byte-stable: reports are
sorted by check name, keys are sorted, and timings are excluded unless
explicitly requested.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

SCHEMA_VERSION = 1
STATUSES = ("verified", "refuted", "unsupported")

# (name, holds, witness): one identity of a suite; the witness says why a
# failing check failed and is empty when the name says it all
Check = Tuple[str, bool, str]


@dataclass
class Report:
    check: str
    status: str
    params: Dict[str, object] = field(default_factory=dict)
    assumptions: List[str] = field(default_factory=list)
    witness: str = ""
    elapsed_ms: Optional[float] = None

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")


def check_report(check: str, work: Callable[[], object],
                 params: Optional[Dict[str, object]] = None,
                 assumptions: Sequence[str] = ()) -> Report:
    """Run and time work() and report on the checks it returns: refuted with
    the first four failures, each named once, or verified with the number of
    identities.  work() may also return (checks, fields), where the dict sets
    params, assumptions or a verified witness that only the work knows."""
    start = time.perf_counter()
    outcome = work()
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    checks, found = outcome if isinstance(outcome, tuple) else (outcome, {})
    fields = {"params": params or {}, "assumptions": list(assumptions),
              "witness": f"{len(checks)} identities hold", **found}
    bad = [f"{name}: {why}" if why else name
           for name, holds, why in checks if not holds]
    if bad:
        fields["witness"] = "; ".join(bad[:4])
    return Report(check=check, status="refuted" if bad else "verified",
                  elapsed_ms=elapsed_ms, **fields)


def report_to_dict(report: Report, timings: bool = False) -> Dict[str, object]:
    out = {
        "check": report.check,
        "status": report.status,
        "params": report.params,
        "assumptions": sorted(report.assumptions),
        "witness": report.witness,
    }
    if timings and report.elapsed_ms is not None:
        out["elapsed_ms"] = report.elapsed_ms
    return out


def render_json(reports: Iterable[Report], timings: bool = False) -> str:
    body = {
        "schema_version": SCHEMA_VERSION,
        "reports": [report_to_dict(r, timings)
                    for r in sorted(reports, key=lambda r: r.check)],
    }
    # params hold Fractions, which print as their text
    return json.dumps(body, sort_keys=True, indent=2, default=str)


def render_text(reports: Iterable[Report], timings: bool = False) -> str:
    lines = []
    for r in sorted(reports, key=lambda r: r.check):
        mark = {"verified": "ok", "refuted": "FAIL", "unsupported": "SKIP"}[r.status]
        extra = f" [{r.elapsed_ms:.1f} ms]" if timings and r.elapsed_ms is not None else ""
        witness = f" -- {r.witness}" if r.witness else ""
        lines.append(f"{mark:4s} {r.check}{witness}{extra}")
        if r.assumptions:
            lines.append(f"     assumes: {', '.join(sorted(r.assumptions))}")
    return "\n".join(lines)


def exit_code(reports: Iterable[Report]) -> int:
    return 0 if all(r.status == "verified" for r in reports) else 1
