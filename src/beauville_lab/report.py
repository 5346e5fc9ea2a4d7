"""Verification reports with a canonical serialized form.

A report records one named check, its status (verified, refuted or
unsupported), the parameters it ran with, the named assumptions it consumed
and a short witness string.  AXIOMS names every assumption; the engine
calls assume(name) where it uses one, and check_report collects the names
its work assumed.  The JSON rendering is byte-stable: reports are
sorted by check name, keys are sorted, and timings are excluded unless
explicitly requested.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

SCHEMA_VERSION = 1
STATUSES = ("verified", "refuted", "unsupported")

# (name, holds, witness): one identity of a suite; the witness says why a
# failing check failed and is empty when the name says it all
Check = Tuple[str, bool, str]

# the named geometric inputs a check may assume, with what each one says
AXIOMS: Dict[str, str] = {
    "unit-relation": (
        "the g-fold self-intersection of theta pushes forward to g! times "
        "the fundamental class of the base"),
    "theta-power-vanishing": (
        "powers theta^k with k < g push forward to zero along the "
        "g-dimensional fibration"),
    "theta-xi-relation": (
        "a pair of xi2 factors trades against theta for -1/2 times the sum "
        "of the two marked-point psi classes"),
    "alpha2-input": (
        "the decorated boundary contribution in genus 3 is "
        "theta*(psi1+psi2)/480 - xi2^2/8960 in its surviving weight"),
    "alpha0-input": (
        "the decorated boundary contribution in genus 2 is (psi1+psi2)/480 "
        "in its surviving weight"),
    "boundary-self-intersection": (
        "on a family with at most one node the boundary divisor restricts "
        "to itself as minus the sum of the two branch psi classes"),
    "delta2-mumford-g2": (
        "on the integral genus-2 base the square of the boundary divisor "
        "is -1/6 times the pushed stratum class R"),
    "psi-boundary-descent-g2": (
        "on the integral genus-2 base the boundary pushforward of psi1+psi2 "
        "is 1/12 times the pushed stratum class R"),
    "psi-sum-nonvanishing-M22": (
        "the boundary pushforward of psi1+psi2 is nonzero on the genus-3 "
        "base"),
    "bsz-psi-square-nonvanishing": (
        "the boundary pushforward of (psi1+psi2)^2 is nonzero on the base "
        "for genus at least 4"),
    "h3-M3-vanishing": (
        "the genus-3 base has no odd cohomology in degree 3, so the "
        "obstruction class is controlled by its boundary part"),
    "h2-span-theta-kappa": (
        "over smooth curves every divisor class on the family is a "
        "combination of theta, kappa1 and classes pulled back from the "
        "base"),
    "boundary-irreducibility": (
        "the boundary of the moduli of curves with at most one node is "
        "irreducible, so a single coefficient b governs the extension"),
    "kappa1-nonzero": (
        "kappa1 is nonzero on the base of the smooth-curve family"),
    "delta-nonzero": (
        "the boundary divisor class is nonzero on the base"),
    "r-int-nonzero": (
        "the pushed stratum class R is nonzero on the integral genus-2 "
        "base"),
    "z-identification": (
        "the two mixed point-times-section cycles on the fiber square are "
        "identified"),
    "relbv-axiom": (
        "the relative Beauville-Voisin expression on the fiber triple "
        "product vanishes"),
    "bv-absolute-relation": (
        "the absolute Beauville-Voisin relation: the small diagonal equals "
        "the sum of its distinguished-point corrections on the triple "
        "product"),
}

# the name sets of the open assumption scopes, outermost first
_SCOPES: ContextVar[Tuple[Set[str], ...]] = ContextVar("assumption_scopes", default=())


def assume(name: str) -> None:
    """Record that the running work uses the named axiom, in every open scope."""
    if name not in AXIOMS:
        raise KeyError(f"unknown assumption {name!r}")
    for used in _SCOPES.get():
        used.add(name)


@contextmanager
def assumptions() -> Iterator[Set[str]]:
    """A scope that yields the set of the names assumed inside it; scopes
    nest, and a name assumed in an inner scope also reaches the outer ones."""
    used: Set[str] = set()
    token = _SCOPES.set(_SCOPES.get() + (used,))
    try:
        yield used
    finally:
        _SCOPES.reset(token)


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
                 params: Optional[Dict[str, object]] = None) -> Report:
    """Run and time work() in one assumption scope and report on the checks
    it returns: refuted with the first four failures, each named once, or
    verified with the number of identities.  The report assumes what work()
    assumed.  work() may also return (checks, fields), where the dict sets
    params or a verified witness that only the work knows."""
    start = time.perf_counter()
    with assumptions() as used:
        outcome = work()
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    checks, found = outcome if isinstance(outcome, tuple) else (outcome, {})
    fields = {"params": params or {}, "witness": f"{len(checks)} identities hold", **found}
    bad = [f"{name}: {why}" if why else name
           for name, holds, why in checks if not holds]
    if bad:
        fields["witness"] = "; ".join(bad[:4])
    return Report(check=check, status="refuted" if bad else "verified",
                  assumptions=sorted(used), elapsed_ms=elapsed_ms, **fields)


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
