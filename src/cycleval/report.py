"""Structured, deterministic experiment reports.

A run produces one ValuationReport: per-suite entries with values, residuals
and tolerances, an environment block, and an overall verdict.  Serialization
is canonical (sorted keys, no timestamps), so identical configurations yield
byte-identical report files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class SuiteEntry:
    name: str
    passed: bool
    residual: Optional[float] = None
    tolerance: Optional[float] = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"name": self.name, "pass": bool(self.passed)}
        if self.residual is not None:
            out["residual"] = float(self.residual)
        if self.tolerance is not None:
            out["tolerance"] = float(self.tolerance)
        if self.details:
            out["details"] = _plain(self.details)
        return out


# -- the verdict rule: every entry whose verdict is a gap within a tolerance


def scale_of(values, floor: float = 1.0) -> float:
    """max(floor, largest |value|); the reference for relative tolerances."""
    return max(floor, max((abs(float(v)) for v in values), default=0.0))


def largest(gaps) -> float:
    """The largest of ``gaps``, 0 for none; NaN if one is NaN, which ``max``
    may skip, so that the rule fails it."""
    gaps = list(gaps)
    return float("nan") if any(g != g for g in gaps) else max(gaps, default=0.0)


def within(gap, tol: float, scale: float = 1.0, strict: bool = False) -> bool:
    """gap <= tol * scale, or gap < tol * scale when ``strict``."""
    return gap < tol * scale if strict else gap <= tol * scale


def gap_entry(name: str, gap, tol: float, scale: float = 1.0, *, strict: bool = False,
              also: bool = True, details: Optional[dict] = None) -> SuiteEntry:
    """The entry of ``gap`` judged by :func:`within`: it passes when the rule
    and its extra condition ``also`` hold, and its residual is gap / scale."""
    return SuiteEntry(name, within(gap, tol, scale, strict) and also,
                      gap / scale, tol, details or {})


def exact_entry(name: str, ok: bool, details: Optional[dict] = None) -> SuiteEntry:
    """The entry of an exact pass/fail check."""
    return SuiteEntry(name, ok, 0.0 if ok else None, 0.0, details or {})


def _plain(obj):
    from fractions import Fraction

    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, float, str)):
        return obj
    if hasattr(obj, "item"):
        return obj.item()
    return str(obj)


@dataclass
class SuiteResult:
    suite: str
    entries: list
    seconds: float

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_dict(self) -> dict:
        # timing lives in the summary text: report.json stays byte-identical
        # across runs of one configuration
        return {
            "suite": self.suite,
            "pass": self.passed,
            "entries": [e.to_dict() for e in self.entries],
        }


@dataclass
class ValuationReport:
    environment: dict
    inputs_digest: str
    suites: list

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def to_dict(self) -> dict:
        return {
            "environment": _plain(self.environment),
            "inputs_digest": self.inputs_digest,
            "overall_pass": self.passed,
            "suites": [s.to_dict() for s in self.suites],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2,
                          allow_nan=False) + "\n"

    def summary_text(self) -> str:
        lines = []
        for s in self.suites:
            status = "PASS" if s.passed else "FAIL"
            lines.append(f"[{status}] {s.suite}  ({len(s.entries)} checks, "
                         f"{s.seconds:.1f}s)")
            for e in s.entries:
                if not e.passed:
                    lines.append(f"    FAILED: {e.name}  "
                                 f"residual={e.residual} tol={e.tolerance} "
                                 f"details={_plain(e.details)}")
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"


def config_digest(config_dict: dict) -> str:
    canon = json.dumps(_plain(config_dict), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()
