"""Diagnostic records shared by every static checker.

The static verification layer (:mod:`repro.analysis.statics`, the program
validator, and :mod:`repro.lint`) reports findings as uniform
:class:`Diagnostic` records instead of raising on the first problem: a
checker runs to completion, the caller decides what severity is fatal.
This module lives in :mod:`repro.core` — below programs/machines/analysis
in the layering — so every producer can import it without cycles.

A diagnostic has

* a **code** — stable, grep-able identifier (``PRG003``, ``PROT001``,
  ``MCH002``, ``LNT004``, …; the full table lives in DESIGN.md §11),
* a **severity** — ``error`` (the artifact is broken or an engine
  invariant failed), ``warning`` (almost certainly unintended: dead code,
  unwritten registers) or ``info`` (structural facts worth surfacing:
  inert states, swap components),
* a **location** — target name plus a free-form path within it
  (``"Main/stmt[2]"``, ``"transition (a, b -> c, d)"``, ``"pool.py:61"``),
* a **message**, and optional structured ``data`` (JSON-safe).

Everything is JSON-serialisable (:meth:`Diagnostic.to_dict` /
:func:`diagnostics_to_json`) so check results can be cached by content
fingerprint, attached to provenance manifests, and emitted by
``python -m repro check --json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Severity names in escalation order; index = rank.
SEVERITIES: Tuple[str, ...] = ("info", "warning", "error")

ERROR = "error"
WARNING = "warning"
INFO = "info"


def severity_rank(severity: str) -> int:
    """Rank of a severity for threshold comparisons (unknown → error)."""
    try:
        return SEVERITIES.index(severity)
    except ValueError:
        return len(SEVERITIES) - 1


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static checker."""

    code: str
    severity: str
    message: str
    #: What was checked (protocol/program/machine/file name).
    target: str = ""
    #: Where inside the target (procedure/statement path, transition
    #: repr, instruction address, ``file:line``).
    location: str = ""
    #: Optional structured payload (must stay JSON-safe).
    data: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }
        if self.target:
            out["target"] = self.target
        if self.location:
            out["location"] = self.location
        if self.data:
            out["data"] = dict(self.data)
        return out

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "Diagnostic":
        return cls(
            code=raw["code"],
            severity=raw["severity"],
            message=raw["message"],
            target=raw.get("target", ""),
            location=raw.get("location", ""),
            data=dict(raw.get("data", {})),
        )

    def render(self) -> str:
        """One human-readable line: ``severity CODE target:location message``."""
        where = ":".join(part for part in (self.target, self.location) if part)
        prefix = f"{self.severity:<7} {self.code}"
        return f"{prefix} {where}: {self.message}" if where else f"{prefix} {self.message}"


def max_severity(diagnostics: Iterable[Diagnostic]) -> Optional[str]:
    """The highest severity present, or ``None`` for a clean result."""
    best: Optional[int] = None
    for diag in diagnostics:
        rank = severity_rank(diag.severity)
        if best is None or rank > best:
            best = rank
    return None if best is None else SEVERITIES[best]


def count_by_severity(diagnostics: Iterable[Diagnostic]) -> Dict[str, int]:
    """``{"error": n, "warning": m, "info": k}`` — always all three keys,
    so manifests and JSON output have a stable shape."""
    counts = {severity: 0 for severity in SEVERITIES}
    for diag in diagnostics:
        counts[diag.severity] += 1
    return counts


def at_or_above(
    diagnostics: Iterable[Diagnostic], severity: str
) -> List[Diagnostic]:
    """The findings at or above a severity threshold."""
    floor = severity_rank(severity)
    return [d for d in diagnostics if severity_rank(d.severity) >= floor]


def diagnostics_to_json(diagnostics: Sequence[Diagnostic], **extra: Any) -> str:
    """A deterministic JSON document for a batch of findings."""
    payload: Dict[str, Any] = {
        "diagnostics": [d.to_dict() for d in diagnostics],
        "summary": count_by_severity(diagnostics),
        **extra,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_diagnostics(
    diagnostics: Sequence[Diagnostic], *, limit: Optional[int] = None
) -> str:
    """Render findings one per line, errors first, optionally truncated."""
    ordered = sorted(
        diagnostics, key=lambda d: (-severity_rank(d.severity), d.code, d.target)
    )
    shown = ordered if limit is None else ordered[:limit]
    lines = [d.render() for d in shown]
    if limit is not None and len(ordered) > limit:
        lines.append(f"... and {len(ordered) - limit} more finding(s)")
    return "\n".join(lines)


class DiagnosticError(Exception):
    """Raised by ``raise_on_error`` wrappers; carries the findings."""

    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__(render_diagnostics(self.diagnostics, limit=10))
