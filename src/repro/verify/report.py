"""Findings and reports for the configuration verifier.

Every check in :mod:`repro.verify` produces a :class:`VerifyReport`: the
list of properties it *certified* plus the list of :class:`Finding`
counterexamples for properties it refuted.  Reports render as text for the
CLI and as dictionaries for ``--format json`` / CI consumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["Finding", "VerifyReport"]


@dataclass(frozen=True)
class Finding:
    """One refuted property with its counterexample.

    Attributes:
        check: stable machine-readable identifier (e.g. ``cdg-cycle``,
            ``unhandled-transition``).
        summary: one-line human description.
        details: multi-line counterexample — a routed dependency cycle or a
            message-interleaving trace — already formatted for printing.
    """

    check: str
    summary: str
    details: str = ""

    def render(self) -> str:
        out = f"REFUTED [{self.check}] {self.summary}"
        if self.details:
            out += "\n" + "\n".join(
                "    " + line for line in self.details.splitlines()
            )
        return out

    def to_dict(self) -> Dict[str, str]:
        return {"check": self.check, "summary": self.summary, "details": self.details}


@dataclass
class VerifyReport:
    """Outcome of verifying one subject (a NoC triple or a protocol)."""

    subject: str
    certified: List[str] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def copy(self) -> "VerifyReport":
        """A report equal to this one whose lists can change independently."""
        return VerifyReport(self.subject, list(self.certified), list(self.findings))

    def merge(self, other: "VerifyReport") -> None:
        self.certified.extend(other.certified)
        self.findings.extend(other.findings)

    def render(self) -> str:
        status = "OK" if self.ok else f"FAIL ({len(self.findings)} finding(s))"
        lines = [f"verify: {self.subject}: {status}"]
        for prop in self.certified:
            lines.append(f"  certified: {prop}")
        for finding in self.findings:
            lines.append("  " + finding.render().replace("\n", "\n  "))
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "certified": list(self.certified),
            "findings": [f.to_dict() for f in self.findings],
        }
