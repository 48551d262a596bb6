"""SARIF 2.1.0 rendering for lint findings (every rule family alike).

One run object, one driver, and the rules of all three families
(SIM1xx, SIM2xx, SIM3xx) whichever ran — named here rather than read
from the import-time :data:`repro.analysis.rules.RULE_CODES` registry,
so the log is the same in every process.  Each result carries
the baseline fingerprint as a ``partialFingerprints`` entry so GitHub
code scanning tracks findings across commits the same way the local
baseline does.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Sequence

from ..arrays.rules import ARRAY_RULES
from ..rules import RULES, Violation
from .baseline import fingerprint_all
from .rules import DEEP_RULES

__all__ = ["render_sarif"]

_SARIF_VERSION = "2.1.0"
#: rule name -> (code, summary) for every family, in every process
_ALL_RULES = {**RULES, **DEEP_RULES, **ARRAY_RULES}

_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _region(v: Violation) -> Dict:
    region: Dict = {"startLine": max(v.line, 1), "startColumn": max(v.col, 1)}
    if v.end_line:
        region["endLine"] = v.end_line
        if v.end_col:
            region["endColumn"] = v.end_col
    return region


def render_sarif(
    violations: Sequence[Violation],
    tool_name: str = "simlint",
    prefix: Optional[str] = None,
) -> str:
    """Serialize findings as a SARIF log (``prefix`` rebases file URIs)."""
    rules = [
        {
            "id": code,
            "name": rule.replace("-", " ").title().replace(" ", ""),
            "shortDescription": {"text": summary},
            "defaultConfiguration": {"level": "error"},
        }
        for rule, (code, summary) in sorted(
            _ALL_RULES.items(), key=lambda item: item[1][0]
        )
    ]
    rule_index = {r["id"]: i for i, r in enumerate(rules)}
    results = []
    for v, fp in zip(violations, fingerprint_all(violations)):
        uri = f"{prefix}{v.path}" if prefix else v.path
        results.append(
            {
                "ruleId": v.code,
                "ruleIndex": rule_index[v.code],
                "level": "error",
                "message": {"text": v.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": uri},
                            "region": _region(v),
                        }
                    }
                ],
                "partialFingerprints": {"simlint/v1": fp},
            }
        )
    log = {
        "$schema": _SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": tool_name,
                        "informationUri": (
                            "https://github.com/paper-repro/repro"
                        ),
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(log, indent=2)
