"""Minimal SARIF 2.1.0 serialization of a lint report.

Just enough of the schema for code-scanning UIs: one run, one driver,
rule metadata, and results with logical (module.function) and physical
(repo-relative path, line) locations.  Paths are derived from module
names, never absolute, so output is machine-independent.
"""

from __future__ import annotations

from typing import Dict, List

_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
           "Schemata/sarif-schema-2.1.0.json")

_RULE_DESCRIPTIONS = {
    "scale-complexity": "Effective complexity is superlinear in a scale axis",
    "pil-unsafe-offender": "Offending function cannot be PIL-replaced",
    "nondeterminism": "Nondeterminism source breaks byte-identical replay",
    "lock-held-scale-work": "Scale-dependent work while a declared lock is held",
    "unlocked-access": "Protected structure accessed without its owning lock",
    "complexity-drift": "Inferred complexity disagrees with the declared cost class",
    "undeclared-shared-state": ("Mutable structure reachable from multiple"
                                " processes with no declared or inferred lock"),
    "dead-lock-annotation": ("lock_protects declaration never exercised:"
                             " structure not accessed under the named lock"),
}

_LEVELS = {"error": "error", "warning": "warning", "note": "note"}


def findings_to_sarif_dict(findings, driver: str = "repro-lint",
                           fingerprint_key: str = "reproLint/v1"
                           ) -> Dict[str, object]:
    """SARIF 2.1.0 document for a findings list as a plain dict.

    Shared by ``repro lint`` and ``repro sanitize`` (which reports the
    static shared-state findings under its own driver name).
    """
    used_rules = sorted({f.rule for f in findings})
    rules: List[Dict[str, object]] = [{
        "id": rule,
        "shortDescription": {
            "text": _RULE_DESCRIPTIONS.get(rule, rule),
        },
    } for rule in used_rules]
    rule_index = {rule: i for i, rule in enumerate(used_rules)}
    results: List[Dict[str, object]] = []
    for finding in findings:
        uri = "src/" + finding.module.replace(".", "/") + ".py"
        results.append({
            "ruleId": finding.rule,
            "ruleIndex": rule_index[finding.rule],
            "level": _LEVELS.get(finding.severity, "warning"),
            "message": {"text": finding.message},
            "partialFingerprints": {
                fingerprint_key: finding.fingerprint,
            },
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": uri},
                    "region": {"startLine": finding.lineno},
                },
                "logicalLocations": [{
                    "fullyQualifiedName":
                        f"{finding.module}.{finding.function}",
                }],
            }],
        })
    return {
        "$schema": _SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": driver,
                    "rules": rules,
                },
            },
            "results": results,
        }],
    }


def to_sarif_dict(report) -> Dict[str, object]:
    """SARIF 2.1.0 document for a :class:`~repro.analysis.lint.LintReport`."""
    return findings_to_sarif_dict(report.findings)
