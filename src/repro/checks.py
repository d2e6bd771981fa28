"""One verdict shape for every gating verb: :class:`Checks` and :class:`VerbReport`.

A gate verdict, a self-check and the ``self_check`` block a report embeds
are the same thing: named checks, each passing or failing with one line
of evidence.  ``repro lint``, ``sanitize``, ``hunt``, ``ci`` and
``partition`` all build theirs as :class:`Checks`; ``repro.cli`` prints
them and maps a failed self-check to exit status 2 in one place.
:class:`VerbReport` is the report half of the contract: one
deterministic ``to_json`` and one way to embed and print an attached
self-check.  Standard library only, like :mod:`repro.canonical`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional


def report_json(data: Any) -> str:
    """Deterministic, indented JSON text (byte-comparable across runs)."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


@dataclass
class Checks:
    """``{"check", "ok", "evidence"}`` records; any failure fails them all."""

    checks: List[Dict[str, Any]] = field(default_factory=list)

    def add(self, check: str, ok: bool, evidence: str) -> None:
        """Record one named check with its verdict and evidence line."""
        self.checks.append({"check": check, "ok": bool(ok),
                            "evidence": evidence})

    @property
    def ok(self) -> bool:
        """True when every recorded check passed."""
        return all(check["ok"] for check in self.checks)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self.checks)

    def __len__(self) -> int:
        return len(self.checks)

    def lines(self, label: str) -> List[str]:
        """One ``  <label> ok|FAIL: <check> -- <evidence>`` line per check."""
        return [f"  {label} {'ok' if check['ok'] else 'FAIL'}: "
                f"{check['check']} -- {check['evidence']}"
                for check in self.checks]

    def render(self, label: str = "gate") -> str:
        """The per-check lines plus the overall verdict line."""
        failed = sum(1 for check in self.checks if not check["ok"])
        return "\n".join(self.lines(label) + [
            f"{label} verdict: {'PASS' if self.ok else 'FAIL'} "
            f"({failed} of {len(self.checks)} checks failed)"])


class VerbReport:
    """Mixin for a verb's report: JSON text and an attached self-check.

    A subclass provides ``to_json_dict``.  The CLI attaches the verb's
    self-check to the finished report; ``to_json_dict`` embeds it with
    :meth:`_embed_self_check` and ``to_text`` prints it last with
    :meth:`_self_check_lines`.
    """

    #: The verb's self-check verdicts (None: no self-check ran).
    self_check: Optional[Checks] = None

    def to_json(self) -> str:
        """Deterministic JSON text (byte-comparable across runs)."""
        return report_json(self.to_json_dict())  # type: ignore[attr-defined]

    @property
    def self_check_ok(self) -> bool:
        """True when no self-check ran, or every check passed."""
        return self.self_check is None or self.self_check.ok

    def _embed_self_check(self, data: Dict[str, Any]) -> Dict[str, Any]:
        """``data`` with the self-check records under ``"self_check"``."""
        if self.self_check is not None:
            data["self_check"] = list(self.self_check)
        return data

    def _self_check_lines(self) -> List[str]:
        """The self-check's text lines (none when it did not run)."""
        if self.self_check is None:
            return []
        return self.self_check.lines("self-check")
