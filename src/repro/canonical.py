"""Canonical JSON and its SHA-256: the one content identity every digest uses.

Memo databases, run reports, fault schedules, sweep cache keys, scaling
reports and the sanitizer's determinism check all serialize through
:func:`canonical_json` and hash through :func:`sha256_hex`, so two
processes describing the same content agree byte for byte.  This module
imports nothing from :mod:`repro`, so any layer can use it without an
import cycle.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_hex(text: str) -> str:
    """SHA-256 hex digest of a string (process-independent, unlike hash())."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
