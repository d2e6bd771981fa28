"""Canonical JSON and its SHA-256: the one content identity every digest uses.

Memo databases, run reports, fault schedules, sweep cache keys, scaling
reports and the sanitizer's determinism check all serialize through
:func:`canonical_json` and hash through :func:`sha256_hex`, so two
processes describing the same content agree byte for byte.  Files that a
concurrent reader may open (cache entries, persisted recordings) are
written through :func:`atomic_write_text`.  This module imports nothing
from :mod:`repro`, so any layer can use it without an import cycle.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_hex(text: str) -> str:
    """SHA-256 hex digest of a string (process-independent, unlike hash())."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary sibling and
    ``os.replace``, so a concurrent reader never sees a torn file.

    If the write or the rename fails (a full disk, say) the temporary file
    is removed and the error re-raised: ``path`` is left as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
