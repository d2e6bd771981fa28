"""scalebench: the end-to-end + per-layer performance ledger (see README.md)."""

import sys
from pathlib import Path

#: The checkout the benchmark lives in; it measures the ``src/`` beside it.
ROOT = Path(__file__).resolve().parent.parent


def use_checkout_sources() -> None:
    """Put this checkout's ``src/`` first on ``sys.path``, or exit.

    Called by the entry points before they import ``repro``, so that the
    code measured is the checkout's and never an installed copy.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"scalebench: no program to measure at {src}/repro")
    sys.path.insert(0, str(src))
