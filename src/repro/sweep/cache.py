"""Content-addressed sweep caches: never recompute an unchanged point.

Two stores live under one cache directory:

* ``memo/`` -- persisted :class:`~repro.core.memoization.MemoDB` files,
  one per *recording identity* (bug, scale, seed, chaos schedule, scenario
  params, cost constants).  A ``.digest`` sidecar carries the database's
  content digest so the parent process can form replay cache keys without
  parsing the (potentially large) database;
* ``results/`` -- completed grid-point results, keyed by a SHA-256 over
  (spec point, scenario params, cost constants, memo-DB digest, repro
  version).  Anything that could change the run's outcome is in the key,
  so a hit is safe to trust byte-for-byte and a re-sweep after *any*
  relevant change (new code version, different recording, different fault
  schedule) recomputes exactly the affected points.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional

from ..canonical import atomic_write_text, canonical_json, sha256_hex
from ..core.memoization import MemoDB

#: Bump when the cached result payload changes incompatibly.
CACHE_SCHEMA = 1


def memo_identity_key(identity: Dict[str, Any], params: Dict[str, Any],
                      constants: Dict[str, Any],
                      machine: Optional[Dict[str, Any]] = None) -> str:
    """Identity hash of one basic-colocation recording (not its content)."""
    return sha256_hex(canonical_json({
        "identity": identity,
        "params": params,
        "constants": constants,
        "machine": machine,
    }))


def result_key(point: Dict[str, Any], params: Dict[str, Any],
               constants: Dict[str, Any], memo_digest: str,
               version: str,
               machine: Optional[Dict[str, Any]] = None) -> str:
    """Content-addressed key of one grid-point result.

    ``memo_digest`` is the *content* digest of the recording a PIL replay
    consumes ("" for modes that do not replay): a regenerated recording
    with different bytes yields a different key, so stale replays can
    never be served.
    """
    return sha256_hex(canonical_json({
        "schema": CACHE_SCHEMA,
        "version": version,
        "point": point,
        "params": params,
        "constants": constants,
        "machine": machine,
        "memo_digest": memo_digest,
    }))


class SweepCache:
    """The on-disk result + recording store of one cache directory."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.results_dir = self.root / "results"
        self.memo_dir = self.root / "memo"
        self.hits = 0
        self.misses = 0
        #: Result entries and recordings that existed but were truncated or
        #: damaged (each one recomputed and overwritten).
        self.corrupt = 0
        #: Recordings intact against their sidecar but written by an earlier
        #: format, so they load to other content (each one re-recorded).
        self.stale = 0

    # -- results -------------------------------------------------------------

    def _result_path(self, key: str) -> Path:
        return self.results_dir / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Stored result payload for ``key``, or None.

        An entry that does not decode to an object of this
        :data:`CACHE_SCHEMA` carrying ``result`` (a half-written or
        hand-damaged file) is a miss, counted in ``corrupt``: the caller
        recomputes and :meth:`put` overwrites it.  An entry of another
        schema is damage too, not a stale format: the schema is hashed into
        the key, so no honest entry of another schema sits at this one.
        """
        path = self._result_path(key)
        if path.exists():
            try:
                payload = json.loads(path.read_text())
                if payload.get("schema") == CACHE_SCHEMA:
                    result = payload["result"]
                    self.hits += 1
                    return result
            except (ValueError, AttributeError, KeyError):
                pass  # undecodable JSON / not an object / no "result"
            self.corrupt += 1
        self.misses += 1
        return None

    def put(self, key: str, result: Dict[str, Any],
            point: Optional[Dict[str, Any]] = None) -> None:
        """Store a result payload under ``key`` (atomic replace)."""
        atomic_write_text(self._result_path(key), json.dumps({
            "schema": CACHE_SCHEMA,
            "point": point,
            "result": result,
        }, indent=1, sort_keys=True))

    def __len__(self) -> int:
        if not self.results_dir.exists():
            return 0
        return sum(1 for p in self.results_dir.iterdir()
                   if p.suffix == ".json")

    # -- recordings ----------------------------------------------------------

    def memo_path(self, identity_key: str) -> Path:
        """Where the recording for ``identity_key`` lives (may not exist)."""
        return self.memo_dir / f"{identity_key}.json"

    def memo_digest(self, identity_key: str) -> Optional[str]:
        """Content digest of a persisted recording, or None if absent."""
        sidecar = self.memo_dir / f"{identity_key}.digest"
        if not sidecar.exists() or not self.memo_path(identity_key).exists():
            return None
        return sidecar.read_text().strip()

    def loadable_memo_digest(self, identity_key: str) -> Optional[str]:
        """:meth:`memo_digest`, or None when the recording does not load to
        the content the digest sidecar names.

        Parses the whole database, so it is asked only before a replay that
        will load it anyway.  Such a recording is treated as absent: the
        caller re-records it and the new file overwrites the old one.  It
        is counted ``stale`` when the file is the one its sidecar names (an
        earlier format, which this version reads to other content), and
        ``corrupt`` when it is truncated, damaged or replaced.
        """
        digest = self.memo_digest(identity_key)
        if digest is not None:
            payload = loaded = None
            try:
                payload = json.loads(self.memo_path(identity_key).read_text())
                loaded = MemoDB.from_payload(payload).digest()
            except (ValueError, KeyError, TypeError, AttributeError):
                pass  # undecodable JSON / wrong-shaped document
            if loaded != digest:
                if sha256_hex(canonical_json(payload)) == digest:
                    self.stale += 1
                else:
                    self.corrupt += 1
                return None
        return digest

    def record_memo_digest(self, identity_key: str, digest: str) -> None:
        """Write the digest sidecar for a just-persisted recording."""
        atomic_write_text(self.memo_dir / f"{identity_key}.digest", digest)

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters for reports, plus the ``corrupt`` and
        ``stale`` counts."""
        return {"hits": self.hits, "misses": self.misses,
                "corrupt": self.corrupt, "stale": self.stale}
