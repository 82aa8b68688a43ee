"""On-disk result cache for the sweep engine.

Layout (under the cache root, default ``.repro-cache/``)::

    .repro-cache/
        results/
            <fp[:2]>/<fingerprint>.json    one cached scenario outcome

Each file is a small JSON envelope ``{"version", "fingerprint",
"outcome"}``.  Fingerprints already cover the case content, the query and
a hash of the package sources (see :mod:`repro.runner.spec`), so cache
invalidation is automatic: any relevant change produces a different key
and the stale file is simply never read again.

Writes are atomic (temp file + ``os.replace``) so concurrent sweeps
sharing a cache directory can never observe torn files; corrupt or
foreign files are treated as misses.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from repro.runner.spec import CACHE_FORMAT_VERSION, code_fingerprint

DEFAULT_CACHE_DIR = ".repro-cache"

#: bounded-retry policy for degradable cache writes: a transient disk
#: hiccup (NFS blip, momentary ENOSPC while another sweep compacts) gets
#: ``WRITE_RETRIES`` more attempts with exponentially growing, jittered
#: pauses before the write degrades to ``cache_write_error``.
WRITE_RETRIES = 2
WRITE_BACKOFF_SECONDS = 0.05


class ResultCache:
    """JSON file cache keyed by scenario fingerprint."""

    def __init__(self, root=DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)

    def _path(self, fingerprint: str) -> Path:
        return self.root / "results" / fingerprint[:2] / \
            f"{fingerprint}.json"

    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The cached outcome dict, or None on any kind of miss."""
        path = self._path(fingerprint)
        try:
            with open(path) as handle:
                envelope = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(envelope, dict) \
                or envelope.get("version") != CACHE_FORMAT_VERSION \
                or envelope.get("fingerprint") != fingerprint:
            return None
        outcome = envelope.get("outcome")
        return outcome if isinstance(outcome, dict) else None

    def put(self, fingerprint: str, outcome: Dict[str, Any]) -> None:
        path = self._path(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        # The code fingerprint is *prunability* metadata, not a lookup
        # key: the fingerprint key already embeds it, so stale entries
        # are simply unreachable — but only this field lets ``prune()``
        # tell a dead version's entry from a live one.
        envelope = {
            "version": CACHE_FORMAT_VERSION,
            "fingerprint": fingerprint,
            "code": code_fingerprint(),
            "outcome": outcome,
        }
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(envelope, handle, indent=1)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def try_put(self, fingerprint: str, outcome: Dict[str, Any],
                retries: int = WRITE_RETRIES,
                backoff_seconds: float = WRITE_BACKOFF_SECONDS,
                sleep: Callable[[float], None] = time.sleep
                ) -> Optional[str]:
        """Like :meth:`put` but degrades I/O failure to an error string.

        The sweep engine and the analysis-service workers checkpoint
        every finished outcome through this: a full disk or permission
        problem must not abort a long sweep, only cost it the checkpoint
        (reported per-outcome in the trace).  Transient failures get
        ``retries`` further attempts first, spaced by exponential backoff
        with deterministic jitter (seeded from the fingerprint, so runs
        are reproducible); only then does the write degrade.
        """
        jitter = random.Random(fingerprint or None)
        last: Optional[OSError] = None
        for attempt in range(retries + 1):
            try:
                self.put(fingerprint, outcome)
                return None
            except OSError as exc:
                last = exc
                if attempt < retries:
                    delay = backoff_seconds * (2 ** attempt)
                    sleep(delay * (0.5 + jitter.random()))
        return f"{type(last).__name__}: {last}"

    def prune(self) -> Dict[str, int]:
        """Drop entries no current fingerprint can ever reference.

        Long-lived fleets sharing one ``.repro-cache`` accumulate dead
        versions: every code or format change rewrites the fingerprint
        keys, stranding the old files forever.  An entry is stale when
        its envelope pins a different cache-format version or a
        different ``repro`` code fingerprint than the running install —
        or when it is unreadable/foreign.  Entries written before the
        fingerprint joined the envelope are stale by construction (their
        keys embed an older code hash).

        Returns ``{"scanned", "removed", "kept", "reclaimed_bytes"}``.
        Concurrently-vanishing files are skipped, so live sweeps sharing
        the cache are safe.
        """
        results = self.root / "results"
        stats = {"scanned": 0, "removed": 0, "kept": 0,
                 "reclaimed_bytes": 0}
        if not results.is_dir():
            return stats
        code = code_fingerprint()
        for path in sorted(results.rglob("*.json")):
            stats["scanned"] += 1
            stale = False
            try:
                size = path.stat().st_size
                with open(path) as handle:
                    envelope = json.load(handle)
            except OSError:
                continue                    # vanished mid-scan: skip
            except json.JSONDecodeError:
                stale = True                # unreadable: reclaim
                envelope = {}
            if not stale:
                stale = not isinstance(envelope, dict) \
                    or envelope.get("version") != CACHE_FORMAT_VERSION \
                    or envelope.get("code") != code
            if not stale:
                stats["kept"] += 1
                continue
            try:
                path.unlink()
            except OSError:
                continue
            stats["removed"] += 1
            stats["reclaimed_bytes"] += size
        return stats

    def clear(self) -> int:
        """Remove all cached results; returns the number removed."""
        results = self.root / "results"
        removed = 0
        if not results.is_dir():
            return 0
        for path in results.rglob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
