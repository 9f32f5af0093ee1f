"""On-disk result store: sweeps resume across processes.

A :class:`ResultStore` is a directory of JSON files, one per simulated
configuration, named by its run key
(:meth:`~repro.sim.config.SimulationConfig.cache_key`, a digest of the
configuration's canonical serialised form).  The
:class:`~repro.sim.engine.SimEngine` consults the store before computing
a run and writes every fresh result back, so a killed or re-invoked
sweep only simulates the configurations it has not seen —
the cross-product evaluations of the paper (16 benchmarks x 6 policies x
nodes x subarray sizes) become restartable.

The files are plain :meth:`~repro.sim.metrics.RunResult.to_dict` JSON, so
they double as a machine-readable archive of every run.

Concurrent-writer safety: the store is **per-key files with atomic
publication** — each result is written to a unique temporary file in the
store directory (``mkstemp``), flushed and fsynced, then ``os.replace``'d
into place.  Readers therefore only ever see a missing file or a
complete JSON document, never an interleaving of two writers, even when
several engine or service processes hammer the same directory; when two
processes race on one key the results are bit-identical by construction
(runs are deterministic), so last-writer-wins is harmless.

Read-side integrity: every entry written by :meth:`ResultStore.put`
carries a SHA-256 digest of its canonical payload.  Reads verify it
(entries from older stores without a digest are accepted unverified);
an unparseable or digest-mismatched entry is **quarantined** — renamed
to ``<key>.json.corrupt`` so it stops matching the ``*.json`` globs —
counted in ``stats["corrupt_entries"]``, and reported as a miss.  A
corrupt file therefore never raises out of a lookup and never satisfies
one either: the entry is simply recomputed and rewritten.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
import threading
import time
from hashlib import sha256
from pathlib import Path
from typing import Dict, Optional, Union

from repro import faults

from .config import SimulationConfig
from .metrics import RunResult

__all__ = ["ResultStore"]

log = logging.getLogger("repro.store")


def _payload_digest(payload: dict) -> str:
    """SHA-256 over the canonical JSON of the non-digest fields."""
    body = {key: value for key, value in payload.items() if key != "sha256"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()


class ResultStore:
    """Persist :class:`RunResult` objects under their run keys."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._stats_lock = threading.Lock()
        #: Integrity counters; ``corrupt_entries`` feeds ``/v1/metrics``.
        self.stats: Dict[str, int] = {"corrupt_entries": 0}

    # ------------------------------------------------------------------
    @staticmethod
    def key_for(config: SimulationConfig) -> str:
        """The key ``config`` is stored under: its run key."""
        return config.cache_key()

    def _key_path(self, key: str) -> Path:
        # Keys are hex digests; reject anything that could traverse out
        # of the store directory (the service exposes key lookups over
        # HTTP, so this is an input-validation boundary, not paranoia).
        if not key or not all(c in "0123456789abcdef" for c in key):
            raise ValueError(f"malformed result key: {key!r}")
        return self.directory / f"{key}.json"

    def _quarantine(self, path: Path, reason: str) -> None:
        """Sideline a corrupt entry as ``<name>.corrupt`` and count it.

        The sidecar suffix takes the file out of the ``*.json``
        namespace, so a corrupt entry disappears from the store's view
        while staying on disk for a post-mortem.  Rename failures are
        swallowed — quarantine is best-effort; the read already returned
        a miss.
        """
        with self._stats_lock:
            self.stats["corrupt_entries"] += 1
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:
            pass
        log.warning("quarantined corrupt store entry %s (%s)", path.name, reason)

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[RunResult]:
        """The stored result under ``key`` (a run key), or ``None``."""
        payload = self.get_payload(key)
        if payload is None:
            return None
        try:
            return RunResult.from_dict(payload["result"])
        except (KeyError, TypeError, ValueError):
            return None

    def get_payload(self, key: str) -> Optional[dict]:
        """The raw stored ``{"config":..., "result":...}`` payload for a key.

        Returns ``None`` for an absent key, an unreadable file, or a
        corrupt entry.  Corruption — truncated JSON from a torn write,
        a non-object document, or a payload whose ``sha256`` digest no
        longer matches its content — quarantines the file (see
        :meth:`_quarantine`) and reads as a miss, so a damaged entry is
        recomputed and overwritten instead of poisoning the caller.
        """
        with faults.site("store.get", key=key) as hit:
            if hit is not None:
                if hit.action == "slow":
                    time.sleep(hit.delay)
                elif hit.action == "error":
                    return None  # an unreadable file is a miss, not an error
            path = self._key_path(key)
            try:
                text = path.read_text()
            except (FileNotFoundError, OSError):
                return None
            try:
                payload = json.loads(text)
            except ValueError:
                self._quarantine(path, "unparseable JSON")
                return None
            if not isinstance(payload, dict):
                self._quarantine(path, "not a JSON object")
                return None
            stored_digest = payload.get("sha256")
            if stored_digest is not None and stored_digest != _payload_digest(payload):
                self._quarantine(path, "digest mismatch")
                return None
            return payload

    def put(self, config: SimulationConfig, result: RunResult) -> None:
        """Persist ``result`` for ``config``.

        Atomic against concurrent readers *and* writers: the payload is
        staged in a unique temp file, flushed and fsynced, then renamed
        over the key's path in one step — two processes writing the same
        key can interleave freely without a reader ever seeing partial
        JSON.  The payload carries its own SHA-256 digest for read-side
        verification.
        """
        path = self._key_path(config.cache_key())
        with faults.site("store.put", key=path.stem) as hit:
            payload = {"config": config.to_dict(), "result": result.to_dict()}
            payload["sha256"] = _payload_digest(payload)
            if hit is not None:
                if hit.action == "slow":
                    time.sleep(hit.delay)
                elif hit.action == "error":
                    raise OSError(f"injected fault: store.put of {path.name}")
                elif hit.action == "torn":
                    # A crash mid-write with no atomic rename: the final
                    # path holds half a document.  Reads must quarantine it.
                    text = json.dumps(payload)
                    path.write_text(text[: max(1, len(text) // 2)])
                    return
                elif hit.action == "corrupt":
                    # Bit-rot: valid JSON whose digest no longer matches.
                    payload["sha256"] = "0" * 64
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.directory), prefix=path.stem, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(payload, handle)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
