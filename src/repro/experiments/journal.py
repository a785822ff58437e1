"""Per-run sweep journal: crash-safe record of completed/failed scenarios.

A sweep interrupted by Ctrl-C, an OOM-killed parent or a machine reboot
should not have to redo finished work.  The content-addressed result cache
already makes *completed* scenarios free to re-serve; what it cannot say is
which scenarios already **failed deterministically** (an infeasible
capacity, a mis-configured model) — re-running those burns the whole retry
budget again on every restart.  The journal records both.

Layout
------
``<cache_dir>/journals/<run_id>.json`` where ``run_id`` is a content hash
of the sorted scenario keys (plus the result-schema version), so the same
grid — however it was expanded, whatever order — resumes from the same
journal, and two different grids never collide.  Every record is flushed
through the :class:`~repro.experiments.artifacts.ArtifactStore` of the
``journals/`` directory (atomic publish), so an interrupt at any instant
leaves a valid journal describing a prefix of the run; an unparseable
journal is quarantined there and the run starts from an empty one.

Semantics on ``--resume``
-------------------------
* ``completed`` entries are *advisory*: the scenario is normally served by
  the result cache; if its cache entry is missing or was quarantined, the
  scenario re-runs (data wins over bookkeeping).
* ``failed`` entries with kind ``deterministic`` are skipped outright and
  surfaced again in the failure manifest (marked ``resumed``) — retrying
  them cannot change the outcome.
* ``failed`` entries with kind ``transient`` re-run with a fresh retry
  budget: the fault that killed them (worker crash, timeout) may be gone.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

from .artifacts import ArtifactStore, as_store

#: Subdirectory of the sweep cache holding run journals.
JOURNALS_DIR = "journals"

#: Version of the journal layout; bump to discard stale journals.
JOURNAL_SCHEMA_VERSION = 1


def run_id_for_keys(keys: Sequence[str], schema_version: int) -> str:
    """Deterministic run identity: a hash of the sorted scenario keys."""
    digest = hashlib.sha256()
    digest.update(f"journal-v{JOURNAL_SCHEMA_VERSION}-r{schema_version}".encode())
    for key in sorted(keys):
        digest.update(key.encode("ascii"))
    return digest.hexdigest()[:16]


def clear_journals(cache: ArtifactStore) -> int:
    """Delete every run journal beside the result cache ``cache``; returns how many."""
    return cache.sub(JOURNALS_DIR).clear("*.json")


class RunJournal:
    """Atomic on-disk record of one grid's per-scenario outcomes."""

    STATUS_COMPLETED = "completed"
    STATUS_FAILED = "failed"

    def __init__(self, store: ArtifactStore, run_id: str):
        self.store = store
        self.run_id = run_id
        self.path = store.root / f"{run_id}.json"
        #: key -> {"status", "attempts", and for failures "reason"/"kind"}.
        self.entries: Dict[str, Dict[str, object]] = {}

    @classmethod
    def for_keys(cls, cache_dir: Union[ArtifactStore, str, Path],
                 keys: Sequence[str], schema_version: int) -> "RunJournal":
        """The journal for this grid under ``cache_dir`` (loads prior state)."""
        journal = cls(as_store(cache_dir).sub(JOURNALS_DIR),
                      run_id_for_keys(keys, schema_version))
        journal.load()
        return journal

    # -- persistence -------------------------------------------------------------------

    def _parse(self, raw: dict) -> Optional[Dict[str, Dict[str, object]]]:
        if raw.get("schema") != JOURNAL_SCHEMA_VERSION:
            return None  # stale layout: start empty, nothing to quarantine
        if raw.get("run_id") != self.run_id:
            raise ValueError("journal run-id mismatch")
        return {str(k): dict(v) for k, v in raw["entries"].items()}

    def load(self) -> "RunJournal":
        """Read prior entries (stale → empty; corrupt → quarantined, empty)."""
        self.entries = self.store.read_json(self.path.name, "journal_corrupt",
                                            self._parse) or {}
        return self

    def flush(self) -> None:
        """Atomically publish the journal through the artifact store."""
        self.store.publish_json(self.path.name, {
            "schema": JOURNAL_SCHEMA_VERSION,
            "run_id": self.run_id,
            "entries": self.entries,
        }, pretty=True)

    # -- recording ---------------------------------------------------------------------

    def record_completed(self, key: str, attempts: int) -> None:
        """Mark one scenario finished (flushed immediately for crash safety)."""
        self.entries[key] = {"status": self.STATUS_COMPLETED,
                             "attempts": int(attempts)}
        self.flush()

    def record_failed(self, key: str, reason: str, kind: str,
                      attempts: int) -> None:
        """Mark one scenario failed with its taxonomy verdict (flushed)."""
        self.entries[key] = {"status": self.STATUS_FAILED, "reason": str(reason),
                             "kind": str(kind), "attempts": int(attempts)}
        self.flush()

    # -- queries -----------------------------------------------------------------------

    def completed(self, key: str) -> bool:
        """Whether ``key`` finished successfully in a prior (or this) run."""
        entry = self.entries.get(key)
        return bool(entry) and entry.get("status") == self.STATUS_COMPLETED

    def deterministic_failure(self, key: str) -> Optional[Dict[str, object]]:
        """The prior deterministic-failure entry for ``key``, if any."""
        entry = self.entries.get(key)
        if entry and entry.get("status") == self.STATUS_FAILED \
                and entry.get("kind") == "deterministic":
            return dict(entry)
        return None
