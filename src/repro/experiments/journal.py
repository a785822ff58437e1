"""Per-run sweep journal: crash-safe record of completed/failed scenarios.

A sweep interrupted by Ctrl-C, an OOM-killed parent or a machine reboot
should not have to redo finished work.  The content-addressed result cache
already makes *completed* scenarios free to re-serve; what it cannot say is
which scenarios already **failed deterministically** (an infeasible
capacity, a mis-configured model) — re-running those burns the whole retry
budget again on every restart.  The journal records both.

Layout
------
``<cache_dir>/journals/<run_id>.jsonl`` where ``run_id`` is a content hash
of the sorted scenario keys (plus the result-schema version), so the same
grid — however it was expanded, whatever order — resumes from the same
journal, and two different grids never collide.  The file is a line log::

    {"schema": 2, "run_id": "<run_id>"}
    {"key": "<scenario key>", "status": "completed", "attempts": 1}
    {"key": "<scenario key>", "status": "failed", "reason": ..., "kind": ..., "attempts": 2}

The header is published atomically; each record after it is one ``O_APPEND``
write through the ``journals/``
:class:`~repro.experiments.artifacts.ArtifactStore`, made the moment the
scenario finishes, so recording costs the same for the first scenario of a
run and the ten-thousandth.  On load the lines replay in order, the last
record of a key winning.  A run that does not resume never reads the file:
it starts it over at its first record.

* **Torn tail** — a final line without its newline is what a kill in the
  middle of an append leaves.  It is dropped (kept, if it still decodes):
  the journal then describes a prefix of the run, all it ever promises.
  Nothing is quarantined; the next record starts the file over (header plus
  every known entry, published atomically) so the fragment never ends up
  mid-log.
* **Corruption** — an undecodable header or line *before* the last, a record
  without a key, a header naming another run: nothing our writer leaves.
  The file is quarantined (bytes preserved) under ``journal_corrupt`` and
  the run starts from an empty journal.
* **Stale schema** — a header with another ``schema`` is a plain miss.
  Schema 1 (one ``<run_id>.json`` document rewritten per record) lives under
  another suffix and run id: never opened, never quarantined, removed by
  ``--clear-cache``.
* **Durability** — a record is with the operating system before ``record_*``
  returns and survives the process (``kill -9`` included).  Nothing is
  ``fsync``ed, now as before: a power cut may lose the last records, which
  costs re-running what they described.

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
import json
from contextlib import suppress
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .artifacts import ArtifactStore, as_store

#: Subdirectory of the sweep cache holding run journals.
JOURNALS_DIR = "journals"

#: Version of the journal layout; bump to discard stale journals.
JOURNAL_SCHEMA_VERSION = 2

#: File suffix of a line-log journal (schema 1 was one ``.json`` document).
JOURNAL_SUFFIX = ".jsonl"


def run_id_for_keys(keys: Sequence[str], schema_version: int) -> str:
    """Deterministic run identity: a hash of the sorted scenario keys."""
    digest = hashlib.sha256()
    digest.update(f"journal-v{JOURNAL_SCHEMA_VERSION}-r{schema_version}".encode())
    for key in sorted(keys):
        digest.update(key.encode("ascii"))
    return digest.hexdigest()[:16]


def clear_journals(cache: ArtifactStore) -> int:
    """Delete every run journal beside the result cache ``cache``; returns how many.

    Schema-1 ``.json`` journals a previous version left behind go too.
    """
    return cache.sub(JOURNALS_DIR).clear(f"*{JOURNAL_SUFFIX}", "*.json")


def _line(record: Dict[str, object]) -> str:
    return json.dumps(record) + "\n"


class RunJournal:
    """Append-only on-disk record of one grid's per-scenario outcomes."""

    STATUS_COMPLETED = "completed"
    STATUS_FAILED = "failed"

    def __init__(self, store: ArtifactStore, run_id: str):
        self.store = store
        self.run_id = run_id
        self.path = store.root / f"{run_id}{JOURNAL_SUFFIX}"
        #: key -> {"status", "attempts", and for failures "reason"/"kind"}.
        self.entries: Dict[str, Dict[str, object]] = {}
        #: Whether the file is known to be this run's header plus whole lines,
        #: i.e. may be appended to; a journal never loaded starts it over.
        self._appendable = False

    @classmethod
    def for_keys(cls, cache_dir: Union[ArtifactStore, str, Path],
                 keys: Sequence[str], schema_version: int) -> "RunJournal":
        """The journal for this grid under ``cache_dir`` (loads prior state)."""
        return cls(as_store(cache_dir).sub(JOURNALS_DIR),
                   run_id_for_keys(keys, schema_version)).load()

    # -- persistence -------------------------------------------------------------------

    def _parse(self, lines: List[bytes]) -> Optional[Tuple[dict, bool]]:
        """``(entries, appendable)`` of a journal file's lines; ``None`` when stale."""
        *whole, tail = lines
        records = [json.loads(line) for line in whole]
        if tail:  # a kill mid-append: the record is whole but for its newline, or lost
            with suppress(ValueError):
                records.append(json.loads(tail))
        if not records:
            raise ValueError("journal has no header")
        header, *records = records
        if header.get("schema") != JOURNAL_SCHEMA_VERSION:
            return None  # stale layout: start empty, nothing to quarantine
        if header.get("run_id") != self.run_id:
            raise ValueError("journal run-id mismatch")
        return {str(record.pop("key")): record for record in records}, not tail

    def load(self) -> "RunJournal":
        """Replay prior records, last one per key winning.

        Stale schema → empty; torn final line → dropped; anything else
        undecodable → quarantined, empty.
        """
        self.entries, self._appendable = self.store.read_lines(
            self.path.name, "journal_corrupt", self._parse) or ({}, False)
        return self

    def flush(self) -> None:
        """Make the file hold every known entry.

        Nothing to do while appends succeed.  When the file may not be
        appended to — the journal was not loaded, :meth:`load` found nothing
        or a torn tail, an append failed — it is started over: header and
        entries, published atomically.
        """
        if not self._appendable:
            records = [{"schema": JOURNAL_SCHEMA_VERSION, "run_id": self.run_id}]
            records += [{"key": key, **entry} for key, entry in self.entries.items()]
            self._appendable = self.store.publish_text(
                self.path.name, "".join(map(_line, records))) is not None

    # -- recording ---------------------------------------------------------------------

    def _record(self, key: str, entry: Dict[str, object]) -> None:
        self.entries[key] = entry
        if self._appendable:
            self._appendable = self.store.append(
                self.path.name, _line({"key": key, **entry}).encode("ascii"))
        self.flush()

    def record_completed(self, key: str, attempts: int) -> None:
        """Mark one scenario finished (on disk before this returns)."""
        self._record(key, {"status": self.STATUS_COMPLETED,
                           "attempts": int(attempts)})

    def record_failed(self, key: str, reason: str, kind: str,
                      attempts: int) -> None:
        """Mark one scenario failed with its taxonomy verdict (on disk likewise)."""
        self._record(key, {"status": self.STATUS_FAILED, "reason": str(reason),
                           "kind": str(kind), "attempts": int(attempts)})

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
