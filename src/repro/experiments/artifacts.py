"""The one on-disk artifact discipline under the sweep engine's files.

Everything a sweep leaves behind — result-cache entries, run journals, the
template store's ``.npz`` archives — is published, read, quarantined and
cleared by :class:`ArtifactStore`, one directory per store:

* **Publish** writes to a pid-unique hidden temp name and ``os.replace``s it
  over the final name, so a reader never sees a torn file and two processes
  publishing the same name never share a temp.  The steady state is those
  two steps and nothing else: the directory is created when a write finds it
  missing, the temp is unlinked only when the write or the replace failed.
* **Append** adds whole lines to an artifact that was published before (a
  line log: the run journal) in one ``O_APPEND`` write — no temp, no
  replace, cost independent of the file's size.  A writer killed mid-append
  leaves an unterminated last line and nothing worse.
* **Read** is parse-or-quarantine: a file that does not parse is moved into
  ``<root>/quarantine/`` (bytes preserved for post-mortem, never parsed
  twice) and tallied by artifact kind.  A *stale schema* is not corruption:
  the caller's parser, which owns its schema integer, returns ``None`` for
  it and the read is a plain miss.  Neither is a line log's torn tail: the
  client's parser is handed the unterminated remainder apart from the whole
  lines and decides.
* **I/O errors** are tallied, never raised: losing an artifact costs a
  recomputation next run, aborting the sweep would discard finished work.
* **Durability** is that of the page cache: what was published or appended
  survives the process, not a power cut (nothing is ``fsync``ed).

Sub-stores (``journals/``, ``templates/``; :meth:`ArtifactStore.sub`) share
the parent's tallies and fault plan: a runner reads them from one place.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from contextlib import suppress
from pathlib import Path
from typing import Callable, Optional, Union

#: Subdirectory (beside the artifacts) holding corrupt files moved aside.
QUARANTINE_DIR = "quarantine"

#: Exceptions that mean "this file's content is malformed" during a read.
_MALFORMED = (ValueError, KeyError, TypeError, AttributeError)

_decode_text = json.JSONDecoder().decode


def _decode_json(raw: bytes):
    """``json.loads`` of a UTF-8 artifact, without its encoding detection."""
    return _decode_text(raw.decode())


def _split_lines(raw: bytes):
    return raw.split(b"\n")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


class ArtifactStore:
    """One directory of atomically published artifacts plus its quarantine."""

    def __init__(self, root: Union[str, Path], fault_plan=None):
        self.root = Path(root)
        #: ``root`` with a trailing separator: an artifact's path is
        #: ``_prefix + name``, no ``Path`` is built per read, publish or append.
        self._prefix = os.path.join(self.root, "")
        #: Optional ``FaultPlan`` whose storage faults :meth:`inject_fault` applies.
        self.fault_plan = fault_plan
        #: Corrupt artifacts moved aside, by artifact kind (``cache_corrupt``,
        #: ``template_corrupt``, ``journal_corrupt``).
        self.quarantined: Counter = Counter()
        #: Swallowed ``OSError``s, by operation (``read``/``write``/``clear``).
        self.io_errors: Counter = Counter()

    def sub(self, name: str) -> "ArtifactStore":
        """The store of subdirectory ``name`` (shares tallies and fault plan)."""
        child = ArtifactStore(self.root / name, self.fault_plan)
        child.quarantined, child.io_errors = self.quarantined, self.io_errors
        return child

    def publish(self, name: str, write: Callable[[str], None]) -> Optional[str]:
        """Atomically publish ``name`` from ``write(temp_path)``.

        Returns the path (``None`` when an ``OSError`` was swallowed);
        whatever ``write`` raises, no temp file is left behind.
        """
        path = self._prefix + name
        temporary = f"{self._prefix}.{name}.{os.getpid()}.tmp"
        try:
            try:
                try:
                    write(temporary)
                except FileNotFoundError:  # the store's first artifact: no directory yet
                    self.root.mkdir(parents=True, exist_ok=True)
                    write(temporary)
                os.replace(temporary, path)
            except BaseException:
                with suppress(OSError):
                    os.unlink(temporary)
                raise
        except OSError:
            self.io_errors["write"] += 1
            return None
        return path

    def publish_text(self, name: str, text: str) -> Optional[str]:
        """Atomically publish ``text`` (UTF-8) as ``name``."""
        return self.publish(name, lambda temporary: _write_text(temporary, text))

    def publish_json(self, name: str, payload) -> Optional[str]:
        """Atomically publish ``payload`` as JSON."""
        return self.publish_text(name, json.dumps(payload))

    def append(self, name: str, data: bytes) -> bool:
        """Append ``data`` to the *published* artifact ``name`` in one write.

        ``O_APPEND`` without ``O_CREAT``: concurrent appenders interleave
        whole calls, never bytes, and a file that vanished is an error, not
        a new headerless log.  ``False`` when an ``OSError`` (a short write
        included) was swallowed: the caller publishes the file over.
        """
        try:
            descriptor = os.open(self._prefix + name, os.O_WRONLY | os.O_APPEND)
            try:
                if os.write(descriptor, data) != len(data):
                    raise OSError(f"short append to {name}")
            finally:
                os.close(descriptor)
        except OSError:
            self.io_errors["write"] += 1
            return False
        return True

    def _read(self, name: str, kind: str, decode: Callable[[bytes], object],
              parse: Callable):
        try:
            with open(self._prefix + name, "rb") as handle:
                return parse(decode(handle.read()))
        except FileNotFoundError:
            return None
        except OSError:
            self.io_errors["read"] += 1
        except _MALFORMED:
            self.quarantine(name, kind)
        return None

    def read_json(self, name: str, kind: str, parse: Callable):
        """``parse(json)`` of artifact ``name``; ``None`` on any kind of miss.

        ``parse`` returns ``None`` for a stale schema (a plain miss) and
        raises for malformed content; that, like undecodable JSON, is
        corruption: the file is quarantined under ``kind``.
        """
        return self._read(name, kind, _decode_json, parse)

    def read_lines(self, name: str, kind: str, parse: Callable):
        """``parse(lines)`` of line log ``name``, under :meth:`read_json`'s contract.

        ``lines`` is the file split at newlines, so its last element is the
        unterminated tail: empty unless a writer was killed mid-append.
        """
        return self._read(name, kind, _split_lines, parse)

    def quarantine(self, name: str, kind: str) -> None:
        """Move corrupt artifact ``name`` into ``quarantine/``, tallied by ``kind``.

        Falls back to unlinking when even the move fails, so the bad bytes
        can never be half-parsed twice.
        """
        path = self.root / name
        try:
            (self.root / QUARANTINE_DIR).mkdir(parents=True, exist_ok=True)
            os.replace(path, self.root / QUARANTINE_DIR / name)
        except OSError:
            with suppress(OSError):
                path.unlink()
        self.quarantined[kind] += 1

    def inject_fault(self, kind: str, name: str) -> None:
        """Post-publish fault hook: let the plan corrupt ``name`` (no-op without one)."""
        if self.fault_plan is not None:
            self.fault_plan.corrupt_artifact(kind, Path(name).stem, self.root / name)

    def clear(self, *patterns: str) -> int:
        """Delete the artifacts matching ``patterns``; returns how many.

        Orphaned temp files (a writer killed before its ``os.replace``) and
        the quarantine's contents go too, uncounted.
        """
        removed = self._unlink(self.root, patterns)
        self._unlink(self.root, (".*.tmp",))
        self._unlink(self.root / QUARANTINE_DIR, ("*",))
        return removed

    def _unlink(self, directory: Path, patterns) -> int:
        removed = 0
        for pattern in patterns:
            for path in directory.glob(pattern):
                try:
                    if path.is_file():
                        path.unlink()
                        removed += 1
                except OSError:
                    self.io_errors["clear"] += 1
        return removed


def as_store(root: Union[ArtifactStore, str, Path]) -> ArtifactStore:
    """``root`` itself when it already is a store, else a fresh store there."""
    return root if isinstance(root, ArtifactStore) else ArtifactStore(root)
