"""Template store: a JSON manifest over content-addressed template files.

The replay engine persists one ``.npz`` per :class:`TemplateFamily`, named
by the family's structural key (a content hash of the dtype-free config
fingerprint).  This module fronts that directory with a small manifest,
``index.json``, giving the three properties a shared pool needs:

* **Inventory** — the manifest maps key → file, size and captured dtypes,
  so what the pool holds can be read without opening a single archive.
* **LRU bound** — every publish and load bumps a monotonically increasing
  sequence number; when the pool exceeds ``max_entries`` the
  least-recently-used families are deleted, so long-lived sweep services do
  not grow the template directory without bound.
* **Atomic publish** — both the ``.npz`` (see
  :func:`~repro.experiments.replay.save_family`) and the manifest go through
  the directory's :class:`~repro.experiments.artifacts.ArtifactStore`, so
  parallel sweep workers sharing one cache directory never read a torn
  file, and a corrupt archive or manifest is quarantined, not re-parsed.
  The manifest is advisory: :meth:`load` falls back to probing the
  directory directly, so a stale or missing index degrades to the pre-index
  behavior instead of hiding templates.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Union

from .artifacts import ArtifactStore, as_store
from .replay import TemplateFamily, load_family, save_family

#: Subdirectory of the sweep cache holding the template store.
TEMPLATES_DIR = "templates"

#: Manifest file name inside the template directory.
INDEX_NAME = "index.json"

#: Version of the manifest layout; bump to discard stale manifests (the
#: ``.npz`` files themselves carry their own schema version).
STORE_SCHEMA_VERSION = 1

#: Default LRU bound on stored families.
DEFAULT_MAX_ENTRIES = 64


def _parse_index(raw: dict) -> Optional[dict]:
    if raw.get("schema") != STORE_SCHEMA_VERSION:
        return None  # stale layout: rebuilt from the directory as families load
    if not isinstance(raw["entries"], dict):
        raise ValueError("malformed manifest")
    raw["next_seq"] = int(raw.get("next_seq", 0))
    return raw


class TemplateStore:
    """Directory of persisted template families with a manifest index.

    ``root`` is the template directory or its artifact store; a store
    carrying a fault plan threads the deterministic fault-injection harness
    in: a ``template_corrupt`` spec overwrites a family's just-published
    ``.npz`` with garbage, exercising the quarantine path the next load takes.
    """

    def __init__(self, root: Union[ArtifactStore, str, Path],
                 max_entries: int = DEFAULT_MAX_ENTRIES):
        self.artifacts = as_store(root)
        self.root = self.artifacts.root
        self.max_entries = max_entries

    def path_for(self, key: str) -> Path:
        """Content-addressed archive path for a family key."""
        return self.root / f"{key}.npz"

    # -- manifest ----------------------------------------------------------------

    def read_index(self) -> dict:
        """The manifest, or a fresh empty one when absent/corrupt/stale."""
        return (self.artifacts.read_json(INDEX_NAME, "manifest_corrupt", _parse_index)
                or {"schema": STORE_SCHEMA_VERSION, "entries": {}, "next_seq": 0})

    def _touch(self, index: dict, key: str, entry: Dict) -> None:
        entry["seq"] = index["next_seq"]
        index["next_seq"] += 1
        index["entries"][key] = entry

    # -- load / publish ----------------------------------------------------------

    def load(self, key: str) -> Optional[TemplateFamily]:
        """Load and LRU-touch the stored family for ``key`` (``None`` on miss).

        Corrupt or key-mismatched files are treated as misses so the caller
        recompiles instead of failing — but the bad bytes are *quarantined*
        (tallied as ``template_corrupt`` on the artifact store), not silently
        recompiled over, and the manifest entry is dropped.
        """
        path = self.path_for(key)
        if not path.is_file():
            return None
        family = load_family(path, key=key)
        index = self.read_index()
        if family is None:
            self.artifacts.quarantine(path.name, "template_corrupt")
            if index["entries"].pop(key, None) is None:
                return None
        else:
            self._touch(index, key,
                        index["entries"].get(key) or self._entry_for(path, family))
        self.artifacts.publish_json(INDEX_NAME, index, pretty=True)
        return family

    def publish(self, family: TemplateFamily) -> Path:
        """Atomically persist ``family``, update the manifest (LRU); returns the path."""
        path = self.path_for(family.key)
        save_family(family, path)
        self.artifacts.inject_fault("template_corrupt", path.name)
        index = self.read_index()
        self._touch(index, family.key, self._entry_for(path, family))
        entries = index["entries"]
        while self.max_entries is not None and len(entries) > self.max_entries:
            victim = min(entries, key=lambda k: entries[k].get("seq", -1))
            victim_entry = entries.pop(victim)
            try:
                (self.root / victim_entry.get("file", f"{victim}.npz")).unlink()
            except OSError:
                pass
        self.artifacts.publish_json(INDEX_NAME, index, pretty=True)
        return path

    def _entry_for(self, path: Path, family: TemplateFamily) -> Dict:
        return {
            "file": path.name,
            "bytes": int(path.stat().st_size),
            "dtypes": family.captured_dtypes(),
            "seq": -1,
        }

    def keys(self) -> Dict[str, Dict]:
        """All manifest entries (key → entry), for inspection/tests."""
        return dict(self.read_index()["entries"])

    def clear(self) -> int:
        """Delete every stored family and the manifest; returns how many files."""
        return self.artifacts.clear("*.npz", INDEX_NAME)
