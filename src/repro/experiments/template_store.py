"""Template store: a directory of content-addressed template archives.

The replay engine persists one ``.npz`` per :class:`TemplateFamily`, named
by the family's structural key (a content hash of the dtype-free config
fingerprint).  The directory *is* the store: a family is held exactly when
its archive exists, so a lookup is one ``is_file`` probe and writers share
nothing but archive names.  Archives are published atomically
(:func:`~repro.experiments.replay.save_family`) through the directory's
:class:`~repro.experiments.artifacts.ArtifactStore`: parallel sweep workers
never read a torn file, and an unreadable one is quarantined, not re-parsed.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Union

from .artifacts import ArtifactStore, as_store
from .replay import TemplateFamily, load_family, save_family

#: Subdirectory of the sweep cache holding the template store.
TEMPLATES_DIR = "templates"


class TemplateStore:
    """Directory of persisted template families, one archive per key.

    ``root`` is the template directory or its artifact store; a store
    carrying a fault plan threads the deterministic fault-injection harness
    in: a ``template_corrupt`` spec overwrites a family's just-published
    ``.npz`` with garbage, exercising the quarantine path the next load takes.
    """

    def __init__(self, root: Union[ArtifactStore, str, Path]):
        self.artifacts = as_store(root)
        self.root = self.artifacts.root

    def path_for(self, key: str) -> Path:
        """Content-addressed archive path for a family key."""
        return self.root / f"{key}.npz"

    def load(self, key: str) -> Optional[TemplateFamily]:
        """The stored family for ``key`` (``None`` on miss).

        A corrupt or key-mismatched file is a miss too (the caller recompiles),
        but its bytes are *quarantined* as ``template_corrupt``, not written over.
        """
        path = self.path_for(key)
        if not path.is_file():
            return None
        family = load_family(path, key=key)
        if family is None:
            self.artifacts.quarantine(path.name, "template_corrupt")
        return family

    def publish(self, family: TemplateFamily) -> Path:
        """Atomically persist ``family``; returns the archive path."""
        path = self.path_for(family.key)
        save_family(family, path)
        self.artifacts.inject_fault("template_corrupt", path.name)
        return path

    def keys(self) -> List[str]:
        """Keys of every stored family, sorted (for inspection/tests)."""
        return sorted(path.stem for path in self.root.glob("*.npz"))

    def clear(self) -> int:
        """Delete every stored family (and the ``.json`` manifest an older
        checkout kept beside them); returns how many files."""
        return self.artifacts.clear("*.npz", "*.json")
