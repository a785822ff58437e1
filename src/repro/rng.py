"""A seeded NumPy generator that is built when the first draw asks for it.

A symbolic session simulates shapes, not values: its models, dataset and
dropout layers hold a generator and never draw from it, yet constructing one
imports ``numpy.random`` (~13 ms, once per process — every sweep worker and
every cold child pays it on its first scenario).  :class:`LazyGenerator`
stands where a ``numpy.random.Generator`` is passed and defers both the
import and the construction to the first attribute read, so an eager session
draws exactly the stream ``np.random.default_rng(seed)`` gives it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class LazyGenerator:
    """``np.random.default_rng(seed)``, constructed on first use."""

    def __init__(self, seed: Optional[int] = None):
        self._seed = seed
        self._generator = None

    def __getattr__(self, name: str):
        """Forward a ``Generator`` attribute, building the generator first.

        Reached only for names the stand-in does not have.  Private names are
        never forwarded: ``copy`` and ``pickle`` probe ``__setstate__`` on an
        instance whose ``__init__`` has not run.
        """
        if name.startswith("_"):
            raise AttributeError(name)
        if self._generator is None:
            self._generator = np.random.default_rng(self._seed)
        return getattr(self._generator, name)
