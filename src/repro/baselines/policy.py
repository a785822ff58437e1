"""Harness binding for :class:`~repro.swap.policies.MemoryPolicy`.

The policy classes, the registry and ``get_policy`` live in
:mod:`repro.swap.policies`.  This module only keeps the import path the
frozen benchmark harness resolves — ``bench/spans.py`` wraps
``repro.baselines.policy.MemoryPolicy.evaluate`` on every subclass — and
nothing in ``src/`` imports it; the next benchmark PR repoints that span row
at ``repro.swap.policies.MemoryPolicy`` and deletes this file.
"""

from ..swap.policies import MemoryPolicy

__all__ = ["MemoryPolicy"]
