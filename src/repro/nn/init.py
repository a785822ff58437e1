"""Weight initialization.

Which scheme fills a parameter (He, Glorot, a constant) decides its values,
never its memory behavior: every one of them is the same on-device write to
the parameter block before training starts, like the init kernels PyTorch
runs.  That write is all a layer's initialization records.
"""

from __future__ import annotations

from .parameter import Parameter


def param_init(param: Parameter) -> None:
    """Initialize ``param`` on-device: one ``param_init`` write to its block."""
    param.data.storage.record_write("param_init")
