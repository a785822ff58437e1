"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core.events import MemoryCategory
from repro.device import Device, small_test_device, titan_x_pascal

from tests.helpers import build_trace

#: The wide draw of ``tests/test_swap_differential.py`` (the swap-smoke CI leg:
#: ``pytest --hypothesis-profile=swap-wide``).
settings.register_profile("swap-wide", max_examples=200, deadline=None)


@pytest.fixture
def test_device():
    """A tiny eager device for unit tests (256 MiB, fast overheads)."""
    return Device(small_test_device(), execution_mode="eager")


@pytest.fixture
def virtual_device():
    """A Titan-X-like device running in virtual (shape-only) mode."""
    return Device(titan_x_pascal(), execution_mode="symbolic")


@pytest.fixture
def rng():
    """A deterministic NumPy generator."""
    return np.random.default_rng(1234)


@pytest.fixture
def simple_trace():
    """A small hand-built trace: two blocks, two iterations."""
    us = 1_000
    return build_trace(
        [
            ("malloc", 0 * us, 1, 1024, MemoryCategory.PARAMETER, 0),
            ("write", 1 * us, 1, 1024, MemoryCategory.PARAMETER, 0),
            ("malloc", 2 * us, 2, 4096, MemoryCategory.ACTIVATION, 0),
            ("write", 3 * us, 2, 4096, MemoryCategory.ACTIVATION, 0),
            ("read", 10 * us, 2, 4096, MemoryCategory.ACTIVATION, 0),
            ("read", 12 * us, 1, 1024, MemoryCategory.PARAMETER, 0),
            ("free", 15 * us, 2, 4096, MemoryCategory.ACTIVATION, 0),
            ("malloc", 100 * us, 3, 4096, MemoryCategory.ACTIVATION, 1),
            ("write", 101 * us, 3, 4096, MemoryCategory.ACTIVATION, 1),
            ("read", 110 * us, 3, 4096, MemoryCategory.ACTIVATION, 1),
            ("read", 112 * us, 1, 1024, MemoryCategory.PARAMETER, 1),
            ("free", 115 * us, 3, 4096, MemoryCategory.ACTIVATION, 1),
        ],
        iteration_marks=[(0, 20 * us), (100 * us, 120 * us)],
        end_ns=120 * us,
    )


@pytest.fixture(scope="session")
def small_mlp_session():
    """A shared eager training session (small MLP, 5 iterations)."""
    from repro.experiments.configs import small_mlp_config
    from repro.train.session import run_training_session

    return run_training_session(small_mlp_config(batch_size=32, iterations=5, hidden_dim=64))


@pytest.fixture(scope="session")
def paper_mlp_session():
    """A shared virtual paper-MLP session (reduced batch to stay fast)."""
    from repro.experiments.configs import paper_mlp_config
    from repro.train.session import run_training_session

    return run_training_session(paper_mlp_config(batch_size=4096, iterations=5,
                                                 execution_mode="symbolic"))
