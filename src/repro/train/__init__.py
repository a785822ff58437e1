"""Training loop (single-device and data-parallel) and profiled sessions."""

from .session import (
    Recording,
    SessionResult,
    TrainingRunConfig,
    build_cluster,
    build_device,
    build_device_group,
    record_session,
    run_training_session,
)
from .trainer import DataParallelTrainer, IterationStats, Trainer, shard_batch

__all__ = [
    "DataParallelTrainer",
    "IterationStats",
    "Recording",
    "SessionResult",
    "Trainer",
    "TrainingRunConfig",
    "build_cluster",
    "build_device",
    "build_device_group",
    "record_session",
    "run_training_session",
    "shard_batch",
]
