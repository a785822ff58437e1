"""Optimizers.

Optimizer state (momentum buffers, Adam moments) is allocated lazily on the
first step and then persists for the rest of training, just like in PyTorch.
In the paper's three-way breakdown this state is grouped with the parameters.

Mixed-precision realism: when a parameter is stored in a reduced-precision
dtype (``float16`` training), the optimizer follows the standard AMP recipe
instead of letting everything shadow the training dtype — it keeps a
*float32 master copy* of the weights plus float32 optimizer state, updates
the master, and writes the half-precision parameter back as a downcast.
Only the memory behaviors of those steps are simulated, never their values,
so the hyperparameters beyond the learning rate and SGD's momentum (which
decides whether a momentum buffer exists) are not modelled.
Both the master copies and the state buffers live in the
``optimizer_state`` memory category, so half-precision runs show the
realistic footprint: half-size parameters/gradients/activations but
full-size optimizer state.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..core.events import MemoryCategory
from ..errors import ConfigurationError
from ..tensor import functional as F
from ..tensor.dtype import DType, float32
from ..tensor.tensor import Tensor, empty
from .parameter import Parameter


class Optimizer:
    """Base class holding the parameter list and shared bookkeeping."""

    def __init__(self, parameters: Iterable[Parameter], lr: float):
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ConfigurationError("optimizer needs at least one parameter")
        if lr <= 0:
            raise ConfigurationError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)
        self._master_weights: Dict[int, Tensor] = {}

    def zero_grad(self) -> None:
        """Zero every existing parameter gradient."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        """Apply one update to every parameter that has a gradient."""
        raise NotImplementedError

    # -- mixed-precision support -------------------------------------------------------

    @staticmethod
    def _needs_master(parameter: Parameter) -> bool:
        """Whether the parameter's dtype is a reduced-precision float (AMP)."""
        dtype = parameter.data.dtype
        return dtype.numpy_dtype.kind == "f" and dtype.itemsize < float32.itemsize

    @classmethod
    def state_dtype(cls, parameter: Parameter) -> DType:
        """Dtype of this parameter's optimizer state (fp32 under half precision)."""
        return float32 if cls._needs_master(parameter) else parameter.data.dtype

    def master_weight(self, index: int, parameter: Parameter) -> Optional[Tensor]:
        """The fp32 master copy of a reduced-precision parameter (lazy; else None).

        Allocation reads the half-precision weights and writes the upcast
        master copy, exactly the memory behaviors of AMP's master-weight
        initialization.
        """
        if not self._needs_master(parameter):
            return None
        if index not in self._master_weights:
            master = empty(parameter.device, parameter.shape, dtype=float32,
                           category=MemoryCategory.OPTIMIZER_STATE,
                           tag=f"{parameter.name}.master")
            parameter.data.storage.record_read("master_init")
            master.storage.record_write("master_init")
            self._master_weights[index] = master
        return self._master_weights[index]

    def _writeback_master(self, master: Tensor, parameter: Parameter) -> None:
        """Downcast the updated fp32 master back into the half-precision parameter."""
        master.storage.record_read("master_downcast")
        parameter.data.storage.record_write("master_downcast")

    def master_weight_bytes(self) -> int:
        """Total device bytes of fp32 master weight copies (0 in fp32 training)."""
        return sum(master.nbytes for master in self._master_weights.values())

    def state_bytes(self) -> int:
        """Total device bytes of optimizer state (master copies included)."""
        return self.master_weight_bytes()


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, parameters: Iterable[Parameter], lr: float, momentum: float = 0.0):
        super().__init__(parameters, lr)
        if momentum < 0.0:
            raise ConfigurationError(f"momentum must be non-negative, got {momentum}")
        self.momentum = float(momentum)
        self._momentum_buffers: Dict[int, Tensor] = {}

    def _momentum_buffer(self, index: int, parameter: Parameter) -> Optional[Tensor]:
        if self.momentum == 0.0:
            return None
        if index not in self._momentum_buffers:
            buffer = empty(parameter.device, parameter.shape,
                           dtype=self.state_dtype(parameter),
                           category=MemoryCategory.OPTIMIZER_STATE,
                           tag=f"{parameter.name}.momentum")
            F.zero_(buffer)
            self._momentum_buffers[index] = buffer
        return self._momentum_buffers[index]

    def step(self) -> None:
        for index, parameter in enumerate(self.parameters):
            if parameter.grad is None:
                continue
            buffer = self._momentum_buffer(index, parameter)
            master = self.master_weight(index, parameter)
            target = master if master is not None else parameter.data
            F.sgd_step(target, parameter.grad, buffer)
            if master is not None:
                self._writeback_master(master, parameter)

    def state_bytes(self) -> int:
        return (super().state_bytes()
                + sum(buffer.nbytes for buffer in self._momentum_buffers.values()))


class Adam(Optimizer):
    """Adam optimizer with per-parameter first/second moment buffers."""

    def __init__(self, parameters: Iterable[Parameter], lr: float = 1e-3):
        super().__init__(parameters, lr)
        self._exp_avg: Dict[int, Tensor] = {}
        self._exp_avg_sq: Dict[int, Tensor] = {}

    def _moments(self, index: int, parameter: Parameter) -> tuple:
        if index not in self._exp_avg:
            for store, suffix in ((self._exp_avg, "exp_avg"), (self._exp_avg_sq, "exp_avg_sq")):
                buffer = empty(parameter.device, parameter.shape,
                               dtype=self.state_dtype(parameter),
                               category=MemoryCategory.OPTIMIZER_STATE,
                               tag=f"{parameter.name}.{suffix}")
                F.zero_(buffer)
                store[index] = buffer
        return self._exp_avg[index], self._exp_avg_sq[index]

    def step(self) -> None:
        for index, parameter in enumerate(self.parameters):
            if parameter.grad is None:
                continue
            exp_avg, exp_avg_sq = self._moments(index, parameter)
            master = self.master_weight(index, parameter)
            target = master if master is not None else parameter.data
            F.adam_step(target, parameter.grad, exp_avg, exp_avg_sq)
            if master is not None:
                self._writeback_master(master, parameter)

    def state_bytes(self) -> int:
        moments = list(self._exp_avg.values()) + list(self._exp_avg_sq.values())
        return super().state_bytes() + sum(buffer.nbytes for buffer in moments)
