"""Module base class: the building block of the DNN framework.

Unlike PyTorch, this framework uses *module-level* backward instead of a
taped autograd: each module's ``forward`` saves exactly the tensors its
``backward`` will need (via :meth:`Module.save_for_backward`) and ``backward``
releases them once consumed.  This reproduces the memory behavior the paper
characterizes — activations written in the forward pass stay resident until
their backward consumer runs, then are freed and their blocks return to the
caching allocator for reuse in the next iteration.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

from ..device.device import Device
from ..errors import BackwardBeforeForwardError, ModuleError
from ..tensor.tensor import Tensor
from .parameter import Parameter


class Module:
    """Base class for all neural-network modules."""

    def __init__(self, device: Device, name: str = ""):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_saved", OrderedDict())
        self.device = device
        self.name = name or self.__class__.__name__
        # A module's name is fixed at construction (pinned in
        # tests/test_single_source.py), so the tags of the tensors its
        # forward / backward produce are built here, not once per call.
        self.out_tag = f"{self.name}.out"
        self.grad_in_tag = f"{self.name}.grad_in"
        self.training = True

    # -- registration ----------------------------------------------------------------

    def __setattr__(self, key: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[key] = value
        elif isinstance(value, Module):
            self._modules[key] = value
        object.__setattr__(self, key, value)

    def register_parameter(self, key: str, parameter: Parameter) -> Parameter:
        """Explicitly register a parameter under ``key``."""
        self._parameters[key] = parameter
        object.__setattr__(self, key, parameter)
        return parameter

    def register_buffer(self, key: str, tensor: Tensor) -> Tensor:
        """Register a persistent, non-trainable tensor (e.g. BN running stats)."""
        self._buffers[key] = tensor
        object.__setattr__(self, key, tensor)
        return tensor

    def register_module(self, key: str, module: "Module") -> "Module":
        """Explicitly register a child module under ``key``."""
        self._modules[key] = module
        object.__setattr__(self, key, module)
        return module

    # -- traversal -------------------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` for this module and its children."""
        for key, parameter in self._parameters.items():
            yield (f"{prefix}{key}", parameter)
        for key, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{key}.")

    def parameters(self) -> List[Parameter]:
        """All parameters of this module and its children."""
        return [parameter for _, parameter in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        """Yield ``(qualified_name, buffer)`` for this module and its children."""
        for key, buffer in self._buffers.items():
            yield (f"{prefix}{key}", buffer)
        for key, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{key}.")

    def buffers(self) -> List[Tensor]:
        """All buffers of this module and its children."""
        return [buffer for _, buffer in self.named_buffers()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        """Yield ``(qualified_name, module)`` for this module and all descendants."""
        yield (prefix.rstrip("."), self)
        for key, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{key}.")

    def modules(self) -> List["Module"]:
        """This module and all descendants."""
        return [module for _, module in self.named_modules()]

    def children(self) -> List["Module"]:
        """Direct child modules."""
        return list(self._modules.values())

    # -- train / eval ------------------------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively."""
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
        return self.train(False)

    # -- gradient helpers ---------------------------------------------------------------

    def zero_grad(self) -> None:
        """Zero every existing parameter gradient (records device writes)."""
        for parameter in self.parameters():
            parameter.zero_grad()

    def parameter_bytes(self) -> int:
        """Total bytes of parameters (excluding gradients and buffers)."""
        return sum(parameter.nbytes for parameter in self.parameters())

    def parameter_count(self) -> int:
        """Total number of trainable scalar parameters."""
        return sum(parameter.numel for parameter in self.parameters())

    def buffer_bytes(self) -> int:
        """Total bytes of registered buffers."""
        return sum(buffer.nbytes for buffer in self.buffers())

    # -- saved-tensor management ----------------------------------------------------------

    def save_for_backward(self, **tensors: Tensor) -> None:
        """Retain tensors needed by ``backward`` (they stay live until consumed)."""
        for key, tensor in tensors.items():
            if key in self._saved:
                # Overwriting a stale saved tensor releases the old reference.
                self._saved[key].release()
            self._saved[key] = tensor.retain()

    def saved(self, key: str) -> Tensor:
        """Fetch a tensor saved by the forward pass."""
        try:
            return self._saved[key]
        except KeyError:
            raise BackwardBeforeForwardError(
                f"{self.name}: backward requested saved tensor {key!r} but forward "
                "has not run (or already consumed it)"
            ) from None

    def has_saved(self, key: str) -> bool:
        """Whether a tensor is currently saved under ``key``."""
        return key in self._saved

    def release_saved(self) -> None:
        """Release every saved tensor (end of this module's backward)."""
        for tensor in self._saved.values():
            tensor.release()
        self._saved.clear()

    # -- forward / backward ------------------------------------------------------------------

    def forward(self, x: Tensor) -> Tensor:
        """Compute the module output; subclasses must override."""
        raise NotImplementedError(f"{self.__class__.__name__} does not implement forward")

    def backward(self, grad_output: Tensor) -> Tensor:
        """Propagate gradients; subclasses that train must override."""
        raise NotImplementedError(f"{self.__class__.__name__} does not implement backward")

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    # -- cleanup ----------------------------------------------------------------------------

    def free(self) -> None:
        """Release all device memory owned by this module (params, buffers, saved)."""
        self.release_saved()
        for parameter in self._parameters.values():
            parameter.free()
        for buffer in self._buffers.values():
            buffer.free()
        for module in self._modules.values():
            module.free()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        children = ", ".join(self._modules)
        return f"{self.__class__.__name__}(name={self.name!r}, children=[{children}])"


class Identity(Module):
    """A module that returns its input unchanged (useful as a placeholder)."""

    def forward(self, x: Tensor) -> Tensor:
        return x.retain()

    def backward(self, grad_output: Tensor) -> Tensor:
        return grad_output.retain()


class Sequential(Module):
    """A chain of modules executed in order.

    ``forward`` releases each intermediate activation as soon as the next
    layer has consumed it (layers that need it for backward retain their own
    reference), and ``backward`` walks the chain in reverse, releasing each
    intermediate gradient once the previous layer has produced its own.
    """

    def __init__(self, device: Device, modules: List[Module], name: str = "Sequential"):
        super().__init__(device, name=name)
        self.layers: List[Module] = []
        for index, module in enumerate(modules):
            self.register_module(f"layer{index}", module)
            self.layers.append(module)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]

    def forward(self, x: Tensor) -> Tensor:
        current = x
        for layer in self.layers:
            output = layer(current)
            if current is not x:
                current.release()
            current = output
        if current is x:
            # An empty Sequential must still transfer ownership of a reference.
            return x.retain()
        return current

    def backward(self, grad_output: Tensor) -> Tensor:
        grad = grad_output
        for layer in reversed(self.layers):
            next_grad = layer.backward(grad)
            if grad is not grad_output:
                grad.release()
            grad = next_grad
        if grad is grad_output:
            return grad_output.retain()
        return grad
