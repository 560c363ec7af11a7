"""A small reverse-mode automatic differentiation engine on numpy.

This is the repository's PyTorch substitute: enough of a tensor library
to train and run quantized, noise-injected Transformers.  Tensors wrap
numpy arrays and record a backward closure per operation; gradients
flow through a topological sort of the recorded graph.

Design notes:

* broadcasting follows numpy semantics; gradients are un-broadcast by
  summing over expanded axes;
* custom operations (photonic matmul with straight-through gradients,
  fake quantization, embedding gather) build directly on
  :meth:`Tensor.make` rather than subclassing;
* there is no grad-accumulation tape reuse — each forward builds a
  fresh graph, which is plenty for the model sizes used here.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Callable, Iterable

import numpy as np
from scipy.special import erf as _scipy_erf


#: Grad mode, per thread (and per asyncio task): serving workers run
#: batches under :class:`no_grad` concurrently, and one thread's context
#: must neither leak into another thread nor be undone by its exit.
_grad_enabled: ContextVar[bool] = ContextVar("repro_grad_enabled", default=True)


class no_grad:
    """Disable graph recording in this thread inside the context.

    A plain context manager: serving enters one per batch, and a
    generator-based one costs several times more to enter and leave.
    """

    __slots__ = ("_token",)

    def __enter__(self) -> None:
        self._token = _grad_enabled.set(False)

    def __exit__(self, *exc_info) -> None:
        _grad_enabled.reset(self._token)


def is_grad_enabled() -> bool:
    return _grad_enabled.get()


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were expanded from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A numpy array with reverse-mode gradient support."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        self.data = np.asarray(data, dtype=float)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad and _grad_enabled.get()
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    # -- construction -------------------------------------------------------
    @classmethod
    def make(
        cls,
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Build an op result node; records the graph only when needed."""
        parents = tuple(parents)
        needs = _grad_enabled.get() and any(p.requires_grad for p in parents)
        out = cls(data, requires_grad=needs)
        if needs:
            out._parents = parents
            out._backward = backward
        return out

    @classmethod
    def zeros(cls, *shape: int, requires_grad: bool = False) -> "Tensor":
        return cls(np.zeros(shape), requires_grad=requires_grad)

    @classmethod
    def randn(
        cls,
        *shape: int,
        scale: float = 1.0,
        rng: np.random.Generator | None = None,
        requires_grad: bool = False,
    ) -> "Tensor":
        rng = rng if rng is not None else np.random.default_rng()
        return cls(rng.normal(0.0, scale, shape), requires_grad=requires_grad)

    # -- introspection -----------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autograd ------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this node (defaults to d(self)/d(self)=1)."""
        if not self.requires_grad:
            raise RuntimeError("called backward() on a non-differentiable tensor")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a "
                    f"scalar output, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)

        order: list[Tensor] = []
        visited: set[int] = set()

        def visit(node: "Tensor") -> None:
            stack = [(node, iter(node._parents))]
            visited.add(id(node))
            while stack:
                current, parents = stack[-1]
                advanced = False
                for parent in parents:
                    if parent.requires_grad and id(parent) not in visited:
                        visited.add(id(parent))
                        stack.append((parent, iter(parent._parents)))
                        advanced = True
                        break
                if not advanced:
                    order.append(current)
                    stack.pop()

        visit(self)
        self.grad = np.asarray(grad, dtype=float)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def accumulate_grad(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=float), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def zero_grad(self) -> None:
        self.grad = None

    # -- arithmetic -----------------------------------------------------------
    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(grad)
            if other.requires_grad:
                other.accumulate_grad(grad)

        return Tensor.make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(-grad)

        return Tensor.make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(grad * other.data)
            if other.requires_grad:
                other.accumulate_grad(grad * self.data)

        return Tensor.make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(grad / other.data)
            if other.requires_grad:
                other.accumulate_grad(-grad * self.data / other.data**2)

        return Tensor.make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(grad * exponent * self.data ** (exponent - 1))

        return Tensor.make(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(grad @ np.swapaxes(other.data, -1, -2))
            if other.requires_grad:
                other.accumulate_grad(np.swapaxes(self.data, -1, -2) @ grad)

        return Tensor.make(out_data, (self, other), backward)

    # -- shape ops --------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        original = self.data.shape
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(grad.reshape(original))

        return Tensor.make(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        axes = axes or tuple(reversed(range(self.ndim)))
        inverse = np.argsort(axes)
        out_data = self.data.transpose(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(grad.transpose(inverse))

        return Tensor.make(out_data, (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        out_data = np.swapaxes(self.data, a, b)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(np.swapaxes(grad, a, b))

        return Tensor.make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self.accumulate_grad(full)

        return Tensor.make(out_data, (self,), backward)

    # -- reductions -----------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            expanded = grad
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % len(shape) for a in axes):
                    expanded = np.expand_dims(expanded, ax)
            self.accumulate_grad(np.broadcast_to(expanded, shape))

        return Tensor.make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else (
            np.prod(
                [
                    self.data.shape[a]
                    for a in (axis if isinstance(axis, tuple) else (axis,))
                ]
            )
        )
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    # -- elementwise functions -----------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(grad * out_data)

        return Tensor.make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(grad / self.data)

        return Tensor.make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(grad * (1.0 - out_data**2))

        return Tensor.make(out_data, (self,), backward)

    def erf(self) -> "Tensor":
        out_data = _scipy_erf(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(
                    grad * (2.0 / np.sqrt(np.pi)) * np.exp(-self.data**2)
                )

        return Tensor.make(out_data, (self,), backward)

    def maximum(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = np.maximum(self.data, other.data)

        def backward(grad: np.ndarray) -> None:
            chosen = self.data >= other.data
            if self.requires_grad:
                self.accumulate_grad(grad * chosen)
            if other.requires_grad:
                other.accumulate_grad(grad * ~chosen)

        return Tensor.make(out_data, (self, other), backward)


def concatenate(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an axis, with gradient routing."""
    if not tensors:
        raise ValueError("cannot concatenate an empty list")
    datas = [t.data for t in tensors]
    out_data = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(lo, hi)
                tensor.accumulate_grad(grad[tuple(index)])

    return Tensor.make(out_data, tensors, backward)


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis, with gradient routing."""
    if not tensors:
        raise ValueError("cannot stack an empty list")
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slabs = np.moveaxis(grad, axis, 0)
        for tensor, slab in zip(tensors, slabs):
            if tensor.requires_grad:
                tensor.accumulate_grad(slab)

    return Tensor.make(out_data, tensors, backward)


def broadcast_to(tensor: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Broadcast a tensor to ``shape`` (gradients sum over expanded axes)."""
    out_data = np.broadcast_to(tensor.data, shape)

    def backward(grad: np.ndarray) -> None:
        if tensor.requires_grad:
            # accumulate_grad un-broadcasts down to the original shape.
            tensor.accumulate_grad(grad)

    return Tensor.make(out_data, (tensor,), backward)


def gather_rows(tensor: Tensor, row_indices: np.ndarray) -> Tensor:
    """Select one column per row: ``out[i] = tensor[i, idx[i]]``."""
    row_indices = np.asarray(row_indices, dtype=int)
    rows = np.arange(tensor.shape[0])
    out_data = tensor.data[rows, row_indices]

    def backward(grad: np.ndarray) -> None:
        if tensor.requires_grad:
            full = np.zeros_like(tensor.data)
            np.add.at(full, (rows, row_indices), grad)
            tensor.accumulate_grad(full)

    return Tensor.make(out_data, (tensor,), backward)


def embedding_lookup(table: Tensor, token_ids: np.ndarray) -> Tensor:
    """Row gather for embeddings: out[..., :] = table[ids[...], :]."""
    token_ids = np.asarray(token_ids, dtype=int)
    out_data = table.data[token_ids]

    def backward(grad: np.ndarray) -> None:
        if table.requires_grad:
            full = np.zeros_like(table.data)
            np.add.at(full, token_ids.reshape(-1), grad.reshape(-1, table.shape[1]))
            table.accumulate_grad(full)

    return Tensor.make(out_data, (table,), backward)
