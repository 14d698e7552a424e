"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a numpy array plus an optional accumulated gradient of the
same shape.  Each operation hands its parents and its backward closure to
the constructor, which keeps them only when some parent requires a
gradient: a node built over constants holds neither parents nor closure,
so a forward pass over :func:`constants` builds no graph.  A call to
``backward()`` on a scalar walks the graph in reverse topological order.
Everything is single-threaded and deterministic.

``Tensor.gelu`` and ``softmax`` are fused: each is one graph node with a
hand-written backward pass (``layers.layer_norm`` and ``layers.attention``
are the other two of the four fused ops).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _is_basic_index(key) -> bool:
    """True for keys of ints, slices, ``None`` and ``...`` only, which
    select each element at most once (numpy's basic indexing)."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(
        part is None
        or part is Ellipsis
        or isinstance(part, slice)
        or (isinstance(part, (int, np.integer)) and not isinstance(part, bool))
        for part in parts
    )


class Tensor:
    """Array value with optional accumulated gradient."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward: Callable[[np.ndarray], None] | None = None,
    ):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # A cast copy in this tensor's memory layout: matmul results
            # depend on the layout of the gradient they read.
            self.grad = np.empty_like(self.data)
            self.grad[...] = grad
        else:
            self.grad += grad

    # -- graph traversal ------------------------------------------------

    def backward(self) -> None:
        """Accumulate gradients of this scalar value into the graph."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))

        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- coercion ---------------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        return Tensor(self.data + other.data, parents=(self, other), backward=backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return Tensor(-self.data, parents=(self,), backward=lambda g: self._accumulate(-g))

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape))

        return Tensor(self.data * other.data, parents=(self, other), backward=backward)

    __rmul__ = __mul__

    def __matmul__(self, other: "Tensor") -> "Tensor":
        if self.ndim < 2 or other.ndim < 2:
            raise ValueError("matmul operands must have ndim >= 2")

        def backward(g):
            if self.requires_grad:
                self._accumulate(
                    _unbroadcast(g @ other.data.swapaxes(-1, -2), self.shape)
                )
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(self.data.swapaxes(-1, -2) @ g, other.shape)
                )

        return Tensor(self.data @ other.data, parents=(self, other), backward=backward)

    # -- elementwise functions ----------------------------------------------

    def exp(self) -> "Tensor":
        value = np.exp(self.data)
        return Tensor(value, parents=(self,), backward=lambda g: self._accumulate(g * value))

    def log(self) -> "Tensor":
        return Tensor(
            np.log(self.data), parents=(self,), backward=lambda g: self._accumulate(g / self.data)
        )

    def tanh(self) -> "Tensor":
        value = np.tanh(self.data)
        return Tensor(
            value, parents=(self,), backward=lambda g: self._accumulate(g * (1.0 - value**2))
        )

    def sigmoid(self) -> "Tensor":
        value = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))
        return Tensor(
            value, parents=(self,), backward=lambda g: self._accumulate(g * value * (1.0 - value))
        )

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit, tanh approximation."""
        x = self.data
        # Constants in x's dtype: a float64 scalar would promote float32 input.
        c, a = x.dtype.type(np.sqrt(2.0 / np.pi)), x.dtype.type(0.044715)
        # x * x * x, not x**3: the general pow loop is about 75 ns per
        # negative element.
        inner = c * (x + a * (x * x * x))
        t = np.tanh(inner)

        def backward(g):
            dinner = c * (1.0 + 3 * a * (x * x))
            local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner
            self._accumulate(g * local)

        return Tensor(0.5 * x * (1.0 + t), parents=(self,), backward=backward)

    # -- shape manipulation ---------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Tensor(
            self.data.reshape(shape),
            parents=(self,),
            backward=lambda g: self._accumulate(g.reshape(self.shape)),
        )

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = np.argsort(axes)
        return Tensor(
            self.data.transpose(*axes),
            parents=(self,),
            backward=lambda g: self._accumulate(g.transpose(*inverse)),
        )

    def __getitem__(self, key) -> "Tensor":
        basic = _is_basic_index(key)

        def backward(g):
            fresh = self.grad is None
            if fresh:
                self.grad = np.zeros_like(self.data)
            if basic:
                # No repeated elements: add g into the selected view of the
                # gradient, with no full-size scatter.
                self.grad[key] += g
            elif fresh:
                np.add.at(self.grad, key, g)
            else:
                # Sum repeated elements apart, then add them to the gradient
                # once, in that order.
                full = np.zeros_like(self.data)
                np.add.at(full, key, g)
                self.grad += full

        return Tensor(self.data[key], parents=(self,), backward=backward)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(g):
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.shape).copy())
                return
            if not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor(
            self.data.sum(axis=axis, keepdims=keepdims), parents=(self,), backward=backward
        )

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        axes = range(self.ndim) if axis is None else np.atleast_1d(axis)
        count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)


def constants(params: dict[str, Tensor]) -> dict[str, Tensor]:
    """Constant views of ``params``: same arrays, no gradient tracking."""
    return {name: Tensor(p.data) for name, p in params.items()}


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = list(tensors)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(g):
        offset = 0
        for t, size in zip(tensors, sizes):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offset, offset + size)
            if t.requires_grad:
                t._accumulate(g[tuple(index)])
            offset += size

    return Tensor(
        np.concatenate([t.data for t in tensors], axis=axis),
        parents=tuple(tensors),
        backward=backward,
    )


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax as one graph node; the backward pass is
    ``y * (g - sum(g * y))`` along ``axis``."""
    y = np.exp(x.data - np.max(x.data, axis=axis, keepdims=True))
    y /= y.sum(axis=axis, keepdims=True)
    return Tensor(
        y,
        parents=(x,),
        backward=lambda g: x._accumulate(y * (g - (g * y).sum(axis=axis, keepdims=True))),
    )


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shift = Tensor(np.max(x.data, axis=axis, keepdims=True))
    shifted = x - shift
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def logsumexp(x: Tensor, axis: int = -1) -> Tensor:
    shift = Tensor(np.max(x.data, axis=axis, keepdims=True))
    out = (x - shift).exp().sum(axis=axis, keepdims=True).log() + shift
    return out.reshape(tuple(np.delete(out.shape, axis)))
