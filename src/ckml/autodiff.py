"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray and records its parents plus a backward closure
on a tape; calling ``backward()`` on a scalar walks the tape in reverse
topological order and accumulates exact analytic gradients into ``.grad``.
Only the ops the model needs are implemented; every op is deterministic
(fixed reduction order, no threading) so identical inputs give bitwise
identical outputs and gradients.
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Node in the computation graph; `data` is never mutated after creation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def item(self) -> float:
        return float(self.data)

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g

    # -- elementwise arithmetic (numpy broadcasting rules) --

    def __add__(self, other):
        other = _as_tensor(other, self.dtype)
        out_data = self.data + other.data
        req = self.requires_grad or other.requires_grad
        out = Tensor(out_data, req, (self, other))
        if req:
            def bw(g):
                if self.requires_grad:
                    self._accumulate(_unbroadcast(g, self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(g, other.shape))
            out._backward = bw
        return out

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_tensor(other, self.dtype)
        out_data = self.data - other.data
        req = self.requires_grad or other.requires_grad
        out = Tensor(out_data, req, (self, other))
        if req:
            def bw(g):
                if self.requires_grad:
                    self._accumulate(_unbroadcast(g, self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(-g, other.shape))
            out._backward = bw
        return out

    def __rsub__(self, other):
        return _as_tensor(other, self.dtype) - self

    def __mul__(self, other):
        other = _as_tensor(other, self.dtype)
        out_data = self.data * other.data
        req = self.requires_grad or other.requires_grad
        out = Tensor(out_data, req, (self, other))
        if req:
            def bw(g):
                if self.requires_grad:
                    self._accumulate(_unbroadcast(g * other.data, self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(g * self.data, other.shape))
            out._backward = bw
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_tensor(other, self.dtype)
        out_data = self.data / other.data
        req = self.requires_grad or other.requires_grad
        out = Tensor(out_data, req, (self, other))
        if req:
            def bw(g):
                if self.requires_grad:
                    self._accumulate(_unbroadcast(g / other.data, self.shape))
                if other.requires_grad:
                    other._accumulate(
                        _unbroadcast(-g * self.data / (other.data * other.data), other.shape))
            out._backward = bw
        return out

    def __rtruediv__(self, other):
        return _as_tensor(other, self.dtype) / self

    def __neg__(self):
        out = Tensor(-self.data, self.requires_grad, (self,))
        if self.requires_grad:
            out._backward = lambda g: self._accumulate(-g)
        return out

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor(self.data.reshape(shape), self.requires_grad, (self,))
        if self.requires_grad:
            out._backward = lambda g: self._accumulate(g.reshape(self.shape))
        return out

    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims),
                     self.requires_grad, (self,))
        if self.requires_grad:
            def bw(g):
                if axis is None:
                    self._accumulate(np.broadcast_to(g, self.shape).copy())
                else:
                    ge = g if keepdims else np.expand_dims(g, axis)
                    self._accumulate(np.broadcast_to(ge, self.shape).copy())
            out._backward = bw
        return out

    def max(self, axis, keepdims=False):
        """Max along one axis; gradient routes to the first argmax (ties: lowest index)."""
        idx = np.argmax(self.data, axis=axis)
        out_data = np.take_along_axis(self.data, np.expand_dims(idx, axis), axis=axis)
        if not keepdims:
            out_data = np.squeeze(out_data, axis=axis)
        out = Tensor(out_data, self.requires_grad, (self,))
        if self.requires_grad:
            def bw(g):
                ge = g if keepdims else np.expand_dims(g, axis)
                full = np.zeros_like(self.data)
                np.put_along_axis(full, np.expand_dims(idx, axis), ge, axis=axis)
                self._accumulate(full)
            out._backward = bw
        return out


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def constant(x, dtype=np.float64) -> Tensor:
    return Tensor(np.asarray(x, dtype=dtype))


def parameter(x) -> Tensor:
    return Tensor(np.asarray(x), requires_grad=True)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """np.matmul semantics, batch dims broadcast; inputs must be >= 2-D."""
    out_data = np.matmul(a.data, b.data)
    req = a.requires_grad or b.requires_grad
    out = Tensor(out_data, req, (a, b))
    if req:
        def bw(g):
            if a.requires_grad:
                ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
                a._accumulate(_unbroadcast(ga, a.shape))
            if b.requires_grad:
                gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
                b._accumulate(_unbroadcast(gb, b.shape))
        out._backward = bw
    return out


def exp(x: Tensor) -> Tensor:
    out_data = np.exp(x.data)
    out = Tensor(out_data, x.requires_grad, (x,))
    if x.requires_grad:
        out._backward = lambda g: x._accumulate(g * out_data)
    return out


def log(x: Tensor) -> Tensor:
    out = Tensor(np.log(x.data), x.requires_grad, (x,))
    if x.requires_grad:
        out._backward = lambda g: x._accumulate(g / x.data)
    return out


def sqrt(x: Tensor) -> Tensor:
    out_data = np.sqrt(x.data)
    out = Tensor(out_data, x.requires_grad, (x,))
    if x.requires_grad:
        out._backward = lambda g: x._accumulate(g * 0.5 / out_data)
    return out


def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)
    out = Tensor(out_data, x.requires_grad, (x,))
    if x.requires_grad:
        out._backward = lambda g: x._accumulate(g * (1.0 - out_data * out_data))
    return out


def leaky_relu(x: Tensor, slope: float) -> Tensor:
    mask = x.data >= 0
    slope = x.dtype.type(slope)
    out = Tensor(np.where(mask, x.data, slope * x.data), x.requires_grad, (x,))
    if x.requires_grad:
        out._backward = lambda g: x._accumulate(
            g * np.where(mask, x.dtype.type(1), slope))
    return out


def maximum(x: Tensor, floor: float) -> Tensor:
    """Elementwise max with a scalar floor; gradient 0 where the floor wins."""
    floor = x.dtype.type(floor)
    mask = x.data > floor
    out = Tensor(np.where(mask, x.data, floor), x.requires_grad, (x,))
    if x.requires_grad:
        out._backward = lambda g: x._accumulate(g * mask)
    return out


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)) in the overflow-safe form max(x,0) + log1p(exp(-|x|))."""
    out_data = np.maximum(x.data, 0.0) + np.log1p(np.exp(-np.abs(x.data)))
    out = Tensor(out_data, x.requires_grad, (x,))
    if x.requires_grad:
        def bw(g):
            sig = 0.5 * (1.0 + np.tanh(0.5 * x.data))
            x._accumulate(g * sig)
        out._backward = bw
    return out


def softmax(x: Tensor, axis: int) -> Tensor:
    """Stable softmax along `axis` (max-subtracted)."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(out_data, x.requires_grad, (x,))
    if x.requires_grad:
        def bw(g):
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            x._accumulate(out_data * (g - dot))
        out._backward = bw
    return out


def concat(tensors, axis: int) -> Tensor:
    datas = [t.data for t in tensors]
    out_data = np.concatenate(datas, axis=axis)
    req = any(t.requires_grad for t in tensors)
    out = Tensor(out_data, req, tuple(tensors))
    if req:
        sizes = [d.shape[axis] for d in datas]
        offsets = np.cumsum([0] + sizes)

        def bw(g):
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    sl = [slice(None)] * g.ndim
                    sl[axis] = slice(lo, hi)
                    t._accumulate(g[tuple(sl)])
        out._backward = bw
    return out


def stack(tensors, axis: int = 0) -> Tensor:
    return concat([t.reshape(t.shape[:axis] + (1,) + t.shape[axis:]) for t in tensors], axis)


def gather(x: Tensor, index: np.ndarray) -> Tensor:
    """Select rows along axis 0; backward scatter-adds into the source."""
    index = np.asarray(index)
    out = Tensor(x.data[index], x.requires_grad, (x,))
    if x.requires_grad:
        def bw(g):
            full = np.zeros_like(x.data)
            np.add.at(full, index, g)
            x._accumulate(full)
        out._backward = bw
    return out


def segment_sum(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """out[s] = sum of x rows whose segment_ids == s; backward gathers."""
    segment_ids = np.asarray(segment_ids)
    out_data = np.zeros((num_segments,) + x.shape[1:], dtype=x.dtype)
    np.add.at(out_data, segment_ids, x.data)
    out = Tensor(out_data, x.requires_grad, (x,))
    if x.requires_grad:
        out._backward = lambda g: x._accumulate(g[segment_ids])
    return out


def spmm(sparse, x: Tensor) -> Tensor:
    """Constant sparse matrix (scipy CSR, with precomputed transpose) times Tensor."""
    out = Tensor(sparse.matrix @ x.data, x.requires_grad, (x,))
    if x.requires_grad:
        out._backward = lambda g: x._accumulate(
            (sparse.matrix_t @ g).astype(x.dtype, copy=False))
    return out


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along `axis`."""
    sl = [slice(None)] * x.data.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    out = Tensor(x.data[sl], x.requires_grad, (x,))
    if x.requires_grad:
        def bw(g):
            full = np.zeros_like(x.data)
            full[sl] = g
            x._accumulate(full)
        out._backward = bw
    return out


def transpose(x: Tensor, axes) -> Tensor:
    out = Tensor(np.transpose(x.data, axes), x.requires_grad, (x,))
    if x.requires_grad:
        inv = np.argsort(axes)
        out._backward = lambda g: x._accumulate(np.transpose(g, inv))
    return out


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """x / max(||x||, eps) along `axis`; the guard keeps zero vectors at zero.

    The floor is applied under the root (max(||x||, e) == sqrt(max(ss, e^2)))
    so the sqrt backward never divides by zero on all-zero slices.
    """
    ss = (x * x).sum(axis=axis, keepdims=True)
    n = sqrt(maximum(ss, eps * eps))
    return x / n
