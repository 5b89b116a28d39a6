"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray and records its parents plus a backward closure
on a tape; calling ``backward()`` on a scalar walks the tape in reverse
topological order and accumulates exact analytic gradients into ``.grad``.
A tape is walked back once and freed as it goes: an interior node drops its
closure, gradient and parents (None: a later walk raises) once its backward ran.
Only the ops the model needs are implemented; every op is deterministic
(fixed reduction order, no threading) so identical inputs give bitwise
identical outputs and gradients.
"""

from __future__ import annotations

import functools
import operator

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

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_owns_grad")

    def __init__(self, data, requires_grad=False, parents=()):
        self.data = np.asarray(data)
        self.grad = None
        self._owns_grad = False
        self.requires_grad = bool(requires_grad)
        self._parents = parents if self.requires_grad else ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

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
            if node._parents is None:
                raise ValueError("tape already walked back")
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._backward is None:
                continue  # a leaf keeps its gradient
            if node.grad is not None:
                node._backward(node.grad)
            node._backward, node._parents, node.grad = None, None, None

    def _accumulate(self, g: np.ndarray):
        """Add `g` to `.grad`. A first gradient of the right dtype is stored
        as given, so it may be another node's array and is never written to;
        the second is added out of place into an array this node owns, and
        later ones in place."""
        if self.grad is None:
            self._owns_grad = g.dtype != self.data.dtype
            self.grad = g.astype(self.data.dtype) if self._owns_grad else g
        elif self._owns_grad:
            self.grad += g
        else:
            self.grad = np.add(self.grad, g, out=np.empty_like(self.grad))
            self._owns_grad = True

    # -- elementwise arithmetic (numpy broadcasting rules) --

    def _binary(self, other, ufunc, grad_self, grad_other):
        """`ufunc(self, other)` on the tape. `grad_self(g, a, b)` and
        `grad_other(g, a, b)` give each operand's gradient from the output
        gradient `g` and the operands' data `a`, `b`, before unbroadcasting."""
        other = _as_tensor(other, self.dtype)
        req = self.requires_grad or other.requires_grad
        out = Tensor(ufunc(self.data, other.data), req, (self, other))
        if req:
            def bw(g):
                if self.requires_grad:
                    self._accumulate(
                        _unbroadcast(grad_self(g, self.data, other.data), self.shape))
                if other.requires_grad:
                    other._accumulate(
                        _unbroadcast(grad_other(g, self.data, other.data), other.shape))
            out._backward = bw
        return out

    def __add__(self, other):
        return self._binary(other, np.add, lambda g, a, b: g, lambda g, a, b: g)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, np.subtract, lambda g, a, b: g, lambda g, a, b: -g)

    def __rsub__(self, other):
        return _as_tensor(other, self.dtype) - self

    def __mul__(self, other):
        return self._binary(other, np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a)

    __rmul__ = __mul__

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
    return x if isinstance(x, Tensor) else constant(x, dtype)


def constant(x, dtype=None) -> Tensor:
    """`x` off the tape, in `dtype` or else in its own dtype (a Python
    float is float64)."""
    return Tensor(np.asarray(x, dtype=dtype))


def add_all(terms) -> Tensor:
    """terms[0] + terms[1] + ... for a non-empty sequence, added left to right."""
    return functools.reduce(operator.add, terms)


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


def leaky_relu(x: Tensor, slope: float) -> Tensor:
    """where(x >= 0, x, slope * x) for a slope in (0, 1), computed as
    max(x, slope * x) in one array: the same bytes, signed zeros included."""
    slope = x.dtype.type(slope)
    out_data = np.multiply(x.data, slope)
    np.maximum(x.data, out_data, out=out_data)
    out = Tensor(out_data, x.requires_grad, (x,))
    if x.requires_grad:
        mask = x.data >= 0
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


def unstack(x: Tensor, parts=None, axis: int = 0) -> list:
    """x's parts along `axis` as views, x[0], x[1], ... by default; a part
    is an index, which drops the axis, or a slice. Backward writes each
    one's gradient into its slot of one array that x owns."""
    lead = (slice(None),) * axis
    keys = [lead + (p,) for p in (range(x.shape[axis]) if parts is None else parts)]
    outs = [Tensor(x.data[key], x.requires_grad, (x,)) for key in keys]
    if x.requires_grad:
        def slot(key):
            def bw(g):
                if not x._owns_grad:
                    x.grad = (np.zeros_like(x.data) if x.grad is None
                              else x.grad.astype(x.dtype))
                    x._owns_grad = True
                x.grad[key] += g
            return bw
        for key, out in zip(keys, outs):
            out._backward = slot(key)
    return outs


def gather(x: Tensor, index) -> Tensor:
    """Select rows along axis 0 by an int array; backward adds each row's
    gradients into zeros by `np.add.at`. That suits a batch's rows; the time
    offsets' gradient, summed from a row for every node (or for every source
    row that a training step's last routing reads) into its bucket's, is
    cheaper as a product with the transposed one-hot matrix."""
    rows = np.asarray(index)
    out = Tensor(x.data[rows], x.requires_grad, (x,))
    if x.requires_grad:
        def bw(g):
            total = np.zeros(x.shape[:1] + g.shape[1:], dtype=g.dtype)
            np.add.at(total, rows, g)
            x._accumulate(total)
        out._backward = bw
    return out


def segment_sum(x: Tensor, segment_ids, num_segments: int) -> Tensor:
    """out[s] = sum of x rows whose segment_ids == s, added into zeros by
    `np.add.at`; backward gathers."""
    ids = np.asarray(segment_ids)
    out_data = np.zeros((num_segments,) + x.shape[1:], dtype=x.dtype)
    np.add.at(out_data, ids, x.data)
    out = Tensor(out_data, x.requires_grad, (x,))
    if x.requires_grad:
        out._backward = lambda g: x._accumulate(g[ids])
    return out


def spmm(sparse, x: Tensor) -> Tensor:
    """Constant scipy sparse matrix times Tensor; the backward multiplies by
    `sparse.T`, a view of the same arrays."""
    out = Tensor(sparse @ x.data, x.requires_grad, (x,))
    if x.requires_grad:
        out._backward = lambda g: x._accumulate(
            (sparse.T @ g).astype(x.dtype, copy=False))
    return out


NORM_GUARD = 1e-12


def sum_last(a: np.ndarray) -> np.ndarray:
    """`a.sum(axis=-1, keepdims=True)`, bitwise, as whole-column adds when
    the last axis is short.

    numpy reduces a short trailing axis row by row, far below its speed on
    long axes. For 1-7 entries it adds them left to right from +0.0; from 8
    on it keeps eight accumulators, so wider axes and other dtypes go to
    `a.sum` itself. Checked against numpy 2.4.6 in float32 and float64,
    contiguous or not, signed zeros, infinities and NaN included.
    """
    n = a.shape[-1]
    if not 0 < n < 8 or a.dtype not in (np.float32, np.float64):
        return a.sum(axis=-1, keepdims=True)
    out = a[..., :1] + a.dtype.type(0)
    for k in range(1, n):
        out += a[..., k:k + 1]
    return out


def unit_rows(x: np.ndarray, eps: float = NORM_GUARD):
    """x / max(||x||, eps) over the last axis, with the guarded norms and
    where the guard lost. The floor is applied under the root
    (max(||x||, e) == sqrt(max(ss, e^2))), so all-zero rows stay zero and
    the backward never divides by zero."""
    ss = sum_last(x * x)
    floor = x.dtype.type(eps * eps)
    live = ss > floor
    norm = np.sqrt(np.where(live, ss, floor))
    return x / norm, norm, live


def unit_rows_backward(unit, norm, live, g):
    """Gradient of `unit_rows` for its output `unit` and the output
    gradient `g`: (g - y (y.g)) / n. On rows of one element y is exactly
    +-1, so the gradient is exactly zero, as it is in exact arithmetic."""
    dot = sum_last(g * unit) * live
    return (g - unit * dot) / norm


def l2_normalize(x: Tensor, eps: float = NORM_GUARD) -> Tensor:
    """x / max(||x||, eps) over the last axis; the guard keeps zero rows at
    zero (`unit_rows`)."""
    unit, norm, live = unit_rows(x.data, eps)
    out = Tensor(unit, x.requires_grad, (x,))
    if x.requires_grad:
        out._backward = lambda g: x._accumulate(unit_rows_backward(unit, norm, live, g))
    return out
