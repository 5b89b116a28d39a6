"""Tape ops that only the tests and the routing oracles use, and the
tape walk that keeps the tape, the oracle for `Tensor.backward`'s freeing one.

The ops build `ckml.autodiff.Tensor` nodes exactly as the package's own ops
do, so they compose with them on one tape.
"""

from contextlib import contextmanager

import numpy as np

from ckml.autodiff import Tensor, _as_tensor, concat


def divide(a, b) -> Tensor:
    """a / b on the tape, either one a Tensor, the other a number or array
    that takes the Tensor's dtype."""
    dtype = (a if isinstance(a, Tensor) else b).dtype
    return _as_tensor(a, dtype)._binary(b, np.divide, lambda g, a, b: g / b,
                                        lambda g, a, b: -g * a / (b * b))


def neg(x: Tensor) -> Tensor:
    out = Tensor(-x.data, x.requires_grad, (x,))
    if x.requires_grad:
        out._backward = lambda g: x._accumulate(-g)
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


def stack(tensors, axis: int = 0) -> Tensor:
    return concat([t.reshape(t.shape[:axis] + (1,) + t.shape[axis:]) for t in tensors], axis)


def transpose(x: Tensor, axes) -> Tensor:
    out = Tensor(np.transpose(x.data, axes), x.requires_grad, (x,))
    if x.requires_grad:
        inv = np.argsort(axes)
        out._backward = lambda g: x._accumulate(np.transpose(g, inv))
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


@contextmanager
def patched_accumulate(accumulate):
    """`Tensor._accumulate` replaced by `accumulate` inside the block."""
    original = Tensor._accumulate
    Tensor._accumulate = accumulate
    try:
        yield
    finally:
        Tensor._accumulate = original


def tape_nodes(root):
    """Every Tensor reachable from `root` through its parents, of a tape
    not yet walked back."""
    nodes, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def backward_keeping_tape(root: Tensor):
    """`root.backward()` as a walk that frees nothing: every node keeps its
    closure, parents and gradient. The same topological order and the same
    calls as the package's walk, so the leaves' gradients must agree."""
    order, seen, stack = [], set(), [(root, False)]
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
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node._owns_grad = False  # its parents may hold it now
