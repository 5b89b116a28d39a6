"""Tape ops that only the tests and the routing oracles use.

They build `ckml.autodiff.Tensor` nodes exactly as the package's own ops
do, so they compose with them on one tape.
"""

import numpy as np

from ckml.autodiff import Tensor, concat


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
