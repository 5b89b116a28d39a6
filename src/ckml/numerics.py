"""Dense/sparse kernels and the gradient-evaluation contract.

Dense matrices are plain numpy arrays of the dtype `precision` names
(float64 or float32), and so are the normalized adjacencies' weights; the
gradient audit runs in float64. Sparse matrices are scipy CSR matrices
built from edge lists by `normalized_adjacency`, which gives each edge
aggregation's one normalization, the symmetric-degree weights. A product
with a transpose, as in the backward of `spmm`, multiplies by `.T`,
scipy's CSC view of the same arrays: it adds each output row's terms in
ascending order of the other index, as a CSR copy of the transpose would,
so no copy is kept. `finite_difference_gradcheck` is the arbiter for every
analytic gradient in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad


class NumericError(RuntimeError):
    """Non-finite value or invalid numeric argument."""


def normalized_adjacency(rows, cols, shape, dtype=np.float64) -> sp.csr_matrix:
    """The aggregation weights of a graph given as edges, each (row, col) at
    most once: edge (i, j) weighs 1/sqrt(deg_i * deg_j), with row degrees
    counted over `rows` and column degrees over `cols`. Isolated nodes have
    no entry, so they aggregate to zero. The transpose of the result is the
    normalization of the reversed edges. The weights are computed in float64
    and stored in `dtype`.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)

    def inv_sqrt_degree(ids, count):
        """1/sqrt of each edge's endpoint degree; an endpoint's is >= 1."""
        return 1.0 / np.sqrt(np.bincount(ids, minlength=count)[ids])

    data = inv_sqrt_degree(rows, shape[0]) * inv_sqrt_degree(cols, shape[1])
    # scipy sorts each row's columns while it builds the matrix
    return sp.csr_matrix((data.astype(dtype, copy=False), (rows, cols)), shape=shape)


@dataclass
class GradientReport:
    """Max relative error per parameter between analytic and central differences."""

    per_parameter: dict
    overall: float

    def worst(self) -> str:
        if not self.per_parameter:
            return ""
        return max(self.per_parameter, key=lambda k: self.per_parameter[k])


def finite_difference_gradcheck(loss_fn, params: dict, epsilon: float = 1e-5,
                                grad_hook=None) -> GradientReport:
    """Compare analytic gradients of `loss_fn` against central differences.

    `loss_fn` maps {name: Tensor} to a scalar Tensor. Every entry of every
    parameter is perturbed; relative error is |a - n| / max(1e-8, |a| + |n|).
    `grad_hook(name, grad) -> grad` lets tests corrupt a backward pass on
    purpose to prove the checker catches it.
    """
    tensors = {k: ad.Tensor(v, requires_grad=True) for k, v in params.items()}
    loss = loss_fn(tensors)
    if not np.isfinite(loss.data):
        raise NumericError("loss is non-finite at the evaluation point")
    loss.backward()
    analytic = {}
    for name, t in tensors.items():
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        if grad_hook is not None:
            g = grad_hook(name, g)
        analytic[name] = g

    def eval_at(values):
        out = loss_fn({k: ad.Tensor(v) for k, v in values.items()})
        if not np.isfinite(out.data):
            raise NumericError("loss became non-finite during finite differencing")
        return float(out.data)

    work = {k: v.astype(np.float64).copy() for k, v in params.items()}
    per_param = {}
    for name, arr in work.items():
        flat = arr.reshape(-1)
        worst = 0.0
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + epsilon
            up = eval_at(work)
            flat[j] = orig - epsilon
            down = eval_at(work)
            flat[j] = orig
            numeric = (up - down) / (2.0 * epsilon)
            a = float(analytic[name].reshape(-1)[j])
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            if err > worst:
                worst = err
        per_param[name] = worst
    overall = max(per_param.values()) if per_param else 0.0
    return GradientReport(per_parameter=per_param, overall=overall)
