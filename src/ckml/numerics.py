"""Dense/sparse kernels and the gradient-evaluation contract.

Dense matrices are plain numpy arrays of the dtype `precision` names
(float64 or float32), and so are the normalized adjacencies' weights; the
gradient audit runs in float64. Sparse adjacency lives in a thin CSR
wrapper backed by scipy; the transpose is precomputed once, so backward
passes through `spmm` and products with the transpose (`SparseMatrix.T`)
stay cheap. Aggregation has one normalization, the symmetric-degree
weights of `normalized_adjacency`. `finite_difference_gradcheck` is the
arbiter for every analytic gradient in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad


class NumericError(RuntimeError):
    """Non-finite value or invalid numeric argument."""


@dataclass
class SparseMatrix:
    """CSR matrix with sorted column indices and its transpose, both kept;
    values immutable after build. A `matrix_t` given with `matrix` is
    trusted to be its sorted transpose; otherwise it is computed."""

    matrix: sp.csr_matrix
    matrix_t: sp.csr_matrix | None = None

    def __post_init__(self):
        if self.matrix_t is None:
            self.matrix = self.matrix.tocsr()
            self.matrix.sum_duplicates()
            self.matrix.sort_indices()
            self.matrix_t = self.matrix.T.tocsr()
            self.matrix_t.sort_indices()

    @classmethod
    def from_edges(cls, rows, cols, shape):
        """The 0/1 matrix with a one at each (rows[e], cols[e]). The ones are
        float32, so float32 operands stay float32."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        ones = np.ones(len(rows), dtype=np.float32)
        return cls(sp.csr_matrix((ones, (rows, cols)), shape=shape))

    @property
    def shape(self):
        return self.matrix.shape

    @property
    def T(self) -> SparseMatrix:
        """The transpose, sharing both CSR arrays with this one: no copy."""
        return SparseMatrix(self.matrix_t, self.matrix)


def normalized_adjacency(adj: SparseMatrix, dtype=np.float64) -> SparseMatrix:
    """Reweight a 0/1 adjacency for aggregation: entry (i, j) is scaled by
    1/sqrt(deg_i * deg_j), with row degrees from `adj.matrix` and column
    degrees from its transpose. Zero-degree rows/columns keep weight 0 so
    isolated nodes aggregate to zero. The transpose of the result is the
    normalization of the transposed adjacency. The weights are computed in
    float64 and stored in `dtype`.
    """
    m = adj.matrix

    def inv_sqrt_degrees(indptr):
        deg = np.diff(indptr).astype(np.float64)
        inv = np.zeros_like(deg)
        nz = deg > 0
        inv[nz] = 1.0 / np.sqrt(deg[nz])
        return inv

    inv_row = inv_sqrt_degrees(m.indptr)
    inv_col = inv_sqrt_degrees(adj.matrix_t.indptr)
    data = m.data * np.repeat(inv_row, np.diff(m.indptr)) * inv_col[m.indices]
    data = data.astype(dtype, copy=False)
    out = sp.csr_matrix((data, m.indices.copy(), m.indptr.copy()), shape=m.shape)
    return SparseMatrix(out)


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
