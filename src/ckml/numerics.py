"""Dense/sparse kernels and the gradient-evaluation contract.

Dense matrices are plain numpy arrays (float64 in test mode, float32
allowed in fast mode). Sparse adjacency lives in a thin CSR wrapper backed
by scipy; the transpose is precomputed once so backward passes through
`spmm` stay cheap. `finite_difference_gradcheck` is the arbiter for every
analytic gradient in the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad


class NumericError(RuntimeError):
    """Non-finite value or invalid numeric argument."""


@dataclass
class SparseMatrix:
    """CSR matrix with sorted column indices; values immutable after build."""

    matrix: sp.csr_matrix
    matrix_t: sp.csr_matrix = field(init=False)

    def __post_init__(self):
        self.matrix = self.matrix.tocsr()
        self.matrix.sum_duplicates()
        self.matrix.sort_indices()
        self.matrix_t = self.matrix.T.tocsr()
        self.matrix_t.sort_indices()

    @classmethod
    def from_edges(cls, rows, cols, shape, weights=None, dtype=np.float64):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if weights is None:
            weights = np.ones(len(rows), dtype=dtype)
        m = sp.csr_matrix((np.asarray(weights, dtype=dtype), (rows, cols)), shape=shape)
        return cls(m)

    @classmethod
    def incidence(cls, index, num_nodes: int):
        """Node-by-position 0/1 matrix of an index array: (index[e], e) is 1.

        Row n lists the positions holding n in ascending order, so
        `matrix @ v` adds the rows of `v` per node from zero in the order
        `np.add.at` does, and `matrix_t.indices` is `index` itself. The ones
        are float32, so float32 operands stay float32.
        """
        index = np.asarray(index, dtype=np.int64)
        E = len(index)
        ones = np.ones(E, dtype=np.float32)
        counts = np.bincount(index, minlength=num_nodes)
        # built as CSR directly: a stable argsort already gives each row its
        # positions in ascending order, without duplicates, so the COO
        # conversion, sorting and transposing in __post_init__ are skipped
        out = cls.__new__(cls)
        out.matrix = sp.csr_matrix(
            (ones, np.argsort(index, kind="stable"), np.concatenate(([0], np.cumsum(counts)))),
            shape=(num_nodes, E))
        out.matrix_t = sp.csr_matrix((ones, index, np.arange(E + 1)), shape=(E, num_nodes))
        return out

    @property
    def shape(self):
        return self.matrix.shape

    @property
    def indptr(self):
        return self.matrix.indptr

    @property
    def indices(self):
        return self.matrix.indices

    def row_degrees(self) -> np.ndarray:
        return np.diff(self.matrix.indptr)


NORMALIZATIONS = ("none", "row-mean", "symmetric-degree")


def normalized_adjacency(adj: SparseMatrix, normalization: str,
                         col_degrees: np.ndarray | None = None) -> SparseMatrix:
    """Reweight a 0/1 adjacency for aggregation.

    row-mean divides each row by its degree; symmetric-degree scales entry
    (i, j) by 1/sqrt(deg_i * deg_j). For bipartite halves the column-side
    degrees come from the transposed half via `col_degrees`. Zero-degree
    rows/columns keep weight 0 so isolated nodes aggregate to zero.
    """
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization {normalization!r}")
    m = adj.matrix.astype(np.float64)
    if normalization == "none":
        return SparseMatrix(m)
    row_deg = np.diff(m.indptr).astype(np.float64)
    if normalization == "row-mean":
        inv = np.zeros_like(row_deg)
        nz = row_deg > 0
        inv[nz] = 1.0 / row_deg[nz]
        data = m.data * np.repeat(inv, np.diff(m.indptr))
    else:
        if col_degrees is None:
            col_degrees = np.asarray(m.sum(axis=0)).ravel()
        col_degrees = np.asarray(col_degrees, dtype=np.float64)
        inv_row = np.zeros_like(row_deg)
        nz = row_deg > 0
        inv_row[nz] = 1.0 / np.sqrt(row_deg[nz])
        inv_col = np.zeros_like(col_degrees)
        nz = col_degrees > 0
        inv_col[nz] = 1.0 / np.sqrt(col_degrees[nz])
        data = m.data * np.repeat(inv_row, np.diff(m.indptr)) * inv_col[m.indices]
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
