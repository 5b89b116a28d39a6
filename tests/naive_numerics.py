"""Dense reference helpers the tests use as oracles: a temperature softmax,
a leaky ReLU and a normalized sparse-dense product, on plain numpy arrays,
plus the package's earlier symmetric-degree normalization, which took the
column degrees as an argument and built each direction of a bipartite graph
separately."""

import numpy as np
import scipy.sparse as sp

from ckml.numerics import NumericError, from_edges, normalized_adjacency


def softmax_with_temperature(values: np.ndarray, tau: float) -> np.ndarray:
    """Temperature softmax over the last axis, max-subtracted for stability."""
    if tau <= 0:
        raise NumericError(f"temperature must be positive, got {tau}")
    values = np.asarray(values)
    if not np.all(np.isfinite(values)):
        raise NumericError("softmax input contains non-finite values")
    scaled = values / values.dtype.type(tau)
    shifted = scaled - scaled.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def leaky_relu(x, slope: float = 0.2):
    """x if x >= 0 else slope * x. Slope must sit strictly inside (0, 1)."""
    if not 0.0 < slope < 1.0:
        raise NumericError(f"leaky_relu slope must be in (0,1), got {slope}")
    x = np.asarray(x)
    return np.where(x >= 0, x, x.dtype.type(slope) * x)


def spmm(rows, cols, shape, dense: np.ndarray) -> np.ndarray:
    """Row i of the result is the symmetric-degree weighted sum of dense
    rows of i's neighbors, over the graph with an edge at each
    (rows[e], cols[e]); zero-degree rows come out zero."""
    dense = np.asarray(dense)
    if shape[1] != dense.shape[0]:
        raise ValueError(f"shape mismatch: adjacency {shape} @ dense {dense.shape}")
    out = normalized_adjacency(rows, cols, shape) @ dense
    return np.asarray(out)


def separate_normalized_adjacency(adj: sp.csr_matrix,
                                  col_degrees: np.ndarray | None = None) -> tuple:
    """Entry (i, j) of a 0/1 adjacency scaled by 1/sqrt(deg_i * deg_j), with
    the column degrees given (a bipartite half takes them from the other
    half's rows) or summed over the columns of `adj`, and a CSR copy of its
    transpose built by scipy's conversion, not the package's view."""
    m = adj.astype(np.float64)
    row_deg = np.diff(m.indptr).astype(np.float64)
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
    out_t = out.T.tocsr()
    out_t.sort_indices()
    return out, out_t


def bipartite_normalized_adjacencies(edges: np.ndarray, num_users: int, num_items: int):
    """(user x item, item x user) normalized adjacencies of (E, 2) user, item
    edges, each built from its own 0/1 adjacency with the other's row
    degrees as its column degrees."""
    user_adj = from_edges(edges[:, 0], edges[:, 1], (num_users, num_items))
    item_adj = from_edges(edges[:, 1], edges[:, 0], (num_items, num_users))
    return (separate_normalized_adjacency(user_adj, np.diff(item_adj.indptr)),
            separate_normalized_adjacency(item_adj, np.diff(user_adj.indptr)))
