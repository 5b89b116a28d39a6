"""Dense reference helpers the tests use as oracles: a temperature softmax,
a leaky ReLU and a normalized sparse-dense product, on plain numpy arrays."""

import numpy as np

from ckml.numerics import NumericError, SparseMatrix, normalized_adjacency


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


def spmm(adjacency: SparseMatrix, dense: np.ndarray, normalization: str = "none") -> np.ndarray:
    """Row i of the result is the normalized weighted sum of dense rows of
    i's neighbors; zero-degree rows come out zero."""
    dense = np.asarray(dense)
    if adjacency.shape[1] != dense.shape[0]:
        raise ValueError(
            f"shape mismatch: adjacency {adjacency.shape} @ dense {dense.shape}")
    out = normalized_adjacency(adjacency, normalization).matrix @ dense
    return np.asarray(out)
