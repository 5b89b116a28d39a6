"""Coarse-grained interest extraction.

A per-relation GNN over the item-item graphs produces relation views of
every item; layer outputs are averaged, relation views concatenated, and
nonlinear per-interest projections turn the concatenation into shared and
behavior-specific interest stacks (the initial interest cluster centers).
Those projections run as one product over every interest; its bytes
depend on the BLAS kernel.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad

AGGREGATORS = ("light", "gccf", "gcn", "ngcf")
# the aggregators whose output reads a node's own row (`apply_aggregator`)
READS_SELF = ("gccf", "ngcf")


def aggregator_weight_shapes(kind: str, width: int) -> list:
    """Names/shapes of the transform weights one aggregator layer needs."""
    if kind == "light":
        return []
    if kind in ("gccf", "gcn"):
        return [("W", (width, width))]
    if kind == "ngcf":
        return [("W1", (width, width)), ("W2", (width, width))]
    raise ValueError(f"unknown aggregator {kind!r}")


def apply_aggregator(kind: str, neighbors: ad.Tensor, x_self: ad.Tensor,
                     weights: dict | None, slope: float) -> ad.Tensor:
    """Combine the degree-normalized neighbor sum with the node's own state.

    light: the normalized sum, untouched. gccf: linear transform plus
    residual. gcn: transform plus activation. ngcf: transform plus the
    elementwise interaction term, then activation.
    """
    if kind == "light":
        return neighbors
    if kind == "gccf":
        return ad.matmul(neighbors, weights["W"]) + x_self
    if kind == "gcn":
        return ad.leaky_relu(ad.matmul(neighbors, weights["W"]), slope)
    if kind == "ngcf":
        return ad.leaky_relu(
            ad.matmul(neighbors, weights["W1"])
            + ad.matmul(neighbors * x_self, weights["W2"]), slope)
    raise ValueError(f"unknown aggregator {kind!r}")


def propagate_relation_graph(item_table: ad.Tensor, norm_adj: sp.csr_matrix,
                             layers: int, aggregator: str,
                             agg_weights: list | None = None,
                             slope: float = 0.2) -> list:
    """Layer outputs y^0..y^L over one relation graph; y^0 is the item table.

    `norm_adj` must already carry the symmetric-degree weights. Isolated
    items receive zero from their (absent) neighbors at every layer.
    """
    if aggregator not in AGGREGATORS:
        raise ValueError(f"unknown aggregator {aggregator!r}")
    outputs = [item_table]
    state = item_table
    for l in range(layers):
        neighbors = ad.spmm(norm_adj, state)
        weights = agg_weights[l] if agg_weights else None
        state = apply_aggregator(aggregator, neighbors, state, weights, slope)
        outputs.append(state)
    return outputs


def average_layers(layer_outputs: list) -> ad.Tensor:
    """Elementwise mean over layers 0..L (divide by L+1)."""
    if not layer_outputs:
        raise ValueError("need at least one layer output")
    return ad.add_all(layer_outputs) * (1.0 / len(layer_outputs))


def concat_relations(relation_views: list) -> ad.Tensor:
    """Row width grows to |R| * d, blocks ordered by relation id."""
    if len(relation_views) == 1:
        return relation_views[0]
    return ad.concat(relation_views, axis=1)


def extract_interests(y_star: ad.Tensor, groups: list, slope: float) -> list:
    """Each group's stack of LeakyReLU(y* W_s + b_s) over its interests s,
    (N, S_g, d*), or None for a group of no interest.

    `groups` lists (W_s, b_s) pairs, one list per group. Every interest of
    every group comes from one product: the W_s and b_s are concatenated on
    the tape, so the parameters stay one pair per interest, and the groups'
    stacks are slices of the one output (`ad.unstack`).
    """
    flat = [wb for group in groups for wb in group]
    if not flat:
        return [None] * len(groups)
    W = ad.concat([W for W, _ in flat], axis=1)
    b = ad.concat([b for _, b in flat], axis=0)
    z = ad.leaky_relu(ad.matmul(y_star, W) + b, slope)
    z = z.reshape(z.shape[0], len(flat), -1)
    ends = np.cumsum([len(group) for group in groups])
    stacks = ad.unstack(z, [slice(end - len(group), end)
                            for group, end in zip(groups, ends)], axis=1)
    return [stack if group else None for stack, group in zip(stacks, groups)]


def assemble_interest_embedding(specific: ad.Tensor | None,
                                shared: ad.Tensor | None) -> ad.Tensor:
    """Specific block first, shared block second, as N_* rows of width d*."""
    if specific is None:
        return shared
    if shared is None:
        return specific
    return ad.concat([specific, shared], axis=1)

