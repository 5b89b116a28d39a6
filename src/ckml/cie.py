"""Coarse-grained interest extraction.

A per-relation GNN over the item-item graphs produces relation views of
every item; layer outputs are averaged, relation views concatenated, and
nonlinear per-interest projections turn the concatenation into shared and
behavior-specific interest stacks (the initial interest cluster centers).
"""

from __future__ import annotations

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


def extract_interests(y_star: ad.Tensor, projections: list, slope: float) -> ad.Tensor:
    """Stack LeakyReLU(y* W_s + b_s) for each interest s: (N, S, d*)."""
    pieces = []
    for W, b in projections:
        z = ad.leaky_relu(ad.matmul(y_star, W) + b, slope)
        pieces.append(z.reshape(z.shape[0], 1, z.shape[1]))
    return ad.concat(pieces, axis=1)


def assemble_interest_embedding(specific: ad.Tensor | None,
                                shared: ad.Tensor | None) -> ad.Tensor:
    """Specific block first, shared block second, as N_* rows of width d*."""
    if specific is None:
        return shared
    if shared is None:
        return specific
    return ad.concat([specific, shared], axis=1)

