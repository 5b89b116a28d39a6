"""Final representations, interaction scoring, and the joint loss.

The per-behavior representation of a node is the sum over layers of the
routed (specific || correlated-shared) stacks; layer-0 inputs stay out of
the sum. Scores take the max over per-interest inner products. Ranking
uses a margin hinge on pairwise score differences; relation
reconstruction uses the logistic BPR in its softplus form. The total adds
the weighted ranking terms, the weighted relation term, and the squared
Frobenius norm of every trainable array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad


@dataclass
class LossBreakdown:
    ranking_per_behavior: list   # floats, one per behavior (already alpha-weighted)
    relation: float
    regularization: float
    total: float

    @property
    def ranking(self) -> float:
        return float(sum(self.ranking_per_behavior))


def aggregate_final(layer_stacks: list) -> ad.Tensor:
    """Elementwise sum of the per-layer (spe || corr-sha) stacks, layers 1..L."""
    total = layer_stacks[0]
    for s in layer_stacks[1:]:
        total = total + s
    return total


def score_interactions(h_user: ad.Tensor, h_item: ad.Tensor) -> ad.Tensor:
    """Max over interests of the per-interest inner products.

    h_user, h_item: (B, S, d*) batches of final stacks -> (B,) scores.
    Ties keep the max value; the subgradient routes to the lowest index.
    """
    dots = (h_user * h_item).sum(axis=-1)  # (B, S)
    return dots.max(axis=1)


def margin_bpr_loss(pos_scores: ad.Tensor, neg_scores: ad.Tensor) -> ad.Tensor:
    """Per-pair hinge max(0, 1 - o_p + o_q); derivative 0 at the kink."""
    return ad.maximum(1.0 - pos_scores + neg_scores, 0.0)


def relation_scores(y_r: ad.Tensor, left: np.ndarray, right: np.ndarray) -> ad.Tensor:
    """Symmetric inner products between item rows of one relation view."""
    return (ad.gather(y_r, left) * ad.gather(y_r, right)).sum(axis=-1)


def relation_bpr_loss(pos_scores: ad.Tensor, neg_scores: ad.Tensor) -> ad.Tensor:
    """-ln(sigmoid(o_p - o_q)) == softplus(o_q - o_p), overflow-safe."""
    return ad.softplus(neg_scores - pos_scores)


def regularization_term(params: dict) -> ad.Tensor:
    """Squared Frobenius norm summed over every trainable array."""
    total = None
    for t in params.values():
        sq = (t * t).sum()
        total = sq if total is None else total + sq
    return total


def total_loss(ranking_terms: list, alphas: list, relation_term: ad.Tensor | None,
               beta: float, reg_term: ad.Tensor, reg_lambda: float):
    """Assemble the joint objective; returns (total Tensor, LossBreakdown).

    ranking_terms: one summed hinge Tensor per behavior (may contain None
    for behaviors without triples in the batch).
    """
    total = None
    per_behavior = []
    for alpha, term in zip(alphas, ranking_terms):
        if term is None:
            per_behavior.append(0.0)
            continue
        weighted = term * alpha
        per_behavior.append(float(weighted.data))
        total = weighted if total is None else total + weighted
    rel_value = 0.0
    if relation_term is not None and beta != 0.0:
        weighted = relation_term * beta
        rel_value = float(weighted.data)
        total = weighted if total is None else total + weighted
    reg_value = 0.0
    if reg_lambda != 0.0:
        weighted = reg_term * reg_lambda
        reg_value = float(weighted.data)
        total = weighted if total is None else total + weighted
    if total is None:
        total = ad.constant(np.float64(0.0))
    breakdown = LossBreakdown(per_behavior, rel_value, reg_value, float(total.data))
    return total, breakdown
