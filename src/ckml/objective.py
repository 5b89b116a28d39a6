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


def aggregate_final(layer_stacks: list, rows=None) -> ad.Tensor:
    """Elementwise sum of the per-layer (spe || corr-sha) stacks, layers
    1..L. The last may hold the `fbc.Rows` `rows` alone, and the sum does
    too: the earlier layers, which hold every row, are read at those rows."""
    *earlier, last = layer_stacks
    if rows is not None:
        earlier = [rows.gather(stack) for stack in earlier]
    return ad.add_all(earlier + [last])


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
    """Squared Frobenius norm summed over every trainable array, as one tape
    node: the arrays' (p*p).sum() added left to right. Its backward gives
    each array g*p twice, as the two operands of p*p would on the tape, so
    the bytes are those of a node per square, sum and add."""
    tensors = list(params.values())
    value = ad.add_all([(t.data * t.data).sum() for t in tensors])
    out = ad.Tensor(value, any(t.requires_grad for t in tensors), tuple(tensors))
    if out.requires_grad:
        def backward(g):
            for t in tensors:
                if t.requires_grad:
                    t._accumulate(g * t.data)
                    t._accumulate(g * t.data)
        out._backward = backward
    return out


def total_loss(ranking_terms: list, alphas: list, relation_term: ad.Tensor | None,
               beta: float, reg_term: ad.Tensor, reg_lambda: float):
    """Assemble the joint objective; returns (total Tensor, LossBreakdown).

    ranking_terms: one summed hinge Tensor per behavior (may contain None
    for behaviors without triples in the batch).
    """
    weighted = []

    def weigh(term, weight) -> float:
        weighted.append(term * weight)
        return float(weighted[-1].data)

    per_behavior = [0.0 if term is None else weigh(term, alpha)
                    for alpha, term in zip(alphas, ranking_terms)]
    rel_value = weigh(relation_term, beta) if relation_term is not None and beta != 0.0 else 0.0
    reg_value = weigh(reg_term, reg_lambda) if reg_lambda != 0.0 else 0.0
    total = ad.add_all(weighted) if weighted else ad.constant(np.zeros((), reg_term.dtype))
    breakdown = LossBreakdown(per_behavior, rel_value, reg_value, float(total.data))
    return total, breakdown
