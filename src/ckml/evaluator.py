"""Ranking metrics under the 1-positive + 99-negative protocol.

Ranks are pessimistic: candidates tying the positive's score count
against it, so a constant scorer ranks the positive last. Evaluation is a
pure function of (params, dataset, N); repeated calls agree bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .numerics import NumericError


@dataclass
class MetricsReport:
    top_n: int
    per_behavior: dict = field(default_factory=dict)  # k -> (hr, ndcg, user count)
    diagnostics: dict = field(default_factory=dict)


def rank_positive(scores: np.ndarray, positive_index: int) -> int:
    """1-based rank of the positive among all candidates, ties counted
    against the positive."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise NumericError("candidate scores contain non-finite values")
    target = scores[positive_index]
    higher = int(np.sum(scores > target))
    tied_others = int(np.sum(scores == target)) - 1
    return 1 + higher + tied_others


def hr_ndcg_at_n(rank: int, top_n: int):
    """Single-relevant-item hit ratio and discounted gain."""
    if rank < 1 or top_n < 1:
        raise ValueError("rank and N must be >= 1")
    if rank > top_n:
        return 0.0, 0.0
    return 1.0, 1.0 / np.log2(rank + 1.0)


def score_candidates(user_stack: np.ndarray, item_stacks: np.ndarray) -> np.ndarray:
    """Max-over-interests inner products: (S, d*) x (C, S, d*) -> (C,)."""
    dots = np.einsum("sd,csd->cs", user_stack, item_stacks)
    return dots.max(axis=1)


def evaluate(params: dict, ctx, hyper, top_n: int,
             all_behaviors: bool = False) -> MetricsReport:
    """Rank each evaluated user's held-out positive among its negatives.

    Scoring uses the target behavior's representations by default; the
    `all_behaviors` flag reports every behavior's representation against
    the same candidate sets (a diagnostic, the protocol targets one).
    """
    from .model import forward  # local import to avoid a cycle

    ds = ctx.dataset
    if ds.eval_negatives is None:
        raise ValueError("dataset has no eval negatives")
    tensors = {k: ad.Tensor(v) for k, v in params.items()}
    out = forward(tensors, ctx, hyper)
    behaviors = range(ds.num_behaviors) if all_behaviors else [ds.target_behavior]
    users = sorted(ds.test_positive)
    report = MetricsReport(top_n=top_n)
    for k in behaviors:
        user_rep = out.user_final[k].data
        item_rep = out.item_final[k].data
        hr_sum = 0.0
        ndcg_sum = 0.0
        for u in users:
            candidates = np.concatenate(([ds.test_positive[u]], ds.eval_negatives[u]))
            scores = score_candidates(user_rep[u], item_rep[candidates])
            rank = rank_positive(scores, 0)
            hr, ndcg = hr_ndcg_at_n(rank, top_n)
            hr_sum += hr
            ndcg_sum += ndcg
        count = len(users)
        report.per_behavior[k] = (hr_sum / count if count else 0.0,
                                  ndcg_sum / count if count else 0.0,
                                  count)
    stacks = out.item_interest_stacks[ds.target_behavior].data
    if stacks.shape[1] >= 2:
        dist = interest_center_distance(stacks)
        report.diagnostics["interest_distance"] = {
            key: dist[key] for key in ("mean", "p10", "p50", "p90")}
    return report


def interest_center_distance(stacks: np.ndarray) -> dict:
    """Mean pairwise Euclidean distance between a node's interest vectors.

    stacks: (N, S, d*) with S >= 2. Returns per-item values plus summary
    percentiles for histogram export.
    """
    stacks = np.asarray(stacks)
    n_interests = stacks.shape[1]
    if n_interests < 2:
        raise ValueError("interest distance needs at least two interests")
    diffs = stacks[:, :, None, :] - stacks[:, None, :, :]
    dist = np.sqrt((diffs * diffs).sum(axis=-1))
    iu = np.triu_indices(n_interests, k=1)
    per_item = dist[:, iu[0], iu[1]].mean(axis=1)
    if not np.all(np.isfinite(per_item)):
        raise NumericError("interest distances contain non-finite values")
    return {
        "per_item": per_item,
        "mean": float(per_item.mean()),
        "p10": float(np.percentile(per_item, 10)),
        "p50": float(np.percentile(per_item, 50)),
        "p90": float(np.percentile(per_item, 90)),
    }
