"""Ranking metrics under the 1-positive + 99-negative protocol.

Ranks are pessimistic: candidates tying the positive's score count
against it, so a constant scorer ranks the positive last. Evaluation is a
pure function of (params, dataset, N); repeated calls agree bitwise.

Users are scored and ranked in blocks of `_BLOCK` as (B, C) score arrays:
a per-user loop spends most of its time in numpy's per-call overhead, and
scoring all users at once would hold a (users, C, d*) gather, tens of MB
on a wide catalog. A block is a slice of the split's rows and of their
negatives. The means add the users' HR and NDCG in sorted order with one
sequential accumulate, so they keep the bits of a per-user loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .model import _pin_allocator, forward
from .numerics import NumericError

_BLOCK = 512  # users scored at once


@dataclass
class MetricsReport:
    top_n: int
    per_behavior: dict = field(default_factory=dict)  # k -> (hr, ndcg, user count)
    diagnostics: dict = field(default_factory=dict)


def rank_positives(scores: np.ndarray) -> np.ndarray:
    """1-based rank of each row's positive, in column 0, among the row's
    candidates, ties counted against the positive: (B, C) -> (B,)."""
    if not np.all(np.isfinite(scores)):
        raise NumericError("candidate scores contain non-finite values")
    target = scores[:, :1]
    return (scores > target).sum(axis=1) + (scores == target).sum(axis=1)


def hr_ndcg_at_n(rank: int, top_n: int):
    """Single-relevant-item hit ratio and discounted gain."""
    if rank < 1 or top_n < 1:
        raise ValueError("rank and N must be >= 1")
    if rank > top_n:
        return 0.0, 0.0
    return 1.0, 1.0 / np.log2(rank + 1.0)


def score_candidates(user_rep: np.ndarray, items: np.ndarray,
                     candidates: np.ndarray) -> np.ndarray:
    """Max-over-interests inner products of a block of users with their
    candidates: (B, S, d*) users, interest-major (S, N, d*) items and
    (B, C) item ids -> (B, C) float64 scores."""
    scores = None
    for s, items_s in enumerate(items):
        dots = np.einsum("bd,bcd->bc", user_rep[:, s], np.take(items_s, candidates, axis=0))
        scores = dots if scores is None else np.maximum(scores, dots, out=scores)
    return scores.astype(np.float64, copy=False)


def evaluate(params: dict, ctx, hyper, top_n: int,
             all_behaviors: bool = False) -> MetricsReport:
    """Rank each evaluated user's held-out positive among its negatives.

    Scoring uses the target behavior's representations by default; the
    `all_behaviors` flag reports every behavior's representation against
    the same candidate sets (a diagnostic, the protocol targets one).
    """
    _pin_allocator()
    ds = ctx.dataset
    if ds.eval_negatives is None:
        raise ValueError("dataset has no eval negatives")
    tensors = {k: ad.Tensor(v) for k, v in params.items()}
    out = forward(tensors, ctx, hyper)
    behaviors = range(ds.num_behaviors) if all_behaviors else [ds.target_behavior]
    users, positives = ds.test_positive.T
    # HR and NDCG by rank: no rank exceeds the candidate count
    hr_by_rank, ndcg_by_rank = np.array(
        [hr_ndcg_at_n(r, top_n) for r in range(1, ds.eval_negatives.shape[1] + 2)]).T
    report = MetricsReport(top_n=top_n)
    for k in behaviors:
        user_rep = out.user_final[k].data
        items = np.ascontiguousarray(out.item_final[k].data.transpose(1, 0, 2))
        ranks = np.empty(len(users), dtype=np.int64)
        for lo in range(0, len(users), _BLOCK):
            block = slice(lo, lo + _BLOCK)
            candidates = np.column_stack((positives[block], ds.eval_negatives[block]))
            ranks[block] = rank_positives(
                score_candidates(user_rep[users[block]], items, candidates))
        # added from 0.0 one user at a time, as a per-user loop adds them:
        # np.sum adds pairwise, which changes the last bits
        hr, ndcg = (np.cumsum(np.append(0.0, by_rank[ranks - 1]))[-1] / max(len(users), 1)
                    for by_rank in (hr_by_rank, ndcg_by_rank))
        report.per_behavior[k] = (hr, ndcg, len(users))
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
    iu = np.triu_indices(n_interests, k=1)
    diffs = stacks[:, iu[0]] - stacks[:, iu[1]]  # the S(S-1)/2 pairs alone
    per_item = np.sqrt(ad.sum_last(diffs * diffs)[..., 0]).mean(axis=1)
    if not np.all(np.isfinite(per_item)):
        raise NumericError("interest distances contain non-finite values")
    return {
        "per_item": per_item,
        "mean": float(per_item.mean()),
        "p10": float(np.percentile(per_item, 10)),
        "p50": float(np.percentile(per_item, 50)),
        "p90": float(np.percentile(per_item, 90)),
    }
