"""Per-user reference for `ckml.evaluator.evaluate`'s ranking: each test
user's candidates are scored, ranked and summed one user at a time."""

import numpy as np

from ckml.evaluator import hr_ndcg_at_n
from ckml.numerics import NumericError


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


def score_candidates(user_stack: np.ndarray, item_stacks: np.ndarray) -> np.ndarray:
    """Max-over-interests inner products: (S, d*) x (C, S, d*) -> (C,)."""
    dots = np.einsum("sd,csd->cs", user_stack, item_stacks)
    return dots.max(axis=1)


def per_user(out, dataset, top_n: int, k: int) -> list:
    """(hr, ndcg) of each row of the held-out split, in row order, ranked
    one user at a time under behavior k."""
    user_rep = out.user_final[k].data
    item_rep = out.item_final[k].data
    metrics = []
    for (u, positive), negatives in zip(dataset.test_positive.tolist(),
                                        dataset.eval_negatives):
        candidates = np.concatenate(([positive], negatives))
        scores = score_candidates(user_rep[u], item_rep[candidates])
        metrics.append(hr_ndcg_at_n(rank_positive(scores, 0), top_n))
    return metrics


def per_behavior(out, dataset, top_n: int, behaviors) -> dict:
    """k -> (hr, ndcg, user count) from a forward output's final user and
    item stacks, as `evaluate` reports them: the users' values are added
    one at a time, in the split's ascending user order."""
    result = {}
    for k in behaviors:
        hr_sum = 0.0
        ndcg_sum = 0.0
        metrics = per_user(out, dataset, top_n, k)
        for hr, ndcg in metrics:
            hr_sum += hr
            ndcg_sum += ndcg
        count = len(metrics)
        result[k] = (hr_sum / count if count else 0.0,
                     ndcg_sum / count if count else 0.0,
                     count)
    return result
