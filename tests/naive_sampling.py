"""Per-edge loop oracles for the package's negative samplers.

Straight Python loops with one banned-item set per anchor and a pool
built by testing every item. The package draws every negative in batched
rounds (`dataio.draw_free_items`), so these loops agree with it in
distribution only, not draw for draw.
"""

import numpy as np

from naive_dataio import user_items


def _negative_for(rng, num_items, banned):
    q = int(rng.integers(0, num_items))
    while q in banned:
        q = int(rng.integers(0, num_items))
    return q


def naive_ranking_triples(graph, rng):
    """One negative per observed (user, item) edge, or None without edges."""
    E = graph.edge_count
    if E == 0:
        return None
    users = graph.edges[:, 0]
    positives = graph.edges[:, 1]
    negatives = np.empty(E, dtype=np.int64)
    pos_sets = {}
    for e in range(E):
        u = int(users[e])
        if u not in pos_sets:
            pos_sets[u] = set(user_items(graph, u).tolist())
        if len(pos_sets[u]) >= graph.num_items:
            negatives[e] = -1
            continue
        negatives[e] = _negative_for(rng, graph.num_items, pos_sets[u])
    keep = negatives >= 0
    return users[keep].copy(), positives[keep].copy(), negatives[keep]


def naive_relation_triples(rel_graph, rng):
    """One negative per undirected relation edge, anchored at the lower id."""
    und = rel_graph.undirected_edges()
    if len(und) == 0:
        return None
    anchors = und[:, 0]
    positives = und[:, 1]
    negatives = np.empty(len(und), dtype=np.int64)
    edges = rel_graph.edges
    related = {}
    for e in range(len(und)):
        a = int(anchors[e])
        if a not in related:
            row = set(edges[edges[:, 0] == a, 1].tolist())
            row.add(a)
            related[a] = row
        if len(related[a]) >= rel_graph.num_items:
            negatives[e] = -1
            continue
        negatives[e] = _negative_for(rng, rel_graph.num_items, related[a])
    keep = negatives >= 0
    return anchors[keep].copy(), positives[keep].copy(), negatives[keep]


def naive_eval_negatives(dataset, seed):
    """99 shuffled items per evaluated user outside its target history;
    ValueError, naming the first such user, when a pool holds fewer than 99."""
    rng = np.random.default_rng(seed)
    target = dataset.behavior_graphs[dataset.target_behavior]
    negatives = {}
    for u, held in dataset.test_positive.tolist():
        banned = set(user_items(target, u).tolist())
        banned.add(held)
        pool = np.array([i for i in range(dataset.num_items) if i not in banned],
                        dtype=np.int64)
        if len(pool) < 99:
            raise ValueError(f"insufficient candidate pool for user {u}")
        negatives[u] = pool[rng.permutation(len(pool))[:99]]
    return negatives
