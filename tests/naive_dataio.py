"""Per-record loop oracles for the package's graph building, split and
time bucketing.

Straight Python over one row at a time: a dict of latest timestamps per
edge, a set of symmetrized relation pairs, a best-(timestamp, item) dict
per user and a per-edge max loop. Rows are (user, item, behavior,
timestamp) and (item_a, item_b, relation) tuples or array rows. The
package's array code must agree with these bitwise.
"""

import numpy as np

from ckml.dataio import BehaviorGraph, DataError, RelationGraph


def naive_behavior_graphs(rows, num_users, num_items, num_behaviors):
    latest = [{} for _ in range(num_behaviors)]
    for u, i, k, t in rows:
        key = (int(u), int(i))
        d = latest[k]
        if key not in d or t > d[key]:
            d[key] = int(t)
    graphs = []
    for k in range(num_behaviors):
        if latest[k]:
            pairs = sorted(latest[k].items())
            edges = np.array([p for p, _ in pairs], dtype=np.int64)
            ts = np.array([t for _, t in pairs], dtype=np.int64)
        else:
            edges = np.zeros((0, 2), dtype=np.int64)
            ts = np.zeros(0, dtype=np.int64)
        graphs.append(BehaviorGraph(k, num_users, num_items, edges, ts))
    return graphs


def naive_relation_graphs(rows, num_items, relation_count):
    per_rel = [set() for _ in range(relation_count)]
    for a, b, r in rows:
        if a == b:
            raise DataError(
                f"self-loop relation record rejected: item {a}, relation {r}")
        per_rel[r].add((int(a), int(b)))
        per_rel[r].add((int(b), int(a)))
    graphs = []
    for r in range(relation_count):
        if per_rel[r]:
            edges = np.array(sorted(per_rel[r]), dtype=np.int64)
        else:
            edges = np.zeros((0, 2), dtype=np.int64)
        graphs.append(RelationGraph(r, num_items, edges))
    return graphs


def naive_leave_one_out_split(rows, target_behavior):
    """(train rows as a list of tuples, {user: held-out item})."""
    rows = [tuple(int(v) for v in row) for row in rows]
    best = {}
    for u, i, k, t in rows:
        if k != target_behavior:
            continue
        if u not in best or (t, i) > best[u]:
            best[u] = (t, i)
    test_positive = {u: item for u, (_, item) in best.items()}
    train = [row for row in rows
             if not (row[2] == target_behavior
                     and test_positive.get(row[0]) == row[1])]
    return train, test_positive


def naive_time_buckets(graph, bucket_count):
    buckets = []
    for side in (0, 1):
        n = graph.num_users if side == 0 else graph.num_items
        latest = np.full(n, -1, dtype=np.int64)
        for (u, i), t in zip(graph.edges, graph.edge_ts):
            node = u if side == 0 else i
            if t > latest[node]:
                latest[node] = t
        out = np.zeros(n, dtype=np.int64)
        active = np.flatnonzero(latest >= 0)
        if len(active):
            order = active[np.lexsort((active, latest[active]))]
            ranks = np.arange(len(order))
            out[order] = np.minimum(ranks * bucket_count // len(order),
                                    bucket_count - 1)
        buckets.append(out)
    return buckets[0], buckets[1]


def user_items(graph, u):
    """The items of user `u` in a behavior graph, ascending."""
    return graph.edges[graph.edges[:, 0] == u, 1]
