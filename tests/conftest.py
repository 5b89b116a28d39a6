import numpy as np
import pytest

from ckml import fbc
from ckml.dataio import (Dataset, build_behavior_graphs, build_relation_graphs,
                         leave_one_out_split)


def tiny_dataset(num_users=8, num_items=12, num_behaviors=2, relation_count=2,
                 per_user=4, seed=7, relation_pairs=18):
    """Small random dataset without the 99-negative protocol (N is tiny)."""
    rng = np.random.default_rng(seed)
    records = []
    for u in range(num_users):
        for k in range(num_behaviors):
            for i in rng.choice(num_items, size=per_user, replace=False):
                records.append((u, int(i), k, int(rng.integers(0, 1000))))
    rels = []
    for r in range(relation_count):
        for _ in range(relation_pairs):
            a, b = rng.choice(num_items, size=2, replace=False)
            rels.append((int(a), int(b), r))
    train, test_pos = leave_one_out_split(records, num_behaviors - 1)
    graphs = build_behavior_graphs(train, num_users, num_items, num_behaviors)
    rel_graphs = build_relation_graphs(rels, num_items, relation_count)
    return Dataset(num_users, num_items, num_behaviors, relation_count,
                   num_behaviors - 1, graphs, rel_graphs, test_pos,
                   eval_negatives=None, rng_seed=seed)


@pytest.fixture
def small_ds():
    return tiny_dataset()


@pytest.fixture
def edge_weight_builds(monkeypatch):
    """Each edge's row and the shape of every `fbc._EdgeWeights` built over
    a subset of a behavior's edges from here on, one pair per construction:
    its user and (users, items) for sums built user-major, its item and
    (items, users) for those built item-major (a forward into item rows,
    and its backward)."""
    built = []
    of_edges = fbc._EdgeWeights.of_edges

    def counted(users, items, shape):
        built.append((np.array(users), shape))
        return of_edges(users, items, shape)
    monkeypatch.setattr(fbc._EdgeWeights, "of_edges", staticmethod(counted))
    return built
