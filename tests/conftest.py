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
    """The row nodes and the (rows, columns) shape of every
    `fbc._EdgeWeights` built from here on, one pair per construction."""
    built = []
    init = fbc._EdgeWeights.__init__

    def counted(self, rows, cols, num_rows, num_cols):
        built.append((np.array(rows), (num_rows, num_cols)))
        init(self, rows, cols, num_rows, num_cols)
    monkeypatch.setattr(fbc._EdgeWeights, "__init__", counted)
    return built
