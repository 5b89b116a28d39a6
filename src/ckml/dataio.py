"""Loading, validation, splitting and synthesis of multi-behavior data.

File formats:
  interactions: UTF-8, one `user<TAB>item<TAB>behavior<TAB>timestamp` per
    line, `#`-prefixed comment lines ignored;
  relations:    `item_a<TAB>item_b<TAB>relation`;
  manifest:     `key=value` lines declaring dims, target behavior, seed and
    file paths (relative to the manifest's directory).

In memory the records keep the files' column order as int64 row arrays,
from the loaders and `synthesize_records` through the split and the graph
builders to the writers: interactions are (E, 4) rows of user, item,
behavior, timestamp; relations are (E, 3) rows of item_a, item_b, relation.

Graphs are immutable once built: duplicate interactions collapse to a
single edge (latest timestamp kept for time bucketing), relation graphs
are symmetrized and deduplicated.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numerics import SparseMatrix


class DataError(ValueError):
    """Malformed or inconsistent input data."""


@dataclass
class BehaviorGraph:
    """Bipartite 0/1 interaction graph for one behavior.

    `edges` is (E, 2) int64 sorted by (user, item) with no duplicates;
    `edge_ts` keeps the latest timestamp seen for each edge. The two CSR
    adjacencies are exact transposes of each other.
    """

    behavior_id: int
    num_users: int
    num_items: int
    edges: np.ndarray
    edge_ts: np.ndarray
    user_adj: SparseMatrix = field(init=False)
    item_adj: SparseMatrix = field(init=False)

    def __post_init__(self):
        self.user_adj = SparseMatrix.from_edges(
            self.edges[:, 0], self.edges[:, 1], (self.num_users, self.num_items))
        self.item_adj = SparseMatrix.from_edges(
            self.edges[:, 1], self.edges[:, 0], (self.num_items, self.num_users))

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]

    def user_items(self, u: int) -> np.ndarray:
        m = self.user_adj.matrix
        return m.indices[m.indptr[u]:m.indptr[u + 1]]

    def user_degrees(self) -> np.ndarray:
        return self.user_adj.row_degrees()

    def item_degrees(self) -> np.ndarray:
        return self.item_adj.row_degrees()


@dataclass
class RelationGraph:
    """Symmetric item-item graph for one knowledge relation."""

    relation_id: int
    num_items: int
    edges: np.ndarray  # (E, 2) both directions, sorted, deduplicated
    adj: SparseMatrix = field(init=False)

    def __post_init__(self):
        self.adj = SparseMatrix.from_edges(
            self.edges[:, 0], self.edges[:, 1], (self.num_items, self.num_items))

    @property
    def degrees(self) -> np.ndarray:
        return self.adj.row_degrees()

    def undirected_edges(self) -> np.ndarray:
        if len(self.edges) == 0:
            return self.edges.reshape(0, 2)
        keep = self.edges[:, 0] < self.edges[:, 1]
        return self.edges[keep]


@dataclass
class Dataset:
    num_users: int
    num_items: int
    num_behaviors: int
    relation_count: int
    target_behavior: int
    behavior_graphs: list  # train graphs, one per behavior
    relation_graphs: list
    test_positive: dict  # user -> held-out item under the target behavior
    eval_negatives: dict | None
    rng_seed: int
    ground_truth: dict | None = None


# ---------------------------------------------------------------- loading

# Upper bound of a column without one of its own: values must fit in int64.
_INT64_END = 2**63


def _rows(records, width: int) -> np.ndarray:
    """Records as an (E, width) int64 array; accepts any sequence of rows."""
    return np.asarray(records, dtype=np.int64).reshape(-1, width)


def _read_rows(path, columns) -> np.ndarray:
    """Parse a tab-separated file into int64 rows, one column per
    `(name, upper bound)` in `columns`.

    Every field of a line is parsed before any is range-checked, and the
    first bad line raises, naming its 1-based line number (comment and
    blank lines count).
    """
    width = len(columns)
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != width:
                raise DataError(f"malformed line (expected {width} tab-separated "
                                f"fields) at line {line_no}")
            row = []
            for (what, _), token in zip(columns, parts):
                try:
                    row.append(int(token))
                except ValueError:
                    raise DataError(
                        f"malformed {what} {token!r} at line {line_no}") from None
            for (what, upper), value in zip(columns, row):
                if value < 0 and upper == _INT64_END:
                    raise DataError(f"negative {what} at line {line_no}")
                if not 0 <= value < upper:
                    raise DataError(f"{what} out of range at line {line_no}")
            rows.append(row)
    return _rows(rows, width)


def load_interactions(path, num_users: int, num_items: int, num_behaviors: int):
    """Validated (E, 4) int64 rows of user, item, behavior, timestamp, in
    file order."""
    return _read_rows(path, (("user id", num_users), ("item id", num_items),
                             ("behavior id", num_behaviors),
                             ("timestamp", _INT64_END)))


def load_relations(path, num_items: int, relation_count: int):
    """Validated (E, 3) int64 rows of item_a, item_b, relation, in file order."""
    return _read_rows(path, (("item id", num_items), ("item id", num_items),
                             ("relation id", relation_count)))


# ---------------------------------------------------------- graph building

def _last_of_groups(keys: np.ndarray) -> np.ndarray:
    """Mask of the last row of each run of equal rows in sorted `keys`."""
    last = np.ones(len(keys), dtype=bool)
    last[:-1] = np.any(keys[1:] != keys[:-1], axis=1)
    return last


def build_behavior_graphs(records, num_users: int, num_items: int, num_behaviors: int):
    """One graph per behavior; duplicate (u, i, k) edges collapse, keeping
    the latest timestamp for time-embedding bucketing."""
    rows = _rows(records, 4)
    rows = rows[np.lexsort((rows[:, 3], rows[:, 1], rows[:, 0], rows[:, 2]))]
    rows = rows[_last_of_groups(rows[:, :3])]
    graphs = []
    for k in range(num_behaviors):
        mine = rows[rows[:, 2] == k]
        graphs.append(BehaviorGraph(k, num_users, num_items,
                                    np.ascontiguousarray(mine[:, :2]),
                                    mine[:, 3].copy()))
    return graphs


def build_relation_graphs(records, num_items: int, relation_count: int):
    """Symmetrized, deduplicated item-item graphs, one per relation."""
    rows = _rows(records, 3)
    loops = rows[:, 0] == rows[:, 1]
    if loops.any():
        a, _, r = rows[np.argmax(loops)]
        raise DataError(
            f"self-loop relation record rejected: item {a}, relation {r}")
    # (relation, from, to) in both directions, sorted, each row kept once
    pairs = np.concatenate([rows[:, [2, 0, 1]], rows[:, [2, 1, 0]]])
    pairs = pairs[np.lexsort(pairs.T[::-1])]
    pairs = pairs[_last_of_groups(pairs)]
    return [RelationGraph(r, num_items,
                          np.ascontiguousarray(pairs[pairs[:, 0] == r, 1:]))
            for r in range(relation_count)]


# ------------------------------------------------------------- splitting

def leave_one_out_split(records, target_behavior: int):
    """Hold out each user's last target-behavior interaction.

    Last = greatest timestamp, ties broken by greatest item id. Every
    target-behavior record of the held-out (user, item) pair leaves the
    training set so the test positive never appears in the train graph.
    Returns (train rows in input order, {user: held-out item}) with users
    ascending.
    """
    rows = _rows(records, 4)
    is_target = rows[:, 2] == target_behavior
    target = rows[is_target]
    target = target[np.lexsort((target[:, 1], target[:, 3], target[:, 0]))]
    held = target[_last_of_groups(target[:, :1])]
    test_positive = dict(zip(held[:, 0].tolist(), held[:, 1].tolist()))
    held_item = np.full(rows[:, 0].max(initial=-1) + 1, -1, dtype=np.int64)
    held_item[held[:, 0]] = held[:, 1]
    drop = is_target & (held_item[rows[:, 0]] == rows[:, 1])
    return rows[~drop], test_positive


def sample_eval_negatives(dataset: Dataset, seed: int) -> dict:
    """99 items per evaluated user, outside the user's target-behavior
    history (train and test), in seeded shuffled order."""
    rng = np.random.default_rng(seed)
    target = dataset.behavior_graphs[dataset.target_behavior]
    negatives = {}
    for u in sorted(dataset.test_positive):
        free = np.ones(dataset.num_items, dtype=bool)
        free[target.user_items(u)] = False
        free[dataset.test_positive[u]] = False
        pool = np.flatnonzero(free)
        if len(pool) < 99:
            raise DataError(
                f"insufficient candidate pool for user {u}: {len(pool)} < 99")
        negatives[u] = pool[rng.permutation(len(pool))[:99]]
    return negatives


# ----------------------------------------------------------- time buckets

def time_buckets(graph: BehaviorGraph, bucket_count: int):
    """Quantile bucket of each node's latest interaction timestamp.

    Nodes without interactions get bucket 0 (they are isolated under this
    behavior, so the offset never propagates). Order is stabilized by
    (timestamp, node id).
    """
    buckets = []
    for n, nodes in ((graph.num_users, graph.edges[:, 0]),
                     (graph.num_items, graph.edges[:, 1])):
        latest = np.full(n, -1, dtype=np.int64)
        np.maximum.at(latest, nodes, graph.edge_ts)
        out = np.zeros(n, dtype=np.int64)
        active = np.flatnonzero(latest >= 0)
        if len(active):
            order = active[np.lexsort((active, latest[active]))]
            ranks = np.arange(len(order))
            out[order] = np.minimum(ranks * bucket_count // len(order),
                                    bucket_count - 1)
        buckets.append(out)
    return buckets[0], buckets[1]


# ------------------------------------------------------------- synthesis

@dataclass
class GenConfig:
    """Planted-interest generative process for desk-scale experiments."""

    num_users: int = 50
    num_items: int = 80
    num_behaviors: int = 2
    relation_count: int = 2
    shared_prototypes: int = 2
    specific_prototypes: int = 2  # per behavior
    interactions_per_user: int = 10  # per behavior
    correlation: float = 1.0  # probability a behavior reuses the user's base shared prototype
    secondary_weight: float = 0.15  # mixture mass on the second active prototype
    relation_degree: int = 2
    prototype_dim: int = 8

    def prototype_count(self) -> int:
        return self.shared_prototypes + self.num_behaviors * self.specific_prototypes


def synthesize_records(cfg: GenConfig, seed: int):
    """Sample raw interaction and relation records with planted interests.

    Items get one prototype each (balanced). Per behavior a user samples
    items mostly from a primary prototype (shared with probability
    `correlation`, otherwise drawn fresh from the behavior's pool) plus a
    secondary prototype; specific prototypes never leak across behaviors.
    Returns (interaction rows (E, 4), relation rows (E', 3), ground_truth).
    """
    P = cfg.prototype_count()
    if P == 0:
        raise DataError("need at least one planted prototype")
    if cfg.interactions_per_user > cfg.num_items:
        raise DataError("infeasible config: interactions per user exceeds item count")
    if cfg.interactions_per_user > cfg.num_items // P:
        raise DataError(
            "infeasible config: interactions per user exceeds items per prototype "
            f"({cfg.num_items // P})")
    rng = np.random.default_rng(seed)

    proto_vectors = rng.normal(size=(P, cfg.prototype_dim))
    kinds = (["shared"] * cfg.shared_prototypes
             + [f"specific:{k}" for k in range(cfg.num_behaviors)
                for _ in range(cfg.specific_prototypes)])
    item_proto = rng.permutation(np.arange(cfg.num_items) % P)

    def behavior_pool(k):
        pool = list(range(cfg.shared_prototypes))
        start = cfg.shared_prototypes + k * cfg.specific_prototypes
        pool += list(range(start, start + cfg.specific_prototypes))
        return pool

    records = []
    user_primary = np.zeros((cfg.num_users, cfg.num_behaviors), dtype=np.int64)
    for u in range(cfg.num_users):
        base = int(rng.integers(cfg.shared_prototypes)) if cfg.shared_prototypes else -1
        for k in range(cfg.num_behaviors):
            pool = behavior_pool(k)
            if base >= 0 and rng.uniform() < cfg.correlation:
                primary = base
            else:
                primary = int(pool[rng.integers(len(pool))])
            user_primary[u, k] = primary
            weights = np.zeros(P)
            weights[primary] = 1.0 - cfg.secondary_weight
            rest = [p for p in pool if p != primary]
            if rest and cfg.secondary_weight > 0:
                secondary = int(rest[rng.integers(len(rest))])
                weights[secondary] = cfg.secondary_weight
            item_w = weights[item_proto]
            positive = np.flatnonzero(item_w > 0)
            n_draw = min(cfg.interactions_per_user, len(positive))
            probs = item_w[positive] / item_w[positive].sum()
            chosen = rng.choice(positive, size=n_draw, replace=False, p=probs)
            for i in chosen:
                records.append((u, i, k, rng.integers(0, 1_000_000)))

    rel_records = []
    for r in range(cfg.relation_count):
        for i in range(cfg.num_items):
            mates = np.flatnonzero(item_proto == item_proto[i])
            mates = mates[mates != i]
            if len(mates) == 0:
                continue
            take = min(cfg.relation_degree, len(mates))
            rel_records.extend((i, j, r)
                               for j in rng.choice(mates, size=take, replace=False))

    ground_truth = {
        "item_prototypes": item_proto.tolist(),
        "prototype_kinds": kinds,
        "prototype_vectors": proto_vectors.tolist(),
        "user_primary": user_primary.tolist(),
    }
    return _rows(records, 4), _rows(rel_records, 3), ground_truth


def generate_synthetic(cfg: GenConfig, seed: int, eval_negatives: bool = True) -> Dataset:
    records, rel_records, ground_truth = synthesize_records(cfg, seed)
    return assemble_dataset(
        records, rel_records, cfg.num_users, cfg.num_items, cfg.num_behaviors,
        cfg.relation_count, target_behavior=cfg.num_behaviors - 1, seed=seed,
        ground_truth=ground_truth, eval_negatives=eval_negatives)


def assemble_dataset(records, rel_records, num_users, num_items, num_behaviors,
                     relation_count, target_behavior, seed, ground_truth=None,
                     eval_negatives: bool = True) -> Dataset:
    """Split, build train graphs, and sample eval negatives (all seeded).

    `eval_negatives=False` skips the 99-negative protocol for desk fixtures
    whose catalog is too small for it (training-side experiments only).
    """
    train, test_positive = leave_one_out_split(records, target_behavior)
    graphs = build_behavior_graphs(train, num_users, num_items, num_behaviors)
    rel_graphs = build_relation_graphs(rel_records, num_items, relation_count)
    ds = Dataset(num_users, num_items, num_behaviors, relation_count,
                 target_behavior, graphs, rel_graphs, test_positive,
                 eval_negatives=None, rng_seed=seed, ground_truth=ground_truth)
    if eval_negatives:
        ds.eval_negatives = sample_eval_negatives(ds, seed)
    return ds


# ------------------------------------------------------- files & manifest

def _write_rows(path, header: str, rows, width: int):
    np.savetxt(path, _rows(rows, width), fmt="%d", delimiter="\t",
               header=header, comments="# ", encoding="utf-8")


def write_interactions(path, records):
    _write_rows(path, "user\titem\tbehavior\ttimestamp", records, 4)


def write_relations(path, records):
    _write_rows(path, "item_a\titem_b\trelation", records, 3)


def write_manifest(path, *, num_users, num_items, num_behaviors, relation_count,
                   target_behavior, seed, interactions, relations, ground_truth=None):
    lines = [
        f"users={num_users}",
        f"items={num_items}",
        f"behaviors={num_behaviors}",
        f"relations={relation_count}",
        f"target_behavior={target_behavior}",
        f"seed={seed}",
        f"interactions={interactions}",
        f"relations_file={relations}",
    ]
    if ground_truth is not None:
        lines.append(f"ground_truth={ground_truth}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_manifest(path) -> dict:
    manifest = {}
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(),
                                  start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"malformed manifest line {line_no}: {line!r}")
        key, value = line.split("=", 1)
        manifest[key.strip()] = value.strip()
    required = ["users", "items", "behaviors", "relations", "target_behavior",
                "seed", "interactions", "relations_file"]
    missing = [k for k in required if k not in manifest]
    if missing:
        raise DataError(f"manifest missing keys: {', '.join(missing)}")
    return manifest


def load_dataset(manifest_path) -> Dataset:
    manifest = load_manifest(manifest_path)
    base = Path(manifest_path).parent
    num_users = int(manifest["users"])
    num_items = int(manifest["items"])
    num_behaviors = int(manifest["behaviors"])
    relation_count = int(manifest["relations"])
    target = int(manifest["target_behavior"])
    seed = int(manifest["seed"])
    inter_path = base / manifest["interactions"]
    rel_path = base / manifest["relations_file"]
    if not inter_path.exists():
        raise DataError(f"interactions file not found: {inter_path}")
    if not rel_path.exists():
        raise DataError(f"relations file not found: {rel_path}")
    records = load_interactions(inter_path, num_users, num_items, num_behaviors)
    rel_records = load_relations(rel_path, num_items, relation_count)
    ground_truth = None
    if "ground_truth" in manifest:
        gt_path = base / manifest["ground_truth"]
        if not gt_path.exists():
            raise DataError(f"ground truth file not found: {gt_path}")
        ground_truth = json.loads(gt_path.read_text(encoding="utf-8"))
    return assemble_dataset(records, rel_records, num_users, num_items,
                            num_behaviors, relation_count, target, seed,
                            ground_truth=ground_truth)


def dataset_hash(ds: Dataset) -> str:
    """Structural fingerprint: dims, train edges, relations, split, negatives."""
    h = hashlib.sha256()
    h.update(f"{ds.num_users},{ds.num_items},{ds.num_behaviors},"
             f"{ds.relation_count},{ds.target_behavior},{ds.rng_seed}".encode())
    for g in ds.behavior_graphs:
        h.update(f"|b{g.behavior_id}".encode())
        h.update(g.edges.tobytes())
        h.update(g.edge_ts.tobytes())
    for g in ds.relation_graphs:
        h.update(f"|r{g.relation_id}".encode())
        h.update(g.edges.tobytes())
    for u in sorted(ds.test_positive):
        h.update(f"|t{u}:{ds.test_positive[u]}".encode())
    if ds.eval_negatives:
        for u in sorted(ds.eval_negatives):
            h.update(f"|n{u}:".encode())
            h.update(np.asarray(ds.eval_negatives[u], dtype=np.int64).tobytes())
    if ds.ground_truth is not None:
        h.update(json.dumps({
            "item_prototypes": ds.ground_truth["item_prototypes"],
            "prototype_kinds": ds.ground_truth["prototype_kinds"],
        }, sort_keys=True).encode())
    return h.hexdigest()
