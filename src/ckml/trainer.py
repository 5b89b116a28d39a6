"""Initialization, optimization loop, checkpointing.

One rng drives everything in order: parameter init, then per-epoch
negative sampling and batch shuffling, so a run is a pure function of
(config, seed). Training negatives, one per behavior or relation edge,
are drawn by `dataio.draw_free_items`, the sampler of the evaluation
negatives. A checkpoint holds the model only: its parameters and the
hyperparameters and dimensions that shape them, and a sha256 of the
arrays' bytes that loading checks.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .config import ConfigError, HyperConfig, _coerce, _format_value
from .dataio import Dataset, draw_free_items
from .evaluator import MetricsReport, evaluate
from .model import ModelContext, _pin_allocator, batch_loss, param_specs
from .numerics import NumericError
from .objective import LossBreakdown

CHECKPOINT_MAGIC = b"CKML"
CHECKPOINT_VERSION = 1
_DTYPE_TAGS = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}
_TAG_DTYPES = {1: np.dtype(np.float32), 2: np.dtype(np.float64)}
ARRAYS_DIGEST = "arrays.sha256"  # config key: sha256 of the arrays' bytes, in order


class CompatibilityError(RuntimeError):
    """Checkpoint unreadable, or disagreeing with the dataset on shapes."""


def init_params(hyper: HyperConfig, dataset: Dataset, seed: int | None = None,
                rng: np.random.Generator | None = None) -> OrderedDict:
    """Xavier-uniform weights (bound sqrt(6/(fan_in+fan_out))), zero-init
    time offsets; deterministic in registration order for a given seed."""
    if rng is None:
        rng = np.random.default_rng(hyper.seed if seed is None else seed)
    dtype = hyper.dtype
    params = OrderedDict()
    for name, spec in param_specs(hyper, dataset).items():
        if spec.init == "zero":
            params[name] = np.zeros(spec.shape, dtype=dtype)
        else:
            bound = np.sqrt(6.0 / (spec.fan_in + spec.fan_out))
            params[name] = rng.uniform(-bound, bound, size=spec.shape).astype(dtype)
    return params


class Adam:
    """Adam with bias correction; moments keyed by parameter name.

    A step works in place: per array it computes (1-b1)*g, g*g*(1-b2) and
    lr*(m/c1) / (sqrt(v/c2) + eps) into one pair of scratch buffers sized
    to the largest array, in that order, so its bytes are those of the same
    expressions into fresh arrays. A parameter with no gradient steps with
    g = 0. The gradients are of their parameters' dtype, and `lr` is a
    Python float, as `train_epoch` passes them.
    """

    def __init__(self, params: OrderedDict, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.m = OrderedDict((k, np.zeros_like(v)) for k, v in params.items())
        self.v = OrderedDict((k, np.zeros_like(v)) for k, v in params.items())
        size = max((v.size for v in params.values()), default=0)
        self._scratch = {dtype: np.empty((2, size), dtype)
                         for dtype in {v.dtype for v in params.values()}}

    def step(self, params: OrderedDict, grads: dict, lr: float):
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1 ** t
        c2 = 1.0 - self.beta2 ** t
        for name, p in params.items():
            g = grads.get(name)
            if g is None:
                g = np.zeros_like(p)
            a, b = (buf[:p.size].reshape(p.shape) for buf in self._scratch[p.dtype])
            m = self.m[name]
            v = self.v[name]
            np.multiply(g, 1.0 - self.beta1, out=a)
            m *= self.beta1
            m += a
            np.multiply(g, g, out=a)
            a *= 1.0 - self.beta2
            v *= self.beta2
            v += a
            np.divide(m, c1, out=a)
            a *= lr
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            p -= a


# ------------------------------------------------------------ sampling

def epoch_ranking_triples(graph, rng):
    """One negative per observed edge, outside the user's items:
    (users, positives, negatives)."""
    if graph.edge_count == 0:
        return None
    users, positives = graph.edges[:, 0], graph.edges[:, 1]
    n = graph.num_items
    # the edges are sorted by (user, item), so their keys are too
    negatives = draw_free_items(rng, users, users * n + positives, n, 1)[:, 0]
    keep = negatives >= 0
    return users[keep], positives[keep], negatives[keep]


def epoch_relation_triples(rel_graph, rng):
    """One negative per undirected relation edge, anchored at the lower id and
    outside the anchor and its neighbours."""
    und = rel_graph.undirected_edges()
    if len(und) == 0:
        return None
    anchors, positives = und[:, 0], und[:, 1]
    n, edges = rel_graph.num_items, rel_graph.edges
    banned = np.union1d(edges[:, 0] * n + edges[:, 1], np.arange(n) * (n + 1))
    negatives = draw_free_items(rng, anchors, banned, n, 1)[:, 0]
    keep = negatives >= 0
    return anchors[keep], positives[keep], negatives[keep]


def _shuffled_triples(sampler, graphs, rng):
    """Every graph's triples tagged with the graph's index and shuffled
    together: (ids, anchors, positives, negatives)."""
    parts = []
    for g_id, graph in enumerate(graphs):
        triples = sampler(graph, rng)
        if triples is not None:
            parts.append((np.full(len(triples[0]), g_id), *triples))
    if not parts:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, empty
    columns = [np.concatenate(column) for column in zip(*parts)]
    perm = rng.permutation(len(columns[0]))
    return tuple(column[perm] for column in columns)


def _batches_by_id(ids, columns, count, lo, hi):
    """Rows [lo, hi) split by id: per id in range(count), the columns'
    rows with that id, or None when there are none."""
    batches = []
    for g_id in range(count):
        m = (ids[lo:hi] == g_id)
        batches.append(tuple(c[lo:hi][m] for c in columns) if m.any() else None)
    return batches


def train_epoch(params: OrderedDict, ctx: ModelContext, hyper: HyperConfig,
                adam: Adam, rng: np.random.Generator, epoch: int) -> LossBreakdown:
    """One pass over every behavior edge (fresh negatives) and every
    relation edge, in shuffled batches; Adam steps at lr * decay^epoch."""
    _pin_allocator()
    ds = ctx.dataset
    K = ds.num_behaviors
    beh, *rank_columns = _shuffled_triples(epoch_ranking_triples,
                                           ds.behavior_graphs, rng)
    rel_ids, *rel_columns = _shuffled_triples(epoch_relation_triples,
                                              ds.relation_graphs, rng)

    steps = max(1, -(-len(beh) // hyper.batch_size))
    rel_chunk = -(-len(rel_ids) // steps) if len(rel_ids) else 0
    lr = hyper.learning_rate * (hyper.decay_rate ** epoch)

    totals = LossBreakdown([0.0] * K, 0.0, 0.0, 0.0)
    for s in range(steps):
        rank_batches = _batches_by_id(beh, rank_columns, K, s * hyper.batch_size,
                                      (s + 1) * hyper.batch_size)
        rel_batches = _batches_by_id(rel_ids, rel_columns, ds.relation_count,
                                     s * rel_chunk, (s + 1) * rel_chunk)
        # The backward freed the last step's tape; _pin_allocator keeps its blocks for this
        # one, which makes a step faster at the same peak RSS.
        tensors = {k: ad.Tensor(v, requires_grad=True) for k, v in params.items()}
        total, breakdown = batch_loss(tensors, ctx, hyper, rank_batches, rel_batches)
        if not np.isfinite(total.data):
            raise NumericError(
                f"non-finite loss at epoch {epoch} step {s}: "
                f"ranking={breakdown.ranking_per_behavior} relation={breakdown.relation}")
        total.backward()
        grads = {name: t.grad for name, t in tensors.items() if t.grad is not None}
        adam.step(params, grads, lr)
        for k in range(K):
            totals.ranking_per_behavior[k] += breakdown.ranking_per_behavior[k]
        totals.relation += breakdown.relation
        totals.regularization = breakdown.regularization  # last step's snapshot
        totals.total += breakdown.total
    return totals


# ---------------------------------------------------------- checkpointing

@dataclass
class Checkpoint:
    version: int
    config: dict           # flat string map: hyper snapshot, dims, epoch
    arrays: OrderedDict    # name -> ndarray; older files also hold "opt/" entries

    def hyper(self) -> HyperConfig:
        defaults = HyperConfig()
        kwargs = {}
        for f_ in fields(HyperConfig):
            raw = self.config.get(f"hyper.{f_.name}")
            if raw is None:
                continue
            try:
                kwargs[f_.name] = _coerce(getattr(defaults, f_.name), raw, f_.name)
            except ConfigError as exc:
                raise CompatibilityError(f"checkpoint hyperparameter: {exc}") from exc
        return HyperConfig(**kwargs)

    def int_value(self, key: str) -> int:
        """An integer entry of the config block; -1 when absent."""
        raw = self.config.get(key, "-1")
        try:
            return int(raw)
        except ValueError:
            raise CompatibilityError(
                f"checkpoint {key}={raw!r} is not an integer") from None

    def model_params(self) -> OrderedDict:
        """The parameter arrays; an older file's "opt/" arrays are ignored."""
        return OrderedDict((k, v) for k, v in self.arrays.items()
                           if not k.startswith("opt/"))


def _config_block(hyper: HyperConfig, dataset: Dataset, epoch: int) -> dict:
    block = {f"hyper.{f_.name}": _format_value(getattr(hyper, f_.name))
             for f_ in fields(HyperConfig)}
    block.update({
        "dims.users": str(dataset.num_users),
        "dims.items": str(dataset.num_items),
        "dims.behaviors": str(dataset.num_behaviors),
        "dims.relations": str(dataset.relation_count),
        "dims.target_behavior": str(dataset.target_behavior),
        "epoch": str(epoch),
    })
    return block


def _little_endian(arr: np.ndarray) -> np.ndarray:
    """`arr` as the contiguous little-endian array a checkpoint stores."""
    return np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))


def save_checkpoint(path, arrays: OrderedDict, config_block: dict):
    digest = hashlib.sha256()
    for arr in arrays.values():
        digest.update(_little_endian(arr))
    block = {**config_block, ARRAYS_DIGEST: digest.hexdigest()}
    lines = "".join(f"{k}={v}\n" for k, v in block.items()).encode("utf-8")
    # Written beside the target and renamed over it, so a failed save
    # leaves any earlier checkpoint intact.
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as fh:
            _write_checkpoint_body(fh, lines, arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_checkpoint_body(fh, lines: bytes, arrays: OrderedDict):
    fh.write(CHECKPOINT_MAGIC)
    fh.write(struct.pack("<H", CHECKPOINT_VERSION))
    fh.write(struct.pack("<I", len(lines)))
    fh.write(lines)
    fh.write(struct.pack("<I", len(arrays)))
    for name, arr in arrays.items():
        nb = name.encode("utf-8")
        fh.write(struct.pack("<I", len(nb)))
        fh.write(nb)
        fh.write(struct.pack("<B", arr.ndim))
        for dim in arr.shape:
            fh.write(struct.pack("<Q", dim))
        tag = _DTYPE_TAGS[np.dtype(arr.dtype)]
        fh.write(struct.pack("<B", tag))
        fh.write(_little_endian(arr).tobytes())


def load_checkpoint(path) -> Checkpoint:
    try:
        fh = open(path, "rb")
    except IsADirectoryError:
        raise CompatibilityError(f"checkpoint {path} is a directory") from None
    except FileNotFoundError:
        raise CompatibilityError(f"checkpoint {path} not found") from None
    with fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise CompatibilityError(f"bad checkpoint magic {magic!r}")
        try:
            return _read_checkpoint_body(fh)
        except (struct.error, ValueError, KeyError) as exc:
            # short reads, a cut array buffer, undecodable text, unknown dtype tag
            raise CompatibilityError(
                f"truncated or corrupt checkpoint {path}: {exc!r}") from exc


def _read_checkpoint_body(fh) -> Checkpoint:
    size = os.fstat(fh.fileno()).st_size

    def read_claimed(n, what):
        """`n` bytes, as a length field claims, if that many are left."""
        if n > size - fh.tell():
            raise CompatibilityError(
                f"checkpoint {what} claims {n} bytes, {size - fh.tell()} are left")
        return fh.read(n)

    (version,) = struct.unpack("<H", fh.read(2))
    if version != CHECKPOINT_VERSION:
        raise CompatibilityError(f"unsupported checkpoint version {version}")
    (clen,) = struct.unpack("<I", fh.read(4))
    config = {}
    for line in read_claimed(clen, "config block").decode("utf-8").splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            config[key] = value
    (count,) = struct.unpack("<I", fh.read(4))
    arrays = OrderedDict()
    digest = hashlib.sha256()
    for _ in range(count):
        (nlen,) = struct.unpack("<I", fh.read(4))
        name = read_claimed(nlen, "array name").decode("utf-8")
        if name in arrays:
            raise CompatibilityError(f"checkpoint repeats array {name}")
        (rank,) = struct.unpack("<B", fh.read(1))
        shape = tuple(struct.unpack("<Q", fh.read(8))[0] for _ in range(rank))
        (tag,) = struct.unpack("<B", fh.read(1))
        dtype = _TAG_DTYPES[tag]
        buf = read_claimed(math.prod(shape) * dtype.itemsize, f"array {name}")
        digest.update(buf)
        arrays[name] = np.frombuffer(buf, dtype=dtype.newbyteorder("<")).astype(
            dtype).reshape(shape)
    if fh.tell() != size:
        raise CompatibilityError(
            f"checkpoint has {size - fh.tell()} bytes after its {count} arrays")
    if config.get(ARRAYS_DIGEST, digest.hexdigest()) != digest.hexdigest():
        raise CompatibilityError("checkpoint arrays do not match their sha256: corrupt file")
    return Checkpoint(version, config, arrays)


def check_compatible(ckpt: Checkpoint, dataset: Dataset):
    """Raise CompatibilityError unless the checkpoint's dims, hyperparameters
    and parameter arrays (names, shapes and the dtype of `hyper.precision`)
    fit a model of `dataset`."""
    pairs = [("dims.users", dataset.num_users), ("dims.items", dataset.num_items),
             ("dims.behaviors", dataset.num_behaviors),
             ("dims.relations", dataset.relation_count)]
    for key, expected in pairs:
        got = ckpt.int_value(key)
        if got != expected:
            raise CompatibilityError(
                f"checkpoint {key}={got} does not match dataset value {expected}")
    hyper = ckpt.hyper()
    try:
        hyper.validate(dataset.num_behaviors)
    except ConfigError as exc:
        raise CompatibilityError(f"checkpoint hyperparameters: {exc}") from exc
    want = {name: spec.shape for name, spec in param_specs(hyper, dataset).items()}
    got = {name: arr.shape for name, arr in ckpt.model_params().items()}
    for name in sorted(want.keys() | got.keys()):
        if got.get(name) != want.get(name):
            raise CompatibilityError(
                f"checkpoint array {name} has shape {got.get(name, 'absent')}, "
                f"the model needs {want.get(name, 'none')}")
    dtype = hyper.dtype
    for name, arr in ckpt.model_params().items():
        if arr.dtype != dtype:
            raise CompatibilityError(f"checkpoint array {name} is {arr.dtype}, "
                                     f"hyper.precision={hyper.precision} needs {dtype}")


# ------------------------------------------------------------------- fit

@dataclass
class FitResult:
    params: OrderedDict
    adam: Adam
    best_epoch: int
    best_ndcg: float
    history: list = field(default_factory=list)  # JSONL-ready dicts
    best_snapshot: tuple | None = None  # (params, epoch) of the best epoch


def _metrics_records(report: MetricsReport, epoch: int) -> list:
    """One evaluation's JSONL records: one per behavior, then the
    interest-distance diagnostics when the report has them."""
    records = []
    for k, (hr, ndcg, users) in report.per_behavior.items():
        records.append({"epoch": epoch, "behavior": int(k), "hr": hr,
                        "ndcg": ndcg, "users": int(users)})
    dist = report.diagnostics.get("interest_distance")
    if dist is not None:
        records.append({"metric": "interest_distance", "epoch": epoch, **dist})
    return records


def fit(dataset: Dataset, hyper: HyperConfig, top_n: int = 10,
        eval_all_behaviors: bool = False, log=None) -> FitResult:
    """Run the optimization loop with per-epoch evaluation.

    Epoch 0 is evaluated before any update; the best snapshot by target
    NDCG is kept (first best wins ties) with early stopping on `patience`.
    """
    hyper.validate(dataset.num_behaviors)
    ctx = ModelContext(dataset, hyper)
    rng = np.random.default_rng(hyper.seed)
    params = init_params(hyper, dataset, rng=rng)
    adam = Adam(params)
    result = FitResult(params, adam, best_epoch=0, best_ndcg=-1.0)

    def emit(record):
        result.history.append(record)
        if log is not None:
            log(record)

    def snapshot(epoch):
        return OrderedDict((k, v.copy()) for k, v in params.items()), epoch

    def run_eval(epoch):
        report = evaluate(params, ctx, hyper, top_n,
                          all_behaviors=eval_all_behaviors)
        for rec in _metrics_records(report, epoch):
            emit(rec)
        return report

    report = run_eval(0)
    best = report.per_behavior[dataset.target_behavior][1]
    result.best_ndcg = best
    result.best_snapshot = snapshot(0)
    stale = 0
    for epoch in range(hyper.epochs):
        losses = train_epoch(params, ctx, hyper, adam, rng, epoch)
        emit({"metric": "loss", "epoch": epoch + 1,
              "ranking": losses.ranking,
              "ranking_per_behavior": losses.ranking_per_behavior,
              "relation": losses.relation, "regularization": losses.regularization,
              "total": losses.total})
        report = run_eval(epoch + 1)
        ndcg = report.per_behavior[dataset.target_behavior][1]
        if ndcg > result.best_ndcg:
            result.best_ndcg = ndcg
            result.best_epoch = epoch + 1
            result.best_snapshot = snapshot(epoch + 1)
            stale = 0
        else:
            stale += 1
            if stale >= hyper.patience:
                emit({"metric": "early_stop", "epoch": epoch + 1,
                      "patience": hyper.patience})
                break
    return result


def save_fit_checkpoint(path, result: FitResult, dataset: Dataset,
                        hyper: HyperConfig, use_best: bool = True):
    if use_best and result.best_snapshot is not None:
        params, epoch = result.best_snapshot
    else:
        params, epoch = result.params, result.best_epoch
    save_checkpoint(path, params, _config_block(hyper, dataset, epoch))
