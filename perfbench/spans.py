"""Outside-in span tracing of the ckml package.

The tracer replaces module attributes (and two class attributes) of the
package with timing wrappers, so nothing under ``src/`` knows it is being
measured. A function imported by name into several modules is replaced
everywhere it is bound. Tape ops additionally time their backward
closures, by wrapping ``_backward`` on every tensor node the op created.

Spans live in memory as ``[name, start, end, parent, group]`` lists and are
reduced to per-layer self times when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from ckml import autodiff as ad
from ckml import cie, dataio, evaluator, fbc, model, objective, trainer

# (span name, owner, attribute). All four objective entries share one name:
# together they are the joint loss built on top of the forward pass.
LAYER_SPANS = (
    ("dataio.load_interactions", dataio, "load_interactions"),
    ("dataio.sample_eval_negatives", dataio, "sample_eval_negatives"),
    ("dataio.load_dataset", dataio, "load_dataset"),
    ("model.ModelContext", model.ModelContext, "__init__"),
    ("model.time_buckets", dataio, "time_buckets"),
    ("model.forward", model, "forward"),
    ("cie.propagate_relation_graph", cie, "propagate_relation_graph"),
    ("cie.extract_interests", cie, "extract_interests"),
    ("fbc._route", fbc, "_route"),
    ("fbc.route_behavior_layer", fbc, "route_behavior_layer"),
    ("fbc.correlate_shared", fbc, "correlate_shared"),
    ("objective.loss", model, "ranking_term"),
    ("objective.loss", model, "relation_term"),
    ("objective.loss", objective, "regularization_term"),
    ("objective.loss", objective, "total_loss"),
    ("autodiff.backward", ad.Tensor, "backward"),
    ("trainer.epoch_ranking_triples", trainer, "epoch_ranking_triples"),
    ("trainer.epoch_relation_triples", trainer, "epoch_relation_triples"),
    ("trainer.Adam.step", trainer.Adam, "step"),
    ("trainer.load_checkpoint", trainer, "load_checkpoint"),
    ("evaluator.evaluate", evaluator, "evaluate"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in LAYER_SPANS))
OPS = ("gather", "segment_sum", "spmm", "softmax", "l2_normalize", "matmul")
WORK_COUNTS = ("dataio.records", "fbc.routed_edges", "autodiff.scatter_bytes",
               "evaluator.users")
UNIT_SPAN = "bench.unit"


def _bound_arg(fn, name):
    sig = inspect.signature(fn)

    def get(args, kwargs):
        return sig.bind(*args, **kwargs).arguments[name]
    return get


def _package_modules():
    return [m for key, m in sys.modules.items()
            if key == "ckml" or key.startswith("ckml.")]


def _op_nodes(out, inputs):
    """Tensor nodes an op created: everything reachable from `out` that is
    not one of the op's inputs and still has a backward closure."""
    stop = {id(t) for t in inputs}
    found, stack, seen = [], [out], set()
    while stack:
        node = stack.pop()
        if id(node) in stop or id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            found.append(node)
        stack.extend(node._parents)
    return found


class Tracer:
    """Span recorder plus the patches that feed it; use as a context manager."""

    UNIT_SPAN = UNIT_SPAN

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.group = None
        self._stack = []
        self._patches = []

    # ---------------------------------------------------------------- spans

    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.group])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def timed(self, name, fn, on_call=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if on_call is not None:
                on_call(args, kwargs, out)
            return out
        return wrapper

    # -------------------------------------------------------------- patching

    def _replace(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for module in _package_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, value))
                    setattr(module, key, wrapper)

    def __enter__(self):
        hooks = {
            "dataio.load_interactions": self._count_records,
            "fbc._route": self._count_routed_edges(fbc._route),
            "evaluator.evaluate": self._count_users,
        }
        for name, owner, attr in LAYER_SPANS:
            fn = getattr(owner, attr)
            self._replace(owner, attr, self.timed(name, fn, hooks.get(name)))
        for op in OPS:
            self._replace(ad, op, self._traced_op(op, getattr(ad, op)))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    # ------------------------------------------------------------ work counts

    def _count_records(self, args, kwargs, out):
        self.counts["dataio.records"] += len(out)

    def _count_routed_edges(self, route):
        ctx_of = _bound_arg(route, "ctx")
        iters_of = _bound_arg(route, "n_iter")

        def hook(args, kwargs, out):
            self.counts["fbc.routed_edges"] += (ctx_of(args, kwargs).edge_count
                                                * iters_of(args, kwargs))
        return hook

    def _count_users(self, args, kwargs, out):
        self.counts["evaluator.users"] += sum(
            int(users) for _, _, users in out.per_behavior.values())

    def _traced_op(self, op, fn):
        """Time the op's forward, then wrap the backward closures it made.

        `np.add.at` runs in the backward of `gather` and the forward of
        `segment_sum`; its bytes are computed from shapes as index bytes
        plus three passes over the values (read source, read and write
        the target rows)."""
        fwd_name, bwd_name = f"autodiff.{op}.fwd", f"autodiff.{op}.bwd"
        calls = f"autodiff.{op}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(fwd_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            self.counts[calls] += 1
            if op == "segment_sum":
                self.counts["autodiff.scatter_bytes"] += (
                    np.asarray(args[1]).nbytes + 3 * args[0].data.nbytes)
            inputs = [a for a in args if isinstance(a, ad.Tensor)]
            for node in _op_nodes(out, inputs):
                scatter = 0
                if op == "gather" and node is out:
                    scatter = np.asarray(args[1]).nbytes + 3 * out.data.nbytes
                node._backward = self._timed_backward(bwd_name, node._backward,
                                                      scatter)
            return out
        return wrapper

    def _timed_backward(self, name, backward, scatter_bytes):
        def timed(grad):
            idx = self.begin(name)
            try:
                backward(grad)
            finally:
                self.end(idx)
            self.counts["autodiff.scatter_bytes"] += scatter_bytes
        return timed

    # ------------------------------------------------------------- reduction

    def self_times(self):
        """(self seconds, call count) per span name; self time is a span's
        duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        calls = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += (end - start) - child[i]
            calls[name] += 1
        return total, calls

    def write_jsonl(self, path):
        """Write every span as one JSON line, times relative to the first."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, group) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent,
                                     "group": group}) + "\n")
        return path
