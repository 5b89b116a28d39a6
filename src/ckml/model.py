"""Parameter registry and the full forward pass.

Layer recurrence: route each behavior graph across interests (or run the
plain-aggregation replacement), which yields a user and an item stack per
behavior. Then one loop over the two sides does the same on each: hand
the whole stacks to the cross-behavior correlation, which replaces their
shared blocks (with the shared blocks' sum when routing is off), leaves
the specific blocks untouched, and add the residual. Time offsets,
states and layer outputs are held per behavior as [user, item] pairs.
Final representations sum the routed outputs of layers 1..L; layer-0
inputs stay out. The forward returns only what the losses and the
evaluator read; routing coefficients and attention weights are dropped.
In a training step the last layer computes only what the batch's losses
read (`last_layer_reach`), in batch coordinates: it routes the rows the
batch rows aggregate from, adding their time offsets to those source rows
alone, and aggregates and attends the batch rows alone, into stacks as
high as those rows. The final stacks are batch-rows high too (earlier
layers are read at the batch rows), and the ranking losses gather them by
position among those rows. Its bookkeeping reads the adjacency's row
ranges, so it costs O(entries into the rows + node count), with no pass
over the edges and no sort. Evaluation computes every row.
"""

from __future__ import annotations

import ctypes
import functools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import cie, fbc, objective
from .config import ConfigError, HyperConfig
from .dataio import Dataset, time_buckets
from .numerics import from_edges, normalized_adjacency


@dataclass
class ParamSpec:
    shape: tuple
    init: str  # "xavier" or "zero"
    fan_in: int = 0
    fan_out: int = 0


def _cie_groups(K: int, s_spe: int, s_sha: int) -> list:
    """(parameter prefix, interest count) of each group of CIE projections:
    every behavior's specific interests, then the shared ones."""
    return [(f"cie/spe/k{k}", s_spe) for k in range(K)] + [("cie/sha", s_sha)]


def param_specs(hyper: HyperConfig, dataset: Dataset) -> "OrderedDict[str, ParamSpec]":
    """Registration-ordered spec of every trainable array."""
    M, N = dataset.num_users, dataset.num_items
    K, R = dataset.num_behaviors, dataset.relation_count
    d = hyper.embed_dim
    s_spe, s_sha, d_star = hyper.interest_structure()
    specs = OrderedDict()

    def aggregator_specs(prefix, layers, width):
        for l in range(layers):
            for wname, shape in cie.aggregator_weight_shapes(hyper.aggregator, width):
                specs[f"{prefix}/l{l}/{wname}"] = ParamSpec(shape, "xavier", *shape)

    specs["embed/user"] = ParamSpec((M, d), "xavier", M, d)
    if hyper.cie_disabled:
        for k in range(K):
            if s_spe:
                specs[f"interest/free/spe/k{k}"] = ParamSpec(
                    (N, s_spe, d_star), "xavier", N, d_star)
        if s_sha:
            specs["interest/free/sha"] = ParamSpec((N, s_sha, d_star), "xavier", N, d_star)
    else:
        specs["embed/item"] = ParamSpec((N, d), "xavier", N, d)
        width = R * d
        for prefix, count in _cie_groups(K, s_spe, s_sha):
            for s in range(count):
                specs[f"{prefix}/s{s}/W"] = ParamSpec((width, d_star), "xavier", width, d_star)
                specs[f"{prefix}/s{s}/b"] = ParamSpec((d_star,), "xavier", 1, d_star)
        aggregator_specs("agg/cie", hyper.relation_layers, d)
    aggregator_specs("agg/fbc", hyper.interaction_layers, (s_spe + s_sha) * d_star)
    if s_sha and not hyper.fbc_disabled:
        c = d_star // hyper.attention_heads
        for l in range(hyper.interaction_layers):
            for wname in ("Q", "K", "V"):
                specs[f"attn/l{l}/{wname}"] = ParamSpec(
                    (hyper.attention_heads, c, c), "xavier", c, c)
    if hyper.time_embedding:
        for k in range(K):
            for side in ("user", "item"):
                specs[f"time/{side}/k{k}"] = ParamSpec(
                    (hyper.time_buckets, s_spe + s_sha, d_star), "zero")
    return specs


@dataclass
class ModelContext:
    """Constant graph-derived structures shared by every forward pass; the
    graph weights are of the dtype `hyper.precision` names."""

    dataset: Dataset
    hyper: HyperConfig
    behaviors: list = field(init=False)
    relation_adjs: list = field(init=False)
    # per behavior, the (user, item) node-by-bucket one-hot matrices; a
    # product with a time table gives each node its bucket's offset, and its
    # backward multiplies by the transpose's view
    buckets: list = field(init=False)

    def __post_init__(self):
        if self.dataset.relation_count == 0 and not self.hyper.cie_disabled:
            raise ConfigError("relations = 0 leaves interest extraction no relation "
                              "to extract from; set no_cie = true")
        dtype = self.hyper.dtype
        self.behaviors = [fbc.BehaviorContext(g, dtype) for g in self.dataset.behavior_graphs]
        self.relation_adjs = [normalized_adjacency(g.edges[:, 0], g.edges[:, 1],
                                                   (g.num_items, g.num_items), dtype)
                              for g in self.dataset.relation_graphs]
        count = self.hyper.time_buckets
        self.buckets = [tuple(from_edges(np.arange(len(ids)), ids, (len(ids), count))
                              for ids in time_buckets(g, count))
                        for g in self.dataset.behavior_graphs]


@dataclass
class ForwardOutput:
    """What the ranking and relation losses and the evaluator read."""

    user_final: list      # per behavior, (M, S, d*), or (batch users, S, d*)
    item_final: list      # per behavior, (N, S, d*), or (batch items, S, d*)
    relation_views: list | None  # per relation, (N, d); None under no_cie
    item_interest_stacks: list   # CIE output per behavior, (N, S, d*)


def _block_mask(hyper: HyperConfig, dtype) -> ad.Tensor | None:
    """(1, S, 1) multiplier that zeroes and detaches the unused block."""
    s_spe, s_sha, _ = hyper.interest_structure()
    if not (hyper.shared_only or hyper.specific_only):
        return None
    mask = np.ones((1, s_spe + s_sha, 1), dtype=dtype)
    if hyper.shared_only:
        mask[0, :s_spe, 0] = 0.0
    else:
        mask[0, s_spe:, 0] = 0.0
    return ad.constant(mask)


def _agg_weights(params, prefix, layer, aggregator):
    names = cie.aggregator_weight_shapes(aggregator, 0)
    if not names:
        return None
    return {wname: params[f"{prefix}/l{layer}/{wname}"] for wname, _ in names}


@functools.cache
def _pin_allocator() -> bool:
    """Keep freed blocks in the heap for the next full-graph pass: glibc's mmap
    and trim thresholds to 1 GiB (both, or the mmap one is fixed at 128 KiB).
    False where there is no mallopt (musl, macOS, Windows); the results are
    the same, only slower."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # M_MMAP_THRESHOLD (-3), then M_TRIM_THRESHOLD (-1)
    return mallopt(-3, 1 << 30) == 1 and mallopt(-1, 1 << 30) == 1


def forward(params: dict, ctx: ModelContext, hyper: HyperConfig,
            reach: LastLayerReach | None = None) -> ForwardOutput:
    """The whole forward. With `reach` (`last_layer_reach`), the last layer
    routes the rows it names alone, and aggregates and attends the batch
    rows alone, and the final stacks hold those rows alone, in ascending
    order (`LastLayerReach.rows`). If that layer routes and is
    the only one, its time offsets are computed for routing's source rows
    alone (`fbc.TimeOffsets`). Otherwise every row's are added, as in
    evaluation: earlier layers read every row, and a second product for the
    last would split the tables' gradient sums and change their bytes;
    no_fbc's aggregator reads its input at full height."""
    ds = ctx.dataset
    K = ds.num_behaviors
    s_spe, s_sha, d_star = hyper.interest_structure()
    s_total = s_spe + s_sha
    M = ds.num_users
    slope = hyper.leaky_slope

    # coarse interest stacks for items
    relation_views = None
    if hyper.cie_disabled:
        sha_free = params.get("interest/free/sha")
        g_stacks = [cie.assemble_interest_embedding(params.get(f"interest/free/spe/k{k}"),
                                                    sha_free) for k in range(K)]
    else:
        item_table = params["embed/item"]
        relation_views = []
        for r, adj in enumerate(ctx.relation_adjs):
            agg_w = [_agg_weights(params, "agg/cie", l, hyper.aggregator)
                     for l in range(hyper.relation_layers)]
            layers = cie.propagate_relation_graph(
                item_table, adj, hyper.relation_layers, hyper.aggregator,
                agg_weights=agg_w, slope=slope)
            relation_views.append(cie.average_layers(layers))
        y_star = cie.concat_relations(relation_views)

        groups = [[(params[f"{prefix}/s{s}/W"], params[f"{prefix}/s{s}/b"])
                   for s in range(count)]
                  for prefix, count in _cie_groups(K, s_spe, s_sha)]
        *specific, shared_stack = cie.extract_interests(y_star, groups, slope)
        g_stacks = [cie.assemble_interest_embedding(spe, shared_stack) for spe in specific]
        del specific, shared_stack  # views of one array, which evaluation frees here

    x0 = params["embed/user"].reshape(M, s_total, d_star)
    mask = _block_mask(hyper, x0.dtype)
    if mask is not None:
        x0 = x0 * mask
        g_stacks = [g * mask for g in g_stacks]

    # per behavior, [user side, item side]
    times = [[None, None] for _ in range(K)]
    if hyper.time_embedding:
        tables = [[params[f"time/{side}/k{k}"] for side in ("user", "item")] for k in range(K)]
        if reach is not None and not hyper.fbc_disabled and hyper.interaction_layers == 1:
            # the one layer routes: it adds the offsets to the rows it reads
            times = [[fbc.TimeOffsets(onehot, table, None if mask is None else mask.data)
                      for onehot, table in zip(ctx.buckets[k], tables[k])]
                     for k in range(K)]
        else:
            times = [[ad.spmm(onehot, table.reshape(hyper.time_buckets, s_total * d_star))
                      .reshape(-1, s_total, d_star)
                      for onehot, table in zip(ctx.buckets[k], tables[k])]
                     for k in range(K)]
            if mask is not None:
                times = [[t * mask for t in pair] for pair in times]
    states = [[x0, g] for g in g_stacks]
    layer_outputs = [([], []) for _ in range(K)]

    for l in range(hyper.interaction_layers):
        agg_w = _agg_weights(params, "agg/fbc", l, hyper.aggregator)
        last = l == hyper.interaction_layers - 1
        narrowed = reach is not None and last
        rows = reach.rows if narrowed else fbc.EVERY_ROW
        routed = []
        for k in range(K):
            if hyper.fbc_disabled:
                routed.append(fbc.plain_aggregation_layer(
                    ctx.behaviors[k], *states[k], *times[k], hyper.aggregator, agg_w, slope,
                    rows))
            else:
                routed.append(fbc.route_behavior_layer(
                    ctx.behaviors[k], *states[k], *times[k], hyper.tau,
                    hyper.routing_iterations, hyper.aggregator, agg_w, slope,
                    reach.routed[k] if narrowed else None, rows))

        for side in (0, 1):
            outs = stacks = [h[side] for h in routed]
            # routing off: each shared block becomes the shared blocks' sum,
            # one tensor that every behavior reuses; the masks' zeros add
            # exactly, so the specific blocks pass through unchanged
            if s_sha and hyper.fbc_disabled and s_spe:
                keep = ad.constant(np.arange(s_total).reshape(1, -1, 1) < s_spe, x0.dtype)
                shared = ad.add_all(stacks) * (1.0 - keep)
                outs = [h * keep + shared for h in stacks]
            elif s_sha and hyper.fbc_disabled:  # the stacks are all shared
                outs = [ad.add_all(stacks)] * K
            elif s_sha:
                outs, _ = fbc.correlate_shared(
                    stacks, params[f"attn/l{l}/Q"], params[f"attn/l{l}/K"],
                    params[f"attn/l{l}/V"], hyper.attention_heads, s_spe, rows[side],
                    (M, ds.num_items)[side])
            for k, out in enumerate(outs):
                layer_outputs[k][side].append(out)
                if not last:  # the last layer's states are never read
                    states[k][side] = out + states[k][side]

    user_final = [objective.aggregate_final(outs[0], rows[0]) for outs in layer_outputs]
    item_final = [objective.aggregate_final(outs[1], rows[1]) for outs in layer_outputs]
    return ForwardOutput(user_final, item_final, relation_views, g_stacks)


def ranking_term(out: ForwardOutput, behavior: int, users: np.ndarray,
                 positives: np.ndarray, negatives: np.ndarray) -> ad.Tensor:
    """Summed margin hinge for one behavior's (u, p, q) batch, given as rows
    of the final stacks: in a training step, positions among the batch rows
    (`LastLayerReach.positions`)."""
    h_u = ad.gather(out.user_final[behavior], users)
    h_p = ad.gather(out.item_final[behavior], positives)
    h_q = ad.gather(out.item_final[behavior], negatives)
    pos = objective.score_interactions(h_u, h_p)
    neg = objective.score_interactions(h_u, h_q)
    return objective.margin_bpr_loss(pos, neg).sum()


def relation_term(out: ForwardOutput, relation: int, anchors: np.ndarray,
                  positives: np.ndarray, negatives: np.ndarray) -> ad.Tensor:
    """Summed reconstruction BPR for one relation's (i, p, q) batch."""
    y_r = out.relation_views[relation]
    pos = objective.relation_scores(y_r, anchors, positives)
    neg = objective.relation_scores(y_r, anchors, negatives)
    return objective.relation_bpr_loss(pos, neg).sum()


class LastLayerReach(NamedTuple):
    """What a training step's last layer computes (`last_layer_reach`)."""

    routed: list | None  # per behavior, (user, item) masks of routed rows; None under no_fbc
    rows: tuple          # the (user, item) batch rows, ascending
    positions: list      # per ranking batch, its triples' rows among `rows`, or None


def last_layer_reach(ctx: ModelContext, hyper: HyperConfig,
                     rank_batches: list) -> LastLayerReach:
    """What a training step's last layer computes, once per step. The batch
    rows are the users and items of every behavior's triples, since
    attention mixes the behaviors row by row; the last layer aggregates and
    attends them alone, through each behavior's sums into them
    (`fbc.into_rows`). The rows those sums read (`fbc.read_rows`, from the
    adjacency's row ranges), and under `cie.READS_SELF` the batch rows too,
    are the routed rows, marked with no pass over the edges. Under no_fbc
    nothing routes, so there are none. The triples' positions among the
    batch rows are where the losses read the final stacks. The cost is
    O(entries into the batch rows + node count)."""
    ds = ctx.dataset
    users = np.zeros(ds.num_users, dtype=bool)
    items = np.zeros(ds.num_items, dtype=bool)
    for batch in rank_batches:
        if batch is not None:
            users[batch[0]] = True
            items[batch[1]] = True
            items[batch[2]] = True
    rows = (np.flatnonzero(users), np.flatnonzero(items))
    positions = [None if b is None else (np.searchsorted(rows[0], b[0]),
                                         *(np.searchsorted(rows[1], ids) for ids in b[1:]))
                 for b in rank_batches]
    if hyper.fbc_disabled:
        return LastLayerReach(None, rows, positions)
    reads_self = hyper.aggregator in cie.READS_SELF
    routed = []
    for b in ctx.behaviors:
        read_items, read_users = fbc.read_rows(b, rows)
        user_rows = users.copy() if reads_self else np.zeros_like(users)
        item_rows = items.copy() if reads_self else np.zeros_like(items)
        user_rows[read_users] = True
        item_rows[read_items] = True
        routed.append((user_rows, item_rows))
    return LastLayerReach(routed, rows, positions)


def batch_loss(params: dict, ctx: ModelContext, hyper: HyperConfig,
               rank_batches: list, rel_batches: list):
    """Full joint objective on index batches; the last layer computes only
    what the ranking losses read (`last_layer_reach`): it routes the rows
    that the batch rows' aggregation reads, with the time offsets of the
    source rows it reads, and aggregates and attends the batch rows alone.
    The losses gather the final stacks, as high as the batch rows, by the
    triples' positions among them (`LastLayerReach.positions`).

    rank_batches: per behavior, (users, positives, negatives) arrays or None.
    rel_batches: per relation, (anchors, positives, negatives) arrays or None.
    Returns (total Tensor, LossBreakdown).
    """
    reach = last_layer_reach(ctx, hyper, rank_batches)
    out = forward(params, ctx, hyper, reach)
    K = ctx.dataset.num_behaviors
    rank_terms = []
    for k in range(K):
        batch = rank_batches[k] if k < len(rank_batches) else None
        if batch is None or len(batch[0]) == 0:
            rank_terms.append(None)
        else:
            rank_terms.append(ranking_term(out, k, *reach.positions[k]))
    rel_total = None
    if out.relation_views is not None and hyper.beta != 0.0:
        rel_terms = [relation_term(out, r, *batch) for r, batch in enumerate(rel_batches)
                     if batch is not None and len(batch[0])]
        rel_total = ad.add_all(rel_terms) if rel_terms else None
    reg = objective.regularization_term(params)
    return objective.total_loss(
        rank_terms, hyper.alphas_for(K), rel_total, hyper.beta, reg, hyper.reg_lambda)
