"""Parameter registry and the full forward pass.

Layer recurrence per behavior: route the behavior graph across interests
(or run the plain-aggregation replacement), correlate shared blocks across
behaviors, concatenate with the untouched specific blocks, add the
residual. Final representations sum the concatenated routed outputs of
layers 1..L; layer-0 inputs stay out.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import cie, fbc, objective
from .config import HyperConfig
from .dataio import Dataset, time_buckets


@dataclass
class ParamSpec:
    shape: tuple
    init: str  # "xavier" or "zero"
    fan_in: int = 0
    fan_out: int = 0


def param_specs(hyper: HyperConfig, dataset: Dataset) -> "OrderedDict[str, ParamSpec]":
    """Registration-ordered spec of every trainable array."""
    M, N = dataset.num_users, dataset.num_items
    K, R = dataset.num_behaviors, dataset.relation_count
    d = hyper.embed_dim
    s_spe, s_sha, d_star = hyper.interest_structure()
    specs = OrderedDict()
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
        for k in range(K):
            for s in range(s_spe):
                specs[f"cie/spe/k{k}/s{s}/W"] = ParamSpec((width, d_star), "xavier",
                                                          width, d_star)
                specs[f"cie/spe/k{k}/s{s}/b"] = ParamSpec((d_star,), "xavier", 1, d_star)
        for s in range(s_sha):
            specs[f"cie/sha/s{s}/W"] = ParamSpec((width, d_star), "xavier", width, d_star)
            specs[f"cie/sha/s{s}/b"] = ParamSpec((d_star,), "xavier", 1, d_star)
        for l in range(hyper.relation_layers):
            for wname, shape in cie.aggregator_weight_shapes(hyper.aggregator, d):
                specs[f"agg/cie/l{l}/{wname}"] = ParamSpec(shape, "xavier",
                                                           shape[0], shape[1])
    stack_width = (s_spe + s_sha) * d_star
    for l in range(hyper.interaction_layers):
        for wname, shape in cie.aggregator_weight_shapes(hyper.aggregator, stack_width):
            specs[f"agg/fbc/l{l}/{wname}"] = ParamSpec(shape, "xavier",
                                                       shape[0], shape[1])
    if s_sha and not hyper.fbc_disabled:
        c = d_star // hyper.attention_heads
        for l in range(hyper.interaction_layers):
            for wname in ("Q", "K", "V"):
                specs[f"attn/l{l}/{wname}"] = ParamSpec(
                    (hyper.attention_heads, c, c), "xavier", c, c)
    if hyper.time_embedding:
        s_total = s_spe + s_sha
        for k in range(K):
            specs[f"time/user/k{k}"] = ParamSpec((hyper.time_buckets, s_total, d_star),
                                                 "zero")
            specs[f"time/item/k{k}"] = ParamSpec((hyper.time_buckets, s_total, d_star),
                                                 "zero")
    return specs


@dataclass
class ModelContext:
    """Constant graph-derived structures shared by every forward pass."""

    dataset: Dataset
    hyper: HyperConfig
    behaviors: list = field(init=False)
    relation_adjs: list = field(init=False)
    user_buckets: list = field(init=False)
    item_buckets: list = field(init=False)

    def __post_init__(self):
        self.behaviors = [fbc.BehaviorContext(g) for g in self.dataset.behavior_graphs]
        self.relation_adjs = [cie.relation_norm_adjacency(g)
                              for g in self.dataset.relation_graphs]
        self.user_buckets, self.item_buckets = [], []
        for g in self.dataset.behavior_graphs:
            ub, ib = time_buckets(g, self.hyper.time_buckets)
            self.user_buckets.append(ub)
            self.item_buckets.append(ib)


@dataclass
class ForwardOutput:
    user_final: list      # per behavior, (M, S, d*)
    item_final: list      # per behavior, (N, S, d*)
    relation_views: list | None  # per relation, (N, d); None under no_cie
    item_interest_stacks: list   # CIE output per behavior, (N, S, d*)
    user_interest_stack: object  # reshaped user embedding, (M, S, d*)
    attention_weights: list      # per layer, (K, K, V?, S, H) tensors
    routing_states: list         # per (layer, behavior) RoutingState when collected


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


def forward(params: dict, ctx: ModelContext, hyper: HyperConfig,
            collect_state: bool = False) -> ForwardOutput:
    ds = ctx.dataset
    K = ds.num_behaviors
    s_spe, s_sha, d_star = hyper.interest_structure()
    s_total = s_spe + s_sha
    M = ds.num_users
    slope = hyper.leaky_slope
    dtype = params["embed/user"].dtype

    # coarse interest stacks for items
    relation_views = None
    if hyper.cie_disabled:
        sha_free = params.get("interest/free/sha")
        g_stacks = []
        for k in range(K):
            spe = params.get(f"interest/free/spe/k{k}")
            g_stacks.append(cie.assemble_interest_embedding(spe, sha_free))
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
        shared_stack = None
        if s_sha:
            projections = [(params[f"cie/sha/s{s}/W"], params[f"cie/sha/s{s}/b"])
                           for s in range(s_sha)]
            shared_stack = cie.extract_interests(y_star, projections, slope)
        g_stacks = []
        for k in range(K):
            spe_stack = None
            if s_spe:
                projections = [(params[f"cie/spe/k{k}/s{s}/W"],
                                params[f"cie/spe/k{k}/s{s}/b"]) for s in range(s_spe)]
                spe_stack = cie.extract_interests(y_star, projections, slope)
            g_stacks.append(cie.assemble_interest_embedding(spe_stack, shared_stack))

    x0 = params["embed/user"].reshape(M, s_total, d_star)
    mask = _block_mask(hyper, x0.dtype)
    if mask is not None:
        x0 = x0 * mask
        g_stacks = [g * mask for g in g_stacks]

    time_u, time_i = [], []
    for k in range(K):
        if hyper.time_embedding:
            tu = ad.gather(params[f"time/user/k{k}"], ctx.user_buckets[k])
            ti = ad.gather(params[f"time/item/k{k}"], ctx.item_buckets[k])
            if mask is not None:
                tu, ti = tu * mask, ti * mask
            time_u.append(tu)
            time_i.append(ti)
        else:
            time_u.append(None)
            time_i.append(None)

    states_u = [x0 for _ in range(K)]
    states_i = list(g_stacks)
    layer_outputs_u = [[] for _ in range(K)]
    layer_outputs_i = [[] for _ in range(K)]
    attention_weights = []
    routing_states = []

    for l in range(hyper.interaction_layers):
        agg_w = _agg_weights(params, "agg/fbc", l, hyper.aggregator)
        routed_u, routed_i = [], []
        for k in range(K):
            if hyper.fbc_disabled:
                h_u, h_i = fbc.plain_aggregation_layer(
                    ctx.behaviors[k], states_u[k], states_i[k], time_u[k], time_i[k],
                    hyper.aggregator, agg_w, slope)
                state = None
            else:
                h_u, h_i, state = fbc.route_behavior_layer(
                    ctx.behaviors[k], states_u[k], states_i[k], time_u[k], time_i[k],
                    hyper.tau, hyper.routing_iterations, hyper.aggregator, agg_w,
                    slope, collect_state=collect_state)
            routed_u.append(h_u)
            routed_i.append(h_i)
            if collect_state:
                routing_states.append(state)

        spe_u = [cie.split_interest_embedding(h, s_spe)[0] for h in routed_u]
        sha_u = [cie.split_interest_embedding(h, s_spe)[1] for h in routed_u]
        spe_i = [cie.split_interest_embedding(h, s_spe)[0] for h in routed_i]
        sha_i = [cie.split_interest_embedding(h, s_spe)[1] for h in routed_i]

        if s_sha:
            if hyper.fbc_disabled:
                total_u = sha_u[0]
                for t in sha_u[1:]:
                    total_u = total_u + t
                total_i = sha_i[0]
                for t in sha_i[1:]:
                    total_i = total_i + t
                corr_u = [total_u for _ in range(K)]
                corr_i = [total_i for _ in range(K)]
            else:
                q, kp, v = (params[f"attn/l{l}/Q"], params[f"attn/l{l}/K"],
                            params[f"attn/l{l}/V"])
                corr_u, lam_u = fbc.correlate_shared(sha_u, q, kp, v,
                                                     hyper.attention_heads)
                corr_i, lam_i = fbc.correlate_shared(sha_i, q, kp, v,
                                                     hyper.attention_heads)
                attention_weights.append((lam_u, lam_i))
        else:
            corr_u = [None] * K
            corr_i = [None] * K

        for k in range(K):
            out_u = cie.assemble_interest_embedding(spe_u[k], corr_u[k])
            out_i = cie.assemble_interest_embedding(spe_i[k], corr_i[k])
            layer_outputs_u[k].append(out_u)
            layer_outputs_i[k].append(out_i)
            states_u[k] = out_u + states_u[k]
            states_i[k] = out_i + states_i[k]

    user_final = [objective.aggregate_final(layer_outputs_u[k]) for k in range(K)]
    item_final = [objective.aggregate_final(layer_outputs_i[k]) for k in range(K)]
    return ForwardOutput(user_final, item_final, relation_views, g_stacks, x0,
                         attention_weights, routing_states)


def ranking_term(out: ForwardOutput, behavior: int, users: np.ndarray,
                 positives: np.ndarray, negatives: np.ndarray) -> ad.Tensor:
    """Summed margin hinge for one behavior's (u, p, q) batch."""
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


def batch_loss(params: dict, ctx: ModelContext, hyper: HyperConfig,
               rank_batches: list, rel_batches: list):
    """Full joint objective on index batches.

    rank_batches: per behavior, (users, positives, negatives) arrays or None.
    rel_batches: per relation, (anchors, positives, negatives) arrays or None.
    Returns (total Tensor, LossBreakdown, ForwardOutput).
    """
    out = forward(params, ctx, hyper)
    K = ctx.dataset.num_behaviors
    rank_terms = []
    for k in range(K):
        batch = rank_batches[k] if k < len(rank_batches) else None
        if batch is None or len(batch[0]) == 0:
            rank_terms.append(None)
        else:
            rank_terms.append(ranking_term(out, k, *batch))
    rel_total = None
    if out.relation_views is not None and hyper.beta != 0.0:
        for r, batch in enumerate(rel_batches):
            if batch is None or len(batch[0]) == 0:
                continue
            term = relation_term(out, r, *batch)
            rel_total = term if rel_total is None else rel_total + term
    reg = objective.regularization_term(params)
    total, breakdown = objective.total_loss(
        rank_terms, hyper.alphas_for(K), rel_total, hyper.beta, reg, hyper.reg_lambda)
    return total, breakdown, out
