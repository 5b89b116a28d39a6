"""Fine-grained behavioral correlation.

Every behavior edge is softly allocated across interests by iterative
dynamic routing (normalize per-edge coefficients, propagate weighted
means of the opposite side's initial states, update coefficients by
normalized-affinity agreement), then one aggregator pass runs over the
bipartite graph on the routed stacks. Shared interest blocks are
correlated across behaviors with per-interest multi-head attention;
specific blocks bypass correlation entirely.

Coefficients live per *directed* edge: the user-side column (u, i) and the
item-side column (i, u) of an interaction evolve independently, exactly as
the symmetric adjacency implies.

The affinity's l2 normalization and tanh act on each interest row alone,
so they run on the node stacks before the per-edge gather, not on the
gathered edges. Per-node sums over edges (the weighted means' segment sums
and the gathers' backward) are products with node-by-edge incidence
matrices that each `BehaviorContext` builds once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .cie import apply_aggregator
from .numerics import NumericError, SparseMatrix, normalized_adjacency

NORM_GUARD = 1e-12
DEGREE_GUARD = 1e-12


@dataclass
class BehaviorContext:
    """Constant per-behavior structures reused across layers and steps."""

    graph: object
    user_incidence: SparseMatrix = field(init=False)  # user x edge
    item_incidence: SparseMatrix = field(init=False)  # item x edge
    user_from_item: SparseMatrix = field(init=False)
    item_from_user: SparseMatrix = field(init=False)

    def __post_init__(self):
        g = self.graph
        self.user_incidence = SparseMatrix.incidence(g.edges[:, 0], g.num_users)
        self.item_incidence = SparseMatrix.incidence(g.edges[:, 1], g.num_items)
        self.user_from_item = normalized_adjacency(
            g.user_adj, "symmetric-degree", col_degrees=g.item_degrees())
        self.item_from_user = normalized_adjacency(
            g.item_adj, "symmetric-degree", col_degrees=g.user_degrees())

    @property
    def edge_count(self) -> int:
        return self.user_incidence.shape[1]


@dataclass
class RoutingState:
    """Per-iteration routing diagnostics (detached numpy copies)."""

    coefficients: list = field(default_factory=list)  # (c_user_side, c_item_side)
    logits: list = field(default_factory=list)


def _weighted_mean(coeff: ad.Tensor, sources: ad.Tensor,
                   incidence: SparseMatrix) -> ad.Tensor:
    """Step-3 kernel: per-node, per-interest weighted mean of source rows.

    coeff: (E, S); sources: (E, S, d*); incidence: node x edge. Nodes with
    no incident edges give a 0/guard division, i.e. exactly zero.
    """
    num_nodes = incidence.shape[0]
    msg = coeff.reshape(coeff.shape[0], coeff.shape[1], 1) * sources
    num = ad.segment_sum(msg, incidence, num_nodes)
    den = ad.segment_sum(coeff, incidence, num_nodes)
    den = ad.maximum(den, DEGREE_GUARD)
    return num / den.reshape(den.shape[0], den.shape[1], 1)


def _route(ctx: BehaviorContext, x_stack: ad.Tensor, g_stack: ad.Tensor,
           time_u: ad.Tensor | None, time_i: ad.Tensor | None,
           tau: float, n_iter: int, collect_state: bool):
    """Steps 1-4: iterate coefficient normalization, weighted-mean
    propagation of the opposite side's initial states, and affinity
    updates. Returns the last iteration's stacks plus diagnostics."""
    if tau <= 0:
        raise NumericError(f"routing temperature must be positive, got {tau}")
    if n_iter < 1:
        raise NumericError(f"routing needs at least one iteration, got {n_iter}")
    M, S, d_star = x_stack.shape
    N = g_stack.shape[0]
    state = RoutingState() if collect_state else None

    h_u0 = x_stack + time_u if time_u is not None else x_stack
    h_i0 = g_stack + time_i if time_i is not None else g_stack

    E = ctx.edge_count
    if E == 0:
        zero_u = ad.constant(np.zeros((M, S, d_star), dtype=h_u0.dtype))
        zero_i = ad.constant(np.zeros((N, S, d_star), dtype=h_i0.dtype))
        return zero_u, zero_i, state

    # static per-edge views of the initial states, normalized per node
    users, items = ctx.user_incidence, ctx.item_incidence
    h_u0_e = ad.gather(h_u0, users)
    h_i0_e = ad.gather(h_i0, items)
    nh_u0_e = ad.gather(ad.l2_normalize(h_u0, axis=-1, eps=NORM_GUARD), users)
    nh_i0_e = ad.gather(ad.l2_normalize(h_i0, axis=-1, eps=NORM_GUARD), items)

    ones = np.ones((E, S), dtype=h_u0.dtype)
    logits_user_side = ad.constant(ones)  # columns (u, i): items feeding users
    logits_item_side = ad.constant(ones.copy())  # columns (i, u): users feeding items

    h_u_t = None
    h_i_t = None
    for t in range(1, n_iter + 1):
        c_user = ad.softmax(logits_user_side / tau, axis=1)
        c_item = ad.softmax(logits_item_side / tau, axis=1)
        if collect_state:
            state.coefficients.append((c_user.data.copy(), c_item.data.copy()))
        h_u_t = _weighted_mean(c_user, h_i0_e, users)
        h_i_t = _weighted_mean(c_item, h_u0_e, items)
        if not (np.all(np.isfinite(h_u_t.data)) and np.all(np.isfinite(h_i_t.data))):
            bad = np.argwhere(~np.isfinite(h_u_t.data))
            where = f"user node {bad[0][0]}" if len(bad) else "item side"
            raise NumericError(f"non-finite routing state at iteration {t} ({where})")
        if t < n_iter:  # the final update is never consumed by Step 5
            th_u_t = ad.gather(ad.tanh(ad.l2_normalize(h_u_t, axis=-1, eps=NORM_GUARD)),
                               users)
            th_i_t = ad.gather(ad.tanh(ad.l2_normalize(h_i_t, axis=-1, eps=NORM_GUARD)),
                               items)
            aff_user = (nh_i0_e * th_u_t).sum(axis=-1)
            aff_item = (nh_u0_e * th_i_t).sum(axis=-1)
            logits_user_side = logits_user_side + aff_user
            logits_item_side = logits_item_side + aff_item
            if collect_state:
                state.logits.append((logits_user_side.data.copy(),
                                     logits_item_side.data.copy()))
    return h_u_t, h_i_t, state


def route_behavior_layer(ctx: BehaviorContext, x_stack: ad.Tensor, g_stack: ad.Tensor,
                         time_u: ad.Tensor | None, time_i: ad.Tensor | None,
                         tau: float, n_iter: int, aggregator: str,
                         agg_weights: dict | None = None, slope: float = 0.2,
                         collect_state: bool = False):
    """Allocate one behavior's edges across interests and aggregate once.

    Returns (h_user, h_item, state): stacks of shape (M, S, d*) / (N, S, d*)
    after the final aggregation pass; nodes without edges come out zero.
    """
    h_u_t, h_i_t, state = _route(ctx, x_stack, g_stack, time_u, time_i,
                                 tau, n_iter, collect_state)
    M, S, d_star = x_stack.shape
    N = g_stack.shape[0]
    routed_u = h_u_t.reshape(M, S * d_star)
    routed_i = h_i_t.reshape(N, S * d_star)
    agg_u = ad.spmm(ctx.user_from_item, routed_i)
    agg_i = ad.spmm(ctx.item_from_user, routed_u)
    out_u = apply_aggregator(aggregator, agg_u, routed_u, agg_weights, slope)
    out_i = apply_aggregator(aggregator, agg_i, routed_i, agg_weights, slope)
    return out_u.reshape(M, S, d_star), out_i.reshape(N, S, d_star), state


def plain_aggregation_layer(ctx: BehaviorContext, x_stack: ad.Tensor,
                            g_stack: ad.Tensor, time_u: ad.Tensor | None,
                            time_i: ad.Tensor | None, aggregator: str,
                            agg_weights: dict | None = None, slope: float = 0.2):
    """Routing replacement for the no-routing ablation: one configured
    aggregator pass over the bipartite graph on (state + time offset)."""
    h_u0 = x_stack + time_u if time_u is not None else x_stack
    h_i0 = g_stack + time_i if time_i is not None else g_stack
    M, S, d_star = h_u0.shape
    N = h_i0.shape[0]
    flat_u = h_u0.reshape(M, S * d_star)
    flat_i = h_i0.reshape(N, S * d_star)
    agg_u = ad.spmm(ctx.user_from_item, flat_i)
    agg_i = ad.spmm(ctx.item_from_user, flat_u)
    out_u = apply_aggregator(aggregator, agg_u, flat_u, agg_weights, slope)
    out_i = apply_aggregator(aggregator, agg_i, flat_i, agg_weights, slope)
    return out_u.reshape(M, S, d_star), out_i.reshape(N, S, d_star)


def correlate_shared(shared_stacks: list, q_proj: ad.Tensor, k_proj: ad.Tensor,
                     v_proj: ad.Tensor, heads: int):
    """Per-node, per-shared-interest multi-head attention across behaviors.

    shared_stacks: K tensors of shape (V, S_sha, d*). Each d*-wide vector is
    chunked into `heads` pieces; per head, scores between behaviors k and k'
    are scaled dot products of projected chunks, softmax-normalized over k'.
    The residual adds the sum of ALL behaviors' shared blocks. Returns
    (list of K output tensors, attention weights of shape (K, K, V, S, H)).
    """
    K = len(shared_stacks)
    V, S, d_star = shared_stacks[0].shape
    if d_star % heads != 0:
        raise ValueError(f"head count {heads} must divide interest width {d_star}")
    c = d_star // heads
    x = ad.stack(shared_stacks, axis=0)  # (K, V, S, d*)
    chunks = x.reshape(K, V, S, heads, 1, c)  # row vectors per head
    qt = ad.transpose(q_proj, (0, 2, 1))
    kt = ad.transpose(k_proj, (0, 2, 1))
    vt = ad.transpose(v_proj, (0, 2, 1))
    qx = ad.matmul(chunks, qt).reshape(K, V, S, heads, c)
    kx = ad.matmul(chunks, kt).reshape(K, V, S, heads, c)
    vx = ad.matmul(chunks, vt).reshape(K, V, S, heads, c)
    scale = 1.0 / np.sqrt(c)
    scores = (qx.reshape(K, 1, V, S, heads, c)
              * kx.reshape(1, K, V, S, heads, c)).sum(axis=-1) * scale
    lam = ad.softmax(scores, axis=1)  # (K, K', V, S, H), sums to 1 over K'
    mixed = (lam.reshape(K, K, V, S, heads, 1)
             * vx.reshape(1, K, V, S, heads, c)).sum(axis=1)
    heads_out = mixed.reshape(K, V, S, d_star)
    residual = x.sum(axis=0, keepdims=True)
    out = heads_out + residual
    return [ad.narrow(out, 0, k, 1).reshape(V, S, d_star) for k in range(K)], lam
