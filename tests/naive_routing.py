"""Oracles for the interest-allocation routine.

`naive_route` is a straight-line loop oracle, deliberately naive and
independent of the package implementation: python dict/loop structure,
per-directed-edge coefficient scalars, the literal iteration order of the
published procedure (including the final, unused coefficient update). Only
tiny numpy vectors are used for arithmetic.

The tape-level references at the end keep the package's earlier scatter
ops, its per-edge routing, its routing and its cross-behavior attention
composed of tape ops, plus a test-only helper.

`recorded_coefficients` observes the package's routing from outside: it
records the coefficients that each routing iteration weights its edges
with, which no output of the package carries. `recorded_restrictions`
records which routing passes worked on a subset of the edges, and
`recorded_last_layer_rows` the rows that aggregation, attention and the
time offsets computed. `whole_last_layer` turns a training step's narrowed
last layer off, as the reference that it must match, and
`mask_built_rows` keeps the package's earlier sums into some rows.
"""

import sys
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ckml import autodiff as ad
from ckml import fbc, model
from ckml.autodiff import NORM_GUARD
from ckml.cie import assemble_interest_embedding
from ckml.fbc import DEGREE_GUARD, _project
from ckml.numerics import NumericError

from naive_autodiff import divide, narrow, stack, tanh, transpose

GUARD = 1e-12


@contextmanager
def recorded_coefficients():
    """Yields a list that receives a copy of the (S, E) weights of every
    `fbc._EdgeWeights.apply` call made inside the block, and of every
    `uniform` call as its weight repeated over (S, E). Each routing
    iteration of a forward makes one such call with its coefficients, the
    user side's iterations first and then the item side's. A backward makes
    further calls, so record forwards alone."""
    calls = []
    apply, uniform = fbc._EdgeWeights.apply, fbc._EdgeWeights.uniform

    def recording(self, w, stack):
        calls.append(w.copy())
        return apply(self, w, stack)

    def recording_uniform(self, w, stack):
        calls.append(np.full((stack.shape[1], self.matrix.nnz), w, dtype=w.dtype))
        return uniform(self, w, stack)
    fbc._EdgeWeights.apply, fbc._EdgeWeights.uniform = recording, recording_uniform
    try:
        yield calls
    finally:
        fbc._EdgeWeights.apply, fbc._EdgeWeights.uniform = apply, uniform


@contextmanager
def recorded_restrictions():
    """Yields a list that receives, for every routing pass inside the block
    that works on some of a side's edges alone, its kind and its edge
    counts: ("forward", reached, all) for a forward over the reach, and
    ("backward", live, the forward's) for a backward over its live edges.
    Passes that keep the whole side are not recorded."""
    calls = []
    narrowed = fbc._narrowed

    def recording(dst_ids, src_ids, to_dst, marked, by_dst=None):
        side = narrowed(dst_ids, src_ids, to_dst, marked, by_dst)
        edges = side[0]
        if not isinstance(edges, slice):
            caller = sys._getframe(1).f_code.co_name
            kind = {"_route_side": "forward", "backward": "backward"}[caller]
            calls.append((kind, len(edges), len(dst_ids)))
        return side
    fbc._narrowed = recording
    try:
        yield calls
    finally:
        fbc._narrowed = narrowed


@contextmanager
def whole_last_layer():
    """Inside the block `model.batch_loss` hands `model.forward` no reach,
    so the last layer routes, aggregates and attends every row, as
    evaluation does."""
    reach = model.last_layer_reach
    model.last_layer_reach = lambda *args: None
    try:
        yield
    finally:
        model.last_layer_reach = reach


@contextmanager
def recorded_last_layer_rows():
    """Yields a dict that receives, per stage, one entry for every call
    inside the block: under "attention" the node rows each
    `fbc.correlate_shared` attended (its weights' row axis), under
    "aggregation" the rows that each of `fbc._aggregate`'s products
    computed (those its matrix has entries in) and its entry count, and
    under "time offsets" the same for each one-hot product: `model.forward`'s
    over every row, and those over the rows routing reads
    (`fbc.TimeOffsets.onehot_rows`), forward and backward."""
    calls = {"attention": [], "aggregation": [], "time offsets": []}
    correlate, spmm, onehot_rows = fbc.correlate_shared, ad.spmm, fbc.TimeOffsets.onehot_rows

    def attending(*args, **kwargs):
        outs, lam = correlate(*args, **kwargs)
        calls["attention"].append(lam.shape[2])
        return outs, lam

    stages = {fbc._aggregate.__code__: "aggregation", model.forward.__code__: "time offsets"}

    def multiplying(sparse, x):
        caller = sys._getframe(1)
        while caller.f_code.co_name == "<listcomp>":  # frames of their own before 3.12
            caller = caller.f_back
        stage = stages.get(caller.f_code)
        if stage is not None:
            calls[stage].append((int(np.count_nonzero(sparse.getnnz(axis=1))), sparse.nnz))
        return spmm(sparse, x)

    def offsetting(self, rows):
        sparse = onehot_rows(self, rows)
        calls["time offsets"].append((int(np.count_nonzero(sparse.getnnz(axis=1))),
                                      sparse.nnz))
        return sparse
    fbc.correlate_shared, ad.spmm = attending, multiplying
    fbc.TimeOffsets.onehot_rows = offsetting
    try:
        yield calls
    finally:
        fbc.correlate_shared, ad.spmm = correlate, spmm
        fbc.TimeOffsets.onehot_rows = onehot_rows


def mask_built_rows(ctx, side, rows):
    """The package's earlier sums into the node rows `rows` of `side` (0
    users, 1 items): a node mask and a pass over every edge keep the
    normalized adjacency's entries into those rows, in edge order, as a user
    x item CSR matrix."""
    adj = ctx.user_from_item
    marked = np.zeros(adj.shape[side], dtype=bool)
    marked[rows] = True
    kept = np.flatnonzero(marked[(ctx.user_ids, ctx.item_ids)[side]])
    offsets = np.cumsum(np.bincount(ctx.user_ids[kept], minlength=adj.shape[0]))
    return sp.csr_matrix((adj.data[kept], adj.indices[kept], np.concatenate(([0], offsets))),
                         adj.shape)


def _unit(v):
    n = np.sqrt(float((v * v).sum()))
    return v / max(n, GUARD)


def naive_route(edges, num_users, num_items, x_user, g_item, t_user, t_item,
                tau, n_iter):
    """Returns (pre-aggregation user stacks, item stacks) as numpy arrays.

    edges: iterable of (user, item) interactions; x_user: (M, S, d*);
    g_item: (N, S, d*); t_user/t_item: same shapes (time offsets).
    """
    M, S, D = x_user.shape
    N = g_item.shape[0]
    h_u0 = [x_user[u] + t_user[u] for u in range(M)]
    h_i0 = [g_item[i] + t_item[i] for i in range(N)]

    # directed edges of the symmetric adjacency: (u->i) and (i->u)
    user_cols = [(u, i) for (u, i) in edges]
    item_cols = [(i, u) for (u, i) in edges]
    a_user = {e: np.ones(S) for e in user_cols}
    a_item = {e: np.ones(S) for e in item_cols}

    h_u_t = [np.zeros((S, D)) for _ in range(M)]
    h_i_t = [np.zeros((S, D)) for _ in range(N)]
    for _t in range(1, n_iter + 1):
        c_user = {}
        for e, logits in a_user.items():
            z = np.exp(logits / tau)
            c_user[e] = z / z.sum()
        c_item = {}
        for e, logits in a_item.items():
            z = np.exp(logits / tau)
            c_item[e] = z / z.sum()

        for u in range(M):
            incident = [(uu, i) for (uu, i) in user_cols if uu == u]
            for s in range(S):
                if not incident:
                    h_u_t[u][s] = np.zeros(D)
                    continue
                num = np.zeros(D)
                den = 0.0
                for e in incident:
                    num = num + c_user[e][s] * h_i0[e[1]][s]
                    den += c_user[e][s]
                h_u_t[u][s] = num / den
        for i in range(N):
            incident = [(ii, u) for (ii, u) in item_cols if ii == i]
            for s in range(S):
                if not incident:
                    h_i_t[i][s] = np.zeros(D)
                    continue
                num = np.zeros(D)
                den = 0.0
                for e in incident:
                    num = num + c_item[e][s] * h_u0[e[1]][s]
                    den += c_item[e][s]
                h_i_t[i][s] = num / den

        # literal coefficient update, including the wasted final-iteration one
        for (u, i) in user_cols:
            for s in range(S):
                a_user[(u, i)][s] += float(
                    _unit(h_i0[i][s]) @ np.tanh(_unit(h_u_t[u][s])))
        for (i, u) in item_cols:
            for s in range(S):
                a_item[(i, u)][s] += float(
                    _unit(h_u0[u][s]) @ np.tanh(_unit(h_i_t[i][s])))

    return np.stack(h_u_t), np.stack(h_i_t)


def naive_light_aggregate(edges, num_users, num_items, routed_u, routed_i):
    """One symmetric-degree-normalized pass over the bipartite graph on the
    concatenated interest rows."""
    M, S, D = routed_u.shape
    N = routed_i.shape[0]
    du = np.zeros(num_users)
    di = np.zeros(num_items)
    for (u, i) in edges:
        du[u] += 1
        di[i] += 1
    flat_u = routed_u.reshape(M, S * D)
    flat_i = routed_i.reshape(N, S * D)
    out_u = np.zeros_like(flat_u)
    out_i = np.zeros_like(flat_i)
    for (u, i) in edges:
        w = 1.0 / np.sqrt(du[u] * di[i])
        out_u[u] += w * flat_i[i]
        out_i[i] += w * flat_u[u]
    return out_u.reshape(M, S, D), out_i.reshape(N, S, D)


def naive_route_and_aggregate(edges, num_users, num_items, x_user, g_item,
                              t_user, t_item, tau, n_iter):
    ru, ri = naive_route(edges, num_users, num_items, x_user, g_item,
                         t_user, t_item, tau, n_iter)
    return naive_light_aggregate(edges, num_users, num_items, ru, ri)


# ---------------------------------------------------------------------------
# Tape-level references. Unlike the loops above these run on the package's
# autodiff tensors: the scatter ops as `np.add.at` and the routing with the
# l2 normalization and tanh applied to the gathered per-edge rows, as the
# package computed them before its incidence products and per-node
# normalization. The new kernels must match them bitwise in the forward.

def add_at_gather(x, index):
    """Rows of x along axis 0; backward scatter-adds with `np.add.at`."""
    index = np.asarray(index)
    out = ad.Tensor(x.data[index], x.requires_grad, (x,))
    if x.requires_grad:
        def bw(g):
            full = np.zeros_like(x.data)
            np.add.at(full, index, g)
            x._accumulate(full)
        out._backward = bw
    return out


def add_at_segment_sum(x, segment_ids, num_segments):
    """Per-segment row sums by `np.add.at`; backward gathers."""
    segment_ids = np.asarray(segment_ids)
    out_data = np.zeros((num_segments,) + x.shape[1:], dtype=x.dtype)
    np.add.at(out_data, segment_ids, x.data)
    out = ad.Tensor(out_data, x.requires_grad, (x,))
    if x.requires_grad:
        out._backward = lambda g: x._accumulate(g[segment_ids])
    return out


def _edge_weighted_mean(coeff, sources, seg_ids, num_segments):
    msg = coeff.reshape(coeff.shape[0], coeff.shape[1], 1) * sources
    num = add_at_segment_sum(msg, seg_ids, num_segments)
    den = ad.maximum(add_at_segment_sum(coeff, seg_ids, num_segments), GUARD)
    return divide(num, den.reshape(den.shape[0], den.shape[1], 1))


def per_edge_route(ctx, x_stack, g_stack, time_u, time_i, tau, n_iter):
    """Routing steps 1-4 normalizing the gathered per-edge rows; returns the
    last iteration's (user, item) stacks like `fbc._route`."""
    M, S, D = x_stack.shape
    N = g_stack.shape[0]
    u_idx, i_idx = ctx.graph.edges[:, 0], ctx.graph.edges[:, 1]
    h_u0 = x_stack + time_u if time_u is not None else x_stack
    h_i0 = g_stack + time_i if time_i is not None else g_stack
    E = len(u_idx)
    if E == 0:
        return (ad.constant(np.zeros((M, S, D), dtype=h_u0.dtype)),
                ad.constant(np.zeros((N, S, D), dtype=h_i0.dtype)))
    h_u0_e = add_at_gather(h_u0, u_idx)
    h_i0_e = add_at_gather(h_i0, i_idx)
    nh_u0_e = ad.l2_normalize(h_u0_e, eps=GUARD)
    nh_i0_e = ad.l2_normalize(h_i0_e, eps=GUARD)
    ones = np.ones((E, S), dtype=h_u0.dtype)
    logits_user = ad.constant(ones)
    logits_item = ad.constant(ones.copy())
    for t in range(1, n_iter + 1):
        c_user = ad.softmax(divide(logits_user, tau), axis=1)
        c_item = ad.softmax(divide(logits_item, tau), axis=1)
        h_u_t = _edge_weighted_mean(c_user, h_i0_e, u_idx, M)
        h_i_t = _edge_weighted_mean(c_item, h_u0_e, i_idx, N)
        if t < n_iter:
            nh_u_t = ad.l2_normalize(add_at_gather(h_u_t, u_idx), eps=GUARD)
            nh_i_t = ad.l2_normalize(add_at_gather(h_i_t, i_idx), eps=GUARD)
            logits_user = logits_user + (nh_i0_e * tanh(nh_u_t)).sum(axis=-1)
            logits_item = logits_item + (nh_u0_e * tanh(nh_i_t)).sum(axis=-1)
    return h_u_t, h_i_t


def _weighted_mean(coeff, sources, ids, num_nodes):
    """Per-node, per-interest weighted mean of source rows on the tape.

    coeff: (E, S); sources: (E, S, d*); ids: (E,) node of each edge. Nodes
    with no incident edges give a 0/guard division, i.e. exactly zero.
    """
    msg = coeff.reshape(coeff.shape[0], coeff.shape[1], 1) * sources
    num = ad.segment_sum(msg, ids, num_nodes)
    den = ad.segment_sum(coeff, ids, num_nodes)
    den = ad.maximum(den, DEGREE_GUARD)
    return divide(num, den.reshape(den.shape[0], den.shape[1], 1))


@dataclass
class RoutingState:
    """Per-iteration routing diagnostics (detached numpy copies)."""

    coefficients: list = field(default_factory=list)  # (c_user_side, c_item_side)
    logits: list = field(default_factory=list)


def tape_route(ctx, x_stack, g_stack, time_u, time_i, tau, n_iter, collect_state):
    """`fbc._route` composed of tape ops, as the package ran it before the
    fused per-side nodes: (E, S, d*) per-edge arrays, one tape node per op.
    Returns the (user, item) stacks and, if `collect_state`, a RoutingState
    of each iteration's (E, S) coefficients and updated logits (else None)."""
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

    users, items = ctx.user_ids, ctx.item_ids
    h_u0_e = ad.gather(h_u0, users)
    h_i0_e = ad.gather(h_i0, items)
    nh_u0_e = ad.gather(ad.l2_normalize(h_u0, eps=NORM_GUARD), users)
    nh_i0_e = ad.gather(ad.l2_normalize(h_i0, eps=NORM_GUARD), items)

    ones = np.ones((E, S), dtype=h_u0.dtype)
    logits_user_side = ad.constant(ones, h_i0.dtype)
    logits_item_side = ad.constant(ones.copy())

    h_u_t = None
    h_i_t = None
    for t in range(1, n_iter + 1):
        c_user = ad.softmax(divide(logits_user_side, tau), axis=1)
        c_item = ad.softmax(divide(logits_item_side, tau), axis=1)
        if collect_state:
            state.coefficients.append((c_user.data.copy(), c_item.data.copy()))
        h_u_t = _weighted_mean(c_user, h_i0_e, users, M)
        h_i_t = _weighted_mean(c_item, h_u0_e, items, N)
        if not (np.all(np.isfinite(h_u_t.data)) and np.all(np.isfinite(h_i_t.data))):
            bad = np.argwhere(~np.isfinite(h_u_t.data))
            where = f"user node {bad[0][0]}" if len(bad) else "item side"
            raise NumericError(f"non-finite routing state at iteration {t} ({where})")
        if t < n_iter:
            th_u_t = ad.gather(tanh(ad.l2_normalize(h_u_t, eps=NORM_GUARD)),
                               users)
            th_i_t = ad.gather(tanh(ad.l2_normalize(h_i_t, eps=NORM_GUARD)),
                               items)
            aff_user = (nh_i0_e * th_u_t).sum(axis=-1)
            aff_item = (nh_u0_e * th_i_t).sum(axis=-1)
            logits_user_side = logits_user_side + aff_user
            logits_item_side = logits_item_side + aff_item
            if collect_state:
                state.logits.append((logits_user_side.data.copy(),
                                     logits_item_side.data.copy()))
    return h_u_t, h_i_t, state


def projected_left_to_right(xh, w):
    """`fbc._project`'s contract, one entry at a time: `out[n, h, j]` adds
    the products `xh[h, n, k] * w[h, j, k]` for k = 0, 1, ... left to right,
    each multiply and add a numpy scalar operation of the inputs' dtype."""
    H, N, c = xh.shape
    out = np.empty((N, H, c), dtype=xh.dtype)
    for h, n, j in np.ndindex(H, N, c):
        total = xh[h, n, 0] * w[h, j, 0]
        for k in range(1, c):
            total = total + xh[h, n, k] * w[h, j, k]
        out[n, h, j] = total
    return out


def _projected(chunks, proj):
    """Per-row (1, c) @ (c, c) products of the (K, V, S, H, 1, c) chunks
    with each head's transposed weights, on the tape as `ad.matmul`. The
    values are `fbc._project`'s fixed-order sums, which BLAS's products do
    not round alike, so that the forward compares bitwise; the matmul's
    backward reads its operands, not its output."""
    K, V, S, H, _, c = chunks.shape
    out = ad.matmul(chunks, transpose(proj, (0, 2, 1)))
    head_major = chunks.data.reshape(K, V, S, H, c).transpose(3, 0, 1, 2, 4)
    rows = _project(head_major, proj.data.astype(chunks.dtype))
    out.data = rows.reshape(out.shape)
    return out.reshape(K, V, S, H, c)


def composed_correlate_shared(shared_stacks, q_proj, k_proj, v_proj, heads):
    """`fbc.correlate_shared` composed of tape ops, as the package ran it
    before the fused node, with `_projected`'s projections."""
    K = len(shared_stacks)
    V, S, d_star = shared_stacks[0].shape
    if d_star % heads != 0:
        raise ValueError(f"head count {heads} must divide interest width {d_star}")
    c = d_star // heads
    x = stack(shared_stacks, axis=0)  # (K, V, S, d*)
    chunks = x.reshape(K, V, S, heads, 1, c)  # row vectors per head
    qx, kx, vx = (_projected(chunks, p) for p in (q_proj, k_proj, v_proj))
    scale = 1.0 / np.sqrt(c)
    scores = (qx.reshape(K, 1, V, S, heads, c)
              * kx.reshape(1, K, V, S, heads, c)).sum(axis=-1) * scale
    lam = ad.softmax(scores, axis=1)  # (K, K', V, S, H), sums to 1 over K'
    mixed = (lam.reshape(K, K, V, S, heads, 1)
             * vx.reshape(1, K, V, S, heads, c)).sum(axis=1)
    heads_out = mixed.reshape(K, V, S, d_star)
    residual = x.sum(axis=0, keepdims=True)
    out = heads_out + residual
    return [narrow(out, 0, k, 1).reshape(V, S, d_star) for k in range(K)], lam


def propagate_layer(specific, shared_corr, previous):
    """Next layer state: (specific block || correlated shared block) + previous."""
    return assemble_interest_embedding(specific, shared_corr) + previous
