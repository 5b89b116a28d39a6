"""Fine-grained behavioral correlation.

Every behavior edge is softly allocated across interests by iterative
dynamic routing (normalize per-edge coefficients, propagate weighted
means of the opposite side's initial states, update coefficients by
normalized-affinity agreement), then one aggregator pass runs over the
bipartite graph on the routed stacks, through the symmetric-degree
normalized adjacency D_u^-1/2 A D_i^-1/2 and its transpose. Shared
interest blocks are correlated across behaviors with per-interest
multi-head attention; specific blocks bypass correlation entirely.

Coefficients live per *directed* edge: the user-side column (u, i) and the
item-side column (i, u) of an interaction evolve independently, exactly as
the symmetric adjacency implies. So each side's routed output depends only
on the other side's initial states, and routing is one tape node per side
with a hand-derived backward (`_route_side`).

Inside that node the per-edge arrays are edge-minor, (S, d*, E) and (S, E),
so reductions over the short interest and width axes run one long inner
loop each. The affinity's l2 normalization and tanh act on each interest
row alone, so they run on the node stacks before the per-edge gather. The
weighted sums over a node's edges are sparse products whose entries are
the coefficients (`_EdgeWeights`): one user x item matrix per edge set,
with one entry per edge, refilled one interest at a time, so no per-edge
message array is formed; sums into items multiply by its transpose's
view. A behavior's whole graph (its `BehaviorContext`) shares the
normalized adjacency's index arrays; a subset of its edges has its own
matrix, on the node rows they touch, renumbered. One helper narrows a side
either way (`_narrowed`): a training step's last layer routes only the
edges into the rows its losses read (the reach), and a backward only the
edges into rows of nonzero gradient, each while those edges are under
`LIVE_EDGE_CUT` of the edges it starts from, so its time grows with their
count, not with the graph's; another writes the narrowed rows back into
rows of full height (`_full_height`). A graph without edges takes the same
path. The first iteration's equal logits give every edge the weight 1/S,
so it takes one product over all interests (`uniform`).

The cross-behavior attention is likewise one tape node per side and
layer (`correlate_shared`), with a hand-derived backward. Its projections
are matrix-vector products over all K x V x S chunk rows of a head, which in
float64 round as per-row products do (`_project` says for which widths).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .cie import apply_aggregator
from .numerics import NumericError, normalized_adjacency

DEGREE_GUARD = 1e-12
# Routing works on a subset of a side's edges alone below this share of the
# edges it starts from: the forward on the reached edges among all, the
# backward on the live edges among the forward's. Per backward on the
# benchmark's step graph (f64, one BLAS thread, 2-core Xeon), that took
# ~0.34 of the whole-edge time at 0.1 live, ~0.5 at 0.2, 0.65-0.83 at
# 0.3-0.4, ~0.9 at 0.5, crossed near 0.6, lost above.
LIVE_EDGE_CUT = 0.5


@dataclass
class BehaviorContext:
    """Constant per-behavior structures reused across layers and steps."""

    graph: object
    dtype: np.dtype = np.dtype(np.float64)  # of the normalized adjacency
    user_from_item: sp.csr_matrix = field(init=False)  # normalized, user x item
    user_ids: np.ndarray = field(init=False)  # each edge's user, intp
    item_ids: np.ndarray = field(init=False)  # each edge's item, intp
    # routing's sums, on the normalized adjacency's index arrays
    into_users: _EdgeWeights = field(init=False)  # from item rows
    into_items: _EdgeWeights = field(init=False)  # from user rows

    def __post_init__(self):
        g = self.graph
        self.user_ids = g.edges[:, 0].astype(np.intp)
        self.item_ids = g.edges[:, 1].astype(np.intp)
        self.user_from_item = normalized_adjacency(
            self.user_ids, self.item_ids, (g.num_users, g.num_items), self.dtype)
        adj = self.user_from_item
        self.into_users = _EdgeWeights(sp.csr_matrix(
            (np.empty(adj.nnz), adj.indices, adj.indptr), shape=adj.shape))
        self.into_items = self.into_users.T

    @property
    def edge_count(self) -> int:
        return len(self.user_ids)


def _edge_rows(node_rows: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Row `ids[e]` of `node_rows` (V, ...) for every edge e, edge-minor:
    (..., E)."""
    width = math.prod(node_rows.shape[1:])  # -1 fails on zero rows
    flat = np.ascontiguousarray(node_rows.reshape(node_rows.shape[0], width).T)
    return np.take(flat, ids, axis=1).reshape(node_rows.shape[1:] + (len(ids),))


class _EdgeWeights:
    """Weighted sums over a set of edges, one interest at a time:
    `apply(w, stack)[v, s]` adds `w[s, e] * stack[u, s]` over the edges e
    from a node u into v, from zero in ascending edge order. So it is
    bitwise `np.add.at` of the per-edge products, which it never forms.
    `matrix` has one entry per edge, in the edges' ascending (user, item)
    order: a user x item CSR matrix sums into users, its CSC view (`T`)
    into items, adding each row's terms in column, again edge, order.
    `apply` copies each interest's weights into its values."""

    def __init__(self, matrix):
        self.matrix = matrix

    @classmethod
    def of_edges(cls, users: np.ndarray, items: np.ndarray, shape: tuple) -> _EdgeWeights:
        """Into users, over edges sorted by (user, item), none repeated."""
        offsets = np.concatenate(([0], np.cumsum(np.bincount(users, minlength=shape[0]))))
        return cls(sp.csr_matrix((np.empty(len(users)), items, offsets), shape=shape))

    @property
    def T(self) -> _EdgeWeights:
        return _EdgeWeights(self.matrix.T)

    def _values(self, dtype) -> np.ndarray:
        if self.matrix.dtype != dtype:
            self.matrix.data = np.empty(self.matrix.nnz, dtype=dtype)
        return self.matrix.data

    def apply(self, w: np.ndarray, stack: np.ndarray) -> np.ndarray:
        values = self._values(w.dtype)
        by_interest = np.ascontiguousarray(stack.transpose(1, 0, 2))
        out = np.empty((w.shape[0], self.matrix.shape[0], stack.shape[2]),
                       dtype=np.result_type(w, stack))
        for s, w_s in enumerate(w):
            values[...] = w_s
            out[s] = self.matrix @ by_interest[s]
        return out.transpose(1, 0, 2)

    def uniform(self, w: np.generic, stack: np.ndarray) -> np.ndarray:
        """Bitwise `apply` with the scalar `w` as every weight: one product
        over all interests adds the same terms in the same order."""
        self._values(w.dtype).fill(w)
        V, S, W = stack.shape
        return (self.matrix @ stack.reshape(V, S * W)).reshape(-1, S, W)


def _narrowed(dst_ids: np.ndarray, src_ids: np.ndarray, to_dst: _EdgeWeights,
              marked: np.ndarray | None):
    """A side's edges into the destination rows that `marked` marks, on the
    destination and source rows they touch, both renumbered in ascending
    order, so the edges stay sorted by (user, item): (the edges, the
    destination rows, the source rows, each edge's renumbered destination
    and source, the sums into destination rows). That while those edges are
    under `LIVE_EDGE_CUT` of the side's, and not one alone (numpy sums a
    lone edge's d* >= 9 terms pairwise, many edges' row by row); otherwise,
    or with `marked` None, the whole side as given, with slices for the
    edges and rows."""
    kept = None if marked is None else marked[dst_ids]
    if kept is None or (n := np.count_nonzero(kept)) == 1 or n >= LIVE_EDGE_CUT * len(kept):
        every = slice(None)
        return every, every, every, dst_ids, src_ids, to_dst
    edges = np.flatnonzero(kept)
    rows, dst_c = np.unique(dst_ids[edges], return_inverse=True)
    srcs, src_c = np.unique(src_ids[edges], return_inverse=True)
    if to_dst.matrix.format == "csr":  # into users
        return edges, rows, srcs, dst_c, src_c, _EdgeWeights.of_edges(
            dst_c, src_c, (len(rows), len(srcs)))
    return edges, rows, srcs, dst_c, src_c, _EdgeWeights.of_edges(
        src_c, dst_c, (len(srcs), len(rows))).T


def _full_height(values: np.ndarray, rows, height: int) -> np.ndarray:
    """`values`, the node rows `rows` (ascending, a slice or an index array)
    of a (height, ...) array whose other rows are +0.0: `values` itself
    when it holds every row."""
    if len(values) == height:
        return values
    out = np.zeros((height,) + values.shape[1:], dtype=values.dtype)
    out[rows] = values
    return out


def _route_side(src: ad.Tensor, src_ids: np.ndarray, dst_ids: np.ndarray,
                to_dst: _EdgeWeights, tau: float, n_iter: int,
                reach: np.ndarray | None = None):
    """Steps 1-4 for one side: each destination node's interest rows become
    the coefficient-weighted means of its edges' source rows, iterated.

    src: (source nodes, S, d*); `src_ids` and `dst_ids` hold each edge's
    source and destination node; `to_dst` sums over the edges into
    destination nodes, and its transpose into source nodes. `reach`, a mask
    over the destination nodes, names the rows that are read: the forward
    routes the edges into them as `_narrowed` gives them, and the backward
    those of its edges into rows of nonzero gradient; rows left out come
    out +0.0 (`_full_height`). Per-edge arrays are edge-minor, (S, d*, E)
    and (S, E), so every per-edge reduction runs one long inner loop; the
    forward's are of `src`'s dtype.
    Returns the last iteration's (destination nodes, S, d*) Tensor of that
    dtype, whose only parent is `src`, and None, or, at the first iteration
    whose state is not finite, None and (that iteration, the first
    destination node whose row is not finite). Each iteration hands its
    coefficients to `to_dst` once: the first its one weight to `uniform`,
    the others (S, E) arrays to `apply`.
    """
    n_src, n_dst = src.shape[0], to_dst.matrix.shape[0]
    _, rows, srcs, dst_ids, src_ids, to_dst = _narrowed(dst_ids, src_ids, to_dst, reach)
    x = src.data[srcs]
    V, S, _ = x.shape
    unit_x, x_norm, x_live = ad.unit_rows(x)
    # one product gives each weighted mean's numerator and denominator
    x_and_ones = np.concatenate([x, np.ones((V, S, 1), dtype=x.dtype)], axis=2)
    unit_src_e = _edge_rows(unit_x, src_ids) if n_iter > 1 else None
    logits = np.ones((S, 1), dtype=x.dtype)  # equal on every edge until updated
    saved = [] if src.requires_grad else None
    for t in range(1, n_iter + 1):
        # softmax over the interests, in place: a fresh (S, E) array costs
        # more than the arithmetic on it
        c = logits / tau
        c -= c.max(axis=0, keepdims=True)
        np.exp(c, out=c)
        c /= c.sum(axis=0, keepdims=True)
        # the first iteration's equal logits give every edge one weight
        num_den = to_dst.uniform(c[0, 0], x_and_ones) if t == 1 else to_dst.apply(c, x_and_ones)
        num, den = num_den[:, :, :-1], num_den[:, :, -1:]
        den = np.where(den > DEGREE_GUARD, den, DEGREE_GUARD)
        h = num / den
        if not np.all(np.isfinite(h)):
            row = np.argwhere(~np.isfinite(h))[0][0]
            return None, (t, int(np.arange(n_dst)[rows][row]))
        step = None
        if t < n_iter:  # the final update is never consumed by Step 5
            unit_h, h_norm, h_live = ad.unit_rows(h)
            th = np.tanh(unit_h)
            aff = _edge_rows(th, dst_ids)
            aff *= unit_src_e
            logits = logits + aff.sum(axis=1)
            step = (unit_h, h_norm, h_live, th)
        if saved is not None:
            saved.append((c, num, den, step))
    out = ad.Tensor(_full_height(h, rows, n_dst), src.requires_grad, (src,))
    if saved is None:
        return out, None

    def backward(g):
        # Edges into rows of zero gradient add exactly +-0 to every sum (states
        # are finite), which leaves a sum from +0 bitwise as it is, so the
        # backward works on the forward's edges into rows of nonzero gradient
        # as `_narrowed` gives them: each row keeps its edges in ascending
        # edge order, and every node-level operation acts per row (where two
        # NaNs meet, numpy's vector loops keep either sign, by position).
        g = g[rows]
        edges, live_rows, live_srcs, dst_c, src_c, to_dst_c = _narrowed(
            dst_ids, src_ids, to_dst, np.any(g != 0, axis=(1, 2)))
        to_src_c = to_dst_c.T
        x_c, unit_x_c = x[live_srcs], unit_x[live_srcs]
        # in float64 whatever the forward's dtype, rounded once where it
        # reaches `src`: in float32 the iterations' roundoff would add up
        d_x = np.zeros(x_c.shape)
        d_unit_x = np.zeros(x_c.shape)
        src_e = _edge_rows(x_c, src_c) if n_iter > 1 else None
        d_logits = np.zeros((S, len(dst_c)))
        dh = g[live_rows].astype(np.float64, copy=False)
        for t in range(n_iter, 0, -1):
            c, num, den, step = saved[t - 1]
            num, den = num[live_rows], den[live_rows]
            if step is not None:  # dh reaches h_t through the logit update
                unit_h, h_norm, h_live, th = (a[live_rows] for a in step)
                d_unit_x += to_src_c.apply(d_logits, th)
                d_th = to_dst_c.apply(d_logits, unit_x_c)
                dh = ad.unit_rows_backward(unit_h, h_norm, h_live, d_th * (1.0 - th * th))
            d_num = dh / den
            if t == 1:  # the first iteration's logits are constants
                d_x += to_src_c.uniform(c[0, 0], d_num)
                break
            c = c[:, edges]
            d_x += to_src_c.apply(c, d_num)
            # the guarded denominators are constants
            d_den = -ad.sum_last(dh * num / (den * den))[..., 0] * (den[..., 0] > DEGREE_GUARD)
            d_aff = _edge_rows(d_num, dst_c)
            d_aff *= src_e
            dc = d_aff.sum(axis=1)
            dc += _edge_rows(d_den, dst_c)
            dc -= (dc * c).sum(axis=0, keepdims=True)
            dc *= c
            dc /= tau
            d_logits += dc
        d_x += ad.unit_rows_backward(unit_x_c, x_norm[live_srcs], x_live[live_srcs], d_unit_x)
        # untouched source rows get +0.0
        src._accumulate(_full_height(_full_height(d_x, live_srcs, len(x)), srcs, n_src))
    out._backward = backward
    return out, None


def _route(ctx: BehaviorContext, x_stack: ad.Tensor, g_stack: ad.Tensor,
           time_u: ad.Tensor | None, time_i: ad.Tensor | None,
           tau: float, n_iter: int, reach: tuple | None = None):
    """Steps 1-4 on both sides: iterate coefficient normalization,
    weighted-mean propagation of the opposite side's initial states, and
    affinity updates. `reach`, if given, is the (user, item) masks of the
    rows that are read (`_route_side`). Returns the last iteration's (user,
    item) stacks, (M, S, d*) and (N, S, d*), before aggregation."""
    if tau <= 0:
        raise NumericError(f"routing temperature must be positive, got {tau}")
    if n_iter < 1:
        raise NumericError(f"routing needs at least one iteration, got {n_iter}")
    h_u0, h_i0 = _with_time(x_stack, time_u), _with_time(g_stack, time_i)
    # columns (u, i) carry items to users, columns (i, u) users to items
    users, items = ctx.user_ids, ctx.item_ids
    reach_u, reach_i = reach if reach is not None else (None, None)
    h_u_t, bad_u = _route_side(h_i0, items, users, ctx.into_users, tau, n_iter, reach_u)
    h_i_t, bad_i = _route_side(h_u0, users, items, ctx.into_items, tau, n_iter, reach_i)
    bad = [(b[0], side, b[1]) for side, b in enumerate((bad_u, bad_i)) if b]
    if bad:  # the earlier iteration, the user side first
        t, side, node = min(bad)
        raise NumericError(f"non-finite routing state at iteration {t} "
                           f"({('user', 'item')[side]} node {node})")
    return h_u_t, h_i_t


def route_behavior_layer(ctx: BehaviorContext, x_stack: ad.Tensor, g_stack: ad.Tensor,
                         time_u: ad.Tensor | None, time_i: ad.Tensor | None,
                         tau: float, n_iter: int, aggregator: str,
                         agg_weights: dict | None = None, slope: float = 0.2,
                         reach: tuple | None = None):
    """Allocate one behavior's edges across interests and aggregate once.

    Returns (h_user, h_item): stacks of shape (M, S, d*) / (N, S, d*) after
    the final aggregation pass; nodes without edges come out zero. With
    `reach` (`_route`), unreached rows route as zeros, so only the output
    rows whose aggregation reads reached rows alone are right.
    """
    h_u_t, h_i_t = _route(ctx, x_stack, g_stack, time_u, time_i, tau, n_iter, reach)
    return _aggregate(ctx, h_u_t, h_i_t, aggregator, agg_weights, slope)


def plain_aggregation_layer(ctx: BehaviorContext, x_stack: ad.Tensor,
                            g_stack: ad.Tensor, time_u: ad.Tensor | None,
                            time_i: ad.Tensor | None, aggregator: str,
                            agg_weights: dict | None = None, slope: float = 0.2):
    """Routing replacement for the no-routing ablation: one configured
    aggregator pass over the bipartite graph on (state + time offset)."""
    return _aggregate(ctx, _with_time(x_stack, time_u), _with_time(g_stack, time_i),
                      aggregator, agg_weights, slope)


def _with_time(stack: ad.Tensor, offset: ad.Tensor | None) -> ad.Tensor:
    return stack if offset is None else stack + offset


def _aggregate(ctx: BehaviorContext, h_u: ad.Tensor, h_i: ad.Tensor, aggregator: str,
               agg_weights: dict | None, slope: float):
    """One aggregator pass over the bipartite graph on (M, S, d*) user and
    (N, S, d*) item stacks, each side from the other's rows: users through
    the normalized adjacency, items through its transpose's view."""
    M, S, d_star = h_u.shape
    N = h_i.shape[0]
    flat_u = h_u.reshape(M, S * d_star)
    flat_i = h_i.reshape(N, S * d_star)
    agg_u = ad.spmm(ctx.user_from_item, flat_i)
    agg_i = ad.spmm(ctx.user_from_item.T, flat_u)
    out_u = apply_aggregator(aggregator, agg_u, flat_u, agg_weights, slope)
    out_i = apply_aggregator(aggregator, agg_i, flat_i, agg_weights, slope)
    return out_u.reshape(M, S, d_star), out_i.reshape(N, S, d_star)


def _project(xh: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Each head's chunks times its transposed weights, (N, H, c) from the
    head-major (H, N, c) chunks.

    The rows in whole blocks of four take one matrix-vector product per
    head and output column; the last N % 4 rows take the per-row
    (1, c) @ (c, c) product. In float64 with scipy-openblas 0.3.31 on an
    AVX-512 CPU this is bitwise that per-row product for c <= 8 and for c
    a multiple of 4 (the gemv kernel rounds a partial block of rows, and a
    c past 8 that is not a multiple of 4, differently). The
    (H, N, c) @ (H, c, c) product, einsum and explicit sums are not
    bitwise it.
    """
    H, N, c = xh.shape
    blocks = N - N % 4
    out = np.empty((N, H, c), dtype=xh.dtype)
    for h in range(H):
        for j in range(c):
            out[:blocks, h, j] = xh[h, :blocks] @ w[h, j]
    tail = np.matmul(xh[:, blocks:, None, :], w.transpose(0, 2, 1)[:, None])
    out[blocks:] = tail.reshape(H, N - blocks, c).transpose(1, 0, 2)
    return out


def _head_major(a: np.ndarray, heads: int, c: int) -> np.ndarray:
    """The (heads, c) chunks of `a`'s rows as a contiguous (heads, rows, c)
    array."""
    return np.ascontiguousarray(a.reshape(-1, heads, c).transpose(1, 0, 2))


def correlate_shared(stacks: list, q_proj: ad.Tensor, k_proj: ad.Tensor,
                     v_proj: ad.Tensor, heads: int, n_specific: int = 0):
    """Per-node, per-shared-interest multi-head attention across behaviors.

    stacks: K tensors of shape (V, S, d*), each behavior's `n_specific`
    specific interests first and its shared ones after. Only the shared
    block [:, n_specific:] is attended over; the specific block passes
    through unchanged, forward and backward. Each shared d*-wide vector is
    chunked into `heads` pieces; per head, scores between behaviors k and k'
    are scaled dot products of projected chunks, softmax-normalized over k'.
    The residual adds the sum of ALL behaviors' shared blocks. Returns
    (list of K (V, S, d*) output tensors, attention weights of shape
    (K, K, V, S - n_specific, H)).

    The attention is one tape node whose parents are the stacks and the
    three projections, with a hand-derived backward; the weights are cast
    to the stacks' dtype.
    """
    K = len(stacks)
    V, S_all, d_star = stacks[0].shape
    if d_star % heads != 0:
        raise ValueError(f"head count {heads} must divide interest width {d_star}")
    H, c, S = heads, d_star // heads, S_all - n_specific
    projs = (q_proj, k_proj, v_proj)
    parents = (*stacks, *projs)
    x = np.stack([t.data for t in stacks])  # (K, V, S_all, d*)
    residual = x[:, :, n_specific:].sum(axis=0, keepdims=True)
    xh = _head_major(x[:, :, n_specific:], H, c)
    w = [p.data.astype(xh.dtype, copy=False) for p in projs]
    qx, kx, vx = (_project(xh, wp).reshape(K, V, S, H, c) for wp in w)
    # the backward's inputs; every other temporary is dropped once consumed
    saved = (xh, qx, kx, vx) if any(t.requires_grad for t in parents) else None
    scale = xh.dtype.type(1 / np.sqrt(c))
    del xh
    lam = ad.sum_last(qx.reshape(K, 1, V, S, H, c) * kx.reshape(1, K, V, S, H, c))[..., 0]
    del qx, kx
    lam *= scale
    # softmax over k', in place
    lam -= lam.max(axis=1, keepdims=True)
    np.exp(lam, out=lam)
    lam /= lam.sum(axis=1, keepdims=True)
    out = (lam.reshape(K, K, V, S, H, 1) * vx.reshape(1, K, V, S, H, c)).sum(axis=1)
    del vx
    out = out.reshape(K, V, S, d_star)
    out += residual
    del residual
    out = np.concatenate([x[:, :, :n_specific], out], axis=2)
    del x
    node = ad.Tensor(out, saved is not None, parents)
    if saved is None:
        return ad.unstack(node), ad.Tensor(lam)

    def backward(g_all):
        xh, qx, kx, vx = saved
        g = np.ascontiguousarray(g_all[:, :, n_specific:]).reshape(K, 1, V, S, H, c)
        d_lam = ad.sum_last(g * vx.reshape(1, K, V, S, H, c))[..., 0]
        d_v = (lam.reshape(K, K, V, S, H, 1) * g).sum(axis=0)
        d_lam -= (d_lam * lam).sum(axis=1, keepdims=True)
        d_lam *= lam
        d_lam *= scale
        d_lam = d_lam.reshape(K, K, V, S, H, 1)
        d_q = (d_lam * kx.reshape(1, K, V, S, H, c)).sum(axis=1)
        d_k = (d_lam * qx.reshape(K, 1, V, S, H, c)).sum(axis=0)
        del d_lam
        d_xh = None
        for p, wp, d in zip(projs, w, (d_q, d_k, d_v)):
            d = _head_major(d, H, c)
            if p.requires_grad:  # summed over every row inside one product
                p._accumulate(np.matmul(d.transpose(0, 2, 1), xh))
            d = np.matmul(d, wp)
            d_xh = d if d_xh is None else d_xh + d
        d_x = d_xh.transpose(1, 0, 2).reshape(K, V, S, d_star)
        d_x += g.reshape(K, V, S, d_star).sum(axis=0)  # the residual
        d_x = np.concatenate([g_all[:, :, :n_specific], d_x], axis=2)
        for k, t in enumerate(stacks):
            if t.requires_grad:
                t._accumulate(d_x[k])
    node._backward = backward
    return ad.unstack(node), ad.Tensor(lam)
