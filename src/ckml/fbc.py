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
matrix, on the node rows they touch, renumbered with a presence mask (no
sort). One helper narrows a side either way (`_narrowed`): a training
step's last layer routes only the edges into the rows its losses read (the
reach), read from the row ranges of the adjacency or of its item-major
copy, and a backward only the forward's edges into rows of nonzero
gradient, each while those edges are under `LIVE_EDGE_CUT` of the side's,
so its time grows with their count, not with the graph's; another writes
the narrowed rows back into rows of full height (`_full_height`). A graph
without edges takes the same path. The first iteration's equal logits give
every edge the weight 1/S, so it takes one product over all interests
(`uniform`).

The cross-behavior attention is likewise one tape node per side and
layer (`correlate_shared`), with a hand-derived backward. Its projections
add each row's products in one fixed order (`_project`), so a row's bytes
do not depend on the other rows or the CPU kernel.

A training step's losses read the last layer's stacks at the batch's rows
alone, so that layer aggregates (`_aggregate`, through the sums of
`into_rows`, read from row ranges) and attends (`correlate_shared`) those
rows alone and writes them into rows of full height (`_full_height`). The
other rows come out +0.0, and their gradients never reach the stacks
below: nothing reads them. Its routing adds the time offsets to the source
rows it reads alone (`TimeOffsets`). Each of these rows keeps its bytes: a
sparse product adds a row's terms in the same order, the aggregators'
dense products run at full height, and each attention weight gradient is
one product over every row, +0.0 outside the batch rows (`_head_major`).
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
# backward on the live edges among the forward's. A backward from a whole
# forward (f64, S = d* = 4, two iterations, one BLAS thread, 2-core Xeon)
# took this share of the whole-edge time, both sides, at 0.1 ... 0.9 live:
# on the benchmark's step graph 0.31, 0.45, 0.56, 0.64, 0.66-0.75,
# 0.82, 0.90-0.94, 0.97-1.02, 1.11-1.13; on its eval-wide graph 0.24,
# 0.37-0.41, 0.48-0.50, 0.55-0.60, 0.62-0.69, 0.72-0.76, 0.79-0.83,
# 0.88-0.93, 0.87-1.01. Near every edge live it still loses.
LIVE_EDGE_CUT = 0.5
# The (user, item) node rows of a pass that computes every row.
EVERY_ROW = (slice(None), slice(None))


@dataclass
class BehaviorContext:
    """Constant per-behavior structures reused across layers and steps."""

    graph: object
    dtype: np.dtype = np.dtype(np.float64)  # of the normalized adjacency
    user_from_item: sp.csr_matrix = field(init=False)  # normalized, user x item
    item_from_user: sp.csr_matrix = field(init=False)  # its item-major copy
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
        self.item_from_user = adj.T.tocsr()
        self.into_users = _EdgeWeights.of_pattern(adj.indices, adj.indptr, adj.shape)
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
    `apply` copies each interest's weights into its values: one buffer per
    dtype, made at the first product in that dtype and shared with `T`."""

    def __init__(self, matrix, buffers: dict | None = None):
        self.matrix = matrix
        self.buffers = {} if buffers is None else buffers  # dtype -> values

    @classmethod
    def of_pattern(cls, indices: np.ndarray, indptr: np.ndarray, shape: tuple) -> _EdgeWeights:
        """Into users, on a CSR pattern; a read-only zero stands in for the
        values until a product gives them a dtype."""
        return cls(sp.csr_matrix((np.broadcast_to(0.0, len(indices)), indices, indptr), shape))

    @classmethod
    def of_edges(cls, users: np.ndarray, items: np.ndarray, shape: tuple) -> _EdgeWeights:
        """Into users, over edges sorted by (user, item), none repeated."""
        return cls.of_counts(np.bincount(users, minlength=shape[0]), items, shape)

    @classmethod
    def of_counts(cls, counts: np.ndarray, items: np.ndarray, shape: tuple) -> _EdgeWeights:
        """Into users, over `counts[u]` edges from each user u whose items
        `items` lists user by user, ascending, none repeated; its index
        arrays are int32 where they fit, as scipy would make them after
        checking their contents."""
        index = np.int32 if max(len(items), *shape) < 2**31 else np.int64
        offsets = np.zeros(shape[0] + 1, dtype=index)
        np.cumsum(counts, out=offsets[1:])
        return cls.of_pattern(items.astype(index, copy=False), offsets, shape)

    @property
    def T(self) -> _EdgeWeights:
        return _EdgeWeights(self.matrix.T, self.buffers)

    def _values(self, dtype) -> np.ndarray:
        values = self.buffers.get(dtype)
        if values is None:
            values = self.buffers[dtype] = np.empty(self.matrix.nnz, dtype=dtype)
        self.matrix.data = values
        return values

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


def _renumbered(ids: np.ndarray, count: int):
    """`np.unique(ids, return_inverse=True)` for intp ids below `count`,
    from a presence mask and its running count: O(len(ids) + count), no
    sort."""
    present = np.zeros(count, dtype=bool)
    present[ids] = True
    return np.flatnonzero(present), np.cumsum(present, dtype=np.intp)[ids] - 1


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The positions `starts[r]:starts[r] + counts[r]` of every range r, one
    range after another: O(their total + len(starts))."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + counts, counts)


def _narrowed(dst_ids: np.ndarray, src_ids: np.ndarray, to_dst: _EdgeWeights,
              marked: np.ndarray | None, by_dst: sp.csr_matrix | None = None):
    """A side's edges into the destination rows that `marked` marks, on the
    destination and source rows they touch, both renumbered in ascending
    order (`_renumbered`): (the edges, the destination rows, the source
    rows, each edge's renumbered destination and source, the sums into
    destination rows). The marked rows' entries are read from their ranges
    (`_ranges`) in a destination-major CSR pattern of the side: `by_dst`,
    as positions in it, or a CSR `to_dst`'s own, as edges; a CSC `to_dst`
    with no `by_dst` has its edges scanned. They keep their order, sorted
    by (destination, source) from a pattern and by (source, destination)
    from a scan, and the sums are built in that order. That while those
    edges are under `LIVE_EDGE_CUT` of the side's, and not one alone (numpy
    sums a lone edge's d* >= 9 terms pairwise, many edges' row by row);
    otherwise, or with `marked` None, the whole side as given, with slices
    for the edges and rows."""
    if by_dst is None and to_dst.matrix.format == "csr":
        by_dst = to_dst.matrix
    if marked is not None:
        if by_dst is None:
            edges = np.flatnonzero(marked[dst_ids])
            n = len(edges)
        else:
            marked_rows = np.flatnonzero(marked)
            starts = by_dst.indptr[marked_rows]
            counts = by_dst.indptr[marked_rows + 1] - starts
            n = int(counts.sum())
    if marked is None or n == 1 or n >= LIVE_EDGE_CUT * len(dst_ids):
        every = slice(None)
        return every, every, every, dst_ids, src_ids, to_dst
    n_dst, n_src = to_dst.matrix.shape
    if by_dst is None:
        rows, dst_c = _renumbered(dst_ids[edges], n_dst)
        srcs, src_c = _renumbered(src_ids[edges], n_src)
        return edges, rows, srcs, dst_c, src_c, _EdgeWeights.of_edges(
            src_c, dst_c, (len(srcs), len(rows))).T
    # row by row: the rows with entries renumber in order
    edges = _ranges(starts, counts)
    rows, counts = marked_rows[counts > 0], counts[counts > 0]
    dst_c = np.repeat(np.arange(len(rows)), counts)
    srcs, src_c = _renumbered(by_dst.indices[edges], n_src)
    return edges, rows, srcs, dst_c, src_c, _EdgeWeights.of_counts(
        counts, src_c, (len(rows), len(srcs)))


def _full_height(values: np.ndarray, rows, height: int, axis: int = 0) -> np.ndarray:
    """`values`, the node rows `rows` (ascending, a slice or an index array)
    along `axis` of an array of `height` such rows whose other rows are
    +0.0: `values` itself when it holds every row."""
    if values.shape[axis] == height:
        return values
    out = np.zeros(values.shape[:axis] + (height,) + values.shape[axis + 1:],
                   dtype=values.dtype)
    out[(slice(None),) * axis + (rows,)] = values
    return out


@dataclass
class TimeOffsets:
    """A source side's time offsets in the form routing adds them to the
    rows it reads alone: row r's is `onehot[r] @ table`, times `mask` if
    given, with `onehot` the (nodes, buckets) one-hot matrix, `table` the
    (buckets, S, d*) Tensor and `mask` a (1, S, 1) array that zeroes an
    unused block. Each one-hot row holds one entry, so a product over some
    rows reads their buckets alone (`onehot_rows`) and gives each row the
    bytes of the whole product."""

    onehot: sp.csr_matrix
    table: ad.Tensor
    mask: np.ndarray | None = None

    def onehot_rows(self, rows) -> sp.csr_matrix:
        """The one-hot matrix's rows `rows` (ascending, a slice or an index
        array), from their bucket ids: O(len(rows))."""
        if isinstance(rows, slice):
            return self.onehot
        indptr = np.arange(len(rows) + 1, dtype=self.onehot.indptr.dtype)
        return sp.csr_matrix((self.onehot.data[rows], self.onehot.indices[rows], indptr),
                             (len(rows), self.onehot.shape[1]))

    def at(self, rows) -> np.ndarray:
        """The offsets of the node rows `rows`, (len(rows), S, d*)."""
        table = self.table.data
        out = (self.onehot_rows(rows) @ table.reshape(len(table), -1)).reshape(
            (-1,) + table.shape[1:])
        return out if self.mask is None else out * self.mask

    def backward(self, d: np.ndarray, rows):
        """Adds the gradient of the offsets of `rows`, `d`, to the table's.
        The other rows' would add +-0 to each sum from +0: left out, they
        leave its bytes as they are."""
        if not self.table.requires_grad:
            return
        if self.mask is not None:
            d = d * self.mask
        table = self.table
        g = self.onehot_rows(rows).T @ d.reshape(len(d), math.prod(table.shape[1:]))
        table._accumulate(g.astype(table.dtype, copy=False).reshape(table.shape))


def _route_side(src: ad.Tensor, src_ids: np.ndarray, dst_ids: np.ndarray,
                to_dst: _EdgeWeights, by_dst: sp.csr_matrix | None, tau: float,
                n_iter: int, reach: np.ndarray | None = None,
                offsets: TimeOffsets | None = None):
    """Steps 1-4 for one side: each destination node's interest rows become
    the coefficient-weighted means of its edges' source rows, iterated.

    src: (source nodes, S, d*); `src_ids` and `dst_ids` hold each edge's
    source and destination node; `to_dst` sums over the edges into
    destination nodes, and its transpose into source nodes; `by_dst` is the
    side's destination-major CSR pattern where `to_dst`'s matrix is CSC.
    `reach`, a mask over the destination nodes, names the rows that are
    read: the forward routes the entries of those rows as `_narrowed` gives
    them, and the backward those of its edges into rows of nonzero
    gradient; rows left out come out +0.0 (`_full_height`). With
    `offsets`, the forward adds the time offsets of the source rows it
    reads to them, and the backward hands their gradient to the offsets'
    table. Per-edge arrays are edge-minor, (S, d*, E) and (S, E), so every
    per-edge reduction runs one long inner loop; the forward's are of
    `src`'s dtype.
    Returns the last iteration's (destination nodes, S, d*) Tensor of that
    dtype, whose parents are `src` and the offsets' table, and None, or, at
    the first iteration whose state is not finite, None and (that
    iteration, the first destination node whose row is not finite). Each
    iteration hands its coefficients to `to_dst` once: the first its one
    weight to `uniform`, the others (S, E) arrays to `apply`.
    """
    n_src, n_dst = src.shape[0], to_dst.matrix.shape[0]
    _, rows, srcs, dst_ids, src_ids, to_dst = _narrowed(dst_ids, src_ids, to_dst, reach,
                                                        by_dst)
    x = src.data[srcs]
    parents = (src,)
    if offsets is not None:
        x = x + offsets.at(srcs)
        parents = (src, offsets.table)
    requires_grad = any(p.requires_grad for p in parents)
    V, S, _ = x.shape
    unit_x, x_norm, x_live = ad.unit_rows(x)
    # one product gives each weighted mean's numerator and denominator
    x_and_ones = np.concatenate([x, np.ones((V, S, 1), dtype=x.dtype)], axis=2)
    unit_src_e = _edge_rows(unit_x, src_ids) if n_iter > 1 else None
    logits = np.ones((S, 1), dtype=x.dtype)  # equal on every edge until updated
    saved = [] if requires_grad else None
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
    out = ad.Tensor(_full_height(h, rows, n_dst), requires_grad, parents)
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
        d_x = d_x.astype(x.dtype, copy=False)
        if src.requires_grad:  # untouched source rows get +0.0
            src._accumulate(_full_height(_full_height(d_x, live_srcs, len(x)), srcs, n_src))
        if offsets is not None:
            offsets.backward(d_x, live_srcs if isinstance(srcs, slice) else srcs[live_srcs])
    out._backward = backward
    return out, None


def _route(ctx: BehaviorContext, x_stack: ad.Tensor, g_stack: ad.Tensor,
           time_u, time_i, tau: float, n_iter: int, reach: tuple | None = None):
    """Steps 1-4 on both sides: iterate coefficient normalization,
    weighted-mean propagation of the opposite side's initial states, and
    affinity updates. The (user, item) time offsets are each None, a
    Tensor of every row's, added to every row, or `TimeOffsets`, which
    routing adds to the source rows it reads alone (`_route_side`).
    `reach`, if given, is the (user, item) masks of the rows that are read.
    Returns the last iteration's (user, item) stacks, (M, S, d*) and (N, S,
    d*), before aggregation."""
    if tau <= 0:
        raise NumericError(f"routing temperature must be positive, got {tau}")
    if n_iter < 1:
        raise NumericError(f"routing needs at least one iteration, got {n_iter}")
    (h_u0, off_u), (h_i0, off_i) = (
        (stack, t) if isinstance(t, TimeOffsets) else (_with_time(stack, t), None)
        for stack, t in ((x_stack, time_u), (g_stack, time_i)))
    # columns (u, i) carry items to users, columns (i, u) users to items
    users, items = ctx.user_ids, ctx.item_ids
    reach_u, reach_i = reach if reach is not None else (None, None)
    h_u_t, bad_u = _route_side(h_i0, items, users, ctx.into_users, None, tau, n_iter,
                               reach_u, off_i)
    h_i_t, bad_i = _route_side(h_u0, users, items, ctx.into_items, ctx.item_from_user,
                               tau, n_iter, reach_i, off_u)
    bad = [(b[0], side, b[1]) for side, b in enumerate((bad_u, bad_i)) if b]
    if bad:  # the earlier iteration, the user side first
        t, side, node = min(bad)
        raise NumericError(f"non-finite routing state at iteration {t} "
                           f"({('user', 'item')[side]} node {node})")
    return h_u_t, h_i_t


def route_behavior_layer(ctx: BehaviorContext, x_stack: ad.Tensor, g_stack: ad.Tensor,
                         time_u, time_i, tau: float, n_iter: int, aggregator: str,
                         agg_weights: dict | None = None, slope: float = 0.2,
                         reach: tuple | None = None, into: tuple | None = None):
    """Allocate one behavior's edges across interests and aggregate once.

    Returns (h_user, h_item): stacks of shape (M, S, d*) / (N, S, d*) after
    the final aggregation pass; nodes without edges come out zero. The time
    offsets are Tensors, `TimeOffsets` or None (`_route`). With `reach`
    (`_route`), unreached rows route as zeros; with `into`, the (user,
    item) sums of `into_rows`, only their rows are aggregated, and the
    others' neighbor sums are +0.0 (`_aggregate`). Right are the rows of
    `into` whose aggregation reads reached rows alone.
    """
    h_u_t, h_i_t = _route(ctx, x_stack, g_stack, time_u, time_i, tau, n_iter, reach)
    return _aggregate(ctx, h_u_t, h_i_t, aggregator, agg_weights, slope, into)


def plain_aggregation_layer(ctx: BehaviorContext, x_stack: ad.Tensor,
                            g_stack: ad.Tensor, time_u: ad.Tensor | None,
                            time_i: ad.Tensor | None, aggregator: str,
                            agg_weights: dict | None = None, slope: float = 0.2,
                            into: tuple | None = None):
    """Routing replacement for the no-routing ablation: one configured
    aggregator pass over the bipartite graph on (state + time offset), on
    the rows of `into` alone (`_aggregate`). The aggregator reads its input
    at full height, so the time offsets here are whole Tensors, added to
    every row."""
    return _aggregate(ctx, _with_time(x_stack, time_u), _with_time(g_stack, time_i),
                      aggregator, agg_weights, slope, into)


def _with_time(stack: ad.Tensor, offset: ad.Tensor | None) -> ad.Tensor:
    return stack if offset is None else stack + offset


def _rows_of(adj: sp.csr_matrix, rows: np.ndarray) -> sp.csr_matrix:
    """`adj` with only the entries of its rows `rows` (ascending), read from
    their ranges (`_ranges`) and kept in order: O(entries + rows + height)."""
    starts = adj.indptr[rows]
    counts = np.zeros(adj.shape[0] + 1, dtype=adj.indptr.dtype)
    counts[rows + 1] = adj.indptr[rows + 1] - starts
    positions = _ranges(starts, counts[rows + 1])
    return sp.csr_matrix((adj.data[positions], adj.indices[positions],
                          np.cumsum(counts, dtype=counts.dtype)), adj.shape)


def into_rows(ctx: BehaviorContext, rows: tuple = EVERY_ROW) -> tuple:
    """The sums into the (user, item) node rows `rows` (ascending, each a
    slice or an index array): (user x item, item x user) matrices of the
    normalized adjacency's entries into those rows. Every row's are the
    adjacency and its transpose's view; a subset's come from the ranges of
    the adjacency and of its item-major copy. A product with either gives
    those rows each from the same terms in the same order as the whole
    adjacency, and +0.0 rows elsewhere."""
    users, items = rows
    adj = ctx.user_from_item
    return (adj if isinstance(users, slice) else _rows_of(adj, users),
            adj.T if isinstance(items, slice) else _rows_of(ctx.item_from_user, items))


def _aggregate(ctx: BehaviorContext, h_u: ad.Tensor, h_i: ad.Tensor, aggregator: str,
               agg_weights: dict | None, slope: float, into: tuple | None = None):
    """One aggregator pass over the bipartite graph on (M, S, d*) user and
    (N, S, d*) item stacks, each side from the other's rows, through the
    (user, item) sums `into` (`into_rows`; None: every row's). The products
    compute those sums' rows alone: the other rows' neighbor sums come out
    +0.0 and pass no gradient back, so only those rows are right. The
    aggregator acts on rows of full height, where its dense products give
    those rows the bytes of the whole pass."""
    M, S, d_star = h_u.shape
    N = h_i.shape[0]
    flat_u = h_u.reshape(M, S * d_star)
    flat_i = h_i.reshape(N, S * d_star)
    into_users, into_items = into_rows(ctx) if into is None else into
    agg_u = ad.spmm(into_users, flat_i)
    agg_i = ad.spmm(into_items, flat_u)
    out_u = apply_aggregator(aggregator, agg_u, flat_u, agg_weights, slope)
    out_i = apply_aggregator(aggregator, agg_i, flat_i, agg_weights, slope)
    return out_u.reshape(M, S, d_star), out_i.reshape(N, S, d_star)


def _project(xh: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Each head's chunks times its transposed weights, (N, H, c) from the
    head-major (H, ..., c) chunks (of any layout; N counts the rows of the
    middle axes in C order): `out[n, h, j]` adds `xh[h, n, k]·w[h, j, k]`
    for k = 0, 1, ... left to right, one rounded numpy elementwise multiply
    or add at a time (no BLAS, no fused multiply-add), so a row's bytes
    depend on that row and its head's weights alone, not on the CPU kernel."""
    H, c = xh.shape[0], xh.shape[-1]
    cols = np.ascontiguousarray(np.moveaxis(xh, -1, 1)).reshape(H, c, -1)  # (H, c, N)
    out = w[:, :, :1] * cols[:, None, 0]
    for k in range(1, w.shape[2]):
        out += w[:, :, k:k + 1] * cols[:, None, k]
    return np.ascontiguousarray(out.transpose(2, 0, 1))


def _head_major(chunks: np.ndarray, rows, height: int) -> np.ndarray:
    """The head-major (H, K, B, S, c) `chunks` of the node rows `rows` as a
    contiguous (H, K·height·S, c) array of every node row, the others +0.0:
    the layout of the weight gradients' products over every row."""
    H, c = chunks.shape[0], chunks.shape[-1]
    return np.ascontiguousarray(_full_height(chunks, rows, height, axis=2).reshape(H, -1, c))


def correlate_shared(stacks: list, q_proj: ad.Tensor, k_proj: ad.Tensor,
                     v_proj: ad.Tensor, heads: int, n_specific: int = 0,
                     rows=slice(None)):
    """Per-node, per-shared-interest multi-head attention across behaviors.

    stacks: K tensors of shape (V, S, d*), each behavior's `n_specific`
    specific interests first and its shared ones after. Only the shared
    block [:, n_specific:] is attended over; the specific block passes
    through unchanged, forward and backward. Each shared d*-wide vector is
    chunked into `heads` pieces; per head, scores between behaviors k and k'
    are scaled dot products of projected chunks, softmax-normalized over k'.
    The residual adds the sum of ALL behaviors' shared blocks. Returns
    (list of K (V, S, d*) output tensors, attention weights of shape
    (K, K, B, S - n_specific, H)) for the B node rows `rows`.

    A node row attends within itself, so the attention stacks, projects
    and mixes the rows `rows` alone (ascending, a slice or an index array:
    the rows that are read); the outputs' other rows are +0.0, and so are
    the stacks' gradients there (`_full_height`). Each projection's weight
    gradient is still one product over every row's head-major chunks, the
    others +0.0 (`_head_major`), so its bytes are those of the whole call.

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
    x = np.stack([t.data[rows] for t in stacks])  # (K, B, S_all, d*)
    B = x.shape[1]
    residual = x[:, :, n_specific:].sum(axis=0, keepdims=True)
    # (H, K, B, S, c)
    xh = np.ascontiguousarray(
        x[:, :, n_specific:].reshape(K, B, S, H, c).transpose(3, 0, 1, 2, 4))
    w = [p.data.astype(xh.dtype, copy=False) for p in projs]
    qx, kx, vx = (_project(xh, wp).reshape(K, B, S, H, c) for wp in w)
    # the backward's inputs; every other temporary is dropped once consumed
    saved = (xh, qx, kx, vx) if any(t.requires_grad for t in parents) else None
    scale = xh.dtype.type(1 / np.sqrt(c))
    del xh
    lam = ad.sum_last(qx.reshape(K, 1, B, S, H, c) * kx.reshape(1, K, B, S, H, c))[..., 0]
    del qx, kx
    lam *= scale
    # softmax over k', in place
    lam -= lam.max(axis=1, keepdims=True)
    np.exp(lam, out=lam)
    lam /= lam.sum(axis=1, keepdims=True)
    out = (lam.reshape(K, K, B, S, H, 1) * vx.reshape(1, K, B, S, H, c)).sum(axis=1)
    del vx
    out = out.reshape(K, B, S, d_star)
    out += residual
    del residual
    out = np.concatenate([x[:, :, :n_specific], out], axis=2)
    del x
    node = ad.Tensor(_full_height(out, rows, V, axis=1), saved is not None, parents)
    if saved is None:
        return ad.unstack(node), ad.Tensor(lam)

    def backward(g_all):
        xh, qx, kx, vx = saved
        g = np.ascontiguousarray(g_all[:, rows, n_specific:]).reshape(K, 1, B, S, H, c)
        d_lam = ad.sum_last(g * vx.reshape(1, K, B, S, H, c))[..., 0]
        d_v = (lam.reshape(K, K, B, S, H, 1) * g).sum(axis=0)
        d_lam -= (d_lam * lam).sum(axis=1, keepdims=True)
        d_lam *= lam
        d_lam *= scale
        d_lam = d_lam.reshape(K, K, B, S, H, 1)
        d_q = (d_lam * kx.reshape(1, K, B, S, H, c)).sum(axis=1)
        d_k = (d_lam * qx.reshape(K, 1, B, S, H, c)).sum(axis=0)
        del d_lam
        xh = _head_major(xh, rows, V)
        d_x = None
        for p, wp, d in zip(projs, w, (d_q, d_k, d_v)):
            d = d.transpose(3, 0, 1, 2, 4)  # head-major
            if p.requires_grad:  # summed over every row inside one product
                p._accumulate(np.matmul(_head_major(d, rows, V).transpose(0, 2, 1), xh))
            d = _project(d, wp.transpose(0, 2, 1))
            d_x = d if d_x is None else d_x + d
        d_x = d_x.reshape(K, B, S, d_star)
        d_x += g.reshape(K, B, S, d_star).sum(axis=0)  # the residual
        d_x = np.concatenate([g_all[:, rows, :n_specific], d_x], axis=2)
        d_x = _full_height(d_x, rows, V, axis=1)
        for k, t in enumerate(stacks):
            if t.requires_grad:
                t._accumulate(d_x[k])
    node._backward = backward
    return ad.unstack(node), ad.Tensor(lam)
