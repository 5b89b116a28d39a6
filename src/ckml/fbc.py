"""Fine-grained behavioral correlation.

Every behavior edge is softly allocated across interests by iterative
dynamic routing (normalize per-edge coefficients, propagate weighted
means of the opposite side's initial states, update coefficients by
normalized-affinity agreement), then one aggregator pass runs over the
bipartite graph on the routed stacks, through the symmetric-degree
normalized adjacency D_u^-1/2 A D_i^-1/2 and its transpose. Shared
interest blocks are correlated across behaviors with per-interest
multi-head attention; specific blocks bypass correlation entirely. Each
pass adds the time offsets (`TimeOffsets`) to the rows it reads.

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
reach), and a backward only the forward's edges into rows of nonzero
gradient, each while those edges are under `LIVE_EDGE_CUT` of the side's.
Both read the rows' ranges in a destination-major pattern: the
adjacency's, or the item-major copy's with each entry's edge id, so their
time grows with those edges' count, not with the graph's. A graph without
edges takes the same path. The first iteration's equal logits give every
edge the weight 1/S, so it takes one product over all interests
(`uniform`).

The cross-behavior attention is likewise one tape node per side and
layer (`correlate_shared`), with a hand-derived backward. Its projections
add each row's products in one fixed order (`_project`), so a row's bytes
do not depend on the other rows or the CPU kernel. Asked for some
behaviors' outputs alone, as evaluation's last layer asks, it forms their
queries, weights and outputs alone, each with the bytes of the whole call.

A training step's losses read the last layer's stacks at the batch's rows
alone, so that layer works in batch coordinates. A `Rows` value says which
of a side's node rows an array holds: ascending ids, or every row. Routing
returns the `Rows` it routed and adds the time offsets to the source rows
it reads alone (`TimeOffsets`). Aggregation (`_aggregate`) gives the batch
`Rows` alone, through the sums of `into_rows` with their columns numbered
among the routed rows (`Rows.columns`), and attention (`correlate_shared`)
mixes those rows alone. Each row keeps its bytes: a sparse product adds a
row's terms in the same order, an aggregator with weights acts on rows of
full height, +0.0 where the batch rows or the routed rows do not reach
(`Rows.scatter`), and each attention weight gradient is one product over
every row, +0.0 outside the batch rows (`_head_major`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .cie import READS_SELF, apply_aggregator
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


@dataclass(frozen=True, eq=False)
class Rows:
    """Which of a side's `height` rows an array holds, in ascending order:
    the node ids `ids`, or every row where `ids` is None. Every row indexes
    by a slice, so taking every row is a view, and an array of every row is
    written to full height as itself."""

    height: int
    ids: np.ndarray | None = None

    @classmethod
    def marked(cls, mask: np.ndarray) -> Rows:
        return cls(len(mask), np.flatnonzero(mask))

    def __len__(self) -> int:
        return self.height if self.ids is None else len(self.ids)

    def _at(self, axis: int) -> tuple:
        return (slice(None),) * axis + (slice(None) if self.ids is None else self.ids,)

    def take(self, a, axis: int = 0):
        """These rows of `a`, which holds every row along `axis`."""
        return a[self._at(axis)]

    def full(self, values: np.ndarray, axis: int = 0) -> np.ndarray:
        """`values`, these rows along `axis`, at full height with +0.0 in
        the other rows: `values` itself when it holds every row."""
        if values.shape[axis] == self.height:
            return values
        out = np.zeros(values.shape[:axis] + (self.height,) + values.shape[axis + 1:],
                       dtype=values.dtype)
        out[self._at(axis)] = values
        return out

    def positions(self, ids: np.ndarray) -> np.ndarray:
        """Where the node ids `ids`, each among these rows, are held."""
        return ids if self.ids is None else np.searchsorted(self.ids, ids)

    def at(self, sub: Rows) -> Rows:
        """The rows that `sub`, rows of these rows by position, picks."""
        if sub.ids is None:
            return self
        return Rows(self.height, sub.ids if self.ids is None else self.ids[sub.ids])

    def columns(self, m: sp.csr_matrix) -> sp.csr_matrix:
        """The CSR matrix `m`, whose columns are this side's node rows, with
        its columns renumbered to these rows, which hold every column with
        an entry: `m` itself for every row."""
        if self.ids is None:
            return m
        return sp.csr_matrix((m.data, self.positions(m.indices), m.indptr),
                             (m.shape[0], len(self)))

    def gather(self, x: ad.Tensor) -> ad.Tensor:
        """These rows of the stack `x` of every row (`take`), one tape node
        whose backward puts the gradient in their place (`full`)."""
        return x if self.ids is None else _linear(x, self.take, self.full)

    def scatter(self, x: ad.Tensor) -> ad.Tensor:
        """The stack `x` of these rows at full height (`full`), one tape node
        whose backward takes these rows of the gradient (`take`)."""
        return x if len(self) == self.height else _linear(x, self.full, self.take)


def _linear(x: ad.Tensor, f, adjoint) -> ad.Tensor:
    """`f(x)` for a linear `f`, one tape node whose backward is `adjoint`."""
    out = ad.Tensor(f(x.data), x.requires_grad, (x,))
    if x.requires_grad:
        out._backward = lambda g: x._accumulate(adjoint(g))
    return out


@dataclass
class BehaviorContext:
    """Constant per-behavior structures reused across layers and steps."""

    graph: object
    dtype: np.dtype = np.dtype(np.float64)  # of the normalized adjacency
    user_from_item: sp.csr_matrix = field(init=False)  # normalized, user x item
    item_from_user: sp.csr_matrix = field(init=False)  # its item-major copy, users ascending
    user_ids: np.ndarray = field(init=False)  # each edge's user, intp
    item_ids: np.ndarray = field(init=False)  # each edge's item, intp
    # routing's sums, on the normalized adjacency's index arrays
    into_users: _EdgeWeights = field(init=False)  # from item rows
    into_items: _EdgeWeights = field(init=False)  # from user rows

    def __post_init__(self):
        g = self.graph
        self.user_ids = g.edges[:, 0].astype(np.intp)
        self.item_ids = g.edges[:, 1].astype(np.intp)
        adj = self.user_from_item = normalized_adjacency(
            self.user_ids, self.item_ids, (g.num_users, g.num_items), self.dtype)
        # the transposition carries each entry's edge id, of the index dtype,
        # to its item-major place
        edges = np.arange(adj.nnz, dtype=adj.indices.dtype)
        order = sp.csr_matrix((edges, adj.indices, adj.indptr), adj.shape).T.tocsr()
        self.item_from_user = sp.csr_matrix((adj.data[order.data], order.indices, order.indptr),
                                            order.shape)
        self.into_users = _EdgeWeights.of_pattern(adj.indices, adj.indptr, adj.shape)
        self.into_items = _EdgeWeights(self.into_users.matrix.T, self.into_users.buffers,
                                       self.item_from_user, order.data)

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
    dtype, made at the first product in that dtype and shared with `T`.
    `pattern` is a destination-major CSR pattern that lists each
    destination node's edges in its row range, its entry k being edge
    `edge_ids[k]`: where not given, a CSR matrix's own, entry e being edge
    e (`edge_ids` None). The view into items is given the item-major
    copy's."""

    def __init__(self, matrix, buffers: dict | None = None, pattern: sp.csr_matrix | None = None,
                 edge_ids: np.ndarray | None = None):
        self.matrix = matrix
        self.buffers = {} if buffers is None else buffers  # dtype -> values
        self.pattern = matrix if pattern is None else pattern
        self.edge_ids = edge_ids

    @classmethod
    def of_pattern(cls, indices: np.ndarray, indptr: np.ndarray, shape: tuple) -> _EdgeWeights:
        """Into users, on a CSR pattern; a read-only zero stands in for the
        values until a product gives them a dtype."""
        return cls(sp.csr_matrix((np.broadcast_to(0.0, len(indices)), indices, indptr), shape))

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
              marked: Rows | None):
    """A side's edges into the destination `Rows` `marked`, on the
    destination and source rows they touch, both renumbered in ascending
    order: (the edges' ids, the destination rows and the source rows, as
    `Rows`, then each edge's renumbered destination and source, and the
    sums into destination rows). The marked rows' entries are read from
    their ranges (`_ranges`) in the side's destination-major CSR pattern
    (`to_dst.pattern`), so the edges are sorted by (destination, source) and
    the sums are built in that order; `to_dst.edge_ids` gives their ids,
    which need not ascend. That while those edges are under
    `LIVE_EDGE_CUT` of the side's, and not one alone (numpy sums a lone
    edge's d* >= 9 terms pairwise, many edges' row by row); otherwise, or
    with `marked` None, the whole side as given, with None for every
    edge."""
    n_dst, n_src = to_dst.matrix.shape
    E = len(dst_ids)
    if marked is not None:
        starts = to_dst.pattern.indptr[marked.ids]
        counts = to_dst.pattern.indptr[marked.ids + 1] - starts
        n = int(counts.sum())
    if marked is None or n == 1 or n >= LIVE_EDGE_CUT * E:
        return None, Rows(n_dst), Rows(n_src), dst_ids, src_ids, to_dst
    entries = _ranges(starts, counts)
    edges = entries if to_dst.edge_ids is None else to_dst.edge_ids[entries]
    # row by row: the rows with entries renumber in order
    rows, counts = marked.ids[counts > 0], counts[counts > 0]
    dst_c = np.repeat(np.arange(len(rows)), counts)
    srcs, src_c = _renumbered(to_dst.pattern.indices[entries], n_src)
    to_dst_c = _EdgeWeights.of_counts(counts, src_c, (len(rows), len(srcs)))
    return edges, Rows(n_dst, rows), Rows(n_src, srcs), dst_c, src_c, to_dst_c


@dataclass
class TimeOffsets:
    """A side's time offsets, added to the node rows that routing or the
    plain aggregation reads: row r's is its bucket's table row, times
    `mask` if given, with `ids` the nodes' bucket ids, `table` the
    (buckets, S, d*) Tensor and `mask` a (1, S, 1) array that zeroes an
    unused block. Each row has the bytes of its row of the product with the
    (nodes, buckets) one-hot matrix, 0 + 1·t, and the gradient of some rows
    is the product with their one-hot rows' transpose (`buckets_of`)."""

    ids: np.ndarray
    table: ad.Tensor
    mask: np.ndarray | None = None

    def buckets_of(self, rows: Rows) -> sp.csc_matrix:
        """The transpose of the one-hot matrix's `Rows` `rows`, (buckets,
        len(rows)), built as CSC from their bucket ids: O(len(rows)). Its
        entries are float32 ones, so a float32 gradient stays float32."""
        ids = rows.take(self.ids)
        return sp.csc_matrix((np.ones(len(ids), dtype=np.float32), ids,
                              np.arange(len(ids) + 1)), (self.table.shape[0], len(ids)))

    def at(self, rows: Rows) -> np.ndarray:
        """The offsets of the `Rows` `rows`, (len(rows), S, d*): their
        buckets' table rows, gathered, plus +0.0 in place, which turns a
        -0.0 into +0.0 as the product's sum from zero does."""
        out = self.table.data[rows.take(self.ids)]
        out += 0.0
        return out if self.mask is None else out * self.mask

    def backward(self, d: np.ndarray, rows: Rows):
        """Adds the gradient of the offsets of `rows`, `d`, to the table's.
        The other rows' would add +-0 to each sum from +0: left out, they
        leave its bytes as they are."""
        if not self.table.requires_grad:
            return
        if self.mask is not None:
            d = d * self.mask
        table = self.table
        g = self.buckets_of(rows) @ d.reshape(len(d), math.prod(table.shape[1:]))
        table._accumulate(g.astype(table.dtype, copy=False).reshape(table.shape))

    def added_to(self, stack: ad.Tensor) -> ad.Tensor:
        """`stack` plus every row's offsets, one tape node: `at` and
        `backward` at every row."""
        every = Rows(len(self.ids))
        out = ad.Tensor(stack.data + self.at(every),
                        stack.requires_grad or self.table.requires_grad, (stack, self.table))
        if out.requires_grad:
            def backward(g):
                if stack.requires_grad:
                    stack._accumulate(g)
                self.backward(g, every)
            out._backward = backward
        return out


def _route_side(src: ad.Tensor, src_ids: np.ndarray, dst_ids: np.ndarray,
                to_dst: _EdgeWeights, tau: float, n_iter: int, reach: Rows | None = None,
                offsets: TimeOffsets | None = None):
    """Steps 1-4 for one side: each destination node's interest rows become
    the coefficient-weighted means of its edges' source rows, iterated.

    src: (source nodes, S, d*); `src_ids` and `dst_ids` hold each edge's
    source and destination node; `to_dst` sums over the edges into
    destination nodes, and its transpose into source nodes. `reach`,
    destination `Rows`, names the rows that are read: the forward routes
    the edges into those rows as `_narrowed` gives them, and the backward
    those of its edges into rows of nonzero gradient, each read from the
    row ranges of `to_dst`'s destination-major pattern. With `offsets`,
    the forward adds the time offsets of the source rows it reads to them,
    and the backward hands their gradient to the offsets' table. Per-edge
    arrays are edge-minor, (S, d*, E) and (S, E), so every per-edge
    reduction runs one long inner loop; the forward's are of `src`'s dtype.
    Returns the last iteration's (routed rows, S, d*) Tensor of that dtype,
    whose parents are `src` and the offsets' table, the destination `Rows`
    it holds and None, or, at the first iteration whose state is not
    finite, None, None and (that iteration, the first destination node
    whose row is not finite). Each iteration hands its coefficients to
    `to_dst` once: the first its one weight to `uniform`, the others (S, E)
    arrays to `apply`.
    """
    _, rows, srcs, dst_ids, src_ids, to_dst = _narrowed(dst_ids, src_ids, to_dst, reach)
    x = srcs.take(src.data)
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
            bad = rows.at(Rows.marked(~np.isfinite(h).all(axis=(1, 2))))
            return None, None, (t, int(bad.ids[0]))
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
    out = ad.Tensor(h, requires_grad, parents)
    if saved is None:
        return out, rows, None

    def backward(g):
        # Edges into rows of zero gradient add exactly +-0 to every sum (states
        # are finite), which leaves a sum from +0 bitwise as it is, so the
        # backward works on the forward's edges into rows of nonzero gradient
        # as `_narrowed` gives them: each row keeps its edges in ascending
        # edge order, and every node-level operation acts per row (where two
        # NaNs meet, numpy's vector loops keep either sign, by position).
        edges, live_rows, live_srcs, dst_c, src_c, to_dst_c = _narrowed(
            dst_ids, src_ids, to_dst, Rows.marked(np.any(g != 0, axis=(1, 2))))
        to_src_c = to_dst_c.T
        x_c, unit_x_c, x_norm_c, x_live_c = map(live_srcs.take, (x, unit_x, x_norm, x_live))
        # in float64 whatever the forward's dtype, rounded once where it
        # reaches `src`: in float32 the iterations' roundoff would add up
        d_x = np.zeros(x_c.shape)
        d_unit_x = np.zeros(x_c.shape)
        src_e = _edge_rows(x_c, src_c) if n_iter > 1 else None
        d_logits = np.zeros((S, len(dst_c)))
        dh = live_rows.take(g).astype(np.float64, copy=False)
        for t in range(n_iter, 0, -1):
            c, num, den, step = saved[t - 1]
            num, den = live_rows.take(num), live_rows.take(den)
            if step is not None:  # dh reaches h_t through the logit update
                unit_h, h_norm, h_live, th = (live_rows.take(a) for a in step)
                d_unit_x += to_src_c.apply(d_logits, th)
                d_th = to_dst_c.apply(d_logits, unit_x_c)
                dh = ad.unit_rows_backward(unit_h, h_norm, h_live, d_th * (1.0 - th * th))
            d_num = dh / den
            if t == 1:  # the first iteration's logits are constants
                d_x += to_src_c.uniform(c[0, 0], d_num)
                break
            c = c if edges is None else c[:, edges]
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
        d_x += ad.unit_rows_backward(unit_x_c, x_norm_c, x_live_c, d_unit_x)
        d_x = d_x.astype(x.dtype, copy=False)
        read = srcs.at(live_srcs)  # the source rows d_x holds
        if src.requires_grad:  # untouched source rows get +0.0
            src._accumulate(read.full(d_x))
        if offsets is not None:
            offsets.backward(d_x, read)
    out._backward = backward
    return out, rows, None


def _route(ctx: BehaviorContext, x_stack: ad.Tensor, g_stack: ad.Tensor,
           time_u, time_i, tau: float, n_iter: int, reach: tuple | None = None):
    """Steps 1-4 on both sides: iterate coefficient normalization,
    weighted-mean propagation of the opposite side's initial states, and
    affinity updates. Each side's initial states are its stack plus its
    time offsets, `TimeOffsets` or None, which routing adds to the source
    rows it reads alone (`_route_side`). `reach`, if given, is the (user,
    item) `Rows` that are read. Returns the last iteration's user and item
    stacks, before aggregation, and the (user, item) `Rows` they hold
    (`_route_side`): (M, S, d*) and (N, S, d*) stacks of every row without
    `reach`."""
    if tau <= 0:
        raise NumericError(f"routing temperature must be positive, got {tau}")
    if n_iter < 1:
        raise NumericError(f"routing needs at least one iteration, got {n_iter}")
    # columns (u, i) carry items to users, columns (i, u) users to items
    users, items = ctx.user_ids, ctx.item_ids
    reach_u, reach_i = reach if reach is not None else (None, None)
    h_u_t, rows_u, bad_u = _route_side(g_stack, items, users, ctx.into_users, tau, n_iter,
                                       reach_u, time_i)
    h_i_t, rows_i, bad_i = _route_side(x_stack, users, items, ctx.into_items, tau, n_iter,
                                       reach_i, time_u)
    bad = [(b[0], side, b[1]) for side, b in enumerate((bad_u, bad_i)) if b]
    if bad:  # the earlier iteration, the user side first
        t, side, node = min(bad)
        raise NumericError(f"non-finite routing state at iteration {t} "
                           f"({('user', 'item')[side]} node {node})")
    return h_u_t, h_i_t, (rows_u, rows_i)


def route_behavior_layer(ctx: BehaviorContext, x_stack: ad.Tensor, g_stack: ad.Tensor,
                         time_u, time_i, tau: float, n_iter: int, aggregator: str,
                         agg_weights: dict | None = None, slope: float = 0.2,
                         reach: tuple | None = None, rows: tuple | None = None,
                         sums: tuple | None = None):
    """Allocate one behavior's edges across interests and aggregate once.

    Returns (h_user, h_item): stacks of shape (M, S, d*) / (N, S, d*) after
    the final aggregation pass; nodes without edges come out zero. With
    `reach` (`_route`), routing computes the reached rows alone; the stacks
    hold the (user, item) `Rows` `rows` alone (`_aggregate`, through
    `sums`), which are right where their aggregation reads reached rows
    alone.
    """
    h_u_t, h_i_t, routed = _route(ctx, x_stack, g_stack, time_u, time_i, tau, n_iter, reach)
    return _aggregate(ctx, h_u_t, h_i_t, aggregator, agg_weights, slope, rows, routed, sums)


def plain_aggregation_layer(ctx: BehaviorContext, x_stack: ad.Tensor,
                            g_stack: ad.Tensor, time_u: TimeOffsets | None,
                            time_i: TimeOffsets | None, aggregator: str,
                            agg_weights: dict | None = None, slope: float = 0.2,
                            rows: tuple | None = None, sums: tuple | None = None):
    """Routing replacement for the no-routing ablation: one configured
    aggregator pass over the bipartite graph on (state + time offset), into
    the (user, item) `Rows` `rows` alone (`_aggregate`). The aggregation
    reads its input at every row, so every row's offsets are added
    (`TimeOffsets.added_to`)."""
    x_stack, g_stack = (stack if t is None else t.added_to(stack)
                        for stack, t in ((x_stack, time_u), (g_stack, time_i)))
    return _aggregate(ctx, x_stack, g_stack, aggregator, agg_weights, slope, rows, None, sums)


def into_rows(ctx: BehaviorContext, rows: tuple) -> tuple:
    """The sums into the (user, item) `Rows` `rows`: (user rows x items,
    item rows x users) matrices of the normalized adjacency's entries into
    those rows, one matrix row per row. Every row's are the adjacency and
    its transpose's view; a subset's are the rows of the adjacency and of
    its item-major copy, each read from its range, whose column indices are
    the rows the sums read. A product with either, its columns renumbered to
    rows that hold them (`Rows.columns`), gives each of those rows from the
    same terms in the same order as the whole adjacency."""
    users, items = rows
    adj = ctx.user_from_item
    return (adj if users.ids is None else adj[users.ids],
            adj.T if items.ids is None else ctx.item_from_user[items.ids])


def _aggregate(ctx: BehaviorContext, h_u: ad.Tensor, h_i: ad.Tensor, aggregator: str,
               agg_weights: dict | None, slope: float, rows: tuple | None = None,
               routed: tuple | None = None, sums: tuple | None = None):
    """One aggregator pass over the bipartite graph on user and item stacks
    that hold the (user, item) `Rows` `routed`, each side from the other's
    rows, into the (user, item) `Rows` `rows` alone, through their `sums`
    (`into_rows`, unless given). Every row where not given. Returns (user,
    item) stacks of those rows. An aggregator with weights acts on rows of
    full height, +0.0 where the sums or the routed rows do not reach
    (`Rows.scatter`), so its dense products, and each row, have the bytes
    of the whole pass."""
    every = (Rows(ctx.graph.num_users), Rows(ctx.graph.num_items))
    rows, routed = rows or every, routed or every
    S, d_star = h_u.shape[1:]
    flats = [h.reshape(len(h.data), S * d_star) for h in (h_u, h_i)]
    outs = []
    for side, into in enumerate(into_rows(ctx, rows) if sums is None else sums):
        out = ad.spmm(routed[1 - side].columns(into), flats[1 - side])
        if agg_weights:
            x_self = routed[side].scatter(flats[side]) if aggregator in READS_SELF else None
            out = rows[side].gather(apply_aggregator(aggregator, rows[side].scatter(out),
                                                     x_self, agg_weights, slope))
        outs.append(out.reshape(len(out.data), S, d_star))
    return tuple(outs)


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


def _head_major(chunks: np.ndarray, rows: Rows) -> np.ndarray:
    """The head-major (H, K, B, S, c) `chunks` of the `Rows` `rows` as a
    contiguous (H, K·height·S, c) array of every node row, the others +0.0:
    the layout of the weight gradients' products over every row."""
    H, c = chunks.shape[0], chunks.shape[-1]
    return np.ascontiguousarray(rows.full(chunks, axis=2).reshape(H, -1, c))


def correlate_shared(stacks: list, q_proj: ad.Tensor, k_proj: ad.Tensor,
                     v_proj: ad.Tensor, heads: int, n_specific: int = 0,
                     rows: Rows | None = None, read=None):
    """Per-node, per-shared-interest multi-head attention across behaviors.

    stacks: K tensors of shape (B, S, d*), each behavior's `n_specific`
    specific interests first and its shared ones after. Only the shared
    block [:, n_specific:] is attended over; the specific block passes
    through unchanged, forward and backward. Each shared d*-wide vector is
    chunked into `heads` pieces; per head, scores between behaviors k and k'
    are scaled dot products of projected chunks, softmax-normalized over k'.
    The residual adds the sum of ALL behaviors' shared blocks. Returns
    (list of K (B, S, d*) output tensors, attention weights of shape
    (K, K, B, S - n_specific, H)).

    `read`, ascending behavior indices (None: every one), names the R
    behaviors whose queries, weights and outputs are formed: R outputs and
    (R, K, B, S - n_specific, H) weights, each with the bytes of the call
    on every behavior. Keys, values and the residual still cover every
    behavior. A backward needs every behavior read; a subset is refused
    where a parent needs a gradient.

    A node row attends within itself, so the stacks may hold the `Rows`
    `rows` alone (None: every row, of the stacks' height). Each
    projection's weight gradient is still one product over every node
    row's head-major chunks, the others +0.0 (`_head_major`), so its bytes
    are those of the call on every row.

    The attention is one tape node whose parents are the stacks and the
    three projections, with a hand-derived backward; the weights are cast
    to the stacks' dtype.
    """
    K = len(stacks)
    B, S_all, d_star = stacks[0].shape
    rows = Rows(B) if rows is None else rows
    if d_star % heads != 0:
        raise ValueError(f"head count {heads} must divide interest width {d_star}")
    H, c, S = heads, d_star // heads, S_all - n_specific
    projs = (q_proj, k_proj, v_proj)
    parents = (*stacks, *projs)
    # ascending, so as many as there are behaviors is every behavior
    queried = Rows(K, None if read is None or len(read) == K else np.asarray(read, np.intp))
    R = len(queried)
    requires_grad = any(t.requires_grad for t in parents)
    if requires_grad and queried.ids is not None:
        raise ValueError("attention's backward needs every behavior read")
    x = np.stack([t.data for t in stacks])  # (K, B, S_all, d*)
    residual = x[:, :, n_specific:].sum(axis=0, keepdims=True)
    # (H, K, B, S, c)
    xh = np.ascontiguousarray(
        x[:, :, n_specific:].reshape(K, B, S, H, c).transpose(3, 0, 1, 2, 4))
    w = [p.data.astype(xh.dtype, copy=False) for p in projs]
    qx = _project(queried.take(xh, axis=1), w[0]).reshape(R, B, S, H, c)
    kx, vx = (_project(xh, wp).reshape(K, B, S, H, c) for wp in w[1:])
    # the backward's inputs; every other temporary is dropped once consumed
    saved = (xh, qx, kx, vx) if requires_grad else None
    scale = xh.dtype.type(1 / np.sqrt(c))
    del xh
    lam = ad.sum_last(qx.reshape(R, 1, B, S, H, c) * kx.reshape(1, K, B, S, H, c))[..., 0]
    del qx, kx
    lam *= scale
    # softmax over k', in place
    lam -= lam.max(axis=1, keepdims=True)
    np.exp(lam, out=lam)
    lam /= lam.sum(axis=1, keepdims=True)
    out = (lam.reshape(R, K, B, S, H, 1) * vx.reshape(1, K, B, S, H, c)).sum(axis=1)
    del vx
    out = out.reshape(R, B, S, d_star)
    out += residual
    del residual
    out = np.concatenate([queried.take(x[:, :, :n_specific]), out], axis=2)
    del x
    node = ad.Tensor(out, requires_grad, parents)
    if saved is None:
        return ad.unstack(node), ad.Tensor(lam)

    def backward(g_all):
        xh, qx, kx, vx = saved
        g = np.ascontiguousarray(g_all[:, :, n_specific:]).reshape(K, 1, B, S, H, c)
        d_lam = ad.sum_last(g * vx.reshape(1, K, B, S, H, c))[..., 0]
        d_v = (lam.reshape(K, K, B, S, H, 1) * g).sum(axis=0)
        d_lam -= (d_lam * lam).sum(axis=1, keepdims=True)
        d_lam *= lam
        d_lam *= scale
        d_lam = d_lam.reshape(K, K, B, S, H, 1)
        d_q = (d_lam * kx.reshape(1, K, B, S, H, c)).sum(axis=1)
        d_k = (d_lam * qx.reshape(K, 1, B, S, H, c)).sum(axis=0)
        del d_lam
        xh = _head_major(xh, rows)
        d_x = None
        for p, wp, d in zip(projs, w, (d_q, d_k, d_v)):
            d = d.transpose(3, 0, 1, 2, 4)  # head-major
            if p.requires_grad:  # summed over every row inside one product
                p._accumulate(np.matmul(_head_major(d, rows).transpose(0, 2, 1), xh))
            d = _project(d, wp.transpose(0, 2, 1))
            d_x = d if d_x is None else d_x + d
        d_x = d_x.reshape(K, B, S, d_star)
        d_x += g.reshape(K, B, S, d_star).sum(axis=0)  # the residual
        d_x = np.concatenate([g_all[:, :, :n_specific], d_x], axis=2)
        for k, t in enumerate(stacks):
            if t.requires_grad:
                t._accumulate(d_x[k])
    node._backward = backward
    return ad.unstack(node), ad.Tensor(lam)
