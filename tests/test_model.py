"""Whole-forward contracts: gradients across every configuration path,
layer bookkeeping, and ablation wiring."""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckml import autodiff as ad
from ckml import fbc, model
from ckml.config import HyperConfig
from ckml.dataio import (Dataset, build_behavior_graphs, build_relation_graphs,
                         time_buckets)
from ckml.model import ModelContext, batch_loss, forward, last_layer_reach
from ckml.numerics import finite_difference_gradcheck
from ckml.trainer import (epoch_ranking_triples, epoch_relation_triples,
                          init_params)

from conftest import tiny_dataset
from naive_autodiff import patched_accumulate, tape_nodes
from naive_routing import (offsets_shared_by_every_layer, recorded_coefficients,
                           recorded_last_layer_rows, recorded_restrictions, whole_last_layer)


def run_gradcheck(ds, hyper, seed=5, triples=None):
    """The gradient audit on an epoch's triples; `triples`, if given, keeps
    the first `triples[k]` of behavior k's ranking triples."""
    hyper.validate(ds.num_behaviors)
    ctx = ModelContext(ds, hyper)
    params = init_params(hyper, ds, seed=seed)
    rng = np.random.default_rng(seed)
    rank = [epoch_ranking_triples(g, rng) for g in ds.behavior_graphs]
    if triples is not None:
        rank = [tuple(column[:n] for column in batch) for batch, n in zip(rank, triples)]
    rel = [epoch_relation_triples(g, rng) for g in ds.relation_graphs]

    def loss_fn(tensors):
        total, _ = batch_loss(tensors, ctx, hyper, rank, rel)
        return total

    return finite_difference_gradcheck(loss_fn, params, epsilon=1e-5)


@pytest.fixture(scope="module")
def grad_ds():
    return tiny_dataset(num_users=5, num_items=8, num_behaviors=2,
                        relation_count=2, per_user=3, seed=13,
                        relation_pairs=10)


# reg_lambda sits high so detached parameters keep reg gradients well above
# the finite-difference noise floor (|grad| ~ 1e-8 would drown in rounding)
BASE = dict(embed_dim=8, specific_interests=1, shared_interests=1,
            attention_heads=2, time_buckets=2, beta=0.4, reg_lambda=1e-2,
            seed=5)


@pytest.mark.parametrize("overrides", [
    {"aggregator": "gccf"},
    {"aggregator": "gcn"},
    {"aggregator": "ngcf"},
    {"no_fbc": True},
    {"no_cie": True, "beta": 0.0},
    {"no_mi": True, "attention_heads": 2},
    {"shared_only": True},
    {"specific_only": True},
    {"time_embedding": False},
    {"interaction_layers": 2},
    {"relation_layers": 2},
    {"relation_layers": 0},
    {"specific_interests": 2, "shared_interests": 2, "tau": 0.4,
     "routing_iterations": 3},
], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
def test_gradients_exact_across_configurations(grad_ds, overrides):
    hyper = HyperConfig(**{**BASE, **overrides})
    report = run_gradcheck(grad_ds, hyper)
    assert report.overall < 1e-4, report.per_parameter


@pytest.mark.parametrize("overrides", [{}, {"specific_only": True}],
                         ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()) or "default")
def test_gradients_exact_on_a_sub_batch(overrides):
    # one triple of behavior 0 and two of behavior 1 reach under the cut of
    # some sides' edges, and some of those sides have fewer live edges still
    # (inactive hinges): the routing forward over the reach, and the
    # backward over the live edges of that forward and of a whole one, all
    # run under finite differences
    ds = tiny_dataset(num_users=10, num_items=16, num_behaviors=2, relation_count=2,
                      per_user=2, seed=15, relation_pairs=10)
    with recorded_restrictions() as calls, recorded_last_layer_rows() as rows:
        report = run_gradcheck(ds, HyperConfig(**{**BASE, **overrides}), triples=(1, 2))
    assert report.overall < 1e-4, report.per_parameter
    forwards = {n for kind, n, _ in calls if kind == "forward"}
    # a backward starts from the edges of a forward over the reach, or of all
    starts = {E in forwards for kind, n, E in calls if kind == "backward" and n > 1}
    assert forwards and starts == {True, False}
    # attention and aggregation computed the batch's <= 3 users and <= 6
    # items alone, of 10 and 16, in every audited loss
    assert rows["attention"] and set(rows["attention"]) <= {1, 2, 3, 4, 5, 6}
    assert rows["aggregation"] and {n for n, _ in rows["aggregation"]} <= {1, 2, 3, 4, 5, 6}
    # the time offsets were computed on routing's source rows, one bucket
    # each: fewer than either side's nodes where routing narrowed, and no
    # whole product over every row besides the routing forwards kept whole
    offsets = rows["time offsets"]
    assert offsets and all(n == entries for n, entries in offsets)
    assert min(n for n, _ in offsets) < 10 and {n for n, _ in offsets if n >= 10} <= {10, 16}


@pytest.mark.parametrize("overrides", [{}, {"aggregator": "ngcf", "interaction_layers": 2}],
                         ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()) or "default")
def test_gradients_exact_with_a_behavior_without_edges(overrides):
    # behavior 0 has no edges, so no ranking triples, and routes through the
    # same path as the others, to zero stacks
    ds = tiny_dataset(num_users=5, num_items=8, num_behaviors=3, relation_count=2,
                      per_user=3, seed=13, relation_pairs=10)
    ds.behavior_graphs[0].edges = np.zeros((0, 2), dtype=np.int64)
    ds.behavior_graphs[0].edge_ts = np.zeros(0, dtype=np.int64)
    report = run_gradcheck(ds, HyperConfig(**{**BASE, **overrides}))
    assert report.overall < 1e-4, report.per_parameter


def test_final_representation_excludes_layer_zero():
    # with NO edges every routed layer output is zero, so the final sum must
    # be zero even though the residual states stay at the layer-0 inputs
    ds = tiny_dataset(num_users=4, num_items=6, num_behaviors=2,
                      relation_count=1, per_user=2, seed=2, relation_pairs=4)
    for g in ds.behavior_graphs:
        g.edges = np.zeros((0, 2), dtype=np.int64)
        g.edge_ts = np.zeros(0, dtype=np.int64)
    hyper = HyperConfig(**{**BASE, "interaction_layers": 2})
    hyper.validate(2)
    ctx = ModelContext(ds, hyper)
    params = init_params(hyper, ds, seed=3)
    out = forward({k: ad.Tensor(v) for k, v in params.items()}, ctx, hyper)
    k = ds.target_behavior
    np.testing.assert_array_equal(out.user_final[k].data,
                                  np.zeros_like(out.user_final[k].data))
    np.testing.assert_array_equal(out.item_final[k].data,
                                  np.zeros_like(out.item_final[k].data))
    # the layer-0 inputs themselves are nonzero, proving the exclusion
    assert np.any(params["embed/user"])
    assert np.any(out.item_interest_stacks[k].data)


def test_forward_routes_every_side_behavior_layer_and_iteration(grad_ds):
    counts = []
    for ablation in ({}, {"no_fbc": True}, {"no_mi": True}):
        hyper = HyperConfig(**{**BASE, "interaction_layers": 2, "routing_iterations": 3,
                               **ablation})
        hyper.validate(2)
        ctx = ModelContext(grad_ds, hyper)
        params = init_params(hyper, grad_ds, seed=0)
        with recorded_coefficients() as coeffs:
            forward({k: ad.Tensor(v) for k, v in params.items()}, ctx, hyper)
        counts.append(len(coeffs))
    # sides x behaviors x layers x iterations; no routing without FBC
    assert counts == [2 * grad_ds.num_behaviors * 2 * 3, 0, 0]


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("overrides", [
    {}, {"shared_only": True}, {"specific_only": True}, {"time_embedding": False},
    {"no_fbc": True}, {"specific_interests": 2, "shared_interests": 0}],
    ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()) or "default")
def test_read_behaviors_keep_the_bytes_of_every_behavior_read(precision, layers, overrides):
    # a forward that reads some behaviors gives each of them the final
    # stacks of a forward that reads every behavior and adds every row's
    # time offsets by the one-hot product (`whole_last_layer`), and the
    # others none; the last layer's attention formed the weights of the
    # read behaviors alone, and every layer gathered the offsets with no
    # one-hot product. With no shared interests nothing crosses behaviors,
    # so every layer routed the read behaviors alone
    ds = tiny_dataset(num_users=30, num_items=40, num_behaviors=3, relation_count=2,
                      per_user=3, seed=17, relation_pairs=20)
    hyper = HyperConfig(**{**BASE, "precision": precision, "interaction_layers": layers,
                           **overrides})
    hyper.validate(3)
    ctx = ModelContext(ds, hyper)
    tensors = {k: ad.Tensor(v) for k, v in init_params(hyper, ds, seed=3).items()}
    with whole_last_layer():
        whole = model.forward(tensors, ctx, hyper)
    shared = hyper.interest_structure()[1] > 0
    attended = shared and not hyper.fbc_disabled
    correlate, route = fbc.correlate_shared, fbc.route_behavior_layer
    for read in ([0], [2], [0, 2], [1, 2], [0, 1, 2], None):
        weights, routes = [], []

        def attending(*args, **kwargs):
            outs, lam = correlate(*args, **kwargs)
            weights.append(lam.shape[:2])
            return outs, lam

        def routing(*args, **kwargs):
            routes.append(args[0])
            return route(*args, **kwargs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fbc, "correlate_shared", attending)
            mp.setattr(fbc, "route_behavior_layer", routing)
            with recorded_last_layer_rows() as rows:
                out = forward(tensors, ctx, hyper, read=read)
        assert rows["time offsets"] == []  # gathered, with no one-hot product
        reads = [0, 1, 2] if read is None else read
        if not hyper.fbc_disabled:
            assert routes == [ctx.behaviors[k] for _ in range(layers)
                              for k in (reads if not shared else range(3))]
        assert weights == ([(3, 3)] * 2 * (layers - 1) + [(len(reads), 3)] * 2
                           if attended else [])
        for k in range(3):
            for got, want in ((out.user_final[k], whole.user_final[k]),
                              (out.item_final[k], whole.item_final[k])):
                if k in reads:
                    assert got.dtype == want.dtype == hyper.dtype
                    assert got.data.tobytes() == want.data.tobytes(), (read, k)
                else:
                    assert got is None


def test_no_fbc_path_has_no_attention_parameters(grad_ds):
    hyper = HyperConfig(**{**BASE, "no_fbc": True})
    hyper.validate(2)
    params = init_params(hyper, grad_ds, seed=0)
    assert not any(k.startswith("attn/") for k in params)


@given(precision=st.sampled_from(["f32", "f64"]), buckets=st.integers(1, 4),
       layers=st.integers(1, 3), no_fbc=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_time_offsets_are_the_bucket_rows_and_add_at_their_gradient(
        grad_ds, precision, buckets, layers, no_fbc, seed):
    # every layer adds each side's offsets to the rows it reads, every row
    # here: routing's source rows, or under no_fbc the aggregation's input
    hyper = HyperConfig(**{**BASE, "precision": precision, "time_buckets": buckets,
                           "interaction_layers": layers, "no_fbc": no_fbc})
    hyper.validate(2)
    ctx = ModelContext(grad_ds, hyper)
    dtype = hyper.dtype
    rng = np.random.default_rng(seed)
    tensors = {k: ad.Tensor(v) for k, v in init_params(hyper, grad_ds, seed=0).items()}
    names = [f"time/{side}/k{k}" for k in range(2) for side in ("user", "item")]
    ids = dict(zip(names, (i for g in grad_ds.behavior_graphs
                           for i in time_buckets(g, buckets))))
    for name in names:
        shape = tensors[name].shape
        # wide exponents and exact zeros, all made +0.0: the one-hot product
        # gives +0.0 where the table holds -0.0
        table = (rng.normal(size=shape) * 10.0 ** rng.integers(-6, 7, size=shape)
                 * (rng.random(shape) > 0.2)).astype(dtype)
        table[table == 0] = 0.0
        tensors[name] = ad.Tensor(table, requires_grad=True)
    name_of = {id(tensors[name]): name for name in names}
    offsets = []
    at = fbc.TimeOffsets.at

    def spy(self, rows):
        out = at(self, rows)
        offsets.append((self, rows, out))
        return out
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fbc.TimeOffsets, "at", spy)
        forward(tensors, ctx, hyper)
    assert sorted(name_of[id(t.table)] for t, _, _ in offsets) == sorted(names * layers)
    wants = {name: None for name in names}
    for t, rows, out in offsets:
        name = name_of[id(t.table)]
        assert t.ids.dtype.kind == "i" and np.array_equal(t.ids, ids[name])
        want = t.table.data[rows.take(ids[name])]
        assert out.dtype == dtype and out.tobytes() == want.tobytes()
        w = rng.normal(size=out.shape).astype(dtype)
        t.backward(w, rows)
        add_at = np.zeros_like(want, shape=t.table.shape)
        np.add.at(add_at, rows.take(ids[name]), w)
        wants[name] = add_at if wants[name] is None else wants[name] + add_at
    for name in names:
        assert tensors[name].grad.dtype == dtype
        assert tensors[name].grad.tobytes() == wants[name].tobytes()


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("no_fbc", [False, True])
def test_contexts_hold_bucket_ids_and_a_step_trains_every_time_table(
        grad_ds, precision, layers, no_fbc):
    hyper = HyperConfig(**{**BASE, "precision": precision, "interaction_layers": layers,
                           "no_fbc": no_fbc})
    hyper.validate(2)
    ctx = ModelContext(grad_ds, hyper)
    # each behavior's (user, item) bucket ids, no one-hot matrix
    assert [len(pair) for pair in ctx.buckets] == [2, 2]
    for g, pair in zip(grad_ds.behavior_graphs, ctx.buckets):
        for ids, n in zip(pair, (g.num_users, g.num_items)):
            assert isinstance(ids, np.ndarray) and ids.dtype.kind == "i" and ids.shape == (n,)
    params = init_params(hyper, grad_ds, seed=0)
    tensors = {k: ad.Tensor(v, requires_grad=True) for k, v in params.items()}
    rank = [(np.arange(3), np.arange(3), np.arange(3, 6))] * 2
    rel = [(np.arange(3), np.arange(3, 6), np.arange(5, 8))] * 2
    total, _ = batch_loss(tensors, ctx, hyper, rank, rel)
    total.backward()
    assert all(np.any(tensors[f"time/{side}/k{k}"].grad)
               for side in ("user", "item") for k in range(2))


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("overrides", [
    {}, {"no_fbc": True}, {"aggregator": "gccf"}, {"shared_only": True, "aggregator": "ngcf"}],
    ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()) or "default")
def test_time_offsets_of_each_layer_change_the_time_gradients_alone(precision, layers,
                                                                    overrides):
    # each layer multiplies its own offsets' gradient into the time tables,
    # where offsets made once and shared by every layer took one product of
    # the layers' summed gradients (`offsets_shared_by_every_layer`): the
    # loss and every other gradient keep their bytes, and the time tables'
    # gradients differ by the summation order alone, not at all at one layer
    ds, hyper, rank, rel = reach_case(12, 14, [0.2, 0.3], 9, [2, 3], precision=precision,
                                      interaction_layers=layers, **overrides)
    ctx = ModelContext(ds, hyper)
    rng = np.random.default_rng(4)
    params = init_params(hyper, ds, seed=3)
    for name in params:
        if name.startswith("time/"):
            params[name] = (rng.normal(size=params[name].shape) * 0.3).astype(hyper.dtype)

    def step(offsets):
        tensors = {k: ad.Tensor(v, requires_grad=True) for k, v in params.items()}
        with offsets:
            total, _ = batch_loss(tensors, ctx, hyper, rank, rel)
        total.backward()
        return total.data.tobytes(), {k: t.grad for k, t in tensors.items()}

    loss, grads = step(nullcontext())
    want_loss, want_grads = step(offsets_shared_by_every_layer())
    assert loss == want_loss
    tol = {"f32": 1e-5, "f64": 1e-12}[precision]
    assert sum(name.startswith("time/") for name in grads) == 4
    for name, want in want_grads.items():
        got = grads[name]
        assert got.dtype == want.dtype == hyper.dtype, name
        if name.startswith("time/") and layers > 1:
            assert np.abs(got - want).max() <= tol * np.abs(want).max(), name
        else:
            assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("precision, dtype", [("f32", np.float32), ("f64", np.float64)])
def test_every_tape_value_and_gradient_has_the_precision_dtype(grad_ds, precision, dtype):
    # ngcf gives both aggregator weight groups (agg/cie and agg/fbc) weights
    hyper = HyperConfig(**{**BASE, "aggregator": "ngcf", "precision": precision})
    assert hyper.time_embedding
    hyper.validate(2)
    ctx = ModelContext(grad_ds, hyper)
    params = init_params(hyper, grad_ds, seed=0)
    assert any(k.startswith("agg/cie/") for k in params)
    assert any(k.startswith("agg/fbc/") for k in params)
    tensors = {k: ad.Tensor(v, requires_grad=True) for k, v in params.items()}
    rng = np.random.default_rng(5)
    rank = [epoch_ranking_triples(g, rng) for g in grad_ds.behavior_graphs]
    rel = [epoch_relation_triples(g, rng) for g in grad_ds.relation_graphs]
    total, _ = batch_loss(tensors, ctx, hyper, rank, rel)
    # the walk frees interior nodes' gradients, so they are read as stored
    nodes = tape_nodes(total)
    grad_dtypes = []
    accumulate = ad.Tensor._accumulate

    def watched(self, g):
        accumulate(self, g)
        grad_dtypes.append(self.grad.dtype)
    with patched_accumulate(watched):
        total.backward()
    assert len(nodes) > 100
    assert [n.dtype for n in nodes if n.dtype != dtype] == []
    assert len(grad_dtypes) > 100
    assert [g for g in grad_dtypes if g != dtype] == []
    assert all(tensors[k].grad is not None for k in params)
    assert [k for k in params if tensors[k].grad.dtype != dtype] == []


# ---------------------------------------------------- the forward over the reach

def reach_case(M, N, densities, seed, triples, aggregator="light", **overrides):
    """A dataset of M users and N items whose behavior k holds each pair with
    probability densities[k], a config on it and a batch of triples[k]
    triples of behavior k (None for 0 or a behavior without edges)."""
    rng = np.random.default_rng(seed)
    K = len(densities)
    records = [(u, i, k, int(rng.integers(1000))) for k, p in enumerate(densities)
               for u in range(M) for i in range(N) if rng.random() < p]
    anchors = rng.integers(N, size=6)
    rels = [(int(a), int((a + 1 + rng.integers(N - 1)) % N), 0) for a in anchors]
    graphs = build_behavior_graphs(records, M, N, K)
    ds = Dataset(M, N, K, 1, K - 1, graphs, build_relation_graphs(rels, N, 1), {},
                 None, seed)
    rank = []
    for g, n in zip(graphs, triples):
        pick = rng.integers(g.edge_count, size=n) if g.edge_count else []
        rank.append((g.edges[pick, 0], g.edges[pick, 1], rng.integers(N, size=n))
                    if len(pick) else None)
    rel = [epoch_relation_triples(g, rng) for g in ds.relation_graphs]
    hyper = HyperConfig(**{**BASE, "aggregator": aggregator, **overrides})
    hyper.validate(K)
    return ds, hyper, rank, rel


def loss_and_gradient_bytes(ds, hyper, rank, rel, cut, reached=True):
    """The bytes of `batch_loss` and of every leaf's gradient (None if it
    gets none) with `fbc.LIVE_EDGE_CUT` at `cut`; unless `reached`, with
    the whole last layer (`whole_last_layer`)."""
    tensors = {k: ad.Tensor(v, requires_grad=True)
               for k, v in init_params(hyper, ds, seed=3).items()}
    with pytest.MonkeyPatch.context() as mp, (nullcontext() if reached else whole_last_layer()):
        mp.setattr(fbc, "LIVE_EDGE_CUT", cut)
        total, _ = batch_loss(tensors, ModelContext(ds, hyper), hyper, rank, rel)
        total.backward()
    return total.data.tobytes(), {k: t.grad if t.grad is None else t.grad.tobytes()
                                  for k, t in tensors.items()}


ABLATIONS = [{}, {"no_mi": True}, {"shared_only": True}, {"specific_only": True},
             {"no_cie": True, "beta": 0.0}, {"time_embedding": False}, {"no_fbc": True},
             {"specific_interests": 2, "shared_interests": 0}]


@st.composite
def reach_cases(draw):
    """`reach_case` arguments: up to three behaviors, each with no edges or
    a sparse or dense share of the pairs (so nodes without edges are
    common), 0-3 triples each, any aggregator and ablation, either
    precision, 1-3 interaction layers and 1-3 routing iterations."""
    K = draw(st.integers(1, 3))
    return dict(M=draw(st.integers(2, 8)), N=draw(st.integers(2, 9)),
                densities=draw(st.lists(st.sampled_from([0.0, 0.15, 0.4]),
                                        min_size=K, max_size=K)),
                seed=draw(st.integers(0, 2**32 - 1)),
                triples=draw(st.lists(st.integers(0, 3), min_size=K, max_size=K)),
                aggregator=draw(st.sampled_from(["light", "gccf", "gcn", "ngcf"])),
                precision=draw(st.sampled_from(["f32", "f64"])),
                interaction_layers=draw(st.integers(1, 3)),
                routing_iterations=draw(st.integers(1, 3)),
                **draw(st.sampled_from(ABLATIONS)))


class TestReachedForward:
    """`batch_loss` with the last layer routing the reached rows alone and
    aggregating and attending the batch rows alone, against the whole last
    layer: the cut at 2.0 restricts every routing forward and backward that
    can be, at 0.0 none."""

    @given(reach_cases())
    @settings(max_examples=150, deadline=None)
    def test_loss_and_gradients_keep_their_bytes(self, case):
        ds, hyper, rank, rel = reach_case(**case)
        assert (loss_and_gradient_bytes(ds, hyper, rank, rel, 2.0)
                == loss_and_gradient_bytes(ds, hyper, rank, rel, 0.0, reached=False))

    @pytest.mark.parametrize("aggregator", ["light", "gccf", "gcn", "ngcf"])
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("layers", [1, 2])
    def test_a_behavior_that_reaches_no_edge(self, aggregator, precision, layers):
        # behavior 0 links users 0-1 to items 0-2, behavior 1 users 2-3 to
        # items 3-5; user 4 and item 6 have no edge; only behavior 1 has
        # triples, so behavior 0's reach holds no edge
        records = ([(u, i, 0, u + i) for u in (0, 1) for i in (0, 1, 2)]
                   + [(u, i, 1, u * i) for u in (2, 3) for i in (3, 4, 5)])
        ds, hyper, _, rel = reach_case(5, 7, [0.0, 0.0], 1, [0, 0], aggregator,
                                       precision=precision, interaction_layers=layers)
        ds.behavior_graphs = build_behavior_graphs(records, 5, 7, 2)
        rank = [None, (np.array([2, 3]), np.array([3, 5]), np.array([6, 4]))]
        reach = last_layer_reach(ModelContext(ds, hyper), hyper, rank)
        [(users, items), _] = [[np.isin(np.arange(r.height), r.ids) for r in pair]
                               for pair in reach.routed]
        assert not users[[0, 1]].any() and not items[[0, 1, 2]].any()
        assert [r.ids.tolist() for r in reach.rows] == [[2, 3], [3, 4, 5, 6]]
        with recorded_restrictions() as calls:
            restricted = loss_and_gradient_bytes(ds, hyper, rank, rel, 2.0)
        assert restricted == loss_and_gradient_bytes(ds, hyper, rank, rel, 0.0, reached=False)
        assert calls.count(("forward", 0, 6)) == 2  # both sides of the last layer


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("ablation", [{}, {"shared_only": True}, {"specific_only": True}])
def test_time_offsets_on_source_rows_keep_the_bytes_of_the_whole_last_layer(precision,
                                                                            ablation):
    # every routing of the last layer narrows (the cut at 2.0), so its time
    # offsets are those of the source rows it reads alone
    ds, hyper, rank, rel = reach_case(24, 24, [0.1, 0.1], 5, [1, 1], precision=precision,
                                      **ablation)
    ctx = ModelContext(ds, hyper)

    def run(last_layer):
        tensors = {k: ad.Tensor(v, requires_grad=True)
                   for k, v in init_params(hyper, ds, seed=3).items()}
        outs = []
        with last_layer, recorded_last_layer_rows() as rows, \
                pytest.MonkeyPatch.context() as mp:
            forward_ = model.forward  # whole_last_layer's, inside it
            mp.setattr(fbc, "LIVE_EDGE_CUT", 2.0)
            mp.setattr(model, "forward", lambda *args: outs.append(forward_(*args)) or outs[-1])
            total, _ = batch_loss(tensors, ctx, hyper, rank, rel)
            total.backward()
        [out] = outs
        finals = [f.data for f in out.user_final + out.item_final]
        return finals, {k: t.grad for k, t in tensors.items()}, rows["time offsets"]

    finals, grads, offsets = run(nullcontext())
    whole_finals, whole_grads, whole_offsets = run(whole_last_layer())
    for got, want in zip(finals, whole_finals):
        assert got.dtype == want.dtype == hyper.dtype and got.tobytes() == want.tobytes()
    # the stacks' and the time tables' gradients among them
    assert sum(name.startswith("time/") and g is not None for name, g in grads.items()) == 4
    for name in grads:
        assert (grads[name] is None) == (whole_grads[name] is None), name
        if grads[name] is not None:
            assert grads[name].tobytes() == whole_grads[name].tobytes(), name
    # the whole layer multiplied every node's one-hot row; the narrowed one
    # gathered the buckets' rows of its routing's source rows, and its
    # backward multiplied their one-hot rows, one bucket each
    assert whole_offsets == [(24, 24)] * 4
    assert len(offsets) == 4 and all(n == entries for n, entries in offsets)
    assert all(n < 24 for n, _ in offsets)


def test_no_fbc_reach_holds_the_row_subsets_alone(grad_ds):
    # nothing routes under no_fbc: the reach marks no routed rows, and holds
    # the batch rows and the triples' positions among them
    hyper = HyperConfig(**{**BASE, "no_fbc": True})
    hyper.validate(2)
    ctx = ModelContext(grad_ds, hyper)
    rank = [(np.array([1, 0]), np.array([0, 1]), np.array([3, 2])), None]
    reach = last_layer_reach(ctx, hyper, rank)
    assert reach.routed is None
    assert [r.ids.tolist() for r in reach.rows] == [[0, 1], [0, 1, 2, 3]]
    assert [p.tolist() for p in reach.positions[0]] == [[1, 0], [0, 1], [3, 2]]
    assert reach.positions[1] is None


# ------------------------------------------------------- a step's work, counted

# The stages of a training step's last layer that still compute every row,
# so their work grows with a component that no batch row reaches. None
# since the time offsets run on routing's source rows; a stage that has to
# compute every row again goes here.
KNOWN_WHOLE_STAGES = ()


def with_disjoint_copy(ds):
    """`ds` plus a copy of itself on users and items of their own, sharing
    no edge or relation with `ds`."""
    M, N, K, R = ds.num_users, ds.num_items, ds.num_behaviors, ds.relation_count
    records = np.concatenate([
        np.column_stack([g.edges + shift, np.full(g.edge_count, k), g.edge_ts])
        for k, g in enumerate(ds.behavior_graphs) for shift in ((0, 0), (M, N))])
    relations = np.concatenate([
        np.column_stack([g.undirected_edges() + shift, np.full(len(g.undirected_edges()), r)])
        for r, g in enumerate(ds.relation_graphs) for shift in (0, N)])
    return Dataset(2 * M, 2 * N, K, R, ds.target_behavior,
                   build_behavior_graphs(records, 2 * M, 2 * N, K),
                   build_relation_graphs(relations, 2 * N, R), ds.test_positive, None,
                   ds.rng_seed)


def last_layer_work(ds, hyper, params, rank, rel):
    """What one `batch_loss` and its backward computed in the last layer:
    per stage, the counts `recorded_last_layer_rows` records, and under
    "routing" each narrowed pass's kind and edge count."""
    ctx = ModelContext(ds, hyper)
    tensors = {k: ad.Tensor(v, requires_grad=True) for k, v in params.items()}
    with recorded_restrictions() as routed, recorded_last_layer_rows() as rows:
        total, _ = batch_loss(tensors, ctx, hyper, rank, rel)
        total.backward()
    return {"routing": [(kind, n) for kind, n, _ in routed], **rows}


@pytest.mark.parametrize("aggregator", ["light", "ngcf"])
def test_last_layer_work_does_not_grow_with_an_unreached_component(aggregator):
    # the same batch of A's edges, in A and in A plus a disjoint copy of A,
    # from the same parameters at A's rows
    a = tiny_dataset(num_users=60, num_items=80, num_behaviors=2, relation_count=2,
                     per_user=3, seed=21, relation_pairs=30)
    b = with_disjoint_copy(a)
    hyper = HyperConfig(**{**BASE, "aggregator": aggregator})
    hyper.validate(2)
    rng = np.random.default_rng(8)
    rank = [tuple(column[:3] for column in epoch_ranking_triples(g, rng))
            for g in a.behavior_graphs]
    rel = [tuple(column[:3] for column in epoch_relation_triples(g, rng))
           for g in a.relation_graphs]
    params_a, params_b = init_params(hyper, a, seed=3), init_params(hyper, b, seed=3)
    for name, array in params_a.items():
        params_b[name][tuple(slice(n) for n in array.shape)] = array
    work_a = last_layer_work(a, hyper, params_a, rank, rel)
    work_b = last_layer_work(b, hyper, params_b, rank, rel)
    # both sides of each behavior routed the reach alone
    assert [kind for kind, _ in work_a["routing"]].count("forward") == 4
    assert work_a["attention"] and work_a["aggregation"] and work_a["time offsets"]
    assert set(work_a) == {"routing", "attention", "aggregation", "time offsets"}
    for stage in work_a:
        if stage in KNOWN_WHOLE_STAGES:
            assert work_a[stage] != work_b[stage], stage
        else:
            assert work_a[stage] == work_b[stage], stage


@pytest.mark.parametrize("aggregator", ["light", "ngcf"])
@pytest.mark.parametrize("layers", [1, 2])
def test_last_layer_stacks_and_their_gradients_are_batch_rows_high(aggregator, layers):
    # a step's last layer aggregates, attends and sums the final stacks in
    # the batch rows' coordinates: each of those stacks, and every gradient
    # that reaches it, is as high as the batch's users or items, while the
    # layers before it hold every row
    ds = tiny_dataset(num_users=60, num_items=80, num_behaviors=2, relation_count=2,
                      per_user=3, seed=21, relation_pairs=30)
    hyper = HyperConfig(**{**BASE, "aggregator": aggregator, "interaction_layers": layers})
    hyper.validate(2)
    rng = np.random.default_rng(8)
    rank = [tuple(column[:3] for column in epoch_ranking_triples(g, rng))
            for g in ds.behavior_graphs]
    rel = [tuple(column[:3] for column in epoch_relation_triples(g, rng))
           for g in ds.relation_graphs]
    ctx = ModelContext(ds, hyper)
    rows = last_layer_reach(ctx, hyper, rank).rows
    heights = (ds.num_users, ds.num_items)
    stacks = {"aggregation": [], "attention": [], "final": []}
    aggregate, correlate, forward_ = fbc._aggregate, fbc.correlate_shared, model.forward

    def aggregating(*args, **kwargs):
        outs = aggregate(*args, **kwargs)
        stacks["aggregation"].append(list(enumerate(outs)))
        return outs

    def attending(stacks_, *args, **kwargs):
        outs, lam = correlate(stacks_, *args, **kwargs)
        side = heights.index(args[5].height) if len(args) > 5 else None
        stacks["attention"].append([(side, out) for out in outs])
        return outs, lam

    def forwarding(*args):
        out = forward_(*args)
        stacks["final"].append([(0, f) for f in out.user_final]
                               + [(1, f) for f in out.item_final])
        return out
    tensors = {k: ad.Tensor(v, requires_grad=True)
               for k, v in init_params(hyper, ds, seed=3).items()}
    grad_heights = {}
    accumulate = ad.Tensor._accumulate

    def watched(self, g):
        grad_heights.setdefault(id(self), set()).add(g.shape[:1])
        accumulate(self, g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fbc, "_aggregate", aggregating)
        mp.setattr(fbc, "correlate_shared", attending)
        mp.setattr(model, "forward", forwarding)
        total, _ = batch_loss(tensors, ctx, hyper, rank, rel)
        with patched_accumulate(watched):
            total.backward()
    K = ds.num_behaviors
    assert len(stacks["aggregation"]) == K * layers and len(stacks["attention"]) == 2 * layers
    last = {stage: calls[-len(calls) // layers:] for stage, calls in stacks.items()
            if stage != "final"}
    last["final"] = stacks["final"]
    for stage, calls in last.items():
        for call in calls:
            for side, stack in call:
                assert side is not None, stage
                want = len(rows[side])
                assert stack.shape[0] == want < heights[side], stage
                assert grad_heights[id(stack)] == {(want,)}, stage
    for stage in ("aggregation", "attention"):
        for call in stacks[stage][:-len(stacks[stage]) // layers]:
            assert all(stack.shape[0] == heights[side] for side, stack in call), stage
