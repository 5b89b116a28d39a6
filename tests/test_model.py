"""Whole-forward contracts: gradients across every configuration path,
layer bookkeeping, and ablation wiring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckml import autodiff as ad
from ckml import fbc, model, numerics
from ckml.config import HyperConfig
from ckml.dataio import (Dataset, build_behavior_graphs, build_relation_graphs,
                         time_buckets)
from ckml.model import ModelContext, batch_loss, forward, last_layer_reach
from ckml.numerics import finite_difference_gradcheck
from ckml.trainer import (epoch_ranking_triples, epoch_relation_triples,
                          init_params)

from conftest import tiny_dataset
from naive_autodiff import patched_accumulate, tape_nodes
from naive_routing import recorded_coefficients, recorded_restrictions


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
    with recorded_restrictions() as calls:
        report = run_gradcheck(ds, HyperConfig(**{**BASE, **overrides}), triples=(1, 2))
    assert report.overall < 1e-4, report.per_parameter
    forwards = {n for kind, n, _ in calls if kind == "forward"}
    # a backward starts from the edges of a forward over the reach, or of all
    starts = {E in forwards for kind, n, E in calls if kind == "backward" and n > 1}
    assert forwards and starts == {True, False}


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


def test_no_fbc_path_has_no_attention_parameters(grad_ds):
    hyper = HyperConfig(**{**BASE, "no_fbc": True})
    hyper.validate(2)
    params = init_params(hyper, grad_ds, seed=0)
    assert not any(k.startswith("attn/") for k in params)


@given(precision=st.sampled_from(["f32", "f64"]), buckets=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_time_offsets_are_the_bucket_rows_and_add_at_their_gradient(
        grad_ds, precision, buckets, seed):
    hyper = HyperConfig(**{**BASE, "precision": precision, "time_buckets": buckets})
    hyper.validate(2)
    ctx = ModelContext(grad_ds, hyper)
    dtype = hyper.dtype
    rng = np.random.default_rng(seed)
    tensors = {k: ad.Tensor(v) for k, v in init_params(hyper, grad_ds, seed=0).items()}
    tables = {}
    for name in tensors:
        if name.startswith("time/"):
            shape = tensors[name].shape
            # wide exponents and exact zeros, all made +0.0: the one-hot product
            # gives +0.0 where the table holds -0.0
            table = (rng.normal(size=shape) * 10.0 ** rng.integers(-6, 7, size=shape)
                     * (rng.random(shape) > 0.2)).astype(dtype)
            table[table == 0] = 0.0
            tables[name] = tensors[name] = ad.Tensor(table, requires_grad=True)
    onehots = {id(m) for pair in ctx.buckets for m in pair}
    offsets = []
    spmm = ad.spmm

    def spy(sparse, x):
        out = spmm(sparse, x)
        if id(sparse) in onehots:
            offsets.append(out)
        return out
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "spmm", spy)
        forward(tensors, ctx, hyper)
    names = [f"time/{side}/k{k}" for k in range(2) for side in ("user", "item")]
    ids = [i for g in grad_ds.behavior_graphs for i in time_buckets(g, buckets)]
    assert len(offsets) == len(names)
    weights = []
    for out, name, node_buckets in zip(offsets, names, ids):
        want = tables[name].data[node_buckets]
        assert out.dtype == dtype
        assert out.data.reshape(want.shape).tobytes() == want.tobytes()
        weights.append(rng.normal(size=out.shape).astype(dtype))
    ad.add_all([(out * w).sum() for out, w in zip(offsets, weights)]).backward()
    for name, node_buckets, w in zip(names, ids, weights):
        want = np.zeros_like(tables[name].data)
        np.add.at(want, node_buckets, w.reshape((len(node_buckets),) + want.shape[1:]))
        assert tables[name].grad.dtype == dtype
        assert tables[name].grad.tobytes() == want.tobytes()


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_a_step_builds_no_sparse_matrix_and_trains_every_time_table(
        grad_ds, monkeypatch, precision):
    hyper = HyperConfig(**{**BASE, "precision": precision})
    hyper.validate(2)
    ctx = ModelContext(grad_ds, hyper)
    params = init_params(hyper, grad_ds, seed=0)
    tensors = {k: ad.Tensor(v, requires_grad=True) for k, v in params.items()}
    built = []
    monkeypatch.setattr(model, "from_edges",
                        lambda *a: built.append(a) or numerics.from_edges(*a))
    rank = [(np.arange(3), np.arange(3), np.arange(3, 6))] * 2
    rel = [(np.arange(3), np.arange(3, 6), np.arange(5, 8))] * 2
    total, _ = batch_loss(tensors, ctx, hyper, rank, rel)
    total.backward()
    # the one-hot matrices are built once, in ModelContext
    assert built == []
    assert all(np.any(tensors[f"time/{side}/k{k}"].grad)
               for side in ("user", "item") for k in range(2))


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


def loss_and_gradient_bytes(ds, hyper, rank, rel, cut):
    """The bytes of `batch_loss` and of every leaf's gradient (None if it
    gets none) with `fbc.LIVE_EDGE_CUT` at `cut`."""
    tensors = {k: ad.Tensor(v, requires_grad=True)
               for k, v in init_params(hyper, ds, seed=3).items()}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fbc, "LIVE_EDGE_CUT", cut)
        total, _ = batch_loss(tensors, ModelContext(ds, hyper), hyper, rank, rel)
        total.backward()
    return total.data.tobytes(), {k: t.grad if t.grad is None else t.grad.tobytes()
                                  for k, t in tensors.items()}


ABLATIONS = [{}, {"no_mi": True}, {"shared_only": True}, {"specific_only": True},
             {"no_cie": True, "beta": 0.0}, {"time_embedding": False}]


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
    """`batch_loss` with the last layer routing the reached rows alone,
    against every row routed: the cut at 2.0 restricts every forward and
    backward that can be, at 0.0 none."""

    @given(reach_cases())
    @settings(max_examples=150, deadline=None)
    def test_loss_and_gradients_keep_their_bytes(self, case):
        ds, hyper, rank, rel = reach_case(**case)
        assert (loss_and_gradient_bytes(ds, hyper, rank, rel, 2.0)
                == loss_and_gradient_bytes(ds, hyper, rank, rel, 0.0))

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
        (users, items), _ = last_layer_reach(ModelContext(ds, hyper), hyper, rank)
        assert not users[[0, 1]].any() and not items[[0, 1, 2]].any()
        with recorded_restrictions() as calls:
            restricted = loss_and_gradient_bytes(ds, hyper, rank, rel, 2.0)
        assert restricted == loss_and_gradient_bytes(ds, hyper, rank, rel, 0.0)
        assert calls.count(("forward", 0, 6)) == 2  # both sides of the last layer
