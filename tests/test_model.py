"""Whole-forward contracts: gradients across every configuration path,
layer bookkeeping, and ablation wiring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckml import autodiff as ad
from ckml.config import HyperConfig
from ckml.dataio import time_buckets
from ckml.model import ModelContext, batch_loss, forward
from ckml.numerics import SparseMatrix, finite_difference_gradcheck
from ckml.trainer import (epoch_ranking_triples, epoch_relation_triples,
                          init_params)

from conftest import tiny_dataset
from naive_autodiff import patched_accumulate, tape_nodes
from naive_routing import recorded_coefficients


def run_gradcheck(ds, hyper, seed=5):
    hyper.validate(ds.num_behaviors)
    ctx = ModelContext(ds, hyper)
    params = init_params(hyper, ds, seed=seed)
    rng = np.random.default_rng(seed)
    rank = [epoch_ranking_triples(g, rng) for g in ds.behavior_graphs]
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
    original = SparseMatrix.from_edges.__func__
    monkeypatch.setattr(SparseMatrix, "from_edges", classmethod(
        lambda cls, *a: built.append(a) or original(cls, *a)))
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
