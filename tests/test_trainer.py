import platform
import struct
import weakref
from collections import OrderedDict

import numpy as np
import pytest

from ckml import autodiff as ad
from ckml import fbc, trainer
from ckml.config import ConfigError, HyperConfig
from ckml.dataio import GenConfig, generate_synthetic
from ckml.model import ModelContext, batch_loss, forward, param_specs
from ckml.trainer import (Adam, Checkpoint, CompatibilityError, check_compatible,
                          epoch_ranking_triples, fit, init_params, load_checkpoint,
                          save_checkpoint, save_fit_checkpoint, train_epoch,
                          _config_block)

from conftest import tiny_dataset
from naive_autodiff import tape_nodes


def small_hyper(**kw):
    base = dict(embed_dim=8, specific_interests=1, shared_interests=1,
                attention_heads=2, time_buckets=2, epochs=2, batch_size=32,
                seed=0, beta=0.2, reg_lambda=1e-4)
    base.update(kw)
    h = HyperConfig(**base)
    return h


class TestInitParams:
    def test_same_seed_bitwise_identical(self, small_ds):
        h = small_hyper()
        a = init_params(h, small_ds, seed=3)
        b = init_params(h, small_ds, seed=3)
        assert list(a) == list(b)
        for k in a:
            assert np.array_equal(a[k], b[k])

    def test_xavier_bounds_enforced_per_parameter(self, small_ds):
        # every array obeys its own sqrt(6/(fan_in+fan_out)) bound and,
        # over many draws, comes close to it (the bound is tight)
        h = small_hyper()
        specs = param_specs(h, small_ds)
        params = init_params(h, small_ds, seed=9)
        for name, spec in specs.items():
            if spec.init == "zero":
                continue
            bound = np.sqrt(6.0 / (spec.fan_in + spec.fan_out))
            assert np.abs(params[name]).max() <= bound, name
            if params[name].size >= 50:
                assert np.abs(params[name]).max() > 0.9 * bound, name

    def test_one_by_one_projection_bound_is_sqrt3(self, small_ds):
        # a d*=1 bias has fan_in = fan_out = 1: bound sqrt(6/2) = sqrt(3)
        h = small_hyper(embed_dim=2, specific_interests=1, shared_interests=1,
                        attention_heads=1)
        h.validate(2)
        specs = param_specs(h, small_ds)
        assert specs["cie/sha/s0/b"].shape == (1,)
        draws = [init_params(h, small_ds, seed=s)["cie/sha/s0/b"][0]
                 for s in range(200)]
        assert np.all(np.abs(draws) <= np.sqrt(3))
        assert np.abs(draws).max() > 0.9 * np.sqrt(3)

    def test_empirical_mean_matches_uniform_law(self):
        # one large table: mean of n uniform(-b, b) draws is within
        # 3 * b/sqrt(3n) with 99.7% probability; seed pinned
        ds = tiny_dataset(num_users=1000, num_items=120, num_behaviors=1,
                          relation_count=1, per_user=2, seed=1)
        h = small_hyper(embed_dim=100, specific_interests=1, shared_interests=1,
                        attention_heads=2, alpha=())
        h.validate(1)
        params = init_params(h, ds, seed=11)
        table = params["embed/user"]
        n = table.size
        assert n == 100_000
        bound = np.sqrt(6.0 / (1000 + 100))
        sigma_mean = bound / np.sqrt(3 * n)
        assert abs(table.mean()) < 3 * sigma_mean

    def test_time_offsets_zero(self, small_ds):
        params = init_params(small_hyper(), small_ds, seed=0)
        for k, v in params.items():
            if k.startswith("time/"):
                assert np.array_equal(v, np.zeros_like(v))

    def test_invalid_shape_arithmetic_rejected(self, small_ds):
        with pytest.raises(ConfigError):
            small_hyper(embed_dim=9, specific_interests=1,
                        shared_interests=1).validate(2)


class TestTrainEpoch:
    def test_lambda_only_objective_shrinks_parameters(self, small_ds):
        # empty batches: the loss is pure lambda * ||Theta||^2
        h = small_hyper(reg_lambda=0.1, beta=0.0, learning_rate=1e-2)
        ctx = ModelContext(small_ds, h)
        params = init_params(h, small_ds, seed=1)
        adam = Adam(params)
        norms = [np.sqrt(sum(float((v * v).sum()) for v in params.values()))]
        for step in range(10):
            tensors = {k: ad.Tensor(v, requires_grad=True) for k, v in params.items()}
            total, _ = batch_loss(tensors, ctx, h, [None, None], [None, None])
            total.backward()
            adam.step(params, {k: t.grad for k, t in tensors.items()
                               if t.grad is not None}, h.learning_rate)
            norms.append(np.sqrt(sum(float((v * v).sum()) for v in params.values())))
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_single_triple_margin_reaches_zero(self, small_ds):
        h = small_hyper(beta=0.0, reg_lambda=0.0, learning_rate=5e-2)
        ctx = ModelContext(small_ds, h)
        params = init_params(h, small_ds, seed=2)
        adam = Adam(params)
        rank = [None, (np.array([0]), np.array([int(small_ds.behavior_graphs[1].edges[0, 1])]),
                       np.array([3]))]
        final = None
        for _ in range(200):
            tensors = {k: ad.Tensor(v, requires_grad=True) for k, v in params.items()}
            total, br = batch_loss(tensors, ctx, h, rank, [None, None])
            final = br.ranking
            if final == 0.0:
                break
            total.backward()
            adam.step(params, {k: t.grad for k, t in tensors.items()
                               if t.grad is not None}, h.learning_rate)
        assert final == 0.0

    def test_deterministic_epochs_bitwise(self, small_ds):
        h = small_hyper()
        results = []
        for _ in range(2):
            ctx = ModelContext(small_ds, h)
            rng = np.random.default_rng(h.seed)
            params = init_params(h, small_ds, rng=rng)
            adam = Adam(params)
            losses = [train_epoch(params, ctx, h, adam, rng, e).total
                      for e in range(2)]
            results.append((losses, {k: v.copy() for k, v in params.items()}))
        assert results[0][0] == results[1][0]
        for k in results[0][1]:
            assert np.array_equal(results[0][1][k], results[1][1][k])

    def test_float32_fast_mode_trains_and_keeps_dtype(self, small_ds, monkeypatch):
        h = small_hyper(precision="f32", epochs=0)
        ctx = ModelContext(small_ds, h)
        rng = np.random.default_rng(0)
        params = init_params(h, small_ds, rng=rng)
        adam = Adam(params)
        totals, grads = [], []

        def recording_loss(*args):
            out = batch_loss(*args)
            totals.append(out[0])
            return out

        def recording_step(params, step_grads, lr):
            grads.append(step_grads)
            Adam.step(adam, params, step_grads, lr)

        monkeypatch.setattr(trainer, "batch_loss", recording_loss)
        monkeypatch.setattr(adam, "step", recording_step)
        losses = train_epoch(params, ctx, h, adam, rng, 0)
        assert np.isfinite(losses.total)
        assert all(v.dtype == np.float32 for v in params.values())
        assert totals and all(t.dtype == np.float32 for t in totals)
        assert len(grads) == len(totals)
        assert all(set(g) == set(params) for g in grads)
        assert all(v.dtype == np.float32 for g in grads for v in g.values())

    def test_ranking_loss_decreases_on_fixture(self, small_ds):
        h = small_hyper(learning_rate=5e-3, epochs=0)
        ctx = ModelContext(small_ds, h)
        rng = np.random.default_rng(0)
        params = init_params(h, small_ds, rng=rng)
        adam = Adam(params)
        first = train_epoch(params, ctx, h, adam, rng, 0)
        for e in range(1, 30):
            last = train_epoch(params, ctx, h, adam, rng, e)
        assert last.ranking < first.ranking

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_live_edge_backward_trains_the_same_bytes(self, small_ds, monkeypatch,
                                                     edge_weight_builds, precision):
        h = small_hyper(precision=precision, batch_size=4)
        edge_counts = {g.edge_count for g in small_ds.behavior_graphs}

        def epoch(cut):  # 0 keeps every backward whole, 2 restricts it
            monkeypatch.setattr(fbc, "LIVE_EDGE_CUT", cut)
            ctx = ModelContext(small_ds, h)
            edge_weight_builds.clear()  # the contexts' whole-graph weights
            params = init_params(h, small_ds, seed=4)
            train_epoch(params, ctx, h, Adam(params), np.random.default_rng(4), 0)
            return params

        whole = epoch(0.0)
        assert not edge_weight_builds
        live = epoch(2.0)
        # a count that is no behavior's edge count leaves some edges dead
        assert any(len(rows) not in edge_counts for rows in edge_weight_builds)
        for k in whole:
            assert whole[k].tobytes() == live[k].tobytes(), k


class TestTapeRelease:
    def test_no_step_tape_outlives_the_next_forward(self, small_ds, monkeypatch):
        # each step's interior nodes, but the root train_epoch still holds:
        # their values and backward closures (a live node keeps both)
        h = small_hyper(batch_size=8)
        ctx = ModelContext(small_ds, h)
        params = init_params(h, small_ds, seed=1)
        batch_loss_ = trainer.batch_loss
        refs, alive = [], []

        def spy(tensors, *args):
            alive.append(sum(r() is not None for r in refs))
            total, breakdown = batch_loss_(tensors, *args)
            refs[:] = [weakref.ref(a) for n in tape_nodes(total)
                       if n._backward is not None and n is not total
                       for a in (n.data, n._backward)]
            assert refs
            return total, breakdown
        monkeypatch.setattr(trainer, "batch_loss", spy)
        train_epoch(params, ctx, h, Adam(params), np.random.default_rng(0), 0)
        assert len(alive) > 2
        assert alive == [0] * len(alive)

    def test_training_is_the_same_without_mallopt(self, small_ds, monkeypatch):
        h = small_hyper()
        ctx = ModelContext(small_ds, h)

        def epoch():
            params = init_params(h, small_ds, seed=4)
            train_epoch(params, ctx, h, Adam(params), np.random.default_rng(4), 0)
            return params

        want = epoch()
        if platform.libc_ver()[0] == "glibc":
            assert trainer._pin_allocator()

        def no_library(*args, **kwargs):
            raise OSError("no C library")
        monkeypatch.setattr(trainer.ctypes, "CDLL", no_library)
        trainer._pin_allocator.cache_clear()
        try:
            got = epoch()
            assert trainer._pin_allocator() is False
        finally:
            trainer._pin_allocator.cache_clear()
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name


class TestCheckpoint:
    def test_round_trip_bitwise(self, small_ds, tmp_path):
        h = small_hyper()
        params = init_params(h, small_ds, seed=4)
        adam = Adam(params)
        adam.step(params, {k: np.ones_like(v) for k, v in params.items()}, 1e-3)
        block = _config_block(h, small_ds, epoch=5)
        path = tmp_path / "m.ckml"
        save_checkpoint(path, params, block)
        ckpt = load_checkpoint(path)
        assert ckpt.version == 1
        assert ckpt.config["epoch"] == "5"
        restored = ckpt.model_params()
        assert list(restored) == list(params)
        for k in params:
            assert np.array_equal(restored[k], params[k])

    def test_hyper_snapshot_round_trips(self, small_ds, tmp_path):
        h = small_hyper(alpha=(0.5, 1.0), aggregator="gccf", no_fbc=True,
                        precision="f64")
        params = init_params(h, small_ds, seed=4)
        path = tmp_path / "m.ckml"
        save_checkpoint(path, params, _config_block(h, small_ds, 0))
        assert load_checkpoint(path).hyper() == h

    def test_magic_verified(self, tmp_path):
        p = tmp_path / "bad.ckml"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CompatibilityError, match="magic"):
            load_checkpoint(p)

    def test_checkpoint_from_earlier_encoder_loads(self, small_ds, tmp_path):
        # earlier checkpoints spelt bools True/False, alpha as a JSON list,
        # and held the since-removed workers and deterministic keys
        h = small_hyper(alpha=(0.5, 1.0), no_fbc=True)
        block = _config_block(h, small_ds, 0)
        block.update({"hyper.alpha": "[0.5, 1.0]", "hyper.no_fbc": "True",
                      "hyper.time_embedding": "True", "hyper.no_cie": "False",
                      "hyper.deterministic": "True", "hyper.workers": "1"})
        path = tmp_path / "old.ckml"
        save_checkpoint(path, init_params(h, small_ds, seed=4), block)
        assert load_checkpoint(path).hyper() == h

    def test_unknown_dtype_tag_rejected(self, tmp_path):
        p = tmp_path / "tag.ckml"
        p.write_bytes(b"CKML" + struct.pack("<HII", 1, 0, 1) + struct.pack("<I", 1)
                      + b"w" + struct.pack("<BQB", 1, 1, 9) + b"\x00" * 8)
        with pytest.raises(CompatibilityError, match="corrupt"):
            load_checkpoint(p)

    @pytest.mark.parametrize("field, byte, value", [
        ("dims", 7, 0xff),     # a first dimension near 2**64
        ("dims", 4, 0x01),     # 2**32 + 3 rows: 137 GB, if it were read
        ("name", 3, 0x7f),     # a name longer than the file
        ("config", 2, 0x01),   # a config block longer than the file
    ])
    def test_claimed_length_beyond_the_file_rejected(self, tmp_path, field, byte, value):
        path = tmp_path / "small.ckml"
        save_checkpoint(path, OrderedDict(w=np.ones((3, 4))), {"epoch": "0"})
        blob = bytearray(path.read_bytes())
        (clen,) = struct.unpack_from("<I", blob, 6)
        name_at = 10 + clen + 4  # the array count sits between block and name
        offsets = {"config": 6, "name": name_at, "dims": name_at + 4 + len("w") + 1}
        blob[offsets[field] + byte] = value
        path.write_bytes(bytes(blob))
        with pytest.raises(CompatibilityError, match="claims"):
            load_checkpoint(path)

    def test_bytes_after_the_claimed_arrays_rejected(self, tmp_path):
        path = tmp_path / "small.ckml"
        save_checkpoint(path, OrderedDict(w=np.ones((3, 4)), v=np.ones(2)), {"epoch": "0"})
        blob = bytearray(path.read_bytes())
        (clen,) = struct.unpack_from("<I", blob, 6)
        struct.pack_into("<I", blob, 10 + clen, 1)  # the count drops array v
        path.write_bytes(bytes(blob))
        with pytest.raises(CompatibilityError, match="after its 1 arrays"):
            load_checkpoint(path)

    def test_undecodable_hyper_value_rejected(self):
        ckpt = Checkpoint(1, {"hyper.embed_dim": "sixteen"}, OrderedDict())
        with pytest.raises(CompatibilityError, match="embed_dim"):
            ckpt.hyper()

    def test_non_integer_dimension_rejected(self, small_ds):
        ckpt = Checkpoint(1, {"dims.users": "x2"}, OrderedDict())
        with pytest.raises(CompatibilityError, match="dims.users"):
            check_compatible(ckpt, small_ds)

    def test_failed_save_keeps_earlier_checkpoint(self, small_ds, tmp_path):
        h = small_hyper()
        params = init_params(h, small_ds, seed=0)
        block = _config_block(h, small_ds, 0)
        path = tmp_path / "m.ckml"
        save_checkpoint(path, params, block)
        before = path.read_bytes()
        bad = OrderedDict(params)
        bad["zz/int"] = np.arange(3)  # int64 has no dtype tag: raises mid-write
        with pytest.raises(KeyError):
            save_checkpoint(path, bad, block)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckml"]

    def test_invalid_hyperparameters_rejected(self, small_ds, tmp_path):
        h = small_hyper()
        block = _config_block(h, small_ds, 0)
        block["hyper.attention_heads"] = "3"  # does not divide the width 4
        path = tmp_path / "m.ckml"
        save_checkpoint(path, init_params(h, small_ds, seed=0), block)
        with pytest.raises(CompatibilityError, match="attention heads"):
            check_compatible(load_checkpoint(path), small_ds)

    def test_dimension_compatibility(self, small_ds, tmp_path):
        h = small_hyper()
        params = init_params(h, small_ds, seed=0)
        path = tmp_path / "m.ckml"
        save_checkpoint(path, params, _config_block(h, small_ds, 0))
        ckpt = load_checkpoint(path)
        check_compatible(ckpt, small_ds)  # same dataset passes
        other = tiny_dataset(num_users=9)
        with pytest.raises(CompatibilityError, match="dims.users"):
            check_compatible(ckpt, other)

    def test_float32_arrays_round_trip(self, small_ds, tmp_path):
        h = small_hyper(precision="f32")
        params = init_params(h, small_ds, seed=0)
        assert params["embed/user"].dtype == np.float32
        path = tmp_path / "m32.ckml"
        save_checkpoint(path, params, _config_block(h, small_ds, 0))
        restored = load_checkpoint(path).model_params()
        for k in params:
            assert restored[k].dtype == np.float32
            assert np.array_equal(restored[k], params[k])


class TestAblations:
    def test_no_mi_collapses_to_single_interest_shapes(self, small_ds):
        h = small_hyper(no_mi=True)
        h.validate(2)
        specs = param_specs(h, small_ds)
        assert "interest/free/sha" in specs
        assert specs["interest/free/sha"].shape == (small_ds.num_items, 1, 8)
        assert not any(k.startswith(("cie/", "attn/")) for k in specs)
        # score reduces to a plain dot product via the N_*=1 structure
        s_spe, s_sha, d_star = h.interest_structure()
        assert (s_spe, s_sha, d_star) == (0, 1, 8)

    def test_no_cie_detaches_relation_parameters(self, small_ds):
        h = small_hyper(no_cie=True, beta=0.0, reg_lambda=0.0)
        h.validate(2)
        specs = param_specs(h, small_ds)
        assert "embed/item" not in specs
        assert not any(k.startswith("cie/") for k in specs)
        assert "interest/free/sha" in specs and "interest/free/spe/k0" in specs

    def test_shared_only_zero_gradient_into_specific_projections(self, small_ds):
        h = small_hyper(shared_only=True, beta=0.0, reg_lambda=0.0)
        h.validate(2)
        ctx = ModelContext(small_ds, h)
        params = init_params(h, small_ds, seed=1)
        rng = np.random.default_rng(0)
        rank = [epoch_ranking_triples(g, rng) for g in small_ds.behavior_graphs]
        tensors = {k: ad.Tensor(v, requires_grad=True) for k, v in params.items()}
        total, _ = batch_loss(tensors, ctx, h, rank, [None, None])
        total.backward()
        for k, t in tensors.items():
            if k.startswith("cie/spe/"):
                assert t.grad is None or not np.any(t.grad)
            if k == "cie/sha/s0/W":
                assert t.grad is not None and np.any(t.grad)
        # the zeroed block really is zero in the interest stacks
        for g_stack in forward(tensors, ctx, h).item_interest_stacks:
            np.testing.assert_array_equal(g_stack.data[:, 0], 0.0)

    def test_specific_only_zero_gradient_into_shared_and_attention(self, small_ds):
        h = small_hyper(specific_only=True, beta=0.0, reg_lambda=0.0)
        h.validate(2)
        ctx = ModelContext(small_ds, h)
        params = init_params(h, small_ds, seed=1)
        rng = np.random.default_rng(0)
        rank = [epoch_ranking_triples(g, rng) for g in small_ds.behavior_graphs]
        tensors = {k: ad.Tensor(v, requires_grad=True) for k, v in params.items()}
        total, _ = batch_loss(tensors, ctx, h, rank, [None, None])
        total.backward()
        for k, t in tensors.items():
            if k.startswith(("cie/sha/", "attn/")):
                assert t.grad is None or not np.any(t.grad), k
            if k == "cie/spe/k1/s0/W":
                assert t.grad is not None and np.any(t.grad)

    def test_no_cie_forward_has_no_relation_views(self, small_ds):
        h = small_hyper(no_cie=True)
        h.validate(2)
        ctx = ModelContext(small_ds, h)
        params = init_params(h, small_ds, seed=0)
        out = forward({k: ad.Tensor(v) for k, v in params.items()}, ctx, h)
        assert out.relation_views is None

    def test_shared_block_identical_across_behaviors(self, small_ds):
        h = small_hyper()
        ctx = ModelContext(small_ds, h)
        params = init_params(h, small_ds, seed=0)
        out = forward({k: ad.Tensor(v) for k, v in params.items()}, ctx, h)
        s_spe = h.interest_structure()[0]
        a = out.item_interest_stacks[0].data[:, s_spe:]
        b = out.item_interest_stacks[1].data[:, s_spe:]
        assert np.array_equal(a, b)  # bitwise


class TestFit:
    def _eval_ready_dataset(self, seed=0):
        gen = GenConfig(num_users=12, num_items=130, num_behaviors=2,
                        relation_count=2, shared_prototypes=1,
                        specific_prototypes=1, interactions_per_user=5)
        return generate_synthetic(gen, seed=seed)

    def test_zero_epochs_checkpoint_equals_initialization(self, tmp_path):
        ds = self._eval_ready_dataset()
        h = small_hyper(embed_dim=8, epochs=0)
        result = fit(ds, h, top_n=10)
        path = tmp_path / "init.ckml"
        save_fit_checkpoint(path, result, ds, h)
        restored = load_checkpoint(path).model_params()
        rng = np.random.default_rng(h.seed)
        fresh = init_params(h, ds, rng=rng)
        for k in fresh:
            assert np.array_equal(restored[k], fresh[k])

    def test_epoch_zero_evaluation_line_present(self):
        ds = self._eval_ready_dataset()
        h = small_hyper(epochs=0)
        result = fit(ds, h, top_n=10)
        metric_lines = [r for r in result.history if "behavior" in r and "hr" in r]
        assert metric_lines and metric_lines[0]["epoch"] == 0

    def test_deterministic_fit_bitwise(self):
        ds = self._eval_ready_dataset()
        h = small_hyper(epochs=2)
        a = fit(ds, h, top_n=10)
        b = fit(ds, h, top_n=10)
        assert a.history == b.history
        pa, pb = a.best_snapshot[0], b.best_snapshot[0]
        for k in pa:
            assert np.array_equal(pa[k], pb[k])

    def test_early_stopping_respects_patience(self):
        ds = self._eval_ready_dataset()
        h = small_hyper(epochs=30, patience=2, learning_rate=0.0001)
        result = fit(ds, h, top_n=10)
        stops = [r for r in result.history if r.get("metric") == "early_stop"]
        losses = [r for r in result.history if r.get("metric") == "loss"]
        if stops:
            assert len(losses) < 30

    def test_single_behavior_dataset_trains(self):
        gen = GenConfig(num_users=10, num_items=130, num_behaviors=1,
                        relation_count=1, shared_prototypes=1,
                        specific_prototypes=1, interactions_per_user=5)
        ds = generate_synthetic(gen, seed=1)
        h = small_hyper(epochs=2, alpha=(1.0,))
        result = fit(ds, h, top_n=10)
        assert result.best_ndcg >= 0.0
        assert any(r.get("metric") == "loss" for r in result.history)

    def test_transforming_aggregator_trains_and_checkpoints(self, tmp_path):
        ds = self._eval_ready_dataset()
        h = small_hyper(epochs=2, aggregator="gccf")
        result = fit(ds, h, top_n=10)
        path = tmp_path / "gccf.ckml"
        save_fit_checkpoint(path, result, ds, h)
        ckpt = load_checkpoint(path)
        assert "agg/cie/l0/W" in ckpt.arrays
        assert "agg/fbc/l0/W" in ckpt.arrays
        assert ckpt.hyper().aggregator == "gccf"
