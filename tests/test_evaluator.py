from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_evaluator
from ckml import autodiff as ad
from ckml import evaluator
from ckml.config import HyperConfig
from ckml.dataio import GenConfig, generate_synthetic
from ckml.evaluator import (evaluate, hr_ndcg_at_n, interest_center_distance,
                            rank_positives, score_candidates)
from ckml.model import ModelContext, forward
from ckml.numerics import NumericError
from ckml.trainer import init_params

rng = np.random.default_rng(3)


def rank_positive(scores, positive_index):
    """`rank_positives` on one candidate list whose positive sits at
    `positive_index`: the positive moves to column 0, and the order of the
    others does not change a rank."""
    row = np.concatenate(([scores[positive_index]], np.delete(scores, positive_index)))
    return int(rank_positives(row[None])[0])


def sort_oracle_rank(scores, positive_index):
    """Brute force: sort descending, positive placed after every tie."""
    target = scores[positive_index]
    order = sorted(range(len(scores)),
                   key=lambda j: (-scores[j], 0 if j != positive_index else 1))
    return order.index(positive_index) + 1


class TestRankPositive:
    def test_strictly_highest_is_rank_one(self):
        scores = np.zeros(100)
        scores[13] = 1.0
        assert rank_positive(scores, 13) == 1

    def test_all_tied_is_rank_100(self):
        assert rank_positive(np.full(100, 0.5), 42) == 100

    def test_fuzz_against_sort_oracle(self):
        for trial in range(1000):
            scores = rng.normal(size=100)
            if trial % 5 == 0:  # force tie groups, including on the positive
                scores = np.round(scores)
            pos = int(rng.integers(0, 100))
            assert rank_positive(scores, pos) == sort_oracle_rank(scores, pos)

    def test_rejects_non_finite(self):
        scores = np.zeros(100)
        scores[3] = np.nan
        with pytest.raises(NumericError):
            rank_positive(scores, 0)


class TestHrNdcg:
    def test_rank_one(self):
        assert hr_ndcg_at_n(1, 10) == (1.0, 1.0)

    def test_rank_outside_cutoff(self):
        assert hr_ndcg_at_n(11, 10) == (0.0, 0.0)

    def test_rank_two_closed_form(self):
        hr, ndcg = hr_ndcg_at_n(2, 10)
        assert hr == 1.0
        assert ndcg == pytest.approx(1.0 / np.log2(3.0))

    def test_monotone_in_rank(self):
        values = [hr_ndcg_at_n(r, 10) for r in range(1, 101)]
        for (hr_a, nd_a), (hr_b, nd_b) in zip(values, values[1:]):
            assert hr_a >= hr_b and nd_a >= nd_b

    def test_ndcg_never_exceeds_hr(self):
        for r in range(1, 101):
            hr, ndcg = hr_ndcg_at_n(r, 10)
            assert 0.0 <= ndcg <= hr <= 1.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            hr_ndcg_at_n(0, 10)


def eval_fixture(seed=0):
    gen = GenConfig(num_users=10, num_items=140, num_behaviors=2,
                    relation_count=2, shared_prototypes=1, specific_prototypes=1,
                    interactions_per_user=5)
    ds = generate_synthetic(gen, seed=seed)
    h = HyperConfig(embed_dim=8, specific_interests=1, shared_interests=1,
                    attention_heads=2, seed=seed)
    h.validate(2)
    ctx = ModelContext(ds, h)
    params = init_params(h, ds, seed=seed)
    return ds, h, ctx, params


class TestEvaluate:
    def test_pure_function_repeated_calls_bitwise(self):
        ds, h, ctx, params = eval_fixture()
        a = evaluate(params, ctx, h, 10)
        b = evaluate(params, ctx, h, 10)
        assert a.per_behavior == b.per_behavior

    def test_matches_per_user_loop_oracle(self):
        ds, h, ctx, params = eval_fixture()
        report = evaluate(params, ctx, h, 10)
        out = forward({k: ad.Tensor(v) for k, v in params.items()}, ctx, h)
        k = ds.target_behavior
        hr_sum = ndcg_sum = 0.0
        users = ds.test_positive[:, 0].tolist()
        for (u, positive), negatives in zip(ds.test_positive.tolist(), ds.eval_negatives):
            cands = [positive] + list(negatives)
            scores = []
            for c in cands:
                dots = [float(out.user_final[k].data[u, s] @ out.item_final[k].data[c, s])
                        for s in range(out.user_final[k].data.shape[1])]
                scores.append(max(dots))
            r = sort_oracle_rank(np.array(scores), 0)
            hr, nd = (1.0, 1.0 / np.log2(r + 1)) if r <= 10 else (0.0, 0.0)
            hr_sum += hr
            ndcg_sum += nd
        got_hr, got_ndcg, count = report.per_behavior[k]
        assert count == len(users)
        assert got_hr == pytest.approx(hr_sum / len(users), abs=1e-12)
        assert got_ndcg == pytest.approx(ndcg_sum / len(users), abs=1e-12)

    def test_perfect_model_scores_one(self, monkeypatch):
        ds, h, ctx, params = eval_fixture()

        def rigged_scores(user_rep, items, candidates):
            # candidate 0 is the held-out positive by construction
            rows, width = candidates.shape
            return np.tile(np.arange(width, 0, -1, dtype=np.float64), (rows, 1))

        monkeypatch.setattr("ckml.evaluator.score_candidates", rigged_scores)
        report = evaluate(params, ctx, h, 10)
        hr, ndcg, _ = report.per_behavior[ds.target_behavior]
        assert hr == 1.0 and ndcg == 1.0

    def test_evaluation_keeps_freed_blocks_like_training(self, monkeypatch):
        ds, h, ctx, params = eval_fixture()
        calls = []
        monkeypatch.setattr("ckml.evaluator._pin_allocator", lambda: calls.append(1))
        evaluate(params, ctx, h, 10)
        assert calls == [1]

    def test_constant_scorer_has_zero_hr(self, monkeypatch):
        ds, h, ctx, params = eval_fixture()

        def constant_forward(tensors, fctx, fhyper):
            out = forward(tensors, fctx, fhyper)
            k = ds.target_behavior
            out.user_final[k] = ad.Tensor(np.zeros_like(out.user_final[k].data))
            return out

        monkeypatch.setattr("ckml.evaluator.forward", constant_forward)
        report = evaluate(params, ctx, h, 10)
        hr, ndcg, _ = report.per_behavior[ds.target_behavior]
        # pessimistic ties: every positive ranks 100
        assert hr == 0.0 and ndcg == 0.0

    def test_all_behaviors_flag(self):
        ds, h, ctx, params = eval_fixture()
        report = evaluate(params, ctx, h, 10, all_behaviors=True)
        assert set(report.per_behavior) == {0, 1}

    def test_diagnostics_carry_interest_distance(self):
        ds, h, ctx, params = eval_fixture()
        report = evaluate(params, ctx, h, 10)
        dist = report.diagnostics["interest_distance"]
        assert set(dist) == {"mean", "p10", "p50", "p90"}
        assert dist["mean"] > 0.0

    def test_missing_negatives_rejected(self):
        ds, h, ctx, params = eval_fixture()
        ds.eval_negatives = None
        with pytest.raises(ValueError, match="negatives"):
            evaluate(params, ctx, h, 10)

    def test_hr_monotone_in_cutoff(self):
        ds, h, ctx, params = eval_fixture()
        r1 = evaluate(params, ctx, h, 1)
        r10 = evaluate(params, ctx, h, 10)
        k = ds.target_behavior
        assert r1.per_behavior[k][0] <= r10.per_behavior[k][0]


def forward_stub(user_final, item_final):
    """A `model.forward` stand-in returning the given final stacks, with
    one-interest item stacks so no distance diagnostics run."""
    out = SimpleNamespace(
        user_final=[ad.Tensor(u) for u in user_final],
        item_final=[ad.Tensor(i) for i in item_final],
        item_interest_stacks=[ad.Tensor(i[:, :1]) for i in item_final])
    return lambda tensors, ctx, hyper: out


def stub_context(test_positive, eval_negatives, num_behaviors):
    ds = SimpleNamespace(test_positive=test_positive, eval_negatives=eval_negatives,
                         num_behaviors=num_behaviors, target_behavior=num_behaviors - 1)
    return SimpleNamespace(dataset=ds)


def held_out_rows(r, users, num_items):
    """A random split of `users` (ascending) over `num_items` items: (U, 2)
    rows of user, held-out item and (U, 99) negatives without the item."""
    positives = r.integers(num_items, size=len(users))
    negatives = np.array([r.choice(np.delete(np.arange(num_items), p), 99, replace=False)
                          for p in positives], dtype=np.int64).reshape(-1, 99)
    return np.column_stack((users, positives)).astype(np.int64), negatives


def bits(per_behavior):
    return {k: (np.float64(hr).tobytes(), np.float64(ndcg).tobytes(), users)
            for k, (hr, ndcg, users) in per_behavior.items()}


class TestBlockedMatchesPerUser:
    NUM_ITEMS = 150

    @given(st.sampled_from([np.float32, np.float64]), st.integers(1, 4),
           st.integers(1, 16), st.sampled_from([1, 5, 10, 100]), st.booleans(),
           st.booleans(), st.sampled_from([1, 2, 3, evaluator._BLOCK]), st.integers(0, 30),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_per_behavior_bytes_equal_the_per_user_loop(
            self, dtype, n_interests, width, top_n, all_behaviors, tied, block,
            num_users, seed):
        r = np.random.default_rng(seed)
        num_behaviors = 2
        shape = (n_interests, width)
        user_final = r.normal(size=(num_behaviors, num_users) + shape)
        item_final = r.normal(size=(num_behaviors, self.NUM_ITEMS) + shape)
        if tied:  # coarse values, so many candidates tie the positive
            user_final, item_final = np.round(user_final), np.round(item_final)
        user_final, item_final = user_final.astype(dtype), item_final.astype(dtype)
        # a random subset of the users, ascending, as the split lists them
        users = np.flatnonzero(r.random(num_users) < 0.8)
        ctx = stub_context(*held_out_rows(r, users, self.NUM_ITEMS), num_behaviors)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("ckml.evaluator.forward", forward_stub(user_final, item_final))
            mp.setattr(evaluator, "_BLOCK", block)
            report = evaluate({}, ctx, None, top_n, all_behaviors=all_behaviors)
        behaviors = range(num_behaviors) if all_behaviors else [num_behaviors - 1]
        out = forward_stub(user_final, item_final)({}, None, None)
        want = naive_evaluator.per_behavior(out, ctx.dataset, top_n, behaviors)
        assert bits(report.per_behavior) == bits(want)

    def test_means_add_the_users_left_to_right(self, monkeypatch):
        """3,000 users whose NDCG values sum to other bits pairwise (`np.sum`)
        than one at a time: the means take the per-user loop's bits."""
        r = np.random.default_rng(11)
        num_users = 3000
        user_final = r.normal(size=(1, num_users, 2, 3))
        item_final = r.normal(size=(1, self.NUM_ITEMS, 2, 3))
        ctx = stub_context(*held_out_rows(r, np.arange(num_users), self.NUM_ITEMS), 1)
        monkeypatch.setattr("ckml.evaluator.forward", forward_stub(user_final, item_final))
        report = evaluate({}, ctx, None, 10)
        out = forward_stub(user_final, item_final)({}, None, None)
        want = naive_evaluator.per_behavior(out, ctx.dataset, 10, [0])
        ndcg = [value for _, value in naive_evaluator.per_user(out, ctx.dataset, 10, 0)]
        assert np.sum(ndcg) / num_users != want[0][1]
        assert bits(report.per_behavior) == bits(want)

    def _evaluate(self, monkeypatch, num_users, top_n=10, bad_item=None):
        r = np.random.default_rng(0)
        user_final = r.normal(size=(1, num_users, 2, 3))
        item_final = r.normal(size=(1, self.NUM_ITEMS, 2, 3))
        if bad_item is not None:
            item_final[0, bad_item, 1, 2] = np.inf
        users = np.arange(num_users)
        ctx = stub_context(np.column_stack((users, np.zeros_like(users))),
                           np.tile(np.arange(1, 100), (num_users, 1)), 1)
        monkeypatch.setattr("ckml.evaluator.forward", forward_stub(user_final, item_final))
        return evaluate({}, ctx, None, top_n).per_behavior[0]

    def test_zero_test_users(self, monkeypatch):
        assert self._evaluate(monkeypatch, 0) == (0.0, 0.0, 0)

    def test_zero_cutoff_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="N must be >= 1"):
            self._evaluate(monkeypatch, 3, top_n=0)

    def test_one_non_finite_item_row_rejected(self, monkeypatch):
        monkeypatch.setattr(evaluator, "_BLOCK", 2)
        with pytest.raises(NumericError, match="candidate scores contain non-finite"):
            self._evaluate(monkeypatch, 5, bad_item=57)


class TestScoreCandidates:
    def test_max_over_interests(self):
        user = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        items = np.array([[[2.0, 0.0], [0.0, 3.0]],
                          [[1.0, 0.0], [0.0, 0.5]]])  # (N, S, d*)
        items = np.ascontiguousarray(items.transpose(1, 0, 2))
        scores = score_candidates(user, items, np.array([[0, 1, 0]]))
        assert scores.dtype == np.float64
        np.testing.assert_allclose(scores, [[3.0, 1.0, 3.0]])


class TestInterestCenterDistance:
    def test_identical_interests_zero(self):
        stacks = np.tile(rng.normal(size=(4, 1, 3)), (1, 3, 1))
        out = interest_center_distance(stacks)
        assert out["mean"] == pytest.approx(0.0, abs=1e-12)

    def test_three_four_five(self):
        stacks = np.array([[[0.0, 0.0], [3.0, 4.0]]])
        out = interest_center_distance(stacks)
        assert out["mean"] == pytest.approx(5.0)

    def test_matches_pairwise_loop_oracle(self):
        stacks = rng.normal(size=(6, 4, 3))
        got = interest_center_distance(stacks)
        per_item = []
        for n in range(6):
            ds = []
            for a in range(4):
                for b in range(a + 1, 4):
                    ds.append(np.linalg.norm(stacks[n, a] - stacks[n, b]))
            per_item.append(np.mean(ds))
        np.testing.assert_allclose(got["per_item"], per_item, atol=1e-12)
        assert got["p10"] <= got["p50"] <= got["p90"]

    def test_needs_two_interests(self):
        with pytest.raises(ValueError):
            interest_center_distance(rng.normal(size=(3, 1, 2)))
