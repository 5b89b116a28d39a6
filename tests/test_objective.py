import numpy as np
import pytest

from ckml import autodiff as ad
from ckml.objective import (aggregate_final, margin_bpr_loss, relation_bpr_loss,
                            relation_scores, regularization_term,
                            score_interactions, total_loss)

from naive_autodiff import neg
from naive_training import tape_regularization

rng = np.random.default_rng(12)


class TestAggregateFinal:
    def test_single_layer(self):
        s = ad.Tensor(rng.normal(size=(3, 2, 4)))
        assert aggregate_final([s]) is s

    def test_cancellation(self):
        s = ad.Tensor(rng.normal(size=(2, 2, 2)))
        out = aggregate_final([s, neg(s)])
        np.testing.assert_allclose(out.data, 0.0, atol=1e-15)

    def test_three_layers_match_loop_oracle(self):
        layers = [rng.normal(size=(2, 3, 2)) for _ in range(3)]
        got = aggregate_final([ad.Tensor(x) for x in layers]).data
        want = np.zeros_like(layers[0])
        for x in layers:
            want = want + x
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestScoreInteractions:
    def test_single_interest_is_dot_product(self):
        h_u = rng.normal(size=(5, 1, 6))
        h_i = rng.normal(size=(5, 1, 6))
        got = score_interactions(ad.Tensor(h_u), ad.Tensor(h_i)).data
        want = np.einsum("bd,bd->b", h_u[:, 0], h_i[:, 0])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_zero_user_scores_zero(self):
        h_u = ad.Tensor(np.zeros((3, 2, 4)))
        h_i = ad.Tensor(rng.normal(size=(3, 2, 4)))
        np.testing.assert_array_equal(score_interactions(h_u, h_i).data, 0.0)

    def test_forced_max_of_interest_dots(self):
        h_u = ad.Tensor(np.array([[[1.0, 0.0], [0.0, 1.0]]]))
        h_i = ad.Tensor(np.array([[[2.0, 0.0], [0.0, 3.0]]]))
        assert score_interactions(h_u, h_i).data[0] == pytest.approx(3.0)


class TestMarginBpr:
    def test_margin_met(self):
        out = margin_bpr_loss(ad.Tensor(np.array([2.0])), ad.Tensor(np.array([1.0])))
        assert out.data[0] == 0.0

    def test_equal_scores(self):
        out = margin_bpr_loss(ad.Tensor(np.array([0.3])), ad.Tensor(np.array([0.3])))
        assert out.data[0] == pytest.approx(1.0)

    def test_linear_region(self):
        out = margin_bpr_loss(ad.Tensor(np.array([1.0])), ad.Tensor(np.array([0.5])))
        assert out.data[0] == pytest.approx(0.5)


class TestRelationScores:
    def test_identical_unit_vectors(self):
        y = ad.Tensor(np.array([[1.0, 0.0], [1.0, 0.0]]))
        out = relation_scores(y, np.array([0]), np.array([1]))
        assert out.data[0] == pytest.approx(1.0)

    def test_orthogonal(self):
        y = ad.Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        out = relation_scores(y, np.array([0]), np.array([1]))
        assert out.data[0] == pytest.approx(0.0)

    def test_forced_arithmetic(self):
        y = ad.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = relation_scores(y, np.array([0]), np.array([1]))
        assert out.data[0] == pytest.approx(11.0)

    def test_symmetric_in_arguments(self):
        y = ad.Tensor(rng.normal(size=(6, 4)))
        left = np.array([0, 2, 4])
        right = np.array([1, 3, 5])
        a = relation_scores(y, left, right).data
        b = relation_scores(y, right, left).data
        np.testing.assert_array_equal(a, b)


class TestRelationBpr:
    def test_equal_scores_ln2(self):
        out = relation_bpr_loss(ad.Tensor(np.array([1.0])), ad.Tensor(np.array([1.0])))
        assert out.data[0] == pytest.approx(np.log(2.0), rel=1e-12)

    def test_large_positive_gap_vanishes(self):
        out = relation_bpr_loss(ad.Tensor(np.array([40.0])), ad.Tensor(np.array([0.0])))
        assert 0.0 <= out.data[0] < 1e-12

    def test_large_negative_gap_stays_finite(self):
        out = relation_bpr_loss(ad.Tensor(np.array([0.0])), ad.Tensor(np.array([40.0])))
        assert out.data[0] == pytest.approx(40.0, rel=1e-10)
        assert np.isfinite(out.data[0])


class TestTotalLoss:
    def _reg(self, params):
        return regularization_term(params)

    def test_ranking_only(self):
        params = {"w": ad.Tensor(np.array([1.0, 2.0]))}
        term = ad.Tensor(np.array(3.5))
        total, br = total_loss([term], [1.0], None, 0.0, self._reg(params), 0.0)
        assert total.data == pytest.approx(3.5)
        assert br.relation == 0.0 and br.regularization == 0.0

    def test_empty_batches_reg_only(self):
        params = {"w": ad.Tensor(np.array([1.0, 2.0]))}
        total, br = total_loss([None], [1.0], None, 0.5, self._reg(params), 0.1)
        assert total.data == pytest.approx(0.1 * 5.0)
        assert br.total == pytest.approx(br.regularization)

    def test_tiny_fixed_batch_matches_scalar_oracle(self):
        pos = np.array([0.2, 1.4])
        neg = np.array([0.5, -0.3])
        rpos = np.array([0.9])
        rneg = np.array([1.1])
        w = np.array([0.5, -1.5])
        alphas = [0.6]
        beta, lam = 0.3, 0.01

        rank = margin_bpr_loss(ad.Tensor(pos), ad.Tensor(neg)).sum()
        rel = relation_bpr_loss(ad.Tensor(rpos), ad.Tensor(rneg)).sum()
        params = {"w": ad.Tensor(w)}
        total, br = total_loss([rank], alphas, rel, beta,
                               self._reg(params), lam)

        # scalar loop oracle
        want = 0.0
        for p, q in zip(pos, neg):
            want += alphas[0] * max(0.0, 1.0 - p + q)
        for p, q in zip(rpos, rneg):
            want += beta * (-np.log(1.0 / (1.0 + np.exp(-(p - q)))))
        want += lam * sum(x * x for x in w)
        assert total.data == pytest.approx(want, abs=1e-10)
        assert br.total == pytest.approx(want, abs=1e-10)

    def test_total_is_nonnegative(self):
        for _ in range(50):
            pos = ad.Tensor(rng.normal(size=(4,)))
            neg = ad.Tensor(rng.normal(size=(4,)))
            rank = margin_bpr_loss(pos, neg).sum()
            rel = relation_bpr_loss(ad.Tensor(rng.normal(size=(3,))),
                                    ad.Tensor(rng.normal(size=(3,)))).sum()
            params = {"w": ad.Tensor(rng.normal(size=(5,)))}
            total, br = total_loss([rank], [rng.uniform()], rel, rng.uniform(),
                                   regularization_term(params), rng.uniform())
            assert total.data >= 0.0
            assert br.ranking >= 0.0 and br.relation >= 0.0 and br.regularization >= 0.0


def test_hinge_subgradient_zero_at_kink():
    pos = ad.Tensor(np.array([1.0]), requires_grad=True)
    neg = ad.Tensor(np.array([0.0]))
    margin_bpr_loss(pos, neg).sum().backward()  # exactly at the kink
    assert pos.grad[0] == 0.0


class TestRegularizationNode:
    """One tape node against a square, a sum and an add per array: the
    value, the total and every leaf gradient, byte for byte."""

    @staticmethod
    def leaves(dtype, seed):
        r = np.random.default_rng(seed)
        shapes = [(4, 3), (3,), (2, 2, 3), (), (5, 1)]
        return {f"p{i}": ad.Tensor(r.normal(size=shape).astype(dtype), requires_grad=True)
                for i, shape in enumerate(shapes)}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lam", [0.0, 1e-4, 0.37])
    def test_bytes_of_the_tape_nodes(self, dtype, lam):
        results = []
        for reg in (regularization_term, tape_regularization):
            params = self.leaves(dtype, 3)
            c = ad.constant(np.random.default_rng(4).normal(size=(3,)).astype(dtype))
            # a model term that reaches some arrays before the regularization
            rank = ((params["p0"] * c).sum() + (params["p2"] * c * c).sum()
                    + (params["p3"] * params["p0"]).sum())
            term = reg(params)
            total, br = total_loss([rank], [0.5], None, 0.0, term, lam)
            total.backward()
            results.append((term.data, total.data, br,
                            {k: t.grad for k, t in params.items()}))
        (term, total, br, grads), (term_w, total_w, br_w, grads_w) = results
        assert term.dtype == term_w.dtype == dtype
        assert term.tobytes() == term_w.tobytes()
        assert total.tobytes() == total_w.tobytes() and br == br_w
        for k in grads_w:
            if lam == 0.0 and k in ("p1", "p4"):
                assert grads[k] is None and grads_w[k] is None
            else:
                assert grads[k].tobytes() == grads_w[k].tobytes(), k

    def test_arrays_off_the_tape_get_no_gradient(self):
        params = {"a": ad.Tensor(np.array([1.0, -2.0]), requires_grad=True),
                  "b": ad.Tensor(np.array([3.0]))}
        term = regularization_term(params)
        assert term.data == 14.0
        term.backward()
        np.testing.assert_array_equal(params["a"].grad, [2.0, -4.0])
        assert params["b"].grad is None
