import numpy as np
import pytest

from ckml import autodiff as ad
from ckml.dataio import build_behavior_graphs
from ckml.fbc import (BehaviorContext, correlate_shared, plain_aggregation_layer,
                      propagate_layer, route_behavior_layer,
                      routed_mean_before_aggregation)
from ckml.numerics import NumericError

from naive_routing import naive_route, naive_route_and_aggregate

rng = np.random.default_rng(7)


def make_ctx(edges, M, N):
    records = [(u, i, 0, t) for t, (u, i) in enumerate(edges)]
    graph = build_behavior_graphs(records, M, N, 1)[0]
    return BehaviorContext(graph)


def tensors(M, N, S, D, scale=1.0):
    x = ad.Tensor(rng.normal(size=(M, S, D)) * scale)
    g = ad.Tensor(rng.normal(size=(N, S, D)) * scale)
    return x, g


class TestRouting:
    def test_uniform_coefficients_give_plain_mean(self):
        # single interest, one user with neighbors holding 1.0 and 2.0
        ctx = make_ctx([(0, 0), (0, 1)], 1, 2)
        x = ad.Tensor(np.zeros((1, 1, 1)))
        g = ad.Tensor(np.array([[[1.0]], [[2.0]]]))
        h_u, _ = routed_mean_before_aggregation(ctx, x, g, None, None, 1.0, 1)
        assert h_u.data[0, 0, 0] == pytest.approx(1.5)

    def test_first_iteration_distribution_exactly_uniform(self):
        ctx = make_ctx([(0, 0), (0, 1), (1, 1)], 2, 2)
        for tau in (0.1, 1.0, 20.0):
            x, g = tensors(2, 2, 4, 3)
            _, _, state = route_behavior_layer(ctx, x, g, None, None, tau, 1,
                                               "light", collect_state=True)
            c_user, c_item = state.coefficients[0]
            np.testing.assert_array_equal(c_user, np.full_like(c_user, 0.25))
            np.testing.assert_array_equal(c_item, np.full_like(c_item, 0.25))

    def test_matches_naive_oracle_small_case(self):
        # 1 user, 2 items, two interests, two iterations, light aggregation
        edges = [(0, 0), (0, 1)]
        ctx = make_ctx(edges, 1, 2)
        x = ad.Tensor(rng.normal(size=(1, 2, 2)) * 0.3)
        g = ad.Tensor(rng.normal(size=(2, 2, 2)) * 0.3)
        h_u, h_i, _ = route_behavior_layer(ctx, x, g, None, None, 1.0, 2, "light")
        want_u, want_i = naive_route_and_aggregate(
            edges, 1, 2, x.data, g.data, np.zeros_like(x.data),
            np.zeros_like(g.data), 1.0, 2)
        np.testing.assert_allclose(h_u.data, want_u, atol=1e-10)
        np.testing.assert_allclose(h_i.data, want_i, atol=1e-10)

    def test_per_edge_distributions_sum_to_one(self):
        edges = [(u, i) for u in range(4) for i in rng.choice(6, 3, replace=False)]
        ctx = make_ctx(edges, 4, 6)
        x, g = tensors(4, 6, 3, 4)
        _, _, state = route_behavior_layer(ctx, x, g, None, None, 0.7, 3,
                                           "light", collect_state=True)
        for c_user, c_item in state.coefficients:
            np.testing.assert_allclose(c_user.sum(axis=1), 1.0, atol=1e-6)
            np.testing.assert_allclose(c_item.sum(axis=1), 1.0, atol=1e-6)

    def test_argmax_invariant_under_temperature(self):
        # different temperatures applied to the SAME logits never change the
        # winning interest (sharpness changes, the argmax does not)
        from ckml.numerics import softmax_with_temperature
        edges = [(u, i) for u in range(3) for i in range(4)]
        ctx = make_ctx(edges, 3, 4)
        x, g = tensors(3, 4, 4, 2)
        _, _, state = route_behavior_layer(ctx, x, g, None, None, 1.0, 3,
                                           "light", collect_state=True)
        for logits_u, logits_i in state.logits:
            for logits in (logits_u, logits_i):
                base = np.argmax(logits, axis=1)
                for tau in (0.25, 1.0, 5.0, 17.0):
                    dist = softmax_with_temperature(logits, tau)
                    np.testing.assert_array_equal(np.argmax(dist, axis=1), base)

    def test_single_interest_reduces_to_row_mean(self):
        edges = [(0, 0), (0, 1), (1, 0), (2, 2), (1, 2)]
        ctx = make_ctx(edges, 3, 3)
        x, g = tensors(3, 3, 1, 5)
        for n_iter in (1, 3):
            h_u, h_i = routed_mean_before_aggregation(ctx, x, g, None, None,
                                                      2.0, n_iter)
            mean_u = np.zeros_like(x.data)
            mean_i = np.zeros_like(g.data)
            for u in range(3):
                items = [i for (uu, i) in edges if uu == u]
                if items:
                    mean_u[u] = g.data[items].mean(axis=0)
            for i in range(3):
                users = [u for (u, ii) in edges if ii == i]
                if users:
                    mean_i[i] = x.data[users].mean(axis=0)
            np.testing.assert_allclose(h_u.data, mean_u, atol=1e-12)
            np.testing.assert_allclose(h_i.data, mean_i, atol=1e-12)

    def test_zero_norm_states_stay_finite(self):
        edges = [(0, 0), (0, 1), (1, 1)]
        ctx = make_ctx(edges, 2, 2)
        for trial in range(25):
            x = rng.normal(size=(2, 2, 3))
            g = rng.normal(size=(2, 2, 3))
            if trial % 3 == 0:
                x[rng.integers(2)] = 0.0
            if trial % 3 == 1:
                g[rng.integers(2)] = 0.0
            h_u, h_i, _ = route_behavior_layer(ctx, ad.Tensor(x), ad.Tensor(g),
                                               None, None, 0.5, 3, "light")
            assert np.all(np.isfinite(h_u.data))
            assert np.all(np.isfinite(h_i.data))

    def test_isolated_nodes_output_zero(self):
        ctx = make_ctx([(0, 0)], 3, 2)
        x, g = tensors(3, 2, 2, 2)
        h_u, h_i, _ = route_behavior_layer(ctx, x, g, None, None, 1.0, 2, "light")
        np.testing.assert_array_equal(h_u.data[1], 0.0)
        np.testing.assert_array_equal(h_u.data[2], 0.0)
        np.testing.assert_array_equal(h_i.data[1], 0.0)

    def test_empty_graph_outputs_zero(self):
        ctx = make_ctx([], 2, 2)
        x, g = tensors(2, 2, 2, 2)
        h_u, h_i, _ = route_behavior_layer(ctx, x, g, None, None, 1.0, 1, "light")
        np.testing.assert_array_equal(h_u.data, 0.0)
        np.testing.assert_array_equal(h_i.data, 0.0)

    def test_invalid_arguments(self):
        ctx = make_ctx([(0, 0)], 1, 1)
        x, g = tensors(1, 1, 1, 2)
        with pytest.raises(NumericError):
            route_behavior_layer(ctx, x, g, None, None, 0.0, 1, "light")
        with pytest.raises(NumericError):
            route_behavior_layer(ctx, x, g, None, None, 1.0, 0, "light")

    def test_time_offsets_enter_initial_states(self):
        edges = [(0, 0)]
        ctx = make_ctx(edges, 1, 1)
        x = ad.Tensor(np.zeros((1, 1, 2)))
        g = ad.Tensor(np.zeros((1, 1, 2)))
        ti = ad.Tensor(np.full((1, 1, 2), 3.0))
        h_u, _ = routed_mean_before_aggregation(ctx, x, g, None, ti, 1.0, 1)
        np.testing.assert_allclose(h_u.data[0, 0], [3.0, 3.0])

    def test_oracle_agreement_with_time_offsets(self):
        edges = [(0, 0), (0, 2), (1, 1), (1, 2)]
        ctx_records = [(u, i, 0, 10 * (n + 1)) for n, (u, i) in enumerate(edges)]
        graph = build_behavior_graphs(ctx_records, 2, 3, 1)[0]
        ctx = BehaviorContext(graph)
        x = rng.normal(size=(2, 2, 2))
        g = rng.normal(size=(3, 2, 2))
        tu = rng.normal(size=(2, 2, 2)) * 0.1
        ti = rng.normal(size=(3, 2, 2)) * 0.1
        h_u, h_i, _ = route_behavior_layer(
            ctx, ad.Tensor(x), ad.Tensor(g), ad.Tensor(tu), ad.Tensor(ti),
            0.8, 3, "light")
        want_u, want_i = naive_route_and_aggregate(
            [tuple(e) for e in graph.edges], 2, 3, x, g, tu, ti, 0.8, 3)
        np.testing.assert_allclose(h_u.data, want_u, atol=1e-10)
        np.testing.assert_allclose(h_i.data, want_i, atol=1e-10)


def scalar_attention_oracle(sha, Q, K_, V, heads):
    """Loop/scalar oracle for the cross-behavior attention, one node."""
    K_beh, S, d_star = sha.shape
    c = d_star // heads
    out = np.zeros_like(sha)
    for k in range(K_beh):
        for s in range(S):
            pieces = []
            for h in range(heads):
                chunk = slice(h * c, (h + 1) * c)
                lam_bar = np.zeros(K_beh)
                for k2 in range(K_beh):
                    q = Q[h] @ sha[k, s, chunk]
                    key = K_[h] @ sha[k2, s, chunk]
                    lam_bar[k2] = float(q @ key) / np.sqrt(c)
                lam = np.exp(lam_bar - lam_bar.max())
                lam = lam / lam.sum()
                acc = np.zeros(c)
                for k2 in range(K_beh):
                    acc += lam[k2] * (V[h] @ sha[k2, s, chunk])
                pieces.append(acc)
            residual = sha[:, s, :].sum(axis=0)
            out[k, s] = np.concatenate(pieces) + residual
    return out


class TestCorrelateShared:
    def test_single_behavior_is_projection_plus_residual(self):
        V_nodes, S, d_star, H = 3, 2, 4, 2
        sha = ad.Tensor(rng.normal(size=(V_nodes, S, d_star)))
        q = ad.Tensor(rng.normal(size=(H, 2, 2)))
        k = ad.Tensor(rng.normal(size=(H, 2, 2)))
        v = ad.Tensor(rng.normal(size=(H, 2, 2)))
        outs, lam = correlate_shared([sha], q, k, v, H)
        np.testing.assert_allclose(lam.data, 1.0, atol=1e-12)
        want = np.zeros_like(sha.data)
        for h in range(H):
            chunk = slice(h * 2, (h + 1) * 2)
            want[..., chunk] = sha.data[..., chunk] @ v.data[h].T
        want += sha.data
        np.testing.assert_allclose(outs[0].data, want, atol=1e-12)

    def test_zero_inputs_zero_outputs(self):
        z = [ad.Tensor(np.zeros((2, 1, 4))) for _ in range(3)]
        q = ad.Tensor(rng.normal(size=(2, 2, 2)))
        outs, _ = correlate_shared(z, q, q, q, 2)
        for o in outs:
            np.testing.assert_array_equal(o.data, 0.0)

    def test_matches_scalar_oracle(self):
        K_beh, V_nodes, S, d_star, H = 2, 3, 2, 2, 1
        sha = rng.normal(size=(K_beh, V_nodes, S, d_star))
        q = rng.normal(size=(H, 2, 2))
        k = rng.normal(size=(H, 2, 2))
        v = rng.normal(size=(H, 2, 2))
        outs, lam = correlate_shared(
            [ad.Tensor(sha[i]) for i in range(K_beh)],
            ad.Tensor(q), ad.Tensor(k), ad.Tensor(v), H)
        for node in range(V_nodes):
            want = scalar_attention_oracle(sha[:, node], q, k, v, H)
            got = np.stack([outs[i].data[node] for i in range(K_beh)])
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_lambda_sums_to_one_over_behaviors(self):
        K_beh = 3
        sha = [ad.Tensor(rng.normal(size=(4, 2, 4))) for _ in range(K_beh)]
        q = ad.Tensor(rng.normal(size=(2, 2, 2)))
        _, lam = correlate_shared(sha, q, q, q, 2)
        np.testing.assert_allclose(lam.data.sum(axis=1), 1.0, atol=1e-6)

    def test_head_count_must_divide(self):
        sha = [ad.Tensor(rng.normal(size=(2, 1, 4)))]
        q = ad.Tensor(rng.normal(size=(3, 1, 1)))
        with pytest.raises(ValueError):
            correlate_shared(sha, q, q, q, 3)


class TestPropagateLayer:
    def test_zero_routed_gives_residual_identity(self):
        prev = ad.Tensor(rng.normal(size=(3, 4, 2)))
        spe = ad.Tensor(np.zeros((3, 2, 2)))
        sha = ad.Tensor(np.zeros((3, 2, 2)))
        out = propagate_layer(spe, sha, prev)
        np.testing.assert_array_equal(out.data, prev.data)

    def test_zero_previous_gives_concat(self):
        spe = ad.Tensor(rng.normal(size=(2, 1, 3)))
        sha = ad.Tensor(rng.normal(size=(2, 2, 3)))
        prev = ad.Tensor(np.zeros((2, 3, 3)))
        out = propagate_layer(spe, sha, prev)
        np.testing.assert_array_equal(out.data[:, :1], spe.data)
        np.testing.assert_array_equal(out.data[:, 1:], sha.data)

    def test_random_case_concat_plus_add(self):
        spe = rng.normal(size=(2, 2, 3))
        sha = rng.normal(size=(2, 1, 3))
        prev = rng.normal(size=(2, 3, 3))
        out = propagate_layer(ad.Tensor(spe), ad.Tensor(sha), ad.Tensor(prev))
        want = np.concatenate([spe, sha], axis=1) + prev
        np.testing.assert_allclose(out.data, want, atol=1e-12)


class TestNoRoutingReplacement:
    def test_agrees_with_routing_reduction_on_biregular_graph(self):
        # 4-cycle: every degree is 2, so the symmetric-degree pass equals the
        # row mean, which is exactly the single-interest routing reduction.
        edges = [(0, 0), (0, 1), (1, 0), (1, 1)]
        ctx = make_ctx(edges, 2, 2)
        x, g = tensors(2, 2, 1, 4)
        agg_u, agg_i = plain_aggregation_layer(ctx, x, g, None, None, "light")
        route_u, route_i = routed_mean_before_aggregation(ctx, x, g, None, None,
                                                          1.0, 2)
        np.testing.assert_allclose(agg_u.data, route_u.data, atol=1e-10)
        np.testing.assert_allclose(agg_i.data, route_i.data, atol=1e-10)

    def test_pass_keeps_shapes_and_handles_isolates(self):
        ctx = make_ctx([(0, 0)], 2, 3)
        x, g = tensors(2, 3, 2, 2)
        h_u, h_i = plain_aggregation_layer(ctx, x, g, None, None, "light")
        assert h_u.shape == (2, 2, 2)
        np.testing.assert_array_equal(h_u.data[1], 0.0)
        np.testing.assert_array_equal(h_i.data[1], 0.0)
