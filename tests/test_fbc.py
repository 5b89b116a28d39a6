import os
import platform
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ckml import autodiff as ad
from ckml import cie, fbc
from ckml.dataio import build_behavior_graphs
from ckml.fbc import (BehaviorContext, _aggregate, _route, correlate_shared,
                      plain_aggregation_layer, route_behavior_layer)
from ckml.numerics import NumericError, finite_difference_gradcheck

import naive_autodiff as nad
from naive_numerics import bipartite_normalized_adjacencies, from_edges
from naive_routing import (composed_correlate_shared, mask_built_rows, naive_route,
                           naive_route_and_aggregate, one_hot_offsets, per_edge_route,
                           projected_left_to_right, propagate_layer, recorded_coefficients,
                           route_with_offsets, row_buckets, tape_route)

rng = np.random.default_rng(7)


def make_ctx(edges, M, N):
    records = [(u, i, 0, t) for t, (u, i) in enumerate(edges)]
    graph = build_behavior_graphs(records, M, N, 1)[0]
    return BehaviorContext(graph)


def as_rows(n, rows):
    """The node rows `rows` of n, an ascending index array or a slice of
    every row, as `fbc.Rows`."""
    return fbc.Rows(n, None if isinstance(rows, slice) else rows)


def marked(masks):
    """Masks over node rows, or None, as `fbc.Rows`."""
    return None if masks is None else tuple(map(fbc.Rows.marked, masks))


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
        h_u, _, _ = _route(ctx, x, g, None, None, 1.0, 1)
        assert h_u.data[0, 0, 0] == pytest.approx(1.5)

    def test_first_iteration_distribution_exactly_uniform(self):
        ctx = make_ctx([(0, 0), (0, 1), (1, 1)], 2, 2)
        for tau in (0.1, 1.0, 20.0):
            x, g = tensors(2, 2, 4, 3)
            with recorded_coefficients() as coeffs:
                route_behavior_layer(ctx, x, g, None, None, tau, 1, "light")
            assert len(coeffs) == 2  # one iteration per side
            for c in coeffs:
                np.testing.assert_array_equal(c, np.full_like(c, 0.25))

    def test_matches_naive_oracle_small_case(self):
        # 1 user, 2 items, two interests, two iterations, light aggregation
        edges = [(0, 0), (0, 1)]
        ctx = make_ctx(edges, 1, 2)
        x = ad.Tensor(rng.normal(size=(1, 2, 2)) * 0.3)
        g = ad.Tensor(rng.normal(size=(2, 2, 2)) * 0.3)
        h_u, h_i = route_behavior_layer(ctx, x, g, None, None, 1.0, 2, "light")
        want_u, want_i = naive_route_and_aggregate(
            edges, 1, 2, x.data, g.data, np.zeros_like(x.data),
            np.zeros_like(g.data), 1.0, 2)
        np.testing.assert_allclose(h_u.data, want_u, atol=1e-10)
        np.testing.assert_allclose(h_i.data, want_i, atol=1e-10)

    def test_per_edge_distributions_sum_to_one(self):
        edges = [(u, i) for u in range(4) for i in rng.choice(6, 3, replace=False)]
        ctx = make_ctx(edges, 4, 6)
        x, g = tensors(4, 6, 3, 4)
        with recorded_coefficients() as coeffs:
            route_behavior_layer(ctx, x, g, None, None, 0.7, 3, "light")
        assert len(coeffs) == 6  # three iterations per side
        for c in coeffs:
            np.testing.assert_allclose(c.sum(axis=0), 1.0, atol=1e-6)

    def test_argmax_invariant_under_temperature(self):
        # different temperatures applied to the SAME logits never change the
        # winning interest (sharpness changes, the argmax does not)
        from naive_numerics import softmax_with_temperature
        edges = [(u, i) for u in range(3) for i in range(4)]
        ctx = make_ctx(edges, 3, 4)
        x, g = tensors(3, 4, 4, 2)
        _, _, state = tape_route(ctx, x, g, None, None, 1.0, 3, collect_state=True)
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
            h_u, h_i, _ = _route(ctx, x, g, None, None, 2.0, n_iter)
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
            h_u, h_i = route_behavior_layer(ctx, ad.Tensor(x), ad.Tensor(g),
                                            None, None, 0.5, 3, "light")
            assert np.all(np.isfinite(h_u.data))
            assert np.all(np.isfinite(h_i.data))

    def test_isolated_nodes_output_zero(self):
        ctx = make_ctx([(0, 0)], 3, 2)
        x, g = tensors(3, 2, 2, 2)
        h_u, h_i = route_behavior_layer(ctx, x, g, None, None, 1.0, 2, "light")
        np.testing.assert_array_equal(h_u.data[1], 0.0)
        np.testing.assert_array_equal(h_u.data[2], 0.0)
        np.testing.assert_array_equal(h_i.data[1], 0.0)

    def test_empty_graph_outputs_zero(self):
        ctx = make_ctx([], 2, 2)
        x, g = tensors(2, 2, 2, 2)
        h_u, h_i = route_behavior_layer(ctx, x, g, None, None, 1.0, 1, "light")
        np.testing.assert_array_equal(h_u.data, 0.0)
        np.testing.assert_array_equal(h_i.data, 0.0)

    @pytest.mark.parametrize("aggregator", ["light", "gccf", "gcn", "ngcf"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("reached", [False, True])
    def test_graph_without_edges_routes_to_positive_zeros(self, aggregator, dtype, reached):
        # no shortcut: the routing path itself gives +0.0 rows and +0.0
        # gradients, through every aggregator
        ctx = BehaviorContext(build_behavior_graphs([], 3, 4, 1)[0], np.dtype(dtype))
        S, D = 2, 3
        x, g, tu, ti = (ad.Tensor(rng.normal(size=(n, S, D)).astype(dtype), requires_grad=True)
                        for n in (3, 4, 3, 4))
        weights = {name: ad.Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
                   for name, shape in cie.aggregator_weight_shapes(aggregator, S * D)}
        reach = marked((np.arange(3) < 2, np.ones(4, bool))) if reached else None
        h_u, h_i = route_behavior_layer(ctx, x, g, row_buckets(tu), row_buckets(ti), 0.7, 3,
                                        aggregator, weights or None, reach=reach)
        for h, n in ((h_u, 3), (h_i, 4)):
            assert h.shape == (n, S, D) and h.dtype == dtype
            assert not np.any(h.data) and not np.signbit(h.data).any()
        (h_u.sum() + h_i.sum()).backward()
        for t in (x, g, tu, ti):
            assert t.grad.dtype == dtype
            assert not np.any(t.grad) and not np.signbit(t.grad).any()

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
        ti = row_buckets(ad.Tensor(np.full((1, 1, 2), 3.0)))
        h_u, _, _ = _route(ctx, x, g, None, ti, 1.0, 1)
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
        h_u, h_i = route_behavior_layer(
            ctx, ad.Tensor(x), ad.Tensor(g), row_buckets(ad.Tensor(tu)),
            row_buckets(ad.Tensor(ti)), 0.8, 3, "light")
        want_u, want_i = naive_route_and_aggregate(
            [tuple(e) for e in graph.edges], 2, 3, x, g, tu, ti, 0.8, 3)
        np.testing.assert_allclose(h_u.data, want_u, atol=1e-10)
        np.testing.assert_allclose(h_i.data, want_i, atol=1e-10)


@st.composite
def routing_cases(draw):
    """(edges, M, N, S, D, time offsets?, tau, n_iter, seed); the node counts
    may exceed the nodes any edge names, so isolated nodes are common."""
    M = draw(st.integers(1, 4))
    N = draw(st.integers(1, 5))
    pairs = [(u, i) for u in range(M) for i in range(N)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=10, unique=True))
    return (edges, M, N, draw(st.integers(1, 3)), draw(st.integers(1, 3)),
            draw(st.booleans()), draw(st.sampled_from([0.3, 1.0, 2.5])),
            draw(st.integers(1, 3)), draw(st.integers(0, 2**32 - 1)))


def routed_loss(route, ctx, arrays, weights, tau, n_iter):
    """Weighted sum of both routed stacks, plus the leaf tensors it ran on."""
    leaves = [ad.Tensor(a, requires_grad=True) if a is not None else None
              for a in arrays]
    h_u, h_i = route(ctx, *leaves, tau, n_iter)[:2]
    loss = (h_u * weights[0]).sum() + (h_i * weights[1]).sum()
    loss.backward()
    return h_u, h_i, leaves


def gradcheck_case(n_iter):
    """(loss_fn, params) for a finite-difference check of `_route`. User 2
    and item 3 have no edges, so their per-node states are zero rows; the
    mask zeroes user 0's first interest row, as the model's block mask
    does. Both pass through the l2 guard."""
    edges = [(0, 0), (0, 1), (1, 1), (1, 2), (0, 2)]
    ctx = make_ctx(edges, 3, 4)
    case_rng = np.random.default_rng(11)
    mask = np.ones((3, 2, 3))
    mask[0, 0] = 0.0
    w_u = ad.constant(case_rng.normal(size=(3, 2, 3)))
    w_i = ad.constant(case_rng.normal(size=(4, 2, 3)))

    def loss_fn(t):
        h_u, h_i, _ = _route(ctx, t["x"] * mask, t["g"], None, row_buckets(t["time_i"]), 0.7,
                             n_iter)
        return (h_u * w_u).sum() + (h_i * w_i).sum()

    params = {"x": case_rng.normal(size=(3, 2, 3)),
              "g": case_rng.normal(size=(4, 2, 3)),
              "time_i": case_rng.normal(size=(4, 2, 3)) * 0.1}
    return loss_fn, params


class TestRouteMatchesPerEdgeReference:
    """Per-node normalization and incidence products against the routing
    that normalized the gathered edge rows and scattered with `np.add.at`."""

    @given(routing_cases())
    @settings(max_examples=120, deadline=None)
    def test_forward_bitwise_and_gradients_close(self, case):
        edges, M, N, S, D, timed, tau, n_iter, seed = case
        case_rng = np.random.default_rng(seed)
        ctx = make_ctx(edges, M, N)
        arrays = [case_rng.normal(size=(M, S, D)), case_rng.normal(size=(N, S, D)),
                  case_rng.normal(size=(M, S, D)) * 0.1 if timed else None,
                  case_rng.normal(size=(N, S, D)) * 0.1 if timed else None]
        weights = [case_rng.normal(size=(M, S, D)), case_rng.normal(size=(N, S, D))]
        got = routed_loss(route_with_offsets, ctx, arrays, weights, tau, n_iter)
        want = routed_loss(per_edge_route, ctx, arrays, weights, tau, n_iter)
        for g_stack, w_stack in zip(got[:2], want[:2]):
            assert g_stack.data.tobytes() == w_stack.data.tobytes()
        # The two backwards add in different orders, so an entry that is a
        # sum of cancelling terms may differ by rounding on the array's
        # largest terms: held to rtol plus 1e-12 of the largest entry.
        for g_leaf, w_leaf in zip(got[2], want[2]):
            if g_leaf is not None:
                np.testing.assert_allclose(g_leaf.grad, w_leaf.grad, rtol=1e-12,
                                           atol=1e-12 * np.abs(w_leaf.grad).max())

    def test_gradcheck_with_isolated_nodes_and_zero_rows(self):
        loss_fn, params = gradcheck_case(n_iter=3)
        report = finite_difference_gradcheck(loss_fn, params, epsilon=1e-5)
        assert report.overall < 1e-7, report.per_parameter

        t = {k: ad.Tensor(v, requires_grad=True) for k, v in params.items()}
        loss_fn(t).backward()
        assert all(np.all(np.isfinite(v.grad)) for v in t.values())
        np.testing.assert_array_equal(t["x"].grad[0, 0], 0.0)
        np.testing.assert_array_equal(t["x"].grad[2], 0.0)

    @pytest.mark.parametrize("n_iter", [1, 2])
    def test_gradcheck_with_fewer_iterations(self, n_iter):
        report = finite_difference_gradcheck(*gradcheck_case(n_iter), epsilon=1e-5)
        assert report.overall < 1e-7, report.per_parameter


@st.composite
def typed_routing_cases(draw):
    """`routing_cases` with S up to 4 and the leaves' dtypes: all float64,
    all float32, or float32 user-side and float64 item-side leaves."""
    edges, M, N, _, D, timed, tau, n_iter, seed = draw(routing_cases())
    return (edges, M, N, draw(st.integers(1, 4)), D, timed, tau, n_iter, seed,
            draw(st.sampled_from(["f64", "f32", "mixed"])))


def typed_arrays(case_rng, M, N, S, D, timed, dtypes):
    user_t, item_t = {"f64": (np.float64, np.float64), "f32": (np.float32, np.float32),
                      "mixed": (np.float32, np.float64)}[dtypes]
    return [case_rng.normal(size=(M, S, D)).astype(user_t),
            case_rng.normal(size=(N, S, D)).astype(item_t),
            (case_rng.normal(size=(M, S, D)) * 0.1).astype(user_t) if timed else None,
            (case_rng.normal(size=(N, S, D)) * 0.1).astype(item_t) if timed else None]


@contextmanager
def float64_gradients():
    """Run the tape with every gradient kept in float64 instead of rounded
    to its node's dtype."""
    original = ad.Tensor._accumulate

    def accumulate(self, g):
        self.grad = g.astype(np.float64) if self.grad is None else self.grad + g
    ad.Tensor._accumulate = accumulate
    try:
        yield
    finally:
        ad.Tensor._accumulate = original


class TestRouteMatchesTapeReference:
    """The fused per-side routing nodes against the same routing composed of
    tape ops (`tape_route`)."""

    @given(typed_routing_cases())
    @settings(max_examples=150, deadline=None)
    def test_forward_state_and_gradients(self, case):
        edges, M, N, S, D, timed, tau, n_iter, seed, dtypes = case
        case_rng = np.random.default_rng(seed)
        ctx = make_ctx(edges, M, N)
        arrays = typed_arrays(case_rng, M, N, S, D, timed, dtypes)
        weights = [case_rng.normal(size=(M, S, D)), case_rng.normal(size=(N, S, D))]
        spied, states = [], []

        def spied_route(*args):  # the backward runs outside the spy
            with recorded_coefficients() as calls:
                out = route_with_offsets(*args)
            spied.extend(calls)
            return out

        def logged_route(*args):
            out = tape_route(*args, collect_state=True)
            states.append(out[2])
            return out
        got = routed_loss(spied_route, ctx, arrays, weights, tau, n_iter)
        want = routed_loss(logged_route, ctx, arrays, weights, tau, n_iter)

        for g_stack, w_stack in zip(got[:2], want[:2]):
            assert g_stack.dtype == w_stack.dtype
            assert g_stack.data.tobytes() == w_stack.data.tobytes()
        # the user side's iterations, then the item side's; each iteration's
        # logits are compared through the coefficients they produce
        want_coeffs = [pair[side] for side in (0, 1) for pair in states[0].coefficients]
        assert len(spied) == len(want_coeffs) == 2 * n_iter
        for a, b in zip(spied, want_coeffs):
            assert a.dtype == b.dtype and a.T.shape == b.shape
            assert a.T.tobytes() == b.tobytes()
        # The tape rounds each float32 node's gradient to float32, the fused
        # backward only its result, so float32 leaves are held to the tape
        # with its gradients kept in float64: within 4 float32 ulps of the
        # array's largest entry (at most 1.6 seen over 8,000 random cases).
        # With d* = 1 a unit row is the sign of its entry: its exact
        # derivative is zero and both backwards leave a rounding residual
        # that grows as 1/|entry|, so only the dtype is compared there.
        with float64_gradients():
            exact = routed_loss(lambda *a: tape_route(*a, collect_state=False),
                                ctx, arrays, weights, tau, n_iter)
        for g_leaf, w_leaf, e_leaf in zip(got[2], want[2], exact[2]):
            if g_leaf is None:
                continue
            assert g_leaf.grad.dtype == w_leaf.grad.dtype == g_leaf.dtype
            if g_leaf.dtype == np.float64:
                np.testing.assert_allclose(g_leaf.grad, w_leaf.grad, rtol=1e-12,
                                           atol=1e-12 * np.abs(w_leaf.grad).max())
            elif D > 1:
                ulp = np.finfo(np.float32).eps * np.abs(e_leaf.grad).max()
                assert np.abs(g_leaf.grad - e_leaf.grad).max() <= 4 * ulp

    def test_no_gradient_builds_no_closure(self):
        ctx = make_ctx([(0, 0), (0, 1), (1, 1)], 2, 3)
        x, g = tensors(2, 3, 2, 3)
        h_u, h_i, _ = _route(ctx, x, g, None, None, 1.0, 3)
        for out in (h_u, h_i):
            assert not out.requires_grad
            assert out._backward is None and out._parents == ()

    def test_each_side_has_the_other_sides_states_as_parent(self):
        ctx = make_ctx([(0, 0), (0, 1), (1, 1)], 2, 3)
        x = ad.Tensor(rng.normal(size=(2, 2, 3)), requires_grad=True)
        g = ad.Tensor(rng.normal(size=(3, 2, 3)), requires_grad=True)
        h_u, h_i, _ = _route(ctx, x, g, None, None, 1.0, 2)
        assert h_u._parents == (g,) and h_i._parents == (x,)


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


@st.composite
def attention_cases(draw):
    """Behaviors K, nodes V, shared interests S, heads H, chunk width c, an
    rng seed and whether Q, K and V are one tensor."""
    return (draw(st.integers(1, 3)), draw(st.sampled_from([1, 2, 5, 37])),
            draw(st.integers(1, 3)), draw(st.integers(1, 3)),
            draw(st.sampled_from([1, 2, 3, 4, 8])),
            draw(st.integers(0, 2**32 - 1)), draw(st.booleans()))


def attention_loss(correlate, stacks, projs, weights, heads):
    """Weighted sum of the attention's outputs on fresh leaves; returns the
    outputs, the attention weights and the leaves."""
    leaves = [ad.Tensor(a, requires_grad=True) for a in stacks]
    proj_leaves = [ad.Tensor(a, requires_grad=True) for a in projs]
    if len(proj_leaves) == 1:
        proj_leaves *= 3
    outs, lam = correlate(leaves, *proj_leaves, heads)
    ad.add_all([(o * w).sum() for o, w in zip(outs, weights)]).backward()
    return outs, lam, leaves + proj_leaves[:len(projs)]


def attention_arrays(case_rng, K, V, S, H, c, one_proj, proj_dtype=np.float64):
    stacks = [case_rng.normal(size=(V, S, H * c)) for _ in range(K)]
    projs = [case_rng.normal(size=(H, c, c)).astype(proj_dtype)
             for _ in range(1 if one_proj else 3)]
    weights = [ad.constant(case_rng.normal(size=(V, S, H * c))) for _ in range(K)]
    return stacks, projs, weights


class TestCorrelateSharedMatchesComposed:
    """The fused attention node against the same attention composed of tape
    ops (`composed_correlate_shared`)."""

    @given(attention_cases())
    @settings(max_examples=120, deadline=None)
    def test_forward_bitwise_and_gradients_close(self, case):
        K, V, S, H, c, seed, one_proj = case
        arrays = attention_arrays(np.random.default_rng(seed), K, V, S, H, c, one_proj)
        got_outs, got_lam, got = attention_loss(correlate_shared, *arrays, H)
        want_outs, want_lam, want = attention_loss(composed_correlate_shared, *arrays, H)
        for a, b in zip(got_outs + [got_lam], want_outs + [want_lam]):
            assert a.shape == b.shape and a.dtype == b.dtype == np.float64
            assert a.data.tobytes() == b.data.tobytes()
        # the backwards sum the same terms in different orders
        for g_leaf, w_leaf in zip(got, want):
            assert g_leaf.grad.dtype == np.float64
            np.testing.assert_allclose(g_leaf.grad, w_leaf.grad, rtol=1e-12,
                                       atol=1e-12 * np.abs(w_leaf.grad).max())

    def test_float32_projections_on_float64_stacks(self):
        # the weights are cast to float64 once; the projections' gradients
        # are summed in different orders before they round to float32
        K, V, S, H, c = 3, 37, 2, 2, 4
        arrays = attention_arrays(np.random.default_rng(5), K, V, S, H, c, False,
                                  np.float32)
        got_outs, got_lam, got = attention_loss(correlate_shared, *arrays, H)
        want_outs, want_lam, want = attention_loss(composed_correlate_shared, *arrays, H)
        for a, b in zip(got_outs + [got_lam], want_outs + [want_lam]):
            assert a.dtype == b.dtype == np.float64
            np.testing.assert_allclose(a.data, b.data, rtol=1e-12,
                                       atol=1e-12 * np.abs(b.data).max())
        for g_leaf, w_leaf in zip(got, want):
            assert g_leaf.grad.dtype == w_leaf.grad.dtype == g_leaf.dtype
            ulp = np.finfo(g_leaf.dtype).eps * np.abs(w_leaf.grad).max()
            assert np.abs(g_leaf.grad - w_leaf.grad).max() <= 4 * ulp

    @pytest.mark.parametrize("K, S, H, c", [(3, 2, 2, 2), (2, 1, 1, 3), (1, 2, 3, 1)])
    def test_gradcheck(self, K, S, H, c):
        V = 3
        case_rng = np.random.default_rng(17)
        stacks, projs, weights = attention_arrays(case_rng, K, V, S, H, c, False)

        def loss_fn(t):
            outs, _ = correlate_shared([t[f"x{k}"] for k in range(K)],
                                       t["Q"], t["K"], t["V"], H)
            return ad.add_all([(o * w).sum() for o, w in zip(outs, weights)])

        params = {f"x{k}": a for k, a in enumerate(stacks)}
        params.update(zip("QKV", projs))
        report = finite_difference_gradcheck(loss_fn, params, epsilon=1e-5)
        assert report.overall < 1e-7, report.per_parameter

    def test_no_gradient_builds_no_closure(self):
        sha = [ad.Tensor(rng.normal(size=(4, 2, 4))) for _ in range(2)]
        q = ad.Tensor(rng.normal(size=(2, 2, 2)))
        outs, lam = correlate_shared(sha, q, q, q, 2)
        for out in outs + [lam]:
            assert not out.requires_grad
            assert out._backward is None and out._parents == ()


class TestCorrelateSharedOnWholeStacks:
    """`n_specific` > 0: the whole stacks against the specific blocks cut
    off, the shared ones correlated by the composed attention, and the two
    glued back together."""

    @given(attention_cases(), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_matches_narrowed_composition(self, case, n_specific):
        K, V, S, H, c, seed, one_proj = case
        stacks, projs, weights = attention_arrays(np.random.default_rng(seed), K, V,
                                                  n_specific + S, H, c, one_proj)

        def whole(leaves, q, k, v, heads):
            return correlate_shared(leaves, q, k, v, heads, n_specific=n_specific)

        def narrowed(leaves, q, k, v, heads):
            spe = [nad.narrow(t, 1, 0, n_specific) for t in leaves]
            sha = [nad.narrow(t, 1, n_specific, S) for t in leaves]
            outs, lam = composed_correlate_shared(sha, q, k, v, heads)
            return [ad.concat(pair, axis=1) for pair in zip(spe, outs)], lam

        got_outs, got_lam, got = attention_loss(whole, stacks, projs, weights, H)
        want_outs, want_lam, want = attention_loss(narrowed, stacks, projs, weights, H)
        for a, b in zip(got_outs + [got_lam], want_outs + [want_lam]):
            assert a.shape == b.shape and a.dtype == b.dtype == np.float64
            assert a.data.tobytes() == b.data.tobytes()
        for g_leaf, w_leaf in zip(got, want):
            np.testing.assert_allclose(g_leaf.grad, w_leaf.grad, rtol=1e-12,
                                       atol=1e-12 * np.abs(w_leaf.grad).max())
        for leaf, w in zip(got, weights):  # d(sum(out * w)) / d(out) is w
            assert (leaf.grad[:, :n_specific].tobytes()
                    == w.data[:, :n_specific].tobytes())


def row_subsets(V, case_rng):
    """Ascending node rows of V: none, one, a random few and every one."""
    return [np.zeros(0, dtype=np.intp), np.array([V // 2]),
            np.sort(case_rng.choice(V, size=max(1, V // 3), replace=False)), np.arange(V)]


class TestCorrelateSharedOnRows:
    """`correlate_shared` on the stacks' rows at some node rows against the
    whole call, with an upstream gradient that is zero outside those rows:
    outputs, weights and stack gradients, each as high as those rows, are
    the whole call's at them, and every projection gradient is the whole
    call's, all bitwise."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c", [1, 2, 4])
    @pytest.mark.parametrize("n_specific", [0, 2])
    def test_rows_keep_the_bytes_of_the_whole_call(self, dtype, c, n_specific):
        K, V, S, H = 3, 61, 2, 2
        case_rng = np.random.default_rng(c * 10 + n_specific)
        stacks = [case_rng.normal(size=(V, n_specific + S, H * c)).astype(dtype)
                  for _ in range(K)]
        projs = [case_rng.normal(size=(H, c, c)).astype(dtype) for _ in range(3)]
        upstream = [case_rng.normal(size=(V, n_specific + S, H * c)).astype(dtype)
                    for _ in range(K)]

        def attended(read, rows):
            mask = np.zeros((V, 1, 1), dtype=dtype)
            mask[read] = 1
            weights = [ad.constant((u * mask)[rows]) for u in upstream]
            leaves = [ad.Tensor(a[rows], requires_grad=True) for a in stacks]
            leaves += [ad.Tensor(a, requires_grad=True) for a in projs]
            outs, lam = correlate_shared(leaves[:K], *leaves[K:], H, n_specific,
                                         as_rows(V, rows))
            ad.add_all([(o * w).sum() for o, w in zip(outs, weights)]).backward()
            return [o.data for o in outs], lam.data, [t.grad for t in leaves]

        for rows in row_subsets(V, case_rng):
            whole_outs, whole_lam, whole_grads = attended(rows, slice(None))
            outs, lam, grads = attended(rows, rows)
            assert lam.shape == (K, K, len(rows), S, H) and lam.dtype == dtype
            assert lam.tobytes() == whole_lam[:, :, rows].tobytes()
            for got, want in zip(outs + grads[:K], whole_outs + whole_grads[:K]):
                assert got.shape == (len(rows),) + want.shape[1:]
                assert got.dtype == want.dtype == dtype
                assert got.tobytes() == want[rows].tobytes()
            for got, want in zip(grads[K:], whole_grads[K:]):
                assert got.dtype == dtype and got.tobytes() == want.tobytes()


class TestCorrelateSharedForReadBehaviors:
    """`correlate_shared` asked for some behaviors' outputs against the call
    that reads every behavior: each read behavior's output and weights keep
    their bytes, and a backward is refused unless every behavior is read."""

    @staticmethod
    def arrays(dtype, c, n_specific, K=3, V=61, S=2, H=2):
        case_rng = np.random.default_rng(c * 10 + n_specific)
        stacks = [case_rng.normal(size=(V, n_specific + S, H * c)).astype(dtype)
                  for _ in range(K)]
        projs = [case_rng.normal(size=(H, c, c)).astype(dtype) for _ in range(3)]
        return stacks, projs

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c", [1, 2, 4, 8, 9])
    @pytest.mark.parametrize("n_specific", [0, 2])
    def test_read_behaviors_keep_their_bytes(self, dtype, c, n_specific):
        stacks, projs = self.arrays(dtype, c, n_specific)
        args = ([ad.Tensor(a) for a in stacks], *(ad.Tensor(p) for p in projs), 2, n_specific)
        whole_outs, whole_lam = correlate_shared(*args)
        for read in ([0], [1], [2], [0, 2], [1, 2], [0, 1, 2]):
            outs, lam = correlate_shared(*args, read=read)
            assert lam.shape == (len(read),) + whole_lam.shape[1:] and lam.dtype == dtype
            assert lam.data.tobytes() == whole_lam.data[read].tobytes()
            assert len(outs) == len(read)
            for k, out in zip(read, outs):
                assert out.dtype == dtype
                assert out.data.tobytes() == whole_outs[k].data.tobytes(), (read, k)

    def test_a_backward_needs_every_behavior_read(self):
        stacks, projs = self.arrays(np.float64, 2, 1)
        for leaf in range(6):  # a stack or a projection that needs a gradient
            leaves = [ad.Tensor(a, requires_grad=i == leaf)
                      for i, a in enumerate(stacks + projs)]
            with pytest.raises(ValueError, match="every behavior read"):
                correlate_shared(leaves[:3], *leaves[3:], 2, 1, read=[0, 2])
            outs, _ = correlate_shared(leaves[:3], *leaves[3:], 2, 1, read=[0, 1, 2])
            ad.add_all([o.sum() for o in outs]).backward()
            assert leaves[leaf].grad is not None


class TestProject:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c", [1, 2, 3, 4, 5, 8, 12])
    def test_rows_of_a_subset_are_rows_of_the_whole(self, c, dtype):
        case_rng = np.random.default_rng(c)
        xh = case_rng.normal(size=(2, 4099, c)).astype(dtype)
        w = case_rng.normal(size=(2, c, c)).astype(dtype)
        whole = fbc._project(xh, w)
        for _ in range(20):
            rows = np.sort(case_rng.choice(4099, size=97, replace=False))
            assert fbc._project(xh[:, rows], w).tobytes() == whole[rows].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c", [1, 2, 3, 4, 5, 8, 12])
    def test_each_entry_adds_its_products_left_to_right(self, c, dtype):
        case_rng = np.random.default_rng(100 + c)
        xh = case_rng.normal(size=(2, 41, c)).astype(dtype)
        xh[:, 3] = -0.0  # a sum that starts from +0.0 would end +0.0 here
        w = case_rng.normal(size=(2, c, c)).astype(dtype)
        got = fbc._project(xh, w)
        assert got.shape == (41, 2, c) and got.dtype == dtype
        assert got.tobytes() == projected_left_to_right(xh, w).tobytes()

    @pytest.mark.parametrize("N", [1, 3, 4, 9, 37])
    @pytest.mark.parametrize("c", [1, 3, 4, 5, 8, 12])
    def test_matches_per_row_products(self, N, c):
        H = 2
        case_rng = np.random.default_rng(N * 100 + c)
        xh = case_rng.normal(size=(H, N, c))
        w = case_rng.normal(size=(H, c, c))
        per_row = np.matmul(xh[:, :, None, :], w.transpose(0, 2, 1)[:, None])
        want = per_row.reshape(H, N, c).transpose(1, 0, 2)
        got = fbc._project(xh, w)
        assert got.shape == (N, H, c)
        np.testing.assert_allclose(got, want, rtol=4 * c * np.finfo(float).eps,
                                   atol=4 * c * np.finfo(float).eps * np.abs(want).max())


class TestAttentionOnOtherKernels:
    # a child prints a digest of the attention's outputs, its weights and the
    # stacks' gradients per dtype and chunk width, and the core of numpy's
    # OpenBLAS; weight gradients are BLAS products, so they are left out
    PROBE = """
import hashlib
import numpy as np
from ckml import autodiff as ad
from ckml.cli import _openblas_cores
from ckml.fbc import correlate_shared
for dtype in (np.float32, np.float64):
    for c in (2, 4, 8):
        case_rng = np.random.default_rng(c)
        stacks = [ad.Tensor(case_rng.normal(size=(1001, 3, 2 * c)).astype(dtype),
                            requires_grad=True) for _ in range(3)]
        projs = [ad.Tensor(case_rng.normal(size=(2, c, c)).astype(dtype), requires_grad=True)
                 for _ in range(3)]
        outs, lam = correlate_shared(stacks, *projs, 2, n_specific=1)
        ad.add_all([(o * ad.constant(case_rng.normal(size=o.shape).astype(dtype))).sum()
                    for o in outs]).backward()
        arrays = [o.data for o in outs] + [lam.data] + [t.grad for t in stacks]
        print(np.dtype(dtype).name, c, hashlib.sha256(b"".join(a.tobytes() for a in arrays))
              .hexdigest())
print(sorted(core for name, core in _openblas_cores().items() if "openblas64" in name))
"""

    @pytest.mark.skipif(not (sys.platform == "linux" and platform.machine() == "x86_64"),
                        reason="forces x86 kernels; lists libraries through /proc")
    def test_outputs_and_stack_gradients_keep_their_bytes_under_haswell(self):
        env = {**os.environ, "PYTHONPATH": str(Path(fbc.__file__).parents[1])}
        runs = [subprocess.run([sys.executable, "-c", self.PROBE], capture_output=True,
                               text=True, timeout=120, env=child_env, check=True).stdout
                for child_env in (env, {**env, "OPENBLAS_CORETYPE": "Haswell"})]
        default, forced = (run.splitlines() for run in runs)
        assert forced[-1] == "['Haswell']"
        assert len(default) == len(forced) == 7 and default[:-1] == forced[:-1]


class TestEdgeWeightsBuiltOnce:
    """Each behavior's context holds one matrix for routing's sums: sums
    into users multiply by it, sums into items by its transpose's view.
    Routing over the whole graph builds no other."""

    def test_built_once_per_direction(self, edge_weight_builds):
        ctx = make_ctx([(0, 0), (0, 1), (1, 1), (2, 0)], 3, 2)
        into_users, into_items = ctx.into_users.matrix, ctx.into_items.matrix
        x, g = tensors(3, 2, 2, 3)
        route_behavior_layer(ctx, x, g, None, None, 1.0, 3, "light")
        for _ in range(2):
            x = ad.Tensor(rng.normal(size=(3, 2, 3)), requires_grad=True)
            g = ad.Tensor(rng.normal(size=(2, 2, 3)), requires_grad=True)
            h_u, h_i = route_behavior_layer(ctx, x, g, None, None, 1.0, 3, "light")
            ((h_u * h_u).sum() + (h_i * h_i).sum()).backward()
            assert x.grad is not None and g.grad is not None
        assert not edge_weight_builds
        assert ctx.into_users.matrix is into_users and ctx.into_items.matrix is into_items
        assert into_users.shape == (3, 2) and into_items.shape == (2, 3)
        assert into_users.nnz == into_items.nnz == ctx.edge_count

    @given(routing_cases())
    @settings(max_examples=30, deadline=None)
    def test_routing_sums_share_the_adjacency_index_pattern(self, case):
        edges, M, N = case[:3]
        ctx = make_ctx(edges, M, N)
        adj, into_users = ctx.user_from_item, ctx.into_users.matrix
        assert into_users.format == "csr" and ctx.into_items.matrix.format == "csc"
        for m in (into_users, ctx.into_items.matrix):
            for mine, shared in ((m.indices, adj.indices), (m.indptr, adj.indptr)):
                assert np.shares_memory(mine, shared) and np.array_equal(mine, shared)
        # the values are routing's own: refilling them leaves the
        # adjacency's weights as they are
        assert not np.shares_memory(into_users.data, adj.data)
        # entry e is edge e
        np.testing.assert_array_equal(
            np.repeat(np.arange(M), np.diff(into_users.indptr)), ctx.user_ids)
        np.testing.assert_array_equal(into_users.indices, ctx.item_ids)


@st.composite
def edge_layouts(draw):
    """(users, items, num_users, num_items) of up to 12 edges sorted by
    (user, item), none repeated; nodes that no edge names are common, and
    no edge at all is allowed."""
    num_users, num_items = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    pairs = sorted(draw(st.sets(st.tuples(st.integers(0, num_users - 1),
                                          st.integers(0, num_items - 1)), max_size=12)))
    edges = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    return edges[:, 0], edges[:, 1], num_users, num_items


class TestEdgeWeightsLayout:
    """`_EdgeWeights` over sorted edges: every row and every column of the
    matrix lists its edges in ascending edge order, so the sums into users
    and, through the transpose, into items add each node's terms in that
    order."""

    @given(edge_layouts())
    @example((np.array([], dtype=np.intp), np.array([], dtype=np.intp), 3, 2))
    @example((np.array([0, 0, 2, 2, 3], dtype=np.intp), np.array([0, 1, 0, 1, 1], dtype=np.intp),
              4, 2))
    @settings(max_examples=200, deadline=None)
    def test_each_row_lists_its_edges_ascending(self, layout):
        users, items, num_users, num_items = layout
        weights = fbc._EdgeWeights.of_counts(np.bincount(users, minlength=num_users), items,
                                             (num_users, num_items))
        m, E = weights.matrix, len(users)
        assert m.shape == (num_users, num_items) and m.nnz == E
        assert weights.T.matrix.shape == (num_items, num_users)
        # entry k is edge k: each row's span and each column's entries
        for r in range(num_users):
            np.testing.assert_array_equal(np.arange(m.indptr[r], m.indptr[r + 1]),
                                          np.flatnonzero(users == r))
        for c in range(num_items):
            np.testing.assert_array_equal(np.flatnonzero(m.indices == c),
                                          np.flatnonzero(items == c))
        # both directions' sums are the per-edge products added in edge order
        case_rng = np.random.default_rng(E)
        w = case_rng.normal(size=(2, E))
        for sums, dst, src, n_dst, n_src in ((weights, users, items, num_users, num_items),
                                             (weights.T, items, users, num_items, num_users)):
            stack = case_rng.normal(size=(n_src, 2, 3))
            want = np.zeros((n_dst, 2, 3))
            for e in range(E):
                want[dst[e]] += w[:, e, None] * stack[src[e]]
            assert sums.apply(w, stack).tobytes() == want.tobytes()

    @given(edge_layouts())
    @example((np.array([], dtype=np.intp), np.array([], dtype=np.intp), 3, 2))
    @example((np.array([0, 0, 1, 2, 2], dtype=np.intp), np.array([1, 2, 0, 0, 2], dtype=np.intp),
              3, 3))
    @settings(max_examples=100, deadline=None)
    def test_item_side_pattern_names_each_entrys_edge(self, layout):
        users, items, M, N = layout
        ctx = make_ctx(list(zip(users, items)), M, N)
        into_items, E = ctx.into_items, ctx.edge_count
        assert into_items.pattern is ctx.item_from_user and ctx.into_users.edge_ids is None
        pattern, edges = into_items.pattern, into_items.edge_ids
        # every edge once, entry k in item row r being an edge of item r
        # and of the user the entry's column names, each item's users ascending
        np.testing.assert_array_equal(np.sort(edges), np.arange(E))
        np.testing.assert_array_equal(ctx.item_ids[edges],
                                      np.repeat(np.arange(N), np.diff(pattern.indptr)))
        np.testing.assert_array_equal(ctx.user_ids[edges], pattern.indices)
        for r in range(N):
            assert np.all(np.diff(pattern.indices[pattern.indptr[r]:pattern.indptr[r + 1]]) > 0)


@st.composite
def live_edge_cases(draw):
    """`routing_cases` with S up to 4, d* up to 10, a dtype, and which
    destination rows of the backward's gradient are nonzero: none, one,
    some, all, or some and one more whose gradient holds a NaN."""
    edges, M, N, _, _, _, tau, n_iter, seed = draw(routing_cases())
    return (edges, M, N, draw(st.integers(1, 4)), draw(st.integers(1, 10)), tau,
            n_iter, seed,
            draw(st.sampled_from([np.float32, np.float64])),
            draw(st.sampled_from(["none", "one", "some", "all", "nan"])))


def routed_side(ctx, src, g, tau, n_iter, cut, to_items=False, reach=None):
    """The output of `_route_side` routing the item rows `src` to users, or
    with `to_items` the user rows to items, over the destination rows
    `reach` names, the destination rows it holds, and `src.grad` after its
    backward takes the rows of the gradient `g` (one row per destination
    node) that it holds, with `fbc.LIVE_EDGE_CUT` set to `cut`."""
    leaf = ad.Tensor(src, requires_grad=True)
    ids = ((ctx.user_ids, ctx.item_ids, ctx.into_items) if to_items else
           (ctx.item_ids, ctx.user_ids, ctx.into_users))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fbc, "LIVE_EDGE_CUT", cut)
        out, rows, bad = fbc._route_side(leaf, *ids, tau, n_iter,
                                         None if reach is None else fbc.Rows.marked(reach))
        assert bad is None
        out._backward(rows.take(g))
    return out.data, rows, leaf.grad


def side_gradient(ctx, src, g, tau, n_iter, cut, to_items=False):
    """`src.grad` of `routed_side` over every destination row."""
    return routed_side(ctx, src, g, tau, n_iter, cut, to_items)[2]


def assert_live_backward_is_whole(ctx, S, D, tau, n_iter, dtype, seed, live_rows,
                                  nan_row=None):
    """Both directions' restricted backward has the whole-edge backward's
    bytes, NaNs aside; `live_rows(n)` is the mask of nonzero gradient rows
    among n destination rows, and `nan_row(n)` one of them to hold a NaN."""
    case_rng = np.random.default_rng(seed)
    for to_items in (False, True):
        M, N = ctx.graph.num_users, ctx.graph.num_items
        n_src, n_dst = (M, N) if to_items else (N, M)
        src = case_rng.normal(size=(n_src, S, D)).astype(dtype)
        g = case_rng.normal(size=(n_dst, S, D)).astype(dtype)
        live = live_rows(n_dst)
        # dead rows are +0.0 or -0.0
        g[~live] = np.where(case_rng.random((n_dst, 1, 1)) < 0.5, 0.0, -0.0)[~live]
        if nan_row is not None:
            g[nan_row(n_dst), 0, -1] = np.nan
        whole = side_gradient(ctx, src, g, tau, n_iter, 0.0, to_items)
        restricted = side_gradient(ctx, src, g, tau, n_iter, 2.0, to_items)
        assert whole.dtype == restricted.dtype == dtype
        # where two NaNs meet, numpy's vector loops and their scalar tails
        # keep different operands' signs, by position: only where NaNs are
        # is compared, not their bits
        assert (np.where(np.isnan(whole), np.nan, whole).tobytes()
                == np.where(np.isnan(restricted), np.nan, restricted).tobytes()), to_items


class TestLiveEdgeBackward:
    """Routing's backward over the live edges alone against the same
    backward over every edge, and the `_EdgeWeights` products it uses."""

    # user 0's lone edge is live: numpy sums a lone edge's d* >= 9 terms
    # pairwise, many edges' row by row, so that backward stays whole
    @given(live_edge_cases())
    @example(([(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)], 3, 3, 2, 9, 1.0, 2, 0,
              np.float64, "one"))
    @settings(max_examples=200, deadline=None)
    def test_gradient_bytes_equal_the_whole_edge_backward(self, case):
        edges, M, N, S, D, tau, n_iter, seed, dtype, mode = case
        pick = np.random.default_rng([seed, 1])

        def live_rows(n):
            some = pick.random(n) < 0.5
            return {"none": np.zeros(n, bool), "all": np.ones(n, bool),
                    "one": np.arange(n) == pick.integers(n),
                    "some": some, "nan": some}[mode]
        nan_row = (lambda n: pick.integers(n)) if mode == "nan" else None
        assert_live_backward_is_whole(make_ctx(edges, M, N), S, D, tau, n_iter, dtype,
                                      seed, live_rows, nan_row)

    @pytest.mark.parametrize("edges, M, N, D, live", [
        # d* >= 9 with several live edges: each edge's terms summed row by row
        ([(0, 0), (0, 1), (1, 1), (2, 1), (2, 2), (3, 0)], 4, 3, 12, (0, 2)),
        # live rows with no edges: user 3 and item 4
        ([(0, 0), (0, 1), (1, 2), (2, 3), (1, 1)], 4, 5, 3, (0, 1, 3, 4)),
        # item 0 and user 0 are read by many live edges
        ([(0, i) for i in range(6)] + [(u, 0) for u in range(1, 7)] + [(3, 5), (7, 7)],
         8, 8, 9, (1, 2, 3, 4, 5)),
    ])
    @pytest.mark.parametrize("nan", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pinned_cases_equal_the_whole_edge_backward(self, edge_weight_builds, edges,
                                                         M, N, D, live, nan, dtype):
        ctx = make_ctx(edges, M, N)
        edge_weight_builds.clear()
        assert_live_backward_is_whole(ctx, 3, D, 1.0, 3, dtype, 5,
                                      lambda n: np.isin(np.arange(n), live),
                                      (lambda n: live[0]) if nan else None)
        assert len(edge_weight_builds) == 2  # each direction restricted

    def test_live_edges_choose_the_path(self, edge_weight_builds):
        ctx = make_ctx([(0, 0), (0, 1), (1, 1), (2, 0), (2, 1), (3, 2)], 4, 3)
        src = rng.normal(size=(3, 2, 3))
        # (live users, cut, (each edge's renumbered user, the shape) of the
        # one matrix over the live users and the items they read): two of
        # six edges live restrict, three are not under half, no live edge
        # restricts, one live edge never does
        for live_users, cut, builds in (
                ((1, 3), 0.5, (([0, 1], (2, 2)),)),
                ((2,), 0.5, (([0, 0], (1, 2)),)),
                ((), 0.5, (([], (0, 0)),)),
                ((0, 1), 0.5, ()),
                ((3,), 2.0, ())):
            g = np.zeros((4, 2, 3))
            g[list(live_users)] = 1.0
            edge_weight_builds.clear()
            assert side_gradient(ctx, src, g, 1.0, 2, cut).shape == (3, 2, 3)
            assert len(edge_weight_builds) == len(builds)
            for (rows, shape), (want_rows, want_shape) in zip(edge_weight_builds, builds):
                np.testing.assert_array_equal(rows, want_rows)
                assert shape == want_shape

    def test_item_side_backward_reads_row_ranges(self, monkeypatch, edge_weight_builds):
        # the forward into items is whole; items 1 and 3 are live, read by
        # users 0, 2 and 3, so the backward narrows to their four edges
        ctx = make_ctx([(0, 1), (0, 2), (1, 0), (1, 2), (2, 1), (2, 3), (3, 3), (3, 4),
                        (4, 0), (4, 4)], 5, 5)
        src = rng.normal(size=(5, 2, 9))
        g = np.zeros((5, 2, 9))
        g[[1, 3]] = rng.normal(size=(2, 2, 9))
        whole = side_gradient(ctx, src, g, 1.0, 3, 0.0, to_items=True)
        scans, isin = [], np.isin
        monkeypatch.setattr(np, "isin", lambda *a, **kw: scans.append(a) or isin(*a, **kw))
        edge_weight_builds.clear()
        narrowed = side_gradient(ctx, src, g, 1.0, 3, 2.0, to_items=True)
        assert not scans
        # one item-major matrix: each edge's renumbered item, (live items, users)
        [(rows, shape)] = edge_weight_builds
        np.testing.assert_array_equal(rows, [0, 0, 1, 1])
        assert shape == (2, 3)
        assert narrowed.tobytes() == whole.tobytes()

    def test_restricted_backward_touches_only_live_and_read_rows(self, monkeypatch):
        # users 0 and 2 are live; they read items 0, 1 and 3 of six
        ctx = make_ctx([(0, 0), (0, 1), (1, 1), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)],
                       5, 6)
        leaf = ad.Tensor(rng.normal(size=(6, 2, 4)), requires_grad=True)
        out, _, _ = fbc._route_side(leaf, ctx.item_ids, ctx.user_ids, ctx.into_users, 1.0, 3)
        node_rows = []
        edge_rows, apply, uniform = fbc._edge_rows, fbc._EdgeWeights.apply, \
            fbc._EdgeWeights.uniform

        def spy(f):
            def wrapped(*args):
                node_rows.append(args[-2].shape[0] if f is edge_rows else args[-1].shape[0])
                return f(*args)
            return wrapped
        monkeypatch.setattr(fbc, "_edge_rows", spy(edge_rows))
        monkeypatch.setattr(fbc._EdgeWeights, "apply", spy(apply))
        monkeypatch.setattr(fbc._EdgeWeights, "uniform", spy(uniform))
        g = np.zeros((5, 2, 4))
        g[[0, 2]] = rng.normal(size=(2, 2, 4))
        out._backward(g)
        # two live users and three items read: no call sees a whole side
        assert node_rows and set(node_rows) == {2, 3}
        assert leaf.grad.shape == (6, 2, 4)
        np.testing.assert_array_equal(leaf.grad[[2, 4, 5]], 0.0)
        assert not np.signbit(leaf.grad[[2, 4, 5]]).any()

    @given(routing_cases(), st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=100, deadline=None)
    def test_restriction_is_apply_with_dead_weights_zeroed(self, case, dtype):
        edges, M, N, S, D, _, _, _, seed = case
        case_rng = np.random.default_rng(seed)
        ctx = make_ctx(edges, M, N)
        for weights in (ctx.into_users, ctx.into_items):
            w = case_rng.normal(size=(S, len(edges))).astype(dtype)
            stack = case_rng.normal(size=(weights.matrix.shape[1], S, D))
            live = case_rng.random(len(edges)) < 0.5
            live_edges = fbc._EdgeWeights.of_counts(np.bincount(ctx.user_ids[live], minlength=M),
                                                    ctx.item_ids[live], (M, N))
            if weights is ctx.into_items:
                live_edges = live_edges.T
            got = live_edges.apply(w[:, live], stack)
            want = weights.apply(np.where(live, w, 0).astype(dtype), stack)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("S", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_uniform_product_is_apply_with_constant_weights(self, S, dtype):
        # users 3 and 5 and item 4 have no edges
        edges = [(0, 0), (0, 1), (1, 1), (2, 0), (2, 2), (4, 3), (1, 3)]
        ctx = make_ctx(edges, 6, 5)
        value = dtype(1) / dtype(S)
        for weights, cols in ((ctx.into_users, 5), (ctx.into_items, 6)):
            for stack_dtype in (dtype, np.float64):
                stack = rng.normal(size=(cols, S, 4)).astype(stack_dtype)
                got = weights.uniform(value, stack)
                want = weights.apply(np.full((S, len(edges)), value), stack)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestReachedForward:
    """Routing's forward over the reached destination rows alone against the
    forward over every row: it holds the reached rows with edges, or every
    row, with their bytes, the reached rows it leaves out route to +0.0 in
    the whole forward, and the source gradient keeps its bytes."""

    # one reached edge: numpy sums a lone edge's d* >= 9 terms pairwise,
    # many edges' row by row, so that forward stays whole
    @given(live_edge_cases())
    @example(([(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)], 3, 3, 2, 9, 1.0, 2, 0,
              np.float64, "one"))
    @settings(max_examples=200, deadline=None)
    def test_reached_rows_and_gradient_keep_their_bytes(self, case):
        edges, M, N, S, D, tau, n_iter, seed, dtype, mode = case
        ctx = make_ctx(edges, M, N)
        case_rng = np.random.default_rng(seed)
        for to_items in (False, True):
            n_src, n_dst = (M, N) if to_items else (N, M)
            some = case_rng.random(n_dst) < 0.5
            reach = {"none": np.zeros(n_dst, bool), "all": np.ones(n_dst, bool),
                     "one": np.arange(n_dst) == case_rng.integers(n_dst),
                     "some": some, "nan": some}[mode]
            src = case_rng.normal(size=(n_src, S, D)).astype(dtype)
            # the gradient of some reached rows is zero, so the backward may
            # narrow the forward's edges further; unreached rows get -0.0
            g = case_rng.normal(size=(n_dst, S, D)).astype(dtype)
            g[~reach | (case_rng.random(n_dst) < 0.3)] = -0.0
            out, rows, grad = routed_side(ctx, src, g, tau, n_iter, 2.0, to_items, reach)
            whole_out, every, whole_grad = routed_side(ctx, src, g, tau, n_iter, 0.0, to_items)
            assert every.ids is None and whole_out.shape[0] == n_dst
            held = np.zeros(n_dst, dtype=bool)
            held[rows.take(np.arange(n_dst))] = True
            assert out.dtype == grad.dtype == dtype and out.shape == rows.take(whole_out).shape
            assert out.tobytes() == rows.take(whole_out).tobytes()
            assert held.all() or not (held & ~reach).any()
            left_out = whole_out[reach & ~held]
            assert not left_out.any() and not np.signbit(left_out).any()
            assert grad.tobytes() == whole_grad.tobytes()

    def test_non_finite_state_names_the_node(self):
        # user 2 (renumbered 0) is the first reached user whose state is not
        # finite, item 1 (renumbered 0) the first such item
        ctx = make_ctx([(0, 0), (1, 1), (2, 1), (3, 2), (4, 3), (5, 3)], 6, 4)
        x = rng.normal(size=(6, 2, 3))
        x[2] = np.inf
        g = rng.normal(size=(4, 2, 3))
        g[1] = np.inf
        users, items = np.isin(np.arange(6), (2, 3)), np.arange(4) == 1
        for reach, user in (((users, items), 2), (None, 1)):
            with np.errstate(all="ignore"), pytest.raises(
                    NumericError, match=fr"iteration 1 \(user node {user}\)$"):
                _route(ctx, ad.Tensor(x), ad.Tensor(g), None, None, 1.0, 2, marked(reach))
        g[1] = 0.0  # the item side alone
        for reach in ((users, items), None):
            with np.errstate(all="ignore"), pytest.raises(
                    NumericError, match=r"iteration 1 \(item node 1\)$"):
                _route(ctx, ad.Tensor(x), ad.Tensor(g), None, None, 1.0, 2, marked(reach))


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
        route_u, route_i, _ = _route(ctx, x, g, None, None, 1.0, 2)
        np.testing.assert_allclose(agg_u.data, route_u.data, atol=1e-10)
        np.testing.assert_allclose(agg_i.data, route_i.data, atol=1e-10)

    def test_pass_keeps_shapes_and_handles_isolates(self):
        ctx = make_ctx([(0, 0)], 2, 3)
        x, g = tensors(2, 3, 2, 2)
        h_u, h_i = plain_aggregation_layer(ctx, x, g, None, None, "light")
        assert h_u.shape == (2, 2, 2)
        np.testing.assert_array_equal(h_u.data[1], 0.0)
        np.testing.assert_array_equal(h_i.data[1], 0.0)


@st.composite
def bipartite_cases(draw):
    """Users, items, (user, item) edges that leave the last user and the
    last item isolated, interest count, width and an rng seed."""
    M, N = draw(st.integers(2, 7)), draw(st.integers(2, 9))
    pairs = draw(st.sets(st.tuples(st.integers(0, M - 2), st.integers(0, N - 2)),
                         max_size=(M - 1) * (N - 1)))
    return (M, N, sorted(pairs), draw(st.integers(1, 3)), draw(st.integers(1, 3)),
            draw(st.integers(0, 2**32 - 1)))


class TestAggregateMatchesSeparateAdjacencies:
    """Both of `_aggregate`'s products, through the normalized adjacency and
    its transpose's view, and their backwards, against the two normalized
    matrices built separately from a user x item and an item x user
    adjacency, and CSR copies of their transposes."""

    @given(bipartite_cases())
    @settings(max_examples=60, deadline=None)
    def test_forward_and_backward_bitwise(self, case):
        M, N, pairs, S, D, seed = case
        case_rng = np.random.default_rng(seed)
        records = [(u, i, 0, t) for t, (u, i) in enumerate(pairs)]
        # behavior 1 has no edges
        for graph in build_behavior_graphs(records, M, N, 2):
            ctx = BehaviorContext(graph)
            (user_from_item, user_from_item_t), (item_from_user, item_from_user_t) = \
                bipartite_normalized_adjacencies(graph.edges, M, N)
            for got, want in ((ctx.user_from_item, user_from_item),
                              (ctx.user_from_item.T.tocsr(), item_from_user)):
                assert got.shape == want.shape and got.dtype == want.dtype == np.float64
                np.testing.assert_array_equal(got.indptr, want.indptr)
                np.testing.assert_array_equal(got.indices, want.indices)
                np.testing.assert_array_equal(got.data, want.data)
            h_u = ad.Tensor(case_rng.normal(size=(M, S, D)), requires_grad=True)
            h_i = ad.Tensor(case_rng.normal(size=(N, S, D)), requires_grad=True)
            out_u, out_i = _aggregate(ctx, h_u, h_i, "light", None, 0.2)
            g_u = case_rng.normal(size=(M, S * D))
            g_i = case_rng.normal(size=(N, S * D))
            ((out_u * ad.constant(g_u.reshape(M, S, D))).sum()
             + (out_i * ad.constant(g_i.reshape(N, S, D))).sum()).backward()
            flat_u, flat_i = h_u.data.reshape(M, -1), h_i.data.reshape(N, -1)
            np.testing.assert_array_equal(out_u.data.reshape(M, -1),
                                          user_from_item @ flat_i)
            np.testing.assert_array_equal(out_i.data.reshape(N, -1),
                                          item_from_user @ flat_u)
            np.testing.assert_array_equal(h_i.grad.reshape(N, -1),
                                          user_from_item_t @ g_u)
            np.testing.assert_array_equal(h_u.grad.reshape(M, -1),
                                          item_from_user_t @ g_i)


class TestAggregateOnRows:
    """`_aggregate` into some user and item rows, on stacks that hold some
    routed rows, against the whole pass on stacks of every row, +0.0 where
    not routed, with an upstream gradient that is zero outside the rows
    aggregated into: outputs as high as those rows, the whole pass's at
    them, the stacks' gradients at the routed rows, and every aggregator
    weight's gradient, all bitwise, for every aggregator."""

    @pytest.mark.parametrize("aggregator", cie.AGGREGATORS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_keep_the_bytes_of_the_whole_pass(self, aggregator, dtype):
        M, N, S, D = 23, 41, 2, 3
        case_rng = np.random.default_rng(3)
        pairs = sorted({(int(u), int(i)) for u, i in zip(case_rng.integers(M - 1, size=90),
                                                        case_rng.integers(N - 1, size=90))})
        records = [(u, i, 0, t) for t, (u, i) in enumerate(pairs)]
        ctx = BehaviorContext(build_behavior_graphs(records, M, N, 1)[0], np.dtype(dtype))
        stacks = [case_rng.normal(size=(n, S, D)).astype(dtype) for n in (M, N)]
        weights = {name: case_rng.normal(size=shape).astype(dtype)
                   for name, shape in cie.aggregator_weight_shapes(aggregator, S * D)}
        upstream = [case_rng.normal(size=(n, S, D)).astype(dtype) for n in (M, N)]

        def aggregated(read, rows, routed, routed_stacks):
            h = [ad.Tensor(a[r], requires_grad=True) for a, r in zip(routed_stacks, routed)]
            w = {name: ad.Tensor(a, requires_grad=True) for name, a in weights.items()}
            outs = _aggregate(ctx, *h, aggregator, w or None, 0.2, *(
                tuple(map(as_rows, (M, N), r)) for r in (rows, routed)))
            terms = []
            for out, u, r, at in zip(outs, upstream, read, rows):
                mask = np.zeros((len(u), 1, 1), dtype=dtype)
                mask[r] = 1
                terms.append((out * ad.constant((u * mask)[at])).sum())
            ad.add_all(terms).backward()
            return [o.data for o in outs], [t.grad for t in h], [t.grad for t in w.values()]

        every = (slice(None), slice(None))
        for rows in zip(row_subsets(M, case_rng), row_subsets(N, case_rng)):
            read_items, read_users = (
                s.indices for s in fbc.into_rows(ctx, tuple(map(as_rows, (M, N), rows))))
            # the rows that the sums read, some other rows, and most of the
            # rows aggregated into, which a self-reading aggregator reads
            routed = []
            for n, cols, own in ((M, read_users, rows[0]), (N, read_items, rows[1])):
                marked = case_rng.random(n) < 0.2
                marked[cols] = True
                marked[own] |= case_rng.random(len(own)) < 0.7
                routed.append(np.flatnonzero(marked))
            # the stacks as routing leaves them: +0.0 outside the routed rows
            routed_stacks = []
            for a, r in zip(stacks, routed):
                held = np.zeros((len(a), 1, 1), dtype=bool)
                held[r] = True
                routed_stacks.append(np.where(held, a, dtype(0)))
            whole_outs, whole_grads, whole_w = aggregated(rows, every, every, routed_stacks)
            outs, grads, w = aggregated(rows, rows, routed, routed_stacks)
            for got, want, r in zip(outs, whole_outs, rows):
                assert got.shape == want[r].shape and got.dtype == want.dtype == dtype
                assert got.tobytes() == want[r].tobytes()
            for got, want, r in zip(grads, whole_grads, routed):
                assert got.dtype == dtype and got.tobytes() == want[r].tobytes()
            for got, want in zip(w, whole_w):
                assert got.dtype == dtype and got.tobytes() == want.tobytes()


def payload_nans(dtype):
    """A positive and a negative NaN, each with a payload of its own."""
    bits = ([0x7FC00123, 0xFFC00456] if dtype == np.float32
            else [0x7FF8000000000123, 0xFFF8000000000456])
    return np.array(bits, dtype=np.uint32 if dtype == np.float32 else np.uint64).view(dtype)


class TestRows:
    """`fbc.Rows` of every row, of some rows and of none: `full` puts the
    rows in place with their bytes and +0.0 in the others, `take` of every
    row is a view, `positions` are `np.searchsorted`'s, `at` composes a
    sub-selection, and `gather` and `scatter` are tape nodes of `take` and
    `full` with each other as backward."""

    HEIGHT = 9

    @classmethod
    def cases(cls):
        return [fbc.Rows(cls.HEIGHT), fbc.Rows(cls.HEIGHT, np.array([0, 3, 4, 8])),
                fbc.Rows(cls.HEIGHT, np.zeros(0, dtype=np.intp))]

    @staticmethod
    def ids(rows):
        return np.arange(rows.height) if rows.ids is None else rows.ids

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_full_puts_the_rows_in_place_and_positive_zeros_elsewhere(self, dtype, axis):
        for rows in self.cases():
            shape = [2, 3, 4]
            shape[axis] = len(rows)
            values = rng.normal(size=shape).astype(dtype)
            flat = values.reshape(-1)
            flat[0::4] = -0.0
            flat[1::4] = np.resize(payload_nans(dtype), len(flat[1::4]))
            out = rows.full(values, axis)
            assert out.dtype == dtype and out.shape[axis] == self.HEIGHT
            assert np.take(out, self.ids(rows), axis).tobytes() == values.tobytes()
            rest = np.delete(out, self.ids(rows), axis)
            assert not rest.any() and not np.signbit(rest).any()
            assert (out is values) == (rows.ids is None)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_take_of_every_row_is_a_view(self, dtype):
        a = rng.normal(size=(self.HEIGHT, 3, self.HEIGHT)).astype(dtype)
        for rows in self.cases():
            for axis in (0, 2):
                got = rows.take(a, axis)
                assert got.dtype == dtype
                assert got.tobytes() == np.take(a, self.ids(rows), axis).tobytes()
                assert np.shares_memory(got, a) == (rows.ids is None)

    def test_positions_are_searchsorted_and_at_composes(self):
        case_rng = np.random.default_rng(4)
        for rows in self.cases() + [fbc.Rows(50, np.flatnonzero(case_rng.random(50) < 0.3))]:
            ids = self.ids(rows)
            held = case_rng.choice(ids, size=7) if len(ids) else ids
            assert rows.positions(held).tolist() == np.searchsorted(ids, held).tolist()
            assert rows.at(fbc.Rows(len(rows))) is rows
            for picked in (np.zeros(0, dtype=np.intp),
                           np.flatnonzero(case_rng.random(len(rows)) < 0.5)):
                sub = rows.at(fbc.Rows(len(rows), picked))
                assert sub.height == rows.height
                assert sub.ids.tobytes() == ids[picked].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gather_and_scatter_are_each_others_backward(self, dtype):
        for rows in self.cases():
            x = ad.Tensor(rng.normal(size=(self.HEIGHT, 2)).astype(dtype), requires_grad=True)
            g = rng.normal(size=(len(rows), 2)).astype(dtype)
            g[::2] = -0.0
            out = rows.gather(x)
            assert out.data.tobytes() == rows.take(x.data).tobytes()
            (out * ad.constant(g)).sum().backward()
            assert x.grad.tobytes() == rows.full(g).tobytes()
            y = ad.Tensor(g, requires_grad=True)
            out = rows.scatter(y)
            assert out.data.tobytes() == rows.full(g).tobytes()
            (out * ad.constant(x.data)).sum().backward()
            assert y.grad.tobytes() == rows.take(x.data).tobytes()
            assert (out is y) == (rows.ids is None)


class TestRenumbered:
    """`_narrowed`'s renumbering from a presence mask against `np.unique`."""

    @given(st.integers(1, 30).flatmap(lambda count: st.tuples(
        st.just(count), st.lists(st.integers(0, count - 1), max_size=40))))
    @example((5, []))
    @example((1, [0]))
    @example((4, [2, 2, 2]))
    @example((6, [5, 0, 3, 1, 4, 2, 0]))  # every id below the count
    @settings(max_examples=200, deadline=None)
    def test_equals_unique_with_its_inverse(self, case):
        count, ids = case
        ids = np.array(ids, dtype=np.intp)
        for got, want in zip(fbc._renumbered(ids, count), np.unique(ids, return_inverse=True)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def chosen_rows(n, case_rng, mode):
    """Ascending node rows of n: none, one, a random subset, or every row."""
    return {"none": np.zeros(0, dtype=np.intp), "one": np.array([case_rng.integers(n)]),
            "some": np.flatnonzero(case_rng.random(n) < 0.4), "every": slice(None)}[mode]


class TestIntoRows:
    """`into_rows` from the row ranges of the adjacency and of its item-major
    copy against the earlier sums, built with a node mask and a pass over
    every edge (`mask_built_rows`): one matrix row per node row with its
    entries, and products and transposed products with the bytes of the
    earlier sums' at those rows, on both sides, with a column per source
    row or per routed row (some rows among which are the columns the sums
    read, renumbered by `Rows.columns`)."""

    @given(bipartite_cases(), st.sampled_from(["none", "one", "some", "every"]),
           st.sampled_from([np.float32, np.float64]))
    @example((4, 5, [(0, 0), (0, 3), (1, 1), (2, 0), (2, 3)], 2, 2, 0), "one", np.float64)
    @settings(max_examples=150, deadline=None)
    def test_entries_and_products_equal_the_mask_built_sums(self, case, mode, dtype):
        M, N, pairs, S, D, seed = case
        case_rng = np.random.default_rng(seed)
        records = [(u, i, 0, t) for t, (u, i) in enumerate(pairs)]
        ctx = BehaviorContext(build_behavior_graphs(records, M, N, 1)[0], np.dtype(dtype))
        rows = tuple(chosen_rows(n, case_rng, mode) for n in (M, N))
        into = fbc.into_rows(ctx, tuple(map(as_rows, (M, N), rows)))
        if mode == "every":
            assert into[0] is ctx.user_from_item
            routed = rows
        else:
            routed = []
            for n, read in zip((M, N), (s.indices for s in into[::-1])):
                marked = case_rng.random(n) < 0.3
                marked[read] = True
                routed.append(np.flatnonzero(marked))
        on_routed = [as_rows(n, r).columns(s) for n, r, s in zip((N, M), routed[::-1], into)]
        for side, (got, n_src) in enumerate(zip(into, (N, M))):
            # the earlier sums into items multiplied by the user x item
            # matrix's transpose
            want = mask_built_rows(ctx, side, rows[side])
            want = (want.T if side else want).tocsr()
            n_rows = want[rows[side]].shape[0]
            assert got.shape == (n_rows, n_src) and got.dtype == want.dtype == dtype
            got_csr, want_csr = got.tocsr(), want[rows[side]]
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got_csr, name), getattr(want_csr, name)), name
            x = case_rng.normal(size=(n_src, S * D)).astype(dtype)
            g = case_rng.normal(size=(n_rows, S * D)).astype(dtype)
            g_whole = np.zeros((want.shape[0], S * D), dtype=dtype)
            g_whole[rows[side]] = g
            cols = routed[1 - side]
            on_cols = on_routed[side]
            for product, reference in ((got @ x, (want @ x)[rows[side]]),
                                       (got.T @ g, want.T @ g_whole),
                                       (on_cols @ x[cols], (want @ x)[rows[side]]),
                                       (on_cols.T @ g, (want.T @ g_whole)[cols])):
                assert product.dtype == reference.dtype == dtype
                assert product.tobytes() == reference.tobytes()

    def test_item_major_copy_lists_each_items_users_ascending(self):
        ctx = make_ctx([(0, 1), (0, 2), (1, 0), (2, 1), (3, 1), (3, 2)], 4, 3)
        copy = ctx.item_from_user
        assert copy.format == "csr" and copy.shape == (3, 4) and copy.has_sorted_indices
        assert [copy.indices[copy.indptr[i]:copy.indptr[i + 1]].tolist() for i in range(3)] \
            == [[1], [0, 2, 3], [0, 3]]
        np.testing.assert_array_equal(copy.toarray(), ctx.user_from_item.T.toarray())


class TestTimeOffsetsOnSourceRows:
    """Routing that adds the time offsets to the source rows it reads
    (`TimeOffsets`) against the whole offsets, the one-hot product, added
    to every row: the reached rows, the stacks' gradients and the tables'
    gradients keep their bytes, with and without a block mask."""

    @given(live_edge_cases(), st.sampled_from(["none", "shared_only", "specific_only"]))
    @example(([(0, 0), (0, 1), (1, 1), (2, 0), (2, 2)], 3, 3, 3, 2, 1.0, 2, 0, np.float32,
              "some"), "specific_only")
    @settings(max_examples=150, deadline=None)
    def test_reached_rows_and_gradients_keep_their_bytes(self, case, block):
        edges, M, N, S, D, tau, n_iter, seed, dtype, mode = case
        ctx = make_ctx(edges, M, N)
        case_rng = np.random.default_rng(seed)
        T = 3
        buckets = [case_rng.integers(T, size=n) for n in (M, N)]
        arrays = ([case_rng.normal(size=(n, S, D)).astype(dtype) for n in (M, N)]
                  + [(case_rng.normal(size=(T, S, D)) * 0.3).astype(dtype) for _ in range(2)])
        mask = None
        if block != "none":  # the model's block mask, with S // 2 specific interests
            mask = np.ones((1, S, 1), dtype=dtype)
            mask[0, slice(S // 2) if block == "shared_only" else slice(S // 2, S)] = 0.0
        some = [case_rng.random(n) < 0.5 for n in (M, N)]
        reach = [{"none": np.zeros(n, bool), "one": np.arange(n) == case_rng.integers(n),
                  "all": np.ones(n, bool)}.get(mode, s) for n, s in zip((M, N), some)]
        weights = [case_rng.normal(size=(n, S, D)).astype(dtype) * r[:, None, None]
                   for n, r in zip((M, N), reach)]

        def routed(reached):
            leaves = [ad.Tensor(a, requires_grad=True) for a in arrays]
            x, g, t_u, t_i = leaves
            offsets = [fbc.TimeOffsets(ids, t, mask) for ids, t in zip(buckets, (t_u, t_i))]
            if not reached:
                x, g = (stack + one_hot_offsets(o) for stack, o in zip((x, g), offsets))
                offsets = [None, None]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fbc, "LIVE_EDGE_CUT", 2.0 if reached else 0.0)
                *outs, rows = _route(ctx, x, g, *offsets, tau, n_iter,
                                     marked(reach) if reached else None)
            ad.add_all([(h * ad.constant(r.take(w))).sum()
                        for h, w, r in zip(outs, weights, rows)]).backward()
            return [h.data for h in outs], rows, [t.grad for t in leaves]

        outs, rows, grads = routed(True)
        whole_outs, _, whole_grads = routed(False)
        for got, want, r in zip(outs, whole_outs, rows):
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == r.take(want).tobytes()
        for got, want in zip(grads, whole_grads):
            assert got.dtype == want.dtype == dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gathered_offsets_have_the_bytes_of_the_one_hot_product(self, dtype):
        # each gathered row plus +0.0 against the product's 0 + 1·t: -0.0
        # becomes +0.0, and NaN of either sign, infinities and subnormals
        # keep their bytes
        T, S, D = 4, 2, 3
        table = rng.normal(size=(T, S, D)).astype(dtype)
        table.flat[:8] = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf,
                          np.finfo(dtype).smallest_subnormal, -np.finfo(dtype).tiny]
        assert np.signbit(table.flat[3]) and not np.signbit(table.flat[2])
        ids = np.array([0, 3, 1, 0, 2, 1, 0])
        onehot = from_edges(np.arange(7), ids, (7, T))
        mask = np.ones((1, S, 1), dtype=dtype)
        mask[0, 0] = 0.0
        for m in (None, mask):
            offsets = fbc.TimeOffsets(ids, ad.Tensor(table), m)
            for rows in (slice(None), np.array([0, 2, 3, 6]), np.zeros(0, dtype=np.intp)):
                want = (onehot[rows] @ table.reshape(T, -1)).reshape(-1, S, D)
                if m is not None:
                    want = want * m
                with np.errstate(invalid="ignore"):
                    got = offsets.at(as_rows(7, rows))
                assert got.dtype == want.dtype == dtype
                assert got.tobytes() == want.tobytes()

    def test_offsets_of_rows_read_their_buckets_alone(self):
        ids = np.array([2, 0, 2, 1, 0])
        onehot = from_edges(np.arange(5), ids, (5, 3))
        table = ad.Tensor(rng.normal(size=(3, 2, 2)), requires_grad=True)
        offsets = fbc.TimeOffsets(ids, table)
        rows = np.array([0, 3, 4])
        for r, n in ((rows, 3), (slice(None), 5), (np.arange(1, 4), 3)):
            part = offsets.buckets_of(as_rows(5, r))
            assert part.format == "csc" and part.shape == (3, n) and part.nnz == n
            assert part.dtype == np.float32
            np.testing.assert_array_equal(part.toarray(), onehot[r].T.toarray())
        assert offsets.at(as_rows(5, rows)).tobytes() == table.data[[2, 1, 0]].tobytes()
        d = rng.normal(size=(3, 2, 2))
        offsets.backward(d, as_rows(5, rows))
        np.testing.assert_array_equal(table.grad, d[[2, 1, 0]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_offsets_added_to_every_row_keep_the_bytes_of_the_product(self, dtype):
        # `added_to`, as the plain aggregation adds them, against a stack
        # plus the one-hot product on the tape: the sum and both gradients
        T, S, D = 3, 2, 2
        ids = np.array([2, 0, 2, 1, 0, 0])
        mask = np.ones((1, S, 1), dtype=dtype)
        mask[0, 1] = 0.0
        w = ad.constant(rng.normal(size=(6, S, D)).astype(dtype))
        arrays = [rng.normal(size=(n, S, D)).astype(dtype) for n in (6, T)]
        for m in (None, mask):
            results = []
            for add in (lambda stack, o: o.added_to(stack),
                        lambda stack, o: stack + one_hot_offsets(o)):
                stack, table = (ad.Tensor(a, requires_grad=True) for a in arrays)
                out = add(stack, fbc.TimeOffsets(ids, table, m))
                (out * w).sum().backward()
                results.append([a.tobytes() for a in (out.data, stack.grad, table.grad)])
            assert results[0] == results[1]
