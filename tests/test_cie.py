import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckml import autodiff as ad
from ckml.cie import (AGGREGATORS, READS_SELF, aggregator_weight_shapes,
                      apply_aggregator, assemble_interest_embedding, average_layers,
                      concat_relations, extract_interests, propagate_relation_graph)
from ckml.dataio import build_relation_graphs
from ckml.numerics import from_edges, normalized_adjacency

from naive_numerics import separate_normalized_adjacency

rng = np.random.default_rng(42)


def norm_adj(pairs, n):
    edges = build_relation_graphs([(a, b, 0) for a, b in pairs], n, 1)[0].edges
    return normalized_adjacency(edges[:, 0], edges[:, 1], (n, n))


@st.composite
def relation_cases(draw):
    """Item count, relation records on all items but the last (so it is
    isolated), and an rng seed; relation 1 has no records."""
    n = draw(st.integers(3, 9))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 2), st.integers(0, n - 2))
                         .filter(lambda p: p[0] != p[1]), max_size=20))
    return n, sorted(pairs), draw(st.integers(0, 2**32 - 1))


class TestRelationNormalization:
    """The normalization with degrees counted over the edge list against
    the earlier one that summed a 0/1 matrix's rows and columns."""

    @given(relation_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_column_sum_build_and_propagates_bitwise(self, case):
        n, pairs, seed = case
        case_rng = np.random.default_rng(seed)
        for graph in build_relation_graphs([(a, b, 0) for a, b in pairs], n, 2):
            rows, cols = graph.edges[:, 0], graph.edges[:, 1]
            got = normalized_adjacency(rows, cols, (n, n))
            want, want_t = separate_normalized_adjacency(from_edges(rows, cols, (n, n)))
            assert got.dtype == want.dtype == np.float64
            np.testing.assert_array_equal(got.indptr, want.indptr)
            np.testing.assert_array_equal(got.indices, want.indices)
            np.testing.assert_array_equal(got.data, want.data)
            table = ad.Tensor(case_rng.normal(size=(n, 3)), requires_grad=True)
            out = propagate_relation_graph(table, got, 1, "light")[1]
            grad = case_rng.normal(size=out.shape)
            (out * ad.constant(grad)).sum().backward()
            np.testing.assert_array_equal(out.data, want @ table.data)
            np.testing.assert_array_equal(table.grad, want_t @ grad)


class TestPropagateRelationGraph:
    def test_zero_layers_is_identity(self):
        table = ad.Tensor(rng.normal(size=(3, 4)))
        out = propagate_relation_graph(table, norm_adj([(0, 1)], 3), 0, "light")
        assert len(out) == 1
        assert out[0] is table

    def test_degree_one_pair_swaps(self):
        table = ad.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = propagate_relation_graph(table, norm_adj([(0, 1)], 2), 1, "light")
        np.testing.assert_allclose(out[1].data, table.data[::-1], atol=1e-15)

    def test_triangle_preserves_constant_rows(self):
        # regular graph: sum over 2 neighbors of c / sqrt(2*2) = c
        c = np.array([0.7, -1.2, 0.4])
        table = ad.Tensor(np.tile(c, (3, 1)))
        out = propagate_relation_graph(table, norm_adj([(0, 1), (1, 2), (0, 2)], 3),
                                       1, "light")
        np.testing.assert_allclose(out[1].data, table.data, atol=1e-14)

    def test_isolated_item_receives_zero(self):
        table = ad.Tensor(rng.normal(size=(3, 2)))
        out = propagate_relation_graph(table, norm_adj([(0, 1)], 3), 1, "light")
        np.testing.assert_array_equal(out[1].data[2], np.zeros(2))

    def test_unknown_aggregator(self):
        with pytest.raises(ValueError):
            propagate_relation_graph(ad.Tensor(np.ones((2, 2))),
                                     norm_adj([(0, 1)], 2), 1, "mystery")

    def test_transforming_aggregators_run_and_keep_width(self):
        table = ad.Tensor(rng.normal(size=(4, 3)))
        adj = norm_adj([(0, 1), (2, 3), (1, 2)], 4)
        for kind, names in (("gccf", ["W"]), ("gcn", ["W"]), ("ngcf", ["W1", "W2"])):
            weights = [{n: ad.Tensor(rng.normal(size=(3, 3))) for n in names}]
            out = propagate_relation_graph(table, adj, 1, kind, weights, slope=0.2)
            assert out[1].shape == (4, 3)


class TestApplyAggregator:
    @pytest.mark.parametrize("kind", AGGREGATORS)
    def test_reads_own_row_exactly_under_reads_self(self, kind):
        # the last layer's reach holds the batch's own rows under READS_SELF
        # only (`model.last_layer_reach`), so it must name every aggregator
        # whose output reads x_self
        r = np.random.default_rng(0)
        neighbors = ad.Tensor(r.normal(size=(5, 3)))
        weights = {name: ad.Tensor(r.normal(size=shape))
                   for name, shape in aggregator_weight_shapes(kind, 3)}
        x_self = r.normal(size=(5, 3))
        first, second = (apply_aggregator(kind, neighbors, ad.Tensor(x), weights, 0.2).data
                         for x in (x_self, x_self + 1.0))
        assert (not np.array_equal(first, second)) == (kind in READS_SELF)


class TestAverageLayers:
    def test_equal_layers(self):
        layer = ad.Tensor(np.full((2, 2), 1.7))
        out = average_layers([layer, layer, layer])
        np.testing.assert_allclose(out.data, layer.data, atol=1e-15)

    def test_single_layer_identity(self):
        layer = ad.Tensor(rng.normal(size=(2, 3)))
        np.testing.assert_array_equal(average_layers([layer]).data, layer.data)

    def test_forced_arithmetic_mean(self):
        zero = ad.Tensor(np.zeros((2, 2)))
        two = ad.Tensor(np.full((2, 2), 2.0))
        np.testing.assert_allclose(average_layers([zero, two]).data,
                                   np.ones((2, 2)), atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_layers([])


class TestConcatRelations:
    def test_single_relation_identity(self):
        y = ad.Tensor(rng.normal(size=(3, 4)))
        assert concat_relations([y]) is y

    def test_two_relations_block_order(self):
        a = ad.Tensor(rng.normal(size=(2, 3)))
        b = ad.Tensor(rng.normal(size=(2, 3)))
        out = concat_relations([a, b])
        assert out.shape == (2, 6)
        np.testing.assert_array_equal(out.data[:, :3], a.data)
        np.testing.assert_array_equal(out.data[:, 3:], b.data)

    def test_permuting_ids_permutes_blocks(self):
        a = ad.Tensor(rng.normal(size=(2, 3)))
        b = ad.Tensor(rng.normal(size=(2, 3)))
        swapped = concat_relations([b, a])
        straight = concat_relations([a, b])
        np.testing.assert_array_equal(swapped.data[:, :3], straight.data[:, 3:])
        np.testing.assert_array_equal(swapped.data[:, 3:], straight.data[:, :3])


def straight_line_extract(y_star, projections, slope):
    """Independent loop oracle: scalar matrix arithmetic, no shared code."""
    blocks = []
    for W, b in projections:
        n, din = y_star.shape
        dout = W.shape[1]
        z = np.zeros((n, dout))
        for r in range(n):
            for c in range(dout):
                acc = b[c]
                for m in range(din):
                    acc += y_star[r, m] * W[m, c]
                z[r, c] = acc if acc >= 0 else slope * acc
        blocks.append(z[:, None, :])
    return np.concatenate(blocks, axis=1)


class TestExtractInterests:
    def test_zero_input_zero_bias(self):
        y = ad.Tensor(np.zeros((3, 4)))
        proj = [(ad.Tensor(rng.normal(size=(4, 2))), ad.Tensor(np.zeros(2)))]
        out = extract_interests(y, proj, slope=0.2)
        np.testing.assert_array_equal(out.data, np.zeros((3, 1, 2)))

    def test_identity_passthrough(self):
        y_star = ad.Tensor(np.abs(rng.normal(size=(3, 4))))
        proj = [(ad.Tensor(np.eye(4)), ad.Tensor(np.zeros(4)))]
        out = extract_interests(y_star, proj, slope=0.3)
        np.testing.assert_allclose(out.data[:, 0, :], y_star.data, atol=1e-15)

    def test_matches_straight_line_oracle(self):
        y_star = rng.normal(size=(2, 2))
        projections = [(rng.normal(size=(2, 2)), rng.normal(size=2))
                       for _ in range(3)]
        got = extract_interests(
            ad.Tensor(y_star),
            [(ad.Tensor(W), ad.Tensor(b)) for W, b in projections], slope=0.2)
        want = straight_line_extract(y_star, projections, slope=0.2)
        np.testing.assert_allclose(got.data, want, atol=1e-12)

    def test_shared_projection_identical_across_behaviors(self):
        y_star = ad.Tensor(rng.normal(size=(4, 6)))
        proj = [(ad.Tensor(rng.normal(size=(6, 3))), ad.Tensor(rng.normal(size=3)))]
        a = extract_interests(y_star, proj, slope=0.2)
        b = extract_interests(y_star, proj, slope=0.2)
        assert np.array_equal(a.data, b.data)  # bitwise


class TestAssembleSplit:
    def test_forced_stack(self):
        spe = ad.Tensor(np.array([[[1.0, 2.0]]]))
        sha = ad.Tensor(np.array([[[3.0, 4.0]]]))
        out = assemble_interest_embedding(spe, sha)
        np.testing.assert_array_equal(out.data, [[[1.0, 2.0], [3.0, 4.0]]])

    def test_zero_blocks(self):
        z = ad.Tensor(np.zeros((2, 2, 3)))
        out = assemble_interest_embedding(z, z)
        np.testing.assert_array_equal(out.data, np.zeros((2, 4, 3)))

    def test_missing_blocks_pass_through(self):
        sha = ad.Tensor(rng.normal(size=(3, 2, 4)))
        assert assemble_interest_embedding(None, sha) is sha
