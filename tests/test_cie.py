import numpy as np
import pytest

from ckml import autodiff as ad
from ckml.cie import (assemble_interest_embedding, average_layers,
                      concat_relations, extract_interests,
                      propagate_relation_graph, relation_norm_adjacency,
                      split_interest_embedding)
from ckml.dataio import build_relation_graphs

rng = np.random.default_rng(42)


def norm_adj(pairs, n):
    recs = [(a, b, 0) for a, b in pairs]
    return relation_norm_adjacency(build_relation_graphs(recs, n, 1)[0])


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

    def test_split_round_trip(self):
        spe = ad.Tensor(rng.normal(size=(3, 2, 4)))
        sha = ad.Tensor(rng.normal(size=(3, 1, 4)))
        stack = assemble_interest_embedding(spe, sha)
        back_spe, back_sha = split_interest_embedding(stack, 2)
        np.testing.assert_array_equal(back_spe.data, spe.data)
        np.testing.assert_array_equal(back_sha.data, sha.data)

    def test_missing_blocks_pass_through(self):
        sha = ad.Tensor(rng.normal(size=(3, 2, 4)))
        assert assemble_interest_embedding(None, sha) is sha
        spe, rest = split_interest_embedding(sha, 0)
        assert spe is None
        np.testing.assert_array_equal(rest.data, sha.data)
