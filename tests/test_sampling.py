from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ckml import dataio
from ckml.dataio import (DataError, assemble_dataset, build_behavior_graphs,
                         build_relation_graphs, draw_free_items, sample_eval_negatives)
from ckml.trainer import epoch_ranking_triples, epoch_relation_triples

from naive_dataio import user_items
from naive_sampling import (naive_eval_negatives, naive_ranking_triples,
                            naive_relation_triples)

SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def behavior_graphs(draw):
    """Random small bipartite graph; user 0 may hold every item, leaving it
    no free negative."""
    num_users = draw(st.integers(1, 5))
    num_items = draw(st.integers(1, 6))
    pairs = draw(st.sets(st.tuples(st.integers(0, num_users - 1),
                                   st.integers(0, num_items - 1)), max_size=20))
    if draw(st.booleans()):
        pairs |= {(0, i) for i in range(num_items)}
    records = [(u, i, 0, 0) for u, i in sorted(pairs)]
    return build_behavior_graphs(records, num_users, num_items, 1)[0]


@st.composite
def relation_graphs(draw):
    """Random small item-item graph; item 0 may relate to every other item,
    leaving the edges it anchors no free negative."""
    num_items = draw(st.integers(2, 7))
    pairs = draw(st.sets(st.tuples(st.integers(0, num_items - 1),
                                   st.integers(0, num_items - 1)), max_size=15))
    if draw(st.booleans()):
        pairs |= {(0, i) for i in range(1, num_items)}
    records = [(a, b, 0) for a, b in sorted(pairs) if a != b]
    return build_relation_graphs(records, num_items, 1)[0]


class TestDrawFreeItems:
    @given(st.integers(1, 120), st.lists(st.integers(0, 4), max_size=30),
           st.lists(st.floats(0, 1), min_size=5, max_size=5),
           st.sampled_from([1, 3, 99]), st.sampled_from([2, 1024]), SEEDS)
    @settings(max_examples=120, deadline=None)
    def test_rows_are_distinct_free_items(self, n, anchors, density, count, chunk,
                                          seed):
        """Rows repeat anchors, and chunks of two rows split them; anchors
        range from every item free to none."""
        rng = np.random.default_rng(seed)
        banned = np.flatnonzero(rng.random((5, n)) < np.array(density)[:, None])
        free = n - np.bincount(banned // n, minlength=5)
        anchors = np.array(anchors, dtype=np.int64)
        with mock.patch.object(dataio, "_NEGATIVE_CHUNK", chunk):
            got = draw_free_items(rng, anchors, banned, n, count)
        assert got.dtype == np.int64 and got.shape == (len(anchors), count)
        banned = set(banned.tolist())
        for a, row in zip(anchors.tolist(), got.tolist()):
            if free[a] < count:
                assert row == [-1] * count
            else:
                assert len(set(row)) == count
                assert all(0 <= q < n and a * n + q not in banned for q in row)


class TestOracleEquality:
    @given(st.integers(1, 4), st.integers(99, 106),
           st.lists(st.tuples(st.integers(0, 3), st.integers(0, 105),
                              st.integers(0, 9)), max_size=25), SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_eval_negatives_match_comprehension(self, num_users, num_items, raw,
                                                seed):
        # the draws differ from the comprehension's; the users, the pools
        # and the pool error agree
        records = [(u, i, 0, t) for u, i, t in raw
                   if u < num_users and i < num_items]
        ds = assemble_dataset(records, [], num_users, num_items, 1, 0, 0, seed,
                              eval_negatives=False)
        try:
            want = naive_eval_negatives(ds, seed)
        except ValueError as exc:
            with pytest.raises(DataError) as err:
                sample_eval_negatives(ds, seed)
            assert str(err.value).startswith(f"{exc}: ")
            return
        got = sample_eval_negatives(ds, seed)
        assert got.dtype == np.int64 and got.shape == (len(want), 99)
        target = ds.behavior_graphs[0]
        for (u, held), negs in zip(ds.test_positive.tolist(), got):
            assert len(set(negs.tolist())) == 99
            banned = set(user_items(target, u).tolist()) | {held}
            assert not banned & set(negs.tolist())
            assert ((negs >= 0) & (negs < num_items)).all()


class TestEvalNegativeDistribution:
    NUM_ITEMS = 110
    SEEDS = 3000

    def test_first_position_is_uniform_over_free_items(self):
        """Over seeds, the first negative's counts fit the uniform law on the
        free items and the comprehension's counts. Total counts over all 99
        positions would not do: a draw without replacement spreads them less
        than a multinomial."""
        # user 0 touched items 0-3 and holds out item 4: 105 free items
        records = [(0, i, 0, i) for i in range(5)] + [(1, 7, 0, 0), (1, 8, 0, 1)]
        ds = assemble_dataset(records, [], 2, self.NUM_ITEMS, 1, 0, 0, 0,
                              eval_negatives=False)
        counts = np.zeros((2, self.NUM_ITEMS), dtype=np.int64)
        for seed in range(self.SEEDS):
            for row, sampler in enumerate((sample_eval_negatives, naive_eval_negatives)):
                counts[row, sampler(ds, seed)[0][0]] += 1
        assert not counts[:, :5].any()
        got, want = counts[:, 5:]
        assert stats.chisquare(got).pvalue > 0.01
        assert stats.chi2_contingency([got, want]).pvalue > 0.01


class TestEpochNegativeDistribution:
    NUM_ITEMS = 40
    SEEDS = 3000
    # the first row's anchor is user or item 0, with items 0-4 not free
    GRAPHS = {
        "ranking": (epoch_ranking_triples, naive_ranking_triples,
                    build_behavior_graphs([(0, i, 0, 0) for i in range(5)]
                                          + [(1, 7, 0, 0)], 2, NUM_ITEMS, 1)[0]),
        "relation": (epoch_relation_triples, naive_relation_triples,
                     build_relation_graphs([(0, i, 0) for i in range(1, 5)]
                                           + [(7, 8, 0)], NUM_ITEMS, 1)[0]),
    }

    @pytest.mark.parametrize("kind", GRAPHS)
    def test_first_negative_is_uniform_over_free_items(self, kind):
        """Over seeds, the first row's negative fits the uniform law on its
        anchor's free items and the loop's counts."""
        *samplers, graph = self.GRAPHS[kind]
        counts = np.zeros((2, self.NUM_ITEMS), dtype=np.int64)
        for seed in range(self.SEEDS):
            for row, sampler in enumerate(samplers):
                anchors, _, negatives = sampler(graph, np.random.default_rng(seed))
                assert anchors[0] == 0
                counts[row, negatives[0]] += 1
        assert not counts[:, :5].any()
        got, want = counts[:, 5:]
        assert stats.chisquare(got).pvalue > 0.01
        assert stats.chi2_contingency([got, want]).pvalue > 0.01


class TestEpochSamplers:
    def test_forced_negative(self):
        # one free item is the only possible negative for every anchor
        g = build_behavior_graphs([(0, 0, 0, 0), (0, 1, 0, 0)], 1, 3, 1)[0]
        r = build_relation_graphs([(0, 1, 0)], 3, 1)[0]
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert epoch_ranking_triples(g, rng)[2].tolist() == [2, 2]
            assert epoch_relation_triples(r, rng)[2].tolist() == [2]

    @given(behavior_graphs(), SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_negative_is_never_a_positive(self, graph, seed):
        triples = epoch_ranking_triples(graph, np.random.default_rng(seed))
        if triples is None:
            return
        edges = {tuple(e) for e in graph.edges.tolist()}
        for u, p, q in zip(*(t.tolist() for t in triples)):
            assert (u, p) in edges
            assert (u, q) not in edges

    @given(relation_graphs(), SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_relation_negative_is_not_anchor_or_neighbour(self, graph, seed):
        triples = epoch_relation_triples(graph, np.random.default_rng(seed))
        if triples is None:
            return
        edges = {tuple(e) for e in graph.edges.tolist()}
        for a, p, q in zip(*(t.tolist() for t in triples)):
            assert a < p and (a, p) in edges
            assert q != a
            assert (a, q) not in edges
