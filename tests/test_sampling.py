import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckml.dataio import (DataError, assemble_dataset, build_behavior_graphs,
                         build_relation_graphs, sample_eval_negatives)
from ckml.trainer import epoch_ranking_triples, epoch_relation_triples

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


def assert_same_draws(got, want, rng_got, rng_want):
    if want is None:
        assert got is None
    else:
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)
    # the same number of draws was consumed, so later draws agree too
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


class TestOracleEquality:
    @given(behavior_graphs(), SEEDS)
    @settings(max_examples=80, deadline=None)
    def test_ranking_triples_match_loop(self, graph, seed):
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        assert_same_draws(epoch_ranking_triples(graph, rng_got),
                          naive_ranking_triples(graph, rng_want), rng_got, rng_want)

    @given(relation_graphs(), SEEDS)
    @settings(max_examples=80, deadline=None)
    def test_relation_triples_match_loop(self, graph, seed):
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        assert_same_draws(epoch_relation_triples(graph, rng_got),
                          naive_relation_triples(graph, rng_want), rng_got, rng_want)

    @given(st.integers(1, 4), st.integers(99, 106),
           st.lists(st.tuples(st.integers(0, 3), st.integers(0, 105),
                              st.integers(0, 9)), max_size=25), SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_eval_negatives_match_comprehension(self, num_users, num_items, raw,
                                                seed):
        records = [(u, i, 0, t) for u, i, t in raw
                   if u < num_users and i < num_items]
        ds = assemble_dataset(records, [], num_users, num_items, 1, 0, 0, seed,
                              eval_negatives=False)
        try:
            want = naive_eval_negatives(ds, seed)
        except ValueError:
            with pytest.raises(DataError, match="insufficient candidate pool"):
                sample_eval_negatives(ds, seed)
            return
        got = sample_eval_negatives(ds, seed)
        assert list(got) == list(want)
        for u in want:
            assert got[u].dtype == want[u].dtype
            np.testing.assert_array_equal(got[u], want[u])


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
