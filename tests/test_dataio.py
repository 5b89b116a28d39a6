import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckml import dataio
from ckml.dataio import (DataError, GenConfig, assemble_dataset,
                         build_behavior_graphs, build_relation_graphs,
                         dataset_hash, generate_synthetic, leave_one_out_split,
                         load_dataset, load_interactions, load_relations,
                         sample_eval_negatives, synthesize_records, time_buckets,
                         write_interactions, write_manifest, write_relations)
from ckml.numerics import SparseMatrix, normalized_adjacency

from naive_dataio import (naive_behavior_graphs, naive_leave_one_out_split,
                          naive_relation_graphs, naive_time_buckets, user_items)


def rec(u, i, k, t=0):
    return (u, i, k, t)


class TestLoadInteractions:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_text("")
        out = load_interactions(p, 1, 1, 1)
        assert out.shape == (0, 4) and out.dtype == np.int64

    def test_single_record(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_text("0\t0\t0\t100\n")
        assert load_interactions(p, 1, 1, 1).tolist() == [[0, 0, 0, 100]]

    def test_comments_ignored(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_text("# header\n0\t0\t0\t1\n")
        assert len(load_interactions(p, 1, 1, 1)) == 1

    def test_user_out_of_range_names_line(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_text("5\t0\t0\t0\n")
        with pytest.raises(DataError, match="user id out of range at line 1"):
            load_interactions(p, 3, 1, 1)

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_text("0\t0\t0\t7\nnot-a-record\n")
        with pytest.raises(DataError, match="line 2"):
            load_interactions(p, 1, 1, 1)

    def test_order_preserved(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_text("0\t1\t0\t5\n0\t0\t0\t3\n")
        out = load_interactions(p, 1, 2, 1)
        assert out[:, 1].tolist() == [1, 0]


# Dims for the rejection table: 2 users, 3 items, 2 behaviors, 2 relations.
INTERACTION_REJECTIONS = [
    ("0\t0\t0\n", "malformed line (expected 4 tab-separated fields) at line 1"),
    ("0\t0\t0\t1\t9\n", "malformed line (expected 4 tab-separated fields) at line 1"),
    ("u\t0\t0\t1\n", "malformed user id 'u' at line 1"),
    ("0\t1.5\t0\t1\n", "malformed item id '1.5' at line 1"),
    ("0\t0\t\t1\n", "malformed behavior id '' at line 1"),
    ("0\t0\t0\tnow\n", "malformed timestamp 'now' at line 1"),
    ("2\t0\t0\t1\n", "user id out of range at line 1"),
    ("-1\t0\t0\t1\n", "user id out of range at line 1"),
    ("0\t3\t0\t1\n", "item id out of range at line 1"),
    ("0\t-1\t0\t1\n", "item id out of range at line 1"),
    ("0\t0\t2\t1\n", "behavior id out of range at line 1"),
    ("0\t0\t-1\t1\n", "behavior id out of range at line 1"),
    ("0\t0\t0\t-1\n", "negative timestamp at line 1"),
    # comment and blank lines count toward the line number
    ("# header\n\n0\t0\t0\t1\n9\t0\t0\t1\n", "user id out of range at line 4"),
    # every field parses before any range check: the parse error wins
    ("9\t0\tx\t1\n", "malformed behavior id 'x' at line 1"),
    ("9\t0\t0\n", "malformed line (expected 4 tab-separated fields) at line 1"),
    # the earlier bad line fails first, whatever its kind
    ("9\t0\t0\t1\n0\tx\t0\t1\n", "user id out of range at line 1"),
    ("0\tx\t0\t1\n9\t0\t0\t1\n", "malformed item id 'x' at line 1"),
    ("0\t0\t0\t1\n0\t0\t0\t-5\n0\t9\t0\t1\n", "negative timestamp at line 2"),
]

RELATION_REJECTIONS = [
    ("0\t1\n", "malformed line (expected 3 tab-separated fields) at line 1"),
    ("0\t1\t0\t0\n", "malformed line (expected 3 tab-separated fields) at line 1"),
    ("a\t1\t0\n", "malformed item id 'a' at line 1"),
    ("0\tb\t0\n", "malformed item id 'b' at line 1"),
    ("0\t1\tr\n", "malformed relation id 'r' at line 1"),
    ("3\t1\t0\n", "item id out of range at line 1"),
    ("0\t3\t0\n", "item id out of range at line 1"),
    ("-1\t1\t0\n", "item id out of range at line 1"),
    ("0\t1\t2\n", "relation id out of range at line 1"),
    ("0\t1\t-1\n", "relation id out of range at line 1"),
    ("# a\tb\tr\n\n\n0\t1\t5\n", "relation id out of range at line 4"),
    ("9\t1\tr\n", "malformed relation id 'r' at line 1"),
    ("0\t1\t9\n0\tb\t0\n", "relation id out of range at line 1"),
    ("0\tb\t0\n0\t1\t9\n", "malformed item id 'b' at line 1"),
]


class TestLoaderRejections:
    @pytest.mark.parametrize("text,message", INTERACTION_REJECTIONS)
    def test_interactions(self, tmp_path, text, message):
        p = tmp_path / "x.tsv"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(DataError) as err:
            load_interactions(p, 2, 3, 2)
        assert str(err.value) == message

    @pytest.mark.parametrize("text,message", RELATION_REJECTIONS)
    def test_relations(self, tmp_path, text, message):
        p = tmp_path / "r.tsv"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(DataError) as err:
            load_relations(p, 3, 2)
        assert str(err.value) == message

    # int() would take each of these tokens; a field is "-"? and ASCII digits
    def _interaction_error(self, tmp_path, text):
        p = tmp_path / "x.tsv"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(DataError) as err:
            load_interactions(p, 2, 20, 2)
        return str(err.value)

    def test_underscore_in_digits_rejected(self, tmp_path):
        assert (self._interaction_error(tmp_path, "0\t1_0\t0\t1\n")
                == "malformed item id '1_0' at line 1")

    def test_plus_sign_rejected(self, tmp_path):
        assert (self._interaction_error(tmp_path, "0\t0\t0\t1\n0\t0\t0\t+5\n")
                == "malformed timestamp '+5' at line 2")

    def test_space_and_non_ascii_digit_rejected(self, tmp_path):
        assert (self._interaction_error(tmp_path, "0\t \u0663\t0\t1\n")
                == "malformed item id ' \u0663' at line 1")

    def test_crlf_line_ends_load(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_bytes(b"# header\r\n0\t1\t0\t5\r\n1\t2\t1\t-0\r\n")
        assert load_interactions(p, 2, 3, 2).tolist() == [[0, 1, 0, 5], [1, 2, 1, 0]]
        p.write_bytes(b"0\t1\t0\t5\r\n0\t1\t0\t-5\r\n")
        with pytest.raises(DataError, match="^negative timestamp at line 2$"):
            load_interactions(p, 2, 3, 2)


class TestTimestampBound:
    def test_timestamp_beyond_int64_rejected(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_text(f"0\t0\t0\t{2**63 - 1}\n0\t0\t0\t{2**63}\n")
        with pytest.raises(DataError) as err:
            load_interactions(p, 1, 1, 1)
        assert str(err.value) == "timestamp out of range at line 2"


# Fields for the reader oracle: valid ids, `-0`, negatives, values at and
# beyond the int64 edge (19 and 20 digits) and tokens int() takes but the
# format does not.
READER_FIELDS = st.one_of(
    st.integers(-3, 25).map(str), st.just("-0"), st.just("007"),
    st.integers(-(10**20), 10**20).filter(lambda v: abs(v) >= 10**18).map(str),
    st.sampled_from([str(2**63 - 1), str(2**63), str(-(2**63)), "0" * 19 + "1",
                     "", "x", "1_0", "+5", " 3", "\u0663", "1.0"]))
READER_COLUMNS = (("user id", 20), ("item id", 30), ("behavior id", 3),
                  ("timestamp", 2**63))


@st.composite
def reader_files(draw):
    """Bytes of a TSV file, mostly valid: comments, blank lines, LF or CRLF
    line ends, sometimes a BOM, a trailing tab or a wrong field count."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 5 + ["blank", "comment"]))
        if kind == "blank":
            line = ""
        elif kind == "comment":
            line = "# user\titem " + draw(st.text(max_size=4).filter(
                lambda t: "\n" not in t and "\r" not in t))
        else:
            width = draw(st.sampled_from([4] * 8 + [3, 5]))
            if draw(st.integers(0, 3)):
                fields = [draw(st.integers(0, upper - 1 if upper < 2**63 else 10**6)
                               .map(str)) for _, upper in READER_COLUMNS][:width]
                fields += ["1"] * (width - len(fields))
            else:
                fields = [draw(READER_FIELDS) for _ in range(width)]
            line = "\t".join(fields) + ("\t" if draw(st.integers(0, 9)) == 0 else "")
        lines.append(line + draw(st.sampled_from(["\n", "\n", "\r\n"])))
    text = "".join(lines)
    if lines and draw(st.booleans()):
        text = text[:-1]  # no line end after the last line
    if draw(st.integers(0, 9)) == 0:
        text = "\ufeff" + text
    return text.encode("utf-8")


class TestReaderOracle:
    @given(reader_files())
    @settings(max_examples=300, deadline=None)
    def test_whole_file_parse_matches_per_line_loop(self, tmp_path_factory, data):
        """The whole-file parse returns the per-line loop's rows bitwise, or
        raises its message."""
        p = tmp_path_factory.mktemp("reader") / "x.tsv"
        p.write_bytes(data)
        with open(p, encoding="utf-8") as fh:
            text = fh.read()
        try:
            want = dataio._parse_lines(text, READER_COLUMNS)
        except DataError as exc:
            with pytest.raises(DataError) as err:
                dataio._read_rows(p, "interactions file", READER_COLUMNS)
            assert str(err.value) == str(exc)
            return
        assert_bitwise(dataio._read_rows(p, "interactions file", READER_COLUMNS), want)


@st.composite
def interaction_rows(draw):
    """(rows, dims, target) with repeated edges under tied and distinct
    timestamps, often a behavior with no rows and users with no target row."""
    num_users = draw(st.integers(1, 5))
    num_items = draw(st.integers(1, 5))
    num_behaviors = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(st.integers(0, num_users - 1),
                                   st.integers(0, num_items - 1),
                                   st.integers(0, num_behaviors - 1),
                                   st.integers(0, 6)), max_size=30))
    if rows:
        repeats = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                          st.integers(0, 6)), max_size=15))
        rows += [rows[j][:3] + (t,) for j, t in repeats]
    empty = draw(st.integers(0, num_behaviors))  # == num_behaviors: none emptied
    rows = [r for r in rows if r[2] != empty]
    target = draw(st.integers(0, num_behaviors - 1))
    if draw(st.booleans()):  # user 0 keeps no target row
        rows = [r for r in rows if not (r[0] == 0 and r[2] == target)]
    return rows, (num_users, num_items, num_behaviors), target


@st.composite
def relation_rows(draw):
    """(rows, num_items, relation_count) with exact repeats and mirrored
    pairs; sometimes self-loops, of which the first must be named."""
    num_items = draw(st.integers(2, 6))
    relation_count = draw(st.integers(1, 3))
    pairs = st.tuples(st.integers(0, num_items - 1), st.integers(0, num_items - 1),
                      st.integers(0, relation_count - 1))
    rows = [r for r in draw(st.lists(pairs, max_size=20)) if r[0] != r[1]]
    if rows:
        picks = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                        st.booleans()), max_size=10))
        rows += [(rows[j][1], rows[j][0], rows[j][2]) if mirror else rows[j]
                 for j, mirror in picks]
    for loop, _, r in draw(st.lists(pairs, max_size=2)):
        rows.insert(draw(st.integers(0, len(rows))), (loop, loop, r))
    return rows, num_items, relation_count


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestArraysMatchRecordLoops:
    @given(interaction_rows(), st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_split_graphs_and_buckets(self, case, bucket_count):
        rows, (num_users, num_items, num_behaviors), target = case
        train, test = leave_one_out_split(rows, target)
        want_train, want_test = naive_leave_one_out_split(rows, target)
        # (user, held-out item) rows, users ascending
        assert_bitwise(test, np.array(sorted(want_test.items()), dtype=np.int64).reshape(-1, 2))
        assert_bitwise(train, np.array(want_train, dtype=np.int64).reshape(-1, 4))

        for source in (rows, train):
            got = build_behavior_graphs(source, num_users, num_items, num_behaviors)
            want = naive_behavior_graphs(source, num_users, num_items,
                                         num_behaviors)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.behavior_id == w.behavior_id
                assert_bitwise(g.edges, w.edges)
                assert_bitwise(g.edge_ts, w.edge_ts)
                for b, wb in zip(time_buckets(g, bucket_count),
                                 naive_time_buckets(w, bucket_count)):
                    assert_bitwise(b, wb)

    @given(relation_rows())
    @settings(max_examples=150, deadline=None)
    def test_relation_graphs(self, case):
        rows, num_items, relation_count = case
        try:
            want = naive_relation_graphs(rows, num_items, relation_count)
        except DataError as exc:
            with pytest.raises(DataError) as err:
                build_relation_graphs(rows, num_items, relation_count)
            assert str(err.value) == str(exc)
            return
        got = build_relation_graphs(rows, num_items, relation_count)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.relation_id == w.relation_id
            assert_bitwise(g.edges, w.edges)


class TestBuildBehaviorGraphs:
    def test_empty_records(self):
        graphs = build_behavior_graphs([], 2, 2, 2)
        assert len(graphs) == 2
        assert all(g.edge_count == 0 for g in graphs)

    def test_duplicate_edges_collapse(self):
        graphs = build_behavior_graphs([rec(0, 1, 0, 5), rec(0, 1, 0, 9)], 1, 2, 1)
        assert graphs[0].edge_count == 1
        assert user_items(graphs[0], 0).tolist() == [1]
        assert graphs[0].edge_ts[0] == 9  # latest timestamp retained

    def test_hand_enumerated_adjacency(self):
        # independent brute-force oracle: count degrees from the raw pairs
        records = [rec(0, 0, 0), rec(1, 0, 0), rec(0, 1, 1)]
        graphs = build_behavior_graphs(records, 2, 2, 2)
        assert graphs[0].edge_count == 2
        adj = SparseMatrix.from_edges(graphs[0].edges[:, 0], graphs[0].edges[:, 1], (2, 2))
        assert np.diff(adj.matrix_t.indptr)[0] == 2
        assert graphs[1].edge_count == 1

    @given(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 5)), max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_adjacencies_are_exact_transposes(self, pairs):
        records = [rec(u, i, 0) for u, i in pairs]
        g = build_behavior_graphs(records, 5, 6, 1)[0]
        for adj in (SparseMatrix.from_edges(g.edges[:, 0], g.edges[:, 1], (5, 6)),
                    normalized_adjacency(g.edges[:, 0], g.edges[:, 1], (5, 6))):
            assert (adj.matrix.T != adj.matrix_t).nnz == 0
            assert g.edge_count == adj.matrix.nnz == adj.matrix_t.nnz
            assert {tuple(e) for e in g.edges} == set(zip(*adj.matrix.nonzero()))


class TestBuildRelationGraphs:
    def test_symmetrized(self):
        g = build_relation_graphs([(0, 1, 0)], 2, 1)[0]
        assert {(0, 1), (1, 0)} == {tuple(e) for e in g.edges}

    def test_empty(self):
        graphs = build_relation_graphs([], 3, 2)
        assert all(g.edges.shape[0] == 0 for g in graphs)

    def test_mirrored_pair_dedups(self):
        recs = [(0, 1, 0), (1, 0, 0)]
        g = build_relation_graphs(recs, 2, 1)[0]
        assert len(g.undirected_edges()) == 1
        adj = SparseMatrix.from_edges(g.edges[:, 0], g.edges[:, 1], (2, 2))
        np.testing.assert_array_equal(np.diff(adj.matrix.indptr), [1, 1])

    def test_self_loop_rejected(self):
        with pytest.raises(DataError, match="self-loop"):
            build_relation_graphs([(2, 2, 0)], 3, 1)


def test_graphs_are_edge_arrays_and_dataio_imports_no_sparse_code():
    # the model builds every sparse matrix from a graph's edges; a dataset
    # holding its own copies would go stale when its edges change
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(dataio.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, ckml.dataio; "
            "loaded = {'ckml.numerics', 'scipy.sparse'} & set(sys.modules); "
            "assert not loaded, sorted(loaded)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    ds = assemble_dataset([rec(0, 1, 0, 3), rec(1, 0, 1, 4)], [(0, 1, 0)], 2, 2, 2, 1,
                          1, 0, eval_negatives=False)
    for g in ds.behavior_graphs + ds.relation_graphs:
        assert all(isinstance(v, (int, np.ndarray)) for v in vars(g).values()), vars(g)


class TestLeaveOneOutSplit:
    def test_max_timestamp_wins(self):
        records = [rec(0, 3, 1, 1), rec(0, 4, 1, 2)]
        train, test = leave_one_out_split(records, 1)
        assert test.tolist() == [[0, 4]]
        assert train.tolist() == [list(records[0])]

    def test_single_interaction_user_keeps_no_target_edge(self):
        records = [rec(0, 2, 1, 7), rec(0, 5, 0, 1)]
        train, test = leave_one_out_split(records, 1)
        assert test.tolist() == [[0, 2]]
        assert (train[:, 2] != 1).all()

    def test_tie_breaks_by_greater_item(self):
        records = [rec(0, 2, 0, 5), rec(0, 7, 0, 5)]
        _, test = leave_one_out_split(records, 0)
        assert test.tolist() == [[0, 7]]

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5),
                              st.integers(0, 9)), max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_reinsertion_restores_edge_set(self, raw):
        records = [rec(u, i, 0, t) for u, i, t in raw]
        train, test = leave_one_out_split(records, 0)
        original = {(u, i) for u, i, _, _ in records}
        rebuilt = {(u, i) for u, i, _, _ in train.tolist()}
        rebuilt |= {(u, i) for u, i in test.tolist()}
        assert rebuilt == original


class TestEvalNegatives:
    def _dataset(self, n_items, records, seed=3):
        return assemble_dataset(records, [], 1, n_items, 1, 0, 0, seed)

    def test_forced_pool_of_99(self):
        # user touched items 0 (train) and 1 (held out): the other 99 remain
        records = [rec(0, 0, 0, 1), rec(0, 1, 0, 2)]
        ds = self._dataset(101, records)
        negs = ds.eval_negatives[0]
        assert len(negs) == 99
        assert set(negs.tolist()) == set(range(101)) - {0, 1}

    def test_same_seed_identical(self):
        records = [rec(0, 0, 0, 1), rec(0, 1, 0, 2)]
        a = self._dataset(150, records, seed=5)
        b = self._dataset(150, records, seed=5)
        np.testing.assert_array_equal(a.eval_negatives[0], b.eval_negatives[0])

    def test_different_seeds_differ_and_both_exclude_history(self):
        records = [rec(0, j, 0, j) for j in range(6)]
        a = self._dataset(1000, records, seed=1)
        b = self._dataset(1000, records, seed=2)
        assert not np.array_equal(a.eval_negatives[0], b.eval_negatives[0])
        for ds in (a, b):
            banned = set(range(6))  # brute-force membership check
            negs = ds.eval_negatives[0]
            assert len(set(negs.tolist())) == 99
            assert not banned & set(negs.tolist())

    def test_insufficient_pool(self):
        records = [rec(0, 0, 0, 1), rec(0, 1, 0, 2)]
        with pytest.raises(DataError, match="insufficient candidate pool"):
            self._dataset(100, records)

    def test_same_seed_same_negatives_and_hash(self):
        cfg = GenConfig(num_users=40, num_items=150, interactions_per_user=6)
        a = generate_synthetic(cfg, seed=9)
        b = generate_synthetic(cfg, seed=9)
        assert_bitwise(a.test_positive, b.test_positive)
        assert a.eval_negatives.shape == (len(a.test_positive), 99)
        assert_bitwise(a.eval_negatives, b.eval_negatives)
        assert dataset_hash(a) == dataset_hash(b)

    def test_pinned_hash(self):
        """The eval-negative stream is part of a dataset: a change to the
        sampler must not move it. 1,100 users span two draw chunks."""
        ds = generate_synthetic(GenConfig(num_users=1100, num_items=200), seed=5)
        assert len(ds.eval_negatives) == 1100
        assert dataset_hash(ds) == (
            "3bf2dc171d88b1a3233758db1579195eaa70f15fefe9f052cc0b2607a6793782")

    def test_peak_memory_does_not_grow_with_items(self):
        """64 users over a million items: the draw allocates per user and
        per negative, never per item."""
        num_items = 1_000_000
        records = [rec(u, (u * 7919 + j * 104729) % num_items, 0, j)
                   for u in range(64) for j in range(4)]
        ds = assemble_dataset(records, [], 64, num_items, 1, 0, 0, 5,
                              eval_negatives=False)
        tracemalloc.start()
        try:
            negatives = sample_eval_negatives(ds, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(negatives) == 64
        assert peak < 4 * 2**20


class TestSynthetic:
    def test_zero_correlation_specific_only_pools_disjoint(self):
        cfg = GenConfig(num_users=20, num_items=120, num_behaviors=2,
                        relation_count=1, shared_prototypes=0,
                        specific_prototypes=2, interactions_per_user=6,
                        correlation=0.0)
        records, _, gt = synthesize_records(cfg, seed=0)
        protos = np.array(gt["item_prototypes"])
        by_behavior = {0: set(), 1: set()}
        for _, i, k, _ in records:
            by_behavior[k].add(int(protos[i]))
        assert not (by_behavior[0] & by_behavior[1])

    def test_same_seed_same_hash(self):
        cfg = GenConfig(num_users=12, num_items=130, interactions_per_user=5)
        a = generate_synthetic(cfg, seed=4)
        b = generate_synthetic(cfg, seed=4)
        assert dataset_hash(a) == dataset_hash(b)
        c = generate_synthetic(cfg, seed=5)
        assert dataset_hash(a) != dataset_hash(c)

    def test_correlation_raises_cross_behavior_jaccard(self):
        def mean_jaccard(corr, seed=11):
            cfg = GenConfig(num_users=40, num_items=120, num_behaviors=2,
                            relation_count=1, shared_prototypes=2,
                            specific_prototypes=0, interactions_per_user=8,
                            correlation=corr)
            records, _, _ = synthesize_records(cfg, seed=seed)
            sets = {}
            for u, i, k, _ in records.tolist():
                sets.setdefault((u, k), set()).add(i)
            vals = []
            for u in range(cfg.num_users):
                a = sets.get((u, 0), set())
                b = sets.get((u, 1), set())
                if a or b:
                    vals.append(len(a & b) / len(a | b))
            return float(np.mean(vals))

        assert mean_jaccard(1.0) > mean_jaccard(0.0)

    def test_infeasible_config_rejected(self):
        cfg = GenConfig(num_users=2, num_items=10, interactions_per_user=50)
        with pytest.raises(DataError, match="infeasible"):
            synthesize_records(cfg, seed=0)


def assert_split_rows(ds):
    """The split is (U, 2) int64 rows of user, held-out item with users
    ascending; its negatives, when drawn, are (U, 99) int64 rows, row i
    outside the target history of the user of split row i."""
    test = ds.test_positive
    assert test.dtype == np.int64 and test.ndim == 2 and test.shape[1] == 2
    assert len(test) and (np.diff(test[:, 0]) > 0).all()
    if ds.eval_negatives is None:
        return
    negatives = ds.eval_negatives
    assert negatives.dtype == np.int64 and negatives.shape == (len(test), 99)
    target = ds.behavior_graphs[ds.target_behavior].edges
    for (u, held), row in zip(test.tolist(), negatives.tolist()):
        history = set(target[target[:, 0] == u, 1].tolist()) | {held}
        assert len(set(row)) == 99 and not history & set(row)


class TestRoundTrip:
    def test_files_reproduce_dataset_hash(self, tmp_path):
        cfg = GenConfig(num_users=15, num_items=140, interactions_per_user=6)
        records, rel_records, gt = synthesize_records(cfg, seed=2)
        ds = assemble_dataset(records, rel_records, 15, 140, 2, 2, 1, 2,
                              ground_truth=gt)
        write_interactions(tmp_path / "i.tsv", records)
        write_relations(tmp_path / "r.tsv", rel_records)
        import json
        (tmp_path / "gt.json").write_text(json.dumps(gt))
        write_manifest(tmp_path / "manifest.txt", num_users=15, num_items=140,
                       num_behaviors=2, relation_count=2, target_behavior=1,
                       seed=2, interactions="i.tsv", relations="r.tsv",
                       ground_truth="gt.json")
        loaded = load_dataset(tmp_path / "manifest.txt")
        assert dataset_hash(loaded) == dataset_hash(ds)
        for g1, g2 in zip(loaded.behavior_graphs, ds.behavior_graphs):
            np.testing.assert_array_equal(g1.edges, g2.edges)
        for split in (ds, loaded, generate_synthetic(cfg, seed=2)):
            assert_split_rows(split)
            assert split.eval_negatives is not None
        unsampled = generate_synthetic(cfg, seed=2, eval_negatives=False)
        assert_split_rows(unsampled)
        assert unsampled.eval_negatives is None

    def test_missing_manifest_keys(self, tmp_path):
        (tmp_path / "manifest.txt").write_text("users=3\n")
        with pytest.raises(DataError, match="missing keys"):
            load_dataset(tmp_path / "manifest.txt")


class TestTimeBuckets:
    def test_quantile_assignment(self):
        records = [rec(0, 0, 0, 10), rec(1, 1, 0, 20), rec(2, 2, 0, 30),
                   rec(3, 3, 0, 40)]
        g = build_behavior_graphs(records, 4, 4, 1)[0]
        ub, ib = time_buckets(g, 2)
        np.testing.assert_array_equal(ub, [0, 0, 1, 1])
        np.testing.assert_array_equal(ib, [0, 0, 1, 1])

    def test_inactive_nodes_bucket_zero(self):
        g = build_behavior_graphs([rec(0, 0, 0, 5)], 3, 3, 1)[0]
        ub, _ = time_buckets(g, 4)
        assert ub[1] == ub[2] == 0
