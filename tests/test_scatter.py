"""The incidence-product scatters against their `np.add.at` references.

`ad.segment_sum` and the backward of `ad.gather` add rows per node as a
product with a node-by-position incidence matrix; `np.add.at` adds the same
rows from zero in the same order, so both must agree bit for bit whenever
the operands share a dtype.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ckml import autodiff as ad
from ckml.numerics import SparseMatrix

from naive_routing import add_at_gather, add_at_segment_sum


@st.composite
def scatter_cases(draw):
    """(index, num_nodes, rows, g, as_incidence): repeated ids, nodes that no
    position names, empty indices, 1-3-D rows and non-contiguous gradients."""
    num_nodes = draw(st.integers(1, 6))
    index = np.array(draw(st.lists(st.integers(0, num_nodes - 1), max_size=12)),
                     dtype=np.int64)
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    tail = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # wide exponent range so the order of the additions shows in the bits
    rows = (rng.normal(size=(num_nodes,) + tail)
            * 10.0 ** rng.integers(-8, 9, size=(num_nodes,) + tail)).astype(dtype)
    g = (rng.normal(size=(len(index),) + tail + (2,))
         * 10.0 ** rng.integers(-8, 9, size=(len(index),) + tail + (2,))).astype(dtype)
    g = g[..., 0] if draw(st.booleans()) else np.ascontiguousarray(g[..., 0])
    return index, num_nodes, rows, g, draw(st.booleans())


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestMatchesAddAt:
    @given(scatter_cases())
    @settings(max_examples=200, deadline=None)
    def test_segment_sum_forward_and_backward(self, case):
        index, num_nodes, _, g, as_incidence = case
        ids = SparseMatrix.incidence(index, num_nodes) if as_incidence else index
        x = ad.Tensor(g, requires_grad=True)
        want_x = ad.Tensor(g, requires_grad=True)
        out = ad.segment_sum(x, ids, num_nodes)
        want = add_at_segment_sum(want_x, index, num_nodes)
        assert_bitwise(out.data, want.data)
        up = np.random.default_rng(len(index)).normal(size=out.shape).astype(g.dtype)
        out._backward(up)
        want._backward(up)
        assert_bitwise(x.grad, want_x.grad)

    @given(scatter_cases())
    @settings(max_examples=200, deadline=None)
    def test_gather_forward_and_backward(self, case):
        index, num_nodes, rows, g, as_incidence = case
        ids = SparseMatrix.incidence(index, num_nodes) if as_incidence else index
        x = ad.Tensor(rows, requires_grad=True)
        want_x = ad.Tensor(rows, requires_grad=True)
        out = ad.gather(x, ids)
        want = add_at_gather(want_x, index)
        assert_bitwise(out.data, want.data)
        out._backward(g)
        want._backward(g)
        assert_bitwise(x.grad, want_x.grad)

    def test_incidence_of_another_node_count_rejected(self):
        x = ad.Tensor(np.zeros((3, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            ad.segment_sum(x, SparseMatrix.incidence([0, 1, 1], 4), 3)


class TestIncidenceBuild:
    """The directly built incidence against the one scipy builds from
    (row, column) pairs: COO to CSR, duplicates summed, indices sorted, and
    the transpose converted."""

    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, n - 1), max_size=20))))
    @settings(max_examples=200, deadline=None)
    def test_equals_scipy_build(self, case):
        num_nodes, index = case
        index = np.array(index, dtype=np.int64)
        got = SparseMatrix.incidence(index, num_nodes)
        want = SparseMatrix(sp.csr_matrix(
            (np.ones(len(index), dtype=np.float32), (index, np.arange(len(index)))),
            shape=(num_nodes, len(index))))
        for g, w in ((got.matrix, want.matrix), (got.matrix_t, want.matrix_t)):
            assert g.shape == w.shape
            assert g.data.dtype == w.data.dtype == np.float32
            np.testing.assert_array_equal(g.data, w.data)
            np.testing.assert_array_equal(g.indptr, w.indptr)
            np.testing.assert_array_equal(g.indices, w.indices)
            assert g.has_sorted_indices

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            SparseMatrix.incidence([0, 3], 3)
        with pytest.raises(ValueError):
            SparseMatrix.incidence([0, -1], 3)


class Recording(ad.Tensor):
    """Tensor that remembers the dtype of the gradients it receives."""

    __slots__ = ("received",)

    def _accumulate(self, g):
        self.received = g.dtype
        super()._accumulate(g)


class TestFloat32StaysFloat32:
    def test_segment_sum(self):
        x = ad.Tensor(np.ones((5, 2, 3), dtype=np.float32), requires_grad=True)
        out = ad.segment_sum(x, np.array([0, 2, 2, 1, 0]), 4)
        assert out.dtype == np.float32
        out.sum().backward()
        assert x.grad.dtype == np.float32

    def test_gather_backward(self):
        x = Recording(np.ones((4, 2, 3), dtype=np.float32), requires_grad=True)
        for index in (np.array([3, 0, 3]), SparseMatrix.incidence([3, 0, 3], 4)):
            x.grad = None
            ad.gather(x, index).sum().backward()
            assert x.received == np.float32
            assert x.grad.dtype == np.float32
            np.testing.assert_array_equal(x.grad[:, 0, 0], [1.0, 0.0, 0.0, 2.0])
