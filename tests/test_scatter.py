"""The scatter ops against their `np.add.at` references.

`ad.segment_sum` and the backward of `ad.gather` add rows per node into
zeros by `np.add.at`; the references add the same rows in the same order,
so both must agree bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ckml import autodiff as ad

from naive_routing import add_at_gather, add_at_segment_sum


@st.composite
def scatter_cases(draw):
    """(index, num_nodes, rows, g): repeated ids, nodes that no position
    names, empty indices, 1-3-D rows and non-contiguous gradients."""
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
    return index, num_nodes, rows, g


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestMatchesAddAt:
    @given(scatter_cases())
    @settings(max_examples=200, deadline=None)
    def test_segment_sum_forward_and_backward(self, case):
        index, num_nodes, _, g = case
        x = ad.Tensor(g, requires_grad=True)
        want_x = ad.Tensor(g, requires_grad=True)
        out = ad.segment_sum(x, index, num_nodes)
        want = add_at_segment_sum(want_x, index, num_nodes)
        assert_bitwise(out.data, want.data)
        up = np.random.default_rng(len(index)).normal(size=out.shape).astype(g.dtype)
        out._backward(up)
        want._backward(up)
        assert_bitwise(x.grad, want_x.grad)

    @given(scatter_cases())
    @settings(max_examples=200, deadline=None)
    def test_gather_forward_and_backward(self, case):
        index, num_nodes, rows, g = case
        x = ad.Tensor(rows, requires_grad=True)
        want_x = ad.Tensor(rows, requires_grad=True)
        out = ad.gather(x, index)
        want = add_at_gather(want_x, index)
        assert_bitwise(out.data, want.data)
        out._backward(g)
        want._backward(g)
        assert_bitwise(x.grad, want_x.grad)


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
        ad.gather(x, np.array([3, 0, 3])).sum().backward()
        assert x.received == np.float32
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad[:, 0, 0], [1.0, 0.0, 0.0, 2.0])
