import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from ckml import autodiff as ad
from ckml.numerics import (GradientReport, NumericError, finite_difference_gradcheck,
                           from_edges)

from naive_autodiff import log
from naive_numerics import leaky_relu, softmax_with_temperature, spmm

# spread/tau stays below ~700 so exp never underflows to an exact zero
finite_floats = st.floats(min_value=-30, max_value=30, allow_nan=False,
                          allow_infinity=False)


class TestSoftmaxWithTemperature:
    def test_constant_vector_is_uniform(self):
        out = softmax_with_temperature(np.array([2.5, 2.5, 2.5]), tau=7.0)
        np.testing.assert_allclose(out, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_single_element(self):
        np.testing.assert_array_equal(
            softmax_with_temperature(np.array([4.2]), tau=1.0), [1.0])

    def test_closed_form_pair(self):
        out = softmax_with_temperature(np.array([0.0, np.log(3.0)]), tau=1.0)
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-12)

    def test_rejects_bad_tau(self):
        with pytest.raises(NumericError):
            softmax_with_temperature(np.array([1.0]), tau=0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            softmax_with_temperature(np.array([np.inf, 1.0]), tau=1.0)

    @given(st.lists(finite_floats, min_size=1, max_size=8),
           st.floats(min_value=0.1, max_value=20))
    def test_sums_to_one_and_positive(self, values, tau):
        out = softmax_with_temperature(np.array(values), tau)
        assert np.all(out > 0)
        assert abs(out.sum() - 1.0) < 1e-6

    @given(st.lists(finite_floats, min_size=2, max_size=8))
    def test_shift_invariance(self, values):
        v = np.array(values)
        a = softmax_with_temperature(v, 1.3)
        b = softmax_with_temperature(v + 17.0, 1.3)
        np.testing.assert_allclose(a, b, atol=1e-12)

    # grid-valued inputs: separations stay above rounding scale, ties stay exact
    @given(st.lists(st.integers(-300, 300).map(lambda i: i / 10.0),
                    min_size=2, max_size=8),
           st.floats(min_value=0.1, max_value=20))
    def test_argmax_matches_input_argmax(self, values, tau):
        v = np.array(values)
        assert np.argmax(softmax_with_temperature(v, tau)) == np.argmax(v)


class TestLeakyRelu:
    def test_zero(self):
        assert leaky_relu(np.float64(0.0)) == 0.0

    def test_positive_passthrough(self):
        assert leaky_relu(np.float64(2.0), 0.37) == 2.0

    def test_negative_scaled(self):
        assert leaky_relu(np.float64(-1.0), 0.2) == pytest.approx(-0.2)

    def test_slope_bounds(self):
        with pytest.raises(NumericError):
            leaky_relu(np.float64(1.0), 0.0)
        with pytest.raises(NumericError):
            leaky_relu(np.float64(1.0), 1.0)


class TestSpmm:
    def test_empty_adjacency_gives_zero(self):
        out = spmm([], [], (3, 3), np.ones((3, 2)))
        np.testing.assert_array_equal(out, np.zeros((3, 2)))

    def test_two_node_swap_symmetric_degree(self):
        dense = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = spmm([0, 1], [1, 0], (2, 2), dense)
        np.testing.assert_allclose(out, dense[::-1])

    def test_path_graph_symmetric_degree(self):
        # 0-1-2: middle row = 2 * 1/sqrt(2*1) = sqrt(2) on an all-ones input
        out = spmm([0, 1, 1, 2], [1, 0, 2, 1], (3, 3), np.ones((3, 1)))
        assert out[1, 0] == pytest.approx(np.sqrt(2.0))
        assert out[0, 0] == pytest.approx(1 / np.sqrt(2.0))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            spmm([0], [0], (2, 2), np.ones((3, 1)))

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(5)
        rows, cols = np.unique(rng.integers(0, 30, (80, 2)), axis=0).T
        dense = rng.normal(size=(30, 7))
        a = spmm(rows, cols, (30, 30), dense)
        b = spmm(rows, cols, (30, 30), dense)
        assert np.array_equal(a, b)


class TestSparseMatrixInvariants:
    def test_sorted_indices_and_monotone_offsets(self):
        m = from_edges([1, 1, 0, 1], [2, 0, 1, 1], shape=(2, 3))
        assert np.all(np.diff(m.indptr) >= 0)
        for r in range(2):
            row = m.indices[m.indptr[r]:m.indptr[r + 1]]
            assert np.all(np.diff(row) > 0)

    def test_repeated_entries_summed_in_sorted_rows(self):
        # unsorted input with (1, 2) given twice
        m = from_edges([1, 0, 1, 1, 0], [2, 1, 0, 2, 0], shape=(2, 3),
                       data=np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert m.has_canonical_format and m.has_sorted_indices
        np.testing.assert_array_equal(m.indptr, [0, 2, 4])
        np.testing.assert_array_equal(m.indices, [0, 1, 0, 2])
        np.testing.assert_array_equal(m.data, [5.0, 2.0, 3.0, 5.0])
        np.testing.assert_array_equal(m.T.toarray(), m.toarray().T)

    def test_transpose_available(self):
        m = from_edges([0, 1], [1, 0], shape=(2, 2))
        # a view: no array is copied
        assert m.T.format == "csc"
        for a, b in ((m.T.data, m.data), (m.T.indices, m.indices), (m.T.indptr, m.indptr)):
            assert np.shares_memory(a, b)

    @pytest.mark.parametrize("width", [1, 16])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_transposed_product_is_the_transpose_csr_product(self, dtype, width):
        # `spmm`'s backward and the sums into items multiply by `m.T`, a CSC
        # view; scipy's CSC product must add each output row's terms in the
        # order a CSR copy of the transpose does: ascending original row.
        # Rows 2 and 6 and columns 0 and 8 are empty, and entries repeat.
        rng = np.random.default_rng(width)
        rows = rng.choice([0, 1, 3, 4, 5], size=60)
        cols = rng.integers(1, 8, size=60)
        m = from_edges(rows, cols, (7, 9), rng.normal(size=60).astype(dtype))
        assert m.nnz < 60 and m.dtype == dtype
        entry_rows = np.repeat(np.arange(7), np.diff(m.indptr))
        order = np.lexsort((entry_rows, m.indices))
        t = sp.csr_matrix((m.data[order], entry_rows[order], np.concatenate(
            ([0], np.cumsum(np.bincount(m.indices, minlength=9))))), shape=(9, 7))
        x = rng.normal(size=(7, width)).astype(dtype)
        got, want = m.T @ x, t @ x
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(got[[0, 8]], 0.0)


class TestGradcheck:
    def test_quadratic_loss(self):
        params = {"theta": np.array([1.0, -2.0, 0.5])}

        def loss(ts):
            return (ts["theta"] * ts["theta"]).sum()

        report = finite_difference_gradcheck(loss, params)
        assert isinstance(report, GradientReport)
        assert report.overall < 1e-8

    def test_constant_loss_zero_gradient(self):
        params = {"theta": np.array([[0.3, 0.7]])}

        def loss(ts):
            return ad.constant(np.float64(4.0)) + ts["theta"].sum() * 0.0

        report = finite_difference_gradcheck(loss, params)
        assert report.overall < 1e-8

    def test_corrupted_gradient_is_caught_and_named(self):
        params = {"good": np.array([0.5, 1.5]), "bad": np.array([2.0, -1.0])}

        def loss(ts):
            return (ts["good"] * ts["good"]).sum() + (ts["bad"] * ts["bad"]).sum()

        def hook(name, grad):
            return grad * 2.0 if name == "bad" else grad

        report = finite_difference_gradcheck(loss, params, grad_hook=hook)
        assert report.per_parameter["good"] < 1e-8
        assert report.per_parameter["bad"] > 0.1
        assert report.worst() == "bad"

    def test_non_finite_loss_rejected(self):
        params = {"theta": np.array([0.0])}

        def loss(ts):
            with np.errstate(divide="ignore"):
                return log(ts["theta"]).sum()

        with pytest.raises(NumericError):
            finite_difference_gradcheck(loss, params)
