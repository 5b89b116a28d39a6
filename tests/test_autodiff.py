"""Per-op gradient checks for the reverse-mode engine.

Each op is validated against central finite differences computed by this
file's own helper (no shared code with the gradcheck in numerics).
"""

import numpy as np
import pytest

from ckml import autodiff as ad


def numeric_grad(fn, x, eps=1e-6):
    """Central differences of a scalar-valued fn at x, entry by entry."""
    x = x.astype(np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + eps
        up = fn(x)
        flat[j] = orig - eps
        down = fn(x)
        flat[j] = orig
        gf[j] = (up - down) / (2 * eps)
    return g


def check_op(build, x, atol=1e-7):
    """build(Tensor) -> scalar Tensor; compares backward to differences."""
    t = ad.Tensor(x, requires_grad=True)
    out = build(t)
    out.backward()
    num = numeric_grad(lambda v: float(build(ad.Tensor(v)).data), x)
    np.testing.assert_allclose(t.grad, num, atol=atol, rtol=1e-5)


rng = np.random.default_rng(0)


def test_add_mul_broadcast():
    x = rng.normal(size=(3, 4))
    other = ad.constant(rng.normal(size=(4,)))
    check_op(lambda t: ((t + other) * other * 2.0).sum(), x)


def test_sub_div_broadcast():
    x = rng.normal(size=(2, 5)) + 3.0
    other = ad.constant(rng.normal(size=(1, 5)) + 2.5)
    check_op(lambda t: ((other / t - t) / 2.0).sum(), x)


def test_matmul_plain():
    x = rng.normal(size=(3, 4))
    w = ad.constant(rng.normal(size=(4, 2)))
    check_op(lambda t: ad.matmul(t, w).sum(), x)


def test_matmul_batched_broadcast():
    x = rng.normal(size=(5, 2, 1, 3))
    w = rng.normal(size=(2, 3, 3))
    check_op(lambda t: (ad.matmul(t, ad.constant(w)) * 0.3).sum(), x)
    wt = ad.Tensor(w, requires_grad=True)
    xs = ad.constant(x)
    out = ad.matmul(xs, wt).sum()
    out.backward()
    num = numeric_grad(lambda v: float(ad.matmul(xs, ad.Tensor(v)).sum().data), w)
    np.testing.assert_allclose(wt.grad, num, atol=1e-7, rtol=1e-5)


def test_unary_chain():
    x = rng.normal(size=(6,))
    check_op(lambda t: (ad.tanh(ad.exp(t * 0.3)) + ad.sqrt(ad.exp(t))).sum(), x)


def test_log():
    x = rng.uniform(0.5, 2.0, size=(4,))
    check_op(lambda t: ad.log(t).sum(), x)


def test_relu_and_leaky_away_from_kink():
    x = np.array([-2.0, -0.5, 0.4, 1.7])
    check_op(lambda t: ad.maximum(t, 0.0).sum(), x)
    check_op(lambda t: ad.leaky_relu(t, 0.2).sum(), x)


def test_relu_kink_uses_zero_derivative():
    t = ad.Tensor(np.array([0.0]), requires_grad=True)
    ad.maximum(t, 0.0).sum().backward()
    assert t.grad[0] == 0.0


def test_maximum_floor():
    x = np.array([-1.0, 0.5, 2.0])
    check_op(lambda t: (ad.maximum(t, 0.3) * 2.0).sum(), x)


def test_softplus_matches_reference_and_saturates():
    x = np.array([-40.0, -1.0, 0.0, 1.0, 40.0])
    out = ad.softplus(ad.Tensor(x)).data
    assert out[0] == pytest.approx(0.0, abs=1e-12)
    assert out[4] == pytest.approx(40.0, rel=1e-12)
    assert out[2] == pytest.approx(np.log(2.0))
    check_op(lambda t: ad.softplus(t).sum(), np.array([-3.0, 0.2, 4.0]))


def test_softmax_grad():
    x = rng.normal(size=(3, 5))
    w = ad.constant(rng.normal(size=(3, 5)))
    check_op(lambda t: (ad.softmax(t, axis=1) * w).sum(), x)


def test_sum_axis_keepdims():
    x = rng.normal(size=(3, 4, 2))
    check_op(lambda t: (t.sum(axis=1, keepdims=True) * 2.0).sum(), x)
    check_op(lambda t: t.sum(axis=0).sum(), x)


def test_max_routes_to_first_argmax():
    x = np.array([[1.0, 3.0, 3.0], [2.0, 1.0, 0.0]])
    t = ad.Tensor(x, requires_grad=True)
    t.max(axis=1).sum().backward()
    expected = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    np.testing.assert_array_equal(t.grad, expected)


def test_max_grad_numeric():
    x = rng.normal(size=(4, 3))
    w = ad.constant(rng.normal(size=(4,)))
    check_op(lambda t: (t.max(axis=1) * w).sum(), x)


def test_reshape_narrow_concat_transpose():
    x = rng.normal(size=(4, 6))

    def build(t):
        a = t.reshape(4, 2, 3)
        b = ad.narrow(a, 1, 0, 1)
        c = ad.narrow(a, 1, 1, 1)
        d = ad.concat([b, c * 2.0], axis=1)
        e = ad.transpose(d, (1, 0, 2))
        return (e * e).sum()

    check_op(build, x)


def test_stack():
    x = rng.normal(size=(3, 2))
    other = ad.constant(rng.normal(size=(3, 2)))
    check_op(lambda t: ad.stack([t, other, t], axis=0).sum(), x)


def test_gather_accumulates_repeats():
    x = rng.normal(size=(5, 3))
    idx = np.array([0, 2, 2, 4])
    w = ad.constant(rng.normal(size=(4, 3)))
    check_op(lambda t: (ad.gather(t, idx) * w).sum(), x)


def test_segment_sum_roundtrip():
    x = rng.normal(size=(6, 2))
    ids = np.array([0, 0, 1, 2, 2, 2])
    w = ad.constant(rng.normal(size=(4, 2)))
    check_op(lambda t: (ad.segment_sum(t, ids, 4) * w).sum(), x)


def test_spmm_grad():
    from ckml.numerics import SparseMatrix
    adj = SparseMatrix.from_edges([0, 1, 2, 2], [1, 0, 0, 1], shape=(3, 2))
    x = rng.normal(size=(2, 4))
    check_op(lambda t: (ad.spmm(adj, t) * 1.5).sum(), x)


def test_l2_normalize_with_zero_row():
    x = rng.normal(size=(3, 4))
    x[1] = 0.0
    out = ad.l2_normalize(ad.Tensor(x), axis=-1)
    assert np.all(np.isfinite(out.data))
    np.testing.assert_array_equal(out.data[1], np.zeros(4))
    x2 = rng.normal(size=(3, 4)) + 0.5
    check_op(lambda t: (ad.l2_normalize(t, axis=-1) * 0.7).sum(), x2)


def test_l2_normalize_gradient_finite_on_zero_row():
    # below the norm floor the map is x/eps, so the slope is 1/eps: huge but
    # finite, never NaN (the 0.5/sqrt(0) backward of a bare sqrt would be)
    x = np.zeros((2, 3))
    x[0] = [1.0, -2.0, 0.5]
    t = ad.Tensor(x, requires_grad=True)
    ad.l2_normalize(t, axis=-1, eps=1e-12).sum().backward()
    assert np.all(np.isfinite(t.grad))
    np.testing.assert_allclose(t.grad[1], np.full(3, 1e12))


def test_shared_subexpression_grad_counted_once():
    x = np.array([2.0])
    t = ad.Tensor(x, requires_grad=True)
    y = t * 3.0
    z = (y + y).sum()  # dz/dt = 6, not 12
    z.backward()
    assert t.grad[0] == pytest.approx(6.0)


def test_backward_requires_scalar():
    t = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        t.backward()


def test_float32_ops_keep_dtype():
    x = ad.Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    y = ad.maximum(ad.leaky_relu(ad.maximum(x * 2.0, 0.1), 0.2), 0.0)
    assert y.dtype == np.float32
    y.sum().backward()
    assert x.grad.dtype == np.float32
