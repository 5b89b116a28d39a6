"""Per-op gradient checks for the reverse-mode engine.

Each op is validated against central finite differences computed by this
file's own helper (no shared code with the gradcheck in numerics).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckml import autodiff as ad

import naive_autodiff as nad
from naive_autodiff import patched_accumulate


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
    check_op(lambda t: nad.divide(nad.divide(other, t) - t, 2.0).sum(), x)


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
    check_op(lambda t: (nad.tanh(nad.exp(t * 0.3)) + nad.sqrt(nad.exp(t))).sum(), x)


def test_log():
    x = rng.uniform(0.5, 2.0, size=(4,))
    check_op(lambda t: nad.log(t).sum(), x)


def test_relu_and_leaky_away_from_kink():
    x = np.array([-2.0, -0.5, 0.4, 1.7])
    check_op(lambda t: ad.maximum(t, 0.0).sum(), x)
    check_op(lambda t: ad.leaky_relu(t, 0.2).sum(), x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("slope", [0.2, 1e-3, 0.5, 0.999])
def test_leaky_relu_bytes_are_the_masked_select(dtype, slope):
    info = np.finfo(dtype)
    edge = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, info.tiny,
                     -info.tiny, info.smallest_subnormal, -info.smallest_subnormal,
                     info.max, -info.max], dtype=dtype)
    x = np.concatenate([edge, rng.normal(size=200).astype(dtype),
                        (rng.normal(size=50) * 1e-40).astype(dtype)])
    s = dtype(slope)
    want = np.where(x >= 0, x, s * x)
    t = ad.Tensor(x, requires_grad=True)
    out = ad.leaky_relu(t, slope)
    assert out.data.tobytes() == want.tobytes()
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf in the sum
        out.sum().backward()
    assert t.grad.tobytes() == np.where(x >= 0, dtype(1), s).tobytes()


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
        b = nad.narrow(a, 1, 0, 1)
        c = nad.narrow(a, 1, 1, 1)
        d = ad.concat([b, c * 2.0], axis=1)
        e = nad.transpose(d, (1, 0, 2))
        return (e * e).sum()

    check_op(build, x)


def test_stack():
    x = rng.normal(size=(3, 2))
    other = ad.constant(rng.normal(size=(3, 2)))
    check_op(lambda t: nad.stack([t, other, t], axis=0).sum(), x)


def test_unstack_views_and_gradient():
    x = rng.normal(size=(3, 2, 2))
    w = ad.constant(rng.normal(size=(2, 2)))
    # rows used twice, once and never; x also reaches the loss directly
    check_op(lambda t: add_all_rows(ad.unstack(t), w) + (t * 0.5).sum(), x)
    rows = ad.unstack(ad.Tensor(x))
    assert all(np.shares_memory(r.data, x) for r in rows)
    np.testing.assert_array_equal(np.stack([r.data for r in rows]), x)


def test_unstack_parts_views_and_gradient():
    x = rng.normal(size=(2, 5, 3))
    w = ad.constant(rng.normal(size=(2, 2, 3)))
    parts = [slice(0, 2), 2, slice(1, 3), slice(3, 5), slice(5, 5)]

    def build(t):
        a, b, c, _, empty = ad.unstack(t, parts, axis=1)
        # a and c overlap; d is never used; the empty part is used
        return ((a * w).sum() + (b * b).sum() + (a * c).sum()
                + (empty * 2.0).sum() + (t * 0.5).sum())

    check_op(build, x)
    got = ad.unstack(ad.Tensor(x), parts, axis=1)
    for part, key in zip(got, parts):
        assert np.shares_memory(part.data, x) or part.data.size == 0
        np.testing.assert_array_equal(part.data, x[:, key])


def add_all_rows(rows, w):
    a, b, _ = rows
    return (a * w).sum() + (a * b).sum() + (b * b * w).sum()


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
    from ckml.numerics import from_edges
    adj = from_edges([0, 1, 2, 2], [1, 0, 0, 1], shape=(3, 2))
    x = rng.normal(size=(2, 4))
    check_op(lambda t: (ad.spmm(adj, t) * 1.5).sum(), x)


def test_l2_normalize_with_zero_row():
    x = rng.normal(size=(3, 4))
    x[1] = 0.0
    out = ad.l2_normalize(ad.Tensor(x))
    assert np.all(np.isfinite(out.data))
    np.testing.assert_array_equal(out.data[1], np.zeros(4))
    x2 = rng.normal(size=(3, 4)) + 0.5
    check_op(lambda t: (ad.l2_normalize(t) * 0.7).sum(), x2)


def test_l2_normalize_gradient_finite_on_zero_row():
    # below the norm floor the map is x/eps, so the slope is 1/eps: huge but
    # finite, never NaN (the 0.5/sqrt(0) backward of a bare sqrt would be)
    x = np.zeros((2, 3))
    x[0] = [1.0, -2.0, 0.5]
    t = ad.Tensor(x, requires_grad=True)
    ad.l2_normalize(t, eps=1e-12).sum().backward()
    assert np.all(np.isfinite(t.grad))
    np.testing.assert_allclose(t.grad[1], np.full(3, 1e12))


@st.composite
def short_axis_arrays(draw):
    """Arrays of 0 to a few thousand rows and a last axis of 0-16 entries,
    contiguous or views, over a wide exponent range with signed zeros,
    infinities and NaN mixed in."""
    width = draw(st.integers(0, 16))
    rows = draw(st.sampled_from([0, 1, 3, 50, 2000, 4000]))
    middle = tuple(draw(st.lists(st.integers(1, 4), max_size=1)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    view = draw(st.sampled_from(["whole", "drop_last", "reversed", "strided", "transposed",
                                 "fortran"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (rows,) + middle + (width + (view == "drop_last"),)
    span = 35 if dtype == np.float32 else 300
    a = (rng.normal(size=shape) * 10.0 ** rng.integers(-span, span, size=shape)).astype(dtype)
    special = rng.random(shape)
    for value, lo in ((0.0, 0.0), (-0.0, 0.1), (np.inf, 0.2), (-np.inf, 0.21), (np.nan, 0.22)):
        a[(special >= lo) & (special < lo + 0.01 * draw(st.integers(0, 10)))] = value
    return {"whole": a, "drop_last": a[..., :-1], "reversed": a[..., ::-1],
            "strided": a[::2], "transposed": np.swapaxes(a, 0, -2),
            "fortran": np.asfortranarray(a)}[view]


@given(short_axis_arrays())
@settings(max_examples=300, deadline=None)
def test_sum_last_is_numpys_sum(a):
    with np.errstate(all="ignore"):
        got = ad.sum_last(a)
        want = a.sum(axis=-1, keepdims=True)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


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


# ---------------------------------------------------------------------------
# A node stores its first gradient without copying it. These tapes hand one
# gradient array to several parents (x + x, a reshape view, the pass-through
# of `_unbroadcast`, a sum's broadcast) and compare with copy-on-first.

TAPE_OPS = ("double", "reshape", "add_leaf", "sum_broadcast", "scale", "fan_out")


def run_tape(ops, leaves, weights):
    """The scalar root of a tape over `leaves`, not yet walked back."""
    x, y = leaves
    t = x
    for op in ops:
        if op == "double":
            t = t + t
        elif op == "reshape":
            t = t.reshape(-1).reshape(x.shape)
        elif op == "add_leaf":
            t = t + y
        elif op == "sum_broadcast":
            t = t + t.sum(axis=0, keepdims=True)
        elif op == "scale":
            t = t * weights[0]
        else:  # one node read by two consumers that pass its gradient on as is
            a = t + y
            t = a.reshape(-1).reshape(x.shape) + a
    return (t * weights[1]).sum()


def copy_on_first(self, g):
    if self.grad is None:
        self.grad = g.astype(self.data.dtype, copy=True)
    else:
        self.grad += g


@given(st.lists(st.sampled_from(TAPE_OPS), min_size=1, max_size=6),
       st.tuples(st.integers(1, 3), st.integers(1, 3)),
       st.sampled_from([np.float64, np.float32]), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_first_gradient_stored_without_copy(ops, shape, dtype, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=shape).astype(dtype) for _ in range(2)]
    weights = [rng.normal(size=shape).astype(dtype) for _ in range(2)]

    want = [ad.Tensor(a, requires_grad=True) for a in arrays]
    with patched_accumulate(copy_on_first):
        run_tape(ops, want, weights).backward()

    stored = []
    accumulate = ad.Tensor._accumulate

    def watched(self, g):
        accumulate(self, g)
        if self.grad is g:  # held, not copied: it must never change again
            stored.append((g, g.copy()))
    got = [ad.Tensor(a, requires_grad=True) for a in arrays]
    with patched_accumulate(watched):
        run_tape(ops, got, weights).backward()

    for g_leaf, w_leaf in zip(got, want):
        if w_leaf.grad is None:
            assert g_leaf.grad is None
            continue
        assert g_leaf.grad.dtype == w_leaf.grad.dtype
        assert g_leaf.grad.tobytes() == w_leaf.grad.tobytes()
    for held, snapshot in stored:
        assert held.tobytes() == snapshot.tobytes()


@given(st.lists(st.sampled_from(TAPE_OPS), min_size=1, max_size=6),
       st.tuples(st.integers(1, 3), st.integers(1, 3)),
       st.sampled_from([np.float64, np.float32]), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_backward_frees_the_tape_and_keeps_leaf_gradients(ops, shape, dtype, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=shape).astype(dtype) for _ in range(2)]
    weights = [rng.normal(size=shape).astype(dtype) for _ in range(2)]

    want = [ad.Tensor(a, requires_grad=True) for a in arrays]
    nad.backward_keeping_tape(run_tape(ops, want, weights))

    got = [ad.Tensor(a, requires_grad=True) for a in arrays]
    root = run_tape(ops, got, weights)
    interior = [n for n in nad.tape_nodes(root) if n._backward is not None]
    assert interior
    root.backward()
    for node in interior:
        assert node._parents is None and node._backward is None and node.grad is None
    for g_leaf, w_leaf in zip(got, want):
        assert g_leaf._parents == () and g_leaf._backward is None
        if w_leaf.grad is None:
            assert g_leaf.grad is None
            continue
        assert g_leaf.grad.dtype == w_leaf.grad.dtype
        assert g_leaf.grad.tobytes() == w_leaf.grad.tobytes()


def test_a_walked_tape_is_not_walked_again():
    # a new root over a walked node: the node must not pass for a fresh leaf
    x = ad.Tensor(np.array([2.0]), requires_grad=True)
    y = x * 3.0
    (y * 1.0).sum().backward()
    assert x.grad[0] == 3.0
    with pytest.raises(ValueError, match="tape already walked back"):
        (y * 1.0).sum().backward()
    assert x.grad[0] == 3.0
    # the same root twice
    root = (x * 3.0).sum()
    root.backward()
    assert x.grad[0] == 6.0
    with pytest.raises(ValueError, match="tape already walked back"):
        root.backward()
    assert x.grad[0] == 6.0


def test_the_tape_imports_no_numerics():
    # numerics builds on the tape (its gradient audit); the tape must not
    # reach back, or the two modules form an import cycle again
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(ad.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, ckml.autodiff; "
            "assert 'ckml.numerics' not in sys.modules, sorted(sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
