import math
import tracemalloc

import numpy as np
import pytest

from easz import autodiff as ad
from easz.autodiff import AdamW, Tensor
from easz.errors import DimensionError, TrainingError
from easz.model import _SLICE
from gradcheck import grad_check, tsum


@pytest.fixture
def rng():
    """A generator of the test's own, so that its data do not depend on
    which tests ran before it."""
    return np.random.default_rng(0)


def erf(x):
    """Reference erf for float64 arrays, element by element."""
    return np.frompyfunc(math.erf, 1, 1)(x).astype(np.float64)


def t(rng, shape, grad=True):
    return Tensor(rng.normal(size=shape), requires_grad=grad)


def test_matmul_identity(rng):
    a = rng.normal(size=(2, 2))
    out = ad.matmul(Tensor(np.eye(2)), Tensor(a))
    assert np.allclose(out.data, a)


def test_matmul_shape_error(rng):
    with pytest.raises(DimensionError):
        ad.matmul(t(rng, (2, 3)), t(rng, (2, 3)))


@pytest.mark.parametrize("w_shape", [(2, 3, 4), (3,), ()])
def test_matmul_needs_a_2d_weight(w_shape, rng):
    # rows times a weight is the only product the model takes
    with pytest.raises(DimensionError):
        ad.matmul(t(rng, (2, 5, 3)), t(rng, w_shape))


def test_layer_norm_constant_vector():
    x = Tensor(np.full((1, 8), 3.7))
    gamma, beta = Tensor(np.ones(8)), Tensor(np.zeros(8))
    out = ad.layer_norm(x, gamma, beta)
    assert np.allclose(out.data, 0.0)


def _split(x, h):
    """(..., m, h*dh) rows as the (..., h, m, dh) head view."""
    return x.reshape(x.shape[:-1] + (h, x.shape[-1] // h)).swapaxes(-2, -3)


def _merge(x):
    """(..., h, m, dh) heads as (..., m, h*dh) rows."""
    x = x.swapaxes(-2, -3)
    return x.reshape(x.shape[:-2] + (-1,))


def test_attention_uniform_over_equal_keys(rng):
    # equal scores give every key the same weight in every head, so each
    # query row gets the mean value row
    v = t(rng, (4, 6), grad=False)
    out = ad.attention(t(rng, (2, 10), grad=False), Tensor(np.zeros((4, 10))), v, 2)
    assert np.allclose(out.data, np.broadcast_to(v.data.mean(axis=0), (2, 6)))


def test_attention_weights_sum_to_one(rng):
    # with identity values in each head, each head's output is its weights
    out = ad.attention(t(rng, (5, 6), grad=False), t(rng, (7, 6), grad=False),
                       Tensor(np.hstack([np.eye(7)] * 3)), 3)
    assert out.shape == (5, 21)
    assert (out.data >= 0).all()
    assert np.abs(out.data.reshape(5, 3, 7).sum(axis=-1) - 1.0).max() < 1e-12


def test_attention_shape_errors(rng):
    for shapes, heads in [
        (((2, 3), (4, 5), (4, 2)), 1),  # q and k widths differ
        (((2, 3), (4, 3), (5, 2)), 1),  # k and v row counts differ
        (((3,), (4, 3), (4, 2)), 1),  # a 1-d operand
        (((2, 6), (4, 6), (4, 6)), 4),  # heads do not divide d
        (((2, 6), (4, 6), (4, 3)), 2),  # heads do not divide v's width
        (((2, 6), (4, 6), (4, 6)), 0),
        (((2, 6), (4, 6), (4, 6)), 7),  # more heads than columns
    ]:
        with pytest.raises(DimensionError):
            ad.attention(*(t(rng, s) for s in shapes), heads)


@pytest.mark.parametrize("mq, mk", [(3, 0), (0, 5), (0, 0)])
def test_attention_over_empty_rows(mq, mk, rng):
    # no keys: every output row is zero (the empty sum), as for an all-erased
    # patch's encoder; no queries: no output rows.  Gradients keep the shapes.
    q, k, v = t(rng, (2, mq, 4)), t(rng, (2, mk, 4)), t(rng, (2, mk, 6))
    with np.errstate(all="raise"):
        out = ad.attention(q, k, v, 2)
        tsum(ad.mul(out, Tensor(rng.normal(size=(2, mq, 6))))).backward()
    assert out.shape == (2, mq, 6) and not out.data.any()
    for x in (q, k, v):
        assert x.grad.shape == x.shape and not x.grad.any()


def test_simple_closed_form_gradient():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    out = tsum(ad.mul(x, x))
    out.backward()
    assert np.allclose(x.grad, [2.0, 4.0])
    assert grad_check(lambda v: tsum(ad.mul(v, v)), x) < 1e-8


def test_shared_gradients_are_not_added_in_place():
    # add routes one gradient array to both inputs; a's second contribution
    # must not change the gradient b already holds
    a, b = Tensor(np.ones(3), requires_grad=True), Tensor(np.ones(3), requires_grad=True)
    tsum(ad.add(ad.add(a, b), a)).backward()
    assert np.array_equal(a.grad, np.full(3, 2.0))
    assert np.array_equal(b.grad, np.ones(3))


def test_mae_tie_subgradient_zero():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    out = ad.mean_abs_error(x, Tensor(np.array([1.0, 2.0])))
    out.backward()
    assert out.data == 0.0
    assert np.allclose(x.grad, 0.0)


def test_gather_scatter_routes_gradients(rng):
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    idx = np.array([1, 3])
    weights = Tensor(rng.normal(size=(4, 3)))
    out = tsum(ad.mul(ad.scatter_rows(ad.gather_rows(x, idx), idx, 4), weights))
    out.backward()
    assert np.allclose(x.grad[[0, 2]], 0.0)
    assert not np.allclose(x.grad[[1, 3]], 0.0)


PRIMITIVE_SHAPES = [(4,), (3, 5), (2, 3, 4)]


@pytest.mark.parametrize("shape", PRIMITIVE_SHAPES)
def test_grad_check_add_mul_scale(shape, rng):
    other = Tensor(rng.normal(size=shape))
    for f in (
        lambda x: tsum(ad.add(x, other)),
        lambda x: tsum(ad.mul(x, other)),
        lambda x: tsum(ad.scale(x, -2.5)),
    ):
        assert grad_check(f, t(rng, shape)) < 1e-6


@pytest.mark.parametrize("shape", [(4, 3), (2, 4, 3), (5, 2, 4, 3)])
def test_grad_check_matmul(shape, rng):
    w = Tensor(rng.normal(size=(3, 6)))
    assert grad_check(lambda x: tsum(ad.matmul(x, w)), t(rng, shape)) < 1e-6
    lhs = Tensor(rng.normal(size=shape))
    assert grad_check(lambda x: tsum(ad.matmul(lhs, x)), t(rng, (3, 6))) < 1e-6


@pytest.mark.parametrize("shape", [(6,), (3, 6), (2, 3, 6)])
def test_grad_check_layer_norm(shape, rng):
    gamma = Tensor(rng.normal(size=6))
    beta = Tensor(rng.normal(size=6))
    assert grad_check(lambda x: tsum(ad.layer_norm(x, gamma, beta)), t(rng, shape)) < 1e-6
    xc = Tensor(rng.normal(size=shape))
    assert grad_check(lambda g: tsum(ad.layer_norm(xc, g, beta)), t(rng, (6,))) < 1e-6
    assert grad_check(lambda b: tsum(ad.layer_norm(xc, gamma, b)), t(rng, (6,))) < 1e-6


def _noncontiguous(r, shape):
    """Values of `shape` as a transposed view, the layout attention's
    context has before it is reshaped."""
    return r.normal(size=shape[:-3] + (shape[-2], shape[-3], shape[-1])).swapaxes(-2, -3)


# (a, weight): default_config inference on a slice of _SLICE patches with
# two of eight positions erased per row (48 kept): the encoder (embed, q/k/v/o,
# FFN in and out), the decoder over all 64 positions and its row-pruned last
# block and output projection on the 16 erased ones; the train benchmark's
# step (grid 16, d_model 32, FFN x2, batch 8); and decoder shapes with the
# slice split over two leading axes.  The fold is not bit-exact for every
# shape: OpenBLAS runs some small products, such as each 16-row slab of a
# (6, 16, 40) stack times a transposed (24, 40) weight, through other kernels
# than the folded 96-row product, so these are the shapes the model runs.
FOLD_SHAPES = [((_SLICE, 48, 48), (48, 128)), ((_SLICE, 48, 128), (128, 128)),
               ((_SLICE, 48, 128), (128, 512)), ((_SLICE, 48, 512), (512, 128)),
               ((_SLICE, 64, 128), (128, 128)), ((_SLICE, 64, 128), (128, 512)),
               ((_SLICE, 16, 128), (128, 128)), ((_SLICE, 16, 512), (512, 128)),
               ((_SLICE, 16, 128), (128, 48)),
               ((8, 192, 1), (1, 32)), ((8, 256, 32), (32, 32)), ((8, 256, 32), (32, 64)),
               ((8, 256, 64), (64, 32)), ((8, 256, 32), (32, 1)),
               ((2, _SLICE // 2, 64, 128), (128, 512)),
               ((2, _SLICE // 2, 16, 128), (128, 48))]


@pytest.mark.parametrize("contiguous", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shapes", FOLD_SHAPES)
def test_folded_matmul_matches_per_batch_product_bitwise(shapes, dtype, contiguous):
    # the product and the a gradient fold a's leading axes into one 2-D GEMM;
    # the weight gradient must stay the per-batch product summed afterwards,
    # which is what training's results were fixed with
    a_shape, w_shape = shapes
    r = np.random.default_rng([len(a_shape), *a_shape, *w_shape])
    a_data = r.normal(size=a_shape) if contiguous else _noncontiguous(r, a_shape)
    a = Tensor(a_data.astype(dtype), requires_grad=True)
    w = Tensor(r.normal(size=w_shape).astype(dtype), requires_grad=True)
    g = r.normal(size=a_shape[:-1] + w_shape[-1:]).astype(dtype)
    assert a.data.flags.c_contiguous == contiguous
    out = ad.matmul(a, w)
    tsum(ad.mul(out, Tensor(g))).backward()
    assert np.array_equal(out.data, np.matmul(a.data, w.data))
    assert np.array_equal(a.grad, np.matmul(g, w.data.swapaxes(-1, -2)))
    assert np.array_equal(w.grad, ad._unbroadcast(a.data.swapaxes(-1, -2) @ g, w_shape))


def _unblocked_gelu(x):
    """GELU's forward before Phi was evaluated in blocks: one erf call over
    the whole input."""
    phi = ad._erf(x / math.sqrt(2.0))
    phi += 1.0
    phi *= 0.5
    return x * phi


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_blocks_match_unblocked_formula(dtype):
    # two whole blocks and one element more
    x = np.random.default_rng(5).normal(scale=3.0, size=(3, 43691)).astype(dtype)
    assert x.size == 2 * ad._GELU_BLOCK + 1
    want = _unblocked_gelu(x)
    for grad in (False, True):
        out = ad.gelu(Tensor(x, requires_grad=grad)).data
        assert out.dtype == dtype and np.array_equal(out, want)


def test_gelu_without_graph_matches_recording_bitwise(rng):
    # the inference FFN's hidden layer at a slice of _SLICE patches
    x = rng.normal(size=(_SLICE, 64, 512)).astype(np.float32)
    free = ad.gelu(Tensor(x)).data
    xt = Tensor(x, requires_grad=True)
    recorded = ad.gelu(xt)
    assert np.array_equal(free, recorded.data)
    tsum(recorded).backward()
    assert xt.grad is not None


def test_gelu_without_graph_keeps_only_its_output(rng):
    # Phi becomes the output in place, and the erf's temporaries are two
    # blocks whatever the input's size
    x = Tensor(rng.normal(size=(_SLICE, 64, 512)).astype(np.float32))
    block = ad._GELU_BLOCK * 4
    tracemalloc.start()
    try:
        out = ad.gelu(x)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.data.nbytes <= kept < out.data.nbytes + (64 << 10)
    assert peak < out.data.nbytes + 2 * block + (64 << 10)


@pytest.mark.parametrize("shape", [(5,), (3, 5), (2, 3, 5)])
def test_grad_check_gelu(shape, rng):
    assert grad_check(lambda x: tsum(ad.gelu(x)), t(rng, shape)) < 1e-6


def test_gelu_float32_within_bound_of_exact():
    # float32 GELU's erf is a rational approximation clamped at |x/√2| = 4;
    # the grid runs past the clamp, and a wrong coefficient breaks the bound
    x = np.linspace(-8.0, 8.0, 2**18 + 1, dtype=np.float32)
    out = ad.gelu(Tensor(x)).data
    assert out.dtype == np.float32
    x64 = x.astype(np.float64)
    want = x64 * (0.5 * (1.0 + erf(x64 / np.sqrt(2.0))))
    assert np.all(np.abs(out - want) <= 5e-7 * np.maximum(1.0, np.abs(x64)))
    assert np.array_equal(ad._erf(-x), -ad._erf(x.copy()))


def test_gelu_layer_norm_match_out_of_place_bitwise():
    # the in-place primitives against their out-of-place formulas, value and VJPs
    r = np.random.default_rng(11)
    x, g = r.normal(size=(2, 3, 16, 8)), r.normal(size=(2, 3, 16, 8))
    gamma, beta = r.normal(size=8), r.normal(size=8)

    phi = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
    pdf = np.exp(-0.5 * x**2) / np.sqrt(2.0 * np.pi)
    xt = Tensor(x, requires_grad=True)
    out = ad.gelu(xt)
    tsum(ad.mul(out, Tensor(g))).backward()
    assert np.array_equal(out.data, x * phi)
    assert np.array_equal(xt.grad, g * (phi + x * pdf))

    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)
    xhat = xc * inv
    gh = g * gamma
    want_gx = inv * (gh - gh.mean(axis=-1, keepdims=True)
                     - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
    xt, gt = Tensor(x, requires_grad=True), Tensor(gamma, requires_grad=True)
    out = ad.layer_norm(xt, gt, Tensor(beta))
    tsum(ad.mul(out, Tensor(g))).backward()
    assert np.array_equal(out.data, xhat * gamma + beta)
    assert np.array_equal(xt.grad, want_gx)
    assert np.array_equal(gt.grad, (g * xhat).sum(axis=0).sum(axis=0).sum(axis=0))


@pytest.mark.parametrize("edge", ["q", "k", "v"])
def test_grad_check_attention(edge, rng):
    # two leading dims, fewer query rows than key rows, two heads of width 3
    # (a scale off the powers of two), v narrower than q and k
    qkv = {"q": t(rng, (2, 2, 3, 6)), "k": t(rng, (2, 2, 5, 6)), "v": t(rng, (2, 2, 5, 4))}
    w = Tensor(rng.normal(size=(2, 2, 3, 4)))

    def f(x):
        args = dict(qkv, **{edge: x})
        return tsum(ad.mul(ad.attention(args["q"], args["k"], args["v"], 2), w))

    # the five-point stencil: some k and q coordinates are small enough that
    # the two-point difference's roundoff alone nears the bound
    assert grad_check(f, qkv[edge], eps=1e-4, order=4) < 1e-6


def test_attention_keeps_one_score_buffer(rng):
    # the graph holds the weights and the output; the unfused chain held
    # three score-sized arrays (raw, scaled, softmaxed)
    q, k, v = (t(rng, (8, 256, 32)) for _ in range(3))
    tracemalloc.start()
    try:
        out = ad.attention(q, k, v, 2)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    scores = 8 * 2 * 256 * 256 * 8
    assert scores + out.data.nbytes <= kept < scores + out.data.nbytes + (64 << 10)


def _composed_attention(q, k, v, scale, g):
    """softmax(scale * q @ kᵀ) @ v and its q, k, v gradients for output
    gradient g, one numpy operation per step of the unfused chain."""
    s0 = q @ k.swapaxes(-1, -2)
    s1 = s0 * scale
    a = s1 - s1.max(axis=-1, keepdims=True)
    np.exp(a, out=a)
    a /= a.sum(axis=-1, keepdims=True)
    out = a @ v
    ga = g @ v.swapaxes(-1, -2)
    gv = a.swapaxes(-1, -2) @ g
    gs1 = a * (ga - (ga * a).sum(axis=-1, keepdims=True))
    gs0 = gs1 * scale
    gk = (q.swapaxes(-1, -2) @ gs0).swapaxes(-1, -2)
    return out, gs0 @ k, gk, gv


# (batch, heads, query rows, key rows, head dim): the train benchmark's
# decoder (grid 16, d_model 32, 2 heads, batch 8), then default_config
# inference on a 4-patch slice: encoder, decoder, and the row-pruned last
# decoder block
ATTENTION_SHAPES = [(8, 2, 256, 256, 16), (4, 4, 48, 48, 32), (4, 4, 64, 64, 32),
                    (4, 4, 16, 64, 32)]


@pytest.mark.parametrize("shape", ATTENTION_SHAPES)
def test_attention_matches_composed_chain_bitwise(shape):
    # the unfused chain runs on the head views of (n, m, h*dh) projections,
    # its results merged back into rows
    n, h, mq, mk, dh = shape
    r = np.random.default_rng(list(shape))
    q, k, v = (Tensor(r.normal(size=(n, m, h * dh)), requires_grad=True)
               for m in (mq, mk, mk))
    g = r.normal(size=(n, mq, h * dh))
    out = ad.attention(q, k, v, h)
    tsum(ad.mul(out, Tensor(g))).backward()
    want = _composed_attention(_split(q.data, h), _split(k.data, h), _split(v.data, h),
                               1.0 / np.sqrt(dh), _split(g, h))
    for got, exp in zip((out.data, q.grad, k.grad, v.grad), want):
        assert np.array_equal(got, _merge(exp))


@pytest.mark.parametrize("shape", [(4, 3), (2, 4, 3), (2, 2, 4, 3)])
def test_grad_check_gather_scatter_concat(shape, rng):
    idx = np.array([0, 2, 2])
    assert grad_check(lambda x: tsum(ad.gather_rows(x, idx)), t(rng, shape)) < 1e-6
    w = Tensor(rng.normal(size=shape[:-2] + (6, 3)))
    assert grad_check(
        lambda x: tsum(ad.mul(ad.scatter_rows(x, np.array([1, 4, 5, 0]), 6), w)),
        t(rng, shape[:-2] + (4, 3)),
    ) < 1e-6


@pytest.mark.parametrize("shape", [(4, 3), (2, 4, 3), (7,)])
def test_grad_check_linear_mae(shape, rng):
    if len(shape) >= 2:
        w = Tensor(rng.normal(size=(shape[-1], 5)))
        b = Tensor(rng.normal(size=5))
        assert grad_check(lambda x: tsum(ad.linear(x, w, b)), t(rng, shape)) < 1e-6
    y = Tensor(rng.normal(size=shape))
    assert grad_check(lambda x: ad.mean_abs_error(x, y), t(rng, shape)) < 1e-6


def test_grad_check_nonfinite():
    x = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(TrainingError):
        grad_check(lambda v: ad.scale(v, np.inf), x)


def test_adamw_first_step_sign_update():
    g = np.array([0.3, -0.7, 1e-3])
    p = Tensor(np.zeros(3), requires_grad=True)
    p.grad = g.copy()
    opt = AdamW(lr=0.1, weight_decay=0.0)
    opt.step({"p": p})
    # bias-corrected first step: delta = -lr * g / (|g| + eps)
    expected = -0.1 * g / (np.abs(g) + opt.eps)
    assert np.allclose(p.data, expected, rtol=1e-6)


def test_adamw_decay_only():
    p = Tensor(np.array([2.0]), requires_grad=True)
    p.grad = np.zeros(1)
    AdamW(lr=0.1, weight_decay=0.05).step({"p": p})
    assert np.allclose(p.data, 2.0 * (1 - 0.005))


def test_adamw_zero_lr_noop():
    p = Tensor(np.array([1.5]), requires_grad=True)
    p.grad = np.array([3.0])
    AdamW(lr=0.0, weight_decay=0.05).step({"p": p})
    assert p.data[0] == 1.5


def test_adamw_nonfinite_grad():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([np.nan])
    with pytest.raises(TrainingError):
        AdamW().step({"p": p})


def test_linear_bias_in_place_is_exact(rng):
    # integer-valued x: its sums are exact in every summation order
    x = Tensor(rng.integers(-4, 5, size=(2, 4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=5), requires_grad=True)
    out = ad.linear(x, w, b)
    assert np.array_equal(out.data, x.data @ w.data + b.data)
    tsum(out).backward()
    assert np.array_equal(b.grad, np.full(5, 8.0))
    assert np.array_equal(w.grad, x.data.sum(axis=(0, 1))[:, None] * np.ones(5))


IDX = np.array([3, 0, 2])


def _scattered(x):
    out = np.zeros(x.shape[:-2] + (5,) + x.shape[-1:])
    out[..., IDX, :] = x
    return out


def _layer_normed(x, gamma, beta):
    xc = x - x.mean(axis=-1, keepdims=True)
    xhat = xc * (1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5))
    return xhat * gamma + beta


# name -> (primitive on Tensors, its float64 formula on arrays, input shapes);
# the formulas spell out the float64 computation step by step, scalars
# included, so a float64 output that equals them is unchanged bit for bit
DTYPE_CASES = {
    "add": (ad.add, np.add, [(2, 4, 6), (6,)]),
    "mul": (ad.mul, np.multiply, [(2, 4, 6), (4, 6)]),
    "scale": (lambda a: ad.scale(a, 0.3), lambda a: a * 0.3, [(2, 4, 6)]),
    "matmul": (ad.matmul, np.matmul, [(2, 4, 6), (6, 5)]),
    "linear": (ad.linear, lambda x, w, b: x @ w + b, [(2, 4, 6), (6, 5), (5,)]),
    "gather_rows": (lambda x: ad.gather_rows(x, IDX), lambda x: np.take(x, IDX, axis=-2),
                    [(2, 4, 6)]),
    "scatter_rows": (lambda x: ad.scatter_rows(x, IDX, 5), _scattered, [(2, 3, 6)]),
    "layer_norm": (ad.layer_norm, _layer_normed, [(2, 4, 6), (6,), (6,)]),
    "attention": (lambda q, k, v: ad.attention(q, k, v, 2),
                  lambda q, k, v: _merge(_composed_attention(
                      _split(q, 2), _split(k, 2), _split(v, 2), 1.0 / np.sqrt(3),
                      np.zeros((2, 2, 3, 2)))[0]),
                  [(2, 3, 6), (2, 5, 6), (2, 5, 4)]),
    "gelu": (ad.gelu, lambda x: x * (0.5 * (1.0 + erf(x / np.sqrt(2.0)))), [(2, 4, 6)]),
}


@pytest.mark.parametrize("name", sorted(DTYPE_CASES))
def test_primitive_keeps_float32_and_float64_values(name, rng):
    # reconstruction runs in float32: no primitive may widen it, while
    # training's float64 values stay what they were
    primitive, formula, shapes = DTYPE_CASES[name]
    args = [rng.normal(size=s) for s in shapes]
    out64 = primitive(*(Tensor(a) for a in args)).data
    assert out64.dtype == np.float64
    assert np.array_equal(out64, formula(*args))
    out32 = primitive(*(Tensor(a.astype(np.float32)) for a in args)).data
    assert out32.dtype == np.float32
    assert np.allclose(out32, out64, rtol=1e-5, atol=1e-6)
