import numpy as np
import pytest

from easz import autodiff as ad
from easz.autodiff import AdamW, Tensor, grad_check
from easz.errors import DimensionError, TrainingError

rng = np.random.default_rng(0)


def t(shape, grad=True):
    return Tensor(rng.normal(size=shape), requires_grad=grad)


def test_matmul_identity():
    a = rng.normal(size=(2, 2))
    out = ad.matmul(Tensor(np.eye(2)), Tensor(a))
    assert np.allclose(out.data, a)


def test_matmul_shape_error():
    with pytest.raises(DimensionError):
        ad.matmul(t((2, 3)), t((2, 3)))


def test_layer_norm_constant_vector():
    x = Tensor(np.full((1, 8), 3.7))
    gamma, beta = Tensor(np.ones(8)), Tensor(np.zeros(8))
    out = ad.layer_norm(x, gamma, beta)
    assert np.allclose(out.data, 0.0)


def test_softmax_uniform():
    out = ad.softmax_lastdim(Tensor(np.zeros((1, 4))))
    assert np.allclose(out.data, 0.25)


def test_softmax_rows_sum_to_one():
    out = ad.softmax_lastdim(t((5, 7), grad=False))
    assert np.abs(out.data.sum(axis=-1) - 1.0).max() < 1e-12


def test_simple_closed_form_gradient():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    out = ad.tsum(ad.mul(x, x))
    out.backward()
    assert np.allclose(x.grad, [2.0, 4.0])
    assert grad_check(lambda v: ad.tsum(ad.mul(v, v)), x) < 1e-8


def test_shared_gradients_are_not_added_in_place():
    # add routes one gradient array to both inputs; a's second contribution
    # must not change the gradient b already holds
    a, b = Tensor(np.ones(3), requires_grad=True), Tensor(np.ones(3), requires_grad=True)
    ad.tsum(ad.add(ad.add(a, b), a)).backward()
    assert np.array_equal(a.grad, np.full(3, 2.0))
    assert np.array_equal(b.grad, np.ones(3))


def test_mae_tie_subgradient_zero():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    out = ad.mean_abs_error(x, Tensor(np.array([1.0, 2.0])))
    out.backward()
    assert out.data == 0.0
    assert np.allclose(x.grad, 0.0)


def test_gather_scatter_routes_gradients():
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    idx = np.array([1, 3])
    weights = Tensor(rng.normal(size=(4, 3)))
    out = ad.tsum(ad.mul(ad.scatter_rows(ad.gather_rows(x, idx), idx, 4), weights))
    out.backward()
    assert np.allclose(x.grad[[0, 2]], 0.0)
    assert not np.allclose(x.grad[[1, 3]], 0.0)


PRIMITIVE_SHAPES = [(4,), (3, 5), (2, 3, 4)]


@pytest.mark.parametrize("shape", PRIMITIVE_SHAPES)
def test_grad_check_add_mul_scale(shape):
    other = Tensor(rng.normal(size=shape))
    for f in (
        lambda x: ad.tsum(ad.add(x, other)),
        lambda x: ad.tsum(ad.mul(x, other)),
        lambda x: ad.tsum(ad.scale(x, -2.5)),
    ):
        assert grad_check(f, t(shape)) < 1e-6


@pytest.mark.parametrize("shape", [(4, 3), (2, 4, 3), (5, 2, 4, 3)])
def test_grad_check_matmul(shape):
    w = Tensor(rng.normal(size=(3, 6)))
    assert grad_check(lambda x: ad.tsum(ad.matmul(x, w)), t(shape)) < 1e-6
    lhs = Tensor(rng.normal(size=shape))
    assert grad_check(lambda x: ad.tsum(ad.matmul(lhs, x)), t((3, 6))) < 1e-6


@pytest.mark.parametrize("shape", [(6,), (3, 6), (2, 3, 6)])
def test_grad_check_layer_norm(shape):
    gamma = Tensor(rng.normal(size=6))
    beta = Tensor(rng.normal(size=6))
    assert grad_check(lambda x: ad.tsum(ad.layer_norm(x, gamma, beta)), t(shape)) < 1e-6
    xc = Tensor(rng.normal(size=shape))
    assert grad_check(lambda g: ad.tsum(ad.layer_norm(xc, g, beta)), t((6,))) < 1e-6
    assert grad_check(lambda b: ad.tsum(ad.layer_norm(xc, gamma, b)), t((6,))) < 1e-6


@pytest.mark.parametrize("shape", [(5,), (3, 5), (2, 3, 5)])
def test_grad_check_softmax_gelu(shape):
    w = Tensor(rng.normal(size=shape))
    assert grad_check(lambda x: ad.tsum(ad.mul(ad.softmax_lastdim(x), w)), t(shape)) < 1e-6
    assert grad_check(lambda x: ad.tsum(ad.gelu(x)), t(shape)) < 1e-6


@pytest.mark.parametrize("shape", [(4, 3), (2, 4, 3), (2, 2, 4, 3)])
def test_grad_check_gather_scatter_concat(shape):
    idx = np.array([0, 2, 2])
    assert grad_check(lambda x: ad.tsum(ad.gather_rows(x, idx)), t(shape)) < 1e-6
    w = Tensor(rng.normal(size=shape[:-2] + (6, 3)))
    assert grad_check(
        lambda x: ad.tsum(ad.mul(ad.scatter_rows(x, np.array([1, 4, 5, 0]), 6), w)),
        t(shape[:-2] + (4, 3)),
    ) < 1e-6


@pytest.mark.parametrize("shape", [(4, 3), (2, 4, 3), (7,)])
def test_grad_check_linear_mae(shape):
    if len(shape) >= 2:
        w = Tensor(rng.normal(size=(shape[-1], 5)))
        b = Tensor(rng.normal(size=5))
        assert grad_check(lambda x: ad.tsum(ad.linear(x, w, b)), t(shape)) < 1e-6
    y = Tensor(rng.normal(size=shape))
    assert grad_check(lambda x: ad.mean_abs_error(x, y), t(shape)) < 1e-6


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


def test_linear_bias_in_place_is_exact():
    x = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=5), requires_grad=True)
    out = ad.linear(x, w, b)
    assert np.array_equal(out.data, x.data @ w.data + b.data)
    ad.tsum(out).backward()
    assert np.array_equal(b.grad, np.full(5, 8.0))
    assert np.array_equal(w.grad, x.data.sum(axis=(0, 1))[:, None] * np.ones(5))
