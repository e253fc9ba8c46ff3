"""Minimal reverse-mode differentiation engine.

Just the primitives the reconstruction transformer needs, built on numpy
arrays.  Gradients accumulate additively into Tensor.grad; call backward()
on a scalar.  Every Tensor holds float64, for training and inference alike,
so finite-difference checks are meaningful; float32 appears only in the
checkpoint file.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from .errors import DimensionError, TrainingError


class Tensor:
    """A numpy array plus an optional gradient accumulator."""

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.array(g)
        else:
            self.grad += g

    def backward(self):
        if self.data.size != 1:
            raise DimensionError(f"backward() needs a scalar, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _wrap(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape}") from None

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _wrap(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product (used by the multiplicative positional embedding)."""
    try:
        data = a.data * b.data
    except ValueError:
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape}") from None

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _wrap(data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    def backward(g):
        a._accumulate(g * s)

    return _wrap(a.data * s, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    try:
        data = a.data @ b.data
    except ValueError:
        raise DimensionError(f"matmul: shapes {a.shape} and {b.shape}") from None

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape))

    return _wrap(data, (a, b), backward)


def linear(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """x @ w + bias with bias broadcast over leading dims."""
    return add(matmul(x, w), bias)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return _wrap(data, tuple(tensors), backward)


def gather_rows(x: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows along the second-to-last axis."""
    idx = np.asarray(indices)
    data = np.take(x.data, idx, axis=-2)

    def backward(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx.swapaxes(0, -2), idx, g.swapaxes(0, -2))
        x._accumulate(gx)

    return _wrap(data, (x,), backward)


def scatter_rows(x: Tensor, indices: np.ndarray, total_rows: int) -> Tensor:
    """Place rows of x at `indices` within a zero tensor of total_rows rows.

    Gradient flows only back to the scattered positions; all other output
    rows contribute exactly zero.
    """
    idx = np.asarray(indices)
    if idx.size != x.data.shape[-2]:
        raise DimensionError(
            f"scatter_rows: {idx.size} indices for {x.data.shape[-2]} rows"
        )
    shape = x.data.shape[:-2] + (total_rows,) + x.data.shape[-1:]
    data = np.zeros(shape, dtype=x.data.dtype)
    data[..., idx, :] = x.data

    def backward(g):
        x._accumulate(np.take(g, idx, axis=-2))

    return _wrap(data, (x,), backward)


def reshape(x: Tensor, shape: tuple) -> Tensor:
    def backward(g):
        x._accumulate(g.reshape(x.data.shape))

    return _wrap(x.data.reshape(shape), (x,), backward)


def transpose(x: Tensor, axes: tuple) -> Tensor:
    inv = np.argsort(axes)

    def backward(g):
        x._accumulate(g.transpose(inv))

    return _wrap(x.data.transpose(axes), (x,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last dim to zero mean / unit variance, then affine."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    data = xhat * gamma.data + beta.data

    def backward(g):
        if gamma.requires_grad:
            gamma._accumulate(_unbroadcast(g * xhat, gamma.shape))
        if beta.requires_grad:
            beta._accumulate(_unbroadcast(g, beta.shape))
        if x.requires_grad:
            gh = g * gamma.data
            gx = inv * (
                gh
                - gh.mean(axis=-1, keepdims=True)
                - xhat * (gh * xhat).mean(axis=-1, keepdims=True)
            )
            x._accumulate(gx)

    return _wrap(data, (x, gamma, beta), backward)


def softmax_lastdim(x: Tensor) -> Tensor:
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        x._accumulate(s * (g - dot))

    return _wrap(s, (x,), backward)


def gelu(x: Tensor) -> Tensor:
    """Exact GELU: x * Phi(x) with the Gaussian CDF."""
    phi = 0.5 * (1.0 + erf(x.data / np.sqrt(2.0)))
    data = x.data * phi

    def backward(g):
        pdf = np.exp(-0.5 * x.data**2) / np.sqrt(2.0 * np.pi)
        x._accumulate(g * (phi + x.data * pdf))

    return _wrap(data, (x,), backward)


def mean_abs_error(x: Tensor, y: Tensor) -> Tensor:
    """L1 loss; subgradient at zero difference is defined as 0."""
    if x.shape != y.shape:
        raise DimensionError(f"mean_abs_error: shapes {x.shape} and {y.shape}")
    diff = x.data - y.data
    data = np.abs(diff).mean()
    sign = np.sign(diff) / diff.size

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * sign)
        if y.requires_grad:
            y._accumulate(-g * sign)

    return _wrap(np.asarray(data), (x, y), backward)


def tsum(x: Tensor) -> Tensor:
    def backward(g):
        x._accumulate(np.full_like(x.data, float(g)))

    return _wrap(np.asarray(x.data.sum()), (x,), backward)


def grad_check(f, x: Tensor, eps: float = 1e-6, order: int = 2) -> float:
    """Max relative error of analytic vs central-difference gradients of a
    scalar-valued f at x.

    order=2 is the plain two-point central difference; order=4 uses the
    five-point stencil, which tolerates a larger eps and therefore less
    roundoff when individual gradient coordinates are tiny.
    """
    if order not in (2, 4):
        raise TrainingError(f"grad_check order must be 2 or 4, got {order}")
    x.zero_grad()
    out = f(x)
    if not np.isfinite(out.data).all():
        raise TrainingError("non-finite value in grad_check forward pass")
    out.backward()
    analytic = x.grad.copy() if x.grad is not None else np.zeros_like(x.data)
    flat = x.data.reshape(-1)

    def at(i, offset):
        keep = flat[i]
        flat[i] = keep + offset
        val = float(f(x).data)
        flat[i] = keep
        return val

    worst = 0.0
    for i in range(flat.size):
        if order == 2:
            numeric = (at(i, eps) - at(i, -eps)) / (2.0 * eps)
        else:
            numeric = (
                8.0 * (at(i, eps) - at(i, -eps)) - (at(i, 2 * eps) - at(i, -2 * eps))
            ) / (12.0 * eps)
        a = analytic.reshape(-1)[i]
        if not (np.isfinite(numeric) and np.isfinite(a)):
            raise TrainingError("non-finite derivative in grad_check")
        worst = max(worst, abs(a - numeric) / max(1e-8, abs(a) + abs(numeric)))
    return worst


class AdamW:
    """Decoupled-weight-decay adaptive-moment optimizer."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr: float = 2.8e-4, weight_decay: float = 0.05):
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, Tensor]):
        """p <- p - lr*wd*p - lr*mhat/(sqrt(vhat)+eps). Missing grads count as 0."""
        self.step_count += 1
        t = self.step_count
        for name, p in params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.isfinite(g).all():
                raise TrainingError(f"non-finite gradient for parameter {name!r}")
            m = self.m.setdefault(name, np.zeros_like(p.data))
            v = self.v.setdefault(name, np.zeros_like(p.data))
            m += (1 - self.beta1) * (g - m)
            v += (1 - self.beta2) * (g * g - v)
            mhat = m / (1 - self.beta1**t)
            vhat = v / (1 - self.beta2**t)
            p.data = p.data - self.lr * self.weight_decay * p.data \
                - self.lr * mhat / (np.sqrt(vhat) + self.eps)
