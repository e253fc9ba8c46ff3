"""Minimal reverse-mode differentiation engine.

Just the primitives the reconstruction transformer needs, built on numpy
arrays.  A primitive is its forward value plus one vector-Jacobian product
(VJP) per input, handed to _op, which alone records the graph and routes
gradients.  Call backward() on a scalar; gradients accumulate into
Tensor.grad by rebinding, never in place, so a Tensor.grad may share memory
with other gradients and is read-only.  A Tensor holds float32 data as
float32 and widens anything else to float64.  The model trains, fine-tunes
and reconstructs in float32; gradient checks pass float64 data, so that
finite differences are meaningful.  No primitive widens float32 on its own:
scalars are Python floats, which take the array's precision.  GELU's erf is
a rational approximation within 4.5e-7 in float32 and math.erf in float64,
so numpy is the only dependency.

Multi-head attention is one primitive over rows, and the only code that
knows the head layout.  It keeps a single score-sized buffer, the weights,
for its backward, and works in place on it and on its gradient, in the same
floating-point order as the unfused chain.

matmul multiplies rows by a 2-D weight: one 2-D GEMM over the folded rows,
which numpy runs faster than its per-matrix loop; the weight's gradient
keeps the per-matrix products and their sum.  GELU evaluates its erf in
fixed blocks, so its temporaries do not grow with the input.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, TrainingError


class Tensor:
    """A numpy array plus an optional gradient accumulator."""

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
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
        self.grad = g if self.grad is None else self.grad + g

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


def _op(data, *edges) -> Tensor:
    """A primitive's output: its value plus one (input, vjp) edge per input.

    Only edges whose input requires a gradient are kept.  backward() maps
    the output gradient through each kept edge's vjp, sums it down to the
    input's shape, and accumulates it, in edge order.
    """
    out = Tensor(data)
    edges = [(x, vjp) for x, vjp in edges if x.requires_grad]
    if edges:
        out.requires_grad = True
        out._parents = tuple(x for x, _ in edges)

        def backward(g):
            for x, vjp in edges:
                x._accumulate(_unbroadcast(vjp(g), x.shape))

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
    return _op(data, (a, lambda g: g), (b, lambda g: g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product (used by the multiplicative positional embedding)."""
    try:
        data = a.data * b.data
    except ValueError:
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape}") from None
    return _op(data, (a, lambda g: g * b.data), (b, lambda g: g * a.data))


def scale(a: Tensor, s: float) -> Tensor:
    return _op(a.data * s, (a, lambda g: g * s))


def _folded(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w for a 2-D w, as one 2-D product over x's leading axes folded
    into rows."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(x.shape[:-1] + w.shape[-1:])


def matmul(a: Tensor, w: Tensor) -> Tensor:
    """a @ w for a 2-D w (a weight).  The product and the a gradient are each
    one 2-D GEMM over a's folded leading axes.  The w gradient stays one
    product per leading index, summed afterwards: folding it as well changes
    its summation order, and so training's float32 results."""
    if a.data.ndim < 2 or w.data.ndim != 2:
        raise DimensionError(f"matmul needs >=2-d rows and a 2-d weight: {a.shape} @ {w.shape}")
    try:
        data = _folded(a.data, w.data)
    except ValueError:
        raise DimensionError(f"matmul: shapes {a.shape} and {w.shape}") from None
    return _op(data, (a, lambda g: _folded(g, w.data.T)),
               (w, lambda g: a.data.swapaxes(-1, -2) @ g))


def linear(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """x @ w + bias with bias broadcast over leading dims.

    The bias is added into the fresh product in place, since no VJP reads
    the product.
    """
    y = matmul(x, w)
    y.data += bias.data
    return _op(y.data, (y, lambda g: g), (bias, lambda g: g))


def gather_rows(x: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows along the second-to-last axis."""
    idx = np.asarray(indices)

    def vjp(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx.swapaxes(0, -2), idx, g.swapaxes(0, -2))
        return gx

    return _op(np.take(x.data, idx, axis=-2), (x, vjp))


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
    return _op(data, (x, lambda g: np.take(g, idx, axis=-2)))


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last dim to zero mean / unit variance, then affine.

    The forward's one temporary becomes xhat, and the output buffer first
    holds the squares; the x VJP needs one scratch buffer besides its result.
    """
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    out = xhat * xhat
    inv = 1.0 / np.sqrt(out.mean(axis=-1, keepdims=True) + 1e-5)
    xhat *= inv
    np.multiply(xhat, gamma.data, out=out)
    out += beta.data

    def vjp_x(g):
        gh = g * gamma.data
        m = gh.mean(axis=-1, keepdims=True)
        tmp = gh * xhat
        mx = tmp.mean(axis=-1, keepdims=True)
        gh -= m
        np.multiply(xhat, mx, out=tmp)
        gh -= tmp
        gh *= inv
        return gh

    return _op(out, (x, vjp_x), (gamma, lambda g: g * xhat), (beta, lambda g: g))


def _heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(..., m, d) rows as a (..., heads, m, d / heads) view."""
    return x.reshape(x.shape[:-1] + (heads, x.shape[-1] // heads)).swapaxes(-2, -3)


def _rows(x: np.ndarray) -> np.ndarray:
    """(..., heads, m, dh) as (..., m, heads * dh) rows; the inverse of _heads."""
    return x.swapaxes(-2, -3).reshape(x.shape[:-3] + (x.shape[-2], x.shape[-3] * x.shape[-1]))


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head softmax(q @ kᵀ / sqrt(dh)) @ v over rows.

    q is (..., mq, d), k is (..., mk, d) and v is (..., mk, dv); mq may be
    smaller than mk, and either may be 0.  The last axes split into `heads`
    heads of dh = d / heads columns, and the heads' outputs merge back into
    rows, as views inside this primitive alone.  The scores are scaled and
    softmaxed in place, and that one buffer of weights is all the VJPs keep.
    The backward forms g @ vᵀ once and turns it in place into the score
    gradient, which the q and k edges share; the k edge drops it.
    """
    if min(q.data.ndim, k.data.ndim, v.data.ndim) < 2 or not 1 <= heads <= q.shape[-1]:
        raise DimensionError(f"attention: shapes {q.shape}, {k.shape}, {v.shape}, {heads} heads")
    scale = 1.0 / math.sqrt(q.shape[-1] // heads)
    try:
        qh, kh, vh = (_heads(x.data, heads) for x in (q, k, v))
        w = qh @ kh.swapaxes(-1, -2)
        w *= scale
        w -= w.max(axis=-1, keepdims=True, initial=-np.inf)  # -inf: no keys
        np.exp(w, out=w)
        w /= w.sum(axis=-1, keepdims=True)
        out = _rows(w @ vh)
    except ValueError:
        raise DimensionError(
            f"attention: shapes {q.shape}, {k.shape}, {v.shape}, {heads} heads") from None
    shared = []  # the score gradient, from the q edge to the k edge
    share = q.requires_grad and k.requires_grad

    def score_grad(g):
        if shared:
            return shared.pop()
        gs = _heads(g, heads) @ vh.swapaxes(-1, -2)
        gs -= (gs * w).sum(axis=-1, keepdims=True)
        gs *= w
        gs *= scale
        if share:
            shared.append(gs)
        return gs

    return _op(out, (q, lambda g: _rows(score_grad(g) @ kh)),
               (k, lambda g: _rows((qh.swapaxes(-1, -2) @ score_grad(g)).swapaxes(-1, -2))),
               (v, lambda g: _rows(w.swapaxes(-1, -2) @ _heads(g, heads))))


# Eigen's and XLA's float32 erf: x * P(x²) / Q(x²) on x clamped to [-4, 4],
# beyond which erf rounds to ±1 in float32.  Highest power first.
_ERF_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
          -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
          -1.60960333262415e-02)
_ERF_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
          -7.37332916720468e-03, -1.42647390514189e-02)
_math_erf = np.frompyfunc(math.erf, 1, 1)


def _horner(x2: np.ndarray, coeffs: tuple, out=None) -> np.ndarray:
    acc = np.multiply(x2, coeffs[0], out=out)
    for c in coeffs[1:-1]:
        acc += c
        acc *= x2
    acc += coeffs[-1]
    return acc


def _erf(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """erf of float32 x by the rational approximation (within 4.5e-7),
    clamping x in place; of float64 x by math.erf, element by element.
    Written into out when given."""
    if x.dtype != np.float32:
        if out is None:
            return _math_erf(x).astype(np.float64)
        out[...] = _math_erf(x)
        return out
    np.clip(x, -4.0, 4.0, out=x)
    x2 = x * x
    p = _horner(x2, _ERF_P, out=out)
    p *= x
    p /= _horner(x2, _ERF_Q, out=x)  # x is spent: Q(x²) takes its buffer
    return p


# Elements of GELU's input per erf evaluation; the erf's two temporaries are
# block-sized, not input-sized.  In one 128x128 RGB decode at slices of 8
# patches (one BLAS thread), 2**16 gave a traced peak of 3.26 MB at 30.9-31.4
# ms; 2**15 3.01 MB at 32.4-32.6 ms; 2**17 3.76 MB at 31.9-34.6 ms.
_GELU_BLOCK = 1 << 16


def gelu(x: Tensor) -> Tensor:
    """GELU: x * Phi(x) with the Gaussian CDF; Phi's erf is within 4.5e-7 in
    float32 and math.erf's in float64.  Phi is evaluated block by block into
    one buffer, which becomes the output in place when x records no graph,
    since then no VJP keeps Phi.  The VJP builds its result in one buffer."""
    flat = x.data.reshape(-1)
    phi = np.empty_like(flat)
    out = np.empty_like(flat) if x.requires_grad else phi
    for i in range(0, flat.size, _GELU_BLOCK):
        xb, pb = flat[i:i + _GELU_BLOCK], phi[i:i + _GELU_BLOCK]
        _erf(xb / math.sqrt(2.0), out=pb)
        pb += 1.0
        pb *= 0.5
        np.multiply(xb, pb, out=out[i:i + _GELU_BLOCK])
    phi = phi.reshape(x.shape)

    def vjp(g):
        d = x.data**2
        d *= -0.5
        np.exp(d, out=d)
        d /= math.sqrt(2.0 * math.pi)  # the Gaussian pdf
        d *= x.data
        d += phi
        d *= g
        return d

    return _op(out.reshape(x.shape), (x, vjp))


def mean_abs_error(x: Tensor, y: Tensor) -> Tensor:
    """L1 loss; subgradient at zero difference is defined as 0."""
    if x.shape != y.shape:
        raise DimensionError(f"mean_abs_error: shapes {x.shape} and {y.shape}")
    diff = x.data - y.data
    sign = np.sign(diff) / diff.size
    return _op(np.asarray(np.abs(diff).mean()),
               (x, lambda g: g * sign), (y, lambda g: -g * sign))


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
