"""Finite-difference gradient checks for the autodiff tests and criterion 06.

Test-only helpers: the library trains through Tensor.backward and never
checks its own gradients, so these live with the tests that use them.
"""

import numpy as np

from easz import autodiff as ad
from easz.autodiff import Tensor
from easz.errors import TrainingError


def tsum(x: Tensor) -> Tensor:
    """Sum of every element, as a scalar Tensor with its VJP."""
    return ad._op(np.asarray(x.data.sum()), (x, lambda g: np.full_like(x.data, float(g))))


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
