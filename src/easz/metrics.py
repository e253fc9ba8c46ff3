"""Quality metrics, size accounting, and the attention-cost estimator."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .image import Image

PSNR_INFINITE = math.inf

# SSIM: window side and the stabilising constants K1, K2 (the standard values)
SSIM_WINDOW, SSIM_K1, SSIM_K2 = 8, 0.01, 0.03


@dataclass(frozen=True)
class QualityReport:
    mse: float
    psnr: float
    ssim: float
    bpp: float = 0.0
    saving_ratio: float = 0.0

    def as_lines(self) -> str:
        psnr = "infinite" if math.isinf(self.psnr) else f"{self.psnr:.6f}"
        return (
            f"mse={self.mse:.6f}\npsnr={psnr}\nssim={self.ssim:.6f}\n"
            f"bpp={self.bpp:.6f}\nsaving_ratio={self.saving_ratio:.6f}\n"
        )


def _check_dims(a: Image, b: Image):
    if a.pixels.shape != b.pixels.shape:
        raise DimensionError(
            f"image dims differ: {a.height}x{a.width}x{a.channels} vs "
            f"{b.height}x{b.width}x{b.channels}"
        )


def mse(a: Image, b: Image) -> float:
    _check_dims(a, b)
    return float(((a.pixels.astype(np.float64) - b.pixels) ** 2).mean())


def psnr(a: Image, b: Image) -> float:
    """10*log10(255^2 / mse); infinite sentinel for identical inputs."""
    err = mse(a, b)
    if err == 0.0:
        return PSNR_INFINITE
    return 10.0 * math.log10(255.0**2 / err)


def ssim(a: Image, b: Image) -> float:
    """Single-scale SSIM over non-overlapping SSIM_WINDOW-square tiles.

    Uniform windows, stride = window, L = 255; channels averaged.
    """
    _check_dims(a, b)
    window = SSIM_WINDOW
    if a.height < window or a.width < window:
        raise DimensionError(
            f"image {a.height}x{a.width} smaller than window {window}"
        )
    th = a.height // window * window
    tw = a.width // window * window
    x = a.pixels[:th, :tw].astype(np.float64)
    y = b.pixels[:th, :tw].astype(np.float64)
    c = a.channels
    # tile into (tiles, window*window) per channel
    def tiles(img):
        return (
            img.reshape(th // window, window, tw // window, window, c)
            .transpose(0, 2, 4, 1, 3)
            .reshape(-1, window * window)
        )

    tx, ty = tiles(x), tiles(y)
    mux, muy = tx.mean(axis=1), ty.mean(axis=1)
    vx, vy = tx.var(axis=1), ty.var(axis=1)
    cov = ((tx - mux[:, None]) * (ty - muy[:, None])).mean(axis=1)
    l_const = (SSIM_K1 * 255.0) ** 2
    c_const = (SSIM_K2 * 255.0) ** 2
    s = ((2 * mux * muy + l_const) * (2 * cov + c_const)) / (
        (mux**2 + muy**2 + l_const) * (vx + vy + c_const)
    )
    return float(s.mean())


def saving_ratio(baseline_bytes: int, easz_bytes: int) -> float:
    """(baseline - easz) / baseline; negative when the pipeline loses."""
    if baseline_bytes <= 0:
        raise ParameterError("baseline size must be positive")
    return (baseline_bytes - easz_bytes) / baseline_bytes


ATTN_COST_NOTE = (
    "Costs are token-pair multiply counts excluding the constant d_model "
    "factor. Note: the worked example sometimes quoted for a 256x256 image "
    "with n=32, b=4 is 1,048,576 (a 4096x reduction), but the closed-form "
    "two-stage cost h*w*n^2/b^4 gives 262,144 (a 16,384x reduction) for the "
    "same inputs; this estimator implements the formula and reports 262,144."
)


def attn_cost(h: int, w: int, n: int, b: int) -> tuple[int, int, float]:
    """Token-pair attention cost: pixel-token vs two-stage patchified.

    Returns (pixel_token_cost, two_stage_cost, reduction_factor), all
    excluding the d_model factor.  pixel_token = (h*w)^2; two_stage =
    h*w*n^2/b^4, i.e. hw/n^2 patches times ((n/b)^2)^2 per-patch attention.
    """
    if h <= 0 or w <= 0:
        raise ParameterError(f"dimensions must be positive, got {h}x{w}")
    if b < 1 or n % b != 0:
        raise ParameterError(f"need b >= 1 and b | n, got n={n}, b={b}")
    if h % n != 0 or w % n != 0:
        raise ParameterError(f"patch size {n} must divide padded dims {h}x{w}")
    pixel_token = (h * w) ** 2
    two_stage = (h * w // (n * n)) * (n // b) ** 4
    return pixel_token, two_stage, pixel_token / two_stage
