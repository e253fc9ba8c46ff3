"""Apply erase masks and compact the survivors into a smaller raster.

Compaction is leftward within each sub-patch row; with a fixed erased count
T per row this yields a rectangular n x (n - T*b) patch, which is what lets
the squeezed raster feed any standard image codec downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .image import Image, PatchGrid, check_geometry, padded_pixels, unpatchify
from .mask import EraseMask


@dataclass(frozen=True)
class SqueezedImage:
    """Compacted raster plus the geometry needed to invert it."""

    pixels: np.ndarray  # uint8 (height, reduced width, C)
    patch_size_n: int
    subpatch_size_b: int
    erased_per_row: int  # T
    patch_rows: int
    patch_cols: int
    orig_height: int
    orig_width: int

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]


def _kept_columns(mask: EraseMask, gs: int) -> np.ndarray:
    """(rows, kept) column indices of each row's kept sub-patches, in order."""
    if (mask.rows, mask.cols) != (gs, gs):
        raise GeometryError(
            f"mask is {mask.rows}x{mask.cols}, sub-patch grid is {gs}x{gs}"
        )
    kept = set(mask.bits.sum(axis=1).tolist())
    if len(kept) > 1:
        raise GeometryError(f"ragged mask: kept-per-row counts {sorted(kept)}")
    return np.nonzero(mask.bits)[1].reshape(gs, kept.pop())


def squeezed_shape(patch_rows: int, patch_cols: int, n: int, b: int, t: int) -> tuple[int, int]:
    """(height, width) of the squeezed raster: each patch keeps n // b - t columns."""
    return patch_rows * n, patch_cols * (n // b - t) * b


def _records(pixels: np.ndarray, shape: tuple[int, ...], width: int) -> np.ndarray:
    """View a C-contiguous uint8 array with `shape` whose elements are its
    runs of `width` bytes (one sub-patch pixel row, b * C) as np.void records."""
    return pixels.reshape(*shape, width).view(f"V{width}")[..., 0]


def squeeze(img: Image, mask: EraseMask, n: int, b: int) -> SqueezedImage:
    """Drop erased sub-patches of every n x n patch and compact each
    sub-patch row leftward.

    One gather straight from the raster: each kept sub-patch pixel row is a
    b * C-byte record of the (edge-padded) raster, and one np.take copies
    them into a new squeezed raster.  No patch array is built, and the
    raster is copied only to pad it to a multiple of n or to make it
    contiguous.  The result never aliases img.
    """
    check_geometry(n, b)
    c, gs = img.channels, n // b
    cols = _kept_columns(mask, gs)
    t = gs - cols.shape[1]
    px = np.ascontiguousarray(padded_pixels(img, n))
    pr, pc = px.shape[0] // n, px.shape[1] // n
    # per patch row, record ((g * b + r) * pc + j) * gs + col is the pixel row
    # r of sub-patch (g, col) of patch j; the squeezed row keeps cols[g]
    src = _records(px, (pr, n * pc * gs), b * c)
    idx = np.arange(0, n * pc * gs, gs).reshape(gs, b * pc, 1) + cols[:, None, :]
    pixels = np.empty((*squeezed_shape(pr, pc, n, b, t), c), dtype=np.uint8)
    out = _records(pixels, (pr, idx.size), b * c)
    np.take(src, idx.reshape(-1), axis=1, out=out, mode="clip")
    return SqueezedImage(pixels, n, b, t, pr, pc, img.height, img.width)


def unsqueeze_grid(sq: SqueezedImage, mask: EraseMask) -> PatchGrid:
    """Scatter kept sub-patches back to their positions, zeros elsewhere.

    Returns the padded-size patch grid so reconstruction can run per patch;
    crop with image.unpatchify.
    """
    n, b, c = sq.patch_size_n, sq.subpatch_size_b, sq.channels
    gs, pr, pc = n // b, sq.patch_rows, sq.patch_cols
    cols = _kept_columns(mask, gs)
    kept = cols.shape[1]
    want = squeezed_shape(pr, pc, n, b, gs - kept)
    if (sq.height, sq.width) != want:
        raise GeometryError(f"squeezed raster {sq.height}x{sq.width} does not match "
                            f"geometry {want[0]}x{want[1]}")
    packed = _records(np.ascontiguousarray(sq.pixels), (pr, gs, b, pc, kept), b * c)
    patches = np.zeros((pr * pc, n, n, c), dtype=np.uint8)
    sub = _records(patches, (pr, pc, gs, b, gs), b * c)
    sub[:, :, np.arange(gs)[:, None], :, cols] = packed.transpose(1, 4, 0, 3, 2)
    return PatchGrid(patches, n, b, pr, pc, sq.orig_height, sq.orig_width)


def unsqueeze(sq: SqueezedImage, mask: EraseMask) -> Image:
    """unsqueeze_grid followed by reassembly and cropping."""
    return unpatchify(unsqueeze_grid(sq, mask))
