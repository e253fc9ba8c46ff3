"""Apply erase masks and compact the survivors into a smaller raster.

Compaction is leftward within each sub-patch row; with a fixed erased count
T per row this yields a rectangular n x (n - T*b) patch, which is what lets
the squeezed raster feed any standard image codec downstream.

Both directions work on the raster itself, never on an array of patches:
squeeze gathers the kept b * C-byte records of each sub-patch pixel row out
of the padded raster, and unsqueeze scatters them back through the same
record index (_record_index, the one statement of the squeezed layout).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .image import Image, check_geometry, padded_pixels
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


def _record_index(cols: np.ndarray, n: int, b: int, patch_cols: int) -> np.ndarray:
    """Within one patch row of the padded raster, viewed as (n * patch_cols
    * gs) b * C-byte records, the index of every kept record in squeezed
    order: record ((g * b + r) * patch_cols + j) * gs + cols[g][k] is pixel
    row r of kept sub-patch (g, cols[g][k]) of patch j."""
    gs = n // b
    rows = np.arange(0, n * patch_cols * gs, gs).reshape(gs, b * patch_cols, 1)
    return (rows + cols[:, None, :]).reshape(-1)


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
    idx = _record_index(cols, n, b, pc)
    pixels = np.empty((*squeezed_shape(pr, pc, n, b, t), c), dtype=np.uint8)
    out = _records(pixels, (pr, idx.size), b * c)
    np.take(_records(px, (pr, n * pc * gs), b * c), idx, axis=1, out=out, mode="clip")
    return SqueezedImage(pixels, n, b, t, pr, pc, img.height, img.width)


def unsqueeze(sq: SqueezedImage, mask: EraseMask) -> Image:
    """The inverse of squeeze: scatter the kept records back to their
    positions in a zeroed raster, so erased sub-patches read 0.

    Returns the padded (patch_rows * n, patch_cols * n, C) raster; crop it
    to (orig_height, orig_width) for the image that was squeezed.
    """
    n, b, c = sq.patch_size_n, sq.subpatch_size_b, sq.channels
    gs, pr, pc = n // b, sq.patch_rows, sq.patch_cols
    cols = _kept_columns(mask, gs)
    want = squeezed_shape(pr, pc, n, b, gs - cols.shape[1])
    if (sq.height, sq.width) != want:
        raise GeometryError(f"squeezed raster {sq.height}x{sq.width} does not match "
                            f"geometry {want[0]}x{want[1]}")
    idx = _record_index(cols, n, b, pc)
    pixels = np.zeros((pr * n, pc * n, c), dtype=np.uint8)
    dst = _records(pixels, (pr, n * pc * gs), b * c)
    dst[:, idx] = _records(np.ascontiguousarray(sq.pixels), (pr, idx.size), b * c)
    return Image(pixels)
