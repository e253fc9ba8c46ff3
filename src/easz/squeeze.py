"""Apply erase masks and compact the survivors into a smaller raster.

Compaction is leftward within each sub-patch row; with a fixed erased count
T per row this yields a rectangular n x (n - T*b) patch, which is what lets
the squeezed raster feed any standard image codec downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .image import Image, PatchGrid, unpatchify
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
    kept = mask.bits.sum(axis=1)
    if not (kept == kept[0]).all():
        raise GeometryError(f"ragged mask: kept-per-row counts {sorted(set(kept.tolist()))}")
    return np.nonzero(mask.bits)[1].reshape(gs, int(kept[0]))


def squeezed_shape(patch_rows: int, patch_cols: int, n: int, b: int, t: int) -> tuple[int, int]:
    """(height, width) of the squeezed raster: each patch keeps n // b - t columns."""
    return patch_rows * n, patch_cols * (n // b - t) * b


def _records(pixels: np.ndarray, shape: tuple[int, ...], width: int) -> np.ndarray:
    """View a C-contiguous uint8 array with `shape` whose elements are its
    runs of `width` bytes (one sub-patch pixel row, b * C) as np.void records."""
    return pixels.reshape(*shape, width).view(f"V{width}")[..., 0]


def squeeze(grid: PatchGrid, mask: EraseMask) -> SqueezedImage:
    """Drop erased sub-patches and compact each sub-patch row leftward."""
    n, b, c = grid.patch_size_n, grid.subpatch_size_b, grid.channels
    gs, pr, pc = grid.subgrid_side, grid.patch_rows, grid.patch_cols
    cols = _kept_columns(mask, gs)
    t = gs - cols.shape[1]
    # axes: patch row, patch col, sub-patch row, pixel row, sub-patch col
    sub = _records(np.ascontiguousarray(grid.patches), (pr, pc, gs, b, gs), b * c)
    packed = sub[:, :, np.arange(gs)[:, None], :, cols]  # (gs, kept, pr, pc, b)
    pixels = np.ascontiguousarray(packed.transpose(2, 0, 4, 3, 1))
    pixels = pixels.view(np.uint8).reshape(*squeezed_shape(pr, pc, n, b, t), c)
    return SqueezedImage(pixels, n, b, t, pr, pc, grid.orig_height, grid.orig_width)


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
