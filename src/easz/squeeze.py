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
from .mask import EraseMask, uniform_kept_count


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
    kept = uniform_kept_count(mask)
    return np.nonzero(mask.bits)[1].reshape(gs, kept)


def squeeze(grid: PatchGrid, mask: EraseMask) -> SqueezedImage:
    """Drop erased sub-patches and compact each sub-patch row leftward."""
    n, b, c = grid.patch_size_n, grid.subpatch_size_b, grid.channels
    gs, pr, pc = grid.subgrid_side, grid.patch_rows, grid.patch_cols
    cols = _kept_columns(mask, gs)
    kept = cols.shape[1]
    # axes: patch row, patch col, sub-patch row, sub-patch col, pixel row,
    # pixel col, channel
    sub = grid.patches.reshape(pr, pc, gs, b, gs, b, c).transpose(0, 1, 2, 4, 3, 5, 6)
    packed = sub[:, :, np.arange(gs)[:, None], cols]
    pixels = packed.transpose(0, 2, 4, 1, 3, 5, 6).reshape(pr * n, pc * kept * b, c)
    return SqueezedImage(
        pixels, n, b, gs - kept, pr, pc, grid.orig_height, grid.orig_width,
    )


def unsqueeze_grid(sq: SqueezedImage, mask: EraseMask, fill: int = 0) -> PatchGrid:
    """Scatter kept sub-patches back to their positions, fill the rest.

    Returns the padded-size patch grid so reconstruction can run per patch;
    crop with image.unpatchify.
    """
    n, b, c = sq.patch_size_n, sq.subpatch_size_b, sq.channels
    gs, pr, pc = n // b, sq.patch_rows, sq.patch_cols
    cols = _kept_columns(mask, gs)
    kept = cols.shape[1]
    if (sq.height, sq.width) != (pr * n, pc * kept * b):
        raise GeometryError(
            f"squeezed raster {sq.height}x{sq.width} does not match geometry "
            f"{pr * n}x{pc * kept * b}"
        )
    packed = sq.pixels.reshape(pr, gs, b, pc, kept, b, c).transpose(0, 3, 1, 4, 2, 5, 6)
    sub = np.full((pr, pc, gs, gs, b, b, c), fill, dtype=np.uint8)
    sub[:, :, np.arange(gs)[:, None], cols] = packed
    patches = sub.transpose(0, 1, 2, 4, 3, 5, 6).reshape(pr * pc, n, n, c)
    return PatchGrid(patches, n, b, pr, pc, sq.orig_height, sq.orig_width)


def unsqueeze(sq: SqueezedImage, mask: EraseMask, fill: int = 0) -> Image:
    """unsqueeze_grid followed by reassembly and cropping."""
    return unpatchify(unsqueeze_grid(sq, mask, fill))
