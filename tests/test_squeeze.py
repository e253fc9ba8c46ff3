import numpy as np
import pytest

from easz.errors import GeometryError
from easz.image import PatchGrid, make_image, patchify
from easz.mask import EraseMask, SamplerParams, all_kept_mask, generate_row_mask
from easz.squeeze import (SqueezedImage, _kept_columns, squeeze, squeezed_shape,
                          unsqueeze, unsqueeze_grid)


def rand_img(rng, h, w, c=3):
    return make_image(rng.integers(0, 256, (h, w, c), dtype=np.uint8))


def row_mask(gs, t, seed=0):
    if t == 0:
        return all_kept_mask(gs, gs)
    return generate_row_mask(SamplerParams(gs, gs, t, 0, 0, seed=seed))


def kept_pixel_mask(mask, b, patch_rows, patch_cols):
    """Boolean (H, W) map of kept pixels for a shared per-patch mask."""
    per_patch = np.kron(mask.bits, np.ones((b, b), dtype=np.uint8)).astype(bool)
    return np.tile(per_patch, (patch_rows, patch_cols))


def test_squeeze_dimensions():
    rng = np.random.default_rng(0)
    img = rand_img(rng, 256, 256)
    grid = patchify(img, 32, 4)
    sq = squeeze(grid, row_mask(8, 2))
    assert (sq.height, sq.width, sq.channels) == (256, 192, 3)


def test_squeeze_identity_when_all_kept():
    rng = np.random.default_rng(1)
    img = rand_img(rng, 64, 64)
    grid = patchify(img, 32, 4)
    sq = squeeze(grid, all_kept_mask(8, 8))
    assert (sq.pixels == img.pixels).all()


def test_squeeze_ragged_mask_rejected():
    bits = np.ones((4, 4), dtype=np.uint8)
    bits[0, 0] = 0  # row 0 keeps 3, others keep 4
    rng = np.random.default_rng(2)
    grid = patchify(rand_img(rng, 32, 32), 16, 4)
    with pytest.raises(GeometryError, match="ragged"):
        squeeze(grid, EraseMask(bits))


def test_roundtrip_kept_identity_and_fill():
    rng = np.random.default_rng(3)
    img = rand_img(rng, 64, 96, 1)
    grid = patchify(img, 32, 4)
    mask = row_mask(8, 3, seed=9)
    sq = squeeze(grid, mask)
    out = unsqueeze(sq, mask)
    kept = kept_pixel_mask(mask, 4, 2, 3)
    assert (out.pixels[kept] == img.pixels[kept]).all()


def test_unsqueeze_default_fill_zero():
    rng = np.random.default_rng(4)
    grid = patchify(rand_img(rng, 32, 32, 1), 32, 4)
    mask = row_mask(8, 2, seed=1)
    out = unsqueeze(squeeze(grid, mask), mask)
    kept = kept_pixel_mask(mask, 4, 1, 1)
    assert (out.pixels[~kept] == 0).all()


def test_unsqueeze_wrong_mask_dims():
    rng = np.random.default_rng(5)
    grid = patchify(rand_img(rng, 32, 32, 1), 32, 4)
    sq = squeeze(grid, row_mask(8, 2))
    with pytest.raises(GeometryError):
        unsqueeze_grid(sq, row_mask(4, 1))


def test_size_accounting_exact():
    rng = np.random.default_rng(6)
    for n, b, t in [(32, 4, 0), (32, 4, 2), (32, 8, 1), (16, 2, 3), (16, 16, 0)]:
        img = rand_img(rng, 80, 112, 1)
        grid = patchify(img, n, b)
        gs = n // b
        mask = row_mask(gs, t, seed=t)
        sq = squeeze(grid, mask)
        padded = grid.padded_height * grid.padded_width
        assert sq.pixels[:, :, 0].size == round((1 - t * b / n) * padded)


# --- byte-exact references ---------------------------------------------------
# The fancy-index squeeze and unsqueeze over 7-D pixel views that defined the
# squeezed layout, copied unchanged apart from their names.

def reference_squeeze(grid: PatchGrid, mask: EraseMask) -> SqueezedImage:
    n, b, c = grid.patch_size_n, grid.subpatch_size_b, grid.channels
    gs, pr, pc = grid.subgrid_side, grid.patch_rows, grid.patch_cols
    cols = _kept_columns(mask, gs)
    t = gs - cols.shape[1]
    sub = grid.patches.reshape(pr, pc, gs, b, gs, b, c).transpose(0, 1, 2, 4, 3, 5, 6)
    packed = sub[:, :, np.arange(gs)[:, None], cols]
    pixels = packed.transpose(0, 2, 4, 1, 3, 5, 6).reshape(*squeezed_shape(pr, pc, n, b, t), c)
    return SqueezedImage(pixels, n, b, t, pr, pc, grid.orig_height, grid.orig_width)


def reference_unsqueeze_grid(sq: SqueezedImage, mask: EraseMask) -> PatchGrid:
    n, b, c = sq.patch_size_n, sq.subpatch_size_b, sq.channels
    gs, pr, pc = n // b, sq.patch_rows, sq.patch_cols
    cols = _kept_columns(mask, gs)
    kept = cols.shape[1]
    want = squeezed_shape(pr, pc, n, b, gs - kept)
    if (sq.height, sq.width) != want:
        raise GeometryError(f"squeezed raster {sq.height}x{sq.width} does not match "
                            f"geometry {want[0]}x{want[1]}")
    packed = sq.pixels.reshape(pr, gs, b, pc, kept, b, c).transpose(0, 3, 1, 4, 2, 5, 6)
    sub = np.zeros((pr, pc, gs, gs, b, b, c), dtype=np.uint8)
    sub[:, :, np.arange(gs)[:, None], cols] = packed
    patches = sub.transpose(0, 1, 2, 4, 3, 5, 6).reshape(pr * pc, n, n, c)
    return PatchGrid(patches, n, b, pr, pc, sq.orig_height, sq.orig_width)


def _geometry(obj) -> dict:
    return {k: v for k, v in vars(obj).items() if not isinstance(v, np.ndarray)}


def assert_matches_reference(grid: PatchGrid, mask: EraseMask):
    sq, want = squeeze(grid, mask), reference_squeeze(grid, mask)
    assert sq.pixels.dtype == np.uint8 and sq.pixels.shape == want.pixels.shape
    assert sq.pixels.tobytes() == want.pixels.tobytes()
    assert _geometry(sq) == _geometry(want)
    back, ref = unsqueeze_grid(sq, mask), reference_unsqueeze_grid(sq, mask)
    assert back.patches.dtype == np.uint8 and back.patches.shape == ref.patches.shape
    assert back.patches.tobytes() == ref.patches.tobytes()
    assert _geometry(back) == _geometry(ref)


@pytest.mark.parametrize("c", [1, 3])
@pytest.mark.parametrize("n", [8, 16, 32])
def test_matches_reference_every_geometry(n, c):
    # every b dividing n, every T from all kept to all erased, padded sizes
    rng = np.random.default_rng(n * 10 + c)
    for b in [b for b in range(1, n + 1) if n % b == 0]:
        gs = n // b
        grid = patchify(rand_img(rng, 2 * n - 3, n + 5, c), n, b)
        for t in range(gs + 1):
            assert_matches_reference(grid, row_mask(gs, t, seed=t))


def test_matches_reference_non_contiguous_input():
    rng = np.random.default_rng(7)
    base = patchify(rand_img(rng, 48, 80, 3), 16, 4)
    mask = row_mask(4, 2, seed=3)
    wide = rng.integers(0, 256, base.patches.shape[:3] + (6,), dtype=np.uint8)
    for patches in (base.patches[::-1], wide[..., ::2],
                    np.asfortranarray(base.patches)):
        grid = PatchGrid(patches, 16, 4, base.patch_rows, base.patch_cols, 48, 80)
        assert_matches_reference(grid, mask)
    sq = squeeze(base, mask)
    strided = np.zeros(sq.pixels.shape[:2] + (6,), dtype=np.uint8)
    strided[..., ::2] = sq.pixels
    view = SqueezedImage(strided[..., ::2], 16, 4, 2, base.patch_rows,
                         base.patch_cols, 48, 80)
    assert not view.pixels.flags.c_contiguous
    np.testing.assert_array_equal(unsqueeze_grid(view, mask).patches,
                                  reference_unsqueeze_grid(sq, mask).patches)
