import numpy as np
import pytest

from easz.errors import GeometryError
from easz.image import make_image, patchify
from easz.mask import EraseMask, SamplerParams, all_kept_mask, generate_row_mask
from easz.squeeze import squeeze, unsqueeze, unsqueeze_grid


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
