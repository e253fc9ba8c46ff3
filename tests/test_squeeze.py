from dataclasses import replace

import numpy as np
import pytest

from easz.errors import GeometryError, ParameterError
from easz.image import load_raster, make_image, padded_size, store_raster
from easz.mask import EraseMask, SamplerParams, all_kept_mask, generate_row_mask
from easz.squeeze import SqueezedImage, _kept_columns, squeeze, squeezed_shape, unsqueeze


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
    sq = squeeze(img, row_mask(8, 2), 32, 4)
    assert (sq.height, sq.width, sq.channels) == (256, 192, 3)


def test_squeeze_identity_when_all_kept():
    rng = np.random.default_rng(1)
    img = rand_img(rng, 64, 64)
    sq = squeeze(img, all_kept_mask(8, 8), 32, 4)
    assert (sq.pixels == img.pixels).all()


def test_squeeze_ragged_mask_rejected():
    bits = np.ones((4, 4), dtype=np.uint8)
    bits[0, 0] = 0  # row 0 keeps 3, others keep 4
    rng = np.random.default_rng(2)
    with pytest.raises(GeometryError, match="ragged"):
        squeeze(rand_img(rng, 32, 32), EraseMask(bits), 16, 4)


def test_roundtrip_kept_identity_and_fill():
    rng = np.random.default_rng(3)
    img = rand_img(rng, 64, 96, 1)
    mask = row_mask(8, 3, seed=9)
    sq = squeeze(img, mask, 32, 4)
    out = unsqueeze(sq, mask)
    kept = kept_pixel_mask(mask, 4, 2, 3)
    assert (out.pixels[kept] == img.pixels[kept]).all()


def test_unsqueeze_default_fill_zero():
    rng = np.random.default_rng(4)
    mask = row_mask(8, 2, seed=1)
    out = unsqueeze(squeeze(rand_img(rng, 32, 32, 1), mask, 32, 4), mask)
    kept = kept_pixel_mask(mask, 4, 1, 1)
    assert (out.pixels[~kept] == 0).all()


def test_unsqueeze_wrong_mask_dims():
    rng = np.random.default_rng(5)
    sq = squeeze(rand_img(rng, 32, 32, 1), row_mask(8, 2), 32, 4)
    with pytest.raises(GeometryError):
        unsqueeze(sq, row_mask(4, 1))


def test_unsqueeze_wrong_squeezed_shape():
    rng = np.random.default_rng(5)
    mask = row_mask(8, 2)
    sq = squeeze(rand_img(rng, 32, 64, 1), mask, 32, 4)
    for pixels in (sq.pixels[:, :-4], sq.pixels[:-1]):
        with pytest.raises(GeometryError, match="does not match"):
            unsqueeze(replace(sq, pixels=pixels), mask)


def test_size_accounting_exact():
    rng = np.random.default_rng(6)
    for n, b, t in [(32, 4, 0), (32, 4, 2), (32, 8, 1), (16, 2, 3), (16, 16, 0)]:
        img = rand_img(rng, 80, 112, 1)
        gs = n // b
        mask = row_mask(gs, t, seed=t)
        sq = squeeze(img, mask, n, b)
        padded = np.prod(padded_size(80, 112, n))
        assert sq.pixels[:, :, 0].size == round((1 - t * b / n) * padded)


# --- byte-exact references ---------------------------------------------------
# The fancy-index squeeze and unsqueeze over 7-D views of a patch array that
# defined the squeezed layout.  The patch array is built here, from the
# edge-padded raster, so the reference shares no layout code with the
# library; the 7-D fancy indexing is the original code, unchanged.

def reference_patches(img, n: int) -> np.ndarray:
    """(patch_rows, patch_cols, n, n, C): the edge-padded raster's patches."""
    ph, pw = -(-img.height // n) * n, -(-img.width // n) * n
    px = np.pad(img.pixels, ((0, ph - img.height), (0, pw - img.width), (0, 0)), mode="edge")
    return px.reshape(ph // n, n, pw // n, n, img.channels).transpose(0, 2, 1, 3, 4)


def reference_squeeze(img, mask: EraseMask, n: int, b: int) -> SqueezedImage:
    patches = reference_patches(img, n)
    pr, pc, c, gs = *patches.shape[:2], img.channels, n // b
    cols = _kept_columns(mask, gs)
    t = gs - cols.shape[1]
    sub = patches.reshape(pr, pc, gs, b, gs, b, c).transpose(0, 1, 2, 4, 3, 5, 6)
    packed = sub[:, :, np.arange(gs)[:, None], cols]
    pixels = packed.transpose(0, 2, 4, 1, 3, 5, 6).reshape(*squeezed_shape(pr, pc, n, b, t), c)
    return SqueezedImage(pixels, n, b, t, pr, pc, img.height, img.width)


def reference_unsqueeze(sq: SqueezedImage, mask: EraseMask) -> np.ndarray:
    """The padded raster with the kept sub-patches back in place, zeros elsewhere."""
    n, b, c = sq.patch_size_n, sq.subpatch_size_b, sq.channels
    gs, pr, pc = n // b, sq.patch_rows, sq.patch_cols
    cols = _kept_columns(mask, gs)
    kept = cols.shape[1]
    packed = sq.pixels.reshape(pr, gs, b, pc, kept, b, c).transpose(0, 3, 1, 4, 2, 5, 6)
    sub = np.zeros((pr, pc, gs, gs, b, b, c), dtype=np.uint8)
    sub[:, :, np.arange(gs)[:, None], cols] = packed
    return sub.transpose(0, 2, 4, 1, 3, 5, 6).reshape(pr * n, pc * n, c)


def _geometry(obj) -> dict:
    return {k: v for k, v in vars(obj).items() if not isinstance(v, np.ndarray)}


def assert_matches_reference(img, mask: EraseMask, n: int, b: int):
    sq, want = squeeze(img, mask, n, b), reference_squeeze(img, mask, n, b)
    assert sq.pixels.dtype == np.uint8 and sq.pixels.shape == want.pixels.shape
    assert sq.pixels.tobytes() == want.pixels.tobytes()
    assert _geometry(sq) == _geometry(want)
    assert not np.shares_memory(sq.pixels, img.pixels)
    back, ref = unsqueeze(sq, mask).pixels, reference_unsqueeze(sq, mask)
    assert back.dtype == np.uint8 and back.shape == ref.shape
    assert back.tobytes() == ref.tobytes()


@pytest.mark.parametrize("c", [1, 3])
@pytest.mark.parametrize("n", [8, 16, 32])
def test_matches_reference_every_geometry(n, c):
    # every b dividing n, every T from all kept to all erased, padded sizes;
    # the raster is load_raster's read-only view, as on the encode path
    rng = np.random.default_rng(n * 10 + c)
    for b in [b for b in range(1, n + 1) if n % b == 0]:
        gs = n // b
        img = load_raster(store_raster(rand_img(rng, 2 * n - 3, n + 5, c)))
        assert not img.pixels.flags.writeable
        for t in range(gs + 1):
            assert_matches_reference(img, row_mask(gs, t, seed=t), n, b)


def test_matches_reference_non_contiguous_input():
    rng = np.random.default_rng(7)
    base = rand_img(rng, 48, 80, 3)
    mask = row_mask(4, 2, seed=3)
    wide = rng.integers(0, 256, (48, 80, 6), dtype=np.uint8)
    for pixels in (base.pixels, base.pixels[::-1], wide[..., ::2],
                   np.asfortranarray(base.pixels), wide[:32, :64, 1::2]):
        assert_matches_reference(make_image(pixels), mask, 16, 4)
    sq = squeeze(base, mask, 16, 4)
    strided = np.zeros(sq.pixels.shape[:2] + (6,), dtype=np.uint8)
    strided[..., ::2] = sq.pixels
    view = SqueezedImage(strided[..., ::2], 16, 4, 2, sq.patch_rows,
                         sq.patch_cols, 48, 80)
    assert not view.pixels.flags.c_contiguous
    np.testing.assert_array_equal(unsqueeze(view, mask).pixels, reference_unsqueeze(sq, mask))


def test_squeeze_rejects_bad_geometry():
    img = rand_img(np.random.default_rng(8), 32, 32)
    for n, b in ((32, 5), (4, 8), (32, 0)):
        with pytest.raises(ParameterError):
            squeeze(img, all_kept_mask(1, 1), n, b)
