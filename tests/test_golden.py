"""Frozen digests of the byte-exact outputs, and a reference for the model path.

Seed-mode containers already on disk depend on the mask sampler drawing the
same bits, and store-codec containers on squeeze laying out the same pixels,
so these SHA-256 digests must never change.  Float model output is not
frozen (it can differ across BLAS builds); reconstruct_grid is instead
compared with a per-patch forward through the training-time graph.
"""

import hashlib

import numpy as np
import pytest

from easz.autodiff import Tensor
from easz.container import MASK_EXPLICIT, MASK_SEED, encode_container
from easz.image import make_image, patchify
from easz.mask import SamplerParams, generate_row_mask, pack_mask
from easz.model import (ModelConfig, forward_tokens, init_params,
                        load_checkpoint, patch_to_tokens, reconstruct_grid,
                        sample_training_mask, save_checkpoint, tokens_to_patch)
from easz.pipeline import PipelineConfig
from easz.squeeze import squeeze


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


PIPELINE_MASKS = [  # pack_mask(PipelineConfig(seed=s).make_mask()), s = 0..7
    "461e1ae68057ad4a95dc43be0494a244ad3e11bb8ff007622bb5507e9ec13cb5",
    "05f470f598055e425c1730f6fc2815ce4a9247efe2aaf27aa487b7976e8d9c34",
    "6dc079543034d762f85a99d3e369224ccd353063dc64dbc4c5f7c0c91ff042ce",
    "9676cc74e3ab2eb54a4704aa37202561c2547e5a291458c70017877d52e8009f",
    "c1d2de7f90ae7d342cf296b77dc825107289a1ba5955bdeed69cbe707e7d1c73",
    "61b0319d821839315af60de28b88d5d3c9ab6c88d822ca5781b14a0b091bf635",
    "8c9af08bd0900c6b787d5df04b287bc98cf02573719e40e6ecf0b1032d7a1e7a",
    "986e5e0b88aca3ea1fb2cfe2691bfb2db2a2f1204c5a2db80d3359202436410b",
]

TRAINING_MASKS = {  # grid side -> digests for seeds 0 and 1
    4: ["f47055215cb62301f92006ff4a191d77104ccb34ae4d4677636224b65614b1e1",
        "320faeb6d5a922de7fdb20c38bf97f9e212991fcadbe5b8f04ca6535b18551a2"],
    8: ["4ea2372632338e6ee48eff0b379ecd9ddcb7bba16ad5c9559cc7b11e83427cf0",
        "a16776ad74475c7085b1454a8db361b983bdaaf3b0ebaedf6c41f5f87af5036c"],
    16: ["b58a530a5fbfb292a7c2a365e4720f8a15eaab7bc305f4b5507bda471cd2a6d1",
         "e491c34499d3c8741a0f83a79963a7cc4862b7fb8f35da71c95d20e6807d3686"],
}

# image seed -> (shape, squeezed pixels, explicit container, seed-mode container)
SQUEEZED = {
    0: ((70, 100, 3),
        "5807390bd6c4bba056553ee46c900d0736363748919c82a490e8c213a2f11b39",
        "4e5baec8736077757896bc27f393bd59400b00d98481a001ad4a2c103a744717",
        "bb2b60d27f266c6803cc8161ecf4a476f690044516793bc6f5eaa545001a2ad6"),
    1: ((64, 64, 1),
        "7c65370628f19137b44ae3cba119127d83b09a5a6d2c5746bb1640de29ff11e1",
        "389754afbc9f5be084a8aa4dca72415ef37cc1586ba64c85b9e6f3fd0bff5896",
        "f62600c0a00c7ee8d97f4dd313c429b21a91533bd298b754843d33a242a51927"),
}


def test_pipeline_masks_frozen():
    got = [sha(pack_mask(PipelineConfig(seed=s).make_mask())) for s in range(8)]
    assert got == PIPELINE_MASKS


@pytest.mark.parametrize("grid_side", sorted(TRAINING_MASKS))
def test_training_masks_frozen(grid_side):
    cfg = ModelConfig(subpatch_b=2, channels=1, d_model=16,
                      grid_side=grid_side, heads=2)
    got = [sha(pack_mask(sample_training_mask(cfg, 0.25, s))) for s in (0, 1)]
    assert got == TRAINING_MASKS[grid_side]


@pytest.mark.parametrize("seed", sorted(SQUEEZED))
def test_squeeze_and_containers_frozen(seed):
    shape, pixels, explicit, seeded = SQUEEZED[seed]
    rng = np.random.default_rng(seed)
    img = make_image(rng.integers(0, 256, shape, dtype=np.uint8))
    cfg = PipelineConfig(seed=seed)
    mask = cfg.make_mask()
    sq = squeeze(patchify(img, cfg.n, cfg.b), mask)
    assert sha(sq.pixels.tobytes()) == pixels
    assert sha(encode_container(sq, mask, mask_mode=MASK_EXPLICIT)) == explicit
    assert sha(encode_container(sq, mask, mask_mode=MASK_SEED)) == seeded


def test_reconstruct_grid_matches_reference():
    cfg = ModelConfig(subpatch_b=2, channels=3, d_model=16, grid_side=4,
                      heads=2, ffn_multiplier=2)
    # float32 parameters that record a graph, as load_checkpoint returns them
    params, _ = load_checkpoint(save_checkpoint(init_params(cfg, seed=1), cfg))
    rng = np.random.default_rng(2)
    grid = patchify(make_image(rng.integers(0, 256, (14, 24, 3), dtype=np.uint8)), 8, 2)
    mask = generate_row_mask(SamplerParams(4, 4, 2, 0, 1, seed=5))
    out = reconstruct_grid(grid, mask, params, cfg)
    erased = np.kron(1 - mask.bits, np.ones((2, 2), dtype=np.uint8)).astype(bool)
    for patch, got in zip(grid.patches, out.patches):
        pred = forward_tokens(Tensor(patch_to_tokens(patch, 2)), mask, params, cfg)
        assert pred.requires_grad
        want = np.where(erased[..., None], tokens_to_patch(pred.data, 2, 3), patch)
        assert np.array_equal(got, want)
