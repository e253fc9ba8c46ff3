"""
Erase, squeeze, and the wire container
======================================

View an image as patches of sub-patches, erase masked sub-patches, compact
the survivors into a genuinely smaller raster, and wrap the result in the
self-describing container that goes over the wire.  With T=0 the whole
trip is a bit-exact identity; with T>0 the container shrinks by exactly
T*b/n and kept pixels still survive untouched.
"""

import numpy as np

from easz.container import bpp, decode_container, encode_container
from easz.image import make_image, store_raster
from easz.mask import SamplerParams, generate_row_mask
from easz.pipeline import PipelineConfig, compress_bytes, decompress_bytes
from easz.squeeze import squeeze, unsqueeze

rng = np.random.default_rng(0)

# A 256x256 grayscale test card: smooth ramp plus a few bright squares.
yy, xx = np.mgrid[0:256, 0:256]
pixels = (0.3 * xx + 0.2 * yy) % 256
pixels[64:96, 64:96] = 250
pixels[160:208, 100:148] = 20
img = make_image(pixels.astype(np.uint8)[..., None])

# n=32, b=4: the raster is 8x8 patches of 32x32, each an 8x8 grid of 4x4
# sub-patches; squeeze addresses them in place, with no patch array.
print("patches:", (img.height // 32, img.width // 32), "-> 8x8 sub-patch grid per patch")

# Erase two sub-patch columns per grid row and squeeze.
mask = generate_row_mask(SamplerParams(8, 8, 2, 1, 1, seed=11))
sq = squeeze(img, mask, n=32, b=4)
print(f"squeezed raster: {img.pixels.shape[:2]} -> {sq.pixels.shape[:2]}"
      f" ({sq.pixels.size / img.pixels.size:.0%} of the pixels)")

# The container adds a small header; with the store codec the payload is
# the squeezed raster verbatim.
frame = encode_container(sq, mask)
print(f"container: {len(frame)} bytes, "
      f"bpp={bpp(len(frame), 256, 256):.3f} vs 8.0 for the raw image")

# Decode and scatter the kept sub-patches back into place in the raster.
# Without a model the erased cells stay zero, but every kept pixel is
# byte-identical.
sq2, mask2, _ = decode_container(frame)
restored = unsqueeze(sq2, mask2)
kept = np.kron(mask.bits, np.ones((4, 4), dtype=np.uint8)).astype(bool)
kept = np.tile(kept, (8, 8))
print("kept pixels identical:",
      bool((restored.pixels[kept] == img.pixels[kept]).all()))

# T=0 turns the full pipeline into an identity.
raster = store_raster(img)
out = decompress_bytes(compress_bytes(raster, PipelineConfig(erased_per_row=0)))
print("T=0 round trip bit-exact:", out == raster)

# Container size falls strictly as T rises -- the rate knob.
for t in (0, 1, 2, 3):
    cfg = PipelineConfig(erased_per_row=t, seed=11)
    print(f"  T={t}: {len(compress_bytes(raster, cfg))} bytes")
