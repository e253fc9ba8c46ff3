"""
Row-based erase mask sampling
=============================

Walk through the constrained sampler that decides which sub-patches of a
patch get erased.  Every row of the sub-patch grid loses exactly T cells,
and the sampler keeps picks in the same row more than delta columns apart
and picks in consecutive rows more than Delta columns apart, so the erased
region rarely clumps and leaves local context for reconstruction.  A row
where rejection sampling deadlocks is completed by a farthest-point
fallback, which may break Delta (and, in tight settings, delta).
"""

import numpy as np

from easz.mask import SamplerParams, generate_row_mask, pack_mask

# An 8x8 sub-patch grid (a 32x32 patch with 4x4 sub-patches), erasing two
# cells per row.
params = SamplerParams(rows=8, cols=8, samples_per_row=2,
                       intra_row_delta=1, inter_row_delta=1, seed=42)
mask = generate_row_mask(params)

print("mask bits (1 = kept, 0 = erased):")
for row in mask.bits:
    print("  " + " ".join("." if v else "X" for v in row))

# The constraints are easy to eyeball: no two X in a row touch, and no X
# sits directly under (or next to) an X from the row above.
for r in range(1, params.rows):
    cur = np.flatnonzero(mask.bits[r] == 0)
    prev = np.flatnonzero(mask.bits[r - 1] == 0)
    gaps = [abs(int(a) - int(b)) for a in cur for b in prev]
    print(f"row {r}: erased at {cur.tolist()}, "
          f"min distance to previous row's picks = {min(gaps)}")

# Determinism: the same seed always gives the same mask, which is what
# lets the container ship just the seed instead of the bits.
again = generate_row_mask(params)
print("\nsame seed reproduces the mask:", mask == again)

# And the bits themselves are tiny when shipped explicitly: a 32x32 grid
# packs to 128 bytes.
big = generate_row_mask(SamplerParams(32, 32, 4, 1, 1, seed=7))
print("32x32 mask packed size:", len(pack_mask(big)), "bytes")

# The T=1, delta=cols-1 corner produces the diagonal-style mask: one
# erased cell per row, never adjacent across rows.
diag = generate_row_mask(SamplerParams(8, 8, 1, 7, 1, seed=3))
print("\ndiagonal-limit mask:")
for row in diag.bits:
    print("  " + " ".join("." if v else "X" for v in row))
