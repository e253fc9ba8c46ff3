import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import easz
from easz.container import (CODEC_EXTERNAL, CODEC_STORE, MASK_EXPLICIT,
                            MASK_SEED, ExternalCodec, bpp, decode_container,
                            encode_container)
from easz.errors import EaszError, FormatError, ParameterError
from easz.image import make_image, patchify
from easz.mask import SamplerParams, generate_row_mask
from easz.squeeze import squeeze, unsqueeze


def build(h=64, w=64, c=3, n=32, b=4, t=2, seed=9):
    rng = np.random.default_rng(seed)
    img = make_image(rng.integers(0, 256, (h, w, c), dtype=np.uint8))
    grid = patchify(img, n, b)
    gs = n // b
    mask = generate_row_mask(SamplerParams(gs, gs, t, 1, 1, seed=seed))
    return img, grid, mask, squeeze(grid, mask)


def test_roundtrip_explicit_store():
    img, grid, mask, sq = build()
    frame = encode_container(sq, mask)
    sq2, mask2, codec_id = decode_container(frame)
    assert codec_id == CODEC_STORE
    assert mask2 == mask
    assert np.array_equal(sq2.pixels, sq.pixels)
    assert (sq2.orig_height, sq2.orig_width) == (64, 64)
    restored = unsqueeze(sq2, mask2)
    kept_px = np.kron(mask.bits, np.ones((4, 4), dtype=np.uint8)).astype(bool)
    # one patch per 32x32 tile, same mask everywhere
    for pr in range(2):
        for pc in range(2):
            tile = restored.pixels[pr * 32:(pr + 1) * 32, pc * 32:(pc + 1) * 32]
            src = img.pixels[pr * 32:(pr + 1) * 32, pc * 32:(pc + 1) * 32]
            assert np.array_equal(tile[kept_px], src[kept_px])


def test_seed_mode_matches_explicit():
    _, _, mask, sq = build()
    f_seed = encode_container(sq, mask, mask_mode=MASK_SEED)
    f_expl = encode_container(sq, mask, mask_mode=MASK_EXPLICIT)
    sq_s, mask_s, _ = decode_container(f_seed)
    sq_e, mask_e, _ = decode_container(f_expl)
    assert mask_s == mask_e == mask
    assert np.array_equal(sq_s.pixels, sq_e.pixels)


def test_seed_mode_needs_provenance():
    _, _, mask, sq = build()
    bare = type(mask)(mask.bits, None)
    with pytest.raises(ParameterError):
        encode_container(sq, bare, mask_mode=MASK_SEED)


def test_payload_len_store_256():
    # 256x256 RGB, n=32, b=4, T=2: squeezed to 256x192, 147456 payload bytes
    _, _, mask, sq = build(h=256, w=256)
    frame = encode_container(sq, mask)
    assert sq.pixels.nbytes == 147456
    sq2, _, _ = decode_container(frame)
    assert sq2.pixels.nbytes == 147456


def test_mask_bytes_length():
    # n=32, b=4 -> 8x8 sub-grid, 64 bits, 8 explicit mask bytes
    _, _, mask, sq = build()
    f_expl = encode_container(sq, mask, mask_mode=MASK_EXPLICIT)
    f_seed = encode_container(sq, mask, mask_mode=MASK_SEED)
    assert len(f_expl) - len(f_seed) == 8


def test_bad_magic():
    _, _, mask, sq = build()
    frame = bytearray(encode_container(sq, mask))
    frame[0] = 0x58
    with pytest.raises(FormatError, match="magic"):
        decode_container(bytes(frame))


def test_bad_version():
    _, _, mask, sq = build()
    frame = bytearray(encode_container(sq, mask))
    frame[4] = 99
    with pytest.raises(FormatError, match="version"):
        decode_container(bytes(frame))


def test_bad_image_geometry():
    _, _, mask, sq = build()
    frame = encode_container(sq, mask)
    # n = 0 makes the sub-grid 0x0, so no mask bytes follow the header
    header = frame[:14] + b"\x00\x00" + frame[16:32]
    with pytest.raises(FormatError, match="geometry"):
        decode_container(header + frame[32 + 8:])
    no_rows = frame[:5] + bytes(4) + frame[9:]  # orig_height = 0
    two_channels = frame[:13] + b"\x02" + frame[14:]
    for bad in (no_rows, two_channels):
        with pytest.raises(FormatError, match="image shape"):
            decode_container(bad)


def test_truncated_payload():
    _, _, mask, sq = build()
    frame = encode_container(sq, mask)
    with pytest.raises(FormatError, match="length mismatch"):
        decode_container(frame[:-5])


def test_seed_mode_sizes_checked_before_mask():
    # A 40-byte seed-mode container that claims n=65535, b=1: regenerating
    # its mask would allocate 4 GiB.  In a child capped at 1 GiB of address
    # space (its own limit), the sizes must be rejected first, at once.
    child = textwrap.dedent("""
        import resource, struct
        from easz.container import (CODEC_STORE, MAGIC, MASK_SEED, VERSION,
                                    _HEADER, decode_container)
        frame = _HEADER.pack(MAGIC, VERSION, 1, 1, 1, 65535, 1, 1, MASK_SEED,
                             0, 0, 0, CODEC_STORE) + struct.pack(">Q", 0)
        assert len(frame) == 40
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        try:
            decode_container(frame)
        except Exception as exc:
            print(type(exc).__name__)
    """)
    src = str(Path(easz.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.stdout.strip() == "FormatError", proc.stderr


def test_trailing_garbage():
    _, _, mask, sq = build()
    with pytest.raises(FormatError):
        decode_container(encode_container(sq, mask) + b"\x00")


def test_size_monotone_in_t():
    sizes = []
    for t in (0, 1, 2, 3):
        if t == 0:
            from easz.mask import all_kept_mask
            mask = all_kept_mask(8, 8)
            _, grid, _, _ = build(t=1)
            sq = squeeze(grid, mask)
        else:
            _, _, mask, sq = build(t=t)
        sizes.append(len(encode_container(sq, mask)))
    assert sizes == sorted(sizes, reverse=True)
    assert len(set(sizes)) == len(sizes)


def test_external_codec_identity():
    _, _, mask, sq = build(c=1)
    codec = ExternalCodec(encode_cmd="cat", decode_cmd="cat")
    frame = encode_container(sq, mask, codec=codec)
    sq2, mask2, codec_id = decode_container(frame, codec=codec)
    assert codec_id == CODEC_EXTERNAL
    assert mask2 == mask
    assert np.array_equal(sq2.pixels, sq.pixels)


def test_external_codec_missing_on_decode():
    _, _, mask, sq = build(c=1)
    codec = ExternalCodec(encode_cmd="cat", decode_cmd="cat")
    frame = encode_container(sq, mask, codec=codec)
    with pytest.raises(ParameterError, match="external codec"):
        decode_container(frame)
    with pytest.raises(ParameterError, match="external codec"):
        decode_container(frame, ExternalCodec(encode_cmd="cat", decode_cmd=""))


def test_external_codec_failure_surfaces_stderr():
    _, _, mask, sq = build(c=1)
    codec = ExternalCodec(encode_cmd="sh -c 'echo boom >&2; exit 3'",
                          decode_cmd="cat")
    with pytest.raises(EaszError, match="boom"):
        encode_container(sq, mask, codec=codec)


def test_quality_substitution():
    codec = ExternalCodec(encode_cmd="sh -c 'cat; echo q{quality}'",
                          decode_cmd="cat", quality=7)
    assert codec.encode(b"x").strip() == b"xq7"


def test_bpp():
    assert bpp(8192, 256, 256) == pytest.approx(1.0)
    assert bpp(65536 * 3, 256, 256) == pytest.approx(24.0)
    with pytest.raises(ParameterError):
        bpp(10, 0, 256)
