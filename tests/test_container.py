import os
import struct
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import easz
from easz.container import (CODEC_EXTERNAL, CODEC_STORE, MASK_EXPLICIT,
                            MASK_SEED, MAX_PIXELS, ExternalCodec, bpp,
                            decode_container, encode_container)
from easz.errors import EaszError, FormatError, ParameterError
from easz.image import Image, load_raster, make_image, padded_size, store_raster
from easz.mask import SamplerParams, generate_row_mask
from easz.pipeline import PipelineConfig, compress_bytes, decompress_bytes
from easz.squeeze import SqueezedImage, squeeze, unsqueeze


def build(h=64, w=64, c=3, n=32, b=4, t=2, seed=9):
    rng = np.random.default_rng(seed)
    img = make_image(rng.integers(0, 256, (h, w, c), dtype=np.uint8))
    gs = n // b
    mask = generate_row_mask(SamplerParams(gs, gs, t, 1, 1, seed=seed))
    return img, mask, squeeze(img, mask, n, b)


def test_roundtrip_explicit_store():
    img, mask, sq = build()
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
    _, mask, sq = build()
    f_seed = encode_container(sq, mask, mask_mode=MASK_SEED)
    f_expl = encode_container(sq, mask, mask_mode=MASK_EXPLICIT)
    sq_s, mask_s, _ = decode_container(f_seed)
    sq_e, mask_e, _ = decode_container(f_expl)
    assert mask_s == mask_e == mask
    assert np.array_equal(sq_s.pixels, sq_e.pixels)


@pytest.mark.parametrize("wrap", [bytes, bytearray])
def test_store_payload_is_a_view_of_the_frame(wrap):
    img, mask, sq = build(h=40, w=72, c=3, t=3)
    frame = wrap(encode_container(sq, mask))
    sq2, _, _ = decode_container(frame)
    assert np.shares_memory(sq2.pixels, np.frombuffer(frame, np.uint8))
    assert not sq2.pixels.flags.writeable
    assert np.array_equal(sq2.pixels, sq.pixels)
    # decoding the view gives the raster a private copy of the payload gives
    copied = replace(sq2, pixels=sq2.pixels.copy())
    restored = unsqueeze(copied, mask).pixels[:40, :72]
    assert decompress_bytes(frame) == store_raster(Image(restored))


def test_compress_peak_memory_near_container_size():
    # one default compress holds the squeezed raster and the joined
    # container: the raster is a view, and no patch array is built
    rng = np.random.default_rng(3)
    raster = store_raster(make_image(rng.integers(0, 256, (256, 256, 3), dtype=np.uint8)))
    cfg = PipelineConfig(seed=4)
    frame = compress_bytes(raster, cfg)
    tracemalloc.start()
    try:
        again = compress_bytes(raster, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == frame
    assert peak <= 2.1 * len(frame), f"peak {peak} B for a {len(frame)} B container"


def test_decompress_peak_memory_near_raster_size():
    # one model-free default decode holds the unsqueezed raster and the
    # joined output: the payload is a view, and no patch array is built
    rng = np.random.default_rng(5)
    raster = store_raster(make_image(rng.integers(0, 256, (512, 512, 3), dtype=np.uint8)))
    frame = compress_bytes(raster, PipelineConfig(seed=6))
    out = decompress_bytes(frame)
    tracemalloc.start()
    try:
        again = decompress_bytes(frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == out and len(out) == len(raster)
    assert peak <= 2.1 * len(out), f"peak {peak} B for a {len(out)} B raster"


def test_seed_mode_needs_provenance():
    _, mask, sq = build()
    bare = type(mask)(mask.bits, None)
    with pytest.raises(ParameterError):
        encode_container(sq, bare, mask_mode=MASK_SEED)


def test_payload_len_store_256():
    # 256x256 RGB, n=32, b=4, T=2: squeezed to 256x192, 147456 payload bytes
    _, mask, sq = build(h=256, w=256)
    frame = encode_container(sq, mask)
    assert sq.pixels.nbytes == 147456
    sq2, _, _ = decode_container(frame)
    assert sq2.pixels.nbytes == 147456


def test_mask_bytes_length():
    # n=32, b=4 -> 8x8 sub-grid, 64 bits, 8 explicit mask bytes
    _, mask, sq = build()
    f_expl = encode_container(sq, mask, mask_mode=MASK_EXPLICIT)
    f_seed = encode_container(sq, mask, mask_mode=MASK_SEED)
    assert len(f_expl) - len(f_seed) == 8


def test_bad_magic():
    _, mask, sq = build()
    frame = bytearray(encode_container(sq, mask))
    frame[0] = 0x58
    with pytest.raises(FormatError, match="magic"):
        decode_container(bytes(frame))


def test_bad_version():
    _, mask, sq = build()
    frame = bytearray(encode_container(sq, mask))
    frame[4] = 99
    with pytest.raises(FormatError, match="version"):
        decode_container(bytes(frame))


def test_bad_image_geometry():
    _, mask, sq = build()
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
    _, mask, sq = build()
    frame = encode_container(sq, mask)
    with pytest.raises(FormatError, match="length mismatch"):
        decode_container(frame[:-5])


def run_capped(child: str) -> str:
    """Run child in a Python process capped at 1 GiB of address space (its
    own limit, set after the child's setup code) and return its stdout."""
    src = str(Path(easz.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(child)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert not proc.stderr, proc.stderr
    return proc.stdout


def test_seed_mode_sizes_checked_before_mask():
    # A 40-byte seed-mode container that claims n=65535, b=1: regenerating
    # its mask would allocate 4 GiB.  The sizes must be rejected first.
    out = run_capped("""
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
    assert out.strip() == "FormatError"


def test_padded_pixel_count_checked_before_payload():
    # A 16,654,632-byte store container for a 65280 x 65280 image (b=255,
    # grid side 256, T=255, one kept column per row) and its seed-mode twin.
    # Unsqueezing either would allocate 3.97 GiB, and the twin's mask takes
    # minutes to regenerate; both must be rejected from the header, before
    # even the 16.6 MB payload slice is made.
    out = run_capped("""
        import resource, struct, tracemalloc
        from easz.container import (CODEC_STORE, MAGIC, MASK_EXPLICIT, MASK_SEED,
                                    VERSION, _HEADER)
        from easz.pipeline import PipelineConfig, compress_bytes, decompress_bytes
        side, n, b, t = 65280, 65280, 255, 255
        payload = bytes(n * (n // b - t) * b)
        frames = [_HEADER.pack(MAGIC, VERSION, side, side, 1, n, b, t, mode, 0, 0, 0,
                               CODEC_STORE) + mask + struct.pack(">Q", len(payload)) + payload
                  for mode, mask in ((MASK_EXPLICIT, (b"\\x80" + bytes(31)) * 256),
                                     (MASK_SEED, b""))]
        assert len(frames[0]) == 16_654_632
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        for frame in frames:
            tracemalloc.start()
            try:
                decompress_bytes(frame)
            except Exception as exc:
                print(type(exc).__name__, tracemalloc.get_traced_memory()[1] < len(payload))
            tracemalloc.stop()
    """)
    assert out.splitlines() == ["FormatError True"] * 2


def test_largest_admitted_image_decodes():
    # MAX_PIXELS is the padded size: a 1-row image padded to n rows counts n.
    n = 32
    side = MAX_PIXELS // n
    img, mask, sq = build(h=1, w=side, c=1, n=n, b=4, t=2)
    assert np.prod(padded_size(1, side, n)) == MAX_PIXELS
    frame = encode_container(sq, mask)
    sq2, _, _ = decode_container(frame)
    assert np.array_equal(sq2.pixels, sq.pixels)
    # One more column pads to 32 more: encode refuses to write it, and decode
    # refuses a header that claims it.
    with pytest.raises(ParameterError, match="exceeds"):
        encode_container(replace(sq, orig_width=side + 1), mask)
    frame = frame[:9] + struct.pack(">I", side + 1) + frame[13:]  # orig_w field
    with pytest.raises(FormatError, match="exceeds"):
        decode_container(frame)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_geometry_roundtrip(data):
    # squeeze -> container -> model-free decode, at any image
    # size and any geometry and mask parameters the sampler accepts.
    h, w = data.draw(st.integers(1, 80)), data.draw(st.integers(1, 80))
    n = data.draw(st.sampled_from([8, 16, 32]))
    b = data.draw(st.sampled_from([d for d in (1, 2, 4, 8, 16, 32) if n % d == 0]))
    gs = n // b
    t = data.draw(st.integers(1, gs))
    delta = data.draw(st.integers(0, gs // t - 1))
    big_delta = data.draw(st.integers(0, gs - 1))
    mode = data.draw(st.sampled_from([MASK_EXPLICIT, MASK_SEED]))
    c = data.draw(st.sampled_from([1, 3]))
    seed = data.draw(st.integers(0, 2**64 - 1))
    rng = np.random.default_rng(seed)
    img = make_image(rng.integers(0, 256, (h, w, c), dtype=np.uint8))
    mask = generate_row_mask(SamplerParams(gs, gs, t, delta, big_delta, seed=seed))
    sq = squeeze(img, mask, n, b)
    frame = encode_container(sq, mask, mask_mode=mode)
    sq2, mask2, _ = decode_container(frame)
    assert mask2 == mask
    assert np.array_equal(sq2.pixels, sq.pixels)
    for f in fields(SqueezedImage)[1:]:
        assert getattr(sq2, f.name) == getattr(sq, f.name), f.name
    out = load_raster(decompress_bytes(frame)).pixels
    kept_map = np.kron(mask.bits, np.ones((b, b), dtype=np.uint8))
    kept = np.tile(kept_map, (sq.patch_rows, sq.patch_cols))[:h, :w].astype(bool)
    assert np.array_equal(out[kept], img.pixels[kept])
    assert not out[~kept].any()


def test_trailing_garbage():
    _, mask, sq = build()
    with pytest.raises(FormatError):
        decode_container(encode_container(sq, mask) + b"\x00")


def test_size_monotone_in_t():
    sizes = []
    for t in (0, 1, 2, 3):
        if t == 0:
            from easz.mask import all_kept_mask
            mask = all_kept_mask(8, 8)
            img, _, _ = build(t=1)
            sq = squeeze(img, mask, 32, 4)
        else:
            _, mask, sq = build(t=t)
        sizes.append(len(encode_container(sq, mask)))
    assert sizes == sorted(sizes, reverse=True)
    assert len(set(sizes)) == len(sizes)


def test_external_codec_identity():
    _, mask, sq = build(c=1)
    codec = ExternalCodec(encode_cmd="cat", decode_cmd="cat")
    frame = encode_container(sq, mask, codec=codec)
    sq2, mask2, codec_id = decode_container(frame, codec=codec)
    assert codec_id == CODEC_EXTERNAL
    assert mask2 == mask
    assert np.array_equal(sq2.pixels, sq.pixels)


def test_external_codec_missing_on_decode():
    _, mask, sq = build(c=1)
    codec = ExternalCodec(encode_cmd="cat", decode_cmd="cat")
    frame = encode_container(sq, mask, codec=codec)
    with pytest.raises(ParameterError, match="external codec"):
        decode_container(frame)
    with pytest.raises(ParameterError, match="external codec"):
        decode_container(frame, ExternalCodec(encode_cmd="cat", decode_cmd=""))


def test_external_codec_failure_surfaces_stderr():
    _, mask, sq = build(c=1)
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
