import time

import numpy as np
import pytest

from easz.errors import GeometryError, ParameterError, ParseError
from easz.image import (Image, load_raster, make_image, patchify, store_raster,
                        unpatchify)


def random_image(rng, h, w, c):
    return make_image(rng.integers(0, 256, (h, w, c), dtype=np.uint8))


def test_load_p5_basic():
    img = load_raster(b"P5\n2 2\n255\n" + bytes([1, 2, 3, 4]))
    assert img.channels == 1
    assert img.pixels[:, :, 0].tolist() == [[1, 2], [3, 4]]
    assert (img.height, img.width) == (2, 2)


def test_store_single_pixel():
    img = make_image(np.zeros((1, 1), dtype=np.uint8))
    assert store_raster(img) == b"P5\n1 1\n255\n\x00"


def test_p6_payload_length():
    img = make_image(np.arange(6, dtype=np.uint8).reshape(2, 1, 3))
    data = store_raster(img)
    assert data.startswith(b"P6\n1 2\n255\n")
    assert len(data) - len(b"P6\n1 2\n255\n") == 6


@pytest.mark.parametrize("c", [1, 3])
def test_roundtrip(c):
    rng = np.random.default_rng(0)
    img = random_image(rng, 17, 23, c)
    again = load_raster(store_raster(img))
    assert (again.pixels == img.pixels).all()
    # byte-level stability too
    assert store_raster(again) == store_raster(img)


def test_unsupported_magic():
    with pytest.raises(ParseError, match="P4"):
        load_raster(b"P4\n1 1\n255\n\x00")


def test_truncated_payload():
    with pytest.raises(ParseError, match="truncated"):
        load_raster(b"P5\n4 4\n255\n\x00\x01")


def test_bad_maxval():
    with pytest.raises(ParseError, match="maxval"):
        load_raster(b"P5\n1 1\n65535\n\x00\x00")


def test_header_comments_skipped():
    img = load_raster(b"P5\n# a comment\n1 1\n255\n\x07")
    assert img.pixels[0, 0, 0] == 7


def test_header_scan_is_linear_and_fast():
    # a 1 MB comment, CR-terminated comments and runs of whitespace
    data = (b"P6 #" + b"x" * (1 << 20) + b"\n#\r\t 2\v\f# w\n1 \n" + b" " * 4096
            + b"255\n" + bytes(range(6)))
    load_raster(data)
    start = time.perf_counter()
    img = load_raster(data)
    assert time.perf_counter() - start < 0.05
    assert (img.width, img.height, img.channels) == (2, 1, 3)
    assert img.pixels.reshape(-1).tolist() == list(range(6))


@pytest.mark.parametrize("data, match", [
    (b"P5", "expected token"),
    (b"P5 # only a comment", "expected token"),
    (b"P5\n2 2\n255", "truncated payload: want 4 bytes, have 0"),
    (b"P5\n2 2 255\n\x00", "truncated payload: want 4 bytes, have 1"),
    (b"P5\n2#c 2\n255\n\x00", "bad width"),
    (b"P5\n2 x\n255\n\x00", "bad height"),
    (b"P5\n0 2\n255\n", "bad dimensions"),
])
def test_header_errors(data, match):
    with pytest.raises(ParseError, match=match):
        load_raster(data)


@pytest.mark.parametrize("wrap", [bytes, bytearray])
def test_load_raster_is_a_read_only_view(wrap):
    data = wrap(b"P6\n2 2\n255\n" + bytes(range(12)))
    img = load_raster(data)
    assert not img.pixels.flags.writeable
    assert np.shares_memory(img.pixels, np.frombuffer(data, np.uint8))
    assert img.pixels.reshape(-1).tolist() == list(range(12))
    with pytest.raises(ValueError):
        img.pixels[0, 0, 0] = 1


def test_patchify_counts():
    rng = np.random.default_rng(1)
    grid = patchify(random_image(rng, 256, 256, 3), 32, 4)
    assert grid.patch_rows * grid.patch_cols == 64
    assert grid.subgrid_side == 8
    assert grid.patches.shape == (64, 32, 32, 3)


def test_patchify_pads_to_multiple():
    rng = np.random.default_rng(2)
    grid = patchify(random_image(rng, 250, 250, 1), 32, 4)
    assert (grid.padded_height, grid.padded_width) == (256, 256)
    assert grid.patch_rows * grid.patch_cols == 64
    assert (grid.orig_height, grid.orig_width) == (250, 250)


def test_patchify_divisibility_error():
    rng = np.random.default_rng(3)
    with pytest.raises(ParameterError):
        patchify(random_image(rng, 64, 64, 1), 32, 5)


def test_roundtrip_exact():
    rng = np.random.default_rng(4)
    img = random_image(rng, 64, 64, 3)
    out = unpatchify(patchify(img, 16, 4))
    assert (out.pixels == img.pixels).all()


def test_roundtrip_padded_region():
    rng = np.random.default_rng(5)
    img = random_image(rng, 250, 250, 1)
    out = unpatchify(patchify(img, 32, 4))
    assert out.pixels.shape == (250, 250, 1)
    assert (out.pixels == img.pixels).all()


def test_unpatchify_missing_patch():
    rng = np.random.default_rng(6)
    grid = patchify(random_image(rng, 64, 64, 1), 32, 4)
    from dataclasses import replace

    broken = replace(grid, patches=grid.patches[:-1])
    with pytest.raises(GeometryError):
        unpatchify(broken)


def test_edge_replication_padding():
    img = make_image(np.full((3, 3), 9, dtype=np.uint8))
    grid = patchify(img, 4, 1)
    # padded pixels copy the edge, not zero
    full = grid.patches[0]
    assert (full == 9).all()
