import time

import numpy as np
import pytest

from easz.errors import ParameterError, ParseError
from easz.image import (Image, check_geometry, load_raster, make_image, padded_pixels,
                        padded_size, store_raster)


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


def test_padded_pixels_pads_to_multiple():
    rng = np.random.default_rng(2)
    img = random_image(rng, 250, 250, 1)
    assert padded_size(250, 250, 32) == (256, 256)
    assert padded_pixels(img, 32).shape == (256, 256, 1)
    assert padded_size(250, 250, 1) == (250, 250)


def test_check_geometry():
    check_geometry(32, 4)
    check_geometry(4, 4)
    for n, b in ((32, 5), (4, 8), (32, 0)):
        with pytest.raises(ParameterError):
            check_geometry(n, b)


def test_roundtrip_exact():
    # whole patches already: no pad, no copy
    rng = np.random.default_rng(4)
    img = random_image(rng, 64, 64, 3)
    assert padded_pixels(img, 16) is img.pixels


def test_roundtrip_padded_region():
    rng = np.random.default_rng(5)
    img = random_image(rng, 250, 250, 1)
    out = padded_pixels(img, 32)[:250, :250]
    assert out.shape == (250, 250, 1)
    assert (out == img.pixels).all()


def test_edge_replication_padding():
    img = make_image(np.arange(9, dtype=np.uint8).reshape(3, 3))
    # padded pixels copy the edge, not zero
    full = padded_pixels(img, 4)[:, :, 0]
    assert full.tolist() == [[0, 1, 2, 2], [3, 4, 5, 5], [6, 7, 8, 8], [6, 7, 8, 8]]


def test_store_raster_of_a_view():
    # a cropped, reversed or Fortran-order view serializes its own pixels
    rng = np.random.default_rng(6)
    base = rng.integers(0, 256, (9, 11, 3), dtype=np.uint8)
    for pixels in (base[:5, 2:9], base[::-1], np.asfortranarray(base)):
        data = store_raster(Image(pixels))
        assert data == b"P6\n%d %d\n255\n" % pixels.shape[1::-1] + pixels.tobytes()
        assert np.array_equal(load_raster(data).pixels, pixels)
