"""Image representation, PGM/PPM I/O, and the padding to whole patches.

Pixels live as uint8 arrays of shape (height, width, channels), and that
raster is the only image representation: the codec addresses n x n patches
and their b x b sub-patches through views of it, never as a separate patch
array.  Images that do not divide evenly into n x n patches are padded by
edge replication; the container keeps the pre-padding dimensions, so output
is always cropped back.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError, ParseError

DEFAULT_N, DEFAULT_B = 32, 4  # default (n, b) of PipelineConfig, the CLI and the model


@dataclass(frozen=True)
class Image:
    """A raster: pixels of shape (height, width, channels), dtype uint8,
    channel-interleaved."""

    pixels: np.ndarray

    def __post_init__(self):
        if self.pixels.ndim != 3 or self.pixels.dtype != np.uint8:
            raise DimensionError(
                f"pixels must be uint8 (H, W, C), got dtype {self.pixels.dtype}, "
                f"shape {self.pixels.shape}"
            )
        if self.pixels.shape[2] not in (1, 3):
            raise DimensionError(f"channels must be 1 or 3, got {self.pixels.shape[2]}")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]


def make_image(pixels: np.ndarray) -> Image:
    """Wrap a (H, W, C) or (H, W) uint8 array."""
    arr = np.asarray(pixels, dtype=np.uint8)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    return Image(arr)


# Whitespace and '#' comment lines, then one token: the six bytes that
# bytes.isspace() accepts separate tokens, and a comment runs to CR or LF.
_TOKEN = re.compile(rb"(?:[ \t\n\r\v\f]+|#[^\n\r]*)*([^ \t\n\r\v\f]*)")


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    match = _TOKEN.match(data, pos)
    if match.start(1) == match.end(1):
        raise ParseError("truncated header: expected token")
    return match.group(1), match.end(1)


def load_raster(data: bytes) -> Image:
    """Parse a binary PGM (P5) or PPM (P6) stream with maxval 255.

    The pixels are a read-only view of data's payload, not a copy: the Image
    keeps data alive, and a caller that wants to write must copy first.
    """
    magic, pos = _read_token(data, 0)
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise ParseError(f"unsupported magic {magic!r}; want P5 or P6")
    fields = []
    for name in ("width", "height", "maxval"):
        tok, pos = _read_token(data, pos)
        if not tok.isdigit():
            raise ParseError(f"bad {name}: {tok!r}")
        fields.append(int(tok))
    width, height, maxval = fields
    if maxval != 255:
        raise ParseError(f"maxval must be 255, got {maxval}")
    if width <= 0 or height <= 0:
        raise ParseError(f"bad dimensions {width}x{height}")
    pos += 1  # single whitespace byte after maxval
    need = width * height * channels
    have = max(0, len(data) - pos)
    if have < need:
        raise ParseError(f"truncated payload: want {need} bytes, have {have}")
    pixels = np.frombuffer(data, np.uint8, need, pos).reshape(height, width, channels)
    pixels.flags.writeable = False  # also over a bytearray
    return Image(pixels)


def store_raster(img: Image) -> bytes:
    """Serialize as P5 (1 channel) or P6 (3 channels)."""
    magic = b"P5" if img.channels == 1 else b"P6"
    header = b"%s\n%d %d\n255\n" % (magic, img.width, img.height)
    return b"".join((header, np.ascontiguousarray(img.pixels)))


def padded_size(height: int, width: int, n: int) -> tuple[int, int]:
    """(height, width) rounded up to multiples of the patch size n."""
    return -(-height // n) * n, -(-width // n) * n


def check_geometry(n: int, b: int) -> None:
    """Raise ParameterError unless n x n patches split into b x b sub-patches."""
    if b < 1 or n < b:
        raise ParameterError(f"need n >= b >= 1, got n={n}, b={b}")
    if n % b != 0:
        raise ParameterError(f"patch size {n} not divisible by sub-patch size {b}")


def padded_pixels(img: Image, n: int) -> np.ndarray:
    """img's pixels edge-replicated up to multiples of n: a padded copy, or
    img.pixels itself when both sides already are multiples."""
    h, w = img.height, img.width
    ph, pw = padded_size(h, w, n)
    if (ph, pw) == (h, w):
        return img.pixels
    return np.pad(img.pixels, ((0, ph - h), (0, pw - w), (0, 0)), mode="edge")
