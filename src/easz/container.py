"""Self-describing wire container for squeezed images.

Layout (all multi-byte fields big-endian):

    magic "EASZ" | version u8 | orig_height u32 | orig_width u32 |
    channels u8 | n u16 | b u8 | T u8 | mask_mode u8 | seed u64 |
    delta u16 | Delta u16 | codec_id u8 | mask_bytes (variable) |
    payload_len u64 | payload

mask_mode 0 carries the mask bits explicitly (ceil((n/b)^2 / 8) bytes);
mask_mode 1 carries nothing and the receiver regenerates the mask from
(seed, T, delta, Delta) with the pinned sampler.  codec_id 0 is the raw
"store" codec; 1 is an external command codec exchanging PGM/PPM on stdio.
"""

from __future__ import annotations

import shlex
import struct
import subprocess
from dataclasses import dataclass

import numpy as np

from .errors import EaszError, FormatError, ParameterError
from .image import Image, load_raster, padded_size, store_raster
from .mask import (EraseMask, SamplerParams, generate_row_mask, pack_mask,
                   unpack_mask)
from .squeeze import SqueezedImage, squeezed_shape

MAGIC = b"EASZ"
VERSION = 1

CODEC_STORE = 0
CODEC_EXTERNAL = 1

MASK_EXPLICIT = 0
MASK_SEED = 1

_HEADER = struct.Struct(">4sBIIBHBBBQHHB")
MAX_PIXELS = 1 << 24  # largest padded image (4096 x 4096) a container may describe


def _patch_counts(height: int, width: int, n: int, error: type[EaszError]):
    """(rows, cols) of n x n patches; encode and decode refuse over MAX_PIXELS alike."""
    pad_h, pad_w = padded_size(height, width, n)
    if pad_h * pad_w > MAX_PIXELS:
        raise error(f"padded image {pad_h}x{pad_w} exceeds {MAX_PIXELS} pixels")
    return pad_h // n, pad_w // n


@dataclass(frozen=True)
class ExternalCodec:
    """Command templates for a stdin/stdout codec pair.

    encode_cmd turns a PGM/PPM stream into codec bytes; decode_cmd inverts
    it.  "{quality}" in either template is substituted before invocation.
    """

    encode_cmd: str
    decode_cmd: str
    quality: int = 85

    def _run(self, template: str, data: bytes) -> bytes:
        cmd = [part.format(quality=self.quality) for part in shlex.split(template)]
        if not cmd:
            raise ParameterError("external codec command template is empty")
        proc = subprocess.run(cmd, input=data, capture_output=True)
        if proc.returncode != 0:
            raise EaszError(
                f"external codec {cmd[0]!r} exited {proc.returncode}: "
                f"{proc.stderr.decode(errors='replace').strip()}"
            )
        return proc.stdout

    def encode(self, raster: bytes) -> bytes:
        return self._run(self.encode_cmd, raster)

    def decode(self, payload: bytes) -> bytes:
        return self._run(self.decode_cmd, payload)


def encode_container(
    sq: SqueezedImage,
    mask: EraseMask,
    codec: ExternalCodec | None = None,
    mask_mode: int = MASK_EXPLICIT,
) -> bytes:
    """Serialize a squeezed image plus its mask (or regeneration seed)."""
    _patch_counts(sq.orig_height, sq.orig_width, sq.patch_size_n, ParameterError)
    gs = sq.patch_size_n // sq.subpatch_size_b
    if (mask.rows, mask.cols) != (gs, gs):
        raise FormatError(f"mask {mask.rows}x{mask.cols} vs sub-grid {gs}x{gs}")
    seed = delta = big_delta = 0
    if mask_mode == MASK_SEED:
        p = mask.params
        if p is None:
            raise ParameterError("mask_mode=1 requires sampler provenance on the mask")
        seed, delta, big_delta = p.seed, p.intra_row_delta, p.inter_row_delta
        mask_bytes = b""
    elif mask_mode == MASK_EXPLICIT:
        mask_bytes = pack_mask(mask)
    else:
        raise ParameterError(f"unknown mask_mode {mask_mode}")
    if codec is None:
        payload = np.ascontiguousarray(sq.pixels).reshape(-1)  # joined without a bytes copy
        codec_id = CODEC_STORE
    else:
        payload = codec.encode(store_raster(Image(sq.pixels)))
        codec_id = CODEC_EXTERNAL
    header = _HEADER.pack(
        MAGIC, VERSION, sq.orig_height, sq.orig_width, sq.channels,
        sq.patch_size_n, sq.subpatch_size_b, sq.erased_per_row,
        mask_mode, seed, delta, big_delta, codec_id,
    )
    return b"".join((header, mask_bytes, struct.pack(">Q", len(payload)), payload))


def decode_container(
    data: bytes, codec: ExternalCodec | None = None
) -> tuple[SqueezedImage, EraseMask, int]:
    """Parse a container; returns (squeezed image, mask, codec_id).

    A store payload's pixels are a read-only view of data, not a copy; an
    external codec's are a read-only view of the raster it decoded.
    """
    if len(data) < _HEADER.size:
        raise FormatError("container truncated before header end")
    (magic, version, orig_h, orig_w, channels, n, b, t,
     mask_mode, seed, delta, big_delta, codec_id) = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported container version {version}")
    if orig_h == 0 or orig_w == 0 or channels not in (1, 3):
        raise FormatError(f"bad image shape {orig_h}x{orig_w}x{channels}")
    if n == 0 or b == 0 or n % b != 0:
        raise FormatError(f"inconsistent geometry n={n}, b={b}")
    patch_rows, patch_cols = _patch_counts(orig_h, orig_w, n, FormatError)
    gs = n // b
    if mask_mode == MASK_EXPLICIT:
        mask_len = (gs * gs + 7) // 8
    elif mask_mode == MASK_SEED:
        mask_len = 0
    else:
        raise FormatError(f"unknown mask_mode {mask_mode}")
    # Every size is checked against the stream before the mask is unpacked
    # or regenerated, so a short hostile container cannot make it allocate.
    off = _HEADER.size + mask_len
    if len(data) < off + 8:
        raise FormatError("container truncated before payload length")
    (payload_len,) = struct.unpack_from(">Q", data, off)
    off += 8
    if len(data) - off != payload_len:
        raise FormatError(f"payload length mismatch: header says {payload_len}, "
                          f"stream has {len(data) - off}")
    sq_h, sq_w = squeezed_shape(patch_rows, patch_cols, n, b, t)
    if codec_id == CODEC_STORE:
        want = sq_h * sq_w * channels
        if payload_len != want:
            raise FormatError(f"store payload is {payload_len} bytes, want {want}")
        pixels = np.frombuffer(data, np.uint8, want, off).reshape(sq_h, sq_w, channels)
        pixels.flags.writeable = False  # also over a bytearray
    elif codec_id == CODEC_EXTERNAL:
        if codec is None:
            raise ParameterError("container uses an external codec; none configured")
        raster = load_raster(codec.decode(data[off:]))
        if (raster.height, raster.width, raster.channels) != (sq_h, sq_w, channels):
            raise FormatError(f"external codec returned {raster.height}x{raster.width}x"
                              f"{raster.channels}, want {sq_h}x{sq_w}x{channels}")
        pixels = raster.pixels
    else:
        raise FormatError(f"unknown codec id {codec_id}")
    if mask_mode == MASK_EXPLICIT:
        mask = unpack_mask(data[_HEADER.size:_HEADER.size + mask_len], gs, gs)
    else:
        mask = generate_row_mask(SamplerParams(gs, gs, t, delta, big_delta, seed=seed))
    sq = SqueezedImage(pixels, n, b, t, patch_rows, patch_cols, orig_h, orig_w)
    return sq, mask, codec_id


def image_size(frame: bytes) -> tuple[int, int]:
    """(height, width) of the original image, read from a container's header."""
    if len(frame) < _HEADER.size:
        raise FormatError("container truncated before header end")
    return _HEADER.unpack_from(frame, 0)[2:4]


def bpp(container_bytes: int, orig_h: int, orig_w: int) -> float:
    """Bits per pixel of the original image."""
    if orig_h <= 0 or orig_w <= 0:
        raise ParameterError(f"dimensions must be positive, got {orig_h}x{orig_w}")
    return container_bytes * 8.0 / (orig_h * orig_w)
