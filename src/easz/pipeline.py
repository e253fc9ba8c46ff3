"""End-to-end compress / decompress paths shared by the CLI and transport.

compress: raster -> mask -> squeeze -> container bytes, where the raster is a
view of the input stream and squeeze gathers the kept sub-patch rows from it
straight into the squeezed raster, the container's payload.
decompress runs squeeze backwards: container bytes -> mask -> unsqueeze,
one scatter of the kept records into a zeroed padded raster -> (optional)
model reconstruction of that raster, a few patches per forward -> crop ->
raster stream.  The image stays one raster throughout, never an array of
patches.  Stages are timed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .container import (MASK_EXPLICIT, ExternalCodec, decode_container,
                        encode_container)
from .errors import ParameterError
from .image import DEFAULT_B, DEFAULT_N, Image, load_raster, store_raster
from .mask import EraseMask, SamplerParams, all_kept_mask, generate_row_mask
from .squeeze import squeeze, unsqueeze

HOST, PORT = "127.0.0.1", 9464  # of `easz serve`/`send`; the CLI reads it without transport
STAGES = ("load", "erase_squeeze", "codec_encode", "transmit",
          "codec_decode", "reconstruct")


@dataclass
class StageTimings:
    """Milliseconds per pipeline stage plus the measured end-to-end time."""

    stages: dict[str, float] = field(default_factory=dict)
    end_to_end: float = 0.0

    def record(self, stage: str, ms: float):
        self.stages[stage] = self.stages.get(stage, 0.0) + ms

    def merge(self, other: "StageTimings"):
        for k, v in other.stages.items():
            self.record(k, v)


class _Clock:
    def __init__(self, timings: StageTimings):
        self.timings = timings
        self._t = time.perf_counter()

    def lap(self, stage: str):
        now = time.perf_counter()
        self.timings.record(stage, (now - self._t) * 1000.0)
        self._t = now


@dataclass(frozen=True)
class PipelineConfig:
    n: int = DEFAULT_N
    b: int = DEFAULT_B
    erased_per_row: int = 2  # T; 0 disables erasing
    intra_row_delta: int = 1
    inter_row_delta: int = 1
    seed: int = 0
    mask_mode: int = MASK_EXPLICIT
    codec: ExternalCodec | None = None

    def make_mask(self) -> EraseMask:
        gs = self.n // self.b
        if self.erased_per_row == 0:
            return all_kept_mask(gs, gs)
        return generate_row_mask(SamplerParams(
            rows=gs, cols=gs, samples_per_row=self.erased_per_row,
            intra_row_delta=self.intra_row_delta,
            inter_row_delta=self.inter_row_delta, seed=self.seed,
        ))


def compress_bytes(raster: bytes, cfg: PipelineConfig,
                   timings: StageTimings | None = None) -> bytes:
    """Raster stream -> container bytes."""
    timings = timings if timings is not None else StageTimings()
    clock = _Clock(timings)
    img = load_raster(raster)
    clock.lap("load")
    mask = cfg.make_mask()
    sq = squeeze(img, mask, cfg.n, cfg.b)
    clock.lap("erase_squeeze")
    frame = encode_container(sq, mask, cfg.codec, cfg.mask_mode)
    clock.lap("codec_encode")
    return frame


def decompress_bytes(frame: bytes, model=None,
                     codec: ExternalCodec | None = None,
                     timings: StageTimings | None = None) -> bytes:
    """Container bytes -> raster stream.

    model, when given, is a (params, config) pair from the checkpoint
    module; without it erased regions stay 0.
    """
    timings = timings if timings is not None else StageTimings()
    clock = _Clock(timings)
    sq, mask, _codec_id = decode_container(frame, codec)
    clock.lap("codec_decode")
    pixels = unsqueeze(sq, mask).pixels
    if model is not None and sq.erased_per_row > 0:
        # lazy: the edge path never loads the model code, which takes ~20 ms to import
        from .model import decode_and_reconstruct

        params, mcfg = model
        want = (mcfg.subpatch_b, mcfg.grid_side, mcfg.channels)
        got = (sq.subpatch_size_b, sq.patch_size_n // sq.subpatch_size_b, sq.channels)
        if got != want:
            raise ParameterError(f"model wants (b, grid side, channels) = {want}, image has {got}")
        pixels = decode_and_reconstruct(pixels, mask, params, mcfg)
    img = Image(pixels[:sq.orig_height, :sq.orig_width])
    clock.lap("reconstruct")
    return store_raster(img)
