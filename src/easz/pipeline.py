"""End-to-end compress / decompress paths shared by the CLI and transport.

compress: raster -> patchify -> mask -> squeeze -> container bytes.
decompress: container bytes -> mask -> unsqueeze -> (optional) per-patch
reconstruction -> raster.  Stage wall times are collected along the way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .container import (MASK_EXPLICIT, ExternalCodec, decode_container,
                        encode_container)
from .image import load_raster, patchify, store_raster, unpatchify
from .mask import EraseMask, SamplerParams, all_kept_mask, generate_row_mask
from .squeeze import squeeze, unsqueeze_grid

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
    n: int = 32
    b: int = 4
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
    grid = patchify(img, cfg.n, cfg.b)
    mask = cfg.make_mask()
    sq = squeeze(grid, mask)
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
    grid = unsqueeze_grid(sq, mask)
    if model is not None and sq.erased_per_row > 0:
        from .model import reconstruct_grid

        params, mcfg = model
        grid = reconstruct_grid(grid, mask, params, mcfg)
    img = unpatchify(grid)
    clock.lap("reconstruct")
    return store_raster(img)
