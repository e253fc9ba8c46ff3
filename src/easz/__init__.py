"""Erase-and-squeeze image coding with receiver-side transformer reconstruction."""

from .container import ExternalCodec, bpp, decode_container, encode_container
from .image import Image, load_raster, make_image, store_raster
from .mask import (EraseMask, SamplerParams, all_kept_mask,
                   generate_random_mask, generate_row_mask, pack_mask,
                   unpack_mask, validate_params)
from .metrics import QualityReport, attn_cost, mse, psnr, saving_ratio, ssim
from .pipeline import PipelineConfig, StageTimings, compress_bytes, decompress_bytes
from .squeeze import SqueezedImage, squeeze, unsqueeze

__all__ = [
    "ExternalCodec", "bpp", "decode_container", "encode_container",
    "Image", "load_raster", "make_image", "store_raster",
    "EraseMask", "SamplerParams", "all_kept_mask", "generate_random_mask",
    "generate_row_mask", "pack_mask", "unpack_mask", "validate_params",
    "QualityReport", "attn_cost", "mse", "psnr", "saving_ratio", "ssim",
    "PipelineConfig", "StageTimings", "compress_bytes", "decompress_bytes",
    "SqueezedImage", "squeeze", "unsqueeze",
]

__version__ = "0.1.0"
