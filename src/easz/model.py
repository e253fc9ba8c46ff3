"""Lightweight transformer masked autoencoder for sub-patch reconstruction.

The encoder sees only the kept sub-patches of a patch; zero vectors stand in
for erased positions between encoder and decoder, and the decoder fills in
pixel predictions for them.  Both encoder and decoder are two transformer
blocks; each block runs layer_norm -> attention -> residual, layer_norm ->
feedforward -> residual, and a block-final layer_norm (three norms total).

Token layout: a patch (n, n, C) becomes grid_side**2 tokens of b*b*C pixels
in raster (row-major sub-patch) order, scaled to [0, 1].
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import AdamW, Tensor
from .errors import DimensionError, FormatError, ParameterError, TrainingError
from .image import DEFAULT_B, DEFAULT_N
from .mask import EraseMask, SamplerParams, generate_random_mask, generate_row_mask
from .prng import digest64

CHECKPOINT_MAGIC = b"EASZCKPT"
CHECKPOINT_VERSION = 1
_BLOCKS = 2  # transformer blocks in each of encoder and decoder; fixes checkpoint layout


@dataclass(frozen=True)
class ModelConfig:
    subpatch_b: int
    channels: int
    d_model: int
    grid_side: int  # n / b
    heads: int = 4
    ffn_multiplier: int = 4

    def __post_init__(self):
        for name in ("subpatch_b", "d_model", "grid_side", "heads", "ffn_multiplier"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.heads != 0:
            raise ParameterError(
                f"d_model={self.d_model} not divisible by heads={self.heads}"
            )
        if self.channels not in (1, 3):
            raise ParameterError(f"channels must be 1 or 3, got {self.channels}")

    @property
    def token_dim(self) -> int:
        return self.subpatch_b * self.subpatch_b * self.channels

    @property
    def num_positions(self) -> int:
        return self.grid_side * self.grid_side


def default_config() -> ModelConfig:
    """The production model, for RGB at the default (n, b)."""
    return ModelConfig(subpatch_b=DEFAULT_B, channels=3, d_model=128,
                       grid_side=DEFAULT_N // DEFAULT_B)


def _block_param_shapes(cfg: ModelConfig, prefix: str):
    d, f = cfg.d_model, cfg.d_model * cfg.ffn_multiplier
    return [
        (f"{prefix}.ln1.g", (d,)), (f"{prefix}.ln1.b", (d,)),
        # no key bias: softmax scores are invariant to a shared key offset,
        # so the parameter would be dead weight with an identically-zero grad
        (f"{prefix}.attn.wq", (d, d)), (f"{prefix}.attn.bq", (d,)),
        (f"{prefix}.attn.wk", (d, d)),
        (f"{prefix}.attn.wv", (d, d)), (f"{prefix}.attn.bv", (d,)),
        (f"{prefix}.attn.wo", (d, d)), (f"{prefix}.attn.bo", (d,)),
        (f"{prefix}.ln2.g", (d,)), (f"{prefix}.ln2.b", (d,)),
        (f"{prefix}.ffn.w1", (d, f)), (f"{prefix}.ffn.b1", (f,)),
        (f"{prefix}.ffn.w2", (f, d)), (f"{prefix}.ffn.b2", (d,)),
        (f"{prefix}.ln3.g", (d,)), (f"{prefix}.ln3.b", (d,)),
    ]


def param_shapes(cfg: ModelConfig) -> list[tuple[str, tuple]]:
    """Canonical (name, shape) order; fixes checkpoint layout."""
    shapes = [
        ("proj_in.w", (cfg.token_dim, cfg.d_model)),
        ("proj_in.b", (cfg.d_model,)),
        ("pos_enc", (cfg.num_positions, cfg.d_model)),
        ("pos_dec", (cfg.num_positions, cfg.d_model)),
    ]
    for part in ("enc", "dec"):
        for i in range(_BLOCKS):
            shapes += _block_param_shapes(cfg, f"{part}{i}")
    shapes += [
        ("proj_out.w", (cfg.d_model, cfg.token_dim)),
        ("proj_out.b", (cfg.token_dim,)),
    ]
    return shapes


def param_count(cfg: ModelConfig) -> int:
    return sum(int(np.prod(s)) for _, s in param_shapes(cfg))


def init_params(cfg: ModelConfig, seed: int = 0) -> dict[str, Tensor]:
    """Scaled-normal projections (std 0.02), ones/zeros for norm affines.

    The multiplicative encoder table starts at 1 + N(0, 0.02) so the early
    combination is near-neutral; the additive decoder table at N(0, 0.02).
    Values are drawn in float64 and rounded once to float32, the precision
    the model trains, stores and reconstructs in.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(cfg):
        leaf = name.rsplit(".", 1)[-1]
        if name.startswith("pos_"):
            vals = rng.normal(0.0, 0.02, shape)
            if name == "pos_enc":
                vals += 1.0
        elif leaf == "g":
            vals = np.ones(shape)
        elif len(shape) == 1:
            vals = np.zeros(shape)
        else:
            vals = rng.normal(0.0, 0.02, shape)
        params[name] = Tensor(vals.astype(np.float32), requires_grad=True)
    return params


def _attention(q_in: Tensor, x: Tensor, p: dict[str, Tensor], prefix: str,
               cfg: ModelConfig) -> Tensor:
    """Multi-head attention of the rows of q_in over the rows of x, along the
    second-to-last axis; self-attention when q_in is x.  The projections
    stay (..., m, d_model) rows; ad.attention splits them into heads."""
    q = ad.linear(q_in, p[f"{prefix}.wq"], p[f"{prefix}.bq"])
    k = ad.matmul(x, p[f"{prefix}.wk"])
    v = ad.linear(x, p[f"{prefix}.wv"], p[f"{prefix}.bv"])
    return ad.linear(ad.attention(q, k, v, cfg.heads), p[f"{prefix}.wo"], p[f"{prefix}.bo"])


def _block(x: Tensor, p: dict[str, Tensor], prefix: str, cfg: ModelConfig,
           rows: np.ndarray | None = None) -> Tensor:
    """One transformer block; with rows given, only those positions come
    out: every position still gives keys and values, but the queries and
    everything after attention run on rows alone."""
    h = ad.layer_norm(x, p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"])
    # h goes by no other name, so that without a graph it is freed as soon
    # as the second norm rebinds h, not when the block returns
    if rows is None:
        x = ad.add(x, _attention(h, h, p, f"{prefix}.attn", cfg))
    else:
        x = ad.add(ad.gather_rows(x, rows),
                   _attention(ad.gather_rows(h, rows), h, p, f"{prefix}.attn", cfg))
    h = ad.layer_norm(x, p[f"{prefix}.ln2.g"], p[f"{prefix}.ln2.b"])
    h = ad.linear(h, p[f"{prefix}.ffn.w1"], p[f"{prefix}.ffn.b1"])
    h = ad.gelu(h)
    h = ad.linear(h, p[f"{prefix}.ffn.w2"], p[f"{prefix}.ffn.b2"])
    x = ad.add(x, h)
    return ad.layer_norm(x, p[f"{prefix}.ln3.g"], p[f"{prefix}.ln3.b"])


def patch_to_tokens(patch: np.ndarray, b: int) -> np.ndarray:
    """(..., n, n, C) uint8 -> (..., grid**2, b*b*C) float32 in [0, 1], raster
    order."""
    *lead, n, _, c = patch.shape
    gs = n // b
    sub = patch.reshape(*lead, gs, b, gs, b, c).swapaxes(-4, -3)
    return sub.reshape(*lead, gs * gs, b * b * c).astype(np.float32) / 255.0


def _to_uint8(values: np.ndarray) -> np.ndarray:
    """Model values in [0, 1] to pixels: scaled, rounded, clamped."""
    return np.clip(np.rint(values * 255.0), 0, 255).astype(np.uint8)


def tokens_to_patch(tokens: np.ndarray, b: int, channels: int) -> np.ndarray:
    """Inverse of patch_to_tokens; values clamped to [0, 1] then scaled."""
    lead = tokens.shape[:-2]
    gs = math.isqrt(tokens.shape[-2])
    sub = tokens.reshape(*lead, gs, gs, b, b, channels)
    return _to_uint8(sub.swapaxes(-4, -3).reshape(*lead, gs * b, gs * b, channels))


def embed(tokens: Tensor, positions: np.ndarray, params: dict[str, Tensor],
          cfg: ModelConfig) -> Tensor:
    """Project flattened sub-patches to d_model and scale by positions."""
    positions = np.asarray(positions)
    if positions.size and (positions.min() < 0 or positions.max() >= cfg.num_positions):
        raise ParameterError(
            f"positions out of range [0, {cfg.num_positions})"
        )
    x = ad.linear(tokens, params["proj_in.w"], params["proj_in.b"])
    return ad.mul(x, ad.gather_rows(params["pos_enc"], positions))


def encode(embeddings: Tensor, params: dict[str, Tensor], cfg: ModelConfig) -> Tensor:
    x = embeddings
    del embeddings  # so that x alone holds it, and it goes once the first block is done
    for i in range(_BLOCKS):
        x = _block(x, params, f"enc{i}", cfg)
    return x


def assemble(features: Tensor, mask: EraseMask) -> Tensor:
    """Scatter encoder features to kept positions; zeros at erased ones."""
    kept_idx = np.flatnonzero(mask.bits.reshape(-1))
    if features.shape[-2] != kept_idx.size:
        raise DimensionError(
            f"{features.shape[-2]} features for {kept_idx.size} kept positions"
        )
    return ad.scatter_rows(features, kept_idx, mask.bits.size)


def decode(tokens: Tensor, params: dict[str, Tensor], cfg: ModelConfig,
           rows: np.ndarray | None = None) -> Tensor:
    """Decoder over the full grid; output projection to pixel tokens at
    `rows` (every position when None).  Only the last block and the output
    projection skip the other positions; the earlier blocks feed the last
    one's keys and values everywhere.

    Decoder positional embedding is added (never multiplied) so erased
    positions, which arrive as exact zero vectors, stay distinguishable.
    """
    x = ad.add(tokens, params["pos_dec"])
    del tokens  # dead from here on; without a graph, nothing else holds it
    for i in range(_BLOCKS):
        x = _block(x, params, f"dec{i}", cfg, rows if i == _BLOCKS - 1 else None)
    return ad.linear(x, params["proj_out.w"], params["proj_out.b"])


def forward_tokens(tokens: Tensor, mask: EraseMask, params: dict[str, Tensor],
                   cfg: ModelConfig, rows: np.ndarray | None = None) -> Tensor:
    """Full model on token input: embed kept, encode, assemble, decode.

    The output holds the positions listed in rows (ascending indices into
    the grid), or every position when rows is None, as in training.  With
    every position erased the encoder runs on no rows, and the decoder sees
    the all-zero grid plus pos_dec.
    """
    kept_idx = np.flatnonzero(mask.bits.reshape(-1))
    # each stage's output goes straight into the next call, so that without a
    # graph no name here keeps it alive while later stages run
    return decode(assemble(encode(embed(ad.gather_rows(tokens, kept_idx), kept_idx, params, cfg),
                                  params, cfg), mask), params, cfg, rows)


# Patches per forward_tokens call at inference.  perfbench server_decode (two
# connections, 128x128 RGB, default_config in float32, 2-vCPU host, OpenBLAS
# on one thread as the server runs it), alternating pairs of slices of 4 on
# per-patch GEMMs and an unblocked GELU against slices of 8 on folded GEMMs
# and a blocked GELU: seed 0, 4 pairs, 34.8-38.2 against 43.2-44.2 requests/s;
# seed 7919, 3 pairs, 35.9-36.7 against 40.6-45.4; server peak RSS
# 49.1-49.5 against 50.9-55.1 MB (median 51.1).  The traced peak of one
# in-process decode went 2.93 -> 3.26 MB; slices of 8 on the per-patch GEMMs
# peaked at 5.71 MB, and 16 on the folded ones at 5.83 MB for no measured
# gain.
_SLICE = 8


def inference_params(params: dict[str, Tensor]) -> dict[str, Tensor]:
    """Views of the parameters' arrays, as tensors that record no graph."""
    return {k: Tensor(v.data) for k, v in params.items()}


def decode_and_reconstruct(pixels: np.ndarray, mask: EraseMask,
                           params: dict[str, Tensor], cfg: ModelConfig) -> np.ndarray:
    """Reconstruct a uint8 raster (H, W, C) whose sides are multiples of
    n = b * grid_side, one patch being the 1 x 1 case: model predictions at
    the erased positions of every n x n patch, the input pixels everywhere
    the mask kept them.  Returns a new array.

    The model runs in float32 on _SLICE patches at a time, taken in raster
    order (a slice may span patch rows), and writes into the uint8 output,
    so no other buffer grows with the raster."""
    b, gs, c = cfg.subpatch_b, cfg.grid_side, cfg.channels
    n = gs * b
    pr, pc = pixels.shape[0] // n, pixels.shape[1] // n
    if pixels.shape != (pr * n, pc * n, c):
        raise DimensionError(f"raster {pixels.shape} is not whole {n}x{n}x{c} patches")
    out = pixels.copy()  # kept pixels pass through exactly
    erased = np.flatnonzero(mask.bits.reshape(-1) == 0)
    if erased.size == 0:
        return out
    patches = out.reshape(pr, n, pc, n, c).swapaxes(1, 2)  # patch (i, j) is patches[i, j]
    subs = out.reshape(pr, gs, b, pc, gs, b, c)  # its sub-patch (r, q) is subs[i, r, :, j, q]
    r, q = np.divmod(erased, gs)
    view = inference_params(params)
    for k in range(0, pr * pc, _SLICE):
        i, j = np.divmod(np.arange(k, min(k + _SLICE, pr * pc)), pc)
        tokens = Tensor(patch_to_tokens(patches[i, j], b))
        pred = forward_tokens(tokens, mask, view, cfg, erased).data
        subs[i[:, None], r, :, j[:, None], q] = _to_uint8(pred).reshape(
            len(i), erased.size, b, b, c)
    return out


def loss(x: Tensor, y: Tensor, lam: float = 0.3, perceptual=None) -> Tensor:
    """L1 plus lam * perceptual term; the perceptual hook defaults to zero."""
    l1 = ad.mean_abs_error(x, y)
    if perceptual is None or lam == 0.0:
        return l1
    return ad.add(l1, ad.scale(perceptual(x, y), lam))


@dataclass
class TrainSettings:
    learning_rate: float = 2.8e-4
    erase_ratio: float = 0.25
    batch_size: int = 64
    weight_decay: float = 0.05
    steps: int = 300
    seed: int = 0
    lam: float = 0.3
    perceptual: object = None
    mask_style: str = "row"  # "row" (sampler masks) or "random"


def sample_training_mask(cfg: ModelConfig, erase_ratio: float, seed: int,
                         style: str = "row") -> EraseMask:
    gs = cfg.grid_side
    t = max(1, int(round(erase_ratio * gs)))
    if style == "random":
        return generate_random_mask(gs, gs, t * gs, seed)
    delta = max(0, gs // t - 1 - 1)  # one below the tightest delta; rows still fall back
    return generate_row_mask(SamplerParams(
        rows=gs, cols=gs, samples_per_row=t,
        intra_row_delta=delta, inter_row_delta=min(1, gs - 1), seed=seed,
    ))


def train(dataset: np.ndarray, cfg: ModelConfig, settings: TrainSettings,
          params: dict[str, Tensor] | None = None):
    """Optimize the autoencoder on a stack of uint8 patches (N, n, n, C).

    Each step samples a batch, draws a fresh erase mask from the row
    sampler with a randomized seed, and takes one AdamW step on the L1 (+
    optional perceptual) loss over the full patch.  Returns (params, trace)
    where trace is the per-step loss list.  Deterministic per seed.
    """
    if dataset.ndim != 4:
        raise DimensionError(f"dataset must be (N, n, n, C), got {dataset.shape}")
    want = (cfg.grid_side * cfg.subpatch_b,) * 2 + (cfg.channels,)
    if dataset.shape[1:] != want:
        raise DimensionError(f"dataset patches {dataset.shape[1:]}, config wants {want}")
    if settings.batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {settings.batch_size}")
    rng = np.random.default_rng(settings.seed)
    if params is None:
        params = init_params(cfg, seed=settings.seed)
    opt = AdamW(lr=settings.learning_rate, weight_decay=settings.weight_decay)
    trace: list[float] = []
    tokens_all = patch_to_tokens(dataset, cfg.subpatch_b)
    for step in range(settings.steps):
        idx = rng.integers(0, dataset.shape[0], size=min(settings.batch_size, dataset.shape[0]))
        batch = Tensor(tokens_all[idx])
        mask_seed = int(rng.integers(0, 2**63 - 1))
        mask = sample_training_mask(cfg, settings.erase_ratio, mask_seed,
                                    settings.mask_style)
        pred = forward_tokens(batch, mask, params, cfg)
        step_loss = loss(pred, batch, settings.lam, settings.perceptual)
        value = float(step_loss.data)
        if not np.isfinite(value):
            raise TrainingError(f"non-finite loss {value} at step {step}")
        trace.append(value)
        for p in params.values():
            p.zero_grad()
        step_loss.backward()
        opt.step(params)
    return params, trace


def eval_loss(dataset: np.ndarray, cfg: ModelConfig, params: dict[str, Tensor],
              mask: EraseMask) -> float:
    """Mean L1 over a dataset under one fixed mask, no gradient: the
    training forward on slices of _SLICE patches, through inference_params."""
    tokens = patch_to_tokens(dataset, cfg.subpatch_b)
    view = inference_params(params)
    pred = np.concatenate([forward_tokens(Tensor(tokens[i:i + _SLICE]), mask, view, cfg).data
                           for i in range(0, len(tokens), _SLICE)])
    return float(np.abs(pred - tokens).mean())


# --- checkpoint format -----------------------------------------------------
# magic(8) version(u8) | subpatch_b(u8) channels(u8) d_model(u16) heads(u8)
# ffn_multiplier(u8) grid_side(u16) pos_mode(u8) | param_count(u64) |
# float32-LE payload | digest64 of everything before it.  Big-endian header.

_CFG_STRUCT = struct.Struct(">BBHBBHB")
_POS_MULTIPLICATIVE = 0  # pos_mode byte: the encoder table scales the tokens


def save_checkpoint(params: dict[str, Tensor], cfg: ModelConfig) -> bytes:
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack(">B", CHECKPOINT_VERSION))
    buf.write(_CFG_STRUCT.pack(
        cfg.subpatch_b, cfg.channels, cfg.d_model, cfg.heads,
        cfg.ffn_multiplier, cfg.grid_side, _POS_MULTIPLICATIVE,
    ))
    count = param_count(cfg)
    buf.write(struct.pack(">Q", count))
    for name, shape in param_shapes(cfg):
        arr = params[name].data
        if arr.shape != shape:
            raise FormatError(f"parameter {name} has shape {arr.shape}, want {shape}")
        buf.write(arr.astype("<f4").tobytes())
    body = buf.getvalue()
    return body + struct.pack(">Q", digest64(body))


def load_checkpoint(data: bytes) -> tuple[dict[str, Tensor], ModelConfig]:
    if len(data) < 8 + 1 + _CFG_STRUCT.size + 8 + 8:
        raise FormatError("checkpoint truncated")
    if data[:8] != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic {data[:8]!r}")
    version = data[8]
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    off = 9
    b, ch, d, heads, ffn, gs, pm = _CFG_STRUCT.unpack_from(data, off)
    off += _CFG_STRUCT.size
    if pm != _POS_MULTIPLICATIVE:
        raise FormatError(f"unknown positional mode id {pm}")
    cfg = ModelConfig(subpatch_b=b, channels=ch, d_model=d, grid_side=gs,
                      heads=heads, ffn_multiplier=ffn)
    (count,) = struct.unpack_from(">Q", data, off)
    off += 8
    if count != param_count(cfg):
        raise FormatError(
            f"header claims {count} parameters, config implies {param_count(cfg)}"
        )
    payload_end = off + 4 * count
    if len(data) != payload_end + 8:
        raise FormatError(
            f"checkpoint is {len(data)} bytes, want {payload_end + 8}"
        )
    (stored,) = struct.unpack_from(">Q", data, payload_end)
    if stored != digest64(data[:payload_end]):
        raise FormatError("checkpoint checksum mismatch")
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(cfg):
        size = int(np.prod(shape))
        vals = np.frombuffer(data, dtype="<f4", count=size, offset=off)
        off += 4 * size
        # a writable copy in native order, not a read-only view of the blob
        params[name] = Tensor(vals.reshape(shape).astype(np.float32), requires_grad=True)
    return params, cfg
