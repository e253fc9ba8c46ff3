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
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import AdamW, Tensor
from .errors import DimensionError, FormatError, ParameterError, TrainingError
from .image import PatchGrid
from .mask import EraseMask, SamplerParams, generate_random_mask, generate_row_mask
from .prng import digest64

CHECKPOINT_MAGIC = b"EASZCKPT"
CHECKPOINT_VERSION = 1

_POS_MODES = ("multiplicative", "additive")


@dataclass(frozen=True)
class ModelConfig:
    subpatch_b: int
    channels: int
    d_model: int
    grid_side: int  # n / b
    heads: int = 4
    ffn_multiplier: int = 4
    pos_embed_mode: str = "multiplicative"
    encoder_blocks: int = 2
    decoder_blocks: int = 2

    def __post_init__(self):
        if self.heads < 1:
            raise ParameterError(f"heads must be >= 1, got {self.heads}")
        if self.d_model % self.heads != 0:
            raise ParameterError(
                f"d_model={self.d_model} not divisible by heads={self.heads}"
            )
        if self.pos_embed_mode not in _POS_MODES:
            raise ParameterError(f"pos_embed_mode must be one of {_POS_MODES}")
        if self.channels not in (1, 3):
            raise ParameterError(f"channels must be 1 or 3, got {self.channels}")

    @property
    def token_dim(self) -> int:
        return self.subpatch_b * self.subpatch_b * self.channels

    @property
    def num_positions(self) -> int:
        return self.grid_side * self.grid_side


# Default production configuration; tests use a d_model=32 variant.
def default_config(subpatch_b: int = 4, channels: int = 3, grid_side: int = 8) -> ModelConfig:
    return ModelConfig(subpatch_b=subpatch_b, channels=channels,
                       d_model=128, grid_side=grid_side)


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
    for i in range(cfg.encoder_blocks):
        shapes += _block_param_shapes(cfg, f"enc{i}")
    for i in range(cfg.decoder_blocks):
        shapes += _block_param_shapes(cfg, f"dec{i}")
    shapes += [
        ("proj_out.w", (cfg.d_model, cfg.token_dim)),
        ("proj_out.b", (cfg.token_dim,)),
    ]
    return shapes


def param_count(cfg: ModelConfig) -> int:
    return sum(int(np.prod(s)) for _, s in param_shapes(cfg))


def init_params(cfg: ModelConfig, seed: int = 0) -> dict[str, Tensor]:
    """Scaled-normal projections (std 0.02), ones/zeros for norm affines.

    Multiplicative positional tables start at 1 + N(0, 0.02) so the early
    combination is near-neutral; additive tables start at N(0, 0.02).
    """
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(cfg):
        leaf = name.rsplit(".", 1)[-1]
        if name.startswith("pos_"):
            vals = rng.normal(0.0, 0.02, shape)
            if cfg.pos_embed_mode == "multiplicative" and name == "pos_enc":
                vals += 1.0
            # decoder positions are always additive; see decode()
        elif leaf == "g":
            vals = np.ones(shape)
        elif leaf in ("b", "bq", "bv", "bo", "b1", "b2") and len(shape) == 1:
            vals = np.zeros(shape)
        else:
            vals = rng.normal(0.0, 0.02, shape)
        params[name] = Tensor(vals, requires_grad=True)
    return params


def _attention(x: Tensor, p: dict[str, Tensor], prefix: str, cfg: ModelConfig) -> Tensor:
    """Multi-head self-attention over the second-to-last axis."""
    d, h = cfg.d_model, cfg.heads
    dh = d // h
    lead = x.shape[:-2]
    m = x.shape[-2]
    q = ad.linear(x, p[f"{prefix}.wq"], p[f"{prefix}.bq"])
    k = ad.matmul(x, p[f"{prefix}.wk"])
    v = ad.linear(x, p[f"{prefix}.wv"], p[f"{prefix}.bv"])

    def split(t):  # (..., m, d) -> (..., h, m, dh)
        t = ad.reshape(t, lead + (m, h, dh))
        perm = tuple(range(len(lead))) + (len(lead) + 1, len(lead), len(lead) + 2)
        return ad.transpose(t, perm)

    q, k, v = split(q), split(k), split(v)
    kt = ad.transpose(k, tuple(range(k.data.ndim - 2)) + (k.data.ndim - 1, k.data.ndim - 2))
    scores = ad.scale(ad.matmul(q, kt), 1.0 / np.sqrt(dh))
    attn = ad.softmax_lastdim(scores)
    ctx = ad.matmul(attn, v)  # (..., h, m, dh)
    perm = tuple(range(len(lead))) + (len(lead) + 1, len(lead), len(lead) + 2)
    ctx = ad.transpose(ctx, perm)  # (..., m, h, dh)
    ctx = ad.reshape(ctx, lead + (m, d))
    return ad.linear(ctx, p[f"{prefix}.wo"], p[f"{prefix}.bo"])


def _block(x: Tensor, p: dict[str, Tensor], prefix: str, cfg: ModelConfig) -> Tensor:
    h = ad.layer_norm(x, p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"])
    x = ad.add(x, _attention(h, p, f"{prefix}.attn", cfg))
    h = ad.layer_norm(x, p[f"{prefix}.ln2.g"], p[f"{prefix}.ln2.b"])
    h = ad.linear(h, p[f"{prefix}.ffn.w1"], p[f"{prefix}.ffn.b1"])
    h = ad.gelu(h)
    h = ad.linear(h, p[f"{prefix}.ffn.w2"], p[f"{prefix}.ffn.b2"])
    x = ad.add(x, h)
    return ad.layer_norm(x, p[f"{prefix}.ln3.g"], p[f"{prefix}.ln3.b"])


def patch_to_tokens(patch: np.ndarray, b: int) -> np.ndarray:
    """(n, n, C) uint8 -> (grid**2, b*b*C) float in [0, 1], raster order."""
    n, _, c = patch.shape
    gs = n // b
    sub = patch.reshape(gs, b, gs, b, c).transpose(0, 2, 1, 3, 4)
    return sub.reshape(gs * gs, b * b * c).astype(np.float64) / 255.0


def tokens_to_patch(tokens: np.ndarray, b: int, channels: int) -> np.ndarray:
    """Inverse of patch_to_tokens; values clamped to [0, 1] then scaled."""
    gs = int(round(np.sqrt(tokens.shape[0])))
    sub = tokens.reshape(gs, gs, b, b, channels)
    patch = sub.transpose(0, 2, 1, 3, 4).reshape(gs * b, gs * b, channels)
    return np.clip(np.rint(patch * 255.0), 0, 255).astype(np.uint8)


def embed(tokens: Tensor, positions: np.ndarray, params: dict[str, Tensor],
          cfg: ModelConfig) -> Tensor:
    """Project flattened sub-patches to d_model and combine with positions."""
    positions = np.asarray(positions)
    if positions.size and (positions.min() < 0 or positions.max() >= cfg.num_positions):
        raise ParameterError(
            f"positions out of range [0, {cfg.num_positions})"
        )
    x = ad.linear(tokens, params["proj_in.w"], params["proj_in.b"])
    pe = ad.gather_rows(params["pos_enc"], positions)
    if cfg.pos_embed_mode == "multiplicative":
        return ad.mul(x, pe)
    return ad.add(x, pe)


def encode(embeddings: Tensor, params: dict[str, Tensor], cfg: ModelConfig) -> Tensor:
    x = embeddings
    for i in range(cfg.encoder_blocks):
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


def decode(tokens: Tensor, params: dict[str, Tensor], cfg: ModelConfig) -> Tensor:
    """Decoder over the full grid; output projection to pixel tokens.

    Decoder positional embedding is added (never multiplied) so erased
    positions, which arrive as exact zero vectors, stay distinguishable.
    """
    all_pos = np.arange(cfg.num_positions)
    x = ad.add(tokens, ad.gather_rows(params["pos_dec"], all_pos))
    for i in range(cfg.decoder_blocks):
        x = _block(x, params, f"dec{i}", cfg)
    return ad.linear(x, params["proj_out.w"], params["proj_out.b"])


def forward_tokens(tokens: Tensor, mask: EraseMask, params: dict[str, Tensor],
                   cfg: ModelConfig) -> Tensor:
    """Full model on token input: embed kept, encode, assemble, decode."""
    kept_idx = np.flatnonzero(mask.bits.reshape(-1))
    kept = ad.gather_rows(tokens, kept_idx)
    emb = embed(kept, kept_idx, params, cfg)
    feats = encode(emb, params, cfg)
    full = assemble(feats, mask)
    return decode(full, params, cfg)


def _no_grad(params: dict[str, Tensor]) -> dict[str, Tensor]:
    """Views of params that record no autodiff graph, for inference."""
    return {k: Tensor(v.data) for k, v in params.items()}


def decode_and_reconstruct(patch: np.ndarray, mask: EraseMask,
                           params: dict[str, Tensor], cfg: ModelConfig) -> np.ndarray:
    """Reconstruct one uint8 patch: model predictions at erased positions,
    original pixels everywhere the mask kept them.  Records no graph."""
    b = cfg.subpatch_b
    tokens = patch_to_tokens(patch, b)
    pred = forward_tokens(Tensor(tokens), mask, _no_grad(params), cfg).data
    recon = tokens_to_patch(pred, b, cfg.channels)
    keep = np.kron(mask.bits, np.ones((b, b), dtype=np.uint8)).astype(bool)
    recon[keep] = patch[keep]  # exact passthrough of kept pixels
    return recon


def reconstruct_grid(grid: PatchGrid, mask: EraseMask,
                     params: dict[str, Tensor], cfg: ModelConfig) -> PatchGrid:
    """Apply decode_and_reconstruct to every patch of a grid."""
    out = np.stack([decode_and_reconstruct(p, mask, params, cfg) for p in grid.patches])
    return replace(grid, patches=out)


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
    log: list = field(default_factory=list)


def sample_training_mask(cfg: ModelConfig, erase_ratio: float, seed: int,
                         style: str = "row") -> EraseMask:
    gs = cfg.grid_side
    t = max(1, int(round(erase_ratio * gs)))
    if style == "random":
        return generate_random_mask(gs, gs, t * gs, seed)
    delta = max(0, gs // t - 1 - 1)  # leave slack so rejection rarely stalls
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
    n = cfg.grid_side * cfg.subpatch_b
    if dataset.shape[1] != n or dataset.shape[2] != n or dataset.shape[3] != cfg.channels:
        raise DimensionError(
            f"dataset patches {dataset.shape[1:]}, config wants ({n}, {n}, {cfg.channels})"
        )
    rng = np.random.default_rng(settings.seed)
    if params is None:
        params = init_params(cfg, seed=settings.seed)
    opt = AdamW(lr=settings.learning_rate, weight_decay=settings.weight_decay)
    trace: list[float] = []
    tokens_all = np.stack(
        [patch_to_tokens(p, cfg.subpatch_b) for p in dataset]
    )
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
    """Mean L1 over a dataset under one fixed mask, no gradient."""
    tokens = np.stack([patch_to_tokens(p, cfg.subpatch_b) for p in dataset])
    pred = forward_tokens(Tensor(tokens), mask, _no_grad(params), cfg)
    return float(np.abs(pred.data - tokens).mean())


# --- checkpoint format -----------------------------------------------------
# magic(8) version(u8) | subpatch_b(u8) channels(u8) d_model(u16) heads(u8)
# ffn_multiplier(u8) grid_side(u16) pos_mode(u8) | param_count(u64) |
# float32-LE payload | digest64 of everything before it.  Big-endian header.

_CFG_STRUCT = struct.Struct(">BBHBBHB")


def save_checkpoint(params: dict[str, Tensor], cfg: ModelConfig) -> bytes:
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack(">B", CHECKPOINT_VERSION))
    buf.write(_CFG_STRUCT.pack(
        cfg.subpatch_b, cfg.channels, cfg.d_model, cfg.heads,
        cfg.ffn_multiplier, cfg.grid_side,
        _POS_MODES.index(cfg.pos_embed_mode),
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
    if pm >= len(_POS_MODES):
        raise FormatError(f"unknown positional mode id {pm}")
    cfg = ModelConfig(subpatch_b=b, channels=ch, d_model=d, grid_side=gs,
                      heads=heads, ffn_multiplier=ffn,
                      pos_embed_mode=_POS_MODES[pm])
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
        params[name] = Tensor(vals.reshape(shape).astype(np.float32),
                              requires_grad=True)
    return params, cfg
