import struct

import numpy as np
import pytest

from easz import autodiff as ad
from easz import model as easz_model
from easz.autodiff import Tensor
from easz.errors import DimensionError, EaszError, FormatError, ParameterError
from easz.container import decode_container
from easz.image import load_raster, make_image, store_raster
from easz.mask import (EraseMask, SamplerParams, all_kept_mask,
                       generate_row_mask)
from easz.model import (ModelConfig, TrainSettings, assemble, decode,
                        decode_and_reconstruct, embed, encode, eval_loss,
                        forward_tokens, init_params, load_checkpoint, loss,
                        param_count, patch_to_tokens, save_checkpoint,
                        tokens_to_patch, train)
from easz.pipeline import PipelineConfig, compress_bytes, decompress_bytes
from easz.prng import digest64
from easz.squeeze import unsqueeze
from gradcheck import grad_check, tsum

TINY = ModelConfig(subpatch_b=2, channels=1, d_model=16, grid_side=4, heads=2,
                   ffn_multiplier=2)


@pytest.fixture(scope="module")
def tiny_params():
    return init_params(TINY, seed=0)


def tiny_mask(seed=3, t=1):
    return generate_row_mask(SamplerParams(4, 4, t, 1, 1, seed=seed))


def rand_tokens(rng, m=16):
    return rng.random((m, TINY.token_dim))


def test_config_validation():
    with pytest.raises(ParameterError):
        ModelConfig(subpatch_b=2, channels=1, d_model=10, grid_side=4, heads=4)


@pytest.mark.parametrize("field", ["subpatch_b", "d_model", "grid_side", "heads",
                                   "ffn_multiplier"])
@pytest.mark.parametrize("value", [0, -4])
def test_config_rejects_sizes_below_one(field, value):
    # d_model 0 or -4 is divisible by any head count; it must still be refused
    args = dict(subpatch_b=2, channels=1, d_model=16, grid_side=4, heads=2,
                ffn_multiplier=2)
    args[field] = value
    with pytest.raises(ParameterError, match=field):
        ModelConfig(**args)


def test_patch_token_roundtrip():
    rng = np.random.default_rng(0)
    patch = rng.integers(0, 256, (8, 8, 1), dtype=np.uint8)
    tokens = patch_to_tokens(patch, 2)
    assert tokens.shape == (16, 4)
    assert (tokens_to_patch(tokens, 2, 1) == patch).all()
    stack = rng.integers(0, 256, (3, 8, 8, 1), dtype=np.uint8)
    tokens = patch_to_tokens(stack, 2)
    assert np.array_equal(tokens, np.stack([patch_to_tokens(p, 2) for p in stack]))
    assert np.array_equal(tokens_to_patch(tokens, 2, 1), stack)


def test_embed_multiplicative_ones_table_is_projection(tiny_params):
    params = init_params(TINY, seed=1)
    params["pos_enc"].data[:] = 1.0
    rng = np.random.default_rng(2)
    x = Tensor(rand_tokens(rng))
    out = embed(x, np.arange(16), params, TINY)
    pure = ad.linear(x, params["proj_in.w"], params["proj_in.b"])
    assert np.allclose(out.data, pure.data)


def test_embed_position_out_of_range(tiny_params):
    rng = np.random.default_rng(3)
    with pytest.raises(ParameterError):
        embed(Tensor(rand_tokens(rng, 1)), np.array([16]), tiny_params, TINY)


def test_embed_is_per_token(tiny_params):
    rng = np.random.default_rng(4)
    toks = rand_tokens(rng, 4)
    pos = np.array([0, 5, 9, 12])
    perm = np.array([2, 0, 3, 1])
    a = embed(Tensor(toks), pos, tiny_params, TINY).data
    b = embed(Tensor(toks[perm]), pos[perm], tiny_params, TINY).data
    assert np.allclose(a[perm], b)


def test_encode_output_shape(tiny_params):
    rng = np.random.default_rng(5)
    emb = embed(Tensor(rand_tokens(rng, 7)), np.arange(7), tiny_params, TINY)
    assert encode(emb, tiny_params, TINY).shape == (7, 16)


def test_encode_single_token(tiny_params):
    rng = np.random.default_rng(6)
    emb = embed(Tensor(rand_tokens(rng, 1)), np.array([2]), tiny_params, TINY)
    out = encode(emb, tiny_params, TINY)
    assert out.shape == (1, 16)
    assert np.isfinite(out.data).all()


def test_batched_equals_per_patch(tiny_params):
    # attention confined per patch: joint batch equals separate runs
    rng = np.random.default_rng(7)
    toks = rng.random((2, 16, TINY.token_dim))
    mask = tiny_mask()
    joint = forward_tokens(Tensor(toks), mask, tiny_params, TINY).data
    for i in range(2):
        solo = forward_tokens(Tensor(toks[i]), mask, tiny_params, TINY).data
        assert np.array_equal(joint[i], solo)


def test_assemble_zero_vectors(tiny_params):
    rng = np.random.default_rng(8)
    mask = tiny_mask()
    kept = int(mask.bits.sum())
    feats = Tensor(rng.normal(size=(kept, 16)))
    grid = assemble(feats, mask)
    flat = mask.bits.reshape(-1)
    assert grid.shape == (16, 16)
    assert np.allclose(grid.data[flat == 0], 0.0)
    assert np.allclose(grid.data[flat == 1], feats.data)


def test_assemble_all_kept_identity(tiny_params):
    rng = np.random.default_rng(9)
    feats = Tensor(rng.normal(size=(16, 16)))
    grid = assemble(feats, all_kept_mask(4, 4))
    assert np.array_equal(grid.data, feats.data)


def test_assemble_count_mismatch(tiny_params):
    rng = np.random.default_rng(10)
    with pytest.raises(DimensionError):
        assemble(Tensor(rng.normal(size=(3, 16))), tiny_mask())


def test_reconstruct_all_kept_is_identity(tiny_params, monkeypatch):
    def fail(*args):
        raise AssertionError("nothing is erased, yet the model ran")

    monkeypatch.setattr(easz_model, "forward_tokens", fail)
    rng = np.random.default_rng(11)
    for shape in ((8, 8, 1), (16, 24, 1)):
        pixels = rng.integers(0, 256, shape, dtype=np.uint8)
        out = decode_and_reconstruct(pixels, all_kept_mask(4, 4), tiny_params, TINY)
        assert np.array_equal(out, pixels) and out is not pixels


def test_erased_input_independence(tiny_params):
    rng = np.random.default_rng(12)
    patch = rng.integers(0, 256, (8, 8, 1), dtype=np.uint8)
    mask = tiny_mask(t=2)
    out1 = decode_and_reconstruct(patch, mask, tiny_params, TINY)
    scrambled = patch.copy()
    erased = np.kron(1 - mask.bits, np.ones((2, 2), dtype=np.uint8)).astype(bool)
    scrambled[erased] = rng.integers(0, 256, (int(erased.sum()), 1),
                                     dtype=np.uint8)
    out2 = decode_and_reconstruct(scrambled, mask, tiny_params, TINY)
    kept_px = ~erased
    assert (out1[kept_px] == out2[kept_px]).all()
    assert (out1[erased] == out2[erased]).all()


def test_reconstruct_in_range(tiny_params):
    rng = np.random.default_rng(13)
    patch = rng.integers(0, 256, (8, 8, 1), dtype=np.uint8)
    for t in (1, 2):  # any feasible erase count works with one model
        out = decode_and_reconstruct(patch, tiny_mask(seed=t, t=t), tiny_params, TINY)
        assert out.dtype == np.uint8 and out.shape == patch.shape


@pytest.mark.parametrize("mode", [0, 1])
def test_all_erased_container_decodes_with_model(tiny_params, mode):
    # T equal to the grid side with delta = Delta = 0 erases every sub-patch
    rng = np.random.default_rng(29)
    raster = store_raster(make_image(rng.integers(0, 256, (8, 16), dtype=np.uint8)))
    frame = compress_bytes(raster, PipelineConfig(n=8, b=2, erased_per_row=4, intra_row_delta=0,
                                                  inter_row_delta=0, mask_mode=mode))
    out = load_raster(decompress_bytes(frame, (tiny_params, TINY))).pixels
    # no pixel reaches the model: both patches are the decoder's output for pos_dec alone
    zeros = Tensor(np.zeros((TINY.num_positions, TINY.d_model)))
    want = tokens_to_patch(decode(zeros, tiny_params, TINY).data, 2, 1)
    assert np.array_equal(out[:, :8], want) and np.array_equal(out[:, 8:], want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("pruned", [False, True])
def test_all_erased_forward_is_decode_of_zero_grid(tiny_params, dtype, pruned):
    # with nothing kept the encoder runs on no rows and assembles the zero
    # grid, so the forward is the decoder's output for pos_dec alone
    mask = EraseMask(np.zeros((4, 4), dtype=np.uint8))
    rows = np.arange(16) if pruned else None
    params = {k: Tensor(v.data.astype(dtype)) for k, v in tiny_params.items()}
    tokens = np.random.default_rng(31).random((3, 16, TINY.token_dim)).astype(dtype)
    with np.errstate(all="raise"):
        out = forward_tokens(Tensor(tokens), mask, params, TINY, rows).data
    zeros = Tensor(np.zeros((3, 16, TINY.d_model), dtype=dtype))
    want = decode(zeros, params, TINY, rows).data
    assert out.dtype == dtype and np.array_equal(out, want)


def test_all_erased_training_step_leaves_the_encoder_without_gradient(tiny_params):
    mask = EraseMask(np.zeros((4, 4), dtype=np.uint8))
    params = {k: Tensor(v.data.copy(), requires_grad=True) for k, v in tiny_params.items()}
    tokens = Tensor(np.random.default_rng(32).random((2, 16, TINY.token_dim)))
    loss(forward_tokens(tokens, mask, params, TINY), tokens).backward()
    for name, p in params.items():
        grad = np.zeros_like(p.data) if p.grad is None else p.grad
        untouched = name.startswith(("proj_in.", "pos_enc", "enc"))
        assert np.isfinite(grad).all() and untouched == (not grad.any()), name


def test_inference_records_no_graph(tiny_params, monkeypatch):
    outputs = []

    def spy(*args):
        outputs.append(forward_tokens(*args))
        return outputs[-1]

    monkeypatch.setattr(easz_model, "forward_tokens", spy)
    rng = np.random.default_rng(17)
    img = make_image(rng.integers(0, 256, (8, 24), dtype=np.uint8))
    mask = tiny_mask()
    decode_and_reconstruct(img.pixels[:, :8], mask, tiny_params, TINY)
    decode_and_reconstruct(img.pixels, mask, tiny_params, TINY)
    eval_loss(np.stack([img.pixels[:, :8]] * 2), TINY, tiny_params, mask)
    slices = -(-3 // easz_model._SLICE)  # the raster has 3 patches
    assert len(outputs) == 1 + slices + 1
    for out in outputs:
        assert not out.requires_grad and out._parents == ()


def windows_decoded_alone(pixels, mask, params, cfg):
    """decode_and_reconstruct run on each n x n window of pixels by itself."""
    n = cfg.subpatch_b * cfg.grid_side
    want = np.empty_like(pixels)
    for y in range(0, pixels.shape[0], n):
        for x in range(0, pixels.shape[1], n):
            window = pixels[y:y + n, x:x + n]
            want[y:y + n, x:x + n] = decode_and_reconstruct(window, mask, params, cfg)
    return want


def test_decode_slices_span_patch_rows(tiny_params):
    # 3 x 5 patches in raster order: the first slice of _SLICE runs across
    # patch rows, then a partial slice ends the raster
    assert easz_model._SLICE < 3 * 5 < 2 * easz_model._SLICE
    rng = np.random.default_rng(19)
    pixels = rng.integers(0, 256, (3 * 8, 5 * 8, 1), dtype=np.uint8)
    mask = tiny_mask(t=2)
    out = decode_and_reconstruct(pixels, mask, tiny_params, TINY)
    assert np.array_equal(out, windows_decoded_alone(pixels, mask, tiny_params, TINY))
    # and through the container at a padded size, which decodes 24 x 40
    raster = store_raster(make_image(pixels[:21, :35]))
    frame = compress_bytes(raster, PipelineConfig(n=8, b=2, erased_per_row=2,
                                                  intra_row_delta=0, inter_row_delta=0))
    sq, sent, _ = decode_container(frame)
    padded = unsqueeze(sq, sent).pixels
    assert padded.shape == pixels.shape
    want = windows_decoded_alone(padded, sent, tiny_params, TINY)[:21, :35]
    got = load_raster(decompress_bytes(frame, (tiny_params, TINY))).pixels
    assert np.array_equal(got, want)


def test_decode_rejects_partial_patches(tiny_params):
    rng = np.random.default_rng(20)
    for shape in ((8, 12, 1), (4, 8, 1), (8, 8, 3), (2, 8, 8, 1)):
        with pytest.raises(DimensionError, match="whole 8x8x1 patches"):
            decode_and_reconstruct(rng.integers(0, 256, shape, dtype=np.uint8),
                                   tiny_mask(), tiny_params, TINY)


def test_eval_loss_slices_match_whole_batch(tiny_params):
    # _SLICE + 3 patches: one whole slice, then a partial one
    rng = np.random.default_rng(23)
    data = rng.integers(0, 256, (easz_model._SLICE + 3, 8, 8, 1), dtype=np.uint8)
    mask = tiny_mask(t=2)
    tokens = patch_to_tokens(data, TINY.subpatch_b)
    whole = forward_tokens(Tensor(tokens), mask, tiny_params, TINY).data
    assert eval_loss(data, TINY, tiny_params, mask) == float(np.abs(whole - tokens).mean())


def row_masks(gs):
    """Row masks for every erase count T in 1..gs; T = gs with delta = 0
    erases every position."""
    for t in range(1, gs + 1):
        for delta in (0, 1) if 2 * t <= gs else (0,):
            yield generate_row_mask(SamplerParams(gs, gs, t, delta, int(t < gs), seed=t))


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("grid_side", [4, 8])
@pytest.mark.parametrize("channels", [1, 3])
def test_forward_rows_match_full_forward(heads, grid_side, channels):
    cfg = ModelConfig(subpatch_b=2, channels=channels, d_model=16, grid_side=grid_side,
                      heads=heads)
    recording = init_params(cfg, seed=heads)
    graph_free = {k: Tensor(v.data) for k, v in recording.items()}
    rng = np.random.default_rng(grid_side + channels)
    for mask in row_masks(grid_side):
        rows = np.flatnonzero(mask.bits.reshape(-1) == 0)
        tokens = Tensor(rng.random((2, cfg.num_positions, cfg.token_dim)))
        for params in (graph_free, recording):
            full = forward_tokens(tokens, mask, params, cfg).data
            pruned = forward_tokens(tokens, mask, params, cfg, rows)
            assert pruned.requires_grad == (params is recording)
            assert np.array_equal(pruned.data, full[:, rows])


def test_forward_rows_at_default_width():
    # At d_model=128 the BLAS may pick another GEMM kernel for the shorter
    # query matrix, so the pruned rows can differ from the full forward's
    # in the last bits; the pixels they round to must not.
    cfg = easz_model.default_config()
    params = init_params(cfg, seed=0)
    rng = np.random.default_rng(27)
    tokens = Tensor(rng.random((2, cfg.num_positions, cfg.token_dim)))
    for mask in row_masks(cfg.grid_side):
        rows = np.flatnonzero(mask.bits.reshape(-1) == 0)
        full = forward_tokens(tokens, mask, params, cfg).data[:, rows]
        pruned = forward_tokens(tokens, mask, params, cfg, rows).data
        assert np.abs(pruned - full).max() <= 1e-14
        assert np.array_equal(easz_model._to_uint8(pruned), easz_model._to_uint8(full))


def test_last_decoder_ffn_sees_only_rows(tiny_params, monkeypatch):
    rows_seen, gelu = [], ad.gelu

    def spy(x):
        rows_seen.append(x.shape[-2])
        return gelu(x)

    monkeypatch.setattr(ad, "gelu", spy)
    mask = tiny_mask(t=1)
    kept = int(mask.bits.sum())
    rows = np.flatnonzero(mask.bits.reshape(-1) == 0)
    rng = np.random.default_rng(24)
    forward_tokens(Tensor(rand_tokens(rng)), mask, tiny_params, TINY, rows)
    # encoder blocks see kept positions, the first decoder block all of them
    assert rows_seen == [kept, kept, 16, rows.size]


@pytest.mark.parametrize("erase_all", [False, True])
def test_forward_tokens_keeps_float32_and_float64_values(tiny_params, erase_all):
    # float32 tokens and weights give float32 out, with rows and with every
    # position erased; float64 takes the float64 zero grid it always took
    mask = EraseMask(np.zeros((4, 4), dtype=np.uint8)) if erase_all else tiny_mask(t=2)
    rows = np.flatnonzero(mask.bits.reshape(-1) == 0)
    tokens = np.random.default_rng(30).random((2, 16, TINY.token_dim))
    params64 = {k: Tensor(v.data.astype(np.float64)) for k, v in tiny_params.items()}
    out64 = forward_tokens(Tensor(tokens), mask, params64, TINY, rows).data
    assert out64.dtype == np.float64
    if erase_all:
        zeros = Tensor(np.zeros((2, 16, TINY.d_model)))
        assert np.array_equal(out64, decode(zeros, params64, TINY, rows).data)
    out32 = forward_tokens(Tensor(tokens.astype(np.float32)), mask, tiny_params, TINY,
                           rows).data
    assert out32.dtype == np.float32
    assert np.allclose(out32, out64, rtol=1e-5, atol=1e-6)


def test_decode_memory_does_not_grow_with_stack():
    import tracemalloc

    cfg = ModelConfig(subpatch_b=4, channels=3, d_model=16, grid_side=8, heads=2)
    params = init_params(cfg, seed=0)
    mask = generate_row_mask(SamplerParams(8, 8, 2, 1, 1, seed=1))
    rng = np.random.default_rng(26)
    stack = rng.integers(0, 256, (8 * 32, 8 * 32, 3), dtype=np.uint8)  # 8 x 8 patches

    def peak(pixels):
        tracemalloc.start()
        try:
            decode_and_reconstruct(pixels, mask, params, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small = peak(stack[:32])  # one patch row, one slice
    # only the uint8 output grows; the float32 tokens of the whole stack
    # alone would be 64 * 12 KiB
    assert peak(stack) <= small + stack.nbytes + 64 * 1024


def test_loss_values():
    x = Tensor(np.zeros((4, 4)))
    y = Tensor(np.ones((4, 4)))
    assert float(loss(x, x).data) == 0.0
    assert float(loss(x, y, lam=0.0).data) == 1.0
    stub = lambda a, b: Tensor(np.asarray(2.0))
    half = Tensor(np.full((4, 4), 0.5))
    assert float(loss(half, y, lam=0.3, perceptual=stub).data) == pytest.approx(1.1)


def test_train_zero_steps_returns_init():
    rng = np.random.default_rng(14)
    data = rng.integers(0, 256, (8, 8, 8, 1), dtype=np.uint8)
    params, trace = train(data, TINY, TrainSettings(steps=0, seed=5))
    ref = init_params(TINY, seed=5)
    assert trace == []
    for name in ref:
        assert np.array_equal(params[name].data, ref[name].data)


@pytest.mark.parametrize("batch", [0, -1])
def test_train_rejects_batch_below_one(batch):
    data = np.zeros((8, 8, 8, 1), dtype=np.uint8)
    with pytest.raises(ParameterError, match="batch_size"):
        train(data, TINY, TrainSettings(steps=1, batch_size=batch))


def test_train_deterministic_trace():
    rng = np.random.default_rng(15)
    data = rng.integers(0, 256, (16, 8, 8, 1), dtype=np.uint8)
    s = TrainSettings(steps=5, seed=7, batch_size=4)
    _, t1 = train(data, TINY, s)
    _, t2 = train(data, TINY, TrainSettings(steps=5, seed=7, batch_size=4))
    assert t1 == t2


def test_checkpoint_roundtrip():
    params = init_params(TINY, seed=3)
    blob = save_checkpoint(params, TINY)
    loaded, cfg = load_checkpoint(blob)
    assert cfg == TINY
    for name in params:
        assert loaded[name].data.dtype == np.float32
        assert np.array_equal(loaded[name].data, params[name].data)
    assert save_checkpoint(loaded, cfg) == blob
    # fine-tuning from a checkpoint runs in float32 throughout
    rng = np.random.default_rng(18)
    data = rng.integers(0, 256, (4, 8, 8, 1), dtype=np.uint8)
    tuned, _ = train(data, TINY, TrainSettings(steps=1, batch_size=4), params=loaded)
    assert all(p.grad.dtype == np.float32 for p in tuned.values())


def test_served_weights_are_trained_weights():
    # training, fine-tuning and the checkpoint share one precision, so
    # saving rounds nothing: the server runs the trained values bit for bit
    rng = np.random.default_rng(34)
    data = rng.integers(0, 256, (8, 8, 8, 1), dtype=np.uint8)
    settings = TrainSettings(steps=2, batch_size=4, seed=4)
    trained, _ = train(data, TINY, settings)
    loaded, _ = load_checkpoint(save_checkpoint(trained, TINY))
    tuned, _ = train(data, TINY, settings, params=loaded)
    for params in (trained, tuned):
        served, _ = load_checkpoint(save_checkpoint(params, TINY))
        for name, p in params.items():
            assert p.data.dtype == p.grad.dtype == np.float32
            assert np.array_equal(served[name].data, p.data)


def test_decode_makes_no_copy_of_loaded_weights():
    # the loaded arrays are the decode weights themselves; they are
    # writable for fine-tuning, so they must not be views of the blob
    blob = save_checkpoint(init_params(TINY, seed=0), TINY)
    loaded, _ = load_checkpoint(blob)
    view = easz_model.inference_params(loaded)
    raw = np.frombuffer(blob, dtype=np.uint8)
    for name, p in loaded.items():
        assert np.shares_memory(view[name].data, p.data)
        assert p.data.flags.writeable
        assert not np.shares_memory(p.data, raw)


def test_float64_params_train_and_check_gradients_in_float64():
    # gradient checks (criterion 06) widen the parameters; the model must
    # then run in float64, or finite differences drown in float32 rounding
    params = {k: Tensor(v.data.astype(np.float64), requires_grad=True)
              for k, v in init_params(TINY, seed=6).items()}
    rng = np.random.default_rng(35)
    data = rng.integers(0, 256, (4, 8, 8, 1), dtype=np.uint8)
    trained, _ = train(data, TINY, TrainSettings(steps=2, batch_size=4), params=params)
    assert all(p.data.dtype == p.grad.dtype == np.float64 for p in trained.values())
    mask = tiny_mask()
    tokens = Tensor(rng.random((16, TINY.token_dim)))
    target = Tensor(rng.random((16, TINY.token_dim)))

    def model_loss(_p):
        pred = forward_tokens(tokens, mask, trained, TINY)
        assert pred.data.dtype == np.float64
        d = ad.add(pred, ad.scale(target, -1.0))
        return tsum(ad.mul(d, d))

    for name in ("proj_in.w", "enc0.ln1.g", "dec1.ffn.b2", "proj_out.b"):
        assert grad_check(model_loss, trained[name], eps=1e-3, order=4) <= 1e-4, name


def test_checkpoint_truncated():
    blob = save_checkpoint(init_params(TINY, seed=0), TINY)
    with pytest.raises(FormatError):
        load_checkpoint(blob[:-9])


def test_checkpoint_bad_magic():
    blob = save_checkpoint(init_params(TINY, seed=0), TINY)
    with pytest.raises(FormatError):
        load_checkpoint(b"XXXXXXXX" + blob[8:])


def test_checkpoint_zero_heads():
    blob = bytearray(save_checkpoint(init_params(TINY, seed=0), TINY))
    blob[13] = 0  # heads
    with pytest.raises(EaszError, match="heads"):
        load_checkpoint(bytes(blob))


def test_checkpoint_zero_d_model():
    blob = bytearray(save_checkpoint(init_params(TINY, seed=0), TINY))
    blob[11:13] = struct.pack(">H", 0)  # d_model
    with pytest.raises(EaszError, match="d_model"):
        load_checkpoint(bytes(blob))


def test_checkpoint_unknown_positional_mode():
    blob = bytearray(save_checkpoint(init_params(TINY, seed=0), TINY))
    blob[17] = 1  # positional-mode byte
    blob[-8:] = struct.pack(">Q", digest64(bytes(blob[:-8])))  # re-seal the trailer
    with pytest.raises(FormatError, match="positional mode"):
        load_checkpoint(bytes(blob))


def test_checkpoint_corrupt_payload():
    blob = bytearray(save_checkpoint(init_params(TINY, seed=0), TINY))
    blob[60] ^= 0xFF
    with pytest.raises(FormatError, match="checksum"):
        load_checkpoint(bytes(blob))


def test_param_count_matches_shapes(tiny_params):
    assert param_count(TINY) == sum(p.data.size for p in tiny_params.values())


def test_eval_loss_finite(tiny_params):
    rng = np.random.default_rng(16)
    data = rng.integers(0, 256, (4, 8, 8, 1), dtype=np.uint8)
    val = eval_loss(data, TINY, tiny_params, tiny_mask())
    assert np.isfinite(val) and val >= 0


@pytest.mark.parametrize("b,grid_side,channels", [(4, 4, 3), (2, 8, 3), (4, 8, 1)])
def test_model_container_mismatch(b, grid_side, channels):
    # A default container is n=32, b=4 (grid 8), RGB.
    rng = np.random.default_rng(0)
    raster = store_raster(make_image(rng.integers(0, 256, (32, 32, 3), dtype=np.uint8)))
    frame = compress_bytes(raster, PipelineConfig())
    cfg = ModelConfig(subpatch_b=b, channels=channels, d_model=16,
                      grid_side=grid_side, heads=2, ffn_multiplier=2)
    with pytest.raises(ParameterError, match="model wants"):
        decompress_bytes(frame, (init_params(cfg, seed=0), cfg))
