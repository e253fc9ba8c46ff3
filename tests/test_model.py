import numpy as np
import pytest

from easz import autodiff as ad
from easz.autodiff import Tensor
from easz.errors import DimensionError, EaszError, FormatError, ParameterError
from easz.mask import (EraseMask, SamplerParams, all_kept_mask,
                       generate_row_mask)
from easz.model import (ModelConfig, TrainSettings, assemble,
                        decode_and_reconstruct, embed, encode, eval_loss,
                        forward_tokens, init_params, load_checkpoint, loss,
                        param_count, patch_to_tokens, save_checkpoint,
                        tokens_to_patch, train)

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


def test_patch_token_roundtrip():
    rng = np.random.default_rng(0)
    patch = rng.integers(0, 256, (8, 8, 1), dtype=np.uint8)
    tokens = patch_to_tokens(patch, 2)
    assert tokens.shape == (16, 4)
    assert (tokens_to_patch(tokens, 2, 1) == patch).all()


def test_embed_additive_zero_table_is_projection(tiny_params):
    cfg = ModelConfig(subpatch_b=2, channels=1, d_model=16, grid_side=4,
                      heads=2, ffn_multiplier=2, pos_embed_mode="additive")
    params = init_params(cfg, seed=1)
    params["pos_enc"].data[:] = 0.0
    rng = np.random.default_rng(1)
    x = Tensor(rand_tokens(rng))
    out = embed(x, np.arange(16), params, cfg)
    pure = ad.linear(x, params["proj_in.w"], params["proj_in.b"])
    assert np.allclose(out.data, pure.data)


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


def test_reconstruct_all_kept_is_identity(tiny_params):
    rng = np.random.default_rng(11)
    patch = rng.integers(0, 256, (8, 8, 1), dtype=np.uint8)
    out = decode_and_reconstruct(patch, all_kept_mask(4, 4), tiny_params, TINY)
    assert (out == patch).all()


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


def test_train_deterministic_trace():
    rng = np.random.default_rng(15)
    data = rng.integers(0, 256, (16, 8, 8, 1), dtype=np.uint8)
    s = TrainSettings(steps=5, seed=7, batch_size=4)
    _, t1 = train(data, TINY, s)
    _, t2 = train(data, TINY, TrainSettings(steps=5, seed=7, batch_size=4))
    assert t1 == t2


def test_checkpoint_roundtrip():
    params = init_params(TINY, seed=3)
    for p in params.values():  # make values float32-exact first
        p.data = p.data.astype(np.float32)
    blob = save_checkpoint(params, TINY)
    loaded, cfg = load_checkpoint(blob)
    assert cfg == TINY
    for name in params:
        assert np.array_equal(loaded[name].data, params[name].data)
    assert save_checkpoint(loaded, cfg) == blob


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
