"""End-to-end acceptance gate.

Each test covers one numbered shipping criterion and prints a single
PASS/FAIL line; timed criteria assert their wall-clock budget too.
"""

import hashlib
import os
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import easz
import easz.autodiff as ad
from easz.autodiff import Tensor
from easz.cli import build_parser
from easz.container import encode_container
from easz.image import load_raster, make_image, store_raster
from easz.mask import (EraseMask, SamplerParams, all_kept_mask,
                       generate_row_mask, pack_mask, unpack_mask)
from easz.metrics import attn_cost
from easz.model import (ModelConfig, TrainSettings, decode_and_reconstruct,
                        eval_loss, forward_tokens, init_params, param_count,
                        patch_to_tokens, save_checkpoint, train)
from easz.pipeline import (STAGES, PipelineConfig, compress_bytes,
                           decompress_bytes)
from easz.squeeze import squeeze, unsqueeze
from easz.transport import ReconstructionServer, edge_send
from gradcheck import grad_check, tsum


@contextmanager
def verdict(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} [{label}]: FAIL")
        raise
    print(f"criterion {num:02d} [{label}]: PASS")


def draw_feasible_params(rng) -> SamplerParams:
    """Random sampler parameters with enough slack that a joint placement
    provably exists at every greedy step: (T-1)(2d+1) + T(2D+1) < cols."""
    cols = int(rng.integers(4, 41))
    rows = int(rng.integers(2, 13))
    t = int(rng.integers(1, max(2, cols // 4 + 1)))
    d_max = (cols // t - 1) // 2
    delta = int(rng.integers(0, d_max + 1))
    room = (cols - (t - 1) * (2 * delta + 1) - 1) // t
    dd_max = max(0, (room - 1) // 2)
    big = int(rng.integers(0, dd_max + 1))
    return SamplerParams(rows, cols, t, delta, big,
                         seed=int(rng.integers(0, 2**63)))


def check_mask_constraints(mask: EraseMask, p: SamplerParams):
    prev: list[int] = []
    for r in range(p.rows):
        erased = sorted(np.flatnonzero(mask.bits[r] == 0).tolist())
        assert len(erased) == p.samples_per_row
        for i in range(len(erased)):
            for j in range(i + 1, len(erased)):
                assert abs(erased[i] - erased[j]) > p.intra_row_delta
            for q in prev:
                assert abs(erased[i] - q) > p.inter_row_delta
        prev = erased


def synth_patches(count, rng, kind="gradients", side=16):
    """Synthetic grayscale patches: smooth gradients (or stripes) + noise."""
    yy, xx = np.mgrid[0:side, 0:side] / (side - 1.0)
    out = np.empty((count, side, side, 1), dtype=np.uint8)
    for i in range(count):
        if kind == "gradients":
            a, b, c = rng.uniform(-1, 1, 3)
            base = 0.5 + 0.5 * (a * xx + b * yy + c * xx * yy) / 2.0
            base = np.clip(base + rng.normal(0, 0.05, base.shape), 0, 1)
        else:  # oriented sinusoidal stripes, a visibly different population
            f = rng.uniform(0.5, 2.0)
            ph = rng.uniform(0, 2 * np.pi)
            ang = rng.uniform(0, np.pi)
            base = 0.5 + 0.4 * np.sin(
                2 * np.pi * f * (xx * np.cos(ang) + yy * np.sin(ang)) + ph)
            base = np.clip(base + rng.normal(0, 0.02, base.shape), 0, 1)
        out[i, :, :, 0] = np.rint(base * 255)
    return out


def random_raster(rng, h, w, c=1) -> bytes:
    img = make_image(rng.integers(0, 256, (h, w, c), dtype=np.uint8))
    return store_raster(img)


# --- 1: mask constraint suite -----------------------------------------------

_REPLAY_SNIPPET = """
import hashlib, sys
from easz.mask import SamplerParams, generate_row_mask, pack_mask
h = hashlib.sha256()
for line in sys.stdin:
    p = SamplerParams(*map(int, line.split()))
    h.update(pack_mask(generate_row_mask(p)))
print(h.hexdigest())
"""


def test_criterion_01_mask_constraints():
    with verdict(1, "mask constraint suite"):
        start = time.perf_counter()
        rng = np.random.default_rng(2026)
        drawn = [draw_feasible_params(rng) for _ in range(1000)]
        for p in drawn:
            check_mask_constraints(generate_row_mask(p), p)
        # same seeds reproduce the same masks in two separate processes
        feed = "".join(
            f"{p.rows} {p.cols} {p.samples_per_row} {p.intra_row_delta} "
            f"{p.inter_row_delta} {p.seed}\n" for p in drawn[:50]
        )
        # the child imports the easz this process imported, installed or not
        pkg = str(Path(easz.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [pkg, os.environ.get("PYTHONPATH")]))}
        digests = [
            subprocess.run([sys.executable, "-c", _REPLAY_SNIPPET],
                           input=feed, capture_output=True, text=True,
                           env=env, check=True).stdout.strip()
            for _ in range(2)
        ]
        assert digests[0] == digests[1] and len(digests[0]) == 64
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


# --- 2: degenerate masks ----------------------------------------------------

def test_criterion_02_degenerate_cases():
    with verdict(2, "degenerate masks"):
        # T=1 with the widest intra-row spacing: one erased cell per row,
        # never adjacent to the previous row's pick
        for seed in range(20):
            p = SamplerParams(8, 8, 1, intra_row_delta=7, inter_row_delta=1,
                              seed=seed)
            mask = generate_row_mask(p)
            check_mask_constraints(mask, p)
            assert (mask.bits.sum(axis=1) == 7).all()
        # T=0: the whole pipeline is an identity under the store codec
        rng = np.random.default_rng(7)
        for h, w, c in ((64, 64, 1), (70, 90, 3)):
            raster = random_raster(rng, h, w, c)
            cfg = PipelineConfig(erased_per_row=0)
            assert decompress_bytes(compress_bytes(raster, cfg)) == raster


# --- 3: squeeze accounting --------------------------------------------------

def test_criterion_03_squeeze_accounting():
    with verdict(3, "squeeze accounting"):
        start = time.perf_counter()
        rng = np.random.default_rng(11)
        for n, b in ((8, 1), (8, 2), (8, 4), (16, 2), (16, 4), (32, 4), (32, 8)):
            gs = n // b
            h = int(rng.integers(n, 3 * n + 1))
            w = int(rng.integers(n, 3 * n + 1))
            raster = random_raster(rng, h, w)
            img = load_raster(raster)
            pad_h = (h + n - 1) // n * n
            pad_w = (w + n - 1) // n * n
            sizes = []
            for t in range(0, gs // 2 + 1):
                if t == 0:
                    mask = all_kept_mask(gs, gs)
                else:
                    delta = max(0, (gs // t - 1) // 2)
                    mask = generate_row_mask(SamplerParams(
                        gs, gs, t, delta, 0, seed=int(rng.integers(2**31))))
                sq = squeeze(img, mask, n, b)
                want = round((1 - t * b / n) * pad_h * pad_w)
                assert sq.pixels.shape[0] * sq.pixels.shape[1] == want
                restored = unsqueeze(sq, mask)
                kept_px = np.tile(
                    np.kron(mask.bits, np.ones((b, b), dtype=np.uint8)),
                    (pad_h // n, pad_w // n)).astype(bool)[:h, :w]
                assert np.array_equal(restored.pixels[:h, :w][kept_px],
                                      img.pixels[kept_px])
                sizes.append(len(encode_container(sq, mask)))
            assert sizes == sorted(sizes, reverse=True)
            assert len(set(sizes)) == len(sizes)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"


# --- 4: mask serialization --------------------------------------------------

def test_criterion_04_mask_serialization():
    with verdict(4, "mask serialization"):
        mask32 = generate_row_mask(SamplerParams(32, 32, 4, 1, 1, seed=3))
        assert len(pack_mask(mask32)) == 128
        rng = np.random.default_rng(4)
        for _ in range(10_000):
            rows = int(rng.integers(1, 13))
            cols = int(rng.integers(1, 13))
            bits = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
            m = EraseMask(bits, None)
            assert unpack_mask(pack_mask(m), rows, cols) == m


# --- 5: attention-cost estimator --------------------------------------------

def test_criterion_05_attention_cost():
    with verdict(5, "attention cost"):
        pixel, two_stage, factor = attn_cost(256, 256, 32, 4)
        assert pixel == 4_294_967_296
        assert two_stage == 262_144
        assert factor == pytest.approx(16_384.0)
        # the often-quoted 1,048,576 figure is called out in user-facing help
        help_text = build_parser()._subparsers._group_actions[0] \
            .choices["bench"].format_help()
        assert "1,048,576" in help_text and "262,144" in help_text


# --- 6: gradient verification -----------------------------------------------

def test_criterion_06_gradients():
    with verdict(6, "gradient checks"):
        start = time.perf_counter()
        rng = np.random.default_rng(6)
        c1 = Tensor(rng.normal(size=(3, 4)))
        c2 = Tensor(rng.normal(size=(4, 3)))
        gamma = Tensor(rng.normal(size=4))
        beta = Tensor(rng.normal(size=4))
        idx = np.array([2, 0, 1])
        prims = {
            "add": lambda x: tsum(ad.add(x, c1)),
            "mul": lambda x: tsum(ad.mul(x, c1)),
            "scale": lambda x: tsum(ad.scale(x, 1.7)),
            "matmul": lambda x: tsum(ad.matmul(x, c2)),
            "linear": lambda x: tsum(ad.linear(x, c2, Tensor(np.zeros(3)))),
            "gather_rows": lambda x: tsum(ad.gather_rows(x, idx)),
            "scatter_rows": lambda x: tsum(ad.scatter_rows(x, idx, 6)),
            "layer_norm": lambda x: tsum(ad.layer_norm(x, gamma, beta)),
            "attention": lambda x: tsum(ad.mul(ad.attention(x, x, x, 2), c1)),
            "gelu": lambda x: tsum(ad.gelu(x)),
            "mean_abs_error": lambda x: ad.mean_abs_error(x, c1),
        }
        for name, f in prims.items():
            x = Tensor(rng.normal(size=(3, 4)) + 0.1, requires_grad=True)
            err = grad_check(f, x, eps=1e-6)
            assert err <= 1e-6, f"{name}: rel err {err:.3e}"

        # full tiny model, every parameter, double precision.  The check
        # uses a smooth squared-error scalar: the L1 training loss has
        # kinks where finite differences are undefined, but the model's
        # own gradients flow through the identical graph either way.
        cfg = ModelConfig(subpatch_b=2, channels=1, d_model=8, grid_side=4,
                          heads=2, ffn_multiplier=2)
        assert param_count(cfg) <= 10_000
        mask = generate_row_mask(SamplerParams(4, 4, 1, 1, 1, seed=3))
        mrng = np.random.default_rng(0)
        tokens = mrng.random((16, cfg.token_dim))
        target = Tensor(mrng.random((16, cfg.token_dim)))
        params = init_params(cfg, seed=0)
        for p in params.values():  # a generic point, off the init structure
            p.data = p.data + mrng.normal(0, 0.3, p.data.shape)

        def model_loss(_p):
            pred = forward_tokens(Tensor(tokens), mask, params, cfg)
            d = ad.add(pred, ad.scale(target, -1.0))
            return tsum(ad.mul(d, d))

        worst = 0.0
        for name, p in params.items():
            err = grad_check(model_loss, p, eps=1e-3, order=4)
            worst = max(worst, err)
        assert worst <= 1e-4, f"full model worst rel err {worst:.3e}"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


# --- 7: desk-scale training -------------------------------------------------

def test_criterion_07_training():
    with verdict(7, "desk-scale training"):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        data = synth_patches(512, rng)
        held = synth_patches(64, rng)
        cfg = ModelConfig(subpatch_b=2, channels=1, d_model=32, grid_side=8,
                          heads=4)
        settings = TrainSettings(learning_rate=2.8e-4, weight_decay=0.05,
                                 steps=300, seed=0, batch_size=32,
                                 erase_ratio=0.25)
        params, trace = train(data, cfg, settings)
        assert trace[-1] <= 0.5 * trace[0], \
            f"loss {trace[0]:.4f} -> {trace[-1]:.4f}"

        # erased-region MSE vs the mean-fill baseline on held-out patches
        mask = generate_row_mask(SamplerParams(8, 8, 2, 1, 1, seed=99))
        erased_px = np.kron(1 - mask.bits,
                            np.ones((2, 2), dtype=np.uint8)).astype(bool)
        kept_px = ~erased_px
        model_err, fill_err = [], []
        for patch in held:
            rec = decode_and_reconstruct(patch, mask, params, cfg)
            d = rec[erased_px].astype(float) - patch[erased_px].astype(float)
            model_err.append((d ** 2).mean())
            fill = float(patch[kept_px].mean())
            df = fill - patch[erased_px].astype(float)
            fill_err.append((df ** 2).mean())
        m, f = float(np.mean(model_err)), float(np.mean(fill_err))
        assert m <= 0.8 * f, f"model {m:.1f} vs 0.8*mean-fill {0.8 * f:.1f}"

        # deterministic per seed
        _, trace2 = train(data[:32], cfg, TrainSettings(steps=3, seed=5,
                                                        batch_size=8))
        _, trace3 = train(data[:32], cfg, TrainSettings(steps=3, seed=5,
                                                        batch_size=8))
        assert trace2 == trace3
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0, f"took {elapsed:.1f}s, budget 600s"


# --- 8: masked-information invariant ----------------------------------------

def test_criterion_08_erased_input_invariance():
    with verdict(8, "erased-input invariance"):
        rng = np.random.default_rng(8)
        cfg = ModelConfig(subpatch_b=4, channels=3, d_model=32, grid_side=8)
        params = init_params(cfg, seed=0)
        mask = generate_row_mask(SamplerParams(8, 8, 2, 1, 1, seed=1))
        erased_px = np.kron(1 - mask.bits,
                            np.ones((4, 4), dtype=np.uint8)).astype(bool)
        patch = rng.integers(0, 256, (32, 32, 3), dtype=np.uint8)
        ref = decode_and_reconstruct(patch, mask, params, cfg)
        for _ in range(5):
            noisy = patch.copy()
            noisy[erased_px] = rng.integers(0, 256, (int(erased_px.sum()), 3),
                                            dtype=np.uint8)
            out = decode_and_reconstruct(noisy, mask, params, cfg)
            assert np.array_equal(out, ref)


# --- 9: fine-tuning trend ---------------------------------------------------

def test_criterion_09_finetune_trend():
    with verdict(9, "fine-tune trend"):
        rng = np.random.default_rng(0)
        data_a = synth_patches(128, rng, kind="gradients")
        data_b = synth_patches(128, rng, kind="stripes")
        held_b = synth_patches(32, rng, kind="stripes")
        converged = {}
        for b in (1, 2, 4):
            gs = 16 // b
            cfg = ModelConfig(subpatch_b=b, channels=1, d_model=32,
                              grid_side=gs, heads=2, ffn_multiplier=2)
            mask = generate_row_mask(SamplerParams(gs, gs, gs // 4, 0, 0,
                                                   seed=5))
            params, _ = train(data_a, cfg, TrainSettings(
                steps=60, seed=1, batch_size=8, erase_ratio=0.25))
            before = eval_loss(data_b, cfg, params, mask)
            params, _ = train(data_b, cfg, TrainSettings(
                steps=60, seed=2, batch_size=8, erase_ratio=0.25),
                params=params)
            after = eval_loss(data_b, cfg, params, mask)
            assert after < before, f"b={b}: {before:.4f} -> {after:.4f}"
            erased_px = np.kron(1 - mask.bits,
                                np.ones((b, b), dtype=np.uint8)).astype(bool)
            errs = []
            for patch in held_b:
                rec = decode_and_reconstruct(patch, mask, params, cfg)
                d = rec[erased_px].astype(float) - patch[erased_px].astype(float)
                errs.append((d ** 2).mean())
            converged[b] = float(np.mean(errs))
        assert converged[1] < converged[2] < converged[4], converged


# --- 10: loopback end-to-end ------------------------------------------------

def test_criterion_10_loopback(tmp_path):
    with verdict(10, "loopback transport"):
        start = time.perf_counter()
        rng = np.random.default_rng(10)
        mcfg = ModelConfig(subpatch_b=4, channels=1, d_model=16, grid_side=8,
                           heads=2, ffn_multiplier=2)
        blob = save_checkpoint(init_params(mcfg, seed=0), mcfg)
        cfg = PipelineConfig(erased_per_row=2, seed=3)
        rasters = []
        for i in range(8):
            p = tmp_path / f"in{i}.pgm"
            p.write_bytes(random_raster(rng, 64, 64))
            rasters.append(p)
        with ReconstructionServer(0, blob, tmp_path / "out") as srv:
            results = [None] * 8
            def go(i):
                results[i] = edge_send(rasters[i], "127.0.0.1", srv.port, cfg)
            threads = [threading.Thread(target=go, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert all(r is not None and r[1] == 0 for r in results)
        # server output is byte-identical to the in-process decompress path
        from easz.model import load_checkpoint
        model = load_checkpoint(blob)
        received = {p.read_bytes()
                    for p in (tmp_path / "out").glob("recv_*.raster")}
        local = {decompress_bytes(compress_bytes(p.read_bytes(), cfg), model)
                 for p in rasters}
        assert received == local and len(received) == 8
        # six-stage timing report present on every send
        for timings, _code, _msg in results:
            for stage in STAGES:
                assert stage in timings.stages
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
