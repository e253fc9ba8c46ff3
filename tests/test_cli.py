import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import easz
from easz.cli import build_parser, main
from easz.image import load_raster, make_image, padded_size, store_raster
from easz.model import ModelConfig, init_params, save_checkpoint
from easz.pipeline import PipelineConfig


@pytest.fixture()
def raster64(tmp_path):
    rng = np.random.default_rng(21)
    img = make_image(rng.integers(0, 256, (64, 64, 1), dtype=np.uint8))
    p = tmp_path / "in.pgm"
    p.write_bytes(store_raster(img))
    return p


def test_compress_decompress_t0_roundtrip(tmp_path, raster64, capsys):
    cont = tmp_path / "out.easz"
    back = tmp_path / "back.pgm"
    assert main(["compress", str(raster64), "--T", "0", "--out", str(cont)]) == 0
    assert main(["decompress", str(cont), "--out", str(back)]) == 0
    assert back.read_bytes() == raster64.read_bytes()
    assert "bpp=" in capsys.readouterr().out


def test_compress_shrinks_container(tmp_path, raster64):
    cont = tmp_path / "out.easz"
    assert main(["compress", str(raster64), "--T", "2", "--out", str(cont)]) == 0
    assert cont.stat().st_size < raster64.stat().st_size


def test_compress_parses_input_once(tmp_path, capsys, monkeypatch):
    import easz.cli
    import easz.pipeline

    rng = np.random.default_rng(22)
    src, cont = tmp_path / "in.ppm", tmp_path / "out.easz"
    src.write_bytes(store_raster(make_image(rng.integers(0, 256, (40, 72, 3), dtype=np.uint8))))
    calls = []

    def spy(data):
        calls.append(len(data))
        return load_raster(data)

    for module in (easz.cli, easz.pipeline):
        monkeypatch.setattr(module, "load_raster", spy)
    assert main(["compress", str(src), "--out", str(cont)]) == 0
    assert calls == [src.stat().st_size]
    size = cont.stat().st_size
    assert capsys.readouterr().out == f"wrote {cont}: {size} bytes, bpp={size * 8 / (40 * 72):.4f}\n"


def test_compress_refuses_image_decode_would_refuse(tmp_path, capsys):
    # A 1-row image pads to 32 rows: one column past MAX_PIXELS // 32 is over
    # the limit that decode_container enforces, so nothing is written.
    from easz.container import MAX_PIXELS

    src, cont = tmp_path / "wide.pgm", tmp_path / "out.easz"
    src.write_bytes(store_raster(make_image(np.zeros((1, MAX_PIXELS // 32 + 1, 1), np.uint8))))
    assert main(["compress", str(src), "--out", str(cont)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not cont.exists()


def test_eval_identical(raster64, capsys):
    assert main(["eval", str(raster64), str(raster64)]) == 0
    out = capsys.readouterr().out
    assert "mse=0.000000" in out
    assert "psnr=infinite" in out
    assert "ssim=1.000000" in out


def test_eval_with_container(tmp_path, raster64, capsys):
    cont = tmp_path / "out.easz"
    main(["compress", str(raster64), "--T", "2", "--out", str(cont)])
    assert main(["eval", str(raster64), str(raster64),
                 "--container", str(cont)]) == 0
    out = capsys.readouterr().out
    ratio = float(out.split("saving_ratio=")[1].strip())
    assert 0.0 < ratio < 1.0


def test_bench_csv(tmp_path, raster64, capsys):
    csv_path = tmp_path / "bench.csv"
    assert main(["bench", str(raster64), "--T-list", "0,1,2",
                 "--attn-cost", "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "# easz bench csv v1"
    header = lines[1].split(",")
    assert header[:6] == ["T", "container_bytes", "bpp", "psnr", "ssim",
                          "saving_ratio"]
    rows = [l.split(",") for l in lines[2:] if not l.startswith("#")]
    assert [r[0] for r in rows] == ["0", "1", "2"]
    bpps = [float(r[2]) for r in rows]
    assert bpps == sorted(bpps, reverse=True) and len(set(bpps)) == 3
    assert lines[-1].startswith("# attn_cost")
    assert "two_stage=262144" not in lines[-1]  # 64x64 input, not 256x256


def test_bench_rejects_non_integer_t_list(tmp_path, raster64, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", str(raster64), "--T-list", "1,x", "--out", str(tmp_path / "b.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--T-list" in err and "Traceback" not in err
    assert not (tmp_path / "b.csv").exists()


def test_bench_help_mentions_cost_discrepancy(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bench", "--help"])
    help_text = capsys.readouterr().out
    assert "1,048,576" in help_text
    assert "262,144" in help_text


def test_train_and_decompress_with_checkpoint(tmp_path, capsys):
    rng = np.random.default_rng(4)
    data_dir = tmp_path / "patches"
    data_dir.mkdir()
    for i in range(6):
        img = make_image(rng.integers(0, 256, (16, 16, 1), dtype=np.uint8))
        (data_dir / f"p{i}.pgm").write_bytes(store_raster(img))
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(data_dir), "--steps", "2", "--b", "2",
                 "--batch", "4", "--d-model", "16", "--heads", "2",
                 "--out", str(ckpt)]) == 0
    assert "final_loss=" in capsys.readouterr().out

    src = tmp_path / "img.pgm"
    img = make_image(rng.integers(0, 256, (16, 16, 1), dtype=np.uint8))
    src.write_bytes(store_raster(img))
    cont = tmp_path / "img.easz"
    back = tmp_path / "img_back.pgm"
    assert main(["compress", str(src), "--n", "16", "--b", "2", "--T", "2",
                 "--out", str(cont)]) == 0
    assert main(["decompress", str(cont), "--checkpoint", str(ckpt),
                 "--out", str(back)]) == 0
    restored = load_raster(back.read_bytes())
    assert restored.pixels.shape == img.pixels.shape


def test_default_flags_train_compress_decompress(tmp_path):
    # With every flag at its default, a checkpoint trained on 32x32 patches
    # decodes a container compressed with the default geometry.
    rng = np.random.default_rng(12)
    data_dir = tmp_path / "patches"
    data_dir.mkdir()
    for i in range(4):
        img = make_image(rng.integers(0, 256, (32, 32, 3), dtype=np.uint8))
        (data_dir / f"p{i}.ppm").write_bytes(store_raster(img))
    ckpt, cont, back = tmp_path / "m.ckpt", tmp_path / "c.easz", tmp_path / "r.ppm"
    assert main(["train", "--data", str(data_dir), "--steps", "2", "--out", str(ckpt)]) == 0
    src = tmp_path / "img.ppm"
    img = make_image(rng.integers(0, 256, (40, 70, 3), dtype=np.uint8))
    src.write_bytes(store_raster(img))
    assert main(["compress", str(src), "--out", str(cont)]) == 0
    assert main(["decompress", str(cont), "--checkpoint", str(ckpt), "--out", str(back)]) == 0
    cfg = PipelineConfig()
    ph, pw = padded_size(40, 70, cfg.n)
    kept_map = np.kron(cfg.make_mask().bits, np.ones((cfg.b, cfg.b), dtype=np.uint8))
    kept = np.tile(kept_map, (ph // cfg.n, pw // cfg.n))[:40, :70].astype(bool)
    restored = load_raster(back.read_bytes()).pixels
    assert np.array_equal(restored[kept], img.pixels[kept])


@pytest.mark.parametrize("shapes", [[(32, 32, 1), (16, 16, 1)], [(16, 16, 1), (16, 16, 3)],
                                    [(32, 16, 1)], [(30, 30, 1)]],
                         ids=["sizes", "channels", "not-square", "b-does-not-divide"])
def test_train_rejects_patch_shapes(tmp_path, capsys, shapes):
    data_dir = tmp_path / "patches"
    data_dir.mkdir()
    for i, shape in enumerate(shapes):
        img = make_image(np.zeros(shape, dtype=np.uint8))
        (data_dir / f"p{i}.{'ppm' if shape[2] == 3 else 'pgm'}").write_bytes(store_raster(img))
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(data_dir), "--steps", "1", "--out", str(ckpt)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not ckpt.exists()


def test_flag_defaults_are_library_defaults():
    from easz.cli import _codec, _from_flags, _pipeline_config
    from easz.container import ExternalCodec
    from easz.model import TrainSettings
    from easz.pipeline import HOST, PORT

    parser = build_parser()
    args = parser.parse_args(["compress", "x.ppm", "--out", "y", "--codec", "external"])
    assert _pipeline_config(args) == PipelineConfig(codec=ExternalCodec("", ""))
    assert _codec(args).quality == ExternalCodec.quality
    args = parser.parse_args(["train", "--data", "d", "--out", "o"])
    assert _from_flags(TrainSettings, args) == TrainSettings()
    assert args.b == PipelineConfig.b
    assert _from_flags(ModelConfig, args, subpatch_b=4, channels=1, grid_side=8).heads \
        == ModelConfig.heads
    for argv in (["serve", "--out-dir", "d"], ["send", "x.ppm"]):
        args = parser.parse_args(argv)
        assert (args.host, args.port) == (HOST, PORT)


def test_train_has_no_n_flag():
    # train reads n from its patches
    with pytest.raises(SystemExit):
        build_parser().parse_args(["train", "--data", "d", "--out", "o", "--n", "16"])


def test_cli_loads_server_module_only_to_serve_or_send():
    # `easz compress` runs on the edge; it should not pay for socket servers.
    src = str(Path(easz.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = ("import sys, easz.cli; "
             "print(sorted({'easz.transport', 'socketserver'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.stdout.strip() == "[]", proc.stderr


def test_runtime_needs_no_scipy(tmp_path):
    # numpy is the only dependency: train, compress and a model decode run
    # where importing scipy fails
    rng = np.random.default_rng(5)
    data_dir = tmp_path / "patches"
    data_dir.mkdir()
    for i in range(4):
        img = make_image(rng.integers(0, 256, (16, 16, 1), dtype=np.uint8))
        (data_dir / f"p{i}.pgm").write_bytes(store_raster(img))
    src, ckpt = tmp_path / "img.pgm", tmp_path / "m.ckpt"
    cont, back = tmp_path / "img.easz", tmp_path / "back.pgm"
    src.write_bytes(store_raster(make_image(rng.integers(0, 256, (16, 16, 1), dtype=np.uint8))))
    runs = [["train", "--data", str(data_dir), "--steps", "1", "--b", "2", "--batch", "4",
             "--d-model", "16", "--heads", "2", "--out", str(ckpt)],
            ["compress", str(src), "--n", "16", "--b", "2", "--T", "2", "--out", str(cont)],
            ["decompress", str(cont), "--checkpoint", str(ckpt), "--out", str(back)]]
    pkg = str(Path(easz.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [pkg, os.environ.get("PYTHONPATH")]))}
    child = ("import json, sys; sys.modules['scipy'] = None; from easz.cli import main; "
             "print([main(argv) for argv in json.loads(sys.argv[1])])")
    proc = subprocess.run([sys.executable, "-c", child, json.dumps(runs)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip().splitlines()[-1:] == ["[0, 0, 0]"], proc.stderr
    assert load_raster(back.read_bytes()).pixels.shape == (16, 16, 1)


def test_decompress_all_erased_with_checkpoint(tmp_path, raster64):
    cfg = ModelConfig(subpatch_b=4, channels=1, d_model=16, grid_side=8,
                      heads=2, ffn_multiplier=2)
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(save_checkpoint(init_params(cfg, seed=0), cfg))
    cont = tmp_path / "out.easz"
    back = tmp_path / "back.pgm"
    assert main(["compress", str(raster64), "--T", "8", "--delta", "0", "--Delta", "0",
                 "--out", str(cont)]) == 0
    assert main(["decompress", str(cont), "--checkpoint", str(ckpt),
                 "--out", str(back)]) == 0
    assert load_raster(back.read_bytes()).pixels.shape == (64, 64, 1)


def test_missing_train_data_exits_1(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["train", "--data", str(empty),
                 "--out", str(tmp_path / "x.ckpt")]) == 1
    assert "error:" in capsys.readouterr().err


def test_train_zero_steps_exits_1(tmp_path, capsys):
    data_dir = tmp_path / "patches"
    data_dir.mkdir()
    img = make_image(np.zeros((16, 16, 1), dtype=np.uint8))
    (data_dir / "p0.pgm").write_bytes(store_raster(img))
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(data_dir), "--steps", "0",
                 "--out", str(ckpt)]) == 1
    assert "error: --steps" in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.mark.parametrize("flags", [["--batch", "-1"], ["--batch", "0"],
                                   ["--d-model", "-4", "--heads", "2"], ["--d-model", "0"]])
def test_train_rejects_sizes_below_one(tmp_path, capsys, flags):
    data_dir = tmp_path / "patches"
    data_dir.mkdir()
    img = make_image(np.zeros((16, 16, 1), dtype=np.uint8))
    (data_dir / "p0.pgm").write_bytes(store_raster(img))
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(data_dir), "--steps", "1", *flags,
                 "--out", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ("batch_size" in err or "d_model" in err)
    assert not ckpt.exists()


@pytest.mark.parametrize("missing", ["input", "codec"])
def test_os_errors_exit_1(raster64, tmp_path, capsys, missing):
    argv = ["compress", str(raster64), "--out", str(tmp_path / "x.easz")]
    if missing == "input":
        argv[1] = str(tmp_path / "nope.ppm")
    else:
        argv += ["--codec", "external", "--codec-cmd", "easz-no-such-codec-binary"]
    assert main(argv) == 1
    assert "error: [Errno 2]" in capsys.readouterr().err


def test_unknown_log_level_exits_1(raster64, monkeypatch, capsys):
    monkeypatch.setenv("EASZ_LOG", "verbose")
    assert main(["eval", str(raster64), str(raster64)]) == 1
    assert "error: EASZ_LOG='verbose'" in capsys.readouterr().err


def test_external_codec_flag_validation(raster64, tmp_path, capsys):
    assert main(["compress", str(raster64), "--codec", "external",
                 "--out", str(tmp_path / "x.easz")]) == 1
    assert "codec" in capsys.readouterr().err


def test_external_decompress_needs_decode_cmd(raster64, tmp_path, capsys):
    cont = tmp_path / "a.easz"
    assert main(["compress", str(raster64), "--out", str(cont), "--codec",
                 "external", "--codec-cmd", "cat", "--codec-decode-cmd", "cat"]) == 0
    assert main(["decompress", str(cont), "--out", str(tmp_path / "b.ppm"),
                 "--codec", "external"]) == 1
    assert "error:" in capsys.readouterr().err


def test_external_decompress_needs_only_decode_cmd(raster64, tmp_path):
    cont = tmp_path / "a.easz"
    assert main(["compress", str(raster64), "--out", str(cont), "--codec",
                 "external", "--codec-cmd", "cat", "--codec-decode-cmd", "cat"]) == 0
    back = tmp_path / "b.pgm"
    assert main(["decompress", str(cont), "--out", str(back), "--codec",
                 "external", "--codec-decode-cmd", "cat"]) == 0
    assert load_raster(back.read_bytes()).pixels.shape == (64, 64, 1)


@pytest.mark.parametrize("argv", [["decompress", "c.easz", "--out", "o.ppm"],
                                  ["serve", "--out-dir", "d", "--codec", "store"]])
def test_container_commands_take_no_mask_flags(argv):
    # The container carries its geometry and mask; only codec flags apply.
    parser = build_parser()
    parser.parse_args(argv)
    with pytest.raises(SystemExit):
        parser.parse_args(argv + ["--T", "2"])


def test_subcommands_exist():
    parser = build_parser()
    for cmd in ("compress", "decompress", "train", "eval", "serve",
                "send", "bench"):
        args = None
        try:
            args = parser.parse_args([cmd, "--help"])
        except SystemExit as exc:
            assert exc.code == 0
        assert args is None
