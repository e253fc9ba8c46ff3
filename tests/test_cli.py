import numpy as np
import pytest

from easz.cli import build_parser, main
from easz.image import load_raster, make_image, store_raster


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
    assert main(["train", "--data", str(data_dir), "--steps", "2",
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


def test_missing_train_data_exits_1(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["train", "--data", str(empty),
                 "--out", str(tmp_path / "x.ckpt")]) == 1
    assert "error:" in capsys.readouterr().err


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
