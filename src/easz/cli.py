"""Command-line front end.

Subcommands: compress, decompress, train, eval, serve, send, bench.
EASZ_LOG=debug|info|warning|error sets the level of Python logging; easz
itself writes no log lines yet.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from .container import ExternalCodec, bpp
from .errors import EaszError
from .image import load_raster, store_raster
from .metrics import ATTN_COST_NOTE, QualityReport, attn_cost, mse, psnr, saving_ratio, ssim
from .pipeline import (STAGES, PipelineConfig, StageTimings, compress_bytes,
                       decompress_bytes)


def _codec(args) -> ExternalCodec | None:
    if args.codec != "external":
        return None
    # "" not None: shlex.split(None) would read stdin
    return ExternalCodec(args.codec_cmd or "", args.codec_decode_cmd or "", args.quality)


def _pipeline_config(args) -> PipelineConfig:
    return PipelineConfig(
        n=args.n, b=args.b, erased_per_row=args.T,
        intra_row_delta=args.delta, inter_row_delta=args.Delta,
        seed=args.seed, codec=_codec(args),
    )


def _load_model(path: str | None):
    if path is None:
        return None
    from .model import load_checkpoint

    return load_checkpoint(Path(path).read_bytes())


def cmd_compress(args) -> int:
    cfg = _pipeline_config(args)
    frame = compress_bytes(Path(args.image).read_bytes(), cfg)
    Path(args.out).write_bytes(frame)
    img = load_raster(Path(args.image).read_bytes())
    print(f"wrote {args.out}: {len(frame)} bytes, "
          f"bpp={bpp(len(frame), img.height, img.width):.4f}")
    return 0


def cmd_decompress(args) -> int:
    codec = _codec(args)
    model = _load_model(args.checkpoint)
    raster = decompress_bytes(Path(args.container).read_bytes(), model, codec)
    Path(args.out).write_bytes(raster)
    print(f"wrote {args.out}")
    return 0


def cmd_train(args) -> int:
    from .model import ModelConfig, TrainSettings, save_checkpoint, train

    if args.steps < 1:
        raise EaszError(f"--steps must be >= 1, got {args.steps}")
    patches = _load_patch_dir(Path(args.data), args.n)
    cfg = ModelConfig(
        subpatch_b=args.b, channels=patches.shape[3], d_model=args.d_model,
        grid_side=args.n // args.b, heads=args.heads,
    )
    settings = TrainSettings(
        learning_rate=args.lr, erase_ratio=args.erase_ratio,
        batch_size=args.batch, weight_decay=args.wd, steps=args.steps,
        seed=args.seed,
    )
    params, trace = train(patches, cfg, settings)
    Path(args.out).write_bytes(save_checkpoint(params, cfg))
    print(f"steps={len(trace)} initial_loss={trace[0]:.6f} final_loss={trace[-1]:.6f}")
    print(f"wrote {args.out}")
    return 0


def _load_patch_dir(root: Path, n: int) -> np.ndarray:
    patches = []
    for path in sorted(root.iterdir()):
        if path.suffix.lower() not in (".pgm", ".ppm"):
            continue
        img = load_raster(path.read_bytes())
        if (img.height, img.width) != (n, n):
            raise EaszError(f"{path.name}: patch must be {n}x{n}, "
                            f"got {img.height}x{img.width}")
        patches.append(img.pixels)
    if not patches:
        raise EaszError(f"no .pgm/.ppm patches under {root}")
    return np.stack(patches)


def cmd_eval(args) -> int:
    a = load_raster(Path(args.reference).read_bytes())
    b = load_raster(Path(args.candidate).read_bytes())
    rate = 0.0
    save = 0.0
    if args.container:
        size = Path(args.container).stat().st_size
        rate = bpp(size, a.height, a.width)
        baseline = len(store_raster(a))
        save = saving_ratio(baseline, size)
    report = QualityReport(mse(a, b), psnr(a, b), ssim(a, b), rate, save)
    sys.stdout.write(report.as_lines())
    return 0


def cmd_serve(args) -> int:
    from .transport import ReconstructionServer

    server = ReconstructionServer(args.port, args.checkpoint, args.out_dir,
                                  host=args.host, codec=_codec(args))
    print(f"serving on {args.host}:{server.port}, output dir {args.out_dir}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


def cmd_send(args) -> int:
    from .transport import edge_send

    cfg = _pipeline_config(args)
    timings, _code, message = edge_send(args.image, args.host, args.port, cfg)
    print(f"server: {message}")
    for stage in STAGES:
        print(f"{stage}={timings.stages.get(stage, 0.0):.3f}ms")
    print(f"end_to_end={timings.end_to_end:.3f}ms")
    return 0


def cmd_bench(args) -> int:
    cfg0 = _pipeline_config(args)
    raster = Path(args.image).read_bytes()
    img = load_raster(raster)
    model = _load_model(args.checkpoint)
    baseline = len(raster)
    t_values = [int(t) for t in args.T_list.split(",")]
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    out.write("# easz bench csv v1\n")
    writer = csv.writer(out)
    writer.writerow(["T", "container_bytes", "bpp", "psnr", "ssim",
                     "saving_ratio"] + [f"{s}_ms" for s in STAGES])
    for t in t_values:
        from dataclasses import replace

        cfg = replace(cfg0, erased_per_row=t)
        timings = StageTimings()
        start = time.perf_counter()
        frame = compress_bytes(raster, cfg, timings)
        recon = decompress_bytes(frame, model, cfg.codec, timings=timings)
        timings.end_to_end = (time.perf_counter() - start) * 1000.0
        out_img = load_raster(recon)
        row = [
            t, len(frame),
            f"{bpp(len(frame), img.height, img.width):.6f}",
            "infinite" if mse(img, out_img) == 0 else f"{psnr(img, out_img):.4f}",
            f"{ssim(img, out_img):.6f}",
            f"{saving_ratio(baseline, len(frame)):.6f}",
        ] + [f"{timings.stages.get(s, 0.0):.3f}" for s in STAGES]
        writer.writerow(row)
    if args.attn_cost:
        h = (img.height + args.n - 1) // args.n * args.n
        w = (img.width + args.n - 1) // args.n * args.n
        pixel, two_stage, factor = attn_cost(h, w, args.n, args.b)
        out.write(f"# attn_cost pixel_token={pixel} two_stage={two_stage} "
                  f"reduction={factor:.1f}\n")
    if args.out:
        out.close()
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="easz",
        description="Erase-and-squeeze image coding with transformer "
                    "reconstruction on the receiver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Containers describe their own geometry and mask, so the mask flags go
    # only to subcommands that compress.
    mask = argparse.ArgumentParser(add_help=False)
    mask.add_argument("--n", type=int, default=32, help="patch size in pixels")
    mask.add_argument("--b", type=int, default=4, help="sub-patch size in pixels")
    mask.add_argument("--T", type=int, default=2,
                      help="erased sub-patches per grid row (0 = keep everything)")
    mask.add_argument("--delta", type=int, default=1,
                      help="min extra intra-row distance between erased columns")
    mask.add_argument("--Delta", type=int, default=1,
                      help="min extra distance to the previous row's erased columns")
    mask.add_argument("--seed", type=int, default=0)
    codec = argparse.ArgumentParser(add_help=False)
    codec.add_argument("--codec", choices=["store", "external"], default="store")
    codec.add_argument("--codec-cmd", default=None,
                       help="encode command template, e.g. 'cjpeg -quality {quality}'")
    codec.add_argument("--codec-decode-cmd", default=None, help="decode command template")
    codec.add_argument("--quality", type=int, default=85,
                       help="substituted for {quality} in codec templates")

    p = sub.add_parser("compress", help="raster -> .easz container", parents=[mask, codec])
    p.add_argument("image")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", help="container (+ checkpoint) -> raster",
                       parents=[codec])
    p.add_argument("container")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser("train", help="train the reconstruction model on patches")
    p.add_argument("--data", required=True, help="directory of n x n .pgm/.ppm patches")
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--b", type=int, default=2)
    p.add_argument("--d-model", type=int, default=32)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--lr", type=float, default=2.8e-4)
    p.add_argument("--wd", type=float, default=0.05)
    p.add_argument("--erase-ratio", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="compare two rasters, key=value output")
    p.add_argument("reference")
    p.add_argument("candidate")
    p.add_argument("--container", default=None,
                   help="container file for bpp/saving_ratio columns")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("serve", help="run the reconstruction server", parents=[codec])
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=9464)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("send", help="compress a raster and ship it to a server",
                       parents=[mask, codec])
    p.add_argument("image")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=9464)
    p.set_defaults(func=cmd_send)

    p = sub.add_parser(
        "bench",
        help="sweep T and emit a CSV of rate/quality/stage timings",
        epilog=ATTN_COST_NOTE,
        parents=[mask, codec],
    )
    p.add_argument("image")
    p.add_argument("--T-list", default="0,1,2,4")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--attn-cost", action="store_true",
                   help="append the attention-cost estimate as a comment row")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        level = os.environ.get("EASZ_LOG", "warning")
        if not isinstance(logging.getLevelName(level.upper()), int):
            raise EaszError(f"EASZ_LOG={level!r} is not a logging level "
                            "(debug, info, warning, error)")
        logging.basicConfig(level=level.upper())
        return args.func(args)
    except (EaszError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
