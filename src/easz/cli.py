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
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .container import ExternalCodec, bpp, image_size
from .errors import EaszError, ParameterError
from .image import DEFAULT_B, load_raster, padded_size, store_raster
from .metrics import ATTN_COST_NOTE, QualityReport, attn_cost, mse, psnr, saving_ratio, ssim
from .pipeline import (HOST, PORT, STAGES, PipelineConfig, StageTimings,
                       compress_bytes, decompress_bytes)


def _from_flags(cls, args, **fixed):
    """cls(**fixed) plus each flag whose dest is a field of cls; flags left out
    are absent from args (argparse.SUPPRESS), so cls's own defaults apply."""
    names = {f.name for f in fields(cls)} - fixed.keys()
    return cls(**{k: v for k, v in vars(args).items() if k in names}, **fixed)


def _codec(args) -> ExternalCodec | None:
    return _from_flags(ExternalCodec, args) if args.codec == "external" else None


def _pipeline_config(args) -> PipelineConfig:
    return _from_flags(PipelineConfig, args, codec=_codec(args))


def _load_model(path: str | None):
    if path is None:
        return None
    from .model import load_checkpoint

    return load_checkpoint(Path(path).read_bytes())


def cmd_compress(args) -> int:
    cfg = _pipeline_config(args)
    frame = compress_bytes(Path(args.image).read_bytes(), cfg)
    Path(args.out).write_bytes(frame)
    print(f"wrote {args.out}: {len(frame)} bytes, "
          f"bpp={bpp(len(frame), *image_size(frame)):.4f}")
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

    settings = _from_flags(TrainSettings, args)
    if settings.steps < 1:
        raise EaszError(f"--steps must be >= 1, got {settings.steps}")
    patches = _load_patch_dir(Path(args.data))
    n = patches.shape[1]
    if args.b < 1 or n % args.b:
        raise ParameterError(f"--b must be >= 1 and divide the patch size {n}, got {args.b}")
    cfg = _from_flags(ModelConfig, args, subpatch_b=args.b, channels=patches.shape[3],
                      grid_side=n // args.b)
    params, trace = train(patches, cfg, settings)
    Path(args.out).write_bytes(save_checkpoint(params, cfg))
    print(f"steps={len(trace)} initial_loss={trace[0]:.6f} final_loss={trace[-1]:.6f}")
    print(f"wrote {args.out}")
    return 0


def _load_patch_dir(root: Path) -> np.ndarray:
    """Stack the .pgm/.ppm patches under root; the first fixes the shape."""
    patches = []
    for path in sorted(root.iterdir()):
        if path.suffix.lower() not in (".pgm", ".ppm"):
            continue
        px = load_raster(path.read_bytes()).pixels
        h, w, c = px.shape
        want = patches[0].shape if patches else (h, h, c)
        if px.shape != want:
            raise EaszError(f"{path.name}: patch is {h}x{w}x{c}, "
                            f"want {'x'.join(map(str, want))}")
        patches.append(px)
    if not patches:
        raise EaszError(f"no .pgm/.ppm patches under {root}")
    return np.stack(patches)


def cmd_eval(args) -> int:
    a = load_raster(Path(args.reference).read_bytes())
    b = load_raster(Path(args.candidate).read_bytes())
    rate = save = 0.0
    if args.container:
        size = Path(args.container).stat().st_size
        rate = bpp(size, a.height, a.width)
        save = saving_ratio(len(store_raster(a)), size)
    report = QualityReport(mse(a, b), psnr(a, b), ssim(a, b), rate, save)
    sys.stdout.write(report.as_lines())
    return 0


def cmd_serve(args) -> int:
    from .transport import ReconstructionServer, one_blas_thread

    server = ReconstructionServer(args.port, args.checkpoint, args.out_dir,
                                  host=args.host, codec=_codec(args))
    if args.checkpoint is not None:
        one_blas_thread()  # concurrent requests decode in parallel
    print(f"serving on {args.host}:{server.port}, output dir {args.out_dir}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
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
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    out.write("# easz bench csv v1\n")
    writer = csv.writer(out)
    writer.writerow(["T", "container_bytes", "bpp", "psnr", "ssim",
                     "saving_ratio"] + [f"{s}_ms" for s in STAGES])
    for t in args.T_list:
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
        h, w = padded_size(img.height, img.width, cfg0.n)
        pixel, two_stage, factor = attn_cost(h, w, cfg0.n, cfg0.b)
        out.write(f"# attn_cost pixel_token={pixel} two_stage={two_stage} "
                  f"reduction={factor:.1f}\n")
    if args.out:
        out.close()
        print(f"wrote {args.out}")
    return 0


def _int_list(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"want comma-separated integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="easz",
        description="Erase-and-squeeze image coding with transformer "
                    "reconstruction on the receiver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Containers describe their own geometry and mask, so the mask flags go
    # only to subcommands that compress.  A flag whose dest is a field of a
    # library config defaults to that field (see _from_flags).
    mask = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    mask.add_argument("--n", type=int, help="patch size in pixels")
    mask.add_argument("--b", type=int, help="sub-patch size in pixels")
    mask.add_argument("--T", type=int, dest="erased_per_row",
                      help="erased sub-patches per grid row (0 = keep everything)")
    mask.add_argument("--delta", type=int, dest="intra_row_delta",
                      help="min extra intra-row distance between erased columns")
    mask.add_argument("--Delta", type=int, dest="inter_row_delta",
                      help="min extra distance to the previous row's erased columns")
    mask.add_argument("--seed", type=int)
    codec = argparse.ArgumentParser(add_help=False)
    codec.add_argument("--codec", choices=["store", "external"], default="store")
    # "" not None: shlex.split(None) would read stdin
    codec.add_argument("--codec-cmd", dest="encode_cmd", default="",
                       help="encode command template, e.g. 'cjpeg -quality {quality}'")
    codec.add_argument("--codec-decode-cmd", dest="decode_cmd", default="",
                       help="decode command template")
    codec.add_argument("--quality", type=int, default=argparse.SUPPRESS,
                       help="substituted for {quality} in codec templates")
    address = argparse.ArgumentParser(add_help=False)
    address.add_argument("--host", default=HOST)
    address.add_argument("--port", type=int, default=PORT)

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

    p = sub.add_parser("train", help="train the reconstruction model on patches",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--data", required=True, help="directory of n x n .pgm/.ppm patches")
    p.add_argument("--b", type=int, default=DEFAULT_B, help="sub-patch size; divides n")
    p.add_argument("--d-model", type=int, default=32)
    p.add_argument("--heads", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--batch", type=int, dest="batch_size")
    p.add_argument("--lr", type=float, dest="learning_rate")
    p.add_argument("--wd", type=float, dest="weight_decay")
    p.add_argument("--erase-ratio", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="compare two rasters, key=value output")
    p.add_argument("reference")
    p.add_argument("candidate")
    p.add_argument("--container", default=None,
                   help="container file for bpp/saving_ratio columns")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("serve", help="run the reconstruction server",
                       parents=[address, codec])
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("send", help="compress a raster and ship it to a server",
                       parents=[mask, address, codec])
    p.add_argument("image")
    p.set_defaults(func=cmd_send)

    p = sub.add_parser(
        "bench",
        help="sweep T and emit a CSV of rate/quality/stage timings",
        epilog=ATTN_COST_NOTE,
        parents=[mask, codec],
    )
    p.add_argument("image")
    p.add_argument("--T-list", type=_int_list, default="0,1,2,4",
                   help="comma-separated values of T to sweep")
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
