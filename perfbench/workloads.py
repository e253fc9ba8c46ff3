"""The three benchmark workloads: edge_compress, server_decode and train.

Each workload function takes a Context and returns a Result.  Untraced runs
(ctx.trace False) fill Result.e2e, the end-to-end metrics; traced runs fill
Result.layers, the per-layer metrics.  Every operation's output is checked,
and a failed check counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import select
import shutil
import socket
import struct
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from easz.container import decode_container
from easz.image import load_raster, make_image, store_raster
from easz.pipeline import PipelineConfig, StageTimings, compress_bytes, decompress_bytes
from easz.transport import frame_read, frame_write

from tracing import Tracer

# Mask seeds come from one fixed stream shared by every workload seed.  One
# 8x8 mask costs from under 1 ms to over 200 ms (median 0.4 ms, mean 17 ms),
# so a run sees too few masks for per-seed draws to average out; the
# workload seed draws the pixels.  See README.md.
MASK_STREAM = 0

# SHA-256 over the first FROZEN_PAIRS explicit/seed container pairs of
# edge_compress at the default workload seed and full sizes.
DEFAULT_SEED = 0
FROZEN_PAIRS = 16
FROZEN_EDGE_SHA256 = "fa16bca74e533a2a228c1135909202cb3d372d2af9790879d307df085f28e485"

PIPE = PipelineConfig()  # n=32, b=4, T=2, delta=Delta=1

# server_decode: closed-loop connections (nproc of the 2-vCPU reference
# machine), and the fewest complete passes over the pool a run makes.
CLIENTS = 2
SERVER_PASSES = 3

# edge_compress and train time their set-up again before every this many
# passes; setup_s is the median over the run.
SETUP_EVERY = 4

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

# Per-layer metrics reported by traced runs: name -> (unit, better).
# A layer a workload does not exercise reports 0.
PER_LAYER = {
    "image.load_raster_ms": ("ms", "lower"),
    "image.patchify_ms": ("ms", "lower"),
    "mask.row_mask_ms": ("ms", "lower"),
    "squeeze.squeeze_ms": ("ms", "lower"),
    "container.encode_ms": ("ms", "lower"),
    "container.bytes_per_image": ("B", "lower"),
    "container.bpp": ("bit/px", "lower"),
    "container.decode_ms": ("ms", "lower"),
    "squeeze.unsqueeze_grid_ms": ("ms", "lower"),
    "model.reconstruct_grid_ms": ("ms", "lower"),
    "model.embed_ms": ("ms", "lower"),
    "model.encode_ms": ("ms", "lower"),
    "model.assemble_ms": ("ms", "lower"),
    "model.decode_ms": ("ms", "lower"),
    "model.passthrough_ms": ("ms", "lower"),
    "image.unpatchify_ms": ("ms", "lower"),
    "image.store_raster_ms": ("ms", "lower"),
    "transport.server_handle_ms": ("ms", "lower"),
    "transport.wait_ms": ("ms", "lower"),
    "transport.bytes_per_request": ("B", "lower"),
    "mask.training_mask_ms": ("ms", "lower"),
    "model.forward_ms": ("ms", "lower"),
    "model.loss_ms": ("ms", "lower"),
    "autodiff.backward_ms": ("ms", "lower"),
    "autodiff.adamw_step_ms": ("ms", "lower"),
    "autodiff.matmul_ms": ("ms", "lower"),
    "autodiff.gelu_ms": ("ms", "lower"),
    "autodiff.layer_norm_ms": ("ms", "lower"),
    "autodiff.softmax_ms": ("ms", "lower"),
    "model.forward_calls_per_request": ("count", "lower"),
    "model.graph_nodes_per_forward": ("count", "lower"),
    "model.gflop_per_request": ("GFLOP", "lower"),
    "model.achieved_gflop_per_s": ("GFLOP/s", "higher"),
    "pipeline.load_ms": ("ms", "lower"),
    "pipeline.erase_squeeze_ms": ("ms", "lower"),
    "pipeline.codec_encode_ms": ("ms", "lower"),
    "pipeline.codec_decode_ms": ("ms", "lower"),
    "pipeline.reconstruct_ms": ("ms", "lower"),
    "self.image_ms": ("ms", "lower"),
    "self.mask_ms": ("ms", "lower"),
    "self.squeeze_ms": ("ms", "lower"),
    "self.container_ms": ("ms", "lower"),
    "self.model_ms": ("ms", "lower"),
    "self.autodiff_ms": ("ms", "lower"),
    "self.transport_ms": ("ms", "lower"),
    "self.pipeline_ms": ("ms", "lower"),
    "trace.coverage": ("share", "higher"),
    "trace.overhead_ms": ("ms", "lower"),
}

LAYERS = ("image", "mask", "squeeze", "container", "model", "autodiff",
          "transport", "pipeline")

# Span names whose summed inclusive time per operation is a per-layer metric.
SPAN_METRICS = {
    "image.load_raster", "image.patchify", "mask.row_mask", "squeeze.squeeze",
    "container.encode", "container.decode", "squeeze.unsqueeze_grid",
    "model.reconstruct_grid", "model.embed", "model.encode", "model.assemble",
    "model.decode", "image.unpatchify", "image.store_raster",
    "mask.training_mask", "model.forward", "model.loss", "autodiff.backward",
    "autodiff.adamw_step", "autodiff.matmul", "autodiff.gelu",
    "autodiff.layer_norm", "autodiff.softmax",
}

EDGE_TARGETS = [
    ("easz.pipeline", "load_raster", "image.load_raster", None),
    ("easz.pipeline", "patchify", "image.patchify", None),
    ("easz.pipeline", "generate_row_mask", "mask.row_mask", None),
    ("easz.pipeline", "squeeze", "squeeze.squeeze", None),
    ("easz.pipeline", "encode_container", "container.encode", None),
]
AUTODIFF_PRIMITIVES = [
    ("matmul", "autodiff.matmul"), ("gelu", "autodiff.gelu"),
    ("layer_norm", "autodiff.layer_norm"), ("softmax_lastdim", "autodiff.softmax"),
]
MODEL_STAGES = [
    ("embed", "model.embed"), ("encode", "model.encode"),
    ("assemble", "model.assemble"), ("decode", "model.decode"),
]


@dataclass(frozen=True)
class Sizes:
    server_setups: int = 5  # server set-ups per run; setup_s is their median
    edge_side: int = 256
    edge_pool: int = 16
    edge_pairs: int = 50  # images per pass, each compressed in both mask modes
    server_side: int = 128
    server_images: int = 8  # each sent as an explicit and a seed-mode twin
    train_b: int = 1  # criterion-09 b=1: grid 16, grayscale
    train_d_model: int = 32
    train_calls: int = 4  # one-step train() calls per pass
    train_patches: int = 128


FULL = Sizes()
SMOKE = Sizes(server_setups=1, edge_side=64, edge_pool=2, edge_pairs=4, server_side=64,
              server_images=1, train_b=2, train_d_model=16, train_calls=2,
              train_patches=16)


@dataclass
class Context:
    root: Path
    out: Path
    seed: int
    seconds: float
    trace: bool
    sizes: Sizes


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    e2e: dict = field(default_factory=dict)  # end-to-end name -> value
    named: dict = field(default_factory=dict)  # workload-specific name -> (value, unit)
    layers: dict = field(default_factory=dict)  # per-layer name -> value
    info: dict = field(default_factory=dict)
    tracer: Tracer | None = None

    def fail(self, message: str):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def check(self, ok: bool, message: str):
        """Count one more operation; a false check is a failed one."""
        self.attempted += 1
        if not ok:
            self.fail(message)


# --- shared helpers ----------------------------------------------------------

def tail(samples_ms: list[float], n: int | None = None) -> tuple[float, float]:
    """Highest ladder percentile with at least ten of n samples beyond it.

    n defaults to the sample count; a workload whose count varies between
    runs passes the fewest it can have, so every run uses one percentile.
    """
    n = len(samples_ms) if n is None else n
    pct = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (100.0 - p) >= 1000.0 - 1e-9:  # n * (1 - p/100) >= 10, without rounding loss
            pct = p
    return pct, float(np.percentile(samples_ms, pct))


def latency_metrics(res: Result, samples_ms: list[float], n_tail: int | None = None):
    pct, value = tail(samples_ms, n_tail)
    res.e2e["p50_ms"] = float(np.median(samples_ms))
    res.e2e["tail_ms"] = value
    res.info["samples"] = len(samples_ms)
    res.info["tail_percentile"] = pct


def run_passes(seconds: float, run_pass, min_passes: int = 1, set_up=None,
               setup_s: list[float] | None = None) -> list[float]:
    """Repeat run_pass(i) over the same inputs while another pass fits.

    A pass starts only if, at the last pass's duration, it ends within
    `seconds`; at least min_passes run.  If given, set_up() is timed into
    setup_s before every SETUP_EVERY-th pass, so that set-up is sampled
    across the run rather than at one moment.  Returns the pass durations.
    """
    start = perf_counter()
    durations: list[float] = []
    while len(durations) < min_passes or \
            perf_counter() - start + durations[-1] <= seconds:
        t0 = perf_counter()
        if set_up is not None and durations and len(durations) % SETUP_EVERY == 0:
            set_up()
            setup_s.append(perf_counter() - t0)
        run_pass(len(durations))
        durations.append(perf_counter() - t0)
    return durations


def pass_medians(per_op: list[list[float]]) -> list[float]:
    """Median latency of each untraced pass; shows how the host's speed moved."""
    passes = min(len(v) for v in per_op) if per_op else 0
    return [round(median([v[i] for v in per_op]), 3) for i in range(passes)]


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def median(values):
    return float(np.median(values))


def mask_seeds():
    """The fixed mask-seed stream (independent of the workload seed)."""
    rng = np.random.default_rng(MASK_STREAM)
    while True:
        yield int(rng.integers(0, 2**63 - 1))


def make_rasters(seed: int, count: int, side: int, channels: int = 3):
    """Seeded smooth-gradient-plus-noise images: [(PPM bytes, pixels)]."""
    rng = np.random.default_rng([seed, side, count])
    yy, xx = np.mgrid[0:side, 0:side] / (side - 1.0)
    out = []
    for _ in range(count):
        a = rng.uniform(-1, 1, (3, channels))
        base = 0.5 + 0.25 * (a[0] * xx[..., None] + a[1] * yy[..., None]
                             + a[2] * (xx * yy)[..., None])
        noisy = np.clip(base + rng.normal(0.0, 0.08, base.shape), 0.0, 1.0)
        img = make_image(np.rint(noisy * 255).astype(np.uint8))
        out.append((store_raster(img), img.pixels))
    return out


def kept_pixels(bits: np.ndarray, n: int, b: int, height: int, width: int) -> np.ndarray:
    """Boolean (height, width) map of the pixels a mask keeps."""
    patch = np.kron(bits.astype(bool), np.ones((b, b), dtype=bool))
    return np.tile(patch, (height // n, width // n))


def check_twins(frame_e: bytes, frame_s: bytes, src: np.ndarray, n: int, b: int) -> str | None:
    """Gate an explicit-mask container and its seed-mode twin.

    The seed-mode frame must regenerate the explicit frame's mask and carry
    the same squeezed pixels, and the explicit frame must decode without a
    model to the source's kept pixels.  decompress_bytes is a function of
    decode_container's output, so the twin then decodes to the same bytes.
    """
    sq_e, mask_e, _ = decode_container(frame_e)
    sq_s, mask_s, _ = decode_container(frame_s)
    if mask_s != mask_e:
        return "seed-mode mask differs from its explicit twin"
    geom = ("patch_size_n", "subpatch_size_b", "erased_per_row", "patch_rows",
            "patch_cols", "orig_height", "orig_width")
    if any(getattr(sq_e, g) != getattr(sq_s, g) for g in geom) or \
            not np.array_equal(sq_e.pixels, sq_s.pixels):
        return "seed-mode container differs from its explicit twin"
    out = load_raster(decompress_bytes(frame_e)).pixels
    keep = kept_pixels(mask_e.bits, n, b, src.shape[0], src.shape[1])
    if out.shape != src.shape or not np.array_equal(out[keep], src[keep]):
        return "kept pixels are not byte-exact after a model-free decode"
    return None


def per_op_layers(res: Result, tr: Tracer, roots: set[str], ops: int):
    """Turn the tracer's spans into per-operation per-layer metrics."""
    s = tr.summary(roots)
    for name in SPAN_METRICS:
        res.layers[name + "_ms"] = s["total_ms"].get(name, 0.0) / ops
    for layer in LAYERS:
        own = sum(v for k, v in s["self_ms"].items() if k.split(".")[0] == layer)
        res.layers[f"self.{layer}_ms"] = own / ops
    res.layers["trace.coverage"] = s["coverage"]
    res.info["traced_ops"] = ops
    res.info["traced_root_ms"] = s["root_ms"]
    res.info["span_counts"] = s["count"]
    res.info["untraced_attributes"] = sorted(tr.missing)
    return s


class ModelProbe:
    """Counts matmul FLOPs and the autodiff graph of the first forward."""

    def __init__(self):
        self.flop = 0
        self.graph_nodes = None

    def on_matmul(self, args, out):
        self.flop += 2 * out.data.size * args[0].shape[-1]

    def on_forward(self, _args, out):
        if self.graph_nodes is None:
            self.graph_nodes = graph_nodes(out)

    def targets(self, forward_module: str | None):
        t = [("easz.autodiff", attr, name,
              self.on_matmul if attr == "matmul" else None)
             for attr, name in AUTODIFF_PRIMITIVES]
        t += [("easz.model", attr, name, None) for attr, name in MODEL_STAGES]
        if forward_module:
            t.append((forward_module, "forward_tokens", "model.forward", self.on_forward))
        return t


def gflop_per_s(probe: ModelProbe, summary: dict, span: str) -> float:
    ms = summary["total_ms"].get(span, 0.0)
    return probe.flop / 1e9 / (ms / 1000.0) if ms else 0.0


def graph_nodes(t) -> int:
    """Autodiff nodes (tensors holding a backward closure) reachable from t."""
    seen, stack, count = set(), [t], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        count += getattr(node, "_backward", None) is not None
        stack.extend(getattr(node, "_parents", ()))
    return count


# --- edge_compress -------------------------------------------------------------

def edge_compress(ctx: Context) -> Result:
    sz = ctx.sizes
    res = Result()
    t0 = perf_counter()
    pool = make_rasters(ctx.seed, sz.edge_pool, sz.edge_side)
    setup = [perf_counter() - t0]
    seeds = mask_seeds()
    pairs = [(i % len(pool), next(seeds)) for i in range(sz.edge_pairs)]
    untraced = [[] for _ in range(2 * len(pairs))]  # per op: one latency per pass
    traced = [[] for _ in range(2 * len(pairs))]
    digests, sizes = {}, []
    stage_totals = StageTimings()
    tr = Tracer() if ctx.trace else None
    frozen = ctx.seed == DEFAULT_SEED and sz == FULL
    sha = hashlib.sha256()

    def run_pair(p: int, first: bool, tracer: Tracer | None):
        """Compress one image in both mask modes and check the two containers."""
        idx, mseed = pairs[p]
        raster, src = pool[idx]
        sink = untraced if tracer is None else traced
        frames = []
        try:
            for mode in (0, 1):
                cfg = PipelineConfig(seed=mseed, mask_mode=mode)
                t0 = perf_counter()
                if tracer is None:
                    frame = compress_bytes(raster, cfg, stage_totals)
                else:
                    tracer.rid = 2 * p + mode
                    with tracer.span("pipeline.compress"):
                        frame = compress_bytes(raster, cfg)
                sink[2 * p + mode].append((perf_counter() - t0) * 1000.0)
                frames.append(frame)
            digest = hashlib.sha256(frames[0] + frames[1]).digest()
            if first:
                err = check_twins(frames[0], frames[1], src, PIPE.n, PIPE.b)
                digests[p] = digest
                sizes.append((len(frames[0]) + len(frames[1])) / 2.0)
                if frozen and p < FROZEN_PAIRS:
                    sha.update(frames[0] + frames[1])
            else:
                err = None if digest == digests.get(p) else "containers differ between passes"
        except Exception as exc:  # a compress or decode that raises fails the pair
            err = f"{type(exc).__name__}: {exc}"
        for _ in range(2):
            res.check(err is None, f"pair {p}: {err}")

    def run_pass(i: int):
        # A traced run alternates untraced and traced passes.
        tracer = tr if ctx.trace and i % 2 == 1 else None
        if tracer is None:
            for p in range(len(pairs)):
                run_pair(p, i == 0, None)
        else:
            with tracer.patch(EDGE_TARGETS):
                for p in range(len(pairs)):
                    run_pair(p, False, tracer)

    npasses = len(run_passes(ctx.seconds, run_pass, 3,
                             lambda: make_rasters(ctx.seed, sz.edge_pool, sz.edge_side), setup))
    res.info["passes"] = npasses
    if frozen:
        got = sha.hexdigest()
        res.info["containers_sha256"] = got
        if got != FROZEN_EDGE_SHA256:
            res.fail(f"edge containers SHA-256 {got} != frozen {FROZEN_EDGE_SHA256}")

    pixels = sz.edge_side * sz.edge_side
    bpp = float(np.mean(sizes)) * 8.0 / pixels
    res.info["pass_p50_ms"] = pass_medians(untraced)
    res.e2e["setup_s"] = median(setup)
    res.e2e["peak_rss_mb"] = peak_rss_mb(os.getpid())
    if not ctx.trace:
        # The host runs the same work fast or up to twice as slow, in
        # stretches of seconds, and a compression is shorter than a stretch.
        # Every run has slow stretches but not every run has fast ones, so an
        # operation counts its second-slowest pass after the first, warm-up
        # pass; the second, so that one stray stall does not count (see
        # README.md).  An operation that failed has fewer samples.
        per_op = [sorted(v[1:])[-2] for v in untraced if len(v) > 2]
        latency_metrics(res, per_op)
        res.e2e["ops_per_s"] = len(per_op) / (sum(per_op) / 1000.0)
        res.named = {
            "compress_p50_ms": (res.e2e["p50_ms"], "ms"),
            "compress_tail_ms": (res.e2e["tail_ms"], "ms"),
            "compress_mpix_per_s": (res.e2e["ops_per_s"] * pixels / 1e6, "Mpix/s"),
            "container_bpp": (bpp, "bit/px"),
            "peak_rss_mb": (res.e2e["peak_rss_mb"], "MB"),
            "setup_s": (res.e2e["setup_s"], "s"),
        }
        return res

    ops = sum(len(v) for v in traced)
    per_op_layers(res, tr, {"pipeline.compress"}, ops)
    res.layers["trace.overhead_ms"] = float(np.mean(
        [min(t) - min(u) for t, u in zip(traced, untraced) if t and u]))
    res.layers["container.bytes_per_image"] = float(np.mean(sizes))
    res.layers["container.bpp"] = bpp
    untraced_ops = sum(len(v) for v in untraced)
    for stage in ("load", "erase_squeeze", "codec_encode"):
        res.layers[f"pipeline.{stage}_ms"] = stage_totals.stages.get(stage, 0.0) / untraced_ops
    res.tracer = tr
    return res


# --- server_decode -------------------------------------------------------------

def parse_status(body: bytes) -> tuple[int, str, dict]:
    """Status frame: code u8, message length u32, message, JSON timings."""
    code, msg_len = struct.unpack_from(">BI", body, 0)
    message = body[5:5 + msg_len].decode(errors="replace")
    rest = body[5 + msg_len:]
    return code, message, json.loads(rest) if rest else {}


class Server:
    """`python -m easz.cli serve` as a child process of the benchmark."""

    def __init__(self, ctx: Context, checkpoint: Path, out_dir: Path):
        env = dict(os.environ)
        src = str(ctx.root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "easz.cli", "serve", "--port", "0",
             "--checkpoint", str(checkpoint), "--out-dir", str(out_dir)],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, cwd=ctx.root, env=env)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
            line = self.proc.stdout.readline().decode() if ready else ""
            m = re.search(r"serving on [^:]+:(\d+),", line)
            if not m:
                raise RuntimeError(f"server did not report ready: {line!r}")
            self.port = int(m.group(1))
        except BaseException:
            self.stop()
            raise

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def send(port: int, frame: bytes) -> tuple[int, str, dict]:
    with socket.create_connection(("127.0.0.1", port), timeout=120) as sock:
        frame_write(sock, frame)
        return parse_status(frame_read(sock))


def server_decode(ctx: Context) -> Result:
    from easz.model import default_config, init_params, load_checkpoint, save_checkpoint

    sz = ctx.sizes
    res = Result()
    out_dir = ctx.out / f"server-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / "model.ckpt"
    setup, server = [], None
    try:
        for i in range(sz.server_setups):
            t0 = perf_counter()
            images = make_rasters(ctx.seed, sz.server_images, sz.server_side)
            seeds = mask_seeds()
            frames, sources = [], []
            for raster, src in images:
                mseed = next(seeds)
                for mode in (0, 1):
                    frames.append(compress_bytes(raster, PipelineConfig(seed=mseed, mask_mode=mode)))
                    sources.append(src)
            mcfg = default_config()
            blob = save_checkpoint(init_params(mcfg, seed=ctx.seed), mcfg)
            ckpt_path.write_bytes(blob)
            server = Server(ctx, ckpt_path, out_dir / "recv")
            setup.append(perf_counter() - t0)
            if i < sz.server_setups - 1:
                server.stop()
                server = None
        res.e2e["setup_s"] = median(setup)

        # Reference outputs: in-process decode on this commit.  A seed-mode
        # twin that passes check_twins decodes to its explicit twin's bytes.
        model = load_checkpoint(blob)
        expected = []
        for k in range(0, len(frames), 2):
            err = check_twins(frames[k], frames[k + 1], sources[k], PIPE.n, PIPE.b)
            raster = decompress_bytes(frames[k], model)
            keep = kept_pixels(decode_container(frames[k])[1].bits, PIPE.n, PIPE.b,
                               sz.server_side, sz.server_side)
            if err is None and not np.array_equal(load_raster(raster).pixels[keep], sources[k][keep]):
                err = "kept pixels are not byte-exact after reconstruction"
            res.check(err is None, f"pool frame {k}: {err}")
            expected += [raster, raster]

        def run_clients(min_requests: int, deadline: float) -> list[tuple]:
            """Closed loop: each client sends the next frame once the last is answered."""
            records = []  # (k, send time, latency ms, status json, bytes sent, error)
            lock = threading.Lock()
            counter = iter(range(1 << 62))

            def client():
                while True:
                    with lock:
                        k = next(counter)
                    if k >= min_requests and perf_counter() >= deadline:
                        return
                    frame = frames[k % len(frames)]
                    t0 = perf_counter()
                    err, status = None, {}
                    try:
                        code, message, status = send(server.port, frame)
                        latency = (perf_counter() - t0) * 1000.0
                        if code != 0:
                            err = f"server error: {message}"
                        else:
                            got = Path(message).read_bytes()
                            Path(message).unlink()
                            if got != expected[k % len(frames)]:
                                err = "server raster differs from in-process decompress_bytes"
                    except Exception as exc:
                        latency = (perf_counter() - t0) * 1000.0
                        err = f"{type(exc).__name__}: {exc}"
                    with lock:
                        records.append((k, t0, latency, status, len(frame) + 8, err))

            threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for r in records:
                res.check(r[5] is None, f"request {r[0]}: {r[5]}")
            return records

        run_clients(CLIENTS, 0.0)  # warm-up: one request per connection
        budget = ctx.seconds * (0.4 if ctx.trace else 1.0)
        timed = run_clients(SERVER_PASSES * len(frames), perf_counter() + budget)
        res.e2e["peak_rss_mb"] = peak_rss_mb(server.proc.pid)
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(out_dir, ignore_errors=True)

    if not ctx.trace:
        # Requests k // len(frames) form one pass over the pool.  Latencies
        # pool over every complete pass; throughput is the median pass's.
        passes: dict[int, list] = {}
        for r in timed:
            passes.setdefault(r[0] // len(frames), []).append(r)
        full = [g for g in passes.values() if len(g) == len(frames)]
        lat = [r[2] for g in full for r in g if r[5] is None]
        latency_metrics(res, lat, SERVER_PASSES * len(frames))
        res.e2e["ops_per_s"] = median([
            sum(r[5] is None for r in g)
            / (max(r[1] + r[2] / 1000.0 for r in g) - min(r[1] for r in g)) for g in full])
        res.info["passes"] = len(full)
        res.named = {
            "decode_p50_ms": (res.e2e["p50_ms"], "ms"),
            "decode_tail_ms": (res.e2e["tail_ms"], "ms"),
            "decode_req_per_s": (res.e2e["ops_per_s"], "1/s"),
            "peak_rss_mb": (res.e2e["peak_rss_mb"], "MB"),
            "setup_s": (res.e2e["setup_s"], "s"),
        }
        return res

    # Transport split from the status frames of the untraced server.
    ok = [r for r in timed if r[5] is None]
    handle = [r[3].get("end_to_end", 0.0) for r in ok]
    res.layers["transport.server_handle_ms"] = float(np.mean(handle))
    res.layers["transport.wait_ms"] = float(np.mean([r[2] for r in ok])) - res.layers["transport.server_handle_ms"]
    res.layers["transport.bytes_per_request"] = float(np.mean([r[4] for r in timed]))
    for stage in ("codec_decode", "reconstruct"):
        res.layers[f"pipeline.{stage}_ms"] = float(np.mean([r[3]["stages"].get(stage, 0.0) for r in ok]))

    # In-process replay of the server's steps: untraced, then traced.
    replay_budget = ctx.seconds * 0.25
    order, untraced = [], []
    t_start = perf_counter()
    while perf_counter() - t_start < replay_budget or not order:
        k = len(order) % len(frames)
        order.append(k)
        t0 = perf_counter()
        out = decompress_bytes(frames[k], model)
        untraced.append((perf_counter() - t0) * 1000.0)
        res.check(out == expected[k], f"replay frame {k}: output differs")
    tr = Tracer()
    for r in ok:
        tr.record("transport.request", r[1], r[1] + r[2] / 1000.0, r[0])
    probe = ModelProbe()
    targets = [("easz.pipeline", "decode_container", "container.decode", None),
               ("easz.container", "generate_row_mask", "mask.row_mask", None),
               ("easz.pipeline", "unsqueeze_grid", "squeeze.unsqueeze_grid", None),
               ("easz.model", "reconstruct_grid", "model.reconstruct_grid", None),
               ("easz.model", "decode_and_reconstruct", "model.patch", None),
               ("easz.pipeline", "unpatchify", "image.unpatchify", None),
               ("easz.pipeline", "store_raster", "image.store_raster", None)]
    targets += probe.targets("easz.model")
    traced = []
    with tr.patch(targets):
        for i, k in enumerate(order):
            tr.rid = i
            t0 = perf_counter()
            with tr.span("pipeline.decompress"):
                out = decompress_bytes(frames[k], model)
            traced.append((perf_counter() - t0) * 1000.0)
            res.check(out == expected[k], f"traced replay frame {k}: output differs")
    ops = len(order)
    s = per_op_layers(res, tr, {"pipeline.decompress"}, ops)
    res.layers["self.transport_ms"] = s["self_ms"].get("transport.request", 0.0) / max(1, len(ok))
    res.layers["model.passthrough_ms"] = s["self_ms"].get("model.patch", 0.0) / ops
    res.layers["model.forward_calls_per_request"] = s["count"].get("model.forward", 0) / ops
    res.layers["model.graph_nodes_per_forward"] = probe.graph_nodes or 0
    res.layers["model.gflop_per_request"] = probe.flop / ops / 1e9
    res.layers["model.achieved_gflop_per_s"] = gflop_per_s(probe, s, "model.reconstruct_grid")
    res.layers["trace.overhead_ms"] = (sum(traced) - sum(untraced)) / ops
    res.layers["container.bytes_per_image"] = float(np.mean([len(f) for f in frames]))
    res.layers["container.bpp"] = res.layers["container.bytes_per_image"] * 8.0 / sz.server_side ** 2
    res.tracer = tr
    return res


# --- train ---------------------------------------------------------------------

def synth_patches(seed: int, count: int, side: int = 16) -> np.ndarray:
    """Seeded grayscale patches: half smooth gradients, half stripes, plus noise."""
    rng = np.random.default_rng([seed, side, count])
    yy, xx = np.mgrid[0:side, 0:side] / (side - 1.0)
    out = np.empty((count, side, side, 1), dtype=np.uint8)
    for i in range(count):
        if i % 2 == 0:
            a, b, c = rng.uniform(-1, 1, 3)
            base = 0.5 + 0.25 * (a * xx + b * yy + c * xx * yy)
        else:
            f, ph, ang = rng.uniform(0.5, 2.0), rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi)
            base = 0.5 + 0.4 * np.sin(2 * np.pi * f * (xx * np.cos(ang) + yy * np.sin(ang)) + ph)
        out[i, :, :, 0] = np.rint(np.clip(base + rng.normal(0, 0.03, base.shape), 0, 1) * 255)
    return out


def replay_train(dataset, cfg, settings, tr: Tracer, probe: ModelProbe, rid) -> list[float]:
    """train(), step by step through public functions, with spans per stage."""
    from easz.autodiff import AdamW, Tensor
    from easz.model import (forward_tokens, init_params, loss, patch_to_tokens,
                            sample_training_mask)

    rng = np.random.default_rng(settings.seed)
    params = init_params(cfg, seed=settings.seed)
    opt = AdamW(lr=settings.learning_rate, weight_decay=settings.weight_decay)
    tokens_all = np.stack([patch_to_tokens(p, cfg.subpatch_b) for p in dataset])
    losses = []
    for step in range(settings.steps):
        tr.rid = (rid, step)
        with tr.span("model.train_step"):
            idx = rng.integers(0, dataset.shape[0],
                               size=min(settings.batch_size, dataset.shape[0]))
            batch = Tensor(tokens_all[idx])
            mask_seed = int(rng.integers(0, 2**63 - 1))
            with tr.span("mask.training_mask"):
                mask = sample_training_mask(cfg, settings.erase_ratio, mask_seed,
                                            settings.mask_style)
            with tr.span("model.forward"):
                pred = forward_tokens(batch, mask, params, cfg)
            probe.on_forward(None, pred)
            with tr.span("model.loss"):
                step_loss = loss(pred, batch, settings.lam, settings.perceptual)
            losses.append(float(step_loss.data))
            for p in params.values():
                p.zero_grad()
            with tr.span("autodiff.backward"):
                step_loss.backward()
            with tr.span("autodiff.adamw_step"):
                opt.step(params)
    return losses


def train_workload(ctx: Context) -> Result:
    from easz.model import ModelConfig, TrainSettings, train

    sz = ctx.sizes
    res = Result()
    t0 = perf_counter()
    dataset = synth_patches(ctx.seed, sz.train_patches)
    setup = [perf_counter() - t0]
    cfg = ModelConfig(subpatch_b=sz.train_b, channels=1, d_model=sz.train_d_model,
                      grid_side=16 // sz.train_b, heads=2, ffn_multiplier=2)
    # One pass is train_calls one-step train() calls; call i uses train seed
    # MASK_STREAM + i, which fixes its batch and its training mask.
    calls = [TrainSettings(steps=1, seed=MASK_STREAM + i, batch_size=8, erase_ratio=0.25)
             for i in range(sz.train_calls)]
    untraced = [[] for _ in calls]  # per call: one latency per pass
    losses: list = [None] * len(calls)

    def run_pass(_i: int):
        for c, settings in enumerate(calls):
            t0 = perf_counter()
            try:
                _params, trace = train(dataset, cfg, settings)
                untraced[c].append((perf_counter() - t0) * 1000.0)
                if not all(np.isfinite(trace)):
                    err = "non-finite loss"
                elif losses[c] is not None and trace != losses[c]:
                    err = "train() is not deterministic across identical calls"
                else:
                    err = None
                losses[c] = trace
            except Exception as exc:
                err = f"{type(exc).__name__}: {exc}"
            res.check(err is None, f"train call {c}: {err}")

    npasses = len(run_passes(ctx.seconds * (0.5 if ctx.trace else 1.0), run_pass, 1,
                             lambda: synth_patches(ctx.seed, sz.train_patches), setup))
    res.info["passes"] = npasses
    res.e2e["setup_s"] = median(setup)
    res.e2e["peak_rss_mb"] = peak_rss_mb(os.getpid())
    # A call (0.25-1.4 s) is not much shorter than the host's fast and slow
    # stretches, so its fastest pass is itself an average over both speeds;
    # it was steadier here than the second-slowest (see README.md).
    best = [min(v) for v in untraced if v]
    res.info["pass_p50_ms"] = pass_medians(untraced)
    if not ctx.trace:
        latency_metrics(res, best)
        res.e2e["ops_per_s"] = len(best) / (sum(best) / 1000.0)
        res.named = {
            "train_steps_per_s": (res.e2e["ops_per_s"], "1/s"),
            "peak_rss_mb": (res.e2e["peak_rss_mb"], "MB"),
            "setup_s": (res.e2e["setup_s"], "s"),
        }
        return res

    tr = Tracer()
    probe = ModelProbe()
    traced = []
    with tr.patch(probe.targets(None)):
        for c, settings in enumerate(calls):
            t0 = perf_counter()
            replayed = replay_train(dataset, cfg, settings, tr, probe, c)
            traced.append((perf_counter() - t0) * 1000.0)
            res.check(losses[c] is not None and replayed == losses[c],
                      f"replay of call {c}: losses {replayed} differ from train()")
    ops = len(calls)
    s = per_op_layers(res, tr, {"model.train_step"}, ops)
    res.layers["model.forward_calls_per_request"] = s["count"].get("model.forward", 0) / ops
    res.layers["model.graph_nodes_per_forward"] = probe.graph_nodes or 0
    res.layers["model.gflop_per_request"] = probe.flop / ops / 1e9
    res.layers["model.achieved_gflop_per_s"] = gflop_per_s(probe, s, "model.forward")
    res.layers["trace.overhead_ms"] = float(np.mean(
        [t - min(u) for t, u in zip(traced, untraced) if u]))
    res.tracer = tr
    return res


WORKLOADS = {
    "edge_compress": edge_compress,
    "server_decode": server_decode,
    "train": train_workload,
}
