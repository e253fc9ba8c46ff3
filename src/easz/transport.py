"""Loopback-friendly TCP transport: length-prefixed frames, an edge client,
and a threaded server that reconstructs incoming containers.

One request per connection: the edge connects, writes a single container
frame, reads a single status frame, and closes.  Status frame body:
1-byte code (0 = OK), u32 message length, UTF-8 message, then a JSON blob
of server-side stage timings in milliseconds.
"""

from __future__ import annotations

import ctypes
import json
import socket
import socketserver
import struct
import threading
import time
from pathlib import Path

from .container import ExternalCodec
from .errors import TransportError
from .pipeline import HOST, PipelineConfig, StageTimings, compress_bytes, decompress_bytes

FRAME_CAP = 1 << 30  # 1 GiB
TIMEOUT_S = 30.0  # per-connection socket timeout, on the server and the edge
STATUS_OK = 0
STATUS_ERROR = 1
# Thread-count functions of OpenBLAS builds, in order of preference: numpy's
# wheels (scipy-openblas, 64-bit ints), other 64-bit builds, plain builds.
_OPENBLAS_THREADS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads")


def frame_write(stream, body: bytes):
    if len(body) > FRAME_CAP:
        raise TransportError(f"frame of {len(body)} bytes exceeds cap {FRAME_CAP}")
    stream.sendall(struct.pack(">Q", len(body)) + body)


def _read_exact(stream, n: int) -> bytes:
    chunks = []
    got = 0
    while got < n:
        chunk = stream.recv(min(65536, n - got))
        if not chunk:
            raise TransportError(f"EOF mid-frame: wanted {n} bytes, got {got}")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def frame_read(stream) -> bytes:
    (length,) = struct.unpack(">Q", _read_exact(stream, 8))
    if length > FRAME_CAP:
        raise TransportError(f"declared frame length {length} exceeds cap {FRAME_CAP}")
    return _read_exact(stream, length)


def _pack_status(code: int, message: str, timings: StageTimings) -> bytes:
    msg = message.encode()
    blob = json.dumps({"stages": timings.stages, "end_to_end": timings.end_to_end}).encode()
    return struct.pack(">BI", code, len(msg)) + msg + blob


def _unpack_status(body: bytes) -> tuple[int, str, StageTimings]:
    try:
        code, msg_len = struct.unpack_from(">BI", body, 0)
        if 5 + msg_len > len(body):
            raise TransportError(f"status message length {msg_len} overruns the body")
        msg = body[5 : 5 + msg_len].decode(errors="replace")
        timings = StageTimings()
        rest = body[5 + msg_len :]
        if rest:
            parsed = json.loads(rest)
            timings.stages = {k: float(v) for k, v in parsed.get("stages", {}).items()}
            timings.end_to_end = float(parsed.get("end_to_end", 0.0))
    except (struct.error, ValueError, TypeError, AttributeError) as exc:
        raise TransportError(f"malformed status body of {len(body)} bytes: {exc}") from None
    return code, msg, timings


def _mapped_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return []
    return sorted({f[5].strip() for f in fields
                   if len(f) == 6 and "openblas" in f[5].rsplit("/", 1)[-1]})


def _openblas_threads(verb: str) -> list:
    """The "set" or "get" thread-count function of each mapped OpenBLAS
    that exports one."""
    calls = []
    for path in _mapped_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # the file was removed or replaced since it was mapped
            continue
        fn = next((getattr(lib, name.format(verb)) for name in _OPENBLAS_THREADS
                   if hasattr(lib, name.format(verb))), None)
        if fn is not None:
            fn.argtypes, fn.restype = ([ctypes.c_int], None) if verb == "set" else ([], ctypes.c_int)
            calls.append(fn)
    return calls


def one_blas_thread():
    """Run OpenBLAS on one thread for good, so that concurrent requests each
    get a core instead of contending for one GEMM pool (`easz serve`)."""
    for set_threads in _openblas_threads("set"):
        set_threads(1)


class ReconstructionServer(socketserver.ThreadingTCPServer):
    """Threaded TCP server decoding containers and writing rasters.

    The checkpoint is loaded once and shared read-only by all connection
    threads.  A malformed frame, or a peer silent for TIMEOUT_S, produces
    an error status on that connection; the server keeps serving others.
    It leaves BLAS threading alone; `easz serve` calls one_blas_thread, so
    that its unit of parallelism is the request, not the GEMM.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, port: int, checkpoint: bytes | str | Path | None,
                 out_dir: str | Path, host: str = HOST,
                 codec: ExternalCodec | None = None):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.codec = codec
        self.model = None
        if checkpoint is not None:
            from .model import load_checkpoint

            data = checkpoint if isinstance(checkpoint, bytes) else Path(checkpoint).read_bytes()
            self.model = load_checkpoint(data)
        self._counter = 0
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        # finish_request handles each connection, so no handler class
        super().__init__((host, port), None)

    @property
    def port(self) -> int:
        return self.server_address[1]

    def finish_request(self, sock: socket.socket, _addr):
        timings = StageTimings()
        t0 = time.perf_counter()
        try:
            sock.settimeout(TIMEOUT_S)
            frame = frame_read(sock)
            raster = decompress_bytes(frame, self.model, self.codec,
                                      timings=timings)
            with self._lock:
                self._counter += 1
                out_path = self.out_dir / f"recv_{self._counter:05d}.raster"
            out_path.write_bytes(raster)
            timings.end_to_end = (time.perf_counter() - t0) * 1000.0
            frame_write(sock, _pack_status(STATUS_OK, str(out_path), timings))
        except Exception as exc:  # error status, keep serving
            timings.end_to_end = (time.perf_counter() - t0) * 1000.0
            try:
                frame_write(sock, _pack_status(STATUS_ERROR, str(exc), timings))
            except OSError:
                pass

    def start(self):
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()

    def stop(self):
        if self._thread is not None:  # shutdown() waits for a serve_forever loop
            self.shutdown()
            self._thread.join()
        self.server_close()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()


def edge_send(image_path: str | Path, host: str, port: int,
              cfg: PipelineConfig) -> tuple[StageTimings, int, str]:
    """Compress a raster file and ship it; returns (timings, code, message).

    Timings merge the edge-side stages with the server-reported decode and
    reconstruct stages, so all six pipeline stages are present.
    """
    t0 = time.perf_counter()
    timings = StageTimings()
    raster = Path(image_path).read_bytes()
    frame = compress_bytes(raster, cfg, timings)
    t_tx = time.perf_counter()
    try:
        with socket.create_connection((host, port), timeout=TIMEOUT_S) as sock:
            frame_write(sock, frame)
            status = frame_read(sock)
    except OSError as exc:
        raise TransportError(f"connection to {host}:{port} failed: {exc}") from exc
    code, message, server_timings = _unpack_status(status)
    wire_ms = (time.perf_counter() - t_tx) * 1000.0 - server_timings.end_to_end
    timings.record("transmit", max(0.0, wire_ms))
    timings.merge(server_timings)
    timings.end_to_end = (time.perf_counter() - t0) * 1000.0
    if code != STATUS_OK:
        raise TransportError(f"server reported failure: {message}")
    return timings, code, message
