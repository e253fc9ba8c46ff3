import socket
import struct
import threading
import time

import numpy as np
import pytest

import easz.transport as tr
from easz.cli import main
from easz.errors import TransportError
from easz.image import make_image, store_raster
from easz.model import (ModelConfig, default_config, init_params, load_checkpoint,
                        save_checkpoint)
from easz.pipeline import (STAGES, PipelineConfig, StageTimings,
                           compress_bytes, decompress_bytes)
from easz.transport import (FRAME_CAP, ReconstructionServer, _unpack_status,
                            edge_send, frame_read, frame_write)


class _Pipe:
    """In-memory socket pair for frame round-trips."""

    def __enter__(self):
        self.a, self.b = socket.socketpair()
        return self.a, self.b

    def __exit__(self, *exc):
        self.a.close()
        self.b.close()


def write_raster(tmp_path, name, seed, h=64, w=64, c=1):
    rng = np.random.default_rng(seed)
    img = make_image(rng.integers(0, 256, (h, w, c), dtype=np.uint8))
    p = tmp_path / name
    p.write_bytes(store_raster(img))
    return p


def model_blob():
    cfg = ModelConfig(subpatch_b=4, channels=1, d_model=16, grid_side=8,
                      heads=2, ffn_multiplier=2)
    return save_checkpoint(init_params(cfg, seed=0), cfg)


def test_frame_roundtrip():
    with _Pipe() as (a, b):
        frame_write(a, b"hello frame")
        assert frame_read(b) == b"hello frame"


def test_frame_empty_body():
    with _Pipe() as (a, b):
        frame_write(a, b"")
        assert frame_read(b) == b""


def test_frame_oversize_declared():
    with _Pipe() as (a, b):
        a.sendall(struct.pack(">Q", FRAME_CAP + 1))
        with pytest.raises(TransportError, match="cap"):
            frame_read(b)


def test_frame_eof_mid_body():
    with _Pipe() as (a, b):
        a.sendall(struct.pack(">Q", 100) + b"short")
        a.close()
        with pytest.raises(TransportError, match="EOF"):
            frame_read(b)


def test_frame_write_rejects_oversize(monkeypatch):
    import easz.transport as tr
    monkeypatch.setattr(tr, "FRAME_CAP", 16)
    with _Pipe() as (a, _):
        with pytest.raises(TransportError, match="cap"):
            tr.frame_write(a, b"x" * 17)


def test_loopback_matches_local(tmp_path):
    src = write_raster(tmp_path, "in.pgm", 1)
    cfg = PipelineConfig(erased_per_row=2, seed=7)
    blob = model_blob()
    with ReconstructionServer(0, blob, tmp_path / "out") as srv:
        timings, code, message = edge_send(src, "127.0.0.1", srv.port, cfg)
    assert code == 0
    received = (tmp_path / "out").glob("recv_*.raster")
    remote = next(iter(sorted(received))).read_bytes()
    from easz.model import load_checkpoint
    local = decompress_bytes(compress_bytes(src.read_bytes(), cfg),
                             load_checkpoint(blob))
    assert remote == local
    for stage in STAGES:
        assert stage in timings.stages
        assert timings.stages[stage] >= 0.0


def test_malformed_frame_keeps_server_alive(tmp_path):
    src = write_raster(tmp_path, "in.pgm", 2)
    cfg = PipelineConfig(erased_per_row=0)
    with ReconstructionServer(0, None, tmp_path / "out") as srv:
        with socket.create_connection(("127.0.0.1", srv.port)) as sock:
            frame_write(sock, b"not a container")
            status = frame_read(sock)
        assert status[0] == 1  # error code
        # server still answers a good request afterwards
        timings, code, _ = edge_send(src, "127.0.0.1", srv.port, cfg)
        assert code == 0


def test_error_status_raises_client_side(tmp_path):
    with ReconstructionServer(0, None, tmp_path / "out") as srv:
        with socket.create_connection(("127.0.0.1", srv.port)) as sock:
            frame_write(sock, b"garbage")
            status = frame_read(sock)
        assert status[0] == 1


def test_silent_peers_time_out(tmp_path, monkeypatch):
    import easz.transport as tr
    monkeypatch.setattr(tr, "TIMEOUT_S", 0.5)
    with ReconstructionServer(0, None, tmp_path / "out") as srv:
        base = threading.active_count()
        peers = [socket.create_connection(("127.0.0.1", srv.port), timeout=10)
                 for _ in range(20)]
        try:
            for sock in peers:  # connected, sent nothing
                code, message, _ = _unpack_status(frame_read(sock))
                assert (code, message) == (1, "timed out")
            # handler threads end while the silent peers are still connected
            deadline = time.monotonic() + 10
            while threading.active_count() > base and time.monotonic() < deadline:
                time.sleep(0.05)
            assert threading.active_count() == base
        finally:
            for sock in peers:
                sock.close()


def test_connection_refused(tmp_path):
    src = write_raster(tmp_path, "in.pgm", 3)
    with pytest.raises(TransportError, match="failed"):
        edge_send(src, "127.0.0.1", 1, PipelineConfig())


def test_concurrent_clients(tmp_path):
    cfg = PipelineConfig(erased_per_row=0)
    paths = [write_raster(tmp_path, f"in{i}.pgm", 10 + i) for i in range(4)]
    results = [None] * 4
    with ReconstructionServer(0, None, tmp_path / "out") as srv:
        def go(i):
            results[i] = edge_send(paths[i], "127.0.0.1", srv.port, cfg)

        threads = [threading.Thread(target=go, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert all(r is not None and r[1] == 0 for r in results)
    outs = sorted((tmp_path / "out").glob("recv_*.raster"))
    assert len(outs) == 4
    # T=0: every byte survives, so outputs are a permutation of the inputs
    sent = {p.read_bytes() for p in paths}
    got = {p.read_bytes() for p in outs}
    assert got == sent


def test_stage_timings_merge():
    a = StageTimings({"load": 1.0}, 5.0)
    b = StageTimings({"load": 2.0, "transmit": 3.0}, 4.0)
    a.merge(b)
    assert a.stages == {"load": 3.0, "transmit": 3.0}


@pytest.mark.parametrize("body", [
    b"",  # no header
    b"\0\0\0\0\0{",  # truncated JSON
    b"\0\0\0\0\0[]",  # JSON list, not an object
    b"\0\0\0\0\x05ab",  # message length beyond the body
    b'\0\0\0\0\0{"stages": {"load": "x"}}',  # non-numeric stage time
])
def test_malformed_status_body(body):
    with pytest.raises(TransportError):
        _unpack_status(body)


def test_stop_before_start_returns(tmp_path):
    srv = ReconstructionServer(0, None, tmp_path / "out")
    stopper = threading.Thread(target=srv.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=5)
    assert not stopper.is_alive()


def serve_until_started(monkeypatch, argv):
    """`easz serve` up to its serve_forever loop, which raises KeyboardInterrupt."""
    def interrupt(_self):
        raise KeyboardInterrupt

    monkeypatch.setattr(ReconstructionServer, "serve_forever", interrupt)
    assert main(["serve", "--port", "0", *argv]) == 0


def test_server_with_model_runs_blas_on_one_thread(tmp_path, monkeypatch, capsys):
    gets, sets = tr._openblas_threads("get"), tr._openblas_threads("set")
    if not gets:
        pytest.skip("no OpenBLAS mapped in this process")
    found = [get() for get in gets]
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(model_blob())
    try:
        for set_threads in sets:
            set_threads(2)
        serve_until_started(monkeypatch, ["--checkpoint", str(ckpt),
                                          "--out-dir", str(tmp_path / "out")])
        assert [get() for get in gets] == [1] * len(gets)
        assert "serving on" in capsys.readouterr().out
    finally:
        for set_threads, count in zip(sets, found):
            set_threads(count)


def test_decoded_bytes_do_not_depend_on_blas_threads():
    # `easz serve` decodes on one BLAS thread; a process decoding the same
    # container on its default thread count must get the same bytes
    gets, sets = tr._openblas_threads("get"), tr._openblas_threads("set")
    if not gets:
        pytest.skip("no OpenBLAS mapped in this process")
    cfg = default_config()
    model = load_checkpoint(save_checkpoint(init_params(cfg, seed=0), cfg))
    rng = np.random.default_rng(32)
    raster = store_raster(make_image(rng.integers(0, 256, (128, 128, 3), dtype=np.uint8)))
    blob = compress_bytes(raster, PipelineConfig(seed=32))  # 16 patches
    found = [get() for get in gets]
    default = decompress_bytes(blob, model)
    try:
        for set_threads in sets:
            set_threads(1)
        one = decompress_bytes(blob, model)
    finally:
        for set_threads, count in zip(sets, found):
            set_threads(count)
    assert [get() for get in gets] == found
    assert one == default


def test_server_holds_float32_weights_alone(tmp_path):
    # reconstruction runs on float32 weights, so the server keeps no second
    # copy; it decodes the bytes a fresh checkpoint load decodes
    server = ReconstructionServer(0, model_blob(), tmp_path / "out")
    try:
        params, _ = server.model
        assert {v.data.dtype for v in params.values()} == {np.dtype(np.float32)}
        rng = np.random.default_rng(33)
        raster = store_raster(make_image(rng.integers(0, 256, (32, 64), dtype=np.uint8)))
        blob = compress_bytes(raster, PipelineConfig(seed=33))
        want = decompress_bytes(blob, load_checkpoint(model_blob()))
        assert decompress_bytes(blob, server.model) == want
    finally:
        server.stop()


def test_blas_pin_without_openblas_does_nothing(monkeypatch):
    monkeypatch.setattr(tr, "_mapped_openblas", lambda: [])
    assert tr._openblas_threads("set") == []
    tr.one_blas_thread()


def test_server_without_model_leaves_blas_alone(tmp_path, monkeypatch):
    monkeypatch.setattr(tr, "one_blas_thread", lambda: pytest.fail("BLAS threads set"))
    serve_until_started(monkeypatch, ["--out-dir", str(tmp_path / "out")])


def test_in_process_server_leaves_blas_alone(tmp_path, monkeypatch):
    # Only `easz serve` pins BLAS: a server built in a process that does
    # other work must not change that process's threading.
    monkeypatch.setattr(tr, "one_blas_thread", lambda: pytest.fail("BLAS threads set"))
    ReconstructionServer(0, model_blob(), tmp_path / "out").stop()
