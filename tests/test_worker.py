"""Worker service tests: FOI execution, heartbeats, exposure, shutdown."""

import builtins
import copy
import gzip
import hashlib
import http.server
import io
import os
import random
import socket
import struct
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest
from cryptography.exceptions import InvalidTag

from skyrelay import ppm, storage
from skyrelay import coordinator as sky_coordinator
from skyrelay import worker as sky_worker
from skyrelay.coordinator import Coordinator, CoordinatorConfig
from skyrelay.core import (
    FOI,
    CredentialSet,
    OperationRequest,
    compile_op_to_fois,
    sequence_to_wire,
)
from skyrelay.errors import (
    AuthError,
    ConfigError,
    CredentialAuthFailure,
    DecodeError,
    Gone,
    InvalidOffset,
    NotFound,
    PermissionDenied,
    ShutdownError,
    SkyrelayError,
)
from skyrelay.keying import (
    OFFSET_MAX,
    OFFSET_MIN,
    encrypt_credentials,
    job_binding,
    key_at_epoch,
)
from skyrelay.wire import (
    MAX_FRAME_BYTES,
    MAX_REQUEST_BYTES,
    Message,
    encode_message,
    open_channel,
    parse_addr,
)
from skyrelay.worker import (
    FETCH_CHUNK_BYTES,
    IO_CHUNK_BYTES,
    Worker,
    WorkerConfig,
    _Job,
    decrypt_file_blob,
    encrypt_stream,
    gzip_blocks,
    make_exposure_uri,
    parse_exposure_uri,
    pull_exposure,
)



def submit(addr: str, body: dict, timeout: float = 30.0, tap=None):
    """One SUBMIT_OP request; returns (result_body, events)."""
    events = []
    ch = open_channel(addr, tap=tap)
    try:
        reply = ch.request("SUBMIT_OP", body, on_event=events.append,
                           timeout=timeout)
    finally:
        ch.close()
    return reply.body, events


def creds_body(account_id, token):
    return {"account_id": account_id, "token": token}


def seed_file(cluster, account, token, path, data):
    sess = cluster.backend.authenticate(token)
    cluster.backend.put_object(sess, path, data)
    return sess


def step_files_left(scratch, job_id, timeout=5.0):
    """The job's step files in scratch/jobs, once its clean-up had the time
    to run: the RESULT is sent before it."""
    def left():
        return [f for f in os.listdir(os.path.join(scratch, "jobs"))
                if f.startswith(job_id + ".")]
    deadline = time.monotonic() + timeout
    while left() and time.monotonic() < deadline:
        time.sleep(0.01)
    return left()


# -- exposure URI helpers --

def test_exposure_uri_round_trip():
    uri = make_exposure_uri("10.0.0.1:5000", "jobjobjobjob", "feedfeedfeed")
    assert parse_exposure_uri(uri) == ("10.0.0.1:5000", "jobjobjobjob", "feedfeedfeed")


@pytest.mark.parametrize("bad", [
    "http://x/y/z", "skyrelay://onlyhost", "skyrelay://h/a", "skyrelay://h/a/b/c",
    "skyrelay://h//f",
])
def test_exposure_uri_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_exposure_uri(bad)


# -- standalone private worker: FOI execution --

def test_compress_job_end_to_end(cluster):
    tok = cluster.account("u1")
    data = b"the quick brown fox " * 20000
    sess = seed_file(cluster, "u1", tok, "/d/in.txt", data)
    w = cluster.worker(registered=False)
    fois = [FOI("get", "/d/in.txt"), FOI("op", "/d/in.txt", op_kind="compress"),
            FOI("put", "/d/in.txt.gz")]
    result, events = submit(w.addr, {
        "job_id": "a" * 12, "fois": sequence_to_wire(fois),
        "credentials": creds_body("u1", tok)})
    stored = cluster.backend.get_object(sess, "/d/in.txt.gz")
    assert gzip.decompress(stored) == data
    assert len(stored) < len(data)  # compressible input must shrink
    # all moved bytes are accounted: get + op in + op out + put
    assert result["work_bytes"] == len(data) * 2 + len(stored) * 2
    beats = [e for e in events if e.kind == "HEARTBEAT"]
    assert len(beats) >= 3  # one per step at minimum
    assert [e.body["step"] for e in beats[:3]] == [0, 1, 2]


def test_compress_deterministic_output(cluster):
    tok = cluster.account("u1")
    data = os.urandom(100_000)
    sess = seed_file(cluster, "u1", tok, "/d/a.bin", data)
    seed_file(cluster, "u1", tok, "/d/b.bin", data)
    w = cluster.worker(registered=False)
    for name in ("a", "b"):
        fois = [FOI("get", f"/d/{name}.bin"),
                FOI("op", f"/d/{name}.bin", op_kind="compress"),
                FOI("put", f"/d/{name}.bin.gz")]
        submit(w.addr, {"fois": sequence_to_wire(fois),
                        "credentials": creds_body("u1", tok)})
    one = cluster.backend.get_object(sess, "/d/a.bin.gz")
    two = cluster.backend.get_object(sess, "/d/b.bin.gz")
    assert one == two  # equal inputs pin equal compressed bytes


def _text(n: int) -> bytes:
    rng = random.Random(n)
    words = [bytes(rng.choices(b"abcdefghijklmnopqrstuvwxyz", k=rng.randint(2, 9)))
             for _ in range(2000)]
    out = bytearray()
    while len(out) < n:
        out += b" ".join(rng.choices(words, k=10_000)) + b"\n"
    return bytes(out[:n])


def _parallel_gzip(data: bytes, threads: int = 2) -> bytes:
    out = io.BytesIO()
    with ThreadPoolExecutor(threads) as pool:
        gzip_blocks(io.BytesIO(data), out, pool, 2 * threads, lambda n: None)
    return out.getvalue()


def _serial_gzip(data: bytes) -> bytes:
    """The single-stream writer compress used before blocks were parallel."""
    out = io.BytesIO()
    with gzip.GzipFile(fileobj=out, mode="wb", mtime=0, filename="") as f:
        f.write(data)
    return out.getvalue()


@pytest.mark.parametrize("size", [0, 1, IO_CHUNK_BYTES - 1, IO_CHUNK_BYTES,
                                  IO_CHUNK_BYTES + 1, 3 * IO_CHUNK_BYTES + 7])
def test_parallel_gzip_round_trips(size):
    data = _text(size)
    out = _parallel_gzip(data)
    assert gzip.decompress(out) == data
    if size <= IO_CHUNK_BYTES:
        # one block is one deflate stream: small outputs keep their bytes
        assert out == _serial_gzip(data)


def test_parallel_gzip_output_independent_of_threads():
    # text blocks are deflated, random ones stored
    for data in (_text(3 * IO_CHUNK_BYTES + 7),
                 random.Random(3).randbytes(3 * IO_CHUNK_BYTES + 7)):
        assert _parallel_gzip(data, threads=1) == _parallel_gzip(data, threads=2)


def test_parallel_gzip_ratio_matches_serial():
    data = _text(4 * IO_CHUNK_BYTES)
    parallel, serial = len(_parallel_gzip(data)), len(_serial_gzip(data))
    assert abs(parallel - serial) <= serial * 0.001


def _mixed(n_mib: int) -> bytes:
    """Random and text MiBs in turn, starting with random."""
    rng = random.Random(n_mib)
    return b"".join(rng.randbytes(IO_CHUNK_BYTES) if i % 2 == 0 else _text(IO_CHUNK_BYTES)
                    for i in range(n_mib))


@pytest.mark.parametrize("make", [
    lambda: random.Random(1).randbytes(3 * IO_CHUNK_BYTES + 7),
    lambda: bytes(3 * IO_CHUNK_BYTES),
    lambda: _mixed(4),
], ids=["random", "zeros", "mixed"])
def test_stored_and_deflated_blocks_round_trip(make):
    data = make()
    assert gzip.decompress(_parallel_gzip(data)) == data


def test_random_blocks_are_stored():
    data = random.Random(2).randbytes(4 * IO_CHUNK_BYTES)
    blocks = len(data) // IO_CHUNK_BYTES
    # a stored deflate block holds at most 65535 bytes behind a 5-byte
    # header, and each block's sync flush adds an empty one
    stored_per_block = -(-IO_CHUNK_BYTES // 65535)
    bound = len(data) + len(sky_worker.GZIP_HEADER) + 8 + 5 * blocks * (stored_per_block + 1)
    assert len(_parallel_gzip(data)) <= bound


def test_text_output_is_pinned():
    # text blocks keep level 9: the digest is that of the level-9-only writer
    out = _parallel_gzip(_text(4 * IO_CHUNK_BYTES))
    assert hashlib.sha256(out).hexdigest() == \
        "2de13e5a4bb587feee6ed1aaafb69eeec5a3f057b9e06b3691eae22d2f0bfc26"


def test_gzip_pool_stops_with_the_worker(cluster):
    tok = cluster.account("u1")
    seed_file(cluster, "u1", tok, "/d/z.txt", _text(3 * IO_CHUNK_BYTES))
    before = set(threading.enumerate())
    w = cluster.worker(registered=False)
    submit(w.addr, {"fois": sequence_to_wire([
        FOI("get", "/d/z.txt"), FOI("op", "/d/z.txt", op_kind="compress")]),
        "credentials": creds_body("u1", tok)})
    pool = [t for t in set(threading.enumerate()) - before
            if t.name.startswith("skyrelay-gzip")]
    assert pool
    w.stop()
    assert not any(t.is_alive() for t in pool)


def test_compress_raises_shutdown_when_the_pool_stops(tmp_path):
    src = tmp_path / "in.txt"
    src.write_bytes(_text(3 * IO_CHUNK_BYTES))
    w = Worker(WorkerConfig(scratch_dir=str(tmp_path / "scratch")))
    w.start()
    job = _Job("j1", [], conn=None, seq=0)
    job.prefix, job.file = str(tmp_path / "j1."), str(src)
    # the instance stops between two blocks; the job is not told to abort,
    # so the next block meets a pool that takes no more work
    w._add_work = lambda job, n: w.stop()
    try:
        with pytest.raises(ShutdownError):
            w._execute_foi(job, FOI("op", "/in.txt", op_kind="compress"), None)
    finally:
        w.stop()


def test_encrypt_produces_ciphertext_and_key_grant(cluster):
    tok = cluster.account("u1")
    data = os.urandom(50_000)
    sess = seed_file(cluster, "u1", tok, "/d/s.bin", data)
    w = cluster.worker(registered=False)
    fois = [FOI("get", "/d/s.bin"), FOI("op", "/d/s.bin", op_kind="encrypt"),
            FOI("put", "/d/s.bin.enc")]
    result, events = submit(w.addr, {"fois": sequence_to_wire(fois),
                                     "credentials": creds_body("u1", tok)})
    blob = cluster.backend.get_object(sess, "/d/s.bin.enc")
    # a header, then one segment: the input under its tag
    assert blob[8:] != data and len(blob) == 8 + len(data) + 16
    # the key travels only in the RESULT, never as a file; events are beats
    assert result["pushed"] == []
    assert [(k["name"], k["cipher"]) for k in result["keys"]] == \
        [("s.bin.key", "aes-256-gcm-stream")]
    assert {e.kind for e in events} == {"HEARTBEAT"}
    assert os.listdir(os.path.join(w._scratch, "exposed")) == []
    key = bytes.fromhex(result["keys"][0]["key"])
    assert decrypt_file_blob(blob, key) == data


SEALED = IO_CHUNK_BYTES + 16  # one full segment of the encrypt format
KEY = bytes(range(32))


def _encrypted(data: bytes, key: bytes) -> bytes:
    out = io.BytesIO()
    encrypt_stream(io.BytesIO(data), out, key, lambda n: None)
    return out.getvalue()


@pytest.mark.parametrize("size", [0, 1, IO_CHUNK_BYTES - 1, IO_CHUNK_BYTES,
                                  IO_CHUNK_BYTES + 1, 3 * IO_CHUNK_BYTES + 7])
def test_encrypt_format_round_trips(size):
    data = random.Random(size).randbytes(size)
    key = os.urandom(32)
    blob = _encrypted(data, key)
    segments = max(1, -(-size // IO_CHUNK_BYTES))  # an empty input is one segment
    assert len(blob) == 8 + size + 16 * segments
    assert decrypt_file_blob(blob, key) == data


def _flip(blob: bytes, i: int) -> bytes:
    return blob[:i] + bytes([blob[i] ^ 0x01]) + blob[i + 1:]


@pytest.mark.parametrize("tamper", [
    lambda b: b[:8 + 2 * SEALED],                                    # cut at a boundary
    lambda b: b[:8] + b[8 + SEALED:8 + 2 * SEALED] + b[8:8 + SEALED]
    + b[8 + 2 * SEALED:],                                            # two swapped
    lambda b: b[:8 + 3 * SEALED],                                    # last dropped
    lambda b: _flip(b, 3),                                           # header bit
    lambda b: _flip(b, 8 + SEALED + 100),                            # body bit
    lambda b: _flip(b, 8 + SEALED - 1),                              # tag bit
    lambda b: b[:8 + SEALED] + _encrypted(bytes(len(b)), KEY)[8 + SEALED:8 + 2 * SEALED]
    + b[8 + 2 * SEALED:],                                            # another blob's segment
], ids=["cut", "swapped", "last-dropped", "header-bit", "body-bit", "tag-bit", "spliced"])
def test_tampered_blob_does_not_decrypt(tamper):
    blob = _encrypted(random.Random(4).randbytes(3 * IO_CHUNK_BYTES + 7), KEY)
    assert len(blob) == 8 + 4 * SEALED - (IO_CHUNK_BYTES - 7)
    with pytest.raises(InvalidTag):
        decrypt_file_blob(tamper(blob), KEY)


@pytest.mark.parametrize("blob", [
    lambda: b"\x02" + _encrypted(b"abc", KEY)[1:],  # wrong format byte
    lambda: _encrypted(b"", KEY)[:-1],              # shorter than a header and a tag
], ids=["format-byte", "short"])
def test_blob_not_in_the_format_is_refused(blob):
    with pytest.raises(ValueError):
        decrypt_file_blob(blob(), KEY)


def test_encrypt_stops_between_segments_on_shutdown(tmp_path):
    src = tmp_path / "in.bin"
    src.write_bytes(bytes(3 * IO_CHUNK_BYTES))
    w = Worker(WorkerConfig(scratch_dir=str(tmp_path / "scratch")))
    job = _Job("j1", [], conn=None, seq=0)
    job.prefix, job.file, job.step = str(tmp_path / "j1."), str(src), 0
    add_work = w._add_work

    def shut_down_after(j, n):
        add_work(j, n)
        j.abort.set()  # the instance shuts down while the first segment seals

    w._add_work = shut_down_after
    with pytest.raises(ShutdownError):
        w._execute_foi(job, FOI("op", "/in.bin", op_kind="encrypt"), None)
    assert job.work_bytes == IO_CHUNK_BYTES
    assert os.path.getsize(job.step_path()) == 8 + SEALED
    assert job.keys == []


def test_convert_pushes_without_storing(cluster):
    tok = cluster.account("u1")
    img = ppm.write_ppm(257, 100, os.urandom(257 * 100 * 3))
    sess = seed_file(cluster, "u1", tok, "/d/p.ppm", img)
    w = cluster.worker(registered=False)
    fois = [FOI("get", "/d/p.ppm"),
            FOI("op", "/d/p.ppm", op_kind="convert", op_params={"max_resolution": 64}),
            FOI("push", "p.ppm.small")]
    result, events = submit(w.addr, {"fois": sequence_to_wire(fois),
                                     "credentials": creds_body("u1", tok)})
    assert result["outputs"] == []  # nothing written to storage
    with pytest.raises(NotFound):
        cluster.backend.get_object(sess, "/d/p.ppm.small")
    desc = result["pushed"][0]
    data, eof, _ = w.read_exposed(result["job_id"], desc["file_id"],
                                  desc["guest_token"], 0, 1 << 22)
    assert eof
    width, height, _ = ppm.parse_ppm(data)
    assert max(width, height) <= 64


def test_download_refuses_a_host_file(cluster, tmp_path):
    # a shared-mode user must not copy files the worker host can read
    tok = cluster.account("u1")
    sess = cluster.backend.authenticate(tok)
    src = tmp_path / "host-secret.bin"
    src.write_bytes(os.urandom(300_000))
    scratch = tmp_path / "w"
    w = cluster.worker(registered=False, scratch_dir=str(scratch))
    # the schemes match case-sensitively, as the step dispatches on them
    for url in (f"file://{src}", "HTTP://127.0.0.1:9/host-secret.bin"):
        fois = [FOI("download", url), FOI("put", "/dl/src.bin")]
        err, events = _refusal(w, {"fois": sequence_to_wire(fois),
                                   "credentials": creds_body("u1", tok)})
        assert isinstance(err, DecodeError) and not hasattr(err, "step"), url
        assert events == []
    assert cluster.backend.list_meta(sess, "/", recursive=True) == []
    assert os.listdir(scratch / "jobs") == []


def test_download_http_scheme(cluster, tmp_path, http_root):
    tok = cluster.account("u1")
    sess = cluster.backend.authenticate(tok)
    payload = b"served over http " * 5000
    (tmp_path / "file.bin").write_bytes(payload)
    w = cluster.worker(registered=False)
    fois = [FOI("download", f"{http_root}/file.bin"), FOI("put", "/dl/file.bin")]
    result, _ = submit(w.addr, {"fois": sequence_to_wire(fois),
                                "credentials": creds_body("u1", tok)})
    assert cluster.backend.get_object(sess, "/dl/file.bin") == payload
    assert result["work_bytes"] == len(payload) * 2


@pytest.mark.parametrize("segment", ["..", "."])
def test_download_of_dot_segment_url(cluster, segment):
    # the last URL segment is not a file name; the worker names its own files
    tok = cluster.account("u1")
    sess = cluster.backend.authenticate(tok)
    payload = b"served for any path " * 1000

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            self.send_response(200)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    try:
        w = cluster.worker(registered=False)
        fois = [FOI("download", f"http://127.0.0.1:{httpd.server_address[1]}/files/{segment}"),
                FOI("put", "/dl/got.bin")]
        submit(w.addr, {"fois": sequence_to_wire(fois),
                        "credentials": creds_body("u1", tok)})
        assert cluster.backend.get_object(sess, "/dl/got.bin") == payload
    finally:
        httpd.shutdown()
        httpd.server_close()


def test_intermediate_fetch_between_workers(cluster):
    # worker B pulls a file exposed on worker A: the dual-instance data path
    tok_a = cluster.account("ua")
    tok_b = cluster.account("ub")
    payload = os.urandom(5 * 1024 * 1024)  # spans two fetch chunks
    seed_file(cluster, "ua", tok_a, "/files/big.bin", payload)
    wa = cluster.worker(registered=False)
    wb = cluster.worker(registered=False)
    result, _ = submit(wa.addr, {
        "fois": sequence_to_wire([FOI("get", "/files/big.bin"), FOI("push", "big.bin")]),
        "credentials": creds_body("ua", tok_a)})
    desc = result["pushed"][0]
    fois = [FOI("download", desc["uri"], op_params={"guest_token": desc["guest_token"]}),
            FOI("put", "/in/big.bin")]
    submit(wb.addr, {"fois": sequence_to_wire(fois),
                     "credentials": creds_body("ub", tok_b)})
    sess_b = cluster.backend.authenticate(tok_b)
    assert cluster.backend.get_object(sess_b, "/in/big.bin") == payload


def test_same_instance_download_links_the_exposure(cluster, tmp_path):
    tok_a = cluster.account("ua")
    tok_b = cluster.account("ub")
    payload = os.urandom(5 * 1024 * 1024)
    seed_file(cluster, "ua", tok_a, "/files/big.bin", payload)
    # scratch beside the store, so the store can take the step's file by link
    w = cluster.worker(registered=False, scratch_dir=str(tmp_path / "scratch"))
    result, _ = submit(w.addr, {
        "fois": sequence_to_wire([FOI("get", "/files/big.bin"), FOI("push", "big.bin")]),
        "credentials": creds_body("ua", tok_a)})
    desc = result["pushed"][0]

    def download(token):
        return submit(w.addr, {"fois": sequence_to_wire([
            FOI("download", desc["uri"], op_params={"guest_token": token}),
            FOI("put", "/in/big.bin")]), "credentials": creds_body("ub", tok_b)})[0]
    with pytest.raises(PermissionDenied):
        download("0" * 32)
    key = (result["job_id"], desc["file_id"])
    with w._state_lock:
        w._exposed[key].expires_at = time.time() - 1
    with pytest.raises(Gone):
        download(desc["guest_token"])
    sess_b = cluster.backend.authenticate(tok_b)
    assert cluster.backend.list_meta(sess_b, "/") == []
    with w._state_lock:
        w._exposed[key].expires_at = time.time() + 60
    exposed = w._exposed[key].path
    inode = os.stat(exposed).st_ino
    assert download(desc["guest_token"])["work_bytes"] == 2 * len(payload)
    assert cluster.backend.get_object(sess_b, "/in/big.bin") == payload
    stored = tmp_path / "stored"
    assert cluster.backend.get_object_or_file(sess_b, "/in/big.bin", str(stored)) is None
    assert os.stat(stored).st_ino == inode
    # the link was the exposure's one read: it is retired, and its name gone
    assert key not in w._exposed and not os.path.exists(exposed)
    with pytest.raises(NotFound):
        download(desc["guest_token"])


def test_exposure_token_and_expiry(cluster):
    tok = cluster.account("u1")
    seed_file(cluster, "u1", tok, "/f/x.bin", b"x" * 1000)
    w = cluster.worker(registered=False)
    result, _ = submit(w.addr, {
        "fois": sequence_to_wire([FOI("get", "/f/x.bin"), FOI("push", "x.bin")]),
        "credentials": creds_body("u1", tok)})
    desc = result["pushed"][0]
    job_id = result["job_id"]
    with pytest.raises(PermissionDenied):
        w.read_exposed(job_id, desc["file_id"], "0" * 32, 0, 10)
    with pytest.raises(NotFound):
        w.read_exposed(job_id, "f" * 32, desc["guest_token"], 0, 10)
    # age the exposure past its deadline; the sweeper has not run yet
    with w._state_lock:
        entry = w._exposed[(job_id, desc["file_id"])]
        expires_at, entry.expires_at = entry.expires_at, time.time() - 1
    with pytest.raises(Gone):
        w.read_exposed(job_id, desc["file_id"], desc["guest_token"], 0, 10)
    with w._state_lock:
        entry.expires_at = expires_at
    data, eof, _ = w.read_exposed(job_id, desc["file_id"], desc["guest_token"], 0, 10_000)
    assert eof and data == b"x" * 1000


def test_exposure_is_retired_when_its_reader_reaches_eof(cluster, tmp_path):
    tok = cluster.account("u1")
    seed_file(cluster, "u1", tok, "/f/x.bin", b"x" * 100)
    w = cluster.worker(registered=False, scratch_dir=str(tmp_path / "scratch"))
    result, _ = submit(w.addr, {
        "fois": sequence_to_wire([FOI("get", "/f/x.bin"), FOI("push", "x.bin")]),
        "credentials": creds_body("u1", tok)})
    desc = result["pushed"][0]
    ch = open_channel(w.addr)
    try:
        def fetch(offset):
            return ch.request("SUBMIT_OP", {"fetch": {
                "uri": desc["uri"], "guest_token": desc["guest_token"],
                "offset": offset, "max_bytes": 60}})
        assert fetch(0).body["eof"] is False
        assert os.listdir(tmp_path / "scratch" / "exposed") != []
        assert fetch(60).body["eof"] is True
        assert w._exposed == {}
        assert os.listdir(tmp_path / "scratch" / "exposed") == []
        with pytest.raises(NotFound):
            fetch(0)
    finally:
        ch.close()


def test_exposure_outlives_its_job_workspace(cluster, tmp_path):
    tok = cluster.account("u1")
    payload = os.urandom(200_000)
    seed_file(cluster, "u1", tok, "/f/y.bin", payload)
    w = cluster.worker(registered=False, scratch_dir=str(tmp_path / "scratch"))
    result, _ = submit(w.addr, {
        "fois": sequence_to_wire([FOI("get", "/f/y.bin"), FOI("push", "y.bin")]),
        "credentials": creds_body("u1", tok)})
    assert step_files_left(tmp_path / "scratch", result["job_id"]) == []
    desc = result["pushed"][0]
    data, eof, _ = w.read_exposed(result["job_id"], desc["file_id"],
                                  desc["guest_token"], 0, FETCH_CHUNK_BYTES)
    assert eof and data == payload
    # an exposure is a second name for the step's file, not a copy of it
    src = tmp_path / "step"
    src.write_bytes(b"z" * 10)
    w.expose_intermediate(str(src), "j2", "z")
    assert [os.path.samefile(src, tmp_path / "scratch" / "exposed" / f)
            for f in os.listdir(tmp_path / "scratch" / "exposed") if f.startswith("j2.")] == [True]


def test_fetch_request_validations(cluster):
    tok = cluster.account("u1")
    seed_file(cluster, "u1", tok, "/f/y.bin", b"y" * 100)
    w = cluster.worker(registered=False)
    result, _ = submit(w.addr, {
        "fois": sequence_to_wire([FOI("get", "/f/y.bin"), FOI("push", "y.bin")]),
        "credentials": creds_body("u1", tok)})
    desc = result["pushed"][0]
    ch = open_channel(w.addr)
    try:
        with pytest.raises(PermissionDenied):
            ch.request("SUBMIT_OP", {"fetch": {
                "uri": desc["uri"], "guest_token": "bad", "offset": 0, "max_bytes": 10}})
        with pytest.raises(NotFound):
            ch.request("SUBMIT_OP", {"fetch": {
                "uri": make_exposure_uri("9.9.9.9:1", "a" * 12, "b" * 32),
                "guest_token": desc["guest_token"], "offset": 0, "max_bytes": 10}})
        # ranged read: two halves stitch back together
        first = ch.request("SUBMIT_OP", {"fetch": {
            "uri": desc["uri"], "guest_token": desc["guest_token"],
            "offset": 0, "max_bytes": 60}})
        second = ch.request("SUBMIT_OP", {"fetch": {
            "uri": desc["uri"], "guest_token": desc["guest_token"],
            "offset": 60, "max_bytes": 60}})
        assert first.body == {"eof": False, "size_total": 100}
        assert second.body == {"eof": True, "size_total": 100}
        assert first.data + second.data == b"y" * 100
        for field, value in [("offset", -5), ("max_bytes", -1), ("offset", "0"),
                             ("max_bytes", 1.5), ("offset", True), ("max_bytes", None)]:
            with pytest.raises(DecodeError):
                ch.request("SUBMIT_OP", {"fetch": {
                    "uri": desc["uri"], "guest_token": desc["guest_token"],
                    "offset": 0, "max_bytes": 10, field: value}})
    finally:
        ch.close()


@pytest.mark.parametrize("fetch", ["x", {}, {"uri": 5}], ids=["string", "empty", "int-uri"])
def test_malformed_fetch_body_is_a_decode_error(cluster, fetch):
    w = cluster.worker(registered=False)
    ch = open_channel(w.addr)
    try:
        with pytest.raises(DecodeError):
            ch.request("SUBMIT_OP", {"fetch": fetch})
    finally:
        ch.close()


def test_pull_stops_on_a_stalled_or_overlong_read(tmp_path):
    calls = []

    def stalled(offset):
        calls.append(offset)
        if len(calls) > 5:
            raise AssertionError("pull kept asking a peer that sends nothing")
        return b"" if len(calls) > 1 else b"abc", False

    with pytest.raises(DecodeError):
        pull_exposure(stalled, str(tmp_path / "out"))
    assert calls == [0, 3]
    # the 3 bytes read before the stall must not pass for a finished file
    assert os.listdir(tmp_path) == []
    with pytest.raises(DecodeError):
        pull_exposure(lambda offset: (b"x" * (FETCH_CHUNK_BYTES + 1), True),
                      str(tmp_path / "out"))
    # an empty exposure is one empty read that reports eof
    pull_exposure(lambda offset: (b"", True), str(tmp_path / "empty"))
    assert (tmp_path / "empty").read_bytes() == b""


# -- validation and error surfacing --

def test_invalid_sequence_rejected(cluster):
    tok = cluster.account("u1")
    w = cluster.worker(registered=False)
    from skyrelay.errors import DecodeError
    with pytest.raises(DecodeError):
        submit(w.addr, {"fois": [{"verb": "op", "target": "/a", "op_kind": "compress"}],
                        "credentials": creds_body("u1", tok)})


def test_job_error_carries_step(cluster):
    tok = cluster.account("u1")
    w = cluster.worker(registered=False)
    fois = [FOI("get", "/missing/file.bin"), FOI("put", "/out/file.bin")]
    try:
        submit(w.addr, {"fois": sequence_to_wire(fois),
                        "credentials": creds_body("u1", tok)})
        raise AssertionError("expected NotFound")
    except NotFound as e:
        assert e.step == 0


def test_get_without_credentials_fails(cluster):
    w = cluster.worker(registered=False)
    with pytest.raises(AuthError):
        submit(w.addr, {"fois": sequence_to_wire([FOI("get", "/a/b")])})


def test_wrong_account_token_pairing_fails(cluster):
    tok1 = cluster.account("u1")
    cluster.account("u2")
    w = cluster.worker(registered=False)
    with pytest.raises(AuthError):
        submit(w.addr, {"fois": sequence_to_wire([FOI("get", "/a")]),
                        "credentials": creds_body("u2", tok1)})


def test_workspace_wiped_between_jobs(cluster, tmp_path):
    tok = cluster.account("u1")
    w = cluster.worker(registered=False, scratch_dir=str(tmp_path / "w"))
    # a job held in memory, and one whose steps are files
    for size in (100, storage.INLINE_MAX_BYTES + 1):
        seed_file(cluster, "u1", tok, f"/d/{size}.bin", b"1" * size)
        result, _ = submit(w.addr, {"fois": sequence_to_wire(
            [FOI("get", f"/d/{size}.bin"), FOI("op", f"/d/{size}.bin", op_kind="compress"),
             FOI("put", f"/d/{size}.bin.gz")]), "credentials": creds_body("u1", tok)})
        assert step_files_left(tmp_path / "w", result["job_id"]) == []
    # a later job must not see an earlier job's artifact
    with pytest.raises(Exception):
        submit(w.addr, {"fois": sequence_to_wire([FOI("put", "/d/again.bin")]),
                        "credentials": creds_body("u1", tok)})


def test_a_small_job_creates_no_file(cluster, tmp_path, monkeypatch):
    tok = cluster.account("u1")
    data = _text(20_000)
    sess = seed_file(cluster, "u1", tok, "/d/s.txt", data)
    scratch = str(tmp_path / "w")
    w = cluster.worker(registered=False, scratch_dir=scratch)
    watched = (scratch, os.path.join(cluster.backend.root, storage.META_DIR, "blobs"))
    made = []
    writes = os.O_WRONLY | os.O_RDWR | os.O_CREAT

    def under(path):
        return os.path.abspath(os.fspath(path)).startswith(watched)

    def spy(fn, is_write):
        def call(path, *args, **kwargs):
            if under(path) and is_write(*args, **kwargs):
                made.append((fn.__name__, os.fspath(path)))
            return fn(path, *args, **kwargs)
        return call
    monkeypatch.setattr(os, "mkdir", spy(os.mkdir, lambda *a, **k: True))
    monkeypatch.setattr(os, "open", spy(os.open, lambda flags, *a, **k: flags & writes))
    monkeypatch.setattr(builtins, "open", spy(
        builtins.open, lambda mode="r", *a, **k: set(mode) & set("wxa+")))
    fois = [FOI("get", "/d/s.txt"), FOI("op", "/d/s.txt", op_kind="compress"),
            FOI("put", "/d/s.txt.gz")]
    result, _ = submit(w.addr, {"fois": sequence_to_wire(fois),
                                "credentials": creds_body("u1", tok)})
    monkeypatch.undo()
    assert made == []
    stored = cluster.backend.get_object(sess, "/d/s.txt.gz")
    assert gzip.decompress(stored) == data
    assert result["work_bytes"] == 2 * len(data) + 2 * len(stored)
    assert os.listdir(os.path.join(scratch, "jobs")) == []


def test_a_job_removes_only_the_step_files_it_made(cluster, tmp_path, monkeypatch):
    tok = cluster.account("u1")
    scratch = str(tmp_path / "w")
    w = cluster.worker(registered=False, scratch_dir=scratch)
    removed = []
    remove = os.remove

    def spy(path, *args, **kwargs):
        if os.fspath(path).startswith(scratch):
            removed.append(os.path.basename(path))
        return remove(path, *args, **kwargs)
    monkeypatch.setattr(os, "remove", spy)
    for size, made in ((100, []), (storage.INLINE_MAX_BYTES + 1, [".0", ".1"])):
        removed.clear()
        seed_file(cluster, "u1", tok, f"/d/{size}.bin", _text(size))
        result, _ = submit(w.addr, {"job_id": f"job{size:09d}", "fois": sequence_to_wire(
            [FOI("get", f"/d/{size}.bin"), FOI("op", f"/d/{size}.bin", op_kind="compress"),
             FOI("put", f"/d/{size}.bin.gz")]), "credentials": creds_body("u1", tok)})
        assert step_files_left(scratch, result["job_id"]) == []
        deadline = time.monotonic() + 5.0
        while w._jobs and time.monotonic() < deadline:  # the job has cleaned up
            time.sleep(0.01)
        # the removals of a job held in memory: none; of a job of files: its two
        assert removed == [result["job_id"] + m for m in made]


def test_a_small_compress_job_runs_nine_store_statements(cluster):
    tok = cluster.account("u1")
    seed_file(cluster, "u1", tok, "/d/s.txt", _text(4096))
    w = cluster.worker(registered=False)
    with cluster.backend._lock:
        conn = cluster.backend._db()
    statements = []
    conn.set_trace_callback(statements.append)
    submit(w.addr, {"fois": sequence_to_wire([
        FOI("get", "/d/s.txt"), FOI("op", "/d/s.txt", op_kind="compress"),
        FOI("put", "/d/s.txt.gz")]), "credentials": creds_body("u1", tok)})
    conn.set_trace_callback(None)
    # authenticate, the get, and the put: BEGIN, the lookup with the credential
    # check, the quota, the bytes, the revision, the entry and COMMIT
    assert len(statements) == 9, statements


def test_job_runs_on_a_backend_without_linked_methods(cluster, six_methods):
    tok = cluster.account("u1")
    data = _text(IO_CHUNK_BYTES + 5)
    sess = seed_file(cluster, "u1", tok, "/d/in.txt", data)
    w = cluster.worker(registered=False, backend=six_methods)
    result, _ = submit(w.addr, {"fois": sequence_to_wire([
        FOI("get", "/d/in.txt"), FOI("op", "/d/in.txt", op_kind="compress"),
        FOI("put", "/d/in.txt.gz")]), "credentials": creds_body("u1", tok)})
    stored = cluster.backend.get_object(sess, "/d/in.txt.gz")
    assert gzip.decompress(stored) == data
    assert result["work_bytes"] == 2 * len(data) + 2 * len(stored)
    assert six_methods.calls == ["get_object", "put_object"]


def test_get_put_job_memory_stays_within_a_few_chunks(cluster):
    tok = cluster.account("u1")
    sess = cluster.backend.authenticate(tok)
    cluster.backend.put_object(sess, "/d/big.bin", bytes(64 * 1024 * 1024))
    w = cluster.worker(shared=False)
    tracemalloc.start()
    try:
        result, _ = submit(w.addr, {"fois": sequence_to_wire([
            FOI("get", "/d/big.bin"), FOI("put", "/d/copy.bin")]),
            "credentials": creds_body("u1", tok)})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result["work_bytes"] == 2 * 64 * 1024 * 1024
    assert peak < 4 * IO_CHUNK_BYTES, f"peak {peak} bytes"


def test_encrypt_job_memory_stays_within_a_few_chunks(cluster):
    tok = cluster.account("u1")
    sess = cluster.backend.authenticate(tok)
    cluster.backend.put_object(sess, "/d/big.bin", bytes(64 * 1024 * 1024))
    w = cluster.worker(shared=False)
    tracemalloc.start()
    try:
        result, _ = submit(w.addr, {"fois": sequence_to_wire([
            FOI("get", "/d/big.bin"), FOI("op", "/d/big.bin", op_kind="encrypt"),
            FOI("put", "/d/big.bin.enc")]), "credentials": creds_body("u1", tok)})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * IO_CHUNK_BYTES, f"peak {peak} bytes"
    sealed = 8 + 64 * SEALED
    assert result["outputs"][0]["size_bytes"] == sealed
    assert result["work_bytes"] == 2 * 64 * 1024 * 1024 + 2 * sealed


def test_convert_job_memory_stays_within_a_few_chunks(cluster):
    tok = cluster.account("u1")
    side = 2364  # 16 MiB of pixels
    img = ppm.write_ppm(side, side, random.Random(6).randbytes(side * side * 3))
    seed_file(cluster, "u1", tok, "/d/big.ppm", img)
    w = cluster.worker(shared=False)
    tracemalloc.start()
    try:
        result, _ = submit(w.addr, {"fois": sequence_to_wire([
            FOI("get", "/d/big.ppm"), FOI("op", "/d/big.ppm", op_kind="convert"),
            FOI("push", "big.ppm.small")]), "credentials": creds_body("u1", tok)})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * IO_CHUNK_BYTES, f"peak {peak} bytes"
    desc = result["pushed"][0]
    assert result["work_bytes"] == 2 * len(img) + desc["size_bytes"]
    data, _, _ = w.read_exposed(result["job_id"], desc["file_id"], desc["guest_token"],
                                0, FETCH_CHUNK_BYTES)
    assert ppm.parse_ppm(data)[:2] == (125, 125)


# -- heartbeats --

def test_quantum_heartbeats_scale_with_volume(cluster):
    tok = cluster.account("u1")
    data = os.urandom(20 * 1024 * 1024)
    seed_file(cluster, "u1", tok, "/d/big.bin", data)
    w = cluster.worker(registered=False)
    fois = [FOI("get", "/d/big.bin"), FOI("put", "/d/copy.bin")]
    result, events = submit(w.addr, {"fois": sequence_to_wire(fois),
                                     "credentials": creds_body("u1", tok)})
    assert result["work_bytes"] == 2 * len(data)
    beats = [e.body for e in events if e.kind == "HEARTBEAT"]
    # 2 step beats plus one per 16 MiB boundary crossed (at 16 and 32 MiB)
    assert len(beats) == 4
    assert beats[-1]["work_bytes"] <= result["work_bytes"]
    counts = [b["work_bytes"] for b in beats]
    assert counts == sorted(counts)  # monotone progress


def test_a_long_encrypt_beats_while_it_runs(cluster):
    tok = cluster.account("u1")
    seed_file(cluster, "u1", tok, "/d/big.bin", bytes(48 * 1024 * 1024))
    w = cluster.worker(registered=False)
    fois = [FOI("get", "/d/big.bin"), FOI("op", "/d/big.bin", op_kind="encrypt"),
            FOI("put", "/d/big.bin.enc")]
    _, events = submit(w.addr, {"fois": sequence_to_wire(fois),
                                "credentials": creds_body("u1", tok)})
    at_op = [e.body["work_bytes"] for e in events
             if e.kind == "HEARTBEAT" and e.body["step"] == 1]
    # after the step's own beat, one per 16 MiB crossed while segments seal
    assert len(at_op[1:]) >= 2
    assert at_op == sorted(at_op)


def test_heartbeats_reproducible_for_equal_jobs(cluster):
    tok = cluster.account("u1")
    data = os.urandom(3 * 1024 * 1024)
    seed_file(cluster, "u1", tok, "/d/r1.bin", data)
    seed_file(cluster, "u1", tok, "/d/r2.bin", data)
    w = cluster.worker(registered=False)
    seen = []
    for name in ("r1", "r2"):
        fois = [FOI("get", f"/d/{name}.bin"),
                FOI("op", f"/d/{name}.bin", op_kind="compress"),
                FOI("put", f"/d/{name}.bin.gz")]
        result, events = submit(w.addr, {"fois": sequence_to_wire(fois),
                                         "credentials": creds_body("u1", tok)})
        beats = [(e.body["step"], e.body["work_bytes"])
                 for e in events if e.kind == "HEARTBEAT"]
        seen.append((result["work_bytes"], beats))
    assert seen[0] == seen[1]


def test_backstop_beats_a_job_queued_for_a_slot(cluster, tmp_path, monkeypatch,
                                                 http_root):
    backstop_s = 0.3
    monkeypatch.setattr(sky_worker, "HEARTBEAT_BACKSTOP_S", backstop_s)
    tok = cluster.account("u1")
    (tmp_path / "slow.bin").write_bytes(os.urandom(80_000))
    w = cluster.worker(registered=False, max_jobs=1)
    # the only slot: one chunk, then a 1.6 s throttle wait
    slow = [FOI("download", f"{http_root}/slow.bin", op_params={"throttle_bps": 50_000}),
            FOI("put", "/d/slow.bin")]
    started = threading.Event()
    slow_done = []

    def run_slow():
        ch = open_channel(w.addr)
        try:
            ch.request("SUBMIT_OP", {"fois": sequence_to_wire(slow),
                                     "credentials": creds_body("u1", tok)},
                       on_event=lambda e: started.set(), timeout=30.0)
        finally:
            slow_done.append(time.monotonic())
            ch.close()

    t = threading.Thread(target=run_slow)
    t.start()
    beats = []
    try:
        assert started.wait(5.0)
        ch = open_channel(w.addr)
        try:
            ch.request("SUBMIT_OP", {"fois": []},
                       on_event=lambda e: beats.append((time.monotonic(), e.body)),
                       timeout=30.0)
        finally:
            ch.close()
    finally:
        t.join(10.0)
    assert not t.is_alive()
    # the empty job runs no step, so each of its beats is a backstop beat
    assert all(b == {"job_id": b["job_id"], "step": 0, "work_bytes": 0} for _, b in beats)
    queued = [at for at, _ in beats if at < slow_done[0]]
    assert len(queued) >= 3, beats
    gaps = [b - a for a, b in zip(queued, queued[1:])]
    assert min(gaps) >= backstop_s * 0.9


def test_backstop_beats_a_silent_step_and_ends_with_the_job(cluster, tmp_path,
                                                           monkeypatch, http_root):
    backstop_s = 0.3
    monkeypatch.setattr(sky_worker, "HEARTBEAT_BACKSTOP_S", backstop_s)
    tok = cluster.account("u1")
    src = tmp_path / "slow.bin"
    src.write_bytes(os.urandom(80_000))
    w = cluster.worker(registered=False)
    # one chunk, then a 0.8 s throttle wait with no progress beat
    fois = [FOI("download", f"{http_root}/slow.bin", op_params={"throttle_bps": 100_000}),
            FOI("put", "/d/slow.bin")]
    beats = []
    ch = open_channel(w.addr)
    try:
        ch.request("SUBMIT_OP", {"fois": sequence_to_wire(fois),
                                 "credentials": creds_body("u1", tok)},
                   on_event=lambda e: beats.append((time.monotonic(), e.body)),
                   timeout=30.0)
    finally:
        ch.close()
    step0 = [(t, b) for t, b in beats if b["step"] == 0]
    assert len(step0) >= 2  # the step's own beat, then backstop beats
    assert all(b["work_bytes"] == 80_000 for _, b in step0[1:])
    gaps = [b[0] - a[0] for a, b in zip(step0, step0[1:])]
    assert min(gaps) >= backstop_s * 0.9


# -- registration, key chain, shared-mode rules --

class _OneReply:
    """A coordinator channel that answers every request with one ACK body."""

    def __init__(self, body):
        self.body = body

    def request(self, kind, body, **kw):
        return Message(kind="ACK", seq=1, body=self.body)

    def close(self):
        pass


@pytest.mark.parametrize("offset_s, interval_s, error", [
    (0, 180, InvalidOffset), (7, 0, ConfigError), (7, -180, ConfigError)])
def test_registration_reply_with_a_bad_chain_is_refused(cluster, offset_s, interval_s,
                                                        error):
    ok = cluster.worker(shared=True)
    reply = {"pid": ok.pid.hex(), "coordinator_pub": ok.coordinator_pub.hex(),
             "certificate": ok.certificate.to_wire(), "k_root": "00" * 32,
             "t0": 0, "offset_s": offset_s, "interval_s": interval_s,
             "ping_interval_s": 30.0}
    w = Worker(WorkerConfig(coordinator_addr="127.0.0.1:1",
                            channel_factory=lambda addr, purpose: _OneReply(reply)))
    try:
        with pytest.raises(error):
            w._register()  # the reply alone: no clock thread walks this chain
    finally:
        w.stop()


def test_registered_worker_chain_matches_coordinator(cluster):
    w = cluster.worker(shared=True)
    assert w.pid is not None and w.key_state is not None
    rec = cluster.coordinator._instances[w.pid]
    assert rec.key_state == w.key_state and rec.key_state is not w.key_state
    st = w.key_state
    assert st.epoch == 0
    # the root is random: the paper's chain, rooted at H(pid || t0), is not this one
    paper_root = hashlib.sha256(st.pid + st.t0.to_bytes(8, "big")).digest()
    nxt = copy.copy(st)
    for epoch in (0, 1):
        if epoch:
            nxt.rotate()
        assert all(nxt.key_current != key_at_epoch(paper_root, st.t0, o, st.interval_s, epoch)
                   for o in range(OFFSET_MIN, OFFSET_MAX + 1))
    assert w.certificate is not None


def test_shared_job_opens_on_a_chain_behind_the_coordinator(cluster, tmp_path):
    # The job, not the clock thread, brings the chain up to the grant's epoch.
    tok = cluster.account("u1")
    seed_file(cluster, "u1", tok, "/d/f.bin", b"f" * 10)
    coord = Coordinator(CoordinatorConfig(interval_s=1))
    coord.start()
    w = Worker(WorkerConfig(coordinator_addr=coord.addr, shared=True,
                            backend=cluster.backend, scratch_dir=str(tmp_path / "w")))
    w.start()
    try:
        coord.instances()
        stale = copy.deepcopy(coord._instances[w.pid].key_state)
        # just past the next boundary: the clock thread has rotated and
        # sleeps most of a second before it reads the chain again
        time.sleep(max(0.0, stale.next_rotation_at() + 0.05 - time.time()))
        with w._key_lock:
            w.key_state = stale
        ch = open_channel(coord.addr)
        try:
            grant = ch.request("REQUEST_INSTANCE", {"user_id": "u1"}).body
        finally:
            ch.close()
        assert grant["epoch"] > stale.epoch
        fois = sequence_to_wire([FOI("get", "/d/f.bin"), FOI("put", "/d/g.bin")])
        ct = encrypt_credentials(bytes.fromhex(grant["key"]), CredentialSet("u1", tok),
                                 bytes.fromhex(grant["r"]), grant["epoch"],
                                 aad=job_binding(w.pid, "behind", fois))
        result, _ = submit(w.addr, {"job_id": "behind", "fois": fois,
                                    "credentials_ct": ct.to_wire()})
        assert result["work_bytes"] == 20
        assert w.key_state.epoch >= grant["epoch"]
    finally:
        w.stop()
        coord.stop()


def _sealed(cluster, w, tok, job_id, fois) -> dict:
    """u1's credentials sealed under a fresh grant on w, bound to job_id and fois."""
    ch = open_channel(cluster.coordinator.addr)
    try:
        grant = ch.request("REQUEST_INSTANCE", {"user_id": "u1"}).body
    finally:
        ch.close()
    assert grant["pid"] == w.pid.hex()
    return encrypt_credentials(bytes.fromhex(grant["key"]), CredentialSet("u1", tok),
                               bytes.fromhex(grant["r"]), grant["epoch"],
                               aad=job_binding(w.pid, job_id, fois)).to_wire()


def test_sealed_credentials_do_not_open_under_another_job_id(cluster):
    tok = cluster.account("u1")
    seed_file(cluster, "u1", tok, "/d/f.bin", b"f" * 10)
    w = cluster.worker(shared=True)
    fois = sequence_to_wire([FOI("get", "/d/f.bin"), FOI("put", "/d/g.bin")])
    ct = _sealed(cluster, w, tok, "job-a", fois)
    result, _ = submit(w.addr, {"job_id": "job-a", "fois": fois, "credentials_ct": ct})
    assert result["work_bytes"] == 20
    with pytest.raises(CredentialAuthFailure):
        submit(w.addr, {"job_id": "job-b", "fois": fois, "credentials_ct": ct})


def test_an_envelope_that_does_not_open_fails_with_no_step(cluster):
    tok = cluster.account("u1")
    seed_file(cluster, "u1", tok, "/d/f.bin", b"f" * 10)
    w = cluster.worker(shared=True)
    fois = sequence_to_wire([FOI("get", "/d/f.bin"), FOI("put", "/d/g.bin")])
    ct = _sealed(cluster, w, tok, "job-a", fois)
    with pytest.raises(CredentialAuthFailure) as err:
        submit(w.addr, {"job_id": "job-b", "fois": fois, "credentials_ct": ct})
    assert not hasattr(err.value, "step")  # no step ran
    assert any("job job-b: failed before step 0: CREDENTIAL_AUTH_FAILURE" in line
               for line in w.log)


def test_a_token_of_another_account_fails_with_no_step(cluster):
    tok = cluster.account("u1")
    other = cluster.account("u2")
    seed_file(cluster, "u1", tok, "/d/f.bin", b"f" * 10)
    w = cluster.worker(registered=False)
    fois = sequence_to_wire([FOI("get", "/d/f.bin"), FOI("put", "/d/g.bin")])
    with pytest.raises(AuthError) as err:
        submit(w.addr, {"fois": fois, "credentials": creds_body("u1", other)})
    assert str(err.value) == "token does not belong to the named account"
    assert not hasattr(err.value, "step")


def test_sealed_credentials_do_not_run_altered_fois(cluster):
    tok = cluster.account("u1")
    sess = seed_file(cluster, "u1", tok, "/d/f.bin", b"f" * 10)
    w = cluster.worker(shared=True)
    fois = [FOI("get", "/d/f.bin"), FOI("put", "/d/g.bin")]
    ct = _sealed(cluster, w, tok, "job-a", sequence_to_wire(fois))
    altered = sequence_to_wire(fois[:1] + [FOI("put", "/d/stolen.bin")])
    with pytest.raises(CredentialAuthFailure):
        submit(w.addr, {"job_id": "job-a", "fois": altered, "credentials_ct": ct})
    assert [m.path for m in cluster.backend.list_meta(sess, "/d")] == ["/d/f.bin"]


def test_malformed_envelope_leaves_no_job(cluster):
    tok = cluster.account("u1")
    seed_file(cluster, "u1", tok, "/d/f.bin", b"f" * 10)
    w = cluster.worker(shared=True)
    fois = sequence_to_wire([FOI("get", "/d/f.bin"), FOI("put", "/d/g.bin")])
    ct = _sealed(cluster, w, tok, "j1", fois)
    for bad in ({k: v for k, v in ct.items() if k != "r"}, {**ct, "nonce": 7}, "sealed"):
        with pytest.raises(DecodeError):
            submit(w.addr, {"job_id": "j1", "fois": fois, "credentials_ct": bad})
        with w._state_lock:
            assert w._jobs == {}
    result, _ = submit(w.addr, {"job_id": "j1", "fois": fois, "credentials_ct": ct})
    assert result["work_bytes"] == 20


def test_shared_worker_rejects_plaintext_credentials(cluster):
    tok = cluster.account("u1")
    w = cluster.worker(shared=True)
    with pytest.raises(PermissionDenied):
        submit(w.addr, {"fois": sequence_to_wire([FOI("get", "/a")]),
                        "credentials": creds_body("u1", tok)})



# -- admission at intake: a refused job is never registered --

class _JobLedger(dict):
    """A worker's job table that remembers every job ever registered."""

    def __init__(self):
        super().__init__()
        self.added = []

    def __setitem__(self, job_id, job):
        self.added.append(job_id)
        super().__setitem__(job_id, job)


def _refusal(w, body):
    """(error, events) of a SUBMIT_OP that w refuses; checks that it
    registered no job and holds no exposure."""
    w._jobs = ledger = _JobLedger()
    events = []
    ch = open_channel(w.addr)
    try:
        with pytest.raises(SkyrelayError) as err:
            ch.request("SUBMIT_OP", body, on_event=events.append, timeout=10.0)
    finally:
        ch.close()
    assert ledger.added == []
    assert w._exposed == {}
    return err.value, events


@pytest.fixture
def origin():
    """(base url, paths requested) of a loopback http origin serving 1 KiB."""
    requested = []

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            requested.append(self.path)
            self.send_response(200)
            self.send_header("Content-Length", "1024")
            self.end_headers()
            self.wfile.write(b"o" * 1024)

        def log_message(self, *args):
            pass

    httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.05},
                     daemon=True).start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}", requested
    httpd.shutdown()
    httpd.server_close()


def test_pool_instance_refuses_a_job_without_sealed_credentials(cluster, origin):
    url, requested = origin
    w = cluster.worker(shared=True)
    fois = sequence_to_wire([FOI("download", f"{url}/f.bin"), FOI("push", "f.bin")])
    err, events = _refusal(w, {"fois": fois})
    assert isinstance(err, PermissionDenied) and not hasattr(err, "step")
    assert events == [] and requested == []


def test_sealed_job_on_an_instance_without_a_chain_is_refused_at_intake(cluster):
    tok = cluster.account("u1")
    pool = cluster.worker(shared=True)
    w = cluster.worker(registered=False)
    fois = sequence_to_wire([FOI("get", "/d/f.bin"), FOI("put", "/d/g.bin")])
    ct = _sealed(cluster, pool, tok, "j1", fois)
    err, events = _refusal(w, {"job_id": "j1", "fois": fois, "credentials_ct": ct})
    assert isinstance(err, CredentialAuthFailure) and not hasattr(err, "step")
    assert events == []


def test_get_or_put_without_credentials_is_refused_before_any_step(cluster, origin):
    url, requested = origin
    w = cluster.worker(registered=False)
    fois = sequence_to_wire([FOI("download", f"{url}/f.bin"), FOI("put", "/d/f.bin")])
    err, events = _refusal(w, {"fois": fois})
    assert isinstance(err, AuthError) and not hasattr(err, "step")
    assert events == [] and requested == []


@pytest.mark.parametrize("fois", [
    [{"verb": "get", "target": "/d/p.ppm"},
     {"verb": "op", "target": "/d/p.ppm", "op_kind": "convert",
      "op_params": {"max_resolution": "abc"}},
     {"verb": "push", "target": "p.small"}],
    [{"verb": "get", "target": "/d/p.ppm"},
     {"verb": "op", "target": "/d/p.ppm", "op_kind": "convert",
      "op_params": {"max_resolution": True}},
     {"verb": "push", "target": "p.small"}],
    [{"verb": "download", "target": "ORIGIN/f.bin", "op_params": {"throttle_bps": -5}},
     {"verb": "put", "target": "/d/f.bin"}],
    [{"verb": "get", "target": "/d/p.ppm", "op_params": []},
     {"verb": "put", "target": "/d/q.ppm"}],
    [{"verb": "get", "target": 5}, {"verb": "put", "target": "/d/q.ppm"}],
], ids=["resolution-str", "resolution-bool", "negative-throttle", "params-list",
        "int-target"])
def test_a_bad_foi_field_is_refused_at_intake(cluster, origin, fois):
    url, requested = origin
    tok = cluster.account("u1")
    seed_file(cluster, "u1", tok, "/d/p.ppm", ppm.write_ppm(4, 4, bytes(48)))
    w = cluster.worker(registered=False)
    fois = copy.deepcopy(fois)
    for foi in fois:
        if isinstance(foi["target"], str):
            foi["target"] = foi["target"].replace("ORIGIN", url)
    err, events = _refusal(w, {"fois": fois, "credentials": creds_body("u1", tok)})
    assert isinstance(err, DecodeError) and not hasattr(err, "step")
    assert events == [] and requested == []


@pytest.mark.parametrize("target", ["abs", "../../../secret.txt"])
def test_shared_worker_refuses_push_of_host_paths(cluster, tmp_path, target):
    # push names a file the job produced; a path must not reach the host
    # file system, with or without a preceding step to fall back on
    secret = tmp_path / "secret.txt"
    secret.write_bytes(b"host-only")
    target = str(secret) if target == "abs" else target
    tok = cluster.account("u1")
    seed_file(cluster, "u1", tok, "/d/f.bin", b"f" * 10)
    w = cluster.worker(shared=True, scratch_dir=str(tmp_path / "w"))
    private = cluster.worker(registered=False, scratch_dir=str(tmp_path / "p"))
    from skyrelay.errors import DecodeError
    with pytest.raises(DecodeError):
        submit(w.addr, {"job_id": "j" * 12,
                        "fois": sequence_to_wire([FOI("push", target)])})
    with pytest.raises(DecodeError):
        submit(private.addr, {"job_id": "j" * 12, "fois": sequence_to_wire(
            [FOI("get", "/d/f.bin"), FOI("push", target)]),
            "credentials": creds_body("u1", tok)})
    for worker, scratch in ((w, "w"), (private, "p")):
        assert worker._exposed == {}
        assert os.listdir(tmp_path / scratch / "exposed") == []

@pytest.mark.parametrize("job_id", ["../victim", "..", ".", "a/b"])
def test_job_id_cannot_name_a_directory_outside_jobs(cluster, tmp_path, job_id):
    # the job id names the step files that are removed when the job ends
    scratch = tmp_path / "w"
    w = cluster.worker(registered=False, scratch_dir=str(scratch))
    victim = os.path.normpath(os.path.join(scratch, "jobs", job_id))
    os.makedirs(victim, exist_ok=True)
    from skyrelay.errors import DecodeError
    with pytest.raises(DecodeError):
        submit(w.addr, {"job_id": job_id, "fois": sequence_to_wire([FOI("get", "/a")])})
    assert os.path.isdir(victim)
    assert os.listdir(scratch / "exposed") == []


def test_registered_private_worker_accepts_plaintext(cluster):
    tok = cluster.account("u1")
    seed_file(cluster, "u1", tok, "/d/f.bin", b"f" * 10)
    w = cluster.worker(shared=False)
    assert w.certificate is not None  # registered, so certified
    result, _ = submit(w.addr, {"fois": sequence_to_wire(
        [FOI("get", "/d/f.bin"), FOI("put", "/d/g.bin")]),
        "credentials": creds_body("u1", tok)})
    assert result["work_bytes"] == 20


def test_worker_log_never_shows_plaintext_token(cluster):
    tok = cluster.account("u1")
    seed_file(cluster, "u1", tok, "/d/f.bin", b"f" * 10)
    w = cluster.worker(registered=False)
    submit(w.addr, {"fois": sequence_to_wire(
        [FOI("get", "/d/f.bin"), FOI("put", "/d/h.bin")]),
        "credentials": creds_body("u1", tok)})
    assert not any(tok in line for line in w.log)


# -- lifecycle --

def test_margin_must_be_smaller_than_period():
    w = Worker(WorkerConfig(billing_period_s=10, safety_margin_s=10))
    with pytest.raises(ConfigError):
        w.start()


def test_auto_shutdown_rejects_then_notifies(cluster):
    w = cluster.worker(shared=True, billing_period_s=1.0, safety_margin_s=0.6)
    pid = w.pid
    assert w.terminated.wait(2.0)
    # after the deadline the coordinator has retired the instance
    deadline = time.monotonic() + 2.0
    while time.monotonic() < deadline:
        rec = cluster.coordinator._instances[pid]
        if rec.status == "retired":
            break
        time.sleep(0.05)
    assert cluster.coordinator._instances[pid].status == "retired"
    assert any("shutting down" in line for line in w.log)


def test_auto_shutdown_aborts_running_job(cluster, tmp_path, http_root):
    tok = cluster.account("u1")
    src = tmp_path / "slow.bin"
    src.write_bytes(os.urandom(3 * 1024 * 1024))
    w = cluster.worker(registered=False, billing_period_s=1.6, safety_margin_s=0.8)
    # ~1 MiB/s against a 0.8 s deadline: the job cannot finish in time
    fois = [FOI("download", f"{http_root}/slow.bin", op_params={"throttle_bps": 1_000_000}),
            FOI("put", "/d/slow.bin")]
    t0 = time.monotonic()
    with pytest.raises(ShutdownError) as err:
        submit(w.addr, {"fois": sequence_to_wire(fois),
                        "credentials": creds_body("u1", tok)})
    assert time.monotonic() - t0 < 2.5  # aborted, not run to completion
    assert err.value.step == 0


def test_shutdown_then_submit_rejected(cluster):
    tok = cluster.account("u1")
    w = cluster.worker(registered=False, billing_period_s=0.5, safety_margin_s=0.2)
    assert w.terminated.wait(2.0)
    with pytest.raises(Exception):  # listener is gone entirely
        submit(w.addr, {"fois": [], "credentials": creds_body("u1", tok)})


def test_past_share_window_means_immediate_shutdown():
    w = Worker(WorkerConfig(share_duration_s=-5))
    w.start()
    try:
        assert w.terminated.wait(1.0)
    finally:
        w.stop()


def test_thread_census(tmp_path, monkeypatch):
    def new_threads():
        return [t for t in threading.enumerate() if t not in before]

    def settle(pred):
        deadline = time.monotonic() + 1.0
        while not pred() and time.monotonic() < deadline:
            time.sleep(0.01)

    def names(*listeners):
        # a served connection's thread waits in accept() again, or ends
        settle(lambda: not any(x._conns for x in listeners))
        return sorted(t.name for t in new_threads())

    before = set(threading.enumerate())
    coord = Coordinator()
    coord.start()
    assert names(coord._listener) == ["skyrelay-listener"]
    # registered outside the pool: a pool instance refuses jobs without
    # sealed credentials, and these empty jobs carry none
    w = Worker(WorkerConfig(coordinator_addr=coord.addr, scratch_dir=str(tmp_path),
                            shared=False))
    w.start()
    try:
        # the registration and its probe of the worker each left a second
        # listener thread waiting in accept()
        assert names(coord._listener, w._listener) == \
            ["skyrelay-clock"] + ["skyrelay-listener"] * 4
        # a warm worker's job starts pool threads only, and no listener thread
        started = []
        thread_start = threading.Thread.start

        def spy(t):
            started.append(t.name)
            thread_start(t)
        monkeypatch.setattr(threading.Thread, "start", spy)
        for _ in range(3):
            submit(w.addr, {"fois": []})
            settle(lambda: not w._listener._conns)
        monkeypatch.undo()
        assert all(n.startswith(("skyrelay-job_", "skyrelay-gzip_")) for n in started), started
    finally:
        w.stop()
        coord.stop()
    settle(lambda: not new_threads())
    assert new_threads() == []


def test_logs_keep_only_the_latest_lines(tmp_path):
    for svc, bound in ((Worker(WorkerConfig(scratch_dir=str(tmp_path))),
                        sky_worker.LOG_MAX_LINES),
                       (Coordinator(), sky_coordinator.LOG_MAX_LINES)):
        for i in range(bound + 5):
            svc._log(f"line {i}")
        assert len(svc.log) == bound
        assert svc.log[0].endswith(" line 5")
        assert svc.log[-1].endswith(f" line {bound + 4}")


def test_parallel_jobs_on_separate_channels(cluster):
    tok = cluster.account("u1")
    for i in range(3):
        seed_file(cluster, "u1", tok, f"/d/p{i}.bin", os.urandom(200_000))
    w = cluster.worker(registered=False, max_jobs=3)
    results = [None] * 3

    def run(i):
        fois = [FOI("get", f"/d/p{i}.bin"),
                FOI("op", f"/d/p{i}.bin", op_kind="compress"),
                FOI("put", f"/d/p{i}.bin.gz")]
        results[i], _ = submit(w.addr, {"fois": sequence_to_wire(fois),
                                        "credentials": creds_body("u1", tok)})

    threads = [threading.Thread(target=run, args=(i,)) for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r and r["work_bytes"] > 0 for r in results)
    sess = cluster.backend.authenticate(tok)
    for i in range(3):
        assert cluster.backend.get_object(sess, f"/d/p{i}.bin.gz")


def test_a_job_with_credentials_on_a_worker_without_a_backend_is_not_found(cluster):
    tok = cluster.account("u1")
    w = cluster.worker(shared=False, backend=None)
    with pytest.raises(NotFound):
        submit(w.addr, {"fois": sequence_to_wire([FOI("get", "/a")]),
                        "credentials": creds_body("u1", tok)})


# -- inbound frame cap --

def test_a_frame_declared_past_the_request_cap_is_closed_before_allocation(cluster):
    w = cluster.worker(shared=False)
    tracemalloc.start()
    try:
        with socket.create_connection(parse_addr(w.addr)) as s:
            s.sendall(struct.pack(">I", MAX_FRAME_BYTES - 1))  # and no body
            s.settimeout(1.0)
            assert s.recv(1) == b""  # closed, with no reply
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < MAX_REQUEST_BYTES, f"peak {peak} bytes"


def test_the_largest_submit_an_agent_builds_is_answered(cluster):
    # compress names its path three times; a control character escapes to 6 bytes
    tok = cluster.account("u1")
    src = "/" + "\x01" * 4092  # .gz brings the put target to 4096 bytes
    seed_file(cluster, "u1", tok, src, b"f" * 10)
    w = cluster.worker(shared=False)
    fois = compile_op_to_fois(OperationRequest(action="compress", args={"path": src}))
    body = {"fois": sequence_to_wire(fois), "credentials": creds_body("u1", tok)}
    assert 70_000 < len(encode_message(Message("SUBMIT_OP", 1, body))) < MAX_REQUEST_BYTES
    result, _ = submit(w.addr, body)
    assert result["outputs"][0]["path"] == src + ".gz"
