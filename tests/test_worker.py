"""Worker service tests: FOI execution, heartbeats, exposure, shutdown."""

import gzip
import http.server
import json
import os
import threading
import time

import pytest

from skyrelay import ppm
from skyrelay.core import FOI, sequence_to_wire
from skyrelay.errors import (
    AuthError,
    ConfigError,
    Gone,
    NotFound,
    PermissionDenied,
    ShutdownError,
)
from skyrelay.keying import key_at_epoch
from skyrelay.wire import open_channel
from skyrelay.worker import (
    Worker,
    WorkerConfig,
    decrypt_file_blob,
    make_exposure_uri,
    parse_exposure_uri,
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
    assert blob != data and len(blob) == len(data) + 12 + 16
    grants = [e.body for e in events if e.kind == "EXPOSE_GRANT"]
    assert len(grants) == 1 and grants[0]["name"] == "s.bin.key"
    assert result["pushed"] == grants
    # fetch the key file through the exposure protocol and decrypt
    chunk, eof, total = w.read_exposed(
        result["job_id"], grants[0]["file_id"], grants[0]["guest_token"], 0, 1 << 20)
    assert eof and total == len(chunk)
    key = bytes.fromhex(json.loads(chunk)["key"])
    assert decrypt_file_blob(blob, key) == data


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


def test_download_file_scheme_then_put(cluster, tmp_path):
    tok = cluster.account("u1")
    sess = cluster.backend.authenticate(tok)
    payload = os.urandom(300_000)
    src = tmp_path / "src.bin"
    src.write_bytes(payload)
    w = cluster.worker(registered=False)
    fois = [FOI("download", f"file://{src}"), FOI("put", "/dl/src.bin")]
    result, _ = submit(w.addr, {"fois": sequence_to_wire(fois),
                                "credentials": creds_body("u1", tok)})
    assert cluster.backend.get_object(sess, "/dl/src.bin") == payload
    assert result["work_bytes"] == len(payload) * 2


def test_download_http_scheme(cluster, tmp_path):
    tok = cluster.account("u1")
    sess = cluster.backend.authenticate(tok)
    payload = b"served over http " * 5000
    (tmp_path / "file.bin").write_bytes(payload)

    handler = lambda *a, **kw: http.server.SimpleHTTPRequestHandler(
        *a, directory=str(tmp_path), **kw)
    httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    try:
        port = httpd.server_address[1]
        w = cluster.worker(registered=False)
        fois = [FOI("download", f"http://127.0.0.1:{port}/file.bin"),
                FOI("put", "/dl/file.bin")]
        submit(w.addr, {"fois": sequence_to_wire(fois),
                        "credentials": creds_body("u1", tok)})
        assert cluster.backend.get_object(sess, "/dl/file.bin") == payload
    finally:
        httpd.shutdown()


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
    data, eof, _ = w.read_exposed(job_id, desc["file_id"], desc["guest_token"], 0, 10_000)
    assert eof and data == b"x" * 1000
    # age the exposure past its deadline; the sweeper has not run yet
    with w._state_lock:
        w._exposed[(job_id, desc["file_id"])].expires_at = time.time() - 1
    with pytest.raises(Gone):
        w.read_exposed(job_id, desc["file_id"], desc["guest_token"], 0, 10)


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
        import base64
        whole = base64.b64decode(first.body["data_b64"]) + base64.b64decode(
            second.body["data_b64"])
        assert not first.body["eof"] and second.body["eof"]
        assert whole == b"y" * 100
    finally:
        ch.close()


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


def test_workspace_wiped_between_jobs(cluster):
    tok = cluster.account("u1")
    seed_file(cluster, "u1", tok, "/d/one.bin", b"1" * 100)
    w = cluster.worker(registered=False)
    submit(w.addr, {"fois": sequence_to_wire(
        [FOI("get", "/d/one.bin"), FOI("put", "/d/copy.bin")]),
        "credentials": creds_body("u1", tok)})
    # second job must not see the first job's artifact
    with pytest.raises(Exception):
        submit(w.addr, {"fois": sequence_to_wire([FOI("put", "/d/again.bin")]),
                        "credentials": creds_body("u1", tok)})


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


# -- registration, key chain, shared-mode rules --

def test_registered_worker_chain_matches_coordinator(cluster):
    w = cluster.worker(shared=True)
    assert w.pid is not None and w.key_state is not None
    rec = cluster.coordinator._instances[w.pid]
    assert rec.key_state.key_current == w.key_state.key_current
    assert rec.key_state.epoch == w.key_state.epoch == 0
    st = w.key_state
    assert st.key_current == key_at_epoch(st.pid, st.t0, st.offset_s, st.interval_s, 0)
    assert w.certificate is not None


def test_shared_worker_rejects_plaintext_credentials(cluster):
    tok = cluster.account("u1")
    w = cluster.worker(shared=True)
    with pytest.raises(PermissionDenied):
        submit(w.addr, {"fois": sequence_to_wire([FOI("get", "/a")]),
                        "credentials": creds_body("u1", tok)})



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


def test_auto_shutdown_aborts_running_job(cluster, tmp_path):
    tok = cluster.account("u1")
    src = tmp_path / "slow.bin"
    src.write_bytes(os.urandom(3 * 1024 * 1024))
    w = cluster.worker(registered=False, billing_period_s=1.6, safety_margin_s=0.8)
    # ~1 MiB/s against a 0.8 s deadline: the job cannot finish in time
    fois = [FOI("download", f"file://{src}", op_params={"throttle_bps": 1_000_000}),
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
