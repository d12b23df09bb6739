"""Agent tests: shadow metadata, cloud delegation, transfers, hygiene."""

import json
import os
import threading
import time

import pytest

from skyrelay.agent import (
    AgentConfig,
    AgentSession,
    TransferTicket,
    read_ticket,
    write_ticket,
)
from skyrelay.errors import (
    Gone,
    NoInstanceAvailable,
    NotCloudAssisted,
    NotFound,
    PermissionDenied,
    StartError,
    VerificationFailed,
)


def make_agent(cluster, name, *, seed=7, launcher=None, download_dir=None,
               coordinator=True, channel_factory=None, **extra):
    tok = cluster.account(name)
    cfg = AgentConfig(
        account_id=name, token=tok, backend=cluster.backend,
        coordinator_addr=cluster.coordinator.addr if coordinator else None,
        coordinator_pub=cluster.coordinator.public_key,
        private_launcher=launcher,
        download_dir=download_dir,
        seed=seed,
        channel_factory=(channel_factory
                         or cluster.recorder.channel_factory(name)),
        **extra)
    return AgentSession(cfg), tok


def private_launcher_for(cluster):
    calls = []

    def launch():
        w = cluster.worker(shared=False)
        calls.append(w)
        return w.addr, w.certificate.to_wire()

    return launch, calls


def put_file(cluster, tok, path, data):
    sess = cluster.backend.authenticate(tok)
    cluster.backend.put_object(sess, path, data)
    return sess


# -- basic operations against the shadow --

def test_basic_ops_round_trip(cluster):
    agent, _ = make_agent(cluster, "alice")
    agent.cmd_basic("create", {"path": "/docs", "kind": "folder"})
    agent.cmd_basic("create", {"path": "/docs/a.txt", "kind": "file"})
    agent.cmd_basic("rename", {"src": "/docs/a.txt", "dst": "/docs/b.txt"})
    names = [m.path for m in agent.ls("/docs")]
    assert names == ["/docs/b.txt"]
    agent.cmd_basic("delete", {"path": "/docs/b.txt"})
    assert agent.ls("/docs") == []
    # four metadata ops, none moved file content
    assert len(agent.metrics) == 4
    assert all(m["bytes_sent"] == 0 and m["bytes_received"] == 0
               for m in agent.metrics)


def test_basic_op_errors_surface(cluster):
    agent, _ = make_agent(cluster, "alice")
    with pytest.raises(NotFound):
        agent.cmd_basic("delete", {"path": "/nope"})
    with pytest.raises(NotCloudAssisted):
        agent.cmd_basic("compress", {"path": "/x"})


def test_ls_reads_shadow_not_storage(cluster):
    agent, tok = make_agent(cluster, "alice")
    put_file(cluster, tok, "/d/f.bin", b"x")
    assert agent.ls("/d") == []  # created behind the agent's back
    agent.sync()
    assert [m.path for m in agent.ls("/d")] == ["/d/f.bin"]


def test_save_state_is_metadata_only(cluster, tmp_path):
    agent, tok = make_agent(cluster, "alice")
    marker = b"CONTENTMARKER-9c1f"
    put_file(cluster, tok, "/d/secret.bin", marker * 100)
    agent.sync()
    state = tmp_path / "state.json"
    agent.save_state(str(state))
    raw = state.read_bytes()
    doc = json.loads(raw)
    assert doc["account_id"] == "alice"
    assert "/d/secret.bin" in doc["shadow"]["entries"]
    assert marker not in raw
    assert tok.encode() not in raw


# -- cloud-assisted operations --

def test_shared_compress_keeps_agent_thin(cluster, tmp_path):
    agent, tok = make_agent(cluster, "alice", download_dir=str(tmp_path))
    data = os.urandom(1 << 20)
    put_file(cluster, tok, "/d/big.bin", data)
    agent.sync()
    cluster.worker(shared=True)
    result = agent.cmd_cloud_op("compress", {"path": "/d/big.bin"})
    assert result["work_bytes"] >= len(data)
    assert "/d/big.bin.gz" in agent.shadow.entries
    m = agent.metrics[-1]
    assert m["op"] == "compress"
    assert m["heartbeats"] >= 3
    # the agent exchanged control frames only, far below the payload size
    assert m["bytes_sent"] + m["bytes_received"] < 64 * 1024


def test_account_token_never_crosses_wire_in_shared_mode(cluster, tmp_path):
    agent, tok = make_agent(cluster, "alice", download_dir=str(tmp_path))
    put_file(cluster, tok, "/d/f.bin", os.urandom(100_000))
    agent.sync()
    cluster.worker(shared=True)
    agent.cmd_cloud_op("compress", {"path": "/d/f.bin"})
    agent.cmd_cloud_op("encrypt", {"path": "/d/f.bin"})
    assert cluster.recorder.occurrences(tok.encode()) == []


def test_put_names_uncollide(cluster, tmp_path):
    agent, tok = make_agent(cluster, "alice", download_dir=str(tmp_path))
    put_file(cluster, tok, "/d/f.bin", os.urandom(10_000))
    agent.sync()
    cluster.worker(shared=True)
    agent.cmd_cloud_op("compress", {"path": "/d/f.bin"})
    agent.cmd_cloud_op("compress", {"path": "/d/f.bin"})
    assert "/d/f.bin.gz" in agent.shadow.entries
    assert "/d/f.bin.1.gz" in agent.shadow.entries


def test_encrypt_saves_key_locally_and_key_decrypts(cluster, tmp_path):
    from skyrelay.worker import decrypt_file_blob
    agent, tok = make_agent(cluster, "alice", download_dir=str(tmp_path))
    data = os.urandom(50_000)
    sess = put_file(cluster, tok, "/d/s.bin", data)
    agent.sync()
    cluster.worker(shared=True)
    result = agent.cmd_cloud_op("encrypt", {"path": "/d/s.bin"})
    assert len(result["saved"]) == 1
    key_path = result["saved"][0]
    assert key_path.startswith(str(tmp_path))
    key = bytes.fromhex(json.loads(open(key_path).read())["key"])
    blob = cluster.backend.get_object(sess, "/d/s.bin.enc")
    assert decrypt_file_blob(blob, key) == data
    # the key itself never touched the user's cloud storage
    assert all(not p.endswith(".key") for p in agent.shadow.entries)


def test_convert_lands_locally_only(cluster, tmp_path):
    from skyrelay import ppm
    agent, tok = make_agent(cluster, "alice", download_dir=str(tmp_path))
    img = ppm.write_ppm(300, 200, os.urandom(300 * 200 * 3))
    put_file(cluster, tok, "/pics/p.ppm", img)
    agent.sync()
    cluster.worker(shared=True)
    result = agent.cmd_cloud_op("convert", {"path": "/pics/p.ppm"})
    assert [p for p in agent.shadow.entries
            if p.endswith(".small")] == []  # nothing new in storage
    width, height, _ = ppm.parse_ppm(open(result["saved"][0], "rb").read())
    assert max(width, height) <= 128


def test_no_pool_raises_before_any_job(cluster, tmp_path):
    agent, tok = make_agent(cluster, "alice", download_dir=str(tmp_path))
    put_file(cluster, tok, "/d/f.bin", b"x" * 10)
    agent.sync()
    with pytest.raises(NoInstanceAvailable):
        agent.cmd_cloud_op("compress", {"path": "/d/f.bin"})


def test_private_mode_lazy_launch_once(cluster, tmp_path):
    launcher, calls = private_launcher_for(cluster)
    agent, tok = make_agent(cluster, "alice", launcher=launcher,
                            download_dir=str(tmp_path), mode="private")
    put_file(cluster, tok, "/d/f.bin", os.urandom(10_000))
    agent.sync()
    assert calls == []  # nothing launched at login
    agent.cmd_cloud_op("compress", {"path": "/d/f.bin"})
    agent.cmd_cloud_op("compress", {"path": "/d/f.bin"})
    assert len(calls) == 1  # reused across ops
    assert "/d/f.bin.gz" in agent.shadow.entries
    assert "/d/f.bin.1.gz" in agent.shadow.entries


# -- transfer tickets --

def test_ticket_file_round_trip(tmp_path):
    ticket = TransferTicket(
        protocol="shared", sender_id="alice", instance_addr="127.0.0.1:9",
        instance_pid="ab" * 16, uri_f="skyrelay://127.0.0.1:9/aaaabbbbcccc/ff",
        guest_token="cd" * 16, certificate={"subject": {}},
        src_path="/d/f.bin", suggested_dst="/inbox/f.bin", size_bytes=123)
    path = tmp_path / "t.ticket"
    write_ticket(ticket, str(path))
    got = read_ticket(str(path))
    assert got == ticket


def test_read_ticket_times_out(tmp_path):
    with pytest.raises(TimeoutError):
        read_ticket(str(tmp_path / "never.ticket"), timeout_s=0.2)


def test_read_ticket_waits_for_writer(tmp_path):
    path = tmp_path / "late.ticket"
    ticket = TransferTicket(
        protocol="private", sender_id="a", instance_addr="x:1", instance_pid="",
        uri_f="skyrelay://x:1/aaaabbbbcccc/ff", guest_token="t", certificate={},
        src_path="/s", suggested_dst="/d", size_bytes=1)
    t = threading.Timer(0.2, write_ticket, args=(ticket, str(path)))
    t.start()
    try:
        got = read_ticket(str(path), timeout_s=2.0)
        assert got.sender_id == "a"
    finally:
        t.cancel()


# -- private dual-instance transfer --

def test_private_transfer_end_to_end(cluster, tmp_path):
    la, calls_a = private_launcher_for(cluster)
    lb, calls_b = private_launcher_for(cluster)
    alice, tok_a = make_agent(cluster, "alice", launcher=la, seed=1)
    bob, tok_b = make_agent(cluster, "bob", launcher=lb, seed=2)
    payload = os.urandom(2 * 1024 * 1024)
    put_file(cluster, tok_a, "/out/ship.bin", payload)
    alice.sync()
    tpath = str(tmp_path / "x.ticket")

    alice.cmd_send("bob", "/out/ship.bin", tpath)
    bob.cmd_recv(tpath)

    sess_b = cluster.backend.authenticate(tok_b)
    assert cluster.backend.get_object(sess_b, "/inbox/ship.bin") == payload
    assert len(calls_a) == 1 and len(calls_b) == 1
    ia = cluster.workers.index(calls_a[0])
    ib = cluster.workers.index(calls_b[0])
    # each side's token is seen only between that side and its own instance
    allowed_a = {f"alice->{calls_a[0].addr}", f"worker{ia}<-"}
    allowed_b = {f"bob->{calls_b[0].addr}", f"worker{ib}<-"}
    seen_a = cluster.recorder.occurrences(tok_a.encode())
    seen_b = cluster.recorder.occurrences(tok_b.encode())
    assert seen_a and seen_b  # plaintext creds do flow on the private path
    for label in seen_a:
        assert any(label.startswith(a) for a in allowed_a), label
    for label in seen_b:
        assert any(label.startswith(a) for a in allowed_b), label


def test_recv_rejects_tampered_certificate(cluster, tmp_path):
    la, _ = private_launcher_for(cluster)
    lb, calls_b = private_launcher_for(cluster)
    alice, tok_a = make_agent(cluster, "alice", launcher=la, seed=1)
    opened = []

    def counting_factory(addr, purpose):
        opened.append(addr)
        from skyrelay.wire import open_channel
        return open_channel(addr)

    bob, _ = make_agent(cluster, "bob", launcher=lb, seed=2,
                        channel_factory=counting_factory)
    put_file(cluster, tok_a, "/out/f.bin", b"f" * 1000)
    alice.sync()
    tpath = str(tmp_path / "t.ticket")
    ticket = alice.cmd_send("bob", "/out/f.bin", tpath)

    forged = TransferTicket.from_wire(ticket.to_wire())
    cert = dict(forged.certificate)
    cert["subject"] = dict(cert["subject"], addr="6.6.6.6:666")
    forged.certificate = cert
    with pytest.raises(PermissionDenied):
        bob.cmd_recv(forged)
    assert opened == []  # rejected before opening any connection
    assert calls_b == []  # and before launching an instance


def test_private_send_requires_certified_instance(cluster, tmp_path):
    # a launcher that returns no certificate cannot produce tickets
    def launch():
        w = cluster.worker(registered=False)
        return w.addr, None

    alice, tok_a = make_agent(cluster, "alice", launcher=launch, seed=1)
    put_file(cluster, tok_a, "/out/f.bin", b"f" * 10)
    alice.sync()
    with pytest.raises(StartError):
        alice.cmd_send("bob", "/out/f.bin", str(tmp_path / "t.ticket"))


def test_recv_expired_exposure_is_gone(cluster, tmp_path):
    w = cluster.worker(shared=False)
    la = lambda: (w.addr, w.certificate.to_wire())
    lb, _ = private_launcher_for(cluster)
    alice, tok_a = make_agent(cluster, "alice", launcher=la, seed=1)
    bob, _ = make_agent(cluster, "bob", launcher=lb, seed=2)
    put_file(cluster, tok_a, "/out/f.bin", b"f" * 500)
    alice.sync()
    tpath = str(tmp_path / "t.ticket")
    alice.cmd_send("bob", "/out/f.bin", tpath)
    # age the exposure past its deadline without waiting for it
    with w._state_lock:
        for entry in w._exposed.values():
            entry.expires_at = time.time() - 1
    with pytest.raises(Gone):
        bob.cmd_recv(tpath)


# -- shared single-instance transfer --

@pytest.mark.parametrize("recv", ["cmd_recv", "cmd_recv_shared"])
def test_shared_transfer_end_to_end(cluster, tmp_path, recv):
    purposes = []

    def recording_factory(addr, purpose):
        purposes.append(purpose)
        return cluster.recorder.channel_factory("bob")(addr, purpose)

    alice, tok_a = make_agent(cluster, "alice", seed=1)
    bob, tok_b = make_agent(cluster, "bob", seed=2, channel_factory=recording_factory)
    w = cluster.worker(shared=True)
    payload = os.urandom(1 << 20)
    put_file(cluster, tok_a, "/out/pkg.bin", payload)
    alice.sync()
    tpath = str(tmp_path / "s.ticket")

    ticket = alice.cmd_send_shared("bob", "/out/pkg.bin", tpath)
    assert ticket.protocol == "shared"
    assert ticket.instance_pid == w.pid.hex()
    getattr(bob, recv)(tpath)
    # the ticket's protocol routes the receive through the coordinator's
    # pairing check onto the sender's instance
    assert purposes == ["verify", "job"]

    sess_b = cluster.backend.authenticate(tok_b)
    assert cluster.backend.get_object(sess_b, "/inbox/pkg.bin") == payload
    # both account tokens stayed off the wire end to end
    assert cluster.recorder.occurrences(tok_a.encode()) == []
    assert cluster.recorder.occurrences(tok_b.encode()) == []


def test_shared_recv_fails_without_sender_allocation(cluster, tmp_path):
    alice, tok_a = make_agent(cluster, "alice", seed=1)
    bob, _ = make_agent(cluster, "bob", seed=2)
    w = cluster.worker(shared=True)
    put_file(cluster, tok_a, "/out/f.bin", b"f" * 100)
    alice.sync()
    tpath = str(tmp_path / "t.ticket")
    ticket = alice.cmd_send_shared("bob", "/out/f.bin", tpath)
    # forge the pid: the coordinator has no allocation for it
    forged = TransferTicket.from_wire(ticket.to_wire())
    forged.instance_pid = "00" * 16
    with pytest.raises(VerificationFailed):
        bob.cmd_recv_shared(forged)


def test_shared_recv_rejects_address_mismatch(cluster, tmp_path):
    alice, tok_a = make_agent(cluster, "alice", seed=1)
    bob, _ = make_agent(cluster, "bob", seed=2)
    cluster.worker(shared=True)
    put_file(cluster, tok_a, "/out/f.bin", b"f" * 100)
    alice.sync()
    ticket = alice.cmd_send_shared("bob", "/out/f.bin", str(tmp_path / "t.ticket"))
    forged = TransferTicket.from_wire(ticket.to_wire())
    forged.instance_addr = "127.0.0.1:1"
    forged.uri_f = forged.uri_f.replace(ticket.instance_addr, "127.0.0.1:1")
    with pytest.raises(PermissionDenied):
        bob.cmd_recv_shared(forged)


def test_metrics_entries_have_uniform_shape(cluster, tmp_path):
    agent, tok = make_agent(cluster, "alice", download_dir=str(tmp_path))
    put_file(cluster, tok, "/d/f.bin", os.urandom(20_000))
    agent.sync()
    cluster.worker(shared=True)
    agent.cmd_basic("create", {"path": "/m", "kind": "folder"})
    agent.cmd_cloud_op("compress", {"path": "/d/f.bin"})
    keys = {"op", "bytes_sent", "bytes_received", "wall_ms", "heartbeats"}
    assert all(set(m) == keys for m in agent.metrics)
    assert agent.metrics[0]["heartbeats"] == 0
    assert agent.metrics[1]["heartbeats"] >= 3
