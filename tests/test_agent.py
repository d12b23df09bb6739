"""Agent tests: shadow metadata, cloud delegation, transfers, hygiene."""

import json
import os
import random
import socket
import struct
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
from skyrelay.core import CredentialSet
from skyrelay.errors import (
    AuthError,
    CredentialAuthFailure,
    Gone,
    NoInstanceAvailable,
    NotCloudAssisted,
    NotFound,
    PermissionDenied,
    ShutdownError,
    StartError,
)
from skyrelay.storage import LocalDirBackend, ShadowFS
from skyrelay.wire import (
    Certificate,
    Listener,
    issue_certificate,
    open_channel,
    parse_addr,
)


def make_agent(cluster, name, *, seed=7, launcher=None, download_dir=None,
               coordinator=True, channel_factory=None, backend=None, **extra):
    tok = cluster.account(name)
    cfg = AgentConfig(
        account_id=name, token=tok, backend=backend or cluster.backend,
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


def test_a_token_of_another_account_is_refused_when_the_session_is_built(cluster):
    cluster.account("alice")
    tok_b = cluster.account("bob")
    with pytest.raises(AuthError):
        AgentSession(AgentConfig(account_id="alice", token=tok_b, backend=cluster.backend))


def test_ls_reads_storage_not_the_mirror(cluster):
    agent, tok = make_agent(cluster, "alice")
    other = LocalDirBackend(cluster.backend.root)
    other.put_object(other.authenticate(tok), "/d/f.bin", b"x")  # behind the agent's back
    assert [m.path for m in agent.ls("/d")] == ["/d/f.bin"]
    assert [m.path for m in agent.ls("/d/f.bin")] == ["/d/f.bin"]


class CountingBackend(LocalDirBackend):
    """A LocalDirBackend that counts its whole-account reads."""

    def __init__(self, root):
        super().__init__(root)
        self.full_reads = 0

    def sync_shadow(self, creds):
        self.full_reads += 1
        return super().sync_shadow(creds)


def test_only_an_op_that_names_an_output_reads_the_mirror(cluster, tmp_path):
    backend = CountingBackend(cluster.backend.root)
    agent, tok = make_agent(cluster, "alice", download_dir=str(tmp_path), backend=backend)
    sess = put_file(cluster, tok, "/d/f.bin", b"f" * 100)
    agent.ls("/")
    agent.ls("/d")
    agent.cmd_basic("create", {"path": "/m", "kind": "folder"})
    agent.cmd_basic("rename", {"src": "/m", "dst": "/n"})
    agent.cmd_basic("delete", {"path": "/n"})
    assert backend.full_reads == 0
    cluster.worker(shared=True)
    agent.cmd_cloud_op("compress", {"path": "/d/f.bin"})
    assert backend.full_reads == 1
    agent.cmd_cloud_op("compress", {"path": "/d/f.bin"})  # a refresh, not a read
    assert backend.full_reads == 1
    assert agent.shadow.entries == cluster.backend.sync_shadow(sess).entries
    assert len(agent.shadow.entries) == 4


# names that sort just before "/" ("-", "."), just after it ("0"), or span
# several UTF-8 bytes, so a sibling can fall between a folder and its children
_NAME_STEMS = ("a", "b", "é", "日本")
_NAME_TAILS = ("", "-", ".", "0", "-1", ".z", "0é", "日")


def test_ls_matches_what_a_fresh_sync_implies(cluster):
    rng = random.Random(3217)
    tok = cluster.account("alice")
    sess = cluster.backend.authenticate(tok)
    folders = ["/"]
    made = set()
    while len(made) < 320:
        parent = rng.choice(folders)
        path = (parent.rstrip("/") + "/" + rng.choice(_NAME_STEMS)
                + rng.choice(_NAME_TAILS) + rng.choice(_NAME_TAILS))
        if path in made:
            continue
        made.add(path)
        if rng.random() < 0.3:
            cluster.backend.basic_op(sess, "create_folder", {"path": path})
            folders.append(path)
        else:
            cluster.backend.put_object(sess, path, b"x" * rng.randrange(4))
    entries = cluster.backend.sync_shadow(sess).entries
    assert len(entries) >= 300
    agent = AgentSession(AgentConfig(account_id="alice", token=tok, backend=cluster.backend))

    def implied(path):
        if path != "/" and entries[path].kind == "file":
            return [entries[path]]
        prefix = "/" if path == "/" else path + "/"
        return sorted((m for p, m in entries.items()
                       if p.startswith(prefix) and "/" not in p[len(prefix):]),
                      key=lambda m: m.path)

    for path in ["/", *entries]:
        assert agent.ls(path) == implied(path), path
    assert sum(len(agent.ls(p)) for p in folders) == len(entries)
    missing = folders[-1] + "-missing"  # sorts between a folder and its children
    assert missing not in entries
    with pytest.raises(NotFound):
        agent.ls(missing)


def test_sync_sees_writes_from_another_backend(cluster, tmp_path):
    agent, tok = make_agent(cluster, "alice", download_dir=str(tmp_path))
    other = LocalDirBackend(cluster.backend.root)
    sess = other.authenticate(tok)
    agent.cmd_basic("create", {"path": "/a", "kind": "folder"})
    other.put_object(sess, "/a/f.bin", b"1")
    other.put_object(sess, "/b/g.bin", b"2")
    other.basic_op(sess, "rename", {"src": "/b", "dst": "/a/b"})
    agent.cmd_basic("create", {"path": "/c", "kind": "folder"})
    other.basic_op(sess, "delete", {"path": "/a/f.bin"})
    other.put_object(sess, "/a/b/g.bin", b"22")
    cluster.worker(shared=True)
    agent.cmd_cloud_op("compress", {"path": "/a/b/g.bin"})
    assert set(agent.shadow.entries) == {"/a", "/a/b", "/a/b/g.bin", "/a/b/g.bin.gz", "/c"}
    assert agent.shadow.entries == other.sync_shadow(sess).entries


def test_backend_without_refresh_keeps_the_shadow_right(cluster, tmp_path, six_methods):
    # the agent syncs through the base-class refresh_shadow: a full sync
    agent, tok = make_agent(cluster, "alice", download_dir=str(tmp_path),
                            backend=six_methods)
    sess = put_file(cluster, tok, "/d/f.bin", os.urandom(10_000))
    cluster.worker(shared=True)
    steps = [lambda: agent.cmd_basic("create", {"path": "/d/e", "kind": "folder"}),
             lambda: agent.cmd_cloud_op("compress", {"path": "/d/f.bin"}),
             lambda: agent.cmd_basic("rename", {"src": "/d", "dst": "/m"}),
             lambda: agent.cmd_basic("delete", {"path": "/m/e"})]
    for step in steps:
        step()
        assert agent.shadow.entries == cluster.backend.sync_shadow(sess).entries
    assert set(agent.shadow.entries) == {"/m", "/m/f.bin", "/m/f.bin.gz"}
    # the check after the first step reads the shadow whole; each later
    # step's refresh falls back to one more full sync
    assert six_methods.calls.count("sync_shadow") == len(steps)


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


@pytest.mark.parametrize("registered", [True, False], ids=["registered", "unregistered"])
def test_key_init_frame_closes_the_connection(cluster, monkeypatch, registered):
    # KEY_INIT is not a wire kind: key material reaches a worker only in its
    # registration reply, so the frame is refused from any peer
    w = cluster.worker(registered=registered)
    st, cert = w.key_state, w.certificate
    seen = []
    monkeypatch.setattr(threading, "excepthook", seen.append)
    payload = json.dumps({"kind": "KEY_INIT", "seq": 1, "body": {
        "pid": "00" * 16, "k_serv": os.urandom(32).hex(), "epoch": 0,
        "t0": 0, "offset_s": 1, "interval_s": 180}}).encode()
    with socket.create_connection(parse_addr(w.addr), timeout=5.0) as sock:
        sock.sendall(struct.pack(">I", len(payload)) + payload)
        assert sock.recv(1) == b""  # closed with no reply
    # the serving thread has finished with the connection, so any exception it raised is seen
    deadline = time.monotonic() + 5.0
    while w._listener._conns and time.monotonic() < deadline:
        time.sleep(0.01)
    assert w._listener._conns == []
    assert seen == []
    assert w.key_state is st and w.certificate is cert


def test_put_names_uncollide(cluster, tmp_path):
    agent, tok = make_agent(cluster, "alice", download_dir=str(tmp_path))
    put_file(cluster, tok, "/d/f.bin", os.urandom(10_000))
    agent.sync()
    cluster.worker(shared=True)
    agent.cmd_cloud_op("compress", {"path": "/d/f.bin"})
    agent.cmd_cloud_op("compress", {"path": "/d/f.bin"})
    assert "/d/f.bin.gz" in agent.shadow.entries
    assert "/d/f.bin.1.gz" in agent.shadow.entries


class _LookupOnly(dict):
    """Shadow entries that answer `in` but refuse to be listed."""

    def __iter__(self):
        raise AssertionError("the free-name check iterated the shadow")

    def keys(self):
        raise AssertionError("the free-name check listed the shadow")


def test_free_name_looks_up_candidates_without_reading_the_shadow():
    session = object.__new__(AgentSession)  # _free_name reads only the shadow
    session.shadow = ShadowFS("alice", entries=_LookupOnly({"/d.x/other": None}))
    names = []
    for _ in range(3):
        name = session._free_name("/d.x/x.gz")
        names.append(name)
        dict.__setitem__(session.shadow.entries, name, None)
    assert names == ["/d.x/x.gz", "/d.x/x.1.gz", "/d.x/x.2.gz"]
    assert session._free_name("/d.x/plain") == "/d.x/plain"
    dict.__setitem__(session.shadow.entries, "/d.x/plain", None)
    assert session._free_name("/d.x/plain") == "/d.x/plain.1"


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
    assert os.stat(key_path).st_mode & 0o777 == 0o600
    key = bytes.fromhex(json.loads(open(key_path).read())["key"])
    blob = cluster.backend.get_object(sess, "/d/s.bin.enc")
    assert decrypt_file_blob(blob, key) == data
    # the key itself never touched the user's cloud storage
    assert all(not p.endswith(".key") for p in agent.shadow.entries)


def test_pushed_name_cannot_leave_download_dir(cluster, tmp_path):
    # a hostile shared instance picks the name the agent saves a pushed file as
    from skyrelay import ppm
    dl = tmp_path / "dl"
    agent, tok = make_agent(cluster, "alice", download_dir=str(dl))
    put_file(cluster, tok, "/pics/p.ppm", ppm.write_ppm(30, 20, os.urandom(30 * 20 * 3)))
    agent.sync()
    w = cluster.worker(shared=True)
    expose = w.expose_intermediate
    w.expose_intermediate = lambda path, job_id, name: expose(
        path, job_id, "../escaped.ppm")
    with pytest.raises(PermissionDenied):
        agent.cmd_cloud_op("convert", {"path": "/pics/p.ppm"})
    assert not (tmp_path / "escaped.ppm").exists()
    assert set(os.listdir(tmp_path)) <= {"dl", "store"}


def test_key_name_cannot_leave_download_dir(cluster, tmp_path):
    # the RESULT's key names pass the same check, before anything is written
    dl = tmp_path / "dl"
    agent, tok = make_agent(cluster, "alice", download_dir=str(dl))
    put_file(cluster, tok, "/d/s.bin", os.urandom(1000))
    agent.sync()
    w = cluster.worker(shared=True)
    op = w._foi_op

    def hostile_op(job, foi):
        op(job, foi)
        for k in job.keys:
            k["name"] = "../x.key"
    w._foi_op = hostile_op
    with pytest.raises(PermissionDenied):
        agent.cmd_cloud_op("encrypt", {"path": "/d/s.bin"})
    assert not (tmp_path / "x.key").exists()
    assert set(os.listdir(tmp_path)) <= {"dl", "store"}
    assert not dl.exists() or os.listdir(dl) == []


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


# -- grant reuse --

def purpose_counter(cluster, name):
    """A channel factory that also records each channel's purpose."""
    purposes = []
    inner = cluster.recorder.channel_factory(name)

    def factory(addr, purpose):
        purposes.append(purpose)
        return inner(addr, purpose)
    return factory, purposes


def shared_agent(cluster, tmp_path, n_files=1):
    factory, purposes = purpose_counter(cluster, "alice")
    agent, tok = make_agent(cluster, "alice", download_dir=str(tmp_path / "dl"),
                            channel_factory=factory)
    for i in range(n_files):
        put_file(cluster, tok, f"/d/f{i}.bin", os.urandom(5000))
    agent.sync()
    return agent, purposes


def test_shared_ops_from_one_agent_cost_one_grant(cluster, tmp_path):
    cluster.worker(shared=True)
    agent, purposes = shared_agent(cluster, tmp_path, n_files=3)
    for i in range(3):
        agent.cmd_cloud_op("compress", {"path": f"/d/f{i}.bin"})
        agent.cmd_cloud_op("encrypt", {"path": f"/d/f{i}.bin"})
    agent.cmd_send("bob", "/d/f0.bin", str(tmp_path / "t.bin"), protocol="shared")
    assert purposes.count("grant") == 1
    assert purposes.count("job") == 7
    assert purposes.count("pull") == 0  # encrypt keys come in the RESULT
    assert sum("granted instance" in line for line in cluster.coordinator.log) == 1


def test_a_grant_whose_epoch_no_longer_opens_is_asked_again_once(cluster, tmp_path):
    w = cluster.worker(shared=True)
    agent, purposes = shared_agent(cluster, tmp_path)
    agent.cmd_cloud_op("compress", {"path": "/d/f0.bin"})
    first = agent._grant
    # both chains move two epochs on: the held grant's epoch no longer opens
    coord = cluster.coordinator
    with coord._lock:
        for _ in range(2):
            coord._instances[w.pid].key_state.rotate()
    with w._key_lock:
        for _ in range(2):
            w.key_state.rotate()
    result = agent.cmd_cloud_op("encrypt", {"path": "/d/f0.bin"})
    assert result["outputs"][0]["path"] == "/d/f0.bin.enc"
    assert purposes.count("grant") == 2 and purposes.count("job") == 3
    assert agent._grant["epoch"] == first["epoch"] + 2
    assert sum("CREDENTIAL_AUTH_FAILURE" in line for line in w.log) == 1


def test_a_fresh_grant_is_not_asked_again(cluster, tmp_path):
    w = cluster.worker(shared=True)
    agent, purposes = shared_agent(cluster, tmp_path)
    with w._key_lock:
        w.key_state = None  # opens no envelope at all
    with pytest.raises(CredentialAuthFailure):
        agent.cmd_cloud_op("compress", {"path": "/d/f0.bin"})
    assert purposes.count("grant") == 1 and purposes.count("job") == 1


@pytest.mark.parametrize("how", ["stopped", "stopping"])
def test_a_stopped_instance_gets_one_resubmission_elsewhere(cluster, tmp_path, how):
    pool = [cluster.worker(shared=True) for _ in range(2)]
    agent, purposes = shared_agent(cluster, tmp_path)
    agent.cmd_cloud_op("compress", {"path": "/d/f0.bin"})
    gone = next(w for w in pool if w.addr == agent._grant["addr"])
    if how == "stopped":
        gone._shut_down("test", notify=True)  # the job channel cannot open
    else:
        gone._stopping = True  # refused at intake, with no step
        ch = open_channel(cluster.coordinator.addr)
        try:
            ch.request("SHUTDOWN_NOTICE", {"pid": gone.pid.hex()})
        finally:
            ch.close()
    result = agent.cmd_cloud_op("encrypt", {"path": "/d/f0.bin"})
    assert result["outputs"][0]["path"] == "/d/f0.bin.enc"
    assert agent._grant["addr"] != gone.addr
    assert purposes.count("grant") == 2 and purposes.count("job") == 3


def test_a_prologue_auth_error_under_a_reused_grant_is_not_resubmitted(cluster, tmp_path):
    cluster.worker(shared=True)
    agent, purposes = shared_agent(cluster, tmp_path)
    agent.cmd_cloud_op("compress", {"path": "/d/f0.bin"})
    purposes.clear()
    # the envelope opens, but its token names another account: no instance
    # would run this job, so it is the caller's error
    agent.creds = CredentialSet("alice", cluster.account("mallory"))
    with pytest.raises(AuthError) as err:
        agent.cmd_cloud_op("encrypt", {"path": "/d/f0.bin"})
    assert not hasattr(err.value, "step")
    assert purposes.count("job") == 1 and purposes.count("grant") == 0


def test_a_job_that_fails_after_step_0_is_not_resubmitted(cluster, tmp_path):
    w = cluster.worker(shared=True)
    agent, purposes = shared_agent(cluster, tmp_path)
    agent.cmd_cloud_op("compress", {"path": "/d/f0.bin"})

    def aborted(job, foi):
        raise ShutdownError("job aborted by instance shutdown")
    w._foi_op = aborted
    with pytest.raises(ShutdownError) as err:
        agent.cmd_cloud_op("compress", {"path": "/d/f0.bin"})
    assert err.value.step == 1
    assert purposes.count("grant") == 1 and purposes.count("job") == 2


def test_no_pool_raises_before_any_job(cluster, tmp_path):
    agent, tok = make_agent(cluster, "alice", download_dir=str(tmp_path))
    put_file(cluster, tok, "/d/f.bin", b"x" * 10)
    agent.sync()
    with pytest.raises(NoInstanceAvailable):
        agent.cmd_cloud_op("compress", {"path": "/d/f.bin"})


def test_an_ack_without_a_grant_is_a_start_error(cluster, tmp_path):
    stub = Listener("127.0.0.1:0", lambda conn, msg: conn.send_ack(msg.seq))
    try:
        agent, tok = make_agent(cluster, "alice", download_dir=str(tmp_path),
                                coordinator=False)
        agent.cfg.coordinator_addr = stub.addr
        put_file(cluster, tok, "/d/f.bin", b"x" * 10)
        agent.sync()
        with pytest.raises(StartError):
            agent.cmd_cloud_op("compress", {"path": "/d/f.bin"})
    finally:
        stub.close()


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
    assert os.stat(path).st_mode & 0o077 == 0  # it carries the guest token


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


def _job_purposes():
    """A channel factory that records each purpose, and the list it fills."""
    purposes = []

    def factory(addr, purpose):
        purposes.append(purpose)
        return open_channel(addr)
    return factory, purposes


@pytest.mark.parametrize("where", ["uri", "uri-and-addr"])
def test_recv_refuses_a_certificate_for_another_instance(cluster, tmp_path, where):
    # the ticket carries instance X's valid certificate but sends the pull to Y
    la, _ = private_launcher_for(cluster)
    lb, calls_b = private_launcher_for(cluster)
    alice, tok_a = make_agent(cluster, "alice", launcher=la, seed=1)
    carol, tok_c = make_agent(cluster, "carol", launcher=lb, seed=3)
    factory, purposes = _job_purposes()
    bob, _ = make_agent(cluster, "bob", launcher=lb, seed=2, channel_factory=factory)
    put_file(cluster, tok_a, "/out/f.bin", b"a" * 100)
    put_file(cluster, tok_c, "/out/f.bin", b"c" * 100)
    alice.sync()
    carol.sync()
    ticket = alice.cmd_send("bob", "/out/f.bin", str(tmp_path / "a.ticket"))
    other = carol.cmd_send("bob", "/out/f.bin", str(tmp_path / "c.ticket"))
    assert other.instance_addr != ticket.instance_addr
    forged = TransferTicket.from_wire(ticket.to_wire())
    forged.uri_f, forged.guest_token = other.uri_f, other.guest_token
    if where == "uri-and-addr":
        forged.instance_addr = other.instance_addr
    launched = len(calls_b)
    with pytest.raises(PermissionDenied):
        bob.cmd_recv(forged)
    assert purposes == [] and len(calls_b) == launched


def test_shared_recv_refuses_a_certificate_for_another_pid(cluster, tmp_path):
    alice, tok_a = make_agent(cluster, "alice", seed=1)
    factory, purposes = _job_purposes()
    bob, _ = make_agent(cluster, "bob", seed=2, channel_factory=factory)
    cluster.worker(shared=True)
    put_file(cluster, tok_a, "/out/f.bin", b"f" * 100)
    alice.sync()
    ticket = alice.cmd_send_shared("bob", "/out/f.bin", str(tmp_path / "t.ticket"))
    forged = TransferTicket.from_wire(ticket.to_wire())
    cert = Certificate.from_wire(ticket.certificate)
    forged.certificate = issue_certificate(
        cluster.coordinator._signing_key, dict(cert.subject, pid="00" * 16),
        cert.issued_at, cert.expiry).to_wire()
    with pytest.raises(PermissionDenied):
        bob.cmd_recv(forged)
    assert "job" not in purposes


@pytest.mark.parametrize("swap", ["certificate", "addr"])
def test_a_grant_whose_certificate_names_another_instance_is_refused(cluster, tmp_path,
                                                                      swap):
    w1 = cluster.worker(shared=True)
    w2 = cluster.worker(shared=False)

    def relay(conn, msg):
        # the coordinator's grant on w1, with one field taken from w2
        ch = open_channel(cluster.coordinator.addr)
        try:
            grant = ch.request(msg.kind, msg.body).body
        finally:
            ch.close()
        assert grant["pid"] == w1.pid.hex()
        grant[swap] = w2.certificate.to_wire() if swap == "certificate" else w2.addr
        conn.send_ack(msg.seq, grant)

    stub = Listener("127.0.0.1:0", relay)
    try:
        factory, purposes = _job_purposes()
        agent, tok = make_agent(cluster, "alice", download_dir=str(tmp_path),
                                channel_factory=factory)
        agent.cfg.coordinator_addr = stub.addr
        put_file(cluster, tok, "/d/f.bin", b"x" * 10)
        agent.sync()
        with pytest.raises(PermissionDenied):
            agent.cmd_cloud_op("compress", {"path": "/d/f.bin"})
        assert purposes == ["grant"]
    finally:
        stub.close()


def test_private_send_requires_certified_instance(cluster, tmp_path):
    # an own instance with no certificate, launched or configured, cannot
    # produce tickets, so the send refuses before it exposes anything there
    w = cluster.worker(registered=False)
    for name, extra in (("alice", {"launcher": lambda: (w.addr, None)}),
                        ("carol", {"private_instance": w.addr})):
        sender, tok = make_agent(cluster, name, seed=1, **extra)
        put_file(cluster, tok, "/out/f.bin", b"f" * 10)
        sender.sync()
        with pytest.raises(StartError):
            sender.cmd_send("bob", "/out/f.bin", str(tmp_path / "t.ticket"))
    assert cluster.recorder.occurrences(b'"SUBMIT_OP"') == []
    assert w._exposed == {}


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
    # refused on the certificate, so the coordinator allocates nothing for bob
    with pytest.raises(PermissionDenied):
        bob.cmd_recv_shared(forged)
    assert [k for k in cluster.coordinator._allocations if k[0] == "bob"] == []


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
