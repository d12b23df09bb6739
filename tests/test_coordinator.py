"""Coordinator tests: registration, grants, verification, retirement."""

import hashlib
import platform
import time

import pytest

from skyrelay import coordinator
from skyrelay.coordinator import REUSE_SLACK_S, Coordinator, CoordinatorConfig
from skyrelay.errors import (
    AlreadyRegistered,
    ConfigError,
    ConnectError,
    DecodeError,
    NoInstanceAvailable,
    NotFound,
    RegistrationError,
    VerificationFailed,
)
from skyrelay.keying import (
    OFFSET_MAX,
    OFFSET_MIN,
    derive_user_key,
    key_at_epoch,
    round_minute,
)
from skyrelay.scheduler import plan_batch
from skyrelay.wire import Certificate, decode_message, open_channel, verify_certificate
from skyrelay.worker import CPU_COUNT, Worker, WorkerConfig


def request(addr, kind, body, timeout=10.0):
    events = []
    ch = open_channel(addr)
    try:
        reply = ch.request(kind, body, on_event=events.append, timeout=timeout)
    finally:
        ch.close()
    return reply, events


# -- registration --

def test_register_activates_and_lists(cluster):
    w = cluster.worker(shared=True)
    # active as soon as start() returns: no polling
    rows = cluster.coordinator.instances(status="active")
    assert len(rows) == 1
    row = rows[0]
    assert row["pid"] == w.pid.hex()
    assert row["addr"] == w.addr
    assert row["shared"] is True
    assert row["os_info"] == platform.system().lower()
    assert row["hardware_info"] == f"{CPU_COUNT} vcpu"
    # the certificate in the registration reply covers exactly this instance
    assert w.certificate.subject["pid"] == w.pid.hex()
    assert w.certificate.subject["addr"] == w.addr
    verify_certificate(cluster.coordinator.public_key, w.certificate)


def test_duplicate_address_rejected(cluster):
    w = cluster.worker(shared=True)
    with pytest.raises(AlreadyRegistered):
        request(cluster.coordinator.addr, "REGISTER_INSTANCE", {
            "addr": w.addr, "shared": True,
            "share_until": int(time.time()) + 600, "capacity": 1,
        })


def test_register_with_past_window_rejected(cluster):
    with pytest.raises(RegistrationError):
        request(cluster.coordinator.addr, "REGISTER_INSTANCE", {
            "addr": "127.0.0.1:1", "shared": True,
            "share_until": int(time.time()) - 5, "capacity": 1,
        })


# -- instance grants --

def test_grant_contains_working_user_key(cluster):
    w = cluster.worker(shared=True)
    reply, events = request(cluster.coordinator.addr, "REQUEST_INSTANCE",
                            {"user_id": "alice"})
    assert reply.kind == "ACK" and events == []
    g = reply.body
    assert g["pid"] == w.pid.hex() and g["addr"] == w.addr
    verify_certificate(cluster.coordinator.public_key,
                       Certificate.from_wire(g["certificate"]))
    # the granted key must be the derivation the worker will perform
    rec = cluster.coordinator._instances[w.pid]
    expect = derive_user_key(rec.key_state.key_current, bytes.fromhex(g["r"]))
    assert bytes.fromhex(g["key"]) == expect
    assert expect == hashlib.sha256(
        rec.key_state.key_current + bytes.fromhex(g["r"])).digest()


@pytest.mark.parametrize("kind", ["REQUEST_INSTANCE", "VERIFY_TRANSFER"])
def test_a_grant_round_trip_is_two_frames(cluster, kind):
    w = cluster.worker(shared=True)
    if kind == "VERIFY_TRANSFER":
        request(cluster.coordinator.addr, "REQUEST_INSTANCE", {"user_id": "alice"})
    frames = []
    ch = open_channel(cluster.coordinator.addr,
                      tap=lambda direction, frame: frames.append((direction, frame)))
    try:
        ch.request(kind, {"user_id": "bob", "sender_id": "alice", "pid": w.pid.hex()})
    finally:
        ch.close()
    assert [d for d, _ in frames] == ["sent", "received"]
    ack = decode_message(frames[1][1])
    assert ack.kind == "ACK" and ack.body["pid"] == w.pid.hex()
    assert {"addr", "certificate", "r", "key", "epoch", "reuse_until"} <= ack.body.keys()


def test_grant_key_not_derivable_from_certificate(cluster):
    # pid and issued_at are public in every certificate; with a hashed
    # chain root they would give away the instance key behind the grant
    cluster.worker(shared=True)
    g = request(cluster.coordinator.addr, "REQUEST_INSTANCE", {"user_id": "alice"})[0].body
    cert = Certificate.from_wire(g["certificate"])
    pid = bytes.fromhex(cert.subject["pid"])
    # the paper's root, H(pid || be64(minute(t0))), from the certificate alone
    root = hashlib.sha256(pid + round_minute(cert.issued_at).to_bytes(8, "big")).digest()
    r, key = bytes.fromhex(g["r"]), bytes.fromhex(g["key"])
    for epoch in {0, 1, g["epoch"]}:
        for interval_s in (60, 180, 300):
            for offset_s in range(OFFSET_MIN, OFFSET_MAX + 1):
                k = key_at_epoch(root, cert.issued_at, offset_s, interval_s, epoch)
                assert derive_user_key(k, r) != key


@pytest.mark.parametrize("bound", ["epoch", "allocation", "share"])
def test_reuse_until_is_the_earliest_bound(tmp_path, bound):
    # the epoch after the issuing one ends 180 to 360 s out; the allocation
    # (less a ticket's 60 s wait) and the share window each cut it shorter
    coord = Coordinator(CoordinatorConfig(alloc_ttl_s=100.0 if bound == "allocation" else 600.0))
    coord.start()
    w = Worker(WorkerConfig(coordinator_addr=coord.addr, scratch_dir=str(tmp_path),
                            share_duration_s=200.0 if bound == "share" else 3600.0))
    try:
        w.start()
        before = time.time()
        g = request(coord.addr, "REQUEST_INSTANCE", {"user_id": "alice"})[0].body
        after = time.time()
        st = w.key_state
        expect = {
            "epoch": [st.t0 + (g["epoch"] + 2) * st.interval_s],
            "allocation": [int(t + 100.0 - 60.0) for t in (before, after)],
            "share": [w.share_until - 60],
        }[bound]
        assert type(g["reuse_until"]) is int
        assert min(expect) - REUSE_SLACK_S <= g["reuse_until"] <= max(expect) - REUSE_SLACK_S
        assert g["reuse_until"] > after  # each bound leaves room to reuse it
    finally:
        w.stop()
        coord.stop()


@pytest.mark.parametrize("field, value", [("addr", None), ("capacity", "x")])
def test_malformed_registration_is_a_decode_error(cluster, field, value):
    w = cluster.worker(registered=False)
    body = {"addr": w.addr, "shared": True,
            "share_until": int(time.time()) + 600, "capacity": 1}
    if value is None:
        del body[field]
    else:
        body[field] = value
    with pytest.raises(DecodeError):
        request(cluster.coordinator.addr, "REGISTER_INSTANCE", body)
    assert cluster.coordinator.instances() == []


@pytest.mark.parametrize("kind", ["VERIFY_TRANSFER", "HEARTBEAT", "SHUTDOWN_NOTICE"])
@pytest.mark.parametrize("pid", [None, 5, "zz"], ids=["missing", "int", "not-hex"])
def test_malformed_pid_is_a_decode_error(cluster, kind, pid):
    body = {"user_id": "bob", "sender_id": "alice"}
    if pid is not None:
        body["pid"] = pid
    with pytest.raises(DecodeError):
        request(cluster.coordinator.addr, kind, body)


def test_unreachable_address_never_registers(cluster):
    with pytest.raises(RegistrationError):
        request(cluster.coordinator.addr, "REGISTER_INSTANCE", {
            "addr": "127.0.0.1:1", "shared": True,
            "share_until": int(time.time()) + 600, "capacity": 1,
        })
    assert cluster.coordinator.instances() == []


def test_no_pool_means_no_grant(cluster):
    with pytest.raises(NoInstanceAvailable):
        request(cluster.coordinator.addr, "REQUEST_INSTANCE", {"user_id": "a"})


def test_private_instances_never_granted(cluster):
    cluster.worker(shared=False)
    with pytest.raises(NoInstanceAvailable):
        request(cluster.coordinator.addr, "REQUEST_INSTANCE", {"user_id": "a"})


def test_nearly_expired_instances_skipped(cluster):
    # remaining share time below the floor: not usable for new work
    cluster.worker(shared=True, share_duration_s=30)
    with pytest.raises(NoInstanceAvailable):
        request(cluster.coordinator.addr, "REQUEST_INSTANCE", {"user_id": "a"})


def test_longest_lived_instance_preferred(cluster):
    short = cluster.worker(shared=True, share_duration_s=400)
    long = cluster.worker(shared=True, share_duration_s=4000)
    for _ in range(3):
        g = request(cluster.coordinator.addr, "REQUEST_INSTANCE",
                    {"user_id": "alice"})[0].body
        assert g["pid"] == long.pid.hex() != short.pid.hex()


# -- transfer verification --

def test_verify_transfer_requires_sender_allocation(cluster):
    w = cluster.worker(shared=True)
    with pytest.raises(VerificationFailed):
        request(cluster.coordinator.addr, "VERIFY_TRANSFER", {
            "user_id": "bob", "sender_id": "alice", "pid": w.pid.hex()})


def test_verify_transfer_happy_path(cluster):
    w = cluster.worker(shared=True)
    request(cluster.coordinator.addr, "REQUEST_INSTANCE", {"user_id": "alice"})
    reply, events = request(cluster.coordinator.addr, "VERIFY_TRANSFER", {
        "user_id": "bob", "sender_id": "alice", "pid": w.pid.hex()})
    assert reply.kind == "ACK" and events == []
    g = reply.body
    assert g["pid"] == w.pid.hex()
    rec = cluster.coordinator._instances[w.pid]
    assert bytes.fromhex(g["key"]) == derive_user_key(
        rec.key_state.key_current, bytes.fromhex(g["r"]))
    # receiver now holds an allocation: a chained verify succeeds
    chained, _ = request(cluster.coordinator.addr, "VERIFY_TRANSFER", {
        "user_id": "carol", "sender_id": "bob", "pid": w.pid.hex()})
    assert chained.body["pid"] == w.pid.hex()


def test_verify_transfer_wrong_instance(cluster):
    cluster.worker(shared=True)
    request(cluster.coordinator.addr, "REQUEST_INSTANCE", {"user_id": "alice"})
    with pytest.raises(VerificationFailed):
        request(cluster.coordinator.addr, "VERIFY_TRANSFER", {
            "user_id": "bob", "sender_id": "alice", "pid": "00" * 16})


# -- liveness and retirement --

def test_heartbeat_unknown_pid(cluster):
    with pytest.raises(NotFound):
        request(cluster.coordinator.addr, "HEARTBEAT", {"pid": "ab" * 16})


@pytest.fixture
def ping_every_100ms(monkeypatch):
    """Instances ping every 0.1 s and retire after 0.2 s without one."""
    monkeypatch.setattr(coordinator, "PING_INTERVAL_S", 0.1)
    monkeypatch.setattr(coordinator, "PING_MISS_LIMIT", 2)


def test_missed_pings_retire_instance(cluster, ping_every_100ms):
    coord = Coordinator()
    addr = coord.start()
    try:
        # worker pings slower than the coordinator demands, then stops
        w = cluster.worker(shared=True, registered=False)
        reply, _ = request(addr, "REGISTER_INSTANCE", {
            "addr": w.addr, "shared": True,
            "share_until": int(time.time()) + 600, "capacity": 1,
            "os_info": "linux", "hardware_info": "test",
        })
        pid = reply.body["pid"]
        deadline = time.monotonic() + 3.0
        while time.monotonic() < deadline:
            rows = coord.instances(status="retired")
            if any(r["pid"] == pid for r in rows):
                break
            time.sleep(0.05)
        assert any(r["pid"] == pid for r in coord.instances(status="retired"))
        assert any(f"retired instance {pid[:8]} (missed pings)" in line
                   for line in coord.log)
    finally:
        coord.stop()


def test_late_heartbeat_leaves_instance_retired(cluster, ping_every_100ms):
    coord = Coordinator()
    addr = coord.start()
    try:
        w = cluster.worker(shared=True, registered=False)
        reply, _ = request(addr, "REGISTER_INSTANCE", {
            "addr": w.addr, "shared": True,
            "share_until": int(time.time()) + 600, "capacity": 1,
            "os_info": "linux", "hardware_info": "test",
        })
        pid = reply.body["pid"]
        time.sleep(0.3)  # past the 0.2 s miss window, and nothing read the record
        late, _ = request(addr, "HEARTBEAT", {"pid": pid})
        assert late.body == {"status": "retired"}
        assert [r["pid"] for r in coord.instances(status="retired")] == [pid]
        assert any(f"retired instance {pid[:8]} (missed pings)" in line
                   for line in coord.log)
    finally:
        coord.stop()


@pytest.fixture
def fast_pings(tmp_path, ping_every_100ms):
    """A coordinator that retires an instance after 0.2 s without a ping,
    and a worker registered with it."""
    coord = Coordinator()
    coord.start()
    w = Worker(WorkerConfig(coordinator_addr=coord.addr, scratch_dir=str(tmp_path)))
    w.start()
    yield coord, w
    w.stop()
    coord.stop()


def test_worker_pings_at_the_coordinators_cadence(fast_pings):
    coord, w = fast_pings
    assert w.ping_interval_s == 0.1
    time.sleep(1.0)
    assert [r["pid"] for r in coord.instances(status="active")] == [w.pid.hex()]
    assert not w.terminated.is_set()


def test_retired_worker_stops_on_its_next_ping(fast_pings):
    coord, w = fast_pings
    live, _ = request(coord.addr, "HEARTBEAT", {"pid": w.pid.hex()})
    assert live.body == {}
    # retire the record behind the worker's back
    request(coord.addr, "SHUTDOWN_NOTICE", {"pid": w.pid.hex(), "addr": w.addr})
    assert w.terminated.wait(1.0)
    assert any("retired by the coordinator, shutting down" in line for line in w.log)
    with pytest.raises(ConnectError):
        open_channel(w.addr)


def test_shutdown_notice_retires_and_drops_allocations(cluster):
    w = cluster.worker(shared=True)
    request(cluster.coordinator.addr, "REQUEST_INSTANCE", {"user_id": "alice"})
    request(cluster.coordinator.addr, "SHUTDOWN_NOTICE",
            {"pid": w.pid.hex(), "addr": w.addr})
    rows = cluster.coordinator.instances(status="retired")
    assert [r["pid"] for r in rows] == [w.pid.hex()]
    with pytest.raises(VerificationFailed):
        request(cluster.coordinator.addr, "VERIFY_TRANSFER", {
            "user_id": "bob", "sender_id": "alice", "pid": w.pid.hex()})


# -- key rotation stays in lockstep --

@pytest.mark.parametrize("interval_s", [0, -180])
def test_coordinator_refuses_a_rotation_interval_that_is_not_positive(interval_s):
    coord = Coordinator(CoordinatorConfig(interval_s=interval_s))
    try:
        with pytest.raises(ConfigError):
            coord.start()
        assert coord.addr is None  # nothing was bound
    finally:
        coord.stop()


def test_rotation_lockstep_under_short_interval():
    coord = Coordinator(CoordinatorConfig(interval_s=1))
    addr = coord.start()
    w = Worker(WorkerConfig(coordinator_addr=addr, shared=True))
    w.start()
    try:
        assert w.key_state.interval_s == 1
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and w.key_state.epoch < 2:
            time.sleep(0.05)
        assert w.key_state.epoch >= 2  # several rotations happened
        rec = coord._instances[w.pid]
        for _ in range(40):  # the worker's clock thread may wake a beat late
            coord.instances()  # settles the record to now
            if (rec.key_state.epoch == w.key_state.epoch
                    and rec.key_state.key_current == w.key_state.key_current):
                break
            time.sleep(0.05)
        assert rec.key_state.epoch == w.key_state.epoch
        assert rec.key_state.key_current == w.key_state.key_current
    finally:
        w.stop()
        coord.stop()


# -- batch planning onto the coordinator's live pool --

def test_allocate_batch_on_live_pool(cluster):
    now = time.time()
    for _ in range(4):
        cluster.worker(shared=True, share_duration_s=3600, capacity=6)
    tasks = [
        {"id": f"t{i}", "start": now + s, "end": now + e, "bandwidth": 3.0}
        for i, (s, e) in enumerate([(0, 40), (10, 50), (20, 60), (30, 70)])
    ]
    assignment = plan_batch(tasks, cluster.coordinator.instances("active"), now)
    # pairwise overlap is at most 2 concurrent 3-unit tasks per 6-unit box
    assert assignment.used_count == 2
    assert sorted(assignment.mapping) == [f"t{i}" for i in range(4)]
