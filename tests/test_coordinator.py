"""Coordinator tests: registration, grants, verification, retirement."""

import hashlib
import platform
import time

import pytest

from skyrelay.coordinator import Coordinator, CoordinatorConfig
from skyrelay.errors import (
    AlreadyRegistered,
    ConfigError,
    ConnectError,
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
from skyrelay.wire import Certificate, open_channel, verify_certificate
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
    grants = [e.body for e in events if e.kind == "INSTANCE_GRANT"]
    assert len(grants) == 1
    g = grants[0]
    assert g["pid"] == w.pid.hex() and g["addr"] == w.addr
    verify_certificate(cluster.coordinator.public_key,
                       Certificate.from_wire(g["certificate"]))
    # the granted key must be the derivation the worker will perform
    rec = cluster.coordinator._instances[w.pid]
    expect = derive_user_key(rec.key_state.key_current, bytes.fromhex(g["r"]))
    assert bytes.fromhex(g["key"]) == expect
    assert expect == hashlib.sha256(
        rec.key_state.key_current + bytes.fromhex(g["r"])).digest()


def test_grant_key_not_derivable_from_certificate(cluster):
    # pid and issued_at are public in every certificate; with a hashed
    # chain root they would give away the instance key behind the grant
    cluster.worker(shared=True)
    _, events = request(cluster.coordinator.addr, "REQUEST_INSTANCE", {"user_id": "alice"})
    g = [e.body for e in events if e.kind == "INSTANCE_GRANT"][0]
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
        _, events = request(cluster.coordinator.addr, "REQUEST_INSTANCE",
                            {"user_id": "alice"})
        g = [e.body for e in events if e.kind == "INSTANCE_GRANT"][0]
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
    _, events = request(cluster.coordinator.addr, "VERIFY_TRANSFER", {
        "user_id": "bob", "sender_id": "alice", "pid": w.pid.hex()})
    grants = [e.body for e in events if e.kind == "VERIFY_GRANT"]
    assert len(grants) == 1
    g = grants[0]
    assert g["pid"] == w.pid.hex()
    rec = cluster.coordinator._instances[w.pid]
    assert bytes.fromhex(g["key"]) == derive_user_key(
        rec.key_state.key_current, bytes.fromhex(g["r"]))
    # receiver now holds an allocation: a chained verify succeeds
    _, events2 = request(cluster.coordinator.addr, "VERIFY_TRANSFER", {
        "user_id": "carol", "sender_id": "bob", "pid": w.pid.hex()})
    assert any(e.kind == "VERIFY_GRANT" for e in events2)


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


def test_missed_pings_retire_instance(cluster):
    coord = Coordinator(CoordinatorConfig(
        ping_interval_s=0.1, ping_miss_limit=2))
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


def test_late_heartbeat_leaves_instance_retired(cluster):
    coord = Coordinator(CoordinatorConfig(ping_interval_s=0.1, ping_miss_limit=2))
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
def fast_pings(tmp_path):
    """A coordinator that retires an instance after 0.2 s without a ping,
    and a worker registered with it."""
    coord = Coordinator(CoordinatorConfig(ping_interval_s=0.1, ping_miss_limit=2))
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
