"""Coordinator tests: registration, grants, verification, retirement."""

import hashlib
import time

import pytest

from skyrelay.coordinator import Coordinator, CoordinatorConfig
from skyrelay.errors import (
    AlreadyRegistered,
    NoInstanceAvailable,
    NotFound,
    RegistrationError,
    VerificationFailed,
)
from skyrelay.keying import derive_user_key
from skyrelay.scheduler import plan_batch
from skyrelay.wire import Certificate, open_channel, verify_certificate


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
    rows = cluster.coordinator.instances(status="active")
    assert len(rows) == 1
    row = rows[0]
    assert row["pid"] == w.pid.hex()
    assert row["addr"] == w.addr
    assert row["shared"] is True
    # the certificate handed over in dispatch covers exactly this instance
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
        ping_interval_s=0.1, ping_miss_limit=2, sweep_interval_s=0.05))
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
    finally:
        coord.stop()


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

def test_rotation_lockstep_under_short_interval():
    coord = Coordinator(CoordinatorConfig(interval_s=1))
    addr = coord.start()
    from skyrelay.worker import Worker, WorkerConfig
    w = Worker(WorkerConfig(coordinator_addr=addr, shared=True))
    w.start()
    try:
        assert w.key_state.interval_s == 1
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and w.key_state.epoch < 2:
            time.sleep(0.05)
        assert w.key_state.epoch >= 2  # several rotations happened
        rec = coord._instances[w.pid]
        for _ in range(40):  # both drivers poll; allow them to converge
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
