"""Coordinator: the trusted rendezvous between agents and worker instances.

The coordinator registers instances, walks each one's epoch key chain in
lockstep (it issued the chain, so it never needs to ask the instance
anything), hands agents instance grants with per-user keys, verifies
sender/receiver pairings for transfers through shared instances, and signs
instance certificates so agents can authenticate what a worker claims.

It never touches file bytes: everything here is control traffic.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass, field

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from .errors import (
    AlreadyRegistered,
    NoInstanceAvailable,
    NotFound,
    RegistrationError,
    VerificationFailed,
)
from .keying import (
    DEFAULT_INTERVAL_S,
    OFFSET_MAX,
    OFFSET_MIN,
    EpochKeyState,
    issue_user_grant,
)
from .wire import (
    Certificate,
    Channel,
    Listener,
    Message,
    ServerConn,
    issue_certificate,
    open_channel,
)

DEFAULT_MIN_SHARE_REMAINING_S = 60.0
DEFAULT_ALLOC_TTL_S = 600.0


@dataclass
class CoordinatorConfig:
    listen_addr: str = "127.0.0.1:0"
    min_share_remaining_s: float = DEFAULT_MIN_SHARE_REMAINING_S
    alloc_ttl_s: float = DEFAULT_ALLOC_TTL_S
    interval_s: int = DEFAULT_INTERVAL_S
    ping_miss_limit: int = 3
    ping_interval_s: float = 30.0
    sweep_interval_s: float = 1.0
    rng: random.Random | None = None
    channel_factory: object | None = None  # (addr, purpose) -> Channel
    tap_factory: object | None = None


@dataclass
class InstanceRecord:
    pid: bytes
    addr: str
    os_info: str
    hardware_info: str
    share_until: int
    shared: bool
    capacity: int
    key_state: EpochKeyState
    certificate: Certificate
    status: str = "pending"  # pending -> active -> retired
    registered_at: float = field(default_factory=time.time)
    last_ping: float = field(default_factory=time.time)

    def summary(self) -> dict:
        return {
            "pid": self.pid.hex(),
            "addr": self.addr,
            "os_info": self.os_info,
            "hardware_info": self.hardware_info,
            "share_until": self.share_until,
            "shared": self.shared,
            "capacity": self.capacity,
            "status": self.status,
            "epoch": self.key_state.epoch,
        }


@dataclass
class _Allocation:
    user_id: str
    pid: bytes
    granted_at: float
    expires_at: float


class Coordinator:
    def __init__(self, cfg: CoordinatorConfig | None = None):
        self.cfg = cfg or CoordinatorConfig()
        self.rng = self.cfg.rng or random.Random()
        self.addr: str | None = None
        self.log: list[str] = []
        self._signing_key = Ed25519PrivateKey.generate()
        self.public_key = self._signing_key.public_key().public_bytes_raw()
        self._instances: dict[bytes, InstanceRecord] = {}
        self._allocations: dict[tuple[str, bytes], _Allocation] = {}
        self._lock = threading.Lock()
        self._log_lock = threading.Lock()
        self._listener: Listener | None = None
        self._stopping = threading.Event()
        self._threads: list[threading.Thread] = []

    # -- lifecycle --

    def start(self) -> str:
        self._listener = Listener(self.cfg.listen_addr, self._handle,
                                  tap_factory=self.cfg.tap_factory)
        self.addr = self._listener.addr
        t = threading.Thread(target=self._rotation_loop, daemon=True)
        t.start()
        self._threads.append(t)
        t = threading.Thread(target=self._retire_loop, daemon=True)
        t.start()
        self._threads.append(t)
        self._log(f"coordinator listening at {self.addr}")
        return self.addr

    def stop(self):
        self._stopping.set()
        if self._listener:
            self._listener.close()

    def _log(self, line: str):
        with self._log_lock:
            self.log.append(f"{time.time():.3f} {line}")

    def wire_totals(self) -> tuple[int, int]:
        """(sent, received) on the coordinator's listener, cumulative."""
        if self._listener is None:
            return (0, 0)
        return self._listener.total_bytes()

    def _open(self, addr: str, purpose: str) -> Channel:
        if self.cfg.channel_factory:
            return self.cfg.channel_factory(addr, purpose)
        return open_channel(addr)

    # -- background sweeps --

    def _rotation_loop(self):
        # Walk every registered chain on its own schedule; replicas stay in
        # lockstep with the instance without any traffic.
        while not self._stopping.wait(0.2):
            now = time.time()
            with self._lock:
                for rec in self._instances.values():
                    if rec.status == "retired":
                        continue
                    st = rec.key_state
                    rotated = False
                    while now >= st.next_rotation_at():
                        st.rotate()
                        rotated = True
                    if rotated:
                        self._log(f"instance {rec.pid.hex()[:8]} advanced to epoch {st.epoch}")

    def _retire_loop(self):
        while not self._stopping.wait(self.cfg.sweep_interval_s):
            now = time.time()
            miss_window = self.cfg.ping_interval_s * self.cfg.ping_miss_limit
            with self._lock:
                for rec in self._instances.values():
                    if rec.status != "active":
                        continue
                    if now >= rec.share_until or now - rec.last_ping > miss_window:
                        rec.status = "retired"
                        self._log(f"retired instance {rec.pid.hex()[:8]} "
                                  f"({'share window over' if now >= rec.share_until else 'missed pings'})")
                dead = [k for k, a in self._allocations.items() if now >= a.expires_at]
                for k in dead:
                    del self._allocations[k]

    # -- message handling --

    def _handle(self, conn: ServerConn, msg: Message):
        if msg.kind == "REGISTER_INSTANCE":
            self._handle_register(conn, msg)
        elif msg.kind == "REQUEST_INSTANCE":
            self._handle_request_instance(conn, msg)
        elif msg.kind == "VERIFY_TRANSFER":
            self._handle_verify_transfer(conn, msg)
        elif msg.kind == "HEARTBEAT":
            self._handle_ping(conn, msg)
        elif msg.kind == "SHUTDOWN_NOTICE":
            self._handle_shutdown_notice(conn, msg)
        else:
            conn.send_error(msg.seq, {
                "code": "DECODE_ERROR",
                "message": f"coordinator does not accept {msg.kind}",
            })

    def _handle_register(self, conn: ServerConn, msg: Message):
        body = msg.body
        addr = body["addr"]
        share_until = int(body["share_until"])
        now = time.time()
        if share_until <= now:
            raise RegistrationError("share_until is already in the past")
        with self._lock:
            for rec in self._instances.values():
                if rec.addr == addr and rec.status in ("pending", "active"):
                    raise AlreadyRegistered(f"address {addr} is already registered")
            pid = os.urandom(16)
            t0 = int(now)
            offset_s = self.rng.randint(OFFSET_MIN, OFFSET_MAX)
            key_state = EpochKeyState.create(pid, t0, offset_s, self.cfg.interval_s)
            certificate = issue_certificate(
                self._signing_key,
                subject={"pid": pid.hex(), "addr": addr, "shared": bool(body.get("shared", True))},
                issued_at=int(now),
                expiry=share_until,
            )
            rec = InstanceRecord(
                pid=pid,
                addr=addr,
                os_info=body.get("os_info", ""),
                hardware_info=body.get("hardware_info", ""),
                share_until=share_until,
                shared=bool(body.get("shared", True)),
                capacity=int(body.get("capacity", 100)),
                key_state=key_state,
                certificate=certificate,
            )
            self._instances[pid] = rec
        self._log(f"registered instance {pid.hex()[:8]} at {addr} "
                  f"(shared={rec.shared}, until {share_until})")
        conn.send_ack(msg.seq, {
            "pid": pid.hex(),
            "coordinator_pub": self.public_key.hex(),
        })
        # Dial back on a fresh channel: the service bundle and the key chain
        # root go to the instance's own listener, not down the register pipe.
        t = threading.Thread(target=self._dispatch_ssp, args=(rec,), daemon=True)
        t.start()
        self._threads.append(t)

    def _dispatch_ssp(self, rec: InstanceRecord):
        try:
            ch = self._open(rec.addr, "dispatch")
            try:
                ch.request("DISPATCH_SSP", {
                    "pid": rec.pid.hex(),
                    "cfg": {
                        "t0": rec.key_state.t0,
                        "offset_s": rec.key_state.offset_s,
                        "interval_s": rec.key_state.interval_s,
                        "share_until": rec.share_until,
                        "coordinator": self.addr,
                    },
                    "certificate": rec.certificate.to_wire(),
                })
                ch.request("KEY_INIT", {
                    "pid": rec.pid.hex(),
                    "k_serv": rec.key_state.key_current.hex(),
                    "epoch": rec.key_state.epoch,
                    "t0": rec.key_state.t0,
                    "offset_s": rec.key_state.offset_s,
                    "interval_s": rec.key_state.interval_s,
                })
            finally:
                ch.close()
        except Exception as e:  # noqa: BLE001 - registration must not wedge the pool
            with self._lock:
                rec.status = "retired"
            self._log(f"dispatch to {rec.addr} failed: {e}")
            return
        with self._lock:
            rec.status = "active"
            rec.last_ping = time.time()
        self._log(f"instance {rec.pid.hex()[:8]} active")

    def _handle_request_instance(self, conn: ServerConn, msg: Message):
        user_id = msg.body.get("user_id", "")
        now = time.time()
        with self._lock:
            best: InstanceRecord | None = None
            for rec in self._instances.values():
                if rec.status != "active" or not rec.shared:
                    continue
                if rec.share_until - now < self.cfg.min_share_remaining_s:
                    continue
                # prefer the instance that stays around longest; break ties
                # on pid so repeated requests land on the same box
                if (best is None or rec.share_until > best.share_until
                        or (rec.share_until == best.share_until
                            and rec.pid.hex() < best.pid.hex())):
                    best = rec
            if best is None:
                raise NoInstanceAvailable("no shared instance with enough time left")
            grant = issue_user_grant(best.key_state)
            self._allocations[(user_id, best.pid)] = _Allocation(
                user_id=user_id,
                pid=best.pid,
                granted_at=now,
                expires_at=now + self.cfg.alloc_ttl_s,
            )
            body = {
                "pid": best.pid.hex(),
                "addr": best.addr,
                "os_info": best.os_info,
                "hardware_info": best.hardware_info,
                "share_until": best.share_until,
                "certificate": best.certificate.to_wire(),
                "r": grant.r.hex(),
                "key": grant.key.hex(),
                "epoch": grant.epoch_issued,
            }
        self._log(f"granted instance {body['pid'][:8]} to user {user_id} "
                  f"(epoch {body['epoch']})")
        conn.send_event("INSTANCE_GRANT", msg.seq, body)
        conn.send_ack(msg.seq)

    def _handle_verify_transfer(self, conn: ServerConn, msg: Message):
        body = msg.body
        user_id = body.get("user_id", "")
        sender_id = body.get("sender_id", "")
        pid = bytes.fromhex(body["pid"])
        now = time.time()
        with self._lock:
            rec = self._instances.get(pid)
            if rec is None or rec.status != "active":
                raise VerificationFailed("instance is not active")
            alloc = self._allocations.get((sender_id, pid))
            if alloc is None or now >= alloc.expires_at:
                raise VerificationFailed(
                    f"no live allocation of this instance to sender {sender_id!r}")
            grant = issue_user_grant(rec.key_state)
            self._allocations[(user_id, pid)] = _Allocation(
                user_id=user_id,
                pid=pid,
                granted_at=now,
                expires_at=now + self.cfg.alloc_ttl_s,
            )
            reply = {
                "pid": pid.hex(),
                "addr": rec.addr,
                "share_until": rec.share_until,
                "certificate": rec.certificate.to_wire(),
                "r": grant.r.hex(),
                "key": grant.key.hex(),
                "epoch": grant.epoch_issued,
            }
        self._log(f"verified transfer on {pid.hex()[:8]}: sender {sender_id} -> {user_id}")
        conn.send_event("VERIFY_GRANT", msg.seq, reply)
        conn.send_ack(msg.seq)

    def _handle_ping(self, conn: ServerConn, msg: Message):
        pid = bytes.fromhex(msg.body["pid"])
        with self._lock:
            rec = self._instances.get(pid)
            if rec is None:
                raise NotFound(f"unknown instance {msg.body['pid']}")
            rec.last_ping = time.time()
        conn.send_ack(msg.seq)

    def _handle_shutdown_notice(self, conn: ServerConn, msg: Message):
        pid = bytes.fromhex(msg.body["pid"])
        with self._lock:
            rec = self._instances.get(pid)
            if rec is None:
                raise NotFound(f"unknown instance {msg.body['pid']}")
            rec.status = "retired"
            dead = [k for k in self._allocations if k[1] == pid]
            for k in dead:
                del self._allocations[k]
        self._log(f"instance {pid.hex()[:8]} shut down")
        conn.send_ack(msg.seq)

    # -- local API (used in-process; no wire kinds needed) --

    def instances(self, status: str | None = None) -> list[dict]:
        with self._lock:
            recs = sorted(self._instances.values(), key=lambda r: r.registered_at)
            return [r.summary() for r in recs if status is None or r.status == status]
