"""Coordinator: the trusted rendezvous between agents and worker instances.

The coordinator registers instances, keeps each one's epoch key chain in
lockstep (it issued the chain, so it never needs to ask the instance
anything), hands agents instance grants with per-user keys, verifies
sender/receiver pairings for transfers through shared instances, and signs
instance certificates so agents can authenticate what a worker claims.

It runs no thread of its own.  Chain position, retirement (share window
over, or no ping within PING_MISS_LIMIT intervals of PING_INTERVAL_S) and
allocation expiry are all functions of the clock, so each request settles
the records it reads to the current time before it uses them.

Registration is one request and one reply on the channel the instance
opened: the reply carries the pid, the certificate, the chain (a random
32-byte root plus t0, offset and interval) and the ping interval, so the
instance pings at the cadence its retirement is judged by.  A grant, to
REQUEST_INSTANCE or VERIFY_TRANSFER, is the body of the ACK that ends the
request.  The paper
derives the root as H(pid || t0); both of those are in every certificate,
so any grantee could recompute the chain, and the root here is drawn at
random instead.

It never touches file bytes: everything here is control traffic.
"""

from __future__ import annotations

import collections
import os
import random
import threading
import time
from dataclasses import dataclass, field

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from .errors import (
    AlreadyRegistered,
    DecodeError,
    NoInstanceAvailable,
    NotFound,
    RegistrationError,
    SkyrelayError,
    VerificationFailed,
)
from .keying import (
    DEFAULT_INTERVAL_S,
    KEY_BYTES,
    OFFSET_MAX,
    OFFSET_MIN,
    EpochKeyState,
    check_interval,
    issue_user_grant,
    round_minute,
)
from .wire import (
    Certificate,
    Listener,
    Message,
    ServerConn,
    default_opener,
    issue_certificate,
)

DEFAULT_MIN_SHARE_REMAINING_S = 60.0
DEFAULT_ALLOC_TTL_S = 600.0
# how long a transfer ticket may wait for its receiver
DEFAULT_TICKET_TIMEOUT_S = 60.0
# reuse_until ends this much before the earliest time a grant stops working,
# so clocks a little apart and a job in flight still make it
REUSE_SLACK_S = 5
LOG_MAX_LINES = 10_000
# an instance pings every PING_INTERVAL_S and is retired after
# PING_MISS_LIMIT intervals without one
PING_INTERVAL_S = 30.0
PING_MISS_LIMIT = 3


@dataclass
class CoordinatorConfig:
    listen_addr: str = "127.0.0.1:0"
    min_share_remaining_s: float = DEFAULT_MIN_SHARE_REMAINING_S
    alloc_ttl_s: float = DEFAULT_ALLOC_TTL_S
    interval_s: int = DEFAULT_INTERVAL_S
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
    status: str = "active"  # active -> retired
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
        self._log_lines: collections.deque[str] = collections.deque(maxlen=LOG_MAX_LINES)
        self._signing_key = Ed25519PrivateKey.generate()
        self.public_key = self._signing_key.public_key().public_bytes_raw()
        self._instances: dict[bytes, InstanceRecord] = {}
        self._allocations: dict[tuple[str, bytes], _Allocation] = {}
        self._lock = threading.Lock()
        self._log_lock = threading.Lock()
        self._listener: Listener | None = None
        self._open = self.cfg.channel_factory or default_opener

    # -- lifecycle --

    def start(self) -> str:
        check_interval(self.cfg.interval_s)
        self._listener = Listener(self.cfg.listen_addr, self._handle,
                                  tap_factory=self.cfg.tap_factory)
        self.addr = self._listener.addr
        self._log(f"coordinator listening at {self.addr}")
        return self.addr

    def stop(self):
        if self._listener:
            self._listener.close()

    @property
    def log(self) -> list[str]:
        """The latest LOG_MAX_LINES log lines, oldest first."""
        with self._log_lock:
            return list(self._log_lines)

    def _log(self, line: str):
        with self._log_lock:
            self._log_lines.append(f"{time.time():.3f} {line}")

    def wire_totals(self) -> tuple[int, int]:
        """(sent, received) on the coordinator's listener, cumulative."""
        if self._listener is None:
            return (0, 0)
        return self._listener.total_bytes()

    # -- settling clock-driven state; callers hold _lock --

    def _settle(self, rec: InstanceRecord, now: float):
        """Retire rec if its share window or pings lapsed, else walk its chain to now."""
        if rec.status != "active":
            return
        over = now >= rec.share_until
        if over or now - rec.last_ping > PING_INTERVAL_S * PING_MISS_LIMIT:
            rec.status = "retired"
            self._log(f"retired instance {rec.pid.hex()[:8]} "
                      f"({'share window over' if over else 'missed pings'})")
        elif rec.key_state.advance(now):
            self._log(f"instance {rec.pid.hex()[:8]} advanced to epoch {rec.key_state.epoch}")

    def _sweep(self, now: float):
        """Settle every record and drop expired allocations."""
        for rec in self._instances.values():
            self._settle(rec, now)
        self._allocations = {k: a for k, a in self._allocations.items()
                             if now < a.expires_at}

    # -- message handling --

    @staticmethod
    def _pid_of(body: dict) -> bytes:
        pid = body.get("pid")
        try:
            return bytes.fromhex(pid)
        except (TypeError, ValueError):
            raise DecodeError(f"pid must be a hex string, got {pid!r}") from None

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
            raise DecodeError(f"coordinator does not accept {msg.kind}")

    def _handle_register(self, conn: ServerConn, msg: Message):
        body = msg.body
        addr, share_until = body.get("addr"), body.get("share_until")
        capacity = body.get("capacity", 100)
        if not (isinstance(addr, str) and addr and type(share_until) is int
                and type(capacity) is int):
            raise DecodeError(f"REGISTER_INSTANCE needs a string addr and integer "
                              f"share_until and capacity, got {addr!r}, "
                              f"{share_until!r} and {capacity!r}")
        now = time.time()
        if share_until <= now:
            raise RegistrationError("share_until is already in the past")
        # an instance whose listener cannot be reached never turns active
        try:
            self._open(addr, "probe").close()
        except SkyrelayError as e:
            raise RegistrationError(f"cannot reach {addr}: {e}") from e
        with self._lock:
            self._sweep(time.time())
            for rec in self._instances.values():
                if rec.addr == addr and rec.status == "active":
                    raise AlreadyRegistered(f"address {addr} is already registered")
            pid = os.urandom(16)
            # random root, not H(pid || t0): see the module docstring
            key_state = EpochKeyState(
                pid=pid,
                t0=round_minute(now),
                offset_s=self.rng.randint(OFFSET_MIN, OFFSET_MAX),
                interval_s=self.cfg.interval_s,
                epoch=0,
                key_current=os.urandom(KEY_BYTES),
                key_previous=None,
            )
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
                capacity=capacity,
                key_state=key_state,
                certificate=certificate,
            )
            self._instances[pid] = rec
        self._log(f"registered instance {pid.hex()[:8]} at {addr} "
                  f"(shared={rec.shared}, until {share_until})")
        # the chain root goes back on the channel the instance opened
        conn.send_ack(msg.seq, {
            "pid": pid.hex(),
            "coordinator_pub": self.public_key.hex(),
            "k_root": key_state.key_current.hex(),
            "t0": key_state.t0,
            "offset_s": key_state.offset_s,
            "interval_s": key_state.interval_s,
            "ping_interval_s": PING_INTERVAL_S,
            "certificate": certificate.to_wire(),
        })

    def _grant(self, rec: InstanceRecord, user_id: str, now: float) -> dict:
        """Issue user_id a key on rec and record the allocation; caller holds _lock.

        The grant may be reused until reuse_until, the earliest of: the end
        of the epoch after this one (the worker opens the current epoch and
        the one before), the allocation's expiry less a ticket's wait (so a
        receiver's VERIFY_TRANSFER still finds it), and the point where the
        instance stops being granted; less REUSE_SLACK_S.
        """
        grant = issue_user_grant(rec.key_state)
        expires_at = now + self.cfg.alloc_ttl_s
        self._allocations[(user_id, rec.pid)] = _Allocation(
            user_id=user_id,
            pid=rec.pid,
            granted_at=now,
            expires_at=expires_at,
        )
        reuse_until = int(min(
            rec.key_state.next_rotation_at() + rec.key_state.interval_s,
            expires_at - DEFAULT_TICKET_TIMEOUT_S,
            rec.share_until - self.cfg.min_share_remaining_s,
        )) - REUSE_SLACK_S
        return {
            "pid": rec.pid.hex(),
            "addr": rec.addr,
            "share_until": rec.share_until,
            "certificate": rec.certificate.to_wire(),
            "r": grant.r.hex(),
            "key": grant.key.hex(),
            "epoch": grant.epoch_issued,
            "reuse_until": reuse_until,
        }

    def _handle_request_instance(self, conn: ServerConn, msg: Message):
        user_id = msg.body.get("user_id", "")
        now = time.time()
        with self._lock:
            self._sweep(now)
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
            body = self._grant(best, user_id, now)
            body["os_info"] = best.os_info
            body["hardware_info"] = best.hardware_info
        self._log(f"granted instance {body['pid'][:8]} to user {user_id} "
                  f"(epoch {body['epoch']})")
        conn.send_ack(msg.seq, body)

    def _handle_verify_transfer(self, conn: ServerConn, msg: Message):
        body = msg.body
        user_id = body.get("user_id", "")
        sender_id = body.get("sender_id", "")
        pid = self._pid_of(body)
        now = time.time()
        with self._lock:
            self._sweep(now)
            rec = self._instances.get(pid)
            if rec is None or rec.status != "active":
                raise VerificationFailed("instance is not active")
            alloc = self._allocations.get((sender_id, pid))
            if alloc is None:
                raise VerificationFailed(
                    f"no live allocation of this instance to sender {sender_id!r}")
            reply = self._grant(rec, user_id, now)
        self._log(f"verified transfer on {pid.hex()[:8]}: sender {sender_id} -> {user_id}")
        conn.send_ack(msg.seq, reply)

    def _handle_ping(self, conn: ServerConn, msg: Message):
        pid = self._pid_of(msg.body)
        with self._lock:
            rec = self._instances.get(pid)
            if rec is None:
                raise NotFound(f"unknown instance {pid.hex()}")
            # a ping after the miss window retires its instance, not revives it
            now = time.time()
            self._settle(rec, now)
            if rec.status == "active":
                rec.last_ping = now
                reply = None
            else:
                reply = {"status": "retired"}  # the instance stops on this
        conn.send_ack(msg.seq, reply)

    def _handle_shutdown_notice(self, conn: ServerConn, msg: Message):
        pid = self._pid_of(msg.body)
        with self._lock:
            self._sweep(time.time())
            rec = self._instances.get(pid)
            if rec is None:
                raise NotFound(f"unknown instance {pid.hex()}")
            rec.status = "retired"
            dead = [k for k in self._allocations if k[1] == pid]
            for k in dead:
                del self._allocations[k]
        self._log(f"instance {pid.hex()[:8]} shut down")
        conn.send_ack(msg.seq)

    # -- local API (used in-process; no wire kinds needed) --

    def instances(self, status: str | None = None) -> list[dict]:
        with self._lock:
            self._sweep(time.time())
            recs = sorted(self._instances.values(), key=lambda r: r.registered_at)
            return [r.summary() for r in recs if status is None or r.status == status]
