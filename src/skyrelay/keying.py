"""Temporal key chain and credential envelopes.

The coordinator and each shared worker agree on a chain of epoch keys.
The epoch is a pure function of (t0, interval_s, now), so each side
rotates on its own with no traffic: EpochKeyState.advance(now) walks the
chain through every boundary at or before now, whenever its holder reads
it.  Storage credentials handed to a shared worker are encrypted under a
per-user key derived from the epoch key and a fresh random value, so an
instance owner who inspects the channel later cannot recover them.

initial_server_key is the paper's epoch-0 key, H(pid || minute(t0)).  The
live coordinator does not use it: pid and t0 are in every instance
certificate, so anyone holding a grant could recompute the whole chain.
It draws a random root instead and hands it to the worker in the
registration reply; rotation is the same from there on.

Byte encodings are pinned so both sides agree bit-exactly: pid is 16 raw
bytes, timestamps are 8-byte big-endian seconds, and concatenation is plain
byte concatenation.  The hash is SHA-256 throughout.

Rotation timestamps come from the schedule (t0 + n * interval_s), never
from the wall clock at rotation time, which keeps the chain deterministic
on both sides.
"""

from __future__ import annotations

import base64
import json
import os
import struct
from dataclasses import dataclass
from hashlib import sha256

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .core import CredentialSet, canonical_json
from .errors import ConfigError, CredentialAuthFailure, InvalidOffset

PID_BYTES = 16
KEY_BYTES = 32
NONCE_BYTES = 12
R_BYTES = 32

OFFSET_MIN = 1
OFFSET_MAX = 512
DEFAULT_INTERVAL_S = 180


_be64 = struct.Struct(">Q").pack


def round_minute(t: float) -> int:
    s = int(t)
    return s - s % 60


def _check_offset(offset_s: int):
    if not OFFSET_MIN <= offset_s <= OFFSET_MAX:
        raise InvalidOffset(f"offset_s must be in [{OFFSET_MIN}, {OFFSET_MAX}], got {offset_s}")


def check_interval(interval_s: int):
    # advance() walks one interval per step, so a zero step never ends
    if interval_s <= 0:
        raise ConfigError(f"interval_s must be positive, got {interval_s}")


def initial_server_key(pid: bytes, t: float) -> bytes:
    """Epoch-0 key: H(pid || be64(minute(t)))."""
    if len(pid) != PID_BYTES:
        raise ValueError(f"pid must be {PID_BYTES} bytes")
    return sha256(pid + _be64(round_minute(t))).digest()


def rotate_key(key: bytes, epoch_time: float, offset_s: int) -> bytes:
    """Next key: H(key || be64(minute(epoch_time) + offset_s)).

    epoch_time for epoch n is t0 + n * interval_s.  The offset keeps the
    hashed timestamp off the exact minute boundary.
    """
    _check_offset(offset_s)
    return sha256(key + _be64(round_minute(epoch_time) + offset_s)).digest()


def key_at_epoch(pid: bytes, t0: float, offset_s: int, interval_s: int, epoch: int) -> bytes:
    """Fold the whole chain from scratch; O(epoch)."""
    _check_offset(offset_s)
    key = initial_server_key(pid, t0)
    t0m = round_minute(t0)
    for n in range(1, epoch + 1):
        # rotate_key, inlined: offset_s is checked once above.
        t = int(t0m + n * interval_s)
        key = sha256(key + _be64(t - t % 60 + offset_s)).digest()
    return key


@dataclass
class EpochKeyState:
    """One side's view of the chain.

    Not thread-safe: callers hold the owner's lock or work on a copy.
    key_previous is kept for exactly one epoch so envelopes sealed just
    before a rotation still open.
    """

    pid: bytes
    t0: int
    offset_s: int
    interval_s: int
    epoch: int
    key_current: bytes
    key_previous: bytes | None

    def __post_init__(self):
        _check_offset(self.offset_s)
        check_interval(self.interval_s)

    @classmethod
    def create(cls, pid: bytes, t: float, offset_s: int,
               interval_s: int = DEFAULT_INTERVAL_S) -> EpochKeyState:
        t0 = round_minute(t)
        return cls(
            pid=pid,
            t0=t0,
            offset_s=offset_s,
            interval_s=interval_s,
            epoch=0,
            key_current=initial_server_key(pid, t0),
            key_previous=None,
        )

    def rotate(self) -> None:
        next_epoch = self.epoch + 1
        self.key_previous = key = self.key_current
        # rotate_key, inlined: offset_s was checked at construction.
        t = int(self.t0 + next_epoch * self.interval_s)
        self.key_current = sha256(key + _be64(t - t % 60 + self.offset_s)).digest()
        self.epoch = next_epoch

    def advance(self, now: float) -> bool:
        """Rotate through every boundary at or before now; True if any."""
        start = self.epoch
        while now >= self.next_rotation_at():
            self.rotate()
        return self.epoch != start

    def rotate_to(self, epoch: int) -> None:
        while self.epoch < epoch:
            self.rotate()

    def next_rotation_at(self) -> int:
        return self.t0 + (self.epoch + 1) * self.interval_s


def derive_user_key(k_serv: bytes, r: bytes) -> bytes:
    """Per-user key: H(k_serv || r)."""
    return sha256(k_serv + r).digest()


@dataclass
class UserKeyGrant:
    """A user key plus the public material needed to re-derive it."""

    r: bytes
    key: bytes
    epoch_issued: int


def issue_user_grant(state: EpochKeyState) -> UserKeyGrant:
    r = os.urandom(R_BYTES)
    return UserKeyGrant(r=r, key=derive_user_key(state.key_current, r), epoch_issued=state.epoch)


@dataclass
class CredentialCiphertext:
    """Sealed credentials plus the material the worker needs to open them."""

    nonce: bytes
    body: bytes
    r: bytes
    epoch_hint: int

    def to_wire(self) -> dict:
        return {
            "nonce": base64.b64encode(self.nonce).decode("ascii"),
            "body": base64.b64encode(self.body).decode("ascii"),
            "r": base64.b64encode(self.r).decode("ascii"),
            "epoch_hint": self.epoch_hint,
        }

    @classmethod
    def from_wire(cls, d: dict) -> CredentialCiphertext:
        return cls(
            nonce=base64.b64decode(d["nonce"]),
            body=base64.b64decode(d["body"]),
            r=base64.b64decode(d["r"]),
            epoch_hint=d["epoch_hint"],
        )


def job_binding(pid: bytes, job_id: str, fois_wire: list) -> bytes:
    """Associated data that ties an envelope to one job on one instance.

    pid || job_id || sha256(canonical fois): pid has a fixed length and the
    digest ends the string, so distinct jobs never share a binding.
    """
    return pid + job_id.encode("utf-8") + sha256(canonical_json(fois_wire)).digest()


def encrypt_credentials(key: bytes, sc: CredentialSet, r: bytes, epoch_hint: int,
                        aad: bytes | None = None) -> CredentialCiphertext:
    """Seal sc under an already-derived user key (AES-256-GCM, fresh nonce),
    bound to aad, which opening must present unchanged."""
    nonce = os.urandom(NONCE_BYTES)
    body = AESGCM(key).encrypt(nonce, canonical_json(sc.to_wire()), aad)
    return CredentialCiphertext(nonce=nonce, body=body, r=r, epoch_hint=epoch_hint)


def seal_credentials(state: EpochKeyState, sc: CredentialSet) -> CredentialCiphertext:
    """Issue a grant at the current epoch and seal sc with it."""
    grant = issue_user_grant(state)
    return encrypt_credentials(grant.key, sc, grant.r, grant.epoch_issued)


def decrypt_credentials(state: EpochKeyState, ct: CredentialCiphertext, *,
                        aad: bytes | None = None) -> CredentialSet:
    """Open a credential envelope against the worker's chain state.

    The epoch hint names the one chain key to try: key_current for the
    current epoch, key_previous for the one before, nothing for any other.
    """
    if ct.epoch_hint == state.epoch:
        k_serv = state.key_current
    elif ct.epoch_hint == state.epoch - 1:
        k_serv = state.key_previous
    else:
        k_serv = None
    if k_serv is not None:
        try:
            plain = AESGCM(derive_user_key(k_serv, ct.r)).decrypt(ct.nonce, ct.body, aad)
        except InvalidTag:
            pass
        else:
            return CredentialSet.from_wire(json.loads(plain.decode("utf-8")))
    raise CredentialAuthFailure(
        f"cannot open credential envelope (hint epoch {ct.epoch_hint}, state epoch {state.epoch})"
    )
