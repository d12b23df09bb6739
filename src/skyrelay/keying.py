"""Temporal key chain and credential envelopes.

The coordinator and each shared worker agree on a chain of epoch keys.
The epoch is a pure function of (t0, interval_s, now), so each side
rotates on its own with no traffic: EpochKeyState.advance(now) walks the
chain through every boundary at or before now, whenever its holder reads
it.  Storage credentials handed to a shared worker are encrypted under a
per-user key derived from the epoch key and a fresh random value, so an
instance owner who inspects the channel later cannot recover them.

The coordinator draws each chain's epoch-0 key at random and hands it to
the worker in the registration reply.  (The paper hashes it from the pid
and t0, which every instance certificate shows.)

Byte encodings are pinned so both sides agree bit-exactly: timestamps are
8-byte big-endian seconds, and concatenation is plain byte concatenation.
The hash is SHA-256 throughout.

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


def key_at_epoch(root: bytes, t0: float, offset_s: int, interval_s: int, epoch: int) -> bytes:
    """Fold the chain from its epoch-0 key root; O(epoch).

    Epoch n's key is H(key(n-1) || be64(minute(t0 + n * interval_s) + offset_s)),
    with t0 rounded down to its minute first.  The offset keeps the hashed
    timestamp off the exact minute boundary.
    """
    _check_offset(offset_s)
    key = root
    t0m = round_minute(t0)
    for n in range(1, epoch + 1):
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

    def rotate(self) -> None:
        next_epoch = self.epoch + 1
        self.key_previous = key = self.key_current
        # key_at_epoch's step; offset_s was checked at construction
        t = int(self.t0 + next_epoch * self.interval_s)
        self.key_current = sha256(key + _be64(t - t % 60 + self.offset_s)).digest()
        self.epoch = next_epoch

    def advance(self, now: float) -> bool:
        """Rotate through every boundary at or before now; True if any."""
        start = self.epoch
        while now >= self.next_rotation_at():
            self.rotate()
        return self.epoch != start

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
