"""Temporal key chain, user key derivation, credential envelopes."""

import os
import random
from hashlib import sha256

import pytest

from skyrelay.core import CredentialSet
from skyrelay.errors import ConfigError, CredentialAuthFailure, InvalidOffset
from skyrelay.keying import (
    EpochKeyState,
    derive_user_key,
    decrypt_credentials,
    encrypt_credentials,
    issue_user_grant,
    key_at_epoch,
    round_minute,
    CredentialCiphertext,
)

ZERO_PID = b"\x00" * 16
ZERO_ROOT = bytes(32)


def _paper_root(pid: bytes, t0: float) -> bytes:
    """The paper's epoch-0 key, sha256(pid || be64(minute(t0)))."""
    return sha256(pid + round_minute(t0).to_bytes(8, "big")).digest()


def _chain(root: bytes, t0: float, offset_s: int, interval_s: int = 180) -> EpochKeyState:
    """A chain at epoch 0 with epoch-0 key root, built as the coordinator builds one."""
    return EpochKeyState(pid=ZERO_PID, t0=round_minute(t0), offset_s=offset_s,
                         interval_s=interval_s, epoch=0, key_current=root, key_previous=None)


def _seal(state: EpochKeyState, sc: CredentialSet) -> CredentialCiphertext:
    """sc sealed under a fresh grant at state's epoch, as an agent seals it."""
    grant = issue_user_grant(state)
    return encrypt_credentials(grant.key, sc, grant.r, grant.epoch_issued)


def test_rotation_chain_distinct_keys():
    st = _chain(ZERO_ROOT, 0, 17)
    keys = [st.key_current]
    for _ in range(3):
        st.rotate()
        keys.append(st.key_current)
    assert len(set(keys)) == 4
    # rotation matches a by-hand fold of the pinned encoding
    by_hand = sha256(ZERO_ROOT + (180 - 180 % 60 + 17).to_bytes(8, "big")).digest()
    assert keys[1] == by_hand == key_at_epoch(ZERO_ROOT, 0, 17, 180, 1)


@pytest.mark.parametrize("triple, expected", [
    ((bytes([0x11]) * 16, 1_700_000_123, 17, 180),
     "7064dfebed61b53fca392341320a4c4c3fb57e00110cb3004b633f293638594e"),
    # an interval off the minute and a fractional t0 exercise the rounding
    ((bytes(range(16)), 1_650_000_000.75, 512, 45),
     "a2c7420468c73789d0e5c4935530ac838490b1b9b94272d161a8e0162536b518"),
])
def test_epoch_1000_frozen_value(triple, expected):
    # Pinned from a chain walk that starts at the paper's root for (pid, t0);
    # the from-scratch fold and the stepping state must both keep its value.
    pid, t0, offset_s, interval_s = triple
    root = _paper_root(pid, t0)
    assert key_at_epoch(root, t0, offset_s, interval_s, 1000).hex() == expected
    st = _chain(root, t0, offset_s, interval_s)
    for _ in range(1000):
        st.rotate()
    assert st.key_current.hex() == expected


def test_offset_range():
    for good in (1, 512):
        _chain(ZERO_ROOT, 0, good)
        key_at_epoch(ZERO_ROOT, 0, good, 180, 1)
    for bad in (0, -3, 513, 600):
        with pytest.raises(InvalidOffset):
            _chain(ZERO_ROOT, 0, bad)
        with pytest.raises(InvalidOffset):
            key_at_epoch(ZERO_ROOT, 0, bad, 180, 1)


@pytest.mark.parametrize("offset_s, interval_s, error", [
    (0, 180, InvalidOffset),
    (513, 180, InvalidOffset),
    (7, 0, ConfigError),
    (7, -60, ConfigError),
])
def test_chain_refuses_a_bad_offset_or_interval(offset_s, interval_s, error):
    # built directly, as the coordinator and a registering worker build it;
    # a chain with interval 0 would never finish advance()
    with pytest.raises(error):
        EpochKeyState(pid=ZERO_PID, t0=0, offset_s=offset_s, interval_s=interval_s,
                      epoch=0, key_current=bytes(32), key_previous=None)


def test_two_parties_agree():
    rng = random.Random(42)
    for _ in range(10):
        root = rng.randbytes(32)
        t0 = rng.randrange(0, 2**31)
        offset = rng.randrange(1, 513)
        interval = rng.choice([60, 180, 300])
        a = _chain(root, t0, offset, interval)
        b = _chain(root, t0, offset, interval)
        for _ in range(50):
            a.rotate()
            b.rotate()
            assert a.key_current == b.key_current
        # stepping state equals the from-scratch fold
        assert a.key_current == key_at_epoch(root, t0, offset, interval, a.epoch)


def test_state_tracks_previous_key():
    st = _chain(ZERO_ROOT, 0, 7)
    assert st.key_previous is None and st.epoch == 0
    k0 = st.key_current
    st.rotate()
    assert st.epoch == 1 and st.key_previous == k0


def test_advance_rotates_through_every_boundary_up_to_now():
    st = _chain(ZERO_ROOT, 1_700_000_000, 7, interval_s=60)
    first = st.next_rotation_at()
    assert not st.advance(first - 0.001) and st.epoch == 0
    assert st.advance(first) and st.epoch == 1  # a boundary at now counts
    assert not st.advance(first + 59.9) and st.epoch == 1
    assert st.advance(first + 60 * 4 + 1) and st.epoch == 5
    ref = _chain(ZERO_ROOT, 1_700_000_000, 7, interval_s=60)
    for _ in range(5):
        ref.rotate()
    assert st == ref


def test_derive_user_key_independent_r():
    k_serv = os.urandom(32)
    seen = set()
    for _ in range(1000):
        r = os.urandom(32)
        key = derive_user_key(k_serv, r)
        assert key == sha256(k_serv + r).digest()
        seen.add(key)
    assert len(seen) == 1000


def test_envelope_round_trip_and_nonce_freshness():
    st = _chain(os.urandom(32), 1_700_000_000, 33)
    sc = CredentialSet(account_id="alice", token="tok-" + os.urandom(8).hex())
    ct1 = _seal(st, sc)
    ct2 = _seal(st, sc)
    assert ct1.nonce != ct2.nonce and ct1.body != ct2.body
    assert decrypt_credentials(st, ct1) == sc
    assert decrypt_credentials(st, ct2) == sc
    rt = CredentialCiphertext.from_wire(ct1.to_wire())
    assert decrypt_credentials(st, rt) == sc


def test_envelope_tamper_detection():
    st = _chain(os.urandom(32), 0, 5)
    sc = CredentialSet(account_id="a", token="t")
    ct = _seal(st, sc)
    for i in range(len(ct.body)):
        if i % 7:  # sample positions, full sweep is slow
            continue
        mangled = CredentialCiphertext(
            nonce=ct.nonce,
            body=ct.body[:i] + bytes([ct.body[i] ^ 0x01]) + ct.body[i + 1:],
            r=ct.r,
            epoch_hint=ct.epoch_hint,
        )
        with pytest.raises(CredentialAuthFailure):
            decrypt_credentials(st, mangled)


def test_multi_user_grants_on_one_worker():
    worker = _chain(os.urandom(32), 0, 44)
    coord = _chain(worker.key_current, 0, 44)
    sc_a = CredentialSet(account_id="alice", token="ta")
    sc_b = CredentialSet(account_id="bob", token="tb")
    ga = issue_user_grant(coord)
    gb = issue_user_grant(coord)
    assert ga.r != gb.r and ga.key != gb.key
    ct_a = encrypt_credentials(ga.key, sc_a, ga.r, ga.epoch_issued)
    ct_b = encrypt_credentials(gb.key, sc_b, gb.r, gb.epoch_issued)
    assert decrypt_credentials(worker, ct_a) == sc_a
    assert decrypt_credentials(worker, ct_b) == sc_b


def test_grace_window_one_epoch():
    st = _chain(os.urandom(32), 0, 99)
    sc = CredentialSet(account_id="a", token="t")
    ct = _seal(st, sc)
    st.rotate()
    assert decrypt_credentials(st, ct) == sc  # n+1: previous key still held
    st.rotate()
    with pytest.raises(CredentialAuthFailure):
        decrypt_credentials(st, ct)  # n+2: gone


def test_hint_picks_the_key_exactly():
    st = _chain(os.urandom(32), 0, 99)
    sc = CredentialSet(account_id="a", token="t")
    ct = _seal(st, sc)
    st.rotate()
    # sealed at epoch n, relabelled n+1: key_current is tried, and only it
    relabelled = CredentialCiphertext(nonce=ct.nonce, body=ct.body, r=ct.r,
                                      epoch_hint=st.epoch)
    with pytest.raises(CredentialAuthFailure):
        decrypt_credentials(st, relabelled)
    assert decrypt_credentials(st, ct) == sc


def test_wrong_chain_never_decrypts():
    st = _chain(os.urandom(32), 0, 12)
    ct = _seal(st, CredentialSet(account_id="a", token="t"))
    other = _chain(os.urandom(32), 0, 12)
    with pytest.raises(CredentialAuthFailure):
        decrypt_credentials(other, ct)
