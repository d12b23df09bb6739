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
    initial_server_key,
    issue_user_grant,
    key_at_epoch,
    rotate_key,
    seal_credentials,
    CredentialCiphertext,
)

ZERO_PID = b"\x00" * 16


def test_initial_key_frozen_value():
    # Independently recomputed: SHA-256 over pid (16 raw bytes) || 8-byte
    # big-endian minute-rounded seconds.
    assert initial_server_key(ZERO_PID, 0).hex() == (
        "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0")
    assert initial_server_key(bytes([0x11]) * 16, 125).hex() == (
        "f3a5ae13557f1910cfc30df5269eb35778e2e292e36f9a9093a1b829b276dc27")


def test_initial_key_minute_rounding():
    pid = os.urandom(16)
    assert initial_server_key(pid, 1200) == initial_server_key(pid, 1230)
    assert initial_server_key(pid, 1200) == initial_server_key(pid, 1259.9)
    assert initial_server_key(pid, 1200) != initial_server_key(pid, 1260)


def test_initial_key_determinism_and_pid_length():
    assert initial_server_key(ZERO_PID, 60) == initial_server_key(ZERO_PID, 60)
    with pytest.raises(ValueError):
        initial_server_key(b"\x00" * 8, 0)


def test_rotation_chain_distinct_keys():
    k0 = initial_server_key(ZERO_PID, 0)
    k1 = rotate_key(k0, 180, 17)
    k2 = rotate_key(k1, 360, 17)
    k3 = rotate_key(k2, 540, 17)
    assert len({k0, k1, k2, k3}) == 4
    # rotation matches a by-hand fold of the pinned encoding
    by_hand = sha256(k0 + (180 - 180 % 60 + 17).to_bytes(8, "big")).digest()
    assert k1 == by_hand


@pytest.mark.parametrize("triple, expected", [
    ((bytes([0x11]) * 16, 1_700_000_123, 17, 180),
     "7064dfebed61b53fca392341320a4c4c3fb57e00110cb3004b633f293638594e"),
    # an interval off the minute and a fractional t0 exercise the rounding
    ((bytes(range(16)), 1_650_000_000.75, 512, 45),
     "a2c7420468c73789d0e5c4935530ac838490b1b9b94272d161a8e0162536b518"),
])
def test_epoch_1000_frozen_value(triple, expected):
    # Pinned from the chain walk built on rotate_key; the from-scratch fold
    # and the stepping state both inline that step and must keep its value.
    assert key_at_epoch(*triple, 1000).hex() == expected
    st = EpochKeyState.create(*triple)
    st.rotate_to(1000)
    assert st.key_current.hex() == expected


def test_offset_range():
    k = initial_server_key(ZERO_PID, 0)
    rotate_key(k, 180, 1)
    rotate_key(k, 180, 512)
    for bad in (0, -3, 513, 600):
        with pytest.raises(InvalidOffset):
            rotate_key(k, 180, bad)
    with pytest.raises(InvalidOffset):
        EpochKeyState.create(ZERO_PID, 0, offset_s=600)
    with pytest.raises(InvalidOffset):
        key_at_epoch(ZERO_PID, 0, 0, 180, 1)


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
        pid = rng.randbytes(16)
        t0 = rng.randrange(0, 2**31)
        offset = rng.randrange(1, 513)
        interval = rng.choice([60, 180, 300])
        a = EpochKeyState.create(pid, t0, offset, interval)
        b = EpochKeyState.create(pid, t0, offset, interval)
        for _ in range(50):
            a.rotate()
            b.rotate()
            assert a.key_current == b.key_current
        # stepping state equals the from-scratch fold
        assert a.key_current == key_at_epoch(pid, t0, offset, interval, a.epoch)


def test_state_tracks_previous_key():
    st = EpochKeyState.create(ZERO_PID, 0, 7)
    assert st.key_previous is None and st.epoch == 0
    k0 = st.key_current
    st.rotate()
    assert st.epoch == 1 and st.key_previous == k0


def test_advance_rotates_through_every_boundary_up_to_now():
    st = EpochKeyState.create(ZERO_PID, 1_700_000_000, 7, interval_s=60)
    first = st.next_rotation_at()
    assert not st.advance(first - 0.001) and st.epoch == 0
    assert st.advance(first) and st.epoch == 1  # a boundary at now counts
    assert not st.advance(first + 59.9) and st.epoch == 1
    assert st.advance(first + 60 * 4 + 1) and st.epoch == 5
    ref = EpochKeyState.create(ZERO_PID, 1_700_000_000, 7, interval_s=60)
    ref.rotate_to(5)
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
    st = EpochKeyState.create(os.urandom(16), 1_700_000_000, 33)
    sc = CredentialSet(account_id="alice", token="tok-" + os.urandom(8).hex())
    ct1 = seal_credentials(st, sc)
    ct2 = seal_credentials(st, sc)
    assert ct1.nonce != ct2.nonce and ct1.body != ct2.body
    assert decrypt_credentials(st, ct1) == sc
    assert decrypt_credentials(st, ct2) == sc
    rt = CredentialCiphertext.from_wire(ct1.to_wire())
    assert decrypt_credentials(st, rt) == sc


def test_envelope_tamper_detection():
    st = EpochKeyState.create(os.urandom(16), 0, 5)
    sc = CredentialSet(account_id="a", token="t")
    ct = seal_credentials(st, sc)
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
    worker = EpochKeyState.create(os.urandom(16), 0, 44)
    coord = EpochKeyState.create(worker.pid, 0, 44)
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
    st = EpochKeyState.create(os.urandom(16), 0, 99)
    sc = CredentialSet(account_id="a", token="t")
    ct = seal_credentials(st, sc)
    st.rotate()
    assert decrypt_credentials(st, ct) == sc  # n+1: previous key still held
    st.rotate()
    with pytest.raises(CredentialAuthFailure):
        decrypt_credentials(st, ct)  # n+2: gone


def test_hint_picks_the_key_exactly():
    st = EpochKeyState.create(os.urandom(16), 0, 99)
    sc = CredentialSet(account_id="a", token="t")
    ct = seal_credentials(st, sc)
    st.rotate()
    # sealed at epoch n, relabelled n+1: key_current is tried, and only it
    relabelled = CredentialCiphertext(nonce=ct.nonce, body=ct.body, r=ct.r,
                                      epoch_hint=st.epoch)
    with pytest.raises(CredentialAuthFailure):
        decrypt_credentials(st, relabelled)
    assert decrypt_credentials(st, ct) == sc


def test_wrong_chain_never_decrypts():
    st = EpochKeyState.create(os.urandom(16), 0, 12)
    ct = seal_credentials(st, CredentialSet(account_id="a", token="t"))
    other = EpochKeyState.create(os.urandom(16), 0, 12)
    with pytest.raises(CredentialAuthFailure):
        decrypt_credentials(other, ct)
