"""Framed message protocol, channels, byte accounting, certificates."""

import random
import threading
import time

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from cryptography.hazmat.primitives import serialization

from skyrelay.errors import (
    CertificateError,
    ChannelClosed,
    ConnectError,
    DecodeError,
    FrameError,
    NotFound,
)
from skyrelay.wire import (
    KINDS,
    MAX_FRAME_BYTES,
    Certificate,
    Listener,
    Message,
    decode_message,
    encode_message,
    issue_certificate,
    open_channel,
    verify_certificate,
)


def test_round_trip_fuzz():
    rng = random.Random(3)
    kinds = sorted(KINDS)
    for _ in range(300):
        m = Message(
            kind=rng.choice(kinds),
            seq=rng.randrange(0, 1 << 30),
            body={"k": rng.randrange(100), "s": "x" * rng.randrange(0, 50),
                  "nested": {"a": [1, 2, None]}},
        )
        assert decode_message(encode_message(m)) == m


def test_truncated_frame():
    buf = encode_message(Message("ACK", 1, {}))
    with pytest.raises(FrameError):
        decode_message(buf[:-3])
    with pytest.raises(FrameError):
        decode_message(buf[:2])


def test_unknown_kind_and_bad_shapes():
    with pytest.raises(DecodeError):
        encode_message(Message("NONSENSE", 1, {}))
    good = encode_message(Message("ACK", 1, {}))
    tampered = good[:4] + good[4:].replace(b'"ACK"', b'"ACg"')
    with pytest.raises(DecodeError):
        decode_message(tampered)
    with pytest.raises(DecodeError):
        decode_message(b"\x00\x00\x00\x02[]")


def test_oversize_frame():
    with pytest.raises(FrameError):
        encode_message(Message("RESULT", 1, {"blob": "x" * (MAX_FRAME_BYTES + 10)}))
    fake_prefix = (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"{}"
    with pytest.raises(FrameError):
        decode_message(fake_prefix)


def echo_handler(conn, msg):
    if msg.kind == "SUBMIT_OP":
        conn.send_result(msg.seq, {"echo": msg.body})
    else:
        conn.send_ack(msg.seq, {"echo": msg.body})


def test_hundred_frames_in_order():
    listener = Listener("127.0.0.1:0", echo_handler)
    try:
        ch = open_channel(listener.addr)
        for i in range(100):
            reply = ch.request("SUBMIT_OP", {"i": i})
            assert reply.body["echo"]["i"] == i
        ch.close()
    finally:
        listener.close()


def test_connect_refused():
    with pytest.raises(ConnectError):
        open_channel("127.0.0.1:1", timeout=0.5)


def test_peer_close_mid_request():
    def slam(conn, msg):
        conn.close()

    listener = Listener("127.0.0.1:0", slam)
    try:
        ch = open_channel(listener.addr, timeout=2.0)
        with pytest.raises(ChannelClosed):
            ch.request("SUBMIT_OP", {})
    finally:
        listener.close()


def test_events_interleave_before_terminal():
    def beat_then_result(conn, msg):
        for i in range(3):
            conn.send_event("HEARTBEAT", msg.seq, {"n": i})
        conn.send_result(msg.seq, {"done": True})

    listener = Listener("127.0.0.1:0", beat_then_result)
    try:
        ch = open_channel(listener.addr)
        events = []
        reply = ch.request("SUBMIT_OP", {}, on_event=events.append)
        assert reply.body == {"done": True}
        assert [e.body["n"] for e in events] == [0, 1, 2]
    finally:
        listener.close()


def test_error_reply_raises_typed():
    def fail(conn, msg):
        conn.send_error(msg.seq, NotFound("/missing").body())

    listener = Listener("127.0.0.1:0", fail)
    try:
        ch = open_channel(listener.addr)
        with pytest.raises(NotFound):
            ch.request("SUBMIT_OP", {})
        m = ch.request("SUBMIT_OP", {}, raise_on_error=False)
        assert m.kind == "ERROR" and m.body["code"] == "NOT_FOUND"
    finally:
        listener.close()


def test_byte_accounting_reconciles():
    listener = Listener("127.0.0.1:0", echo_handler)
    try:
        ch = open_channel(listener.addr)
        frames = {"sent": 0, "received": 0}
        for i in range(20):
            ch.request("HEARTBEAT", {"i": i, "pad": "p" * i})
        time.sleep(0.05)
        assert listener.total_bytes() == (ch.bytes_received, ch.bytes_sent)
        assert ch.bytes_sent > 0 and ch.bytes_received > 0
    finally:
        listener.close()


def test_tap_sees_exact_frames():
    taps = []
    listener = Listener("127.0.0.1:0", echo_handler)
    try:
        ch = open_channel(listener.addr, tap=lambda d, f: taps.append((d, f)))
        ch.request("SUBMIT_OP", {"marker": "zXq"})
        sent = [f for d, f in taps if d == "sent"]
        recv = [f for d, f in taps if d == "received"]
        assert sum(len(f) for f in sent) == ch.bytes_sent
        assert sum(len(f) for f in recv) == ch.bytes_received
        assert b"zXq" in b"".join(sent)
    finally:
        listener.close()


def test_concurrent_channels(pool_size=8):
    listener = Listener("127.0.0.1:0", echo_handler)
    errors = []

    def client(i):
        try:
            ch = open_channel(listener.addr)
            for j in range(10):
                r = ch.request("SUBMIT_OP", {"i": i, "j": j})
                assert r.body["echo"] == {"i": i, "j": j}
            ch.close()
        except Exception as e:  # surface in main thread
            errors.append(e)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(pool_size)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    listener.close()
    assert errors == []


def test_certificate_verify_and_expiry():
    sk = Ed25519PrivateKey.generate()
    pub = sk.public_key().public_bytes(
        serialization.Encoding.Raw, serialization.PublicFormat.Raw)
    cert = issue_certificate(sk, {"addr": "127.0.0.1:5000", "pid": "ab" * 16},
                             issued_at=1000, expiry=2000)
    verify_certificate(pub, cert, now=1500)
    with pytest.raises(CertificateError):
        verify_certificate(pub, cert, now=2000)
    rt = Certificate.from_wire(cert.to_wire())
    verify_certificate(pub, rt, now=1500)


def test_certificate_tamper():
    sk = Ed25519PrivateKey.generate()
    pub = sk.public_key().public_bytes(
        serialization.Encoding.Raw, serialization.PublicFormat.Raw)
    cert = issue_certificate(sk, {"addr": "127.0.0.1:5000", "pid": "cd" * 16},
                             issued_at=1000, expiry=2000)
    cert.subject["addr"] = "127.0.0.1:6000"
    with pytest.raises(CertificateError):
        verify_certificate(pub, cert, now=1500)
    other = Ed25519PrivateKey.generate().public_key().public_bytes(
        serialization.Encoding.Raw, serialization.PublicFormat.Raw)
    cert.subject["addr"] = "127.0.0.1:5000"
    with pytest.raises(CertificateError):
        verify_certificate(other, cert, now=1500)
