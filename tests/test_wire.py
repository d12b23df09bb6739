"""Framed message protocol, channels, byte accounting, certificates."""

import random
import socket
import struct
import threading
import time

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from cryptography.hazmat.primitives import serialization

from skyrelay import errors, wire
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
    parse_addr,
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


def test_json_frame_bytes_unchanged():
    frame = encode_message(Message("RESULT", 7, {"eof": True, "n": [1, "a"]}))
    assert frame == (b'\x00\x00\x00\x39{"kind":"RESULT","seq":7,'
                     b'"body":{"eof":true,"n":[1,"a"]}}')


@pytest.mark.parametrize("size", [0, 1, 4 * 1024 * 1024])
def test_data_frame_round_trip(size):
    data = random.Random(size).randbytes(size)
    m = Message("RESULT", 3, {"eof": True}, data=data)
    frame = encode_message(m)
    assert frame[4] == 0 and len(frame) < size + 64
    assert decode_message(frame) == m
    assert decode_message(bytearray(frame)) == m


def _data_frame(payload: bytes) -> bytes:
    return len(payload).to_bytes(4, "big") + payload


def test_data_frame_refusals():
    header = b'{"kind":"RESULT","seq":1,"body":{}}'
    assert decode_message(_data_frame(
        b"\x00" + len(header).to_bytes(4, "big") + header + b"xy")).data == b"xy"
    with pytest.raises(DecodeError):  # header length past the frame end
        decode_message(_data_frame(b"\x00" + (len(header) + 3).to_bytes(4, "big") + header))
    with pytest.raises(DecodeError):  # too short to hold the header length
        decode_message(_data_frame(b"\x00\x00\x00"))
    with pytest.raises(DecodeError):  # header is not a JSON object
        decode_message(_data_frame(b"\x00\x00\x00\x00\x02[]"))
    with pytest.raises(DecodeError):  # unknown lead byte
        decode_message(_data_frame(b"\x01" + header))
    with pytest.raises(DecodeError):  # empty payload
        decode_message(_data_frame(b""))
    with pytest.raises(FrameError):
        encode_message(Message("RESULT", 1, {}, data=bytes(MAX_FRAME_BYTES)))
    with pytest.raises(FrameError):
        decode_message((MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"\x00")


def test_data_frame_over_channel_is_counted_and_tapped():
    data = random.Random(1).randbytes(3 * 1024 * 1024 + 5)

    def serve(conn, msg):
        conn.send_result(msg.seq, {"n": len(data)}, data=data)

    taps = []
    listener = Listener("127.0.0.1:0", serve)
    try:
        ch = open_channel(listener.addr, tap=lambda d, f: taps.append((d, f)))
        for _ in range(3):
            reply = ch.request("SUBMIT_OP", {})
            assert reply.body == {"n": len(data)} and reply.data == data
        recv = [f for d, f in taps if d == "received"]
        assert sum(len(f) for f in recv) == ch.bytes_received < 3 * (len(data) + 64)
        time.sleep(0.05)
        assert listener.total_bytes() == (ch.bytes_received, ch.bytes_sent)
        ch.close()
    finally:
        listener.close()


def test_both_ends_of_a_channel_set_nodelay():
    seen = []

    def handler(conn, msg):
        seen.append(conn.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
        conn.send_ack(msg.seq)

    listener = Listener("127.0.0.1:0", handler)
    try:
        ch = open_channel(listener.addr)
        ch.request("HEARTBEAT", {})
        assert ch.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1
        assert seen == [1]
        ch.close()
    finally:
        listener.close()


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


def _listener_threads(before):
    return [t for t in threading.enumerate()
            if t.name == "skyrelay-listener" and t not in before]


def _settle(pred, timeout=2.0):
    deadline = time.monotonic() + timeout
    while not pred() and time.monotonic() < deadline:
        time.sleep(0.005)
    return pred()


def test_close_wakes_accept_thread():
    before = set(threading.enumerate())
    listener = Listener("127.0.0.1:0", echo_handler)
    ch = open_channel(listener.addr)
    ch.request("SUBMIT_OP", {})  # a second thread has started and waits in accept()
    ch.close()
    assert _settle(lambda: not listener._conns)
    assert len(_listener_threads(before)) == 2
    listener.close()
    for t in _listener_threads(before):
        t.join(1.0)
    assert _listener_threads(before) == []


def test_a_warm_listener_starts_no_thread_for_sequential_requests(monkeypatch):
    listener = Listener("127.0.0.1:0", echo_handler)
    started = []
    thread_start = threading.Thread.start

    def spy(t):
        started.append(t.name)
        thread_start(t)
    try:
        for i in range(22):
            if i == 2:  # warm: two threads wait in accept()
                monkeypatch.setattr(threading.Thread, "start", spy)
            ch = open_channel(listener.addr)
            assert ch.request("SUBMIT_OP", {"i": i}).body["echo"] == {"i": i}
            ch.close()
            # each request after the last one's connection ended at the server
            assert _settle(lambda: not listener._conns)
        monkeypatch.undo()
        assert started == []
    finally:
        listener.close()


def test_channels_held_open_at_once_are_all_answered():
    listener = Listener("127.0.0.1:0", echo_handler)
    chans = [open_channel(listener.addr) for _ in range(6)]
    try:
        for _ in range(2):  # no connection waits for another to end
            for i, ch in enumerate(chans):
                assert ch.request("SUBMIT_OP", {"i": i}).body["echo"] == {"i": i}
    finally:
        for ch in chans:
            ch.close()
        listener.close()


def test_threads_freed_by_closed_channels_wait_up_to_the_bound():
    before = set(threading.enumerate())
    listener = Listener("127.0.0.1:0", echo_handler)
    chans = [open_channel(listener.addr) for _ in range(6)]
    try:
        for ch in chans:
            ch.request("SUBMIT_OP", {})
        assert len(_listener_threads(before)) == 7  # one per channel, one in accept()
        for ch in chans:
            ch.close()
        # the threads that served them wait in accept() again, up to the bound; the rest end
        assert _settle(lambda: len(_listener_threads(before)) == wire.MAX_WAITING_THREADS)
        assert listener._waiting == wire.MAX_WAITING_THREADS and not listener._conns
    finally:
        listener.close()


def test_a_thread_that_cannot_be_started_stops_no_connection(monkeypatch):
    listener = Listener("127.0.0.1:0", echo_handler)
    seen = []
    monkeypatch.setattr(threading, "excepthook", seen.append)

    def refuse():
        raise RuntimeError("can't start new thread")
    monkeypatch.setattr(listener, "_start_thread", refuse)
    try:
        for i in range(3):  # the one thread serves each, then takes the next
            ch = open_channel(listener.addr, timeout=2.0)
            assert ch.request("SUBMIT_OP", {"i": i}, timeout=2.0).body["echo"] == {"i": i}
            ch.close()
        assert seen == []
    finally:
        listener.close()


def test_close_ends_every_listener_thread():
    before = set(threading.enumerate())
    listener = Listener("127.0.0.1:0", echo_handler)
    chans = [open_channel(listener.addr) for _ in range(3)]
    for ch in chans:
        ch.request("SUBMIT_OP", {})  # each held by its serving thread
    assert len(_listener_threads(before)) == 4  # and one waits in accept()
    listener.close()
    for t in _listener_threads(before):
        t.join(2.0)
    assert _listener_threads(before) == []
    for ch in chans:
        ch.close()


def test_a_listener_closed_mid_frame_raises_nothing_in_its_threads(monkeypatch):
    # the thread reading the half frame finishes after close() has closed its
    # socket, the order in which restoring the socket timeout raised EBADF
    recv_into = wire._Framed._recv_into

    def after_close(self, view, allow_eof):
        try:
            return recv_into(self, view, allow_eof)
        except Exception:
            _settle(lambda: self.sock.fileno() == -1)
            raise
    monkeypatch.setattr(wire._Framed, "_recv_into", after_close)
    seen = []
    monkeypatch.setattr(threading, "excepthook", seen.append)
    before = set(threading.enumerate())
    listener = Listener("127.0.0.1:0", echo_handler)
    with socket.create_connection(parse_addr(listener.addr)) as s:
        s.sendall(struct.pack(">I", 1024) + b"x" * 10)  # and no more
        assert _settle(lambda: listener._conns)
        time.sleep(0.1)  # the rest of the frame is awaited
        listener.close()
        for t in set(threading.enumerate()) - before:
            t.join(2.0)
    assert set(threading.enumerate()) <= before
    assert seen == []


def test_a_frame_that_never_finishes_is_closed_at_its_deadline(monkeypatch):
    monkeypatch.setattr(wire, "FRAME_DEADLINE_S", 0.3)
    before = set(threading.enumerate())
    listener = Listener("127.0.0.1:0", echo_handler)
    try:
        with socket.create_connection(parse_addr(listener.addr)) as s:
            s.sendall(struct.pack(">I", 64 * 1024) + b"x" * 10)  # and no more
            s.settimeout(2.0)
            started = time.monotonic()
            assert s.recv(1) == b""  # closed, with no reply
            assert time.monotonic() - started < 2.0
        # the stalled frame holds no thread: its thread waits in accept() again
        assert _settle(lambda: not listener._conns)
        assert len(_listener_threads(before)) == listener._waiting == 2
    finally:
        listener.close()


def test_idle_time_between_frames_is_not_bounded(monkeypatch):
    monkeypatch.setattr(wire, "FRAME_DEADLINE_S", 0.3)
    listener = Listener("127.0.0.1:0", echo_handler)
    try:
        ch = open_channel(listener.addr)
        assert ch.request("SUBMIT_OP", {"i": 1}).body["echo"] == {"i": 1}
        time.sleep(0.6)  # twice the deadline, between two frames
        assert ch.request("SUBMIT_OP", {"i": 2}).body["echo"] == {"i": 2}
        ch.close()
    finally:
        listener.close()


def test_a_reply_to_a_slow_reader_is_not_cut_at_the_frame_deadline(monkeypatch):
    # the deadline bounds reading a request, never sending the reply
    monkeypatch.setattr(wire, "FRAME_DEADLINE_S", 0.3)
    payload = bytes(12 * 1024 * 1024)  # more than the socket buffers hold
    listener = Listener("127.0.0.1:0",
                        lambda conn, msg: conn.send_result(msg.seq, {}, data=payload))
    try:
        ch = open_channel(listener.addr)
        ch.send_message(Message("SUBMIT_OP", 1, {}))
        time.sleep(1.0)  # four deadlines with the reply stalled on a full buffer
        assert ch.recv_message(timeout=5.0).data == payload
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
    finally:
        listener.close()


def _error_classes():
    return [c for c in vars(errors).values()
            if isinstance(c, type) and issubclass(c, errors.SkyrelayError)]


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda c: c.code)
def test_every_error_survives_its_error_body(cls):
    body = errors.error_body(cls("why"))
    assert body == {"code": cls.code, "message": "why"}
    back = errors.error_from_body(body)
    assert type(back) is cls and back.code == cls.code and str(back) == "why"
    assert not hasattr(back, "step")
    back = errors.error_from_body({**body, "step": 2})
    assert type(back) is cls and back.step == 2


def test_error_body_reports_a_foreign_exception_as_internal():
    body = errors.error_body(KeyError("k"))
    assert body == {"code": "INTERNAL", "message": "'k'"}
    assert type(errors.error_from_body(body)) is errors.SkyrelayError


def test_a_raising_handler_gets_its_error_sent_and_the_connection_kept():
    def refuse(conn, msg):
        if msg.kind == "HEARTBEAT":
            raise RuntimeError("handler bug")
        raise NotFound("/missing")

    listener = Listener("127.0.0.1:0", refuse)
    try:
        ch = open_channel(listener.addr)
        with pytest.raises(NotFound, match="/missing"):
            ch.request("SUBMIT_OP", {})
        with pytest.raises(errors.SkyrelayError) as err:
            ch.request("HEARTBEAT", {})
        assert err.value.code == "INTERNAL" and str(err.value) == "handler bug"
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
