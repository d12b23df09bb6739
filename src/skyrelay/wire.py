"""Framed message protocol shared by agent, coordinator, and worker.

Frames are a 4-byte big-endian length prefix followed by UTF-8 JSON:
{"kind": ..., "seq": ..., "body": {...}}.  A data frame carries raw bytes
beside that header: its payload is a 0x00 lead byte (no JSON frame starts
with it), the header's 4-byte length, the JSON header, then the bytes; only
exposure-fetch replies use it.  The client side of a channel
keeps at most one request in flight; the server may interleave HEARTBEAT
events carrying the same seq before the single terminal RESULT/ACK/ERROR.
A server takes inbound frames of at most MAX_REQUEST_BYTES: it receives
only control frames, and closes a connection whose frame declares more, or
whose frame does not arrive whole within FRAME_DEADLINE_S of its first
byte.  The time between frames is unbounded.

A Listener serves each connection on the thread that accepted it: its
threads take turns in accept(), and one that finishes a connection waits
there again (Leader/Followers), so a warm listener starts no thread per
connection.

Every channel endpoint counts the exact bytes it puts on and takes off the
socket, which is what the bench harness reconciles.  Channels are plain
TCP with no transport encryption: credential secrecy rests on the sealed
envelope (keying.encrypt_credentials), never on the channel.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .core import canonical_json
from .errors import (
    CertificateError,
    ChannelClosed,
    ConnectError,
    DecodeError,
    FrameError,
    RequestTimeout,
    error_body,
    error_from_body,
)

MAX_FRAME_BYTES = 16 * 1024 * 1024
# the largest frame a server takes in: the largest SUBMIT_OP an agent builds,
# a compress naming one 4096-byte path of control characters three times
# (each escaped to \uXXXX), is about 73 KiB
MAX_REQUEST_BYTES = 128 * 1024
# a 128 KiB request takes 16 s at 64 kbit/s
FRAME_DEADLINE_S = 30.0
DEFAULT_TIMEOUT_S = 10.0
DATA_LEAD = b"\x00"
# the most threads of a listener that wait in accept() at once.  A client's
# next connection often arrives before the thread that served its last one
# is back, and two clients' connections overlap; a thread starts whenever
# the waiting ones run out.  Under two agents' small cloud ops, a bound of
# 2 started a thread for 3 ops in 10 and a bound of 3 for 3 in 100; at 1,
# every connection starts one
MAX_WAITING_THREADS = 3
_U32 = struct.Struct(">I")
_JSON = json.JSONEncoder(separators=(",", ":"))

KINDS = frozenset({
    "REGISTER_INSTANCE",
    "REQUEST_INSTANCE",
    "SUBMIT_OP",
    "HEARTBEAT",
    "RESULT",
    "TRANSFER_NOTIFY",
    "VERIFY_TRANSFER",
    "SHUTDOWN_NOTICE",
    "ACK",
    "ERROR",
})

# A request is any client-sent frame; these are the only kinds that end one.
TERMINAL_KINDS = frozenset({"RESULT", "ACK", "ERROR"})


@dataclass
class Message:
    kind: str
    seq: int
    body: dict = field(default_factory=dict)
    data: bytes | None = field(default=None, repr=False)  # set: a data frame


def encode_message(m: Message) -> bytes:
    if m.kind not in KINDS:
        raise DecodeError(f"unknown kind {m.kind!r}")
    header = _JSON.encode({"kind": m.kind, "seq": m.seq, "body": m.body}).encode("utf-8")
    if m.data is None:
        parts = (header,)
    else:
        parts = (DATA_LEAD, _U32.pack(len(header)), header, m.data)
    length = sum(map(len, parts))
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    return b"".join((_U32.pack(length), *parts))


def decode_message(buf: bytes | bytearray) -> Message:
    """Decode exactly one complete frame."""
    if len(buf) < 4:
        raise FrameError("truncated frame: missing length prefix")
    (length,) = _U32.unpack_from(buf)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    if len(buf) != 4 + length:
        raise FrameError(f"expected {4 + length} bytes, got {len(buf)}")
    data = None
    lead = buf[4:5]
    if lead == DATA_LEAD:
        if length < 5:
            raise DecodeError("data frame too short for its header length")
        start = 9 + _U32.unpack_from(buf, 5)[0]
        if start > len(buf):
            raise DecodeError("data frame header runs past the frame end")
        header = buf[9:start]
        data = bytes(memoryview(buf)[start:])
    elif lead == b"{":
        header = buf[4:]
    else:
        raise DecodeError(f"frame payload starts with unknown byte {bytes(lead)!r}")
    try:
        doc = json.loads(header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DecodeError(f"bad frame payload: {e}") from e
    if not isinstance(doc, dict):
        raise DecodeError("frame payload must be an object")
    kind = doc.get("kind")
    seq = doc.get("seq")
    body = doc.get("body")
    if kind not in KINDS:
        raise DecodeError(f"unknown kind {kind!r}")
    if not isinstance(seq, int) or seq < 0:
        raise DecodeError(f"bad seq {seq!r}")
    if not isinstance(body, dict):
        raise DecodeError("body must be an object")
    return Message(kind=kind, seq=seq, body=body, data=data)


def parse_addr(addr: str) -> tuple[str, int]:
    host, _, port = addr.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"bad address {addr!r}, want host:port")
    return host, int(port)


def format_addr(host: str, port: int) -> str:
    return f"{host}:{port}"


class _Framed:
    """Socket wrapper doing framing, byte counting, and the optional tap."""

    max_frame_bytes = MAX_FRAME_BYTES  # the largest frame this end takes in
    frame_deadline = False  # whether a frame must be whole FRAME_DEADLINE_S after its first byte

    def __init__(self, sock: socket.socket,
                 tap: Callable[[str, bytes], None] | None = None):
        # a frame can leave in more than one segment; don't hold the last back
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.tap = tap
        self.bytes_sent = 0
        self.bytes_received = 0
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._closed = False
        self._deadline: float | None = None  # of the frame being read, if bounded

    def send_message(self, m: Message):
        frame = encode_message(m)
        with self._send_lock:
            if self._closed:
                raise ChannelClosed("channel is closed")
            try:
                self.sock.sendall(frame)
            except OSError as e:
                raise ChannelClosed(f"send failed: {e}") from e
            self.bytes_sent += len(frame)
        if self.tap:
            self.tap("sent", frame)

    def recv_message(self, timeout: float | None) -> Message:
        with self._recv_lock:
            try:
                if self.sock.gettimeout() != timeout:
                    self.sock.settimeout(timeout)
                prefix = bytearray(4)
                if not self._recv_into(memoryview(prefix), allow_eof=True):
                    raise ChannelClosed("peer closed the channel")
                (length,) = _U32.unpack(prefix)
                if length > self.max_frame_bytes:  # refused before allocating it
                    raise FrameError(
                        f"frame of {length} bytes exceeds {self.max_frame_bytes}")
                frame = bytearray(4 + length)
                frame[:4] = prefix
                self._recv_into(memoryview(frame)[4:], allow_eof=False)
                if self._deadline is not None:  # the deadline bounds reads only
                    self.sock.settimeout(timeout)
            except socket.timeout as e:
                raise RequestTimeout(f"no frame within {timeout}s: {e}") from e
            except OSError as e:  # also a socket that close() shut meanwhile
                raise ChannelClosed(f"recv failed: {e}") from e
            finally:
                self._deadline = None
            self.bytes_received += 4 + length
        if self.tap:
            self.tap("received", frame)
        return decode_message(frame)

    def _recv_into(self, view: memoryview, allow_eof: bool) -> bool:
        """Fill view from the socket; False if the peer closed before any byte."""
        got = 0
        while got < len(view):
            if self._deadline is not None:
                left = self._deadline - time.monotonic()
                if left <= 0:
                    raise socket.timeout("frame deadline passed")
                self.sock.settimeout(left)
            n = self.sock.recv_into(view[got:])
            if not n:
                if allow_eof and got == 0:
                    return False
                raise FrameError(f"peer closed mid-frame ({got}/{len(view)} bytes)")
            if self.frame_deadline and self._deadline is None:
                self._deadline = time.monotonic() + FRAME_DEADLINE_S
            got += n
        return True

    def close(self):
        self._closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


class Channel(_Framed):
    """Client end: one request in flight, events interleave before the terminal."""

    def __init__(self, sock: socket.socket, addr: str,
                 tap: Callable[[str, bytes], None] | None = None):
        super().__init__(sock, tap)
        self.addr = addr
        self._seq = 0
        self._req_lock = threading.Lock()

    def request(self, kind: str, body: dict,
                on_event: Callable[[Message], None] | None = None,
                timeout: float | None = DEFAULT_TIMEOUT_S) -> Message:
        """Send one request and wait for its terminal reply; an ERROR raises
        the typed error its body names.

        The timeout applies to gaps between frames, not the whole exchange;
        interleaved heartbeats keep a long job alive.
        """
        with self._req_lock:
            self._seq += 1
            seq = self._seq
            self.send_message(Message(kind=kind, seq=seq, body=body))
            while True:
                try:
                    m = self.recv_message(timeout)
                except (ChannelClosed, FrameError) as e:
                    raise ChannelClosed(
                        f"channel lost awaiting reply to {kind}: {e}") from e
                if m.seq != seq:
                    continue  # stale frame from an aborted exchange
                if m.kind in TERMINAL_KINDS:
                    if m.kind == "ERROR":
                        raise error_from_body(m.body)
                    return m
                if on_event:
                    on_event(m)


def open_channel(addr: str, timeout: float = DEFAULT_TIMEOUT_S,
                 tap: Callable[[str, bytes], None] | None = None) -> Channel:
    host, port = parse_addr(addr)
    # a Listener binds AF_INET only, so no address lookup picks the family
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.settimeout(timeout)
        sock.connect((host, port))
    except OSError as e:  # socket.timeout included
        sock.close()
        raise ConnectError(f"cannot connect to {addr}: {e}") from e
    return Channel(sock, addr, tap=tap)


def default_opener(addr: str, purpose: str) -> Channel:
    """The channel_factory a component uses when none is configured; purpose
    names the channel to a configured one only."""
    return open_channel(addr)


class ServerConn(_Framed):
    """Server end of one accepted connection."""

    max_frame_bytes = MAX_REQUEST_BYTES
    frame_deadline = True

    def __init__(self, sock: socket.socket, peer: str,
                 tap: Callable[[str, bytes], None] | None = None):
        super().__init__(sock, tap)
        self.peer = peer

    def send_event(self, kind: str, seq: int, body: dict):
        self.send_message(Message(kind=kind, seq=seq, body=body))

    def send_result(self, seq: int, body: dict, data: bytes | None = None):
        self.send_message(Message(kind="RESULT", seq=seq, body=body, data=data))

    def send_ack(self, seq: int, body: dict | None = None):
        self.send_message(Message(kind="ACK", seq=seq, body=body or {}))

    def send_error(self, seq: int, body: dict):
        self.send_message(Message(kind="ERROR", seq=seq, body=body))


class Listener:
    """Serving threads that take turns in accept(); the thread that accepts a
    connection serves it, running the handler per message, then goes back.

    A thread that accepts first makes sure another waits in accept(), and
    starts one only if none does; once its connection ends it waits again,
    unless MAX_WAITING_THREADS already do.  So a warm listener starts no
    thread for a connection, and one connection that is slow or idle never
    holds up the next.

    handler(conn, msg) finishes the exchange one of two ways: it sends
    exactly one terminal reply for msg.seq, or it raises before sending one,
    and the listener replies with the ERROR that error_body builds.
    """

    def __init__(self, listen_addr: str,
                 handler: Callable[[ServerConn, Message], None],
                 tap_factory: Callable[[str], Callable[[str, bytes], None] | None] | None = None):
        host, port = parse_addr(listen_addr)
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._sock.bind((host, port))
        except OSError as e:
            self._sock.close()
            raise ConnectError(f"cannot bind {listen_addr}: {e}") from e
        self._sock.listen(64)
        self.addr = format_addr(host, self._sock.getsockname()[1])
        self._handler = handler
        self._tap_factory = tap_factory
        self._conns: list[ServerConn] = []
        self._conns_lock = threading.Lock()  # also guards _waiting
        self._waiting = 1  # threads in accept(), or on their way to it
        self._closed_sent = 0
        self._closed_received = 0
        self._stopping = False
        self._start_thread()

    def _start_thread(self):
        threading.Thread(target=self._serve, name="skyrelay-listener", daemon=True).start()

    def _serve(self):
        while True:
            try:
                sock, peer = self._sock.accept()
            except OSError:  # close() shut the listening socket
                with self._conns_lock:
                    self._waiting -= 1
                return
            with self._conns_lock:
                self._waiting -= 1
                lead = self._waiting == 0  # no other thread takes the next connection
                self._waiting += lead
            if lead:
                try:
                    self._start_thread()
                except RuntimeError:  # none to spare: this one goes back when it is done
                    with self._conns_lock:
                        self._waiting -= 1
            peer_s = format_addr(peer[0], peer[1])
            tap = self._tap_factory(peer_s) if self._tap_factory else None
            conn = ServerConn(sock, peer_s, tap=tap)
            with self._conns_lock:
                self._conns.append(conn)
            self._conn_loop(conn)  # returns at once if close() ran before the append
            with self._conns_lock:
                self._conns.remove(conn)
                self._closed_sent += conn.bytes_sent
                self._closed_received += conn.bytes_received
                if self._stopping or self._waiting >= MAX_WAITING_THREADS:
                    return
                self._waiting += 1

    def _conn_loop(self, conn: ServerConn):
        try:
            while not self._stopping:
                try:
                    msg = conn.recv_message(timeout=None)
                except (ChannelClosed, DecodeError, FrameError, RequestTimeout):
                    return  # a malformed or unknown-kind frame closes the connection
                try:
                    self._handler(conn, msg)
                except Exception as e:  # a refusal or a handler bug; keep serving
                    try:
                        conn.send_error(msg.seq, error_body(e))
                    except ChannelClosed:
                        return
        finally:
            conn.close()
            # an async sender (job thread) may be past sendall but before its
            # counter update; its increment happens under the send lock, so
            # taking it here means the totals include that frame
            with conn._send_lock:
                pass

    def total_bytes(self) -> tuple[int, int]:
        """Cumulative (sent, received) across live and finished connections."""
        with self._conns_lock:
            sent = self._closed_sent
            recv = self._closed_received
            for c in self._conns:
                sent += c.bytes_sent
                recv += c.bytes_received
        return sent, recv

    def close(self):
        self._stopping = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)  # close() alone leaves accept() blocked
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        with self._conns_lock:
            conns = list(self._conns)
        for c in conns:
            c.close()


# -- certificates --


@dataclass
class Certificate:
    """Coordinator-signed attestation of a worker's address and identity."""

    subject: dict  # {"addr": str, "pid": hex str}
    issued_at: int
    expiry: int
    signature: bytes

    def signed_payload(self) -> bytes:
        return canonical_json(
            {"subject": self.subject, "issued_at": self.issued_at, "expiry": self.expiry}
        )

    def to_wire(self) -> dict:
        return {
            "subject": self.subject,
            "issued_at": self.issued_at,
            "expiry": self.expiry,
            "signature": self.signature.hex(),
        }

    @classmethod
    def from_wire(cls, d: dict) -> Certificate:
        return cls(
            subject=d["subject"],
            issued_at=d["issued_at"],
            expiry=d["expiry"],
            signature=bytes.fromhex(d["signature"]),
        )


def issue_certificate(signing_key: Ed25519PrivateKey, subject: dict,
                      issued_at: int, expiry: int) -> Certificate:
    cert = Certificate(subject=subject, issued_at=issued_at, expiry=expiry,
                       signature=b"")
    cert.signature = signing_key.sign(cert.signed_payload())
    return cert


def verify_certificate(public_key_raw: bytes, cert: Certificate,
                       now: float | None = None):
    """Raise CertificateError unless cert verifies and is unexpired."""
    now = time.time() if now is None else now
    if now >= cert.expiry:
        raise CertificateError("certificate expired")
    try:
        pub = Ed25519PublicKey.from_public_bytes(public_key_raw)
        pub.verify(cert.signature, cert.signed_payload())
    except (InvalidSignature, ValueError) as e:
        raise CertificateError(f"bad certificate signature: {e}") from e
