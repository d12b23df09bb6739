"""Framed message protocol shared by agent, coordinator, and worker.

Frames are a 4-byte big-endian length prefix followed by UTF-8 JSON:
{"kind": ..., "seq": ..., "body": {...}}.  The client side of a channel
keeps at most one request in flight; the server may interleave event
messages (heartbeats, grants) carrying the same seq before the single
terminal RESULT/ACK/ERROR.

Every channel endpoint counts the exact bytes it puts on and takes off the
socket, which is what the bench harness reconciles.  Transport encryption
is a pluggable wrapper and is off by default; credential secrecy does not
depend on it.
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
    error_from_body,
)

MAX_FRAME_BYTES = 16 * 1024 * 1024
DEFAULT_TIMEOUT_S = 10.0

KINDS = frozenset({
    "REGISTER_INSTANCE",
    "DISPATCH_SSP",
    "KEY_INIT",
    "REQUEST_INSTANCE",
    "INSTANCE_GRANT",
    "SUBMIT_OP",
    "HEARTBEAT",
    "RESULT",
    "EXPOSE_GRANT",
    "TRANSFER_NOTIFY",
    "VERIFY_TRANSFER",
    "VERIFY_GRANT",
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


def encode_message(m: Message) -> bytes:
    if m.kind not in KINDS:
        raise DecodeError(f"unknown kind {m.kind!r}")
    payload = json.dumps(
        {"kind": m.kind, "seq": m.seq, "body": m.body},
        separators=(",", ":"),
    ).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
    return struct.pack(">I", len(payload)) + payload


def decode_message(buf: bytes) -> Message:
    """Decode exactly one complete frame."""
    if len(buf) < 4:
        raise FrameError("truncated frame: missing length prefix")
    (length,) = struct.unpack(">I", buf[:4])
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    if len(buf) != 4 + length:
        raise FrameError(f"expected {4 + length} bytes, got {len(buf)}")
    try:
        doc = json.loads(buf[4:].decode("utf-8"))
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
    return Message(kind=kind, seq=seq, body=body)


def parse_addr(addr: str) -> tuple[str, int]:
    host, _, port = addr.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"bad address {addr!r}, want host:port")
    return host, int(port)


def format_addr(host: str, port: int) -> str:
    return f"{host}:{port}"


class _Framed:
    """Socket wrapper doing framing, byte counting, and the optional tap."""

    def __init__(self, sock: socket.socket,
                 tap: Callable[[str, bytes], None] | None = None):
        self.sock = sock
        self.tap = tap
        self.bytes_sent = 0
        self.bytes_received = 0
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._closed = False

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
                self.sock.settimeout(timeout)
                prefix = self._recv_exact(4, allow_eof=True)
                if prefix is None:
                    raise ChannelClosed("peer closed the channel")
                (length,) = struct.unpack(">I", prefix)
                if length > MAX_FRAME_BYTES:
                    raise FrameError(
                        f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
                payload = self._recv_exact(length, allow_eof=False)
            except socket.timeout as e:
                raise RequestTimeout(f"no frame within {timeout}s") from e
            except OSError as e:
                raise ChannelClosed(f"recv failed: {e}") from e
            self.bytes_received += 4 + length
        frame = prefix + payload
        if self.tap:
            self.tap("received", frame)
        return decode_message(frame)

    def _recv_exact(self, n: int, allow_eof: bool) -> bytes | None:
        chunks = []
        got = 0
        while got < n:
            chunk = self.sock.recv(n - got)
            if not chunk:
                if allow_eof and got == 0:
                    return None
                raise FrameError(f"peer closed mid-frame ({got}/{n} bytes)")
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

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
                timeout: float | None = DEFAULT_TIMEOUT_S,
                raise_on_error: bool = True) -> Message:
        """Send one request and wait for its terminal reply.

        The timeout applies to gaps between frames, not the whole exchange;
        interleaved events (heartbeats, grants) keep a long job alive.
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
                    if m.kind == "ERROR" and raise_on_error:
                        raise error_from_body(m.body)
                    return m
                if on_event:
                    on_event(m)


def open_channel(addr: str, timeout: float = DEFAULT_TIMEOUT_S,
                 tap: Callable[[str, bytes], None] | None = None) -> Channel:
    host, port = parse_addr(addr)
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except (OSError, socket.timeout) as e:
        raise ConnectError(f"cannot connect to {addr}: {e}") from e
    sock.settimeout(timeout)
    return Channel(sock, addr, tap=tap)


class ServerConn(_Framed):
    """Server end of one accepted connection."""

    def __init__(self, sock: socket.socket, peer: str,
                 tap: Callable[[str, bytes], None] | None = None):
        super().__init__(sock, tap)
        self.peer = peer

    def send_event(self, kind: str, seq: int, body: dict):
        self.send_message(Message(kind=kind, seq=seq, body=body))

    def send_result(self, seq: int, body: dict):
        self.send_message(Message(kind="RESULT", seq=seq, body=body))

    def send_ack(self, seq: int, body: dict | None = None):
        self.send_message(Message(kind="ACK", seq=seq, body=body or {}))

    def send_error(self, seq: int, body: dict):
        self.send_message(Message(kind="ERROR", seq=seq, body=body))


class Listener:
    """Accept loop; each connection gets a thread running the handler per message.

    handler(conn, msg) must finish the exchange by sending exactly one
    terminal reply for msg.seq.
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
        self._conns_lock = threading.Lock()
        self._closed_sent = 0
        self._closed_received = 0
        self._stopping = False
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    def _accept_loop(self):
        while not self._stopping:
            try:
                sock, peer = self._sock.accept()
            except OSError:
                return
            peer_s = format_addr(peer[0], peer[1])
            tap = self._tap_factory(peer_s) if self._tap_factory else None
            conn = ServerConn(sock, peer_s, tap=tap)
            with self._conns_lock:
                self._conns.append(conn)
            threading.Thread(
                target=self._conn_loop, args=(conn,), daemon=True
            ).start()

    def _conn_loop(self, conn: ServerConn):
        try:
            while not self._stopping:
                try:
                    msg = conn.recv_message(timeout=None)
                except (ChannelClosed, FrameError, RequestTimeout):
                    return
                try:
                    self._handler(conn, msg)
                except Exception as e:  # handler bug: report, keep serving
                    try:
                        body = e.body() if hasattr(e, "body") else {
                            "code": "INTERNAL", "message": str(e)}
                        conn.send_error(msg.seq, body)
                    except ChannelClosed:
                        return
        finally:
            conn.close()
            # an async sender (job thread) may be past sendall but before its
            # counter update; its increment happens under the send lock, so
            # taking it here means the totals below include that frame
            with conn._send_lock:
                pass
            with self._conns_lock:
                if conn in self._conns:
                    self._conns.remove(conn)
                self._closed_sent += conn.bytes_sent
                self._closed_received += conn.bytes_received

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
