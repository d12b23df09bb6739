"""Agent: the user-facing client that never holds file content.

The agent keeps a metadata shadow of the account, performs basic operations
directly against the storage service, and delegates anything that needs file
bytes to a worker instance: a private one it launched, or a shared one the
coordinator grants.  In shared mode storage credentials leave the agent only
sealed under the granted user key; in private mode plaintext credentials go
only to the agent's own instance.

Transfers never route file bytes through either agent.  The sender's worker
exposes the file at an intermediate URI, a ticket travels out of band as a
small file (standing in for an NFC tap), and the receiver's side pulls from
the URI directly.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass
from typing import Any, Callable

from .core import (
    FOI,
    CredentialSet,
    OperationRequest,
    classify_operation,
    compile_op_to_fois,
    sequence_to_wire,
    uncollide,
)
from .errors import (
    NotCloudAssisted,
    PermissionDenied,
    SkyrelayError,
    StartError,
)
from .keying import encrypt_credentials
from .storage import ShadowFS, StorageBackend, parent_of
from .wire import (
    Certificate,
    Channel,
    Message,
    decode_message,
    encode_message,
    open_channel,
    verify_certificate,
)
from .worker import fetch_reader, parse_exposure_uri, pull_exposure

DEFAULT_TICKET_TIMEOUT_S = 60.0


@dataclass
class TransferTicket:
    """Everything a receiver needs to pull one file from a sender's instance.

    Delivered out of band; the embedded certificate lets the receiver check
    that the named instance is coordinator-issued before talking to it.
    """

    protocol: str  # "private" | "shared"
    sender_id: str
    instance_addr: str
    instance_pid: str  # hex; empty in the private protocol
    uri_f: str
    guest_token: str
    certificate: dict  # wire form
    src_path: str
    suggested_dst: str
    size_bytes: int = 0

    def to_wire(self) -> dict:
        return {
            "protocol": self.protocol,
            "sender_id": self.sender_id,
            "instance_addr": self.instance_addr,
            "instance_pid": self.instance_pid,
            "uri_f": self.uri_f,
            "guest_token": self.guest_token,
            "certificate": self.certificate,
            "src_path": self.src_path,
            "suggested_dst": self.suggested_dst,
            "size_bytes": self.size_bytes,
        }

    @classmethod
    def from_wire(cls, d: dict) -> TransferTicket:
        return cls(**{k: d[k] for k in (
            "protocol", "sender_id", "instance_addr", "instance_pid", "uri_f",
            "guest_token", "certificate", "src_path", "suggested_dst", "size_bytes")})


def write_ticket(ticket: TransferTicket, path: str):
    """Serialize a ticket to the out-of-band drop point (a local file)."""
    frame = encode_message(Message(kind="TRANSFER_NOTIFY", seq=0, body=ticket.to_wire()))
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(frame)
    os.replace(tmp, path)


def read_ticket(path: str, timeout_s: float = DEFAULT_TICKET_TIMEOUT_S) -> TransferTicket:
    """Poll the drop point until the peer's ticket lands."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            with open(path, "rb") as f:
                frame = f.read()
            break
        except FileNotFoundError:
            if time.monotonic() >= deadline:
                raise TimeoutError(f"no ticket at {path} after {timeout_s:.0f}s") from None
            time.sleep(0.05)
    msg = decode_message(frame)
    if msg.kind != "TRANSFER_NOTIFY":
        raise PermissionDenied(f"ticket file holds a {msg.kind} frame")
    return TransferTicket.from_wire(msg.body)


@dataclass
class AgentConfig:
    account_id: str
    token: str
    backend: StorageBackend
    mode: str = "shared"  # default instance mode for cloud ops
    coordinator_addr: str | None = None
    coordinator_pub: bytes | None = None  # trust root for instance certificates
    private_instance: str | None = None
    private_certificate: dict | None = None  # wire form, embedded in tickets
    # launches the user's own instance on demand; blocks through its startup
    # delay and returns (addr, certificate wire form or None)
    private_launcher: Callable[[], tuple[str, dict | None]] | None = None
    download_dir: str | None = None
    seed: int | None = None
    channel_factory: Callable[[str, str], Channel] | None = None
    user_id: str | None = None  # identity shown to the coordinator


class AgentSession:
    """One logged-in user driving the system; holds metadata only."""

    def __init__(self, cfg: AgentConfig):
        self.cfg = cfg
        self.creds = CredentialSet(cfg.account_id, cfg.token)
        self.user_id = cfg.user_id or cfg.account_id
        self.session = cfg.backend.authenticate(cfg.token)
        self.rng = random.Random(cfg.seed)
        self.shadow: ShadowFS = cfg.backend.sync_shadow(self.session)
        self.metrics: list[dict] = []
        self.private_instance = cfg.private_instance
        self.private_certificate = cfg.private_certificate

    # -- bookkeeping --

    def _new_job_id(self) -> str:
        return f"{self.rng.getrandbits(48):012x}"

    def _open(self, addr: str, purpose: str) -> Channel:
        if self.cfg.channel_factory:
            return self.cfg.channel_factory(addr, purpose)
        return open_channel(addr)

    def _record(self, op: str, channels: list[Channel], started: float,
                events: list[Message]):
        self.metrics.append({
            "op": op,
            "bytes_sent": sum(c.bytes_sent for c in channels),
            "bytes_received": sum(c.bytes_received for c in channels),
            "wall_ms": int((time.monotonic() - started) * 1000),
            "heartbeats": sum(1 for e in events if e.kind == "HEARTBEAT"),
        })

    def sync(self) -> ShadowFS:
        self.shadow = self.cfg.backend.sync_shadow(self.session)
        return self.shadow

    def ls(self, path: str = "/") -> list:
        """List from the shadow; no storage round trip."""
        path = path.rstrip("/") or "/"
        if path != "/" and path in self.shadow.entries:
            ent = self.shadow.entries[path]
            if ent.kind == "file":
                return [ent]
        prefix = "/" if path == "/" else path + "/"
        out = [m for p, m in self.shadow.entries.items()
               if p.startswith(prefix) and "/" not in p[len(prefix):]]
        return sorted(out, key=lambda m: m.path)

    def save_state(self, path: str):
        """Persist the agent's view: shadow metadata, never content or creds."""
        doc = {"account_id": self.cfg.account_id, "shadow": self.shadow.to_wire()}
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(doc, f, separators=(",", ":"))
        os.replace(tmp, path)

    # -- basic operations --

    def cmd_basic(self, action: str, args: dict[str, Any]) -> ShadowFS:
        req = OperationRequest(action=action, args=args)
        if classify_operation(req) != "basic":
            raise NotCloudAssisted(f"{action} is not a basic operation")
        started = time.monotonic()
        if action == "create":
            kind = args.get("kind", "folder" if args.get("folder") else "file")
            storage_action = "create_folder" if kind == "folder" else "create_file"
            self.cfg.backend.basic_op(self.session, storage_action, args)
        else:
            self.cfg.backend.basic_op(self.session, action, args)
        self.sync()
        self._record(action, [], started, [])
        return self.shadow

    # -- cloud-assisted operations --

    def _free_name(self, put_path: str) -> str:
        parent = parent_of(put_path)
        name = put_path.rsplit("/", 1)[-1]
        prefix = "/" if parent == "/" else parent + "/"
        taken = {p[len(prefix):] for p in self.shadow.entries
                 if p.startswith(prefix) and "/" not in p[len(prefix):]}
        free = uncollide(name, taken)
        return prefix + free

    def _prepare_fois(self, req: OperationRequest) -> list[FOI]:
        fois = compile_op_to_fois(req)
        out = []
        for foi in fois:
            if foi.verb == "put":
                foi = FOI("put", self._free_name(foi.target))
            out.append(foi)
        return out

    def _coordinator_grant(self, kind: str, body: dict, purpose: str,
                           channels: list[Channel]) -> dict:
        """One coordinator round trip that yields an instance grant.

        REQUEST_INSTANCE places a cloud op or a send on the shared pool;
        VERIFY_TRANSFER admits a receiver to the sender's instance.
        """
        if not self.cfg.coordinator_addr:
            raise StartError("shared mode needs a coordinator address")
        ch = self._open(self.cfg.coordinator_addr, purpose)
        channels.append(ch)
        grants: list[dict] = []
        try:
            ch.request(kind, body, on_event=lambda m: grants.append(m.body))
        finally:
            ch.close()
        if not grants:
            raise StartError(f"coordinator acknowledged {kind} without a grant")
        grant = grants[0]
        self._check_certificate(grant["certificate"])
        return grant

    def _place(self, protocol: str, channels: list[Channel]) -> dict | None:
        """A shared-pool grant, or None for the user's own instance."""
        if protocol == "private":
            return None
        return self._coordinator_grant(
            "REQUEST_INSTANCE", {"user_id": self.user_id}, "grant", channels)

    def _check_certificate(self, cert_wire: dict):
        if self.cfg.coordinator_pub is None:
            return  # nothing pinned; accept (tests always pin)
        try:
            verify_certificate(self.cfg.coordinator_pub, Certificate.from_wire(cert_wire))
        except SkyrelayError as e:
            raise PermissionDenied(f"instance certificate rejected: {e}") from None

    def _ensure_private(self) -> str:
        if self.private_instance:
            return self.private_instance
        if self.cfg.private_launcher is None:
            raise StartError("no private instance and no way to launch one")
        addr, cert = self.cfg.private_launcher()
        self.private_instance = addr
        self.private_certificate = cert
        return addr

    def _submit(self, fois: list[FOI], grant: dict | None, channels: list[Channel],
                events: list[Message]) -> tuple[str, dict]:
        """Run fois on an instance; returns (instance addr, job result body).

        Without a grant the job goes to the user's own instance carrying
        plaintext credentials; with one it goes to the granted instance with
        credentials sealed under the grant's user key.
        """
        body = {"job_id": self._new_job_id(), "fois": sequence_to_wire(fois)}
        if grant is None:
            addr = self._ensure_private()
            body["credentials"] = self.creds.to_wire()
        else:
            addr = grant["addr"]
            body["credentials_ct"] = encrypt_credentials(
                bytes.fromhex(grant["key"]), self.creds,
                bytes.fromhex(grant["r"]), int(grant["epoch"])).to_wire()
        ch = self._open(addr, "job")
        channels.append(ch)
        try:
            reply = ch.request("SUBMIT_OP", body, on_event=events.append, timeout=120.0)
        finally:
            ch.close()
        return addr, reply.body

    def _fetch_pushed(self, addr: str, descriptor: dict,
                      channels: list[Channel]) -> str:
        os.makedirs(self.cfg.download_dir or ".", exist_ok=True)
        dst = os.path.join(self.cfg.download_dir or ".", descriptor["name"])
        ch = self._open(addr, "pull")
        channels.append(ch)
        try:
            pull_exposure(fetch_reader(ch, descriptor["uri"], descriptor["guest_token"],
                                       timeout=60.0), dst)
        finally:
            ch.close()
        return dst

    def cmd_cloud_op(self, action: str, args: dict[str, Any],
                     mode: str | None = None) -> dict:
        """Delegate one cloud-assisted op; returns the job result body.

        The result gains a "saved" list with local paths of pushed files
        (the converted file, the encryption key file).
        """
        fois = self._prepare_fois(OperationRequest(action=action, args=args))
        started = time.monotonic()
        channels: list[Channel] = []
        events: list[Message] = []
        grant = self._place(mode or self.cfg.mode, channels)
        _, result = self._submit(fois, grant, channels, events)
        saved = []
        for ev in events:
            if ev.kind == "EXPOSE_GRANT":
                addr, _, _ = parse_exposure_uri(ev.body["uri"])
                saved.append(self._fetch_pushed(addr, ev.body, channels))
        result["saved"] = saved
        self.sync()
        self._record(action, channels, started, events)
        return result

    # -- transfers --

    def cmd_send(self, dst_user: str, src_path: str, ticket_path: str,
                 suggested_dst: str = "", protocol: str = "private") -> TransferTicket:
        """Expose src_path from an instance and emit a ticket for the receiver.

        The private protocol stages the file on this user's own instance; the
        shared one on a granted pool instance the receiver will run on too.
        """
        started = time.monotonic()
        channels: list[Channel] = []
        events: list[Message] = []
        grant = self._place(protocol, channels)
        name = src_path.rsplit("/", 1)[-1]
        addr, result = self._submit(
            [FOI("get", src_path), FOI("push", name)], grant, channels, events)
        descriptor = result["pushed"][0]
        if grant is None:
            pid, certificate = "", self.private_certificate
            if certificate is None:
                raise StartError("own instance carries no certificate to embed")
        else:
            pid, certificate = grant["pid"], grant["certificate"]
        ticket = TransferTicket(
            protocol=protocol,
            sender_id=self.user_id,
            instance_addr=addr,
            instance_pid=pid,
            uri_f=descriptor["uri"],
            guest_token=descriptor["guest_token"],
            certificate=certificate,
            src_path=src_path,
            suggested_dst=suggested_dst or f"/inbox/{name}",
            size_bytes=descriptor["size_bytes"],
        )
        write_ticket(ticket, ticket_path)
        self._record("transfer_send", channels, started, events)
        return ticket

    def cmd_recv(self, ticket: TransferTicket | str, dst_path: str | None = None) -> dict:
        """Pull the ticketed file onto an instance, then store it.

        A private ticket runs on this user's own instance, which fetches from
        the sender's; a shared one runs on the sender's granted instance once
        the coordinator verifies the pairing.
        """
        if isinstance(ticket, str):
            ticket = read_ticket(ticket)
        self._check_certificate(ticket.certificate)
        started = time.monotonic()
        channels: list[Channel] = []
        events: list[Message] = []
        grant = None
        if ticket.protocol != "private":
            grant = self._coordinator_grant("VERIFY_TRANSFER", {
                "user_id": self.user_id,
                "sender_id": ticket.sender_id,
                "pid": ticket.instance_pid,
            }, "verify", channels)
            if grant["addr"] != ticket.instance_addr:
                raise PermissionDenied("ticket instance does not match the verified one")
        dst = self._free_name(dst_path or ticket.suggested_dst)
        fois = [
            FOI("download", ticket.uri_f, op_params={"guest_token": ticket.guest_token}),
            FOI("put", dst),
        ]
        _, result = self._submit(fois, grant, channels, events)
        self.sync()
        self._record("transfer_recv", channels, started, events)
        return result

    def cmd_send_shared(self, dst_user: str, src_path: str, ticket_path: str,
                        suggested_dst: str = "") -> TransferTicket:
        return self.cmd_send(dst_user, src_path, ticket_path, suggested_dst, protocol="shared")

    def cmd_recv_shared(self, ticket: TransferTicket | str,
                        dst_path: str | None = None) -> dict:
        return self.cmd_recv(ticket, dst_path)
