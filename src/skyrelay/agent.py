"""Agent: the user-facing client that never holds file content.

The agent lists folders and performs basic operations against the storage
service, reads a metadata shadow of the account only to name an op's output,
and delegates anything that needs file bytes to a worker instance: a private
one it launched, or a shared one the coordinator grants.  In shared mode
storage credentials leave the agent only sealed under the granted user key;
in private mode plaintext credentials go only to the agent's own instance.

A shared-pool grant is kept and reused until its reuse_until, so a run of
small ops costs one coordinator round trip.  A job sent under a reused
grant that never started (the instance is gone, was stopping, or no longer
opens the grant's epoch) is resubmitted once under a fresh grant; an error
after a step began is the caller's.  What a job hands back lands in
download_dir: the file keys its RESULT carries, then the files it pushed.

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
from functools import cached_property
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
from .coordinator import DEFAULT_TICKET_TIMEOUT_S
from .errors import (
    AuthError,
    NotCloudAssisted,
    PermissionDenied,
    SkyrelayError,
    StartError,
)
from .keying import encrypt_credentials, job_binding
from .storage import ShadowFS, StorageBackend
from .wire import (
    Certificate,
    Channel,
    Message,
    decode_message,
    default_opener,
    encode_message,
    verify_certificate,
)
from .worker import fetch_reader, parse_exposure_uri, pull_exposure


def _never_started(e: SkyrelayError) -> bool:
    """True if a job failed, before any step ran, for a reason another
    instance would not share: its channel never opened, its instance was
    shutting down, or the instance could not open its credential envelope."""
    return not hasattr(e, "step") and e.code in (
        "CONNECT_ERROR", "SHUTDOWN", "CREDENTIAL_AUTH_FAILURE")


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
    # owner-only from creation: the ticket carries the guest token
    with open(tmp, "wb", opener=lambda p, flags: os.open(p, flags, 0o600)) as f:
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


class AgentSession:
    """One logged-in user; holds metadata only, and reads it only when an op needs it."""

    def __init__(self, cfg: AgentConfig):
        self.cfg = cfg
        self.creds = CredentialSet(cfg.account_id, cfg.token)
        if cfg.backend.authenticate(cfg.token) != self.creds:
            raise AuthError(f"token does not belong to account {cfg.account_id}")
        self.rng = random.Random(cfg.seed)
        self.metrics: list[dict] = []
        self.private_instance = cfg.private_instance
        self.private_certificate = cfg.private_certificate
        self._grant: dict | None = None  # the last REQUEST_INSTANCE grant
        self._open = cfg.channel_factory or default_opener

    # -- bookkeeping --

    def _new_job_id(self) -> str:
        return f"{self.rng.getrandbits(48):012x}"

    def _record(self, op: str, channels: list[Channel], started: float,
                events: list[Message]):
        self.metrics.append({
            "op": op,
            "bytes_sent": sum(c.bytes_sent for c in channels),
            "bytes_received": sum(c.bytes_received for c in channels),
            "wall_ms": int((time.monotonic() - started) * 1000),
            "heartbeats": sum(1 for e in events if e.kind == "HEARTBEAT"),
        })

    @cached_property
    def shadow(self) -> ShadowFS:
        """The account's metadata mirror, read whole on first access."""
        return self.cfg.backend.sync_shadow(self.creds)

    def sync(self):
        """Refresh the shadow, if it was read, with what changed since its cursor."""
        if "shadow" in vars(self):
            self.shadow = self.cfg.backend.refresh_shadow(self.creds, self.shadow)

    def ls(self, path: str = "/") -> list:
        """The folder's direct children by path, or [the file]; one listing from the store."""
        return self.cfg.backend.list_meta(self.creds, path)

    # -- basic operations --

    def cmd_basic(self, action: str, args: dict[str, Any]):
        req = OperationRequest(action=action, args=args)
        if classify_operation(req) != "basic":
            raise NotCloudAssisted(f"{action} is not a basic operation")
        started = time.monotonic()
        if action == "create":
            kind = args.get("kind", "folder" if args.get("folder") else "file")
            storage_action = "create_folder" if kind == "folder" else "create_file"
            self.cfg.backend.basic_op(self.creds, storage_action, args)
        else:
            self.cfg.backend.basic_op(self.creds, action, args)
        self.sync()
        self._record(action, [], started, [])

    # -- cloud-assisted operations --

    def _free_name(self, put_path: str) -> str:
        # one lookup per candidate, never a pass over the shadow
        return uncollide(put_path, self.shadow.entries)

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
        """One coordinator round trip whose ACK carries an instance grant.

        REQUEST_INSTANCE places a cloud op or a send on the shared pool;
        VERIFY_TRANSFER admits a receiver to the sender's instance.
        """
        if not self.cfg.coordinator_addr:
            raise StartError("shared mode needs a coordinator address")
        ch = self._open(self.cfg.coordinator_addr, purpose)
        channels.append(ch)
        try:
            grant = ch.request(kind, body).body
        finally:
            ch.close()
        if not grant:
            raise StartError(f"coordinator acknowledged {kind} without a grant")
        self._check_certificate(grant["certificate"], grant["addr"], grant["pid"])
        return grant

    def _place(self, protocol: str, channels: list[Channel]) -> dict | None:
        """A shared-pool grant, or None for the user's own instance.

        The last grant is reused until its reuse_until (Unix seconds): its
        key opens and its allocation lives until then, as a Kerberos service
        ticket is reused until its end time.
        """
        if protocol == "private":
            return None
        if self._grant is None or time.time() >= self._grant["reuse_until"]:
            self._grant = self._coordinator_grant(
                "REQUEST_INSTANCE", {"user_id": self.cfg.account_id}, "grant", channels)
        return self._grant

    def _place_and_submit(self, fois: list[FOI], protocol: str, channels: list[Channel],
                          events: list[Message]) -> tuple[dict | None, str, dict]:
        """Run fois where protocol places them; returns (grant, addr, result).

        A job sent under a reused grant whose instance is gone, no longer
        opens the grant's key, or was stopping at intake never ran a step, so
        it is resubmitted once under a fresh grant.  Any error after a step
        began propagates unchanged.
        """
        held = self._grant
        grant = self._place(protocol, channels)
        try:
            addr, result = self._submit(fois, grant, channels, events)
        except SkyrelayError as e:
            if grant is None or grant is not held or not _never_started(e):
                raise
            self._grant = None
            grant = self._place(protocol, channels)
            addr, result = self._submit(fois, grant, channels, events)
        return grant, addr, result

    def _check_certificate(self, cert_wire: dict, addr: str, pid: str | None):
        """PermissionDenied unless the pinned coordinator signed the
        certificate, it has not expired and it vouches for the instance at
        addr (and pid).  Nothing is checked when nothing is pinned."""
        if self.cfg.coordinator_pub is None:
            return  # nothing pinned; accept (tests always pin)
        try:
            cert = Certificate.from_wire(cert_wire)
            verify_certificate(self.cfg.coordinator_pub, cert)
        except SkyrelayError as e:
            raise PermissionDenied(f"instance certificate rejected: {e}") from None
        if cert.subject.get("addr") != addr or pid is not None and cert.subject.get("pid") != pid:
            raise PermissionDenied(f"certificate vouches for {cert.subject}, not {addr}")

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
                bytes.fromhex(grant["r"]), int(grant["epoch"]),
                aad=job_binding(bytes.fromhex(grant["pid"]), body["job_id"],
                                body["fois"])).to_wire()
        ch = self._open(addr, "job")
        channels.append(ch)
        try:
            reply = ch.request("SUBMIT_OP", body, on_event=events.append, timeout=120.0)
        finally:
            ch.close()
        return addr, reply.body

    def _local_path(self, name: str) -> str:
        # the instance picks the name; it must not steer the write elsewhere
        if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\0" in name:
            raise PermissionDenied(f"instance named a local file {name!r}")
        return os.path.join(self.cfg.download_dir or ".", name)

    def _save_results(self, addr: str, result: dict, channels: list[Channel]) -> list[str]:
        """Write the RESULT's keys, then pull its pushed files, into download_dir.

        Every name is checked before anything is written.
        """
        keys = [(self._local_path(k["name"]), k) for k in result["keys"]]
        pulls = [(self._local_path(d["name"]), d) for d in result["pushed"]]
        if keys or pulls:
            os.makedirs(self.cfg.download_dir or ".", exist_ok=True)
        for dst, k in keys:
            with open(dst, "w", encoding="utf-8",
                      opener=lambda p, flags: os.open(p, flags, 0o600)) as f:
                json.dump({"cipher": k["cipher"], "key": k["key"]}, f)
        for dst, d in pulls:
            ch = self._open(addr, "pull")
            channels.append(ch)
            try:
                pull_exposure(fetch_reader(ch, d["uri"], d["guest_token"], timeout=60.0), dst)
            finally:
                ch.close()
        return [dst for dst, _ in keys + pulls]

    def cmd_cloud_op(self, action: str, args: dict[str, Any],
                     mode: str | None = None) -> dict:
        """Delegate one cloud-assisted op; returns the job result body.

        The result gains a "saved" list of local paths: each encryption key
        the RESULT carries, then each pushed file (the converted file).
        """
        fois = self._prepare_fois(OperationRequest(action=action, args=args))
        started = time.monotonic()
        channels: list[Channel] = []
        events: list[Message] = []
        _, addr, result = self._place_and_submit(fois, mode or self.cfg.mode, channels, events)
        result["saved"] = self._save_results(addr, result, channels)
        self.sync()
        self._record(action, channels, started, events)
        return result

    # -- transfers --

    def cmd_send(self, dst_user: str, src_path: str, ticket_path: str,
                 suggested_dst: str = "", protocol: str = "private") -> TransferTicket:
        """Expose src_path from an instance and emit a ticket for the receiver.

        The private protocol stages the file on this user's own instance; the
        shared one on a granted pool instance the receiver will run on too.
        A private send whose instance has no certificate for the ticket
        refuses before it exposes anything.
        """
        if protocol == "private":
            self._ensure_private()
            if self.private_certificate is None:
                raise StartError("own instance carries no certificate to embed")
        started = time.monotonic()
        channels: list[Channel] = []
        events: list[Message] = []
        name = src_path.rsplit("/", 1)[-1]
        grant, addr, result = self._place_and_submit(
            [FOI("get", src_path), FOI("push", name)], protocol, channels, events)
        descriptor = result["pushed"][0]
        if grant is None:
            pid, certificate = "", self.private_certificate
        else:
            pid, certificate = grant["pid"], grant["certificate"]
        ticket = TransferTicket(
            protocol=protocol,
            sender_id=self.cfg.account_id,
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
        try:
            uri_addr = parse_exposure_uri(ticket.uri_f)[0]
        except ValueError as e:
            raise PermissionDenied(str(e)) from None
        if uri_addr != ticket.instance_addr:
            raise PermissionDenied(f"ticket uri names {uri_addr}, not {ticket.instance_addr}")
        # a shared ticket's pid is checked before the coordinator allocates for it
        self._check_certificate(ticket.certificate, ticket.instance_addr,
                                None if ticket.protocol == "private" else ticket.instance_pid)
        started = time.monotonic()
        channels: list[Channel] = []
        events: list[Message] = []
        grant = None
        if ticket.protocol != "private":
            grant = self._coordinator_grant("VERIFY_TRANSFER", {
                "user_id": self.cfg.account_id,
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
