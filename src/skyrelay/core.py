"""Shared domain types, the FOI instruction set, and the operation compiler.

User-level operations split into two categories: basic ops (create, delete,
rename) that touch only metadata and run against the storage backend
directly, and cloud-assisted ops (download, compress, encrypt, convert,
transfers) that compile into a File Operation Instruction (FOI) sequence
executed by a worker instance.

Everything in this module is a pure value type or a pure function; all of it
is safe to share across threads.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any

from .errors import NotCloudAssisted, UnknownOperation

VERBS = ("download", "get", "put", "op", "push")
OP_KINDS = ("compress", "encrypt", "convert")

BASIC_ACTIONS = frozenset({"create", "delete", "rename"})
CLOUD_ACTIONS = frozenset(
    {"download", "compress", "encrypt", "convert", "transfer_send", "transfer_recv"}
)

# Derived output name per op kind: <basename>.<suffix>.
OP_SUFFIXES = {"compress": "gz", "encrypt": "enc", "convert": "small"}

MAX_PATH_BYTES = 4096

_URL_RE = re.compile(r"^[a-z][a-z0-9+.-]*://", re.IGNORECASE)


def is_url(target: str) -> bool:
    return bool(_URL_RE.match(target))


def canonical_json(obj: Any) -> bytes:
    """Deterministic JSON bytes: sorted keys, no whitespace, UTF-8."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


@dataclass
class FileMeta:
    """Metadata entry of the shadow file system; never carries content."""

    path: str
    name: str
    kind: str  # "file" | "folder"
    size_bytes: int
    modified_at: int
    revision: str

    def __post_init__(self):
        if self.kind == "folder":
            self.size_bytes = 0

    def to_wire(self) -> dict:
        return {
            "path": self.path,
            "name": self.name,
            "kind": self.kind,
            "size_bytes": self.size_bytes,
            "modified_at": self.modified_at,
            "revision": self.revision,
        }

    @classmethod
    def from_wire(cls, d: dict) -> FileMeta:
        return cls(
            path=d["path"],
            name=d["name"],
            kind=d["kind"],
            size_bytes=d["size_bytes"],
            modified_at=d["modified_at"],
            revision=d["revision"],
        )


@dataclass
class FOI:
    """One File Operation Instruction.

    download targets a URL, get/put target storage paths, push names the
    produced file handed back to the requesting agent.  op_kind is present
    exactly when verb is "op".
    """

    verb: str
    target: str
    op_kind: str | None = None
    op_params: dict[str, Any] = field(default_factory=dict)

    def to_wire(self) -> dict:
        d: dict[str, Any] = {"verb": self.verb, "target": self.target}
        if self.op_kind is not None:
            d["op_kind"] = self.op_kind
        if self.op_params:
            d["op_params"] = self.op_params
        return d

    @classmethod
    def from_wire(cls, d: dict) -> FOI:
        return cls(
            verb=d["verb"],
            target=d["target"],
            op_kind=d.get("op_kind"),
            op_params=d.get("op_params", {}),
        )


# A job-scoped ordered instruction list; the wire form is a JSON array.
FoiSequence = list[FOI]


def sequence_to_wire(seq: FoiSequence) -> list[dict]:
    return [f.to_wire() for f in seq]


def sequence_from_wire(arr: list[dict]) -> FoiSequence:
    return [FOI.from_wire(d) for d in arr]


@dataclass
class OperationRequest:
    """A user-level request before compilation."""

    action: str
    args: dict[str, Any] = field(default_factory=dict)


@dataclass
class CredentialSet:
    """Storage account credentials (SC).

    A worker may hold these only for the duration of one FOI sequence
    execution; they are never written to its disk.
    """

    account_id: str
    token: str

    def to_wire(self) -> dict:
        return {"account_id": self.account_id, "token": self.token}

    @classmethod
    def from_wire(cls, d: dict) -> CredentialSet:
        return cls(account_id=d["account_id"], token=d["token"])


def classify_operation(req: OperationRequest) -> str:
    """Return "basic" or "cloud_assisted" for a known action."""
    if req.action in BASIC_ACTIONS:
        return "basic"
    if req.action in CLOUD_ACTIONS:
        return "cloud_assisted"
    raise UnknownOperation(f"unknown action: {req.action!r}")


def derived_name(name: str, op_kind: str) -> str:
    return f"{name}.{OP_SUFFIXES[op_kind]}"


def uncollide(name: str, taken) -> str:
    """Insert a counter before the final suffix until name is free."""
    if name not in taken:
        return name
    stem, dot, suffix = name.rpartition(".")
    if not dot:
        stem, suffix = name, ""
    n = 1
    while True:
        candidate = f"{stem}.{n}.{suffix}" if suffix else f"{stem}.{n}"
        if candidate not in taken:
            return candidate
        n += 1


def _transform_fois(path: str, op_kind: str, op_params: dict) -> FoiSequence:
    name = path.rsplit("/", 1)[-1]
    out_name = derived_name(name, op_kind)
    fois = [
        FOI("get", path),
        FOI("op", path, op_kind=op_kind, op_params=op_params),
    ]
    if op_kind == "convert":
        # Converted files go back to the agent, not to storage.
        fois.append(FOI("push", out_name))
    else:
        parent = path.rsplit("/", 1)[0]
        fois.append(FOI("put", f"{parent}/{out_name}"))
    return fois


def compile_op_to_fois(req: OperationRequest) -> FoiSequence:
    """Compile a cloud-assisted operation into its FOI sequence.

    Transfers are excluded: they span two accounts and two instances, so the
    agent builds their sequences itself.
    """
    if classify_operation(req) != "cloud_assisted":
        raise NotCloudAssisted(f"{req.action} does not compile to FOIs")
    if req.action in ("transfer_send", "transfer_recv"):
        raise ValueError("transfer sequences are built by the agent")
    if req.action == "download":
        dl_params = {k: req.args[k] for k in ("throttle_bps", "guest_token")
                     if k in req.args}
        return [FOI("download", req.args["url"], op_params=dl_params),
                FOI("put", req.args["dest"])]
    op_params = {}
    if req.action == "convert" and "max_resolution" in req.args:
        op_params["max_resolution"] = req.args["max_resolution"]
    return _transform_fois(req.args["path"], req.action, op_params)


def validate_foi_sequence(seq: FoiSequence) -> list[str]:
    """Check per-verb target constraints; violations come back as strings.

    An empty list means the sequence is valid; an empty sequence is a no-op
    and therefore valid.
    """
    violations = []
    for i, foi in enumerate(seq):
        where = f"foi[{i}]"
        if foi.verb not in VERBS:
            violations.append(f"{where}: unknown verb {foi.verb!r}")
            continue
        if (foi.op_kind is not None) != (foi.verb == "op"):
            violations.append(f"{where}: op_kind present iff verb is 'op'")
        if foi.verb == "op" and foi.op_kind is not None and foi.op_kind not in OP_KINDS:
            violations.append(f"{where}: unknown op_kind {foi.op_kind!r}")
        if not foi.target:
            violations.append(f"{where}: empty target")
            continue
        if len(foi.target.encode("utf-8")) > MAX_PATH_BYTES:
            violations.append(f"{where}: target exceeds {MAX_PATH_BYTES} bytes")
        if foi.verb == "download":
            if not is_url(foi.target):
                violations.append(f"{where}: download requires a URL")
        elif foi.verb in ("get", "put"):
            if is_url(foi.target):
                violations.append(f"{where}: {foi.verb} requires a storage path")
        elif foi.verb == "push":
            if is_url(foi.target) or "/" in foi.target:
                violations.append(f"{where}: push names a produced file")
        if foi.verb == "op":
            # An op transforms the artifact fetched by an earlier get/download.
            source = None
            for prev in reversed(seq[:i]):
                if prev.verb in ("get", "download"):
                    source = prev
                    break
            if source is None:
                violations.append(f"{where}: op without a preceding get/download")
            elif source.verb == "get" and source.target != foi.target:
                violations.append(f"{where}: op target differs from fetched file")
    return violations
