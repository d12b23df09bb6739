"""Token-authenticated object store standing in for Dropbox/S3.

The backend interface is pluggable; the one required implementation keeps
objects in a local directory tree with a sidecar JSON metadata index per
account.  Byte payloads live only in the data tree, so metadata operations
(listing, shadow sync) never touch content.

State is persisted on every mutation.  Nothing is loaded when a backend is
constructed: each call refreshes only the account it acts on, and re-parses
that account's index only when the file's (mtime, size, inode) has changed,
so separate processes pointed at the same root see each other's writes.
A mutation holds the account's flock from the reload through the index
write, so concurrent backends do not lose each other's changes; in-process
concurrency is also serialized by a backend-wide lock.

Tokens are stored only as SHA-256 hex digests.  The root's token map,
``<root>/.tokens/<digest>``, is a symlink per token whose target is the
account id, so authenticate reads one link and loads one account; the
account's index stays the authority, and a link whose digest the index
does not list grants nothing.  Stores written when indexes held plaintext
tokens are not migrated.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import secrets
import shutil
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .core import MAX_PATH_BYTES, FileMeta
from .errors import (
    AlreadyExists,
    AuthError,
    NotFound,
    PermissionDenied,
    QuotaError,
)

DEFAULT_QUOTA_BYTES = 1 << 30  # 1 GiB per account
TOKEN_DIR = ".tokens"  # reserved name under the root: the token map


def _valid_account_id(account_id) -> bool:
    """True if account_id names one directory directly under the root."""
    return (isinstance(account_id, str)
            and account_id not in ("", ".", "..", TOKEN_DIR)
            and "/" not in account_id and "\x00" not in account_id)


def token_digest(token) -> str:
    """The form in which a token is stored: its SHA-256 hex digest."""
    if not isinstance(token, str):
        raise AuthError("token must be a string")
    return hashlib.sha256(token.encode("utf-8", "surrogatepass")).hexdigest()


def normalize_path(path: str) -> str:
    """Normalize an absolute in-account path; reject anything that escapes."""
    if not isinstance(path, str) or not path.startswith("/"):
        raise PermissionDenied(f"path must be absolute: {path!r}")
    if "\x00" in path:
        raise PermissionDenied("path contains NUL")
    if len(path.encode("utf-8")) > MAX_PATH_BYTES:
        raise PermissionDenied(f"path exceeds {MAX_PATH_BYTES} bytes")
    parts = []
    for seg in path.split("/"):
        if seg in ("", "."):
            continue
        if seg == "..":
            raise PermissionDenied(f"path escapes account root: {path!r}")
        parts.append(seg)
    return "/" + "/".join(parts)


def parent_of(path: str) -> str:
    return path.rsplit("/", 1)[0] or "/"


@dataclass
class Session:
    """Proof of a successful token check, bound to one account."""

    account_id: str
    token: str


@dataclass
class ShadowFS:
    """Metadata-only mirror of one account's store contents."""

    account_id: str
    entries: dict[str, FileMeta] = field(default_factory=dict)
    synced_at: int = 0

    def to_wire(self) -> dict:
        return {
            "account_id": self.account_id,
            "synced_at": self.synced_at,
            "entries": {p: m.to_wire() for p, m in sorted(self.entries.items())},
        }

    @classmethod
    def from_wire(cls, d: dict) -> ShadowFS:
        return cls(
            account_id=d["account_id"],
            synced_at=d["synced_at"],
            entries={p: FileMeta.from_wire(m) for p, m in d["entries"].items()},
        )


class StorageBackend:
    """Interface every store implementation provides."""

    def authenticate(self, token: str) -> Session:
        raise NotImplementedError

    def basic_op(self, session: Session, action: str, args: dict):
        raise NotImplementedError

    def get_object(self, session: Session, path: str) -> bytes:
        raise NotImplementedError

    def put_object(self, session: Session, path: str, data: bytes) -> FileMeta:
        raise NotImplementedError

    def list_meta(self, session: Session, path: str, recursive: bool = False) -> list[FileMeta]:
        raise NotImplementedError

    def sync_shadow(self, session: Session) -> ShadowFS:
        raise NotImplementedError


class _AccountState:
    def __init__(self, account_id: str, quota_bytes: int):
        self.account_id = account_id
        self.quota_bytes = quota_bytes
        self.tokens: set[str] = set()  # token digests
        # path -> {kind, size_bytes, modified_at, revision:int}
        self.entries: dict[str, dict] = {}
        # survives delete/recreate so revisions stay monotone per path
        self.rev_counters: dict[str, int] = {}
        self.usage = 0  # bytes of all files, kept in step with entries
        self.index_stat: tuple[int, int, int] | None = None


class LocalDirBackend(StorageBackend):
    """Directory-tree store: <root>/<account>/data/... plus index sidecars."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self._lock = threading.RLock()
        self._accounts: dict[str, _AccountState] = {}

    # -- account management (test/ops surface, not part of the storage API) --

    def create_account(self, account_id: str,
                       quota_bytes: int = DEFAULT_QUOTA_BYTES) -> str:
        """Create an account and return its first bearer token."""
        if not _valid_account_id(account_id):
            raise PermissionDenied(f"invalid account id: {account_id!r}")
        os.makedirs(self._account_dir(account_id), exist_ok=True)
        token = secrets.token_hex(16)
        digest = token_digest(token)
        with self._flock(account_id), self._lock:
            self._load_account(account_id)
            if account_id in self._accounts:
                raise AlreadyExists(f"account {account_id} exists")
            st = _AccountState(account_id, quota_bytes)
            st.tokens.add(digest)
            self._persist(st)
            self._accounts[account_id] = st
        os.makedirs(os.path.join(self.root, TOKEN_DIR), exist_ok=True)
        os.symlink(account_id, self._token_entry(digest))
        return token

    def revoke_token(self, token: str):
        digest = token_digest(token)
        with self._lock:
            st = self._account_of(digest)
        if st is None:
            raise NotFound("unknown token")
        # The map entry goes first, so every entry's digest stays listed.
        os.unlink(self._token_entry(digest))
        with self._writing(Session(st.account_id, token)) as st:
            st.tokens.discard(digest)
            self._persist(st)

    # -- storage API --

    def authenticate(self, token: str) -> Session:
        digest = token_digest(token)
        with self._lock:
            st = self._account_of(digest)
        if st is None:
            raise AuthError("unknown or revoked token")
        return Session(account_id=st.account_id, token=token)

    def basic_op(self, session: Session, action: str, args: dict):
        if action == "create_file":
            return self._put(session, normalize_path(args["path"]),
                             args.get("data", b""), must_create=True)
        with self._writing(session) as st:
            if action == "create_folder":
                path = normalize_path(args["path"])
                if path in st.entries or path == "/":
                    raise AlreadyExists(path)
                self._ensure_parents(st, path)
                self._set_entry(st, path, kind="folder", size=0)
                self._persist(st)
                return self._meta(st, path)
            if action == "delete":
                path = normalize_path(args["path"])
                ent = st.entries.get(path)
                if ent is None:
                    raise NotFound(path)
                for p in self._subtree(st, path) + [path]:
                    gone = st.entries.pop(p)
                    if gone["kind"] == "file":
                        st.usage -= gone["size_bytes"]
                fs = self._fs_path(st.account_id, path)
                if ent["kind"] == "file":
                    if os.path.isfile(fs):
                        os.remove(fs)
                else:
                    shutil.rmtree(fs, ignore_errors=True)
                self._persist(st)
                return None
            if action == "rename":
                return self._rename(st, normalize_path(args["src"]),
                                    normalize_path(args["dst"]))
            raise ValueError(f"unknown basic action: {action!r}")

    def get_object(self, session: Session, path: str) -> bytes:
        with self._lock:
            st = self._auth_state(session)
            path = normalize_path(path)
            ent = st.entries.get(path)
            if ent is None or ent["kind"] != "file":
                raise NotFound(path)
            fs = self._fs_path(st.account_id, path)
        with open(fs, "rb") as f:
            return f.read()

    def put_object(self, session: Session, path: str, data: bytes) -> FileMeta:
        return self._put(session, normalize_path(path), data, must_create=False)

    def list_meta(self, session: Session, path: str = "/",
                  recursive: bool = False) -> list[FileMeta]:
        with self._lock:
            st = self._auth_state(session)
            path = normalize_path(path)
            if path != "/":
                ent = st.entries.get(path)
                if ent is None:
                    raise NotFound(path)
                if ent["kind"] == "file":
                    return [self._meta(st, path)]
            prefix = "" if path == "/" else path
            out = []
            for p in sorted(st.entries):
                if not p.startswith(prefix + "/"):
                    continue
                if not recursive and "/" in p[len(prefix) + 1:]:
                    continue
                out.append(self._meta(st, p))
            return out

    def sync_shadow(self, session: Session) -> ShadowFS:
        with self._lock:
            st = self._auth_state(session)
            entries = {p: self._meta(st, p) for p in st.entries}
            return ShadowFS(account_id=st.account_id, entries=entries,
                            synced_at=int(time.time()))

    # -- internals --

    def _token_entry(self, digest: str) -> str:
        return os.path.join(self.root, TOKEN_DIR, digest)

    def _account_of(self, digest: str) -> _AccountState | None:
        """The freshly loaded account listing the token digest, or None."""
        try:
            account_id = os.readlink(self._token_entry(digest))
        except OSError:
            return None
        if not _valid_account_id(account_id):
            return None
        self._load_account(account_id)
        st = self._accounts.get(account_id)
        if st is None or digest not in st.tokens:
            return None
        return st

    def _auth_state(self, session: Session) -> _AccountState:
        account_id = session.account_id
        # A forged id must not point the reload at an index outside the root.
        if _valid_account_id(account_id):
            self._load_account(account_id)
        st = self._accounts.get(account_id)
        if st is None or token_digest(session.token) not in st.tokens:
            raise AuthError("session not valid for this account")
        return st

    @contextmanager
    def _writing(self, session: Session):
        """Yield the session's account, reloaded and flocked until the end.

        The session is checked before the lock file is opened, so a forged
        account id creates nothing.
        """
        with self._lock:
            account_id = self._auth_state(session).account_id
        with self._flock(account_id), self._lock:
            yield self._auth_state(session)

    @contextmanager
    def _flock(self, account_id: str):
        """Hold the account's cross-process lock."""
        with open(os.path.join(self._account_dir(account_id), ".lock"), "a") as lf:
            fcntl.flock(lf, fcntl.LOCK_EX)
            yield

    def _account_dir(self, account_id: str) -> str:
        return os.path.join(self.root, account_id)

    def _data_dir(self, account_id: str) -> str:
        return os.path.join(self._account_dir(account_id), "data")

    def _fs_path(self, account_id: str, path: str) -> str:
        dd = self._data_dir(account_id)
        fs = os.path.normpath(os.path.join(dd, path.lstrip("/")))
        if fs != dd and not fs.startswith(dd + os.sep):
            raise PermissionDenied(f"path escapes account root: {path!r}")
        return fs

    def _meta(self, st: _AccountState, path: str) -> FileMeta:
        ent = st.entries[path]
        return FileMeta(
            path=path,
            name=path.rsplit("/", 1)[-1],
            kind=ent["kind"],
            size_bytes=ent["size_bytes"],
            modified_at=ent["modified_at"],
            revision=str(ent["revision"]),
        )

    def _set_entry(self, st: _AccountState, path: str, kind: str, size: int):
        rev = st.rev_counters.get(path, 0) + 1
        st.rev_counters[path] = rev
        st.entries[path] = {
            "kind": kind,
            "size_bytes": size,
            "modified_at": int(time.time()),
            "revision": rev,
        }

    def _ensure_parents(self, st: _AccountState, path: str):
        parent = parent_of(path)
        missing = []
        while parent != "/" and parent not in st.entries:
            missing.append(parent)
            parent = parent_of(parent)
        if parent != "/" and st.entries[parent]["kind"] != "folder":
            raise NotFound(f"parent is a file: {parent}")
        for p in reversed(missing):
            self._set_entry(st, p, kind="folder", size=0)

    def _put(self, session: Session, path: str, data: bytes,
             must_create: bool) -> FileMeta:
        if path == "/":
            raise PermissionDenied("cannot write the account root")
        with self._lock:
            self._auth_state(session)  # a forged session writes nothing
        # The payload is staged before the flock so writers overlap on it.
        tmp = os.path.join(self._account_dir(session.account_id),
                           f"put-{secrets.token_hex(8)}.tmp")
        with open(tmp, "wb") as f:
            f.write(data)
        try:
            with self._writing(session) as st:
                existing = st.entries.get(path)
                if existing is not None:
                    if must_create:
                        raise AlreadyExists(path)
                    if existing["kind"] == "folder":
                        raise AlreadyExists(f"folder exists at {path}")
                old_size = existing["size_bytes"] if existing else 0
                if st.usage - old_size + len(data) > st.quota_bytes:
                    raise QuotaError(
                        f"quota {st.quota_bytes} exceeded on {st.account_id}")
                self._ensure_parents(st, path)
                fs = self._fs_path(st.account_id, path)
                os.makedirs(os.path.dirname(fs), exist_ok=True)
                os.replace(tmp, fs)
                self._set_entry(st, path, kind="file", size=len(data))
                st.usage += len(data) - old_size
                self._persist(st)
                return self._meta(st, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)

    def _rename(self, st: _AccountState, src: str, dst: str):
        if src not in st.entries:
            raise NotFound(src)
        if dst in st.entries:
            raise AlreadyExists(dst)
        self._ensure_parents(st, dst)
        moved = [(p, p.replace(src, dst, 1)) for p in self._subtree(st, src)]
        moved.append((src, dst))
        src_fs = self._fs_path(st.account_id, src)
        dst_fs = self._fs_path(st.account_id, dst)
        if os.path.exists(src_fs):
            os.makedirs(os.path.dirname(dst_fs), exist_ok=True)
            os.replace(src_fs, dst_fs)
        for old, new in moved:
            ent = st.entries.pop(old)
            self._set_entry(st, new, kind=ent["kind"], size=ent["size_bytes"])
        self._persist(st)
        return self._meta(st, dst)

    def _subtree(self, st: _AccountState, path: str) -> list[str]:
        return [p for p in st.entries if p.startswith(path + "/")]

    # -- persistence --

    def _index_path(self, account_id: str) -> str:
        return os.path.join(self._account_dir(account_id), "index.json")

    def _persist(self, st: _AccountState):
        """Write st's index; the caller holds the account's flock."""
        doc = {
            "account_id": st.account_id,
            "quota_bytes": st.quota_bytes,
            "tokens": sorted(st.tokens),
            "entries": st.entries,
            "rev_counters": st.rev_counters,
        }
        path = self._index_path(st.account_id)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(json.dumps(doc, separators=(",", ":")))
        os.replace(tmp, path)
        s = os.stat(path)
        st.index_stat = (s.st_mtime_ns, s.st_size, s.st_ino)

    def _load_account(self, account_id: str):
        """Refresh one account from its index; parse only if the stat moved."""
        path = self._index_path(account_id)
        try:
            s = os.stat(path)
        except (FileNotFoundError, NotADirectoryError):
            return
        index_stat = (s.st_mtime_ns, s.st_size, s.st_ino)
        st = self._accounts.get(account_id)
        if st is not None and st.index_stat == index_stat:
            return
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except FileNotFoundError:
            return
        st = _AccountState(account_id, doc["quota_bytes"])
        st.tokens = set(doc["tokens"])
        st.entries = doc["entries"]
        st.rev_counters = doc["rev_counters"]
        st.usage = sum(e["size_bytes"] for e in st.entries.values()
                       if e["kind"] == "file")
        st.index_stat = index_stat
        self._accounts[account_id] = st
