"""Token-authenticated object store standing in for Dropbox/S3.

The backend interface is pluggable; the one required implementation keeps
the whole namespace in one SQLite database per store root, each small
file's bytes as a row in that database and each larger file's bytes in an
immutable blob file beside it.  Only the database knows paths, so metadata
operations (listing, shadow sync, rename) never touch content.

The database, ``<root>/.meta/store.db``, holds the accounts with their
quotas and the bytes each uses, the token digests, every entry and each
path's revision counter, which survives a delete so revisions stay monotone
per path.  It runs in write-ahead-log mode: each mutation is one ``BEGIN
IMMEDIATE`` transaction that checks the credentials inside it, so backends in
other threads or processes on the same root neither lose each other's
changes nor read a stale view.  A transaction that finds the store locked
tries again after sleeps that double from 0.1 ms to 1 ms, for 5 s in all.
A put, put-over or delete moves the account's ``used`` in the same
transaction, so the quota check reads one row however many entries the
account holds.

Each account also has a change cursor.  Every mutation stamps the ``revs``
row of each path it creates, changes or removes with a number above the
account's largest so far, so the rows stamped after a cursor are exactly
the paths that changed since it.  A removed path keeps its ``revs`` row,
which serves as its tombstone.  A shadow carries the cursor it was read
at, and ``refresh_shadow`` reads only the rows stamped after it, in the
same statement as the credential check and the new cursor.

A file entry names its blob by a random id.  One rule, by size, places the
bytes on every write path: a file of at most INLINE_MAX_BYTES is a row of
``inline_blobs``, inserted and deleted in the transaction of its entry, so
a small put creates no file at all; a larger one is the file
``<root>/.meta/blobs/<id>``.  The rows stay out of the ``entries`` tree,
so scans of it stay narrow.  A put writes a blob file before the
transaction that commits its entry, and the blob file it replaces, like
every blob file a delete drops, is unlinked only after COMMIT; a rename
rewrites entries and touches neither rows of ``inline_blobs`` nor files.
So a crash at any point leaves every entry with its whole bytes, old or
new, and at worst a blob file that no entry names.  Nothing writes a blob
again, so a reader may hard-link a blob file and keep a stable snapshot,
and a writer may hand over a file by link, as long as nothing writes that
file again either.

Every call takes the ``core.CredentialSet`` that crosses the wire and
checks its token against its account in the statement that does the work:
its first lookup joins the token row, and an absent row is ``AuthError``.
So a get, a shadow sync or refresh and ``list_meta("/")`` of an account
that holds entries are one statement each.  A small put under an existing
folder is seven: BEGIN, the lookup of the token, the entry and the parent's
kind, the quota, the bytes, the revision, the entry, and COMMIT.  A mkdir
under an existing folder is five.
Tokens are stored only as SHA-256 hex digests.  The database records its
layout in ``PRAGMA user_version``; a backend refuses a store of any other
layout with ``ConfigError`` when it opens it.  Stores written in earlier
layouts (JSON indexes, plaintext tokens, the SQLite layouts without change
cursors, without blobs, or with every file's bytes in a blob file and no
``used``) are not migrated.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import secrets
import shutil
import sqlite3
import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field

from .core import MAX_PATH_BYTES, CredentialSet, FileMeta
from .errors import (
    AlreadyExists,
    AuthError,
    ConfigError,
    NotFound,
    PermissionDenied,
    QuotaError,
)

DEFAULT_QUOTA_BYTES = 1 << 30  # 1 GiB per account
COPY_CHUNK_BYTES = 1024 * 1024  # when a blob cannot be linked
META_DIR = ".meta"  # reserved name under the root: the database and the blobs
# upsert needs 3.24, RETURNING 3.35 and built-in JSON functions 3.38
MIN_SQLITE = (3, 38, 0)
# the database's user_version; 2 kept every file in a blob file and summed
# the account's sizes for its quota, 1 kept a data tree, 0 had no cursors
LAYOUT = 3
# a file of at most this many bytes lives in store.db, not in a blob file
INLINE_MAX_BYTES = 64 * 1024
# a statement that finds the store locked by another connection tries again
# after a sleep that doubles from LOCK_POLL_S up to LOCK_POLL_MAX_S, for
# LOCK_TIMEOUT_S in all (sqlite3's default timeout)
LOCK_POLL_S = 0.0001
LOCK_POLL_MAX_S = 0.001
LOCK_TIMEOUT_S = 5.0

_SCHEMA = """
CREATE TABLE accounts(id TEXT PRIMARY KEY, quota INTEGER NOT NULL,
                      used INTEGER NOT NULL DEFAULT 0);
CREATE TABLE tokens(digest TEXT PRIMARY KEY, account TEXT NOT NULL);
CREATE TABLE entries(account TEXT, path TEXT, kind TEXT NOT NULL,
                     size INTEGER NOT NULL, mtime INTEGER NOT NULL,
                     rev INTEGER NOT NULL, blob TEXT, PRIMARY KEY (account, path))
    WITHOUT ROWID;
CREATE TABLE revs(account TEXT, path TEXT, rev INTEGER NOT NULL,
                  seq INTEGER NOT NULL, PRIMARY KEY (account, path)) WITHOUT ROWID;
CREATE INDEX revs_seq ON revs(account, seq);
CREATE TABLE inline_blobs(id TEXT PRIMARY KEY, data BLOB NOT NULL);
"""


def _inline(size: int) -> bool:
    """Whether a file of size bytes keeps them in store.db: the one rule."""
    return size <= INLINE_MAX_BYTES


def _valid_account_id(account_id) -> bool:
    """True if account_id is a plain name, never the reserved META_DIR."""
    return (isinstance(account_id, str)
            and account_id not in ("", ".", "..", META_DIR)
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


def _below(path: str) -> tuple[str, str]:
    """Bounds (exclusive) of the paths strictly under path, in byte order."""
    prefix = "" if path == "/" else path
    return prefix + "/", prefix + "0"  # "0" is the character after "/"


# an entry and everything below it; parameters (account, path, *_below(path))
_SUBTREE = " FROM entries WHERE account = ? AND (path = ? OR path > ? AND path < ?)"
# the account's next change number, read through the (account, seq) index
_NEXT_SEQ = "(SELECT coalesce(max(seq), 0) + 1 FROM revs WHERE account = ?)"


@dataclass
class ShadowFS:
    """Metadata-only mirror of one account's store contents."""

    account_id: str
    entries: dict[str, FileMeta] = field(default_factory=dict)
    cursor: int = 0  # the account's last change number the entries include


class StorageBackend:
    """Interface every store implementation provides."""

    def authenticate(self, token: str) -> CredentialSet:
        raise NotImplementedError

    def basic_op(self, creds: CredentialSet, action: str, args: dict):
        raise NotImplementedError

    def get_object(self, creds: CredentialSet, path: str) -> bytes:
        raise NotImplementedError

    def put_object(self, creds: CredentialSet, path: str, data: bytes) -> FileMeta:
        raise NotImplementedError

    def list_meta(self, creds: CredentialSet, path: str,
                  recursive: bool = False) -> list[FileMeta]:
        """The entries directly in the folder at path, or all below it if
        recursive, sorted by path; [the file] at path; NotFound if none."""
        raise NotImplementedError

    def sync_shadow(self, creds: CredentialSet) -> ShadowFS:
        raise NotImplementedError

    def refresh_shadow(self, creds: CredentialSet, shadow: ShadowFS) -> ShadowFS:
        """The account's shadow as of now, given an earlier one.

        A backend may update shadow in place and return it, so callers use
        the return value only.  This fallback reads the whole account.
        """
        return self.sync_shadow(creds)

    def get_object_or_file(self, creds: CredentialSet, path: str, dst: str) -> bytes | None:
        """The bytes of the object at path if it holds at most
        INLINE_MAX_BYTES; otherwise None, with the object written to the new
        file dst, which must not exist.

        This fallback holds the object in memory; a backend that can do
        better overrides it.
        """
        data = self.get_object(creds, path)
        if _inline(len(data)):
            return data
        with open(dst, "xb") as f:
            f.write(data)
        return None

    def put_object_from(self, creds: CredentialSet, path: str, src: str) -> FileMeta:
        """Store the file src at path.  src must be a file the caller will
        not write again: a backend may keep it by link instead of a copy."""
        with open(src, "rb") as f:
            return self.put_object(creds, path, f.read())


def _link_or_copy(src: str, dst: str):
    """Make dst a hard link to src, or a chunked copy where no link can be
    made; dst must not exist, so nothing is ever written through a link."""
    try:
        os.link(src, dst)
    except OSError:
        with open(src, "rb") as fin, open(dst, "xb") as fout:
            shutil.copyfileobj(fin, fout, COPY_CHUNK_BYTES)


def _meta(path: str, kind: str, size: int, mtime: int, rev: int) -> FileMeta:
    # positional: a shadow builds one per entry, and keywords cost a third more
    return FileMeta(path, path.rsplit("/", 1)[-1], kind, size, mtime, str(rev))


class _Connection(sqlite3.Connection):
    """A connection that waits out another connection's lock in short sleeps.

    SQLite's own busy handler sleeps 1, 2, 5 and then 10 ms between tries,
    so a writer that kept finding the store locked, each time by a
    transaction of a fraction of a millisecond, waited 18 ms.  Only the
    statement that opens a transaction, BEGIN or a read on its own, can
    find the store locked, so only such a statement tries again.
    """

    def execute(self, sql, params=()):
        if self.in_transaction:
            return super().execute(sql, params)
        sleep, deadline = LOCK_POLL_S, time.monotonic() + LOCK_TIMEOUT_S
        while True:
            try:
                return super().execute(sql, params)
            except sqlite3.OperationalError as e:
                # SQLITE_BUSY's message: Python 3.10 exposes no error codes
                if str(e) != "database is locked" or time.monotonic() >= deadline:
                    raise
            time.sleep(sleep)
            sleep = min(2 * sleep, LOCK_POLL_MAX_S)


class LocalDirBackend(StorageBackend):
    """Local store: <root>/.meta/store.db for the namespace, .meta/blobs/ for bytes."""

    def __init__(self, root: str):
        if sqlite3.sqlite_version_info < MIN_SQLITE:
            raise ConfigError(
                f"SQLite {sqlite3.sqlite_version} found; the store needs "
                f"{'.'.join(map(str, MIN_SQLITE))} or newer")
        self.root = os.path.abspath(root)
        self._meta_dir = os.path.join(self.root, META_DIR)
        self._blob_dir = os.path.join(self._meta_dir, "blobs")
        os.makedirs(self._blob_dir, exist_ok=True)
        self._lock = threading.Lock()  # guards _conn, which threads share
        self._conn: sqlite3.Connection | None = None
        self._writer = False  # whether _conn has run its synchronous pragma

    # -- account management (test/ops surface, not part of the storage API) --

    def create_account(self, account_id: str,
                       quota_bytes: int = DEFAULT_QUOTA_BYTES) -> str:
        """Create an account and return its first bearer token."""
        if not _valid_account_id(account_id):
            raise PermissionDenied(f"invalid account id: {account_id!r}")
        token = secrets.token_hex(16)
        try:
            with self._transaction() as db:
                db.execute("INSERT INTO accounts(id, quota) VALUES (?, ?)",
                           (account_id, quota_bytes))
                db.execute("INSERT INTO tokens VALUES (?, ?)",
                           (token_digest(token), account_id))
        except sqlite3.IntegrityError:
            raise AlreadyExists(f"account {account_id} exists") from None
        return token

    def revoke_token(self, token: str):
        digest = token_digest(token)
        with self._transaction() as db:
            gone = db.execute("DELETE FROM tokens WHERE digest = ?", (digest,))
            if gone.rowcount == 0:
                raise NotFound("unknown token")

    # -- storage API --

    def authenticate(self, token: str) -> CredentialSet:
        digest = token_digest(token)
        with self._lock:
            account = self._account_of(self._db(), digest)
        if account is None:
            raise AuthError("unknown or revoked token")
        return CredentialSet(account, token)

    def basic_op(self, creds: CredentialSet, action: str, args: dict):
        if action == "create_file":
            return self._put(creds, normalize_path(args["path"]),
                             args.get("data", b""), must_create=True)
        if action == "rename":
            src, dst = normalize_path(args["src"]), normalize_path(args["dst"])
            with self._transaction() as db:
                return self._rename(db, creds, src, dst)
        if action not in ("create_folder", "delete"):
            raise ValueError(f"unknown basic action: {action!r}")
        account = creds.account_id
        path = normalize_path(args["path"])
        with self._transaction() as db:
            if action == "create_folder":
                existing, parent_kind = self._lookup(db, creds, path, parent_of(path))
                if path == "/" or existing is not None:
                    raise AlreadyExists(path)
                self._ensure_parents(db, account, path, parent_kind)
                return self._set_entry(db, account, path, kind="folder", size=0)
            if self._lookup(db, creds, path)[0] is None:
                raise NotFound(path)
            files = self._drop_subtree(db, account, path)
            db.executemany("DELETE FROM inline_blobs WHERE id = ?",
                           [(blob,) for blob, size in files if _inline(size)])
            db.execute("UPDATE accounts SET used = used - ? WHERE id = ?",
                       (sum(size for _, size in files), account))
        for blob, size in files:
            if not _inline(size):
                self._unlink_blob(blob)
        return None

    def get_object(self, creds: CredentialSet, path: str) -> bytes:
        def read(blob):
            with open(blob, "rb") as f:
                return f.read()
        return self._object(creds, path, read)

    def put_object(self, creds: CredentialSet, path: str, data: bytes) -> FileMeta:
        return self._put(creds, normalize_path(path), data, must_create=False)

    def get_object_or_file(self, creds: CredentialSet, path: str, dst: str) -> bytes | None:
        return self._object(creds, path, lambda blob: _link_or_copy(blob, dst))

    def put_object_from(self, creds: CredentialSet, path: str, src: str) -> FileMeta:
        return self._put(creds, normalize_path(path), None, must_create=False, src=src)

    def list_meta(self, creds: CredentialSet, path: str = "/",
                  recursive: bool = False) -> list[FileMeta]:
        path = normalize_path(path)
        lo, hi = _below(path)
        with self._lock:
            db = self._db()
            if path != "/":  # the root has no entry to look up
                ent = self._lookup(db, creds, path)[0]
                if ent is None:
                    raise NotFound(path)
                if ent[0] == "file":
                    return [_meta(path, *ent[:4])]
            # a row comes only with the credential check passed, so a listing
            # of the root is one statement; an inner join, as a LEFT JOIN
            # costs more per row scanned than a check of its own
            digest = token_digest(creds.token)
            rows = db.execute(
                "SELECT path, kind, size, mtime, rev FROM tokens t JOIN entries"
                " ON entries.account = t.account AND path > ? AND path < ?"
                " AND (? OR instr(substr(path, ?), '/') = 0)"
                " WHERE digest = ? AND t.account = ? ORDER BY path",
                (lo, hi, recursive, len(lo) + 1, digest, creds.account_id)).fetchall()
            # an empty account, or no such token: authenticate's statement,
            # which a backend opened for one command has already prepared
            if not rows and path == "/" and self._account_of(db, digest) != creds.account_id:
                raise AuthError("token does not belong to the named account")
        return [_meta(*row) for row in rows]

    def sync_shadow(self, creds: CredentialSet) -> ShadowFS:
        # one row, so the credential check, the cursor and the listing cost one step
        with self._lock:
            row = self._db().execute(
                "SELECT (SELECT coalesce(max(seq), 0) FROM revs WHERE account = t.account),"
                " (SELECT json_group_object(path, json_array(kind, size, mtime, rev))"
                " FROM entries WHERE account = t.account)"
                " FROM tokens t WHERE digest = ? AND account = ?",
                (token_digest(creds.token), creds.account_id)).fetchone()
        if row is None:
            raise AuthError("token does not belong to the named account")
        entries = {p: _meta(p, *v) for p, v in json.loads(row[1]).items()}
        return ShadowFS(account_id=creds.account_id, entries=entries, cursor=row[0])

    def refresh_shadow(self, creds: CredentialSet, shadow: ShadowFS) -> ShadowFS:
        """Apply to shadow, in place, the paths changed after its cursor."""
        if shadow.account_id != creds.account_id:
            return self.sync_shadow(creds)
        with self._lock:
            row = self._db().execute(
                "SELECT (SELECT coalesce(max(seq), 0) FROM revs WHERE account = t.account),"
                " (SELECT json_group_array(json_array(r.path, e.kind, e.size, e.mtime, e.rev))"
                " FROM revs r LEFT JOIN entries e USING (account, path)"
                " WHERE r.account = t.account AND r.seq > ?)"
                " FROM tokens t WHERE digest = ? AND account = ?",
                (shadow.cursor, token_digest(creds.token), creds.account_id)).fetchone()
        if row is None:
            raise AuthError("token does not belong to the named account")
        entries = shadow.entries
        for path, kind, *rest in json.loads(row[1]):
            if kind is None:  # no entry left: the revs row is a tombstone
                entries.pop(path, None)
            else:
                entries[path] = _meta(path, kind, *rest)
        shadow.cursor = row[0]
        return shadow

    # -- internals --

    def _db(self) -> sqlite3.Connection:
        """The backend's connection, opened on first use; caller holds _lock."""
        if self._conn is None:
            path = os.path.join(self._meta_dir, "store.db")
            if not os.path.exists(path):
                self._create_db(path)
            # timeout=0: _Connection, not SQLite's busy handler, waits for locks
            conn = sqlite3.connect(path, isolation_level=None, check_same_thread=False,
                                   timeout=0, factory=_Connection)
            layout = conn.execute("PRAGMA user_version").fetchone()[0]
            if layout != LAYOUT:
                conn.close()
                raise ConfigError(f"{path} holds store layout {layout}; this version "
                                  f"reads layout {LAYOUT} only, and does not migrate")
            self._conn = conn
            # the connection sits in a reference cycle with its statement
            # cache, so only the cyclic collector would free it: close it
            # when the backend goes, or its descriptors outlive the backend
            weakref.finalize(self, self._conn.close)
        return self._conn

    def _create_db(self, path: str):
        """Build the schema in a private file and link it into place.

        The link is atomic, so backends that open a fresh root at once see
        one schema, built once; the losers drop theirs.
        """
        tmp = f"{path}.{secrets.token_hex(8)}.new"
        conn = sqlite3.connect(tmp, isolation_level=None)
        try:
            # no journal or sync while the file is private; WAL mode is
            # recorded in the file, so later opens set no journal_mode
            conn.executescript("PRAGMA journal_mode=OFF; PRAGMA synchronous=OFF; BEGIN;"
                               + _SCHEMA + f"PRAGMA user_version={LAYOUT}; COMMIT;"
                               " PRAGMA journal_mode=WAL;")
        finally:
            conn.close()
        try:
            os.link(tmp, path)
        except FileExistsError:
            pass
        finally:
            os.remove(tmp)

    @contextmanager
    def _transaction(self):
        """Hold the backend lock and one write transaction on the store."""
        with self._lock:
            db = self._db()
            if not self._writer:
                # WAL commits need no sync of their own; set here, not at
                # connect, so a backend that only reads runs no extra statement
                db.execute("PRAGMA synchronous=NORMAL")
                self._writer = True
            db.execute("BEGIN IMMEDIATE")
            try:
                yield db
                db.execute("COMMIT")
            except BaseException:
                if db.in_transaction:
                    db.execute("ROLLBACK")
                raise

    @staticmethod
    def _account_of(db: sqlite3.Connection, digest: str) -> str | None:
        """The account of the token with this digest, or None."""
        row = db.execute("SELECT account FROM tokens WHERE digest = ?", (digest,)).fetchone()
        return None if row is None else row[0]

    @staticmethod
    def _lookup(db: sqlite3.Connection, creds: CredentialSet, path: str,
                other: str | None = None):
        """(kind, size, mtime, rev, blob) of the entry at path or None, and
        the kind of the entry at other or None, read by the statement that
        raises AuthError unless the token of creds belongs to its account."""
        row = db.execute(
            "SELECT kind, size, mtime, rev, blob,"
            " (SELECT kind FROM entries WHERE account = t.account AND path = ?)"
            " FROM tokens t LEFT JOIN entries ON entries.account = t.account AND path = ?"
            " WHERE digest = ? AND t.account = ?",
            (other, path, token_digest(creds.token), creds.account_id)).fetchone()
        if row is None:
            raise AuthError("token does not belong to the named account")
        return (None if row[0] is None else row[:5]), row[5]

    @staticmethod
    def _entry(db: sqlite3.Connection, account: str, path: str):
        """(kind, size, mtime, rev) of one entry, or None."""
        return db.execute("SELECT kind, size, mtime, rev FROM entries"
                          " WHERE account = ? AND path = ?", (account, path)).fetchone()

    def _object(self, creds: CredentialSet, path: str, use):
        """The bytes of the small file entry at path, or use(blob file) for
        a larger one.

        The credential check, the entry and its row of bytes are one
        statement, so a concurrent put or delete is seen whole or not at
        all.  A blob file is read outside the lock, so a put or delete may
        commit and unlink it first; then the lookup runs again and finds
        the new blob or no entry.  A blob file that is still there, or the
        same id gone twice, is not such a race, and its error stands.
        """
        path = normalize_path(path)
        gone = None
        while True:
            with self._lock:
                row = self._db().execute(
                    "SELECT blob, data FROM tokens t LEFT JOIN entries"
                    " ON entries.account = t.account AND path = ?"
                    " LEFT JOIN inline_blobs ON id = blob WHERE digest = ? AND t.account = ?",
                    (path, token_digest(creds.token), creds.account_id)).fetchone()
            if row is None:
                raise AuthError("token does not belong to the named account")
            if row[0] is None:  # no entry, or a folder
                raise NotFound(path)
            if row[1] is not None:
                return row[1]
            blob = os.path.join(self._blob_dir, row[0])
            try:
                return use(blob)
            except FileNotFoundError:
                if blob == gone or os.path.exists(blob):
                    raise
                gone = blob

    def _unlink_blob(self, blob: str):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(self._blob_dir, blob))

    @staticmethod
    def _set_entry(db: sqlite3.Connection, account: str, path: str,
                   kind: str, size: int, blob: str | None = None) -> FileMeta:
        rev = db.execute("INSERT INTO revs VALUES (?, ?, 1, " + _NEXT_SEQ + ")"
                         " ON CONFLICT (account, path)"
                         " DO UPDATE SET rev = rev + 1, seq = excluded.seq RETURNING rev",
                         (account, path, account)).fetchone()[0]
        mtime = int(time.time())
        db.execute("INSERT OR REPLACE INTO entries VALUES (?, ?, ?, ?, ?, ?, ?)",
                   (account, path, kind, size, mtime, rev, blob))
        return _meta(path, kind, size, mtime, rev)

    @staticmethod
    def _drop_subtree(db: sqlite3.Connection, account: str,
                      path: str) -> list[tuple[str, int]]:
        """Delete the entry at path and everything below it, stamping each
        removed path's revs row first: that row is its tombstone.  Returns
        (blob, size) of the removed files, for the caller to drop or carry."""
        params = (account, path, *_below(path))
        db.execute("UPDATE revs SET seq = " + _NEXT_SEQ + " WHERE account = ?"
                   " AND path IN (SELECT path" + _SUBTREE + ")", (account, account, *params))
        return [(blob, size) for blob, size
                in db.execute("DELETE" + _SUBTREE + " RETURNING blob, size", params)
                if blob is not None]

    def _ensure_parents(self, db: sqlite3.Connection, account: str, path: str,
                        parent_kind: str | None = None):
        """Create the missing folders above path.  parent_kind is the kind
        of the parent's entry where a lookup read it: a folder needs no walk."""
        if parent_kind == "folder":
            return
        parent = parent_of(path)
        missing = []
        while parent != "/":
            ent = self._entry(db, account, parent)
            if ent is not None:
                if ent[0] != "folder":
                    raise NotFound(f"parent is a file: {parent}")
                break
            missing.append(parent)
            parent = parent_of(parent)
        for p in reversed(missing):
            self._set_entry(db, account, p, kind="folder", size=0)

    def _put(self, creds: CredentialSet, path: str, data: bytes | None,
             must_create: bool, src: str | None = None) -> FileMeta:
        """Store data, or the file src, at path: a small one as a row, a
        larger src by link where it can."""
        if path == "/":
            raise PermissionDenied("cannot write the account root")
        # a new blob names no account, so forged credentials write nothing
        blob = secrets.token_hex(16)
        fs = os.path.join(self._blob_dir, blob)
        account = creds.account_id
        try:
            if src is not None:
                with open(src, "rb") as f:
                    if _inline(os.fstat(f.fileno()).st_size):
                        data = f.read()
            if data is None:
                _link_or_copy(src, fs)
                size = os.stat(fs).st_size
            else:
                size = len(data)
                if not _inline(size):
                    with open(fs, "xb") as f:
                        f.write(data)
            with self._transaction() as db:
                existing, parent_kind = self._lookup(db, creds, path, parent_of(path))
                if existing is not None:
                    if must_create:
                        raise AlreadyExists(path)
                    if existing[0] == "folder":
                        raise AlreadyExists(f"folder exists at {path}")
                    if _inline(existing[1]):
                        db.execute("DELETE FROM inline_blobs WHERE id = ?", (existing[4],))
                grow = size - (existing[1] if existing else 0)
                if db.execute("UPDATE accounts SET used = used + ?"
                              " WHERE id = ? AND used + ? <= quota",
                              (grow, account, grow)).rowcount == 0:
                    quota = db.execute("SELECT quota FROM accounts WHERE id = ?",
                                       (account,)).fetchone()[0]
                    raise QuotaError(f"quota {quota} exceeded on {account}")
                self._ensure_parents(db, account, path, parent_kind)
                if data is not None and _inline(size):
                    # bytes() refuses a str, which sqlite would keep as text
                    db.execute("INSERT INTO inline_blobs VALUES (?, ?)", (blob, bytes(data)))
                meta = self._set_entry(db, account, path, kind="file", size=size, blob=blob)
        except BaseException:
            self._unlink_blob(blob)
            raise
        if existing is not None and not _inline(existing[1]):
            self._unlink_blob(existing[4])  # after COMMIT, as no entry names it
        return meta

    def _rename(self, db: sqlite3.Connection, creds: CredentialSet, src: str, dst: str):
        found, dst_kind = self._lookup(db, creds, src, dst)
        if dst == src or dst.startswith(src + "/"):
            raise PermissionDenied(f"cannot move {src} into itself: {dst}")
        if found is None:
            raise NotFound(src)
        if dst_kind is not None:
            raise AlreadyExists(dst)
        account = creds.account_id
        self._ensure_parents(db, account, dst)
        moved = db.execute("SELECT path, kind, size, blob" + _SUBTREE,
                           (account, src, *_below(src))).fetchall()
        self._drop_subtree(db, account, src)
        for old, kind, size, blob in moved:
            self._set_entry(db, account, dst + old[len(src):], kind, size, blob)
        return _meta(dst, *self._entry(db, account, dst))
