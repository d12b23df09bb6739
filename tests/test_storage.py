"""Local directory object store: auth, basic ops, objects, shadow sync."""

import collections
import errno
import gc
import json
import os
import random
import shutil
import signal
import sqlite3
import sys
import threading
import time

import pytest

from skyrelay import storage
from skyrelay.core import canonical_json
from skyrelay.errors import (
    AlreadyExists,
    AuthError,
    ConfigError,
    NotFound,
    PermissionDenied,
    QuotaError,
    SkyrelayError,
)
from skyrelay.storage import (
    META_DIR,
    LocalDirBackend,
    Session,
    ShadowFS,
    token_digest,
)


@pytest.fixture
def backend(tmp_path):
    return LocalDirBackend(str(tmp_path / "store"))


@pytest.fixture
def session(backend):
    token = backend.create_account("alice")
    return backend.authenticate(token)


def test_authenticate_and_revoke(backend):
    token = backend.create_account("bob")
    s = backend.authenticate(token)
    assert s.account_id == "bob"
    backend.revoke_token(token)
    with pytest.raises(AuthError):
        backend.authenticate(token)


def test_unknown_token(backend):
    with pytest.raises(AuthError):
        backend.authenticate("no-such-token")


def test_cross_account_session_forgery(backend, tmp_path):
    token_a = backend.create_account("a")
    token_b = backend.create_account("b")
    backend.put_object(backend.authenticate(token_b), "/secret", b"b's")
    for account_id in ("b", "../evil", "..", "a/../../evil", "a\x00"):
        forged = Session(account_id=account_id, token=token_a)
        with pytest.raises(AuthError):
            backend.list_meta(forged, "/")
        with pytest.raises(AuthError):
            backend.sync_shadow(forged)
        with pytest.raises(AuthError):
            backend.get_object(forged, "/secret")
        with pytest.raises(AuthError):
            backend.put_object(forged, "/x", b"x")
    assert sorted(os.listdir(tmp_path)) == ["store"]
    assert sorted(os.listdir(tmp_path / "store")) == [META_DIR]


def test_create_delete_inverse(backend, session):
    before = backend.list_meta(session, "/", recursive=True)
    backend.basic_op(session, "create_folder", {"path": "/test"})
    backend.basic_op(session, "delete", {"path": "/test"})
    assert backend.list_meta(session, "/", recursive=True) == before


def test_rename_conflict(backend, session):
    backend.put_object(session, "/a", b"1")
    backend.put_object(session, "/b", b"2")
    with pytest.raises(AlreadyExists):
        backend.basic_op(session, "rename", {"src": "/a", "dst": "/b"})


def test_rename_moves_subtree(backend, session):
    backend.put_object(session, "/d/x", b"x")
    backend.put_object(session, "/d/sub/y", b"y")
    backend.basic_op(session, "rename", {"src": "/d", "dst": "/e"})
    assert backend.get_object(session, "/e/x") == b"x"
    assert backend.get_object(session, "/e/sub/y") == b"y"
    with pytest.raises(NotFound):
        backend.get_object(session, "/d/x")


def test_rename_into_own_subtree_is_refused(backend, session):
    # a folder with no data files, and one that holds a file
    backend.basic_op(session, "create_folder", {"path": "/d1/e"})
    backend.put_object(session, "/d2/e/f.txt", b"f")
    before = backend.sync_shadow(session).entries
    for src, dst in [("/d1", "/d1/e/g"), ("/d2", "/d2/e/g"), ("/d2", "/d2"),
                     ("/d2/e", "/d2/e/f.txt/x")]:
        with pytest.raises(PermissionDenied):
            backend.basic_op(session, "rename", {"src": src, "dst": dst})
    assert backend.sync_shadow(session).entries == before
    assert backend.get_object(session, "/d2/e/f.txt") == b"f"
    # a sibling that only shares the prefix is not below src
    backend.basic_op(session, "rename", {"src": "/d1", "dst": "/d1x"})
    assert [m.path for m in backend.list_meta(session, "/d1x")] == ["/d1x/e"]


def test_listing_grows_with_create(backend, session):
    n = 200
    for i in range(n):
        backend.basic_op(session, "create_file",
                         {"path": f"/folder/f{i:04d}.txt", "data": b"22 bytes of text here."})
    assert len(backend.list_meta(session, "/folder")) == n
    backend.basic_op(session, "create_file", {"path": "/folder/one-more.txt"})
    assert len(backend.list_meta(session, "/folder")) == n + 1


def test_put_get_round_trip(backend, session):
    data = random.Random(1).randbytes(2 * 1024 * 1024)
    meta = backend.put_object(session, "/blob.bin", data)
    assert meta.size_bytes == len(data)
    assert backend.get_object(session, "/blob.bin") == data


def test_get_missing(backend, session):
    with pytest.raises(NotFound):
        backend.get_object(session, "/missing")


def test_revisions_monotone(backend, session):
    r1 = int(backend.put_object(session, "/f", b"v1").revision)
    r2 = int(backend.put_object(session, "/f", b"v2").revision)
    backend.basic_op(session, "delete", {"path": "/f"})
    r3 = int(backend.put_object(session, "/f", b"v3").revision)
    assert (r1, r2, r3) == (1, 2, 3)


def test_quota(backend):
    token = backend.create_account("tiny", quota_bytes=1024)
    s = backend.authenticate(token)
    backend.put_object(s, "/a", b"x" * 1000)
    with pytest.raises(QuotaError):
        backend.put_object(s, "/b", b"x" * 100)
    # overwrite within budget is fine
    backend.put_object(s, "/a", b"y" * 1024)


def test_path_traversal_defense(backend, session):
    rng = random.Random(9)
    fuzz = [
        "/../other/data",
        "/a/../../b",
        "/..",
        "/a/./../..",
        "relative/path",
        "/nul\x00byte",
    ]
    for _ in range(200):
        parts = [rng.choice(["..", "a", ".", "..", "x"]) for _ in range(rng.randint(1, 6))]
        fuzz.append("/" + "/".join(parts))
    for path in fuzz:
        has_escape = (not path.startswith("/")) or "\x00" in path or ".." in path.split("/")
        if not has_escape:
            continue
        with pytest.raises(PermissionDenied):
            backend.put_object(session, path, b"z")


def test_shadow_fresh_empty(backend, session):
    shadow = backend.sync_shadow(session)
    assert shadow.entries == {}


def test_shadow_metadata_only(backend, session):
    payload = os.urandom(1024 * 1024)
    for name in ("x", "y", "z"):
        backend.put_object(session, f"/{name}.bin", payload)
    shadow = backend.sync_shadow(session)
    assert len(shadow.entries) == 3
    blob = canonical_json(shadow.to_wire())
    assert len(blob) < 4096
    assert len(blob) < len(shadow.entries) * 512
    assert payload[:64] not in blob


def test_shadow_idempotent(backend, session):
    backend.put_object(session, "/a", b"1")
    backend.put_object(session, "/d/b", b"2")
    s1 = backend.sync_shadow(session)
    s2 = backend.sync_shadow(session)
    assert s1.entries == s2.entries
    rt = ShadowFS.from_wire(json.loads(canonical_json(s1.to_wire())))
    assert rt == s1 and rt.cursor > 0


def _fuzz_op(rng, backend, session, live):
    """One random mutation; live maps path -> kind and follows it."""
    folders = ["/"] + [p for p, k in live.items() if k == "folder"]
    files = [p for p, k in live.items() if k == "file"]
    parent = rng.choice(folders).rstrip("/")
    fresh = f"{parent}/{rng.choice('abcdefgh')}{rng.randrange(4)}"
    roll = rng.random()
    if roll < 0.25:
        backend.basic_op(session, "create_file", {"path": fresh, "data": b"x" * rng.randrange(9)})
        live[fresh] = "file"
    elif roll < 0.5:
        backend.basic_op(session, "create_folder", {"path": fresh})
        live[fresh] = "folder"
    elif roll < 0.65 and files:
        backend.put_object(session, rng.choice(files), rng.randbytes(rng.randrange(9)))
    elif roll < 0.8 and len(live) > 1:
        path = rng.choice(sorted(live))
        backend.basic_op(session, "delete", {"path": path})
        for p in [p for p in live if p == path or p.startswith(path + "/")]:
            del live[p]
    elif len(live) > 1:
        src = rng.choice(sorted(live))
        backend.basic_op(session, "rename", {"src": src, "dst": fresh})
        for p in [p for p in live if p == src or p.startswith(src + "/")]:
            live[fresh + p[len(src):]] = live.pop(p)


def test_refreshed_shadow_matches_a_full_sync(tmp_path):
    root = str(tmp_path / "store")
    b1, b2 = LocalDirBackend(root), LocalDirBackend(root)
    token = b1.create_account("alice")
    s1, s2 = b1.authenticate(token), b2.authenticate(token)
    b1.put_object(b1.authenticate(b1.create_account("bob")), "/bob-only", b"b")
    rng = random.Random(23)
    shadow = b1.sync_shadow(s1)
    live, refreshes, mismatches = {}, 0, 0
    for _ in range(3000):
        backend, session = rng.choice([(b1, s1), (b2, s2)])
        try:
            _fuzz_op(rng, backend, session, live)
        except SkyrelayError:
            pass  # a clash the draw could not avoid; the store is unchanged
        if rng.random() < 0.1:
            shadow = b1.refresh_shadow(s1, shadow)
            fresh = b2.sync_shadow(s2)
            refreshes += 1
            # FileMeta equality covers every field, revision and modified_at too
            mismatches += (shadow.cursor, shadow.entries) != (fresh.cursor, fresh.entries)
            assert set(fresh.entries) == set(live)
    assert refreshes > 200 and mismatches == 0


def test_refresh_misses_no_change_made_while_it_runs(tmp_path):
    root = str(tmp_path / "store")
    token = LocalDirBackend(root).create_account("alice")
    reader = LocalDirBackend(root)
    session = reader.authenticate(token)
    shadow = reader.sync_shadow(session)
    errors = []

    def write(n):
        try:
            b = LocalDirBackend(root)
            s = b.authenticate(token)
            for i in range(60):
                b.put_object(s, f"/w{n}/d{i % 3}/f{i}", b"x")
                if i % 4 == 3:
                    b.basic_op(s, "delete", {"path": f"/w{n}/d{i % 3}"})
                if i % 10 == 9:
                    b.basic_op(s, "rename", {"src": f"/w{n}", "dst": f"/v{n}.{i}"})
                    b.basic_op(s, "rename", {"src": f"/v{n}.{i}", "dst": f"/w{n}"})
        except Exception as e:  # surfaced by the assert below
            errors.append(e)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        writers = [threading.Thread(target=write, args=(n,)) for n in range(4)]
        for t in writers:
            t.start()
        deadline = time.monotonic() + 60
        while any(t.is_alive() for t in writers) and time.monotonic() < deadline:
            shadow = reader.refresh_shadow(session, shadow)
        for t in writers:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in writers) and errors == []
    shadow = reader.refresh_shadow(session, shadow)
    fresh = LocalDirBackend(root).sync_shadow(session)
    assert (shadow.entries, shadow.cursor) == (fresh.entries, fresh.cursor)
    assert len(fresh.entries) > 4


def test_refresh_reads_only_the_changed_rows(backend, session, monkeypatch):
    for i in range(200):
        backend.put_object(session, f"/d/f{i:03d}", b"x")
    shadow = backend.sync_shadow(session)
    backend.put_object(session, "/d/f007", b"yy")
    backend.basic_op(session, "delete", {"path": "/d/f008"})
    built, real = [], storage._meta
    monkeypatch.setattr(storage, "_meta", lambda path, *rest: built.append(path) or
                        real(path, *rest))
    shadow = backend.refresh_shadow(session, shadow)
    assert built == ["/d/f007"]
    assert "/d/f008" not in shadow.entries and shadow.entries["/d/f007"].size_bytes == 2
    assert len(shadow.entries) == 200  # /d and 199 files


def test_refresh_refuses_a_revoked_or_forged_session(backend):
    token_a = backend.create_account("a")
    token_b = backend.create_account("b")
    sa, sb = backend.authenticate(token_a), backend.authenticate(token_b)
    backend.put_object(sa, "/a1", b"1")
    backend.put_object(sb, "/b1", b"1")
    shadow_a, shadow_b = backend.sync_shadow(sa), backend.sync_shadow(sb)
    backend.put_object(sa, "/a2", b"2")
    backend.put_object(sb, "/b2", b"2")
    forged = Session(account_id="b", token=token_a)
    want = shadow_b.to_wire()
    with pytest.raises(AuthError):
        backend.refresh_shadow(forged, shadow_b)
    assert shadow_b.to_wire() == want
    want = shadow_a.to_wire()
    backend.revoke_token(token_a)
    with pytest.raises(AuthError):
        backend.refresh_shadow(sa, shadow_a)
    assert shadow_a.to_wire() == want


def test_refresh_of_another_accounts_shadow_is_a_full_sync(backend):
    sa = backend.authenticate(backend.create_account("a"))
    sb = backend.authenticate(backend.create_account("b"))
    backend.put_object(sa, "/a1", b"1")
    backend.put_object(sb, "/b1", b"1")
    shadow = backend.refresh_shadow(sb, backend.sync_shadow(sa))
    assert shadow.account_id == "b" and set(shadow.entries) == {"/b1"}


def test_second_process_sees_writes(tmp_path):
    root = str(tmp_path / "store")
    b1 = LocalDirBackend(root)
    token = b1.create_account("alice")
    s1 = b1.authenticate(token)
    b1.put_object(s1, "/seen", b"hello")
    # a separately opened backend on the same root (stand-in for another process)
    b2 = LocalDirBackend(root)
    s2 = b2.authenticate(token)
    assert b2.get_object(s2, "/seen") == b"hello"
    b2.put_object(s2, "/back", b"world")
    assert b1.get_object(s1, "/back") == b"world"


def test_revoke_keeps_writes_from_another_backend(tmp_path):
    root = str(tmp_path / "store")
    b1 = LocalDirBackend(root)
    token = b1.create_account("alice")
    b2 = LocalDirBackend(root)
    b2.put_object(b2.authenticate(token), "/seen", b"hello")
    b1.revoke_token(token)
    db = _open_db(root)
    assert db.execute("SELECT * FROM tokens").fetchall() == []
    assert db.execute("SELECT path FROM entries WHERE account = 'alice'").fetchall() \
        == [("/seen",)]


def test_create_refuses_account_made_by_another_backend(tmp_path):
    root = str(tmp_path / "store")
    b4 = LocalDirBackend(root)
    b5 = LocalDirBackend(root)
    token = b5.create_account("carol")
    b5.put_object(b5.authenticate(token), "/keep", b"k")
    with pytest.raises(AlreadyExists):
        b4.create_account("carol")
    assert b5.get_object(b5.authenticate(token), "/keep") == b"k"


def test_token_hint_does_not_outlive_revocation(tmp_path):
    root = str(tmp_path / "store")
    b1 = LocalDirBackend(root)
    token = b1.create_account("alice")
    s1 = b1.authenticate(token)
    LocalDirBackend(root).revoke_token(token)
    with pytest.raises(AuthError):
        b1.authenticate(token)
    with pytest.raises(AuthError):
        b1.list_meta(s1, "/")


def _open_db(root):
    return sqlite3.connect(os.path.join(root, META_DIR, "store.db"))


def _files_under(root):
    for dirpath, dirnames, filenames in os.walk(root):
        for name in dirnames + filenames:
            yield os.path.join(dirpath, name)


def test_no_plaintext_token_at_rest(tmp_path):
    root = str(tmp_path / "store")
    backend = LocalDirBackend(root)
    tokens = [backend.create_account(name) for name in ("alice", "bob")]
    backend.put_object(backend.authenticate(tokens[0]), "/a", b"1")
    backend.revoke_token(tokens[1])
    names = {os.path.basename(p) for p in _files_under(root)}
    assert {"store.db", "store.db-wal", "store.db-shm"} <= names
    for path in _files_under(root):
        for token in tokens:
            assert token not in path
            if os.path.islink(path):
                assert token not in os.readlink(path)
            elif os.path.isfile(path):
                with open(path, "rb") as f:
                    assert token.encode() not in f.read()
    assert _open_db(root).execute("SELECT digest, account FROM tokens").fetchall() \
        == [(token_digest(tokens[0]), "alice")]


def test_fresh_backend_ls_runs_two_statements(tmp_path):
    root = str(tmp_path / "store")
    maker = LocalDirBackend(root)
    tokens = [maker.create_account(f"u{i:03d}") for i in range(256)]
    maker.put_object(maker.authenticate(tokens[137]), "/a", b"1")
    fresh = LocalDirBackend(root)
    with fresh._lock:
        db = fresh._db()  # connect and set the pragma
    statements = []
    db.set_trace_callback(statements.append)
    s = fresh.authenticate(tokens[137])
    assert s.account_id == "u137"
    assert set(fresh.sync_shadow(s).entries) == {"/a"}
    assert len(statements) == 2
    # a backend that writes commits without a sync of its own
    assert db.execute("PRAGMA synchronous").fetchone()[0] == 2  # FULL, the default
    fresh.put_object(s, "/b", b"2")
    assert db.execute("PRAGMA synchronous").fetchone()[0] == 1  # NORMAL


def test_account_id_rule(tmp_path):
    root = tmp_path / "store"
    backend = LocalDirBackend(str(root))
    for bad in ("", ".", "..", "../escaped", "a/b", "/abs", "a\x00", META_DIR):
        with pytest.raises(PermissionDenied):
            backend.create_account(bad)
    assert os.listdir(tmp_path) == ["store"]
    assert os.listdir(root) == [META_DIR]
    token = backend.create_account("alice")
    for forged in (META_DIR, "../escaped"):
        with pytest.raises(AuthError):
            backend.put_object(Session(account_id=forged, token=token), "/x", b"x")
    assert os.listdir(root) == [META_DIR]
    assert set(os.listdir(root / META_DIR)) <= {"store.db", "store.db-wal", "store.db-shm",
                                                "blobs"}
    assert os.listdir(root / META_DIR / "blobs") == []
    assert os.listdir(tmp_path) == ["store"]


def test_concurrent_backends_lose_no_puts(tmp_path):
    root = str(tmp_path / "store")
    token = LocalDirBackend(root).create_account("alice")
    errors = []

    def writer(name):
        try:
            b = LocalDirBackend(root)
            s = b.authenticate(token)
            for i in range(300):
                b.put_object(s, f"/{name}/f{i:03d}", b"x")
        except Exception as e:  # surfaced by the assert below
            errors.append(e)

    threads = [threading.Thread(target=writer, args=(n,)) for n in ("p", "q")]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    b = LocalDirBackend(root)
    listed = b.list_meta(b.authenticate(token), "/", recursive=True)
    assert sum(m.kind == "file" for m in listed) == 600


def test_same_size_rewrite_within_one_mtime_is_reloaded(tmp_path):
    root = str(tmp_path / "store")
    b1 = LocalDirBackend(root)
    token = b1.create_account("alice")
    s1 = b1.authenticate(token)
    b1.put_object(s1, "/a", b"1")
    files = [os.path.join(root, META_DIR, "store.db" + end) for end in ("", "-wal")]
    before = [os.stat(f) for f in files]
    b2 = LocalDirBackend(root)
    b2.put_object(b2.authenticate(token), "/a", b"2")
    # a coarse clock would give the rewrite the same mtime
    for f, st in zip(files, before):
        os.utime(f, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert b1.list_meta(s1, "/a")[0].revision == "2"


def test_quota_follows_overwrite_delete_rename_and_reload(tmp_path):
    root = str(tmp_path / "store")
    b1 = LocalDirBackend(root)
    token = b1.create_account("tiny", quota_bytes=1000)
    s = b1.authenticate(token)
    b1.put_object(s, "/a", b"x" * 600)
    b1.put_object(s, "/a", b"x" * 900)  # an overwrite frees the old size
    with pytest.raises(QuotaError):
        b1.put_object(s, "/b", b"x" * 101)
    b1.basic_op(s, "delete", {"path": "/a"})
    b1.put_object(s, "/d/x", b"x" * 500)
    b1.put_object(s, "/d/sub/y", b"x" * 400)
    b1.basic_op(s, "rename", {"src": "/d", "dst": "/e"})
    with pytest.raises(QuotaError):
        b1.put_object(s, "/c", b"x" * 101)
    b1.put_object(s, "/c", b"x" * 100)
    b1.basic_op(s, "delete", {"path": "/e"})  # a subtree frees every file
    b1.put_object(s, "/f", b"x" * 900)
    # changes made by another backend count once b1 reloads
    b2 = LocalDirBackend(root)
    s2 = b2.authenticate(token)
    b2.basic_op(s2, "delete", {"path": "/f"})
    b1.put_object(s, "/g", b"x" * 900)
    b2.put_object(s2, "/c", b"x" * 10)
    with pytest.raises(QuotaError):
        b1.put_object(s, "/h", b"x" * 91)
    b1.put_object(s, "/h", b"x" * 90)


def test_backends_opening_a_fresh_root_at_once_build_one_schema(tmp_path):
    names = ("p", "q", "r", "s")
    for attempt in range(8):
        root = str(tmp_path / f"store{attempt}")
        barrier = threading.Barrier(len(names))
        tokens, errors = {}, []

        def opener(name):
            try:
                b = LocalDirBackend(root)
                barrier.wait(timeout=10)
                tokens[name] = b.create_account(name)
            except Exception as e:  # surfaced by the assert below
                errors.append(e)

        threads = [threading.Thread(target=opener, args=(n,)) for n in names]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        b = LocalDirBackend(root)
        assert {n: b.authenticate(t).account_id for n, t in tokens.items()} \
            == {n: n for n in names}
        assert not [n for n in os.listdir(os.path.join(root, META_DIR)) if n.endswith(".new")]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_dropped_backend_closes_its_database(tmp_path):
    keep = LocalDirBackend(str(tmp_path / "store"))
    token = keep.create_account("alice")
    gc.disable()  # the close must not wait for the cyclic collector
    try:
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(20):
            b = LocalDirBackend(str(tmp_path / "store"))
            b.sync_shadow(b.authenticate(token))
            del b
        assert len(os.listdir("/proc/self/fd")) <= before + 2
    finally:
        gc.enable()


# the schema of the SQLite layout before change cursors, which set no user_version
_LAYOUT_0 = """
CREATE TABLE accounts(id TEXT PRIMARY KEY, quota INTEGER NOT NULL);
CREATE TABLE tokens(digest TEXT PRIMARY KEY, account TEXT NOT NULL);
CREATE TABLE entries(account TEXT, path TEXT, kind TEXT NOT NULL,
                     size INTEGER NOT NULL, mtime INTEGER NOT NULL,
                     rev INTEGER NOT NULL, PRIMARY KEY (account, path))
    WITHOUT ROWID;
CREATE TABLE revs(account TEXT, path TEXT, rev INTEGER NOT NULL,
                  PRIMARY KEY (account, path)) WITHOUT ROWID;
"""


# layout 1: change cursors, with each file's bytes kept at <account>/data/<path>
_LAYOUT_1 = """
CREATE TABLE accounts(id TEXT PRIMARY KEY, quota INTEGER NOT NULL);
CREATE TABLE tokens(digest TEXT PRIMARY KEY, account TEXT NOT NULL);
CREATE TABLE entries(account TEXT, path TEXT, kind TEXT NOT NULL,
                     size INTEGER NOT NULL, mtime INTEGER NOT NULL,
                     rev INTEGER NOT NULL, PRIMARY KEY (account, path))
    WITHOUT ROWID;
CREATE TABLE revs(account TEXT, path TEXT, rev INTEGER NOT NULL,
                  seq INTEGER NOT NULL, PRIMARY KEY (account, path)) WITHOUT ROWID;
CREATE INDEX revs_seq ON revs(account, seq);
PRAGMA user_version=1;
"""


def test_store_of_another_layout_is_refused(tmp_path):
    token = "t" * 32
    for n, script in enumerate([_LAYOUT_0, _LAYOUT_1,
                                storage._SCHEMA + "PRAGMA user_version=3;"]):
        root = tmp_path / f"store{n}"
        (root / META_DIR).mkdir(parents=True)
        db = sqlite3.connect(root / META_DIR / "store.db")
        db.executescript(script + "INSERT INTO accounts VALUES ('a', 100);"
                         f"INSERT INTO tokens VALUES ('{token_digest(token)}', 'a');")
        db.close()
        backend = LocalDirBackend(str(root))
        with pytest.raises(ConfigError, match="layout"):
            backend.authenticate(token)
        assert backend._conn is None


def test_old_sqlite_is_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(sqlite3, "sqlite_version_info", (3, 37, 2))
    monkeypatch.setattr(sqlite3, "sqlite_version", "3.37.2")
    with pytest.raises(ConfigError, match=r"3\.37\.2.*3\.38\.0"):
        LocalDirBackend(str(tmp_path / "store"))
    assert not (tmp_path / "store").exists()


# -- linked get and put --

def _meta_leftovers(root):
    """Files in .meta/ other than the database and the blobs, and blobs that
    no entry names: what a failed put left behind."""
    db = _open_db(root)
    try:
        named = {blob for (blob,) in db.execute("SELECT blob FROM entries")}
    finally:
        db.close()
    meta = os.path.join(root, META_DIR)
    return ([f for f in os.listdir(meta) if not f.startswith("store.db") and f != "blobs"]
            + [b for b in os.listdir(os.path.join(meta, "blobs")) if b not in named])


def test_linked_get_is_a_snapshot(backend, session, tmp_path):
    backend.put_object(session, "/a.bin", b"first")
    dst = tmp_path / "dst"
    assert backend.get_object_to(session, "/a.bin", str(dst)) == 5
    assert os.stat(dst).st_nlink == 2  # a link, not a copy
    # a data file is never written in place, so the link keeps its bytes
    backend.put_object(session, "/a.bin", b"second!")
    assert dst.read_bytes() == b"first"
    backend.basic_op(session, "delete", {"path": "/a.bin"})
    assert dst.read_bytes() == b"first"
    # dst must be new, so a get never writes through an earlier get's link
    backend.put_object(session, "/c.bin", b"c")
    backend.put_object(session, "/d.bin", b"d")
    backend.get_object_to(session, "/c.bin", str(tmp_path / "c"))
    with pytest.raises(FileExistsError):
        backend.get_object_to(session, "/d.bin", str(tmp_path / "c"))
    assert backend.get_object(session, "/c.bin") == b"c"


def test_put_from_outlives_its_source(backend, session, tmp_path):
    src = tmp_path / "src"
    src.write_bytes(b"payload" * 1000)
    meta = backend.put_object_from(session, "/dir/p.bin", str(src))
    assert meta.size_bytes == 7000 and meta.kind == "file"
    os.remove(src)
    assert backend.get_object(session, "/dir/p.bin") == b"payload" * 1000
    assert [m.path for m in backend.list_meta(session, "/", recursive=True)] == \
        ["/dir", "/dir/p.bin"]
    assert _meta_leftovers(backend.root) == []


def test_linked_methods_copy_when_no_link_can_be_made(backend, session, tmp_path,
                                                      monkeypatch):
    backend.put_object(session, "/a.bin", b"stored")
    src = tmp_path / "src"
    src.write_bytes(b"source")

    def no_link(a, b):
        raise OSError(errno.EXDEV, "cross-device link")
    monkeypatch.setattr(os, "link", no_link)
    dst = tmp_path / "dst"
    assert backend.get_object_to(session, "/a.bin", str(dst)) == 6
    assert dst.read_bytes() == b"stored" and os.stat(dst).st_nlink == 1
    backend.put_object_from(session, "/b.bin", str(src))
    assert os.stat(src).st_nlink == 1
    src.write_bytes(b"rewritten")  # a copy does not follow its source
    assert backend.get_object(session, "/b.bin") == b"source"
    assert _meta_leftovers(backend.root) == []


def test_put_from_over_quota_stages_nothing(backend, tmp_path):
    s = backend.authenticate(backend.create_account("tiny", quota_bytes=1024))
    src = tmp_path / "src"
    src.write_bytes(b"x" * 1025)
    with pytest.raises(QuotaError):
        backend.put_object_from(s, "/big", str(src))
    assert _meta_leftovers(backend.root) == []
    assert backend.list_meta(s, "/") == []
    assert src.read_bytes() == b"x" * 1025


def test_forged_session_links_nothing(backend, tmp_path):
    token_a = backend.create_account("a")
    backend.put_object(backend.authenticate(backend.create_account("b")), "/secret", b"b's")
    before = sorted(_files_under(backend.root))
    src = tmp_path / "src"
    src.write_bytes(b"forged")
    dst = tmp_path / "dst"
    for account_id in ("b", "../evil", "a/../../evil"):
        forged = Session(account_id=account_id, token=token_a)
        with pytest.raises(AuthError):
            backend.get_object_to(forged, "/secret", str(dst))
        with pytest.raises(AuthError):
            backend.put_object_from(forged, "/x", str(src))
    assert not dst.exists()
    assert os.stat(src).st_nlink == 1
    assert sorted(_files_under(backend.root)) == before


def test_failed_puts_leave_no_blob(backend, tmp_path):
    token = backend.create_account("tiny", quota_bytes=100)
    s = backend.authenticate(token)
    backend.put_object(s, "/a", b"a")
    backend.basic_op(s, "create_folder", {"path": "/d"})
    forged = Session(account_id="tiny", token="not-" + token)
    src, big = tmp_path / "src", tmp_path / "big"
    src.write_bytes(b"x" * 10)
    big.write_bytes(b"x" * 101)
    cases = [
        (QuotaError, lambda: backend.put_object(s, "/big", b"x" * 101)),
        (QuotaError, lambda: backend.put_object_from(s, "/big", str(big))),
        (AuthError, lambda: backend.put_object(forged, "/x", b"x")),
        (AuthError, lambda: backend.put_object_from(forged, "/x", str(src))),
        (AlreadyExists, lambda: backend.basic_op(s, "create_file", {"path": "/a", "data": b"b"})),
        (AlreadyExists, lambda: backend.put_object(s, "/d", b"x")),
        (AlreadyExists, lambda: backend.put_object_from(s, "/d", str(src))),
        (NotFound, lambda: backend.put_object(s, "/a/x", b"x")),  # parent is a file
    ]
    for error, put in cases:
        with pytest.raises(error):
            put()
        assert _meta_leftovers(backend.root) == []
    assert backend.get_object(s, "/a") == b"a"
    assert [m.path for m in backend.list_meta(s, "/")] == ["/a", "/d"]
    assert os.stat(src).st_nlink == os.stat(big).st_nlink == 1


# -- crash consistency and racing readers --

_BEFORE = {"/a.txt": b"nine byte", "/d/x": b"x1", "/d/sub/y": b"y22"}
_NEW = b"sixteen new byte"


def _put_from(b, s):
    """Put _NEW at a new path by link, so the blob's creation is a crash point."""
    src = b.root + ".src"
    with open(src, "wb") as f:
        f.write(_NEW)
    b.put_object_from(s, "/n/new.txt", src)


_MUTATIONS = {
    "put over a file": (lambda b, s: b.put_object(s, "/a.txt", _NEW),
                        {**_BEFORE, "/a.txt": _NEW}),
    "put to a new path": (_put_from, {**_BEFORE, "/n/new.txt": _NEW}),
    "delete a file": (lambda b, s: b.basic_op(s, "delete", {"path": "/a.txt"}),
                      {p: v for p, v in _BEFORE.items() if p != "/a.txt"}),
    "delete a folder": (lambda b, s: b.basic_op(s, "delete", {"path": "/d"}),
                        {"/a.txt": _BEFORE["/a.txt"]}),
    "rename a folder": (lambda b, s: b.basic_op(s, "rename", {"src": "/d", "dst": "/e"}),
                        {"/a.txt": _BEFORE["/a.txt"], "/e/x": b"x1", "/e/sub/y": b"y22"}),
}


def _crash_after(k, root, token, mutate):
    """In a child process, run mutate on a fresh backend and _exit(3) right
    after its k-th file-system change or COMMIT; returns the exit code, 0 if
    the mutation finished first."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            count = [0]

            def point():
                count[0] += 1
                if count[0] == k:
                    os._exit(3)

            def after(fn):
                def wrapped(*args, **kwargs):
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        point()
                return wrapped

            for mod, name in [(os, "replace"), (os, "remove"), (os, "link"), (os, "rename"),
                              (os, "makedirs"), (shutil, "rmtree")]:
                setattr(mod, name, after(getattr(mod, name)))

            class Counting(sqlite3.Connection):
                def execute(self, sql, *args):
                    cursor = super().execute(sql, *args)
                    if sql == "COMMIT":
                        point()
                    return cursor

            connect = sqlite3.connect
            sqlite3.connect = lambda *a, **kw: connect(*a, factory=Counting, **kw)
            b = LocalDirBackend(root)
            mutate(b, b.authenticate(token))
            code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise AssertionError("the mutating child hung")
        time.sleep(0.005)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_crash_at_any_point_leaves_every_entry_whole(tmp_path):
    template = str(tmp_path / "template")
    maker = LocalDirBackend(template)
    token = maker.create_account("alice")
    s = maker.authenticate(token)
    for path, data in _BEFORE.items():
        maker.put_object(s, path, data)
    maker._conn.close()  # checkpoint the log, so a copy of the files is the store
    failures, crashes = [], 0
    for i, (name, (mutate, after)) in enumerate(_MUTATIONS.items()):
        for k in range(1, 50):
            root = str(tmp_path / f"{i}-{k}")
            shutil.copytree(template, root)
            code = _crash_after(k, root, token, mutate)
            assert code in (0, 3), f"{name}: the child failed with exit code {code}"
            b = LocalDirBackend(root)
            s = b.authenticate(token)
            where = f"{name}, " + ("completed" if code == 0 else f"crashed at point {k}")
            files = {m.path: m.size_bytes for m in b.list_meta(s, "/", recursive=True)
                     if m.kind == "file"}
            if set(files) not in (set(_BEFORE), set(after)):
                failures.append(f"{where}: entries {sorted(files)}")
            for path, size in sorted(files.items()):
                try:
                    data = b.get_object(s, path)
                except Exception as e:  # noqa: BLE001 - reported below
                    failures.append(f"{where}: {path} ({size} B) reads {e!r}")
                    continue
                if len(data) != size or data not in (_BEFORE.get(path), after.get(path)):
                    failures.append(f"{where}: {path}'s entry says {size} B, "
                                    f"its bytes are {data!r}")
            if code == 0:
                if files != {p: len(v) for p, v in after.items()}:
                    failures.append(f"{where}: entries {sorted(files)}")
                if _meta_leftovers(root):
                    failures.append(f"{where}: unnamed blobs {_meta_leftovers(root)}")
                break
            crashes += 1
        else:
            failures.append(f"{name}: never completed")
    assert failures == [], "\n".join(failures)
    assert crashes >= len(_MUTATIONS)  # every mutation reached a crash point


def test_reader_racing_put_and_delete_sees_bytes_or_not_found(tmp_path):
    root = str(tmp_path / "store")
    token = LocalDirBackend(root).create_account("alice")
    payloads = (b"a" * 100, b"b" * 5000)
    stop = threading.Event()
    errors, seen = [], collections.Counter()

    def write():
        try:
            b = LocalDirBackend(root)
            s = b.authenticate(token)
            while not stop.is_set():
                for data in payloads:
                    b.put_object(s, "/a", data)
                b.basic_op(s, "delete", {"path": "/a"})
        except Exception as e:  # surfaced by the assert below
            errors.append(e)

    reader = LocalDirBackend(root)
    s = reader.authenticate(token)
    writer = threading.Thread(target=write)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    writer.start()
    try:
        deadline = time.monotonic() + 2.0
        n = 0
        while time.monotonic() < deadline and not errors:
            n += 1
            dst = tmp_path / f"get{n}"
            try:
                if n % 2:  # the worker's linked get, beside the bytes one
                    reader.get_object_to(s, "/a", str(dst))
                    data = dst.read_bytes()
                else:
                    data = reader.get_object(s, "/a")
            except NotFound:
                seen["not found"] += 1
            except Exception as e:  # surfaced by the assert below
                errors.append(e)
            else:
                seen["bytes" if data in payloads else "torn"] += 1
            if dst.exists():
                dst.unlink()
    finally:
        stop.set()
        writer.join(timeout=30)
        sys.setswitchinterval(switch)
    assert not writer.is_alive() and errors == []
    assert seen["torn"] == 0 and seen["bytes"] > 0 and seen["not found"] > 0
