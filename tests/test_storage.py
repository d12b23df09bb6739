"""Local directory object store: auth, basic ops, objects, shadow sync."""

import json
import os
import random
import sys
import threading

import pytest

from skyrelay.core import canonical_json
from skyrelay.errors import (
    AlreadyExists,
    AuthError,
    NotFound,
    PermissionDenied,
    QuotaError,
)
from skyrelay.storage import (
    TOKEN_DIR,
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
    backend.create_account("b")
    # an index outside the store root that lists a's token
    os.makedirs(tmp_path / "evil")
    with open(tmp_path / "evil" / "index.json", "w") as f:
        json.dump({"quota_bytes": 1, "tokens": [token_a], "entries": {},
                   "rev_counters": {}}, f)
    for account_id in ("b", "../evil", "..", "a/../../evil", "a\x00"):
        forged = Session(account_id=account_id, token=token_a)
        with pytest.raises(AuthError):
            backend.list_meta(forged, "/")


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
    assert r1 < r2 < r3


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
    assert rt.entries == s1.entries


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
    with open(os.path.join(root, "alice", "index.json"), encoding="utf-8") as f:
        doc = json.load(f)
    assert doc["tokens"] == []
    assert "/seen" in doc["entries"]


def test_create_refuses_account_made_by_another_backend(tmp_path):
    root = str(tmp_path / "store")
    b4 = LocalDirBackend(root)
    b5 = LocalDirBackend(root)
    token = b5.create_account("carol")
    b5.put_object(b5.authenticate(token), "/keep", b"k")
    with pytest.raises(AlreadyExists):
        b4.create_account("carol")
    assert b5.get_object(b5.authenticate(token), "/keep") == b"k"


def test_corrupt_index_of_one_account_leaves_others_working(tmp_path):
    backend = LocalDirBackend(str(tmp_path / "store"))
    s = backend.authenticate(backend.create_account("alice"))
    backend.create_account("bob")
    with open(tmp_path / "store" / "bob" / "index.json", "w") as f:
        f.write("{not json")
    backend.put_object(s, "/a", b"1")
    assert backend.get_object(s, "/a") == b"1"
    backend.basic_op(s, "create_folder", {"path": "/d"})
    assert set(backend.sync_shadow(s).entries) == {"/a", "/d"}


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


def test_unchanged_index_is_not_parsed_again(backend, session, monkeypatch):
    backend.put_object(session, "/a", b"1")

    def no_parse(*args, **kwargs):
        raise AssertionError("index parsed although its stat did not change")

    monkeypatch.setattr("skyrelay.storage.json.load", no_parse)
    assert backend.authenticate(session.token).account_id == "alice"
    assert backend.get_object(session, "/a") == b"1"
    assert set(backend.sync_shadow(session).entries) == {"/a"}


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
    for path in _files_under(root):
        for token in tokens:
            assert token not in path
            if os.path.islink(path):
                assert token not in os.readlink(path)
            elif os.path.isfile(path):
                with open(path, "rb") as f:
                    assert token.encode() not in f.read()
    with open(os.path.join(root, "alice", "index.json"), encoding="utf-8") as f:
        assert json.load(f)["tokens"] == [token_digest(tokens[0])]


def test_fresh_backend_authenticate_parses_one_index(tmp_path, monkeypatch):
    root = str(tmp_path / "store")
    maker = LocalDirBackend(root)
    tokens = [maker.create_account(f"u{i:03d}") for i in range(256)]
    loads = []
    real_load = json.load

    def counting_load(*args, **kwargs):
        loads.append(1)
        return real_load(*args, **kwargs)

    monkeypatch.setattr("skyrelay.storage.json.load", counting_load)
    assert LocalDirBackend(root).authenticate(tokens[137]).account_id == "u137"
    assert len(loads) == 1


def test_token_entry_left_after_revoke_is_refused(tmp_path):
    root = str(tmp_path / "store")
    backend = LocalDirBackend(root)
    token = backend.create_account("alice")
    backend.revoke_token(token)
    os.symlink("alice", os.path.join(root, TOKEN_DIR, token_digest(token)))
    for b in (backend, LocalDirBackend(root)):
        with pytest.raises(AuthError):
            b.authenticate(token)


def test_token_entry_naming_an_account_without_the_digest_is_refused(tmp_path):
    root = str(tmp_path / "store")
    backend = LocalDirBackend(root)
    token = backend.create_account("alice")
    backend.create_account("bob")
    entry = os.path.join(root, TOKEN_DIR, token_digest(token))
    # an index outside the root that lists the digest
    os.makedirs(tmp_path / "evil")
    with open(tmp_path / "evil" / "index.json", "w") as f:
        json.dump({"quota_bytes": 1, "tokens": [token_digest(token)],
                   "entries": {}, "rev_counters": {}}, f)
    for target in ("bob", "../evil", TOKEN_DIR):
        os.unlink(entry)
        os.symlink(target, entry)
        for b in (backend, LocalDirBackend(root)):
            with pytest.raises(AuthError):
                b.authenticate(token)


def test_account_id_rule(tmp_path):
    root = tmp_path / "store"
    backend = LocalDirBackend(str(root))
    for bad in ("", ".", "..", "../escaped", "a/b", "/abs", "a\x00", TOKEN_DIR):
        with pytest.raises(PermissionDenied):
            backend.create_account(bad)
    assert os.listdir(tmp_path) == ["store"]
    assert os.listdir(root) == []
    token = backend.create_account("alice")
    for forged in (TOKEN_DIR, "../escaped"):
        with pytest.raises(AuthError):
            backend.put_object(Session(account_id=forged, token=token), "/x", b"x")
    assert sorted(os.listdir(root)) == [TOKEN_DIR, "alice"]
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
    index = os.path.join(root, "alice", "index.json")
    before = os.stat(index)
    b2 = LocalDirBackend(root)
    b2.put_object(b2.authenticate(token), "/a", b"2")
    # a coarse clock would give the rewrite the same mtime
    os.utime(index, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert os.stat(index).st_size == before.st_size
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
