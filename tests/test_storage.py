"""Local directory object store: auth, basic ops, objects, shadow sync."""

import json
import os
import random

import pytest

from skyrelay.core import canonical_json
from skyrelay.errors import (
    AlreadyExists,
    AuthError,
    NotFound,
    PermissionDenied,
    QuotaError,
)
from skyrelay.storage import LocalDirBackend, Session, ShadowFS


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
