"""Domain types and the operation->FOI compiler."""

import random

import pytest

from skyrelay.core import (
    FOI,
    FileMeta,
    OperationRequest,
    classify_operation,
    compile_op_to_fois,
    sequence_from_wire,
    sequence_to_wire,
    uncollide,
    validate_foi_sequence,
)
from skyrelay.errors import NotCloudAssisted, UnknownOperation


def test_classification():
    assert classify_operation(OperationRequest("rename", {"src": "/a", "dst": "/b"})) == "basic"
    assert classify_operation(OperationRequest("create", {"path": "/x"})) == "basic"
    assert classify_operation(OperationRequest("delete", {"path": "/x"})) == "basic"
    for action in ("download", "compress", "encrypt", "convert",
                   "transfer_send", "transfer_recv"):
        assert classify_operation(OperationRequest(action)) == "cloud_assisted"


def test_unknown_action():
    with pytest.raises(UnknownOperation):
        classify_operation(OperationRequest("frobnicate"))


def test_compile_download_mapping():
    seq = compile_op_to_fois(OperationRequest(
        "download", {"url": "https://example.org/f.bin", "dest": "/d/f.bin"}))
    assert seq == [
        FOI("download", "https://example.org/f.bin"),
        FOI("put", "/d/f.bin"),
    ]


def test_compile_compress_mapping():
    seq = compile_op_to_fois(OperationRequest("compress", {"path": "/pics/a.bin"}))
    assert seq == [
        FOI("get", "/pics/a.bin"),
        FOI("op", "/pics/a.bin", op_kind="compress"),
        FOI("put", "/pics/a.bin.gz"),
    ]


def test_compile_encrypt_mapping():
    seq = compile_op_to_fois(OperationRequest("encrypt", {"path": "/doc.txt"}))
    assert seq == [
        FOI("get", "/doc.txt"),
        FOI("op", "/doc.txt", op_kind="encrypt"),
        FOI("put", "/doc.txt.enc"),
    ]


def test_compile_convert_mapping():
    seq = compile_op_to_fois(OperationRequest(
        "convert", {"path": "/p.ppm", "max_resolution": 128}))
    assert seq == [
        FOI("get", "/p.ppm"),
        FOI("op", "/p.ppm", op_kind="convert", op_params={"max_resolution": 128}),
        FOI("push", "/p.ppm".rsplit("/", 1)[-1] + ".small"),
    ]
    # convert produces no put: nothing lands back in storage
    assert all(f.verb != "put" for f in seq)


def test_compile_rejects_basic():
    with pytest.raises(NotCloudAssisted):
        compile_op_to_fois(OperationRequest("rename", {"src": "/a", "dst": "/b"}))


def test_compile_rejects_transfers():
    with pytest.raises(ValueError):
        compile_op_to_fois(OperationRequest("transfer_send"))


def test_compiled_sequences_always_validate():
    rng = random.Random(7)
    reqs = [
        OperationRequest("download", {"url": "https://h/x", "dest": "/y"}),
        OperationRequest("compress", {"path": "/a/b.txt"}),
        OperationRequest("encrypt", {"path": "/a/b.txt"}),
        OperationRequest("convert", {"path": "/img.ppm", "max_resolution": 64}),
    ]
    for _ in range(200):
        name = "".join(rng.choice("abcdef") for _ in range(rng.randint(1, 12)))
        folder = rng.choice(["", "/sub", "/sub/deep"])
        reqs.append(OperationRequest(
            rng.choice(["compress", "encrypt", "convert"]),
            {"path": f"{folder}/{name}"}))
    for req in reqs:
        assert validate_foi_sequence(compile_op_to_fois(req)) == []


def test_validator_accepts_canonical_and_empty():
    assert validate_foi_sequence([]) == []
    seq = [FOI("get", "/f"), FOI("op", "/f", op_kind="compress"), FOI("put", "/f.gz")]
    assert validate_foi_sequence(seq) == []


def test_validator_flags_violations():
    assert validate_foi_sequence([FOI("put", "https://host/f")]) != []
    assert validate_foi_sequence([FOI("download", "/not/a/url")]) != []
    assert validate_foi_sequence([FOI("get", "/f", op_kind="compress")]) != []
    assert validate_foi_sequence([FOI("op", "/f")]) != []
    assert validate_foi_sequence([FOI("op", "/f", op_kind="compress")]) != []  # no get
    assert validate_foi_sequence([FOI("put", "/f")]) != []  # nothing to store
    assert validate_foi_sequence([FOI("push", "f")]) != []  # nothing to expose
    assert validate_foi_sequence(
        [FOI("get", "/a"), FOI("op", "/b", op_kind="compress")]) != []
    assert validate_foi_sequence([FOI("nonsense", "/f")]) != []
    assert validate_foi_sequence([FOI("get", "")]) != []


def test_sequence_wire_round_trip():
    seq = compile_op_to_fois(OperationRequest(
        "convert", {"path": "/p.ppm", "max_resolution": 128}))
    assert sequence_from_wire(sequence_to_wire(seq)) == seq


def test_filemeta_folder_size_zeroed():
    m = FileMeta(path="/d", name="d", kind="folder", size_bytes=999,
                 modified_at=0, revision="1")
    assert m.size_bytes == 0


def test_uncollide():
    assert uncollide("a.txt.gz", set()) == "a.txt.gz"
    assert uncollide("a.txt.gz", {"a.txt.gz"}) == "a.txt.1.gz"
    assert uncollide("a.txt.gz", {"a.txt.gz", "a.txt.1.gz"}) == "a.txt.2.gz"
    assert uncollide("plain", {"plain"}) == "plain.1"
    # a path gets its counter in the last segment only
    assert uncollide("/a.b/plain", {"/a.b/plain"}) == "/a.b/plain.1"
    assert uncollide("/a.b/c.gz", {"/a.b/c.gz"}) == "/a.b/c.1.gz"
