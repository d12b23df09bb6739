"""Image codec tests; downscaling is checked against a numpy reference."""

import hashlib
import io
import math
import random

import numpy as np
import pytest

from skyrelay.errors import TransformError
from skyrelay.ppm import downscale_to_fit, parse_ppm, write_ppm


def downscale(data: bytes, max_resolution: int) -> bytes:
    out = io.BytesIO()
    downscale_to_fit(io.BytesIO(data), out, max_resolution, lambda n: None)
    return out.getvalue()


def test_write_parse_round_trip():
    pixels = bytes(range(256)) * 3  # 256 px * 3 channels
    data = write_ppm(16, 16, pixels)
    w, h, out = parse_ppm(data)
    assert (w, h) == (16, 16)
    assert out == pixels


def test_header_tolerates_comments_and_whitespace():
    pixels = bytes(6)
    data = b"P6 # a comment\n# another\n  2\t1 \n255\n" + pixels
    w, h, out = parse_ppm(data)
    assert (w, h, out) == (2, 1, pixels)


MALFORMED = [
    b"P5\n2 1\n255\n" + bytes(6),          # wrong magic
    b"P6\n2 1\n65535\n" + bytes(12),       # unsupported depth
    b"P6\n2 1\n255\n" + bytes(5),          # truncated pixels
    b"P6\n0 1\n255\n",                     # empty dims
    b"P6\n2 x\n255\n" + bytes(6),          # non-numeric field
    b"P6\n2",                              # truncated header
    b"P6\n2 1\n255",                       # no whitespace after maxval
    pytest.param(b"P6\n" + b"9" * 5000 + b" 1\n255\n", id="5000-digit-width"),
    # headers claiming far more pixels than follow, which must be refused
    # before a row buffer of that size is allocated
    pytest.param(b"P6\n400000000 1\n255\n", id="huge-width-no-pixels"),
    pytest.param(b"P6\n" + b"9" * 18 + b" 1\n255\n", id="18-digit-width-no-pixels"),
]


@pytest.mark.parametrize("data", MALFORMED)
def test_parse_rejects_malformed(data):
    with pytest.raises(TransformError):
        parse_ppm(data)


@pytest.mark.parametrize("data", MALFORMED + [
    pytest.param(b"P6\n600 600\n255\n" + bytes(600 * 600 * 3 - 1), id="cut-in-last-batch"),
])
@pytest.mark.parametrize("limit", [1, 1000, 10**9])
def test_downscale_from_a_file_rejects_malformed(tmp_path, data, limit):
    path = tmp_path / "in.ppm"
    path.write_bytes(data)
    with open(path, "rb") as fin, pytest.raises(TransformError):
        downscale_to_fit(fin, io.BytesIO(), limit, lambda n: None)


def test_downscale_reads_the_file_in_bounded_chunks():
    data = write_ppm(700, 600, bytes(700 * 600 * 3))
    reads = []
    out = io.BytesIO()
    downscale_to_fit(io.BytesIO(data), out, 128, reads.append)
    header = len(data) - 700 * 600 * 3
    # the header, then whole rows at most 1 MiB at a time
    assert reads[0] == header and sum(reads) == len(data)
    assert all(n % (3 * 700) == 0 and n <= 1 << 20 for n in reads[1:])
    assert parse_ppm(out.getvalue())[:2] == (117, 100)


def test_downscale_noop_when_within_limit():
    pixels = bytes(i % 256 for i in range(128 * 64 * 3))
    data = write_ppm(128, 64, pixels)
    assert downscale(data, 128) == data


def test_downscale_factor_boundary():
    # one pixel over the limit forces factor 2
    data = write_ppm(129, 10, bytes(129 * 10 * 3))
    w, h, _ = parse_ppm(downscale(data, 128))
    assert (w, h) == (65, 5)


def test_downscale_uniform_stays_uniform():
    data = write_ppm(300, 200, bytes([7, 50, 200]) * (300 * 200))
    w, h, pixels = parse_ppm(downscale(data, 64))
    assert max(w, h) <= 64
    assert set(pixels[0::3]) == {7}
    assert set(pixels[1::3]) == {50}
    assert set(pixels[2::3]) == {200}


def _reference_downscale(w, h, pixels, max_resolution):
    """Independent box filter: floor-of-mean per channel, edge-clipped."""
    img = np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3).astype(np.int64)
    f = math.ceil(max(w, h) / max_resolution)
    ow, oh = math.ceil(w / f), math.ceil(h / f)
    out = np.zeros((oh, ow, 3), dtype=np.uint8)
    for oy in range(oh):
        for ox in range(ow):
            block = img[oy * f:min((oy + 1) * f, h), ox * f:min((ox + 1) * f, w)]
            out[oy, ox] = block.reshape(-1, 3).sum(axis=0) // block[:, :, 0].size
    return ow, oh, out.tobytes()


def _pinned_cases():
    rng = random.Random(1234)
    cases = []
    for _ in range(40):
        w = rng.randint(1, 48)
        h = rng.randint(1, 48)
        limit = rng.randint(1, 20)
        cases.append((w, h, limit, rng.randbytes(w * h * 3)))
    # the bench's image size, partial last windows, single rows and columns
    for w, h, limit in [(1182, 1182, 128), (1000, 1003, 128), (37, 40, 5),
                        (129, 132, 128), (5, 3, 1), (300, 2, 7), (1, 1000, 3),
                        (4097, 3, 1), (4097, 3, 128)]:
        cases.append((w, h, limit, rng.randbytes(w * h * 3)))
    return cases


def test_downscale_matches_reference():
    for w, h, limit, pixels in _pinned_cases():
        got_w, got_h, got = parse_ppm(downscale(write_ppm(w, h, pixels), limit))
        ref_w, ref_h, ref = _reference_downscale(w, h, pixels, limit)
        if math.ceil(max(w, h) / limit) <= 1:
            assert (got_w, got_h, got) == (w, h, pixels)
            continue
        assert (got_w, got_h) == (ref_w, ref_h)
        assert got == ref
        assert max(got_w, got_h) <= limit


def test_downscale_output_is_pinned():
    # the digest of every pinned case's output from the one-buffer,
    # 32-bit-lane downscaler that came before rows were streamed
    digest = hashlib.sha256()
    for w, h, limit, pixels in _pinned_cases():
        digest.update(downscale(write_ppm(w, h, pixels), limit))
    assert digest.hexdigest() == \
        "11638c64a7f3bc252469bb6d39503a11f63e51cada9df42ada76dd6460d0696b"


@pytest.mark.parametrize("factor", [
    16,  # window sum 16 * 16 * 255 = 65 280, the largest a 16-bit lane holds
    17,  # 73 695, the first that needs 32-bit lanes
])
def test_downscale_uniform_white_at_the_16_bit_lane_boundary(factor):
    # two full windows and a partial one each way, at ceil(n / 3) == factor
    n = 3 * factor - 1
    data = write_ppm(n, n, b"\xff" * (n * n * 3))
    assert parse_ppm(downscale(data, 3)) == (3, 3, b"\xff" * 27)


def test_downscale_window_beyond_32_bit_lanes():
    # 4105 x 4105 x 255 does not fit a 32-bit sum
    n = 4105
    data = write_ppm(n, n, b"\xff" * (n * n * 3))
    assert parse_ppm(downscale(data, 1)) == (1, 1, b"\xff" * 3)


def test_downscale_rejects_bad_limit():
    data = write_ppm(4, 4, bytes(48))
    with pytest.raises(TransformError):
        downscale(data, 0)
