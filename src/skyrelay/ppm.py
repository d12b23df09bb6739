"""Minimal PPM (P6) codec and box-filter downscaling.

Binary PPM is the one image format converted natively, so the worker needs
no media libraries.  Other formats would plug in beside downscale_to_fit.
"""

from __future__ import annotations

import array
import sys

from .errors import TransformError


def _read_header_token(data: bytes, pos: int) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        c = data[pos:pos + 1]
        if c == b"#":  # comment runs to end of line
            while pos < n and data[pos:pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise TransformError("truncated PPM header")
    return data[start:pos], pos


def parse_ppm(data: bytes) -> tuple[int, int, bytes]:
    """Return (width, height, rgb bytes); maxval must be 255."""
    if data[:2] != b"P6":
        raise TransformError("not a binary PPM (P6) image")
    pos = 2
    fields = []
    for _ in range(3):
        tok, pos = _read_header_token(data, pos)
        if not tok.isdigit():
            raise TransformError(f"bad PPM header field {tok!r}")
        fields.append(int(tok))
    width, height, maxval = fields
    if maxval != 255:
        raise TransformError(f"unsupported PPM maxval {maxval}")
    if width <= 0 or height <= 0:
        raise TransformError("empty PPM image")
    pos += 1  # single whitespace after maxval
    pixels = data[pos:pos + width * height * 3]
    if len(pixels) != width * height * 3:
        raise TransformError("PPM pixel data truncated")
    return width, height, pixels


def write_ppm(width: int, height: int, pixels: bytes) -> bytes:
    return b"P6\n%d %d\n255\n" % (width, height) + pixels


def downscale_to_fit(data: bytes, max_resolution: int) -> bytes:
    """Box-filter the image so neither side exceeds max_resolution."""
    if max_resolution <= 0:
        raise TransformError("max_resolution must be positive")
    width, height, pixels = parse_ppm(data)
    longest = max(width, height)
    factor = -(-longest // max_resolution)  # ceil division
    if factor <= 1:
        return write_ppm(width, height, pixels)
    out_w = -(-width // factor)
    out_h = -(-height // factor)
    # Each channel byte of a row becomes one lane of a big integer, so adding
    # rows, and shifted copies of a row sum, adds every lane at once.  A lane
    # must hold a whole window's sum without carrying into its neighbour.
    lane_bytes = 4 if min(factor, height) * min(factor, width) * 255 < 1 << 32 else 8
    pixel_bits = 3 * 8 * lane_bytes
    row_len = 3 * width
    wide = bytearray(row_len * lane_bytes)
    rows = memoryview(pixels)
    last_cols = width - (out_w - 1) * factor
    out = bytearray()
    for y0 in range(0, height, factor):
        y1 = min(y0 + factor, height)
        total = 0
        for y in range(y0, y1):
            wide[0::lane_bytes] = rows[y * row_len:(y + 1) * row_len]
            total += int.from_bytes(wide, "little")
        # sum windows by doubling: lane 3x+c of span holds the sum of pixels
        # x..x+run-1, and acc adds one span per set bit of factor, so it ends
        # with the sums of pixels x..x+factor-1; past the right edge the
        # shifts bring in zeros, so a partial window sums what it has
        acc, done, span, run = 0, 0, total, 1
        while True:
            if factor & run:
                acc += span >> (pixel_bits * done)
                done += run
            if done == factor:
                break
            span += span >> (pixel_bits * run)
            run *= 2
        lanes = array.array("I" if lane_bytes == 4 else "Q",
                            acc.to_bytes(len(wide), "little"))
        if sys.byteorder == "big":
            lanes.byteswap()
        full = (y1 - y0) * factor
        part = (y1 - y0) * last_cols
        row = bytearray(3 * out_w)
        for c in range(3):
            sums = lanes[c::3 * factor]  # one lane per window, at its first pixel
            row[c::3] = bytes([s // full for s in sums[:-1]] + [sums[-1] // part])
        out += row
    return write_ppm(out_w, out_h, bytes(out))
