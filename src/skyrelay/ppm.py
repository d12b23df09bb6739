"""Minimal PPM (P6) codec and box-filter downscaling.

Binary PPM is the one image format converted natively, so the worker needs
no media libraries.  Other formats would plug in beside downscale_to_fit.
"""

from __future__ import annotations

import array
import io
import sys
from typing import BinaryIO, Callable, Iterator

from .core import IO_CHUNK_BYTES
from .errors import TransformError

# a longer width, height or maxval is refused; none fits in memory anyway
MAX_FIELD_DIGITS = 18


def _read_header(fin: BinaryIO) -> tuple[int, int, int]:
    """Read a P6 header through the one whitespace byte after maxval, which
    must be 255; return (width, height, header bytes read)."""
    if fin.read(2) != b"P6":
        raise TransformError("not a binary PPM (P6) image")
    n, fields, tok, comment = 2, [], b"", False
    while len(fields) < 3:
        c = fin.read(1)
        if not c:
            raise TransformError("truncated PPM header")
        n += 1
        if comment:  # a comment runs to the end of its line
            comment = c != b"\n"
        elif c.isspace():
            if tok:
                fields.append(int(tok))
                tok = b""
        elif c == b"#" and not tok:
            comment = True
        elif c.isdigit() and len(tok) < MAX_FIELD_DIGITS:
            tok += c
        else:
            raise TransformError(f"bad PPM header field {tok + c!r}")
    width, height, maxval = fields
    if maxval != 255:
        raise TransformError(f"unsupported PPM maxval {maxval}")
    if width <= 0 or height <= 0:
        raise TransformError("empty PPM image")
    return width, height, n


def _pixel_rows(fin: BinaryIO, row_len: int, height: int,
                on_chunk: Callable[[int], None]) -> Iterator[bytes]:
    """Yield the pixel data in batches of whole rows, each at most
    IO_CHUNK_BYTES unless one row is longer."""
    per_batch = max(1, IO_CHUNK_BYTES // row_len)
    for y in range(0, height, per_batch):
        want = min(per_batch, height - y) * row_len
        batch = fin.read(want)
        if len(batch) != want:
            raise TransformError("PPM pixel data truncated")
        on_chunk(want)
        yield batch


def _bytes_left(fin: BinaryIO) -> int:
    here = fin.tell()
    end = fin.seek(0, io.SEEK_END)
    fin.seek(here)
    return end - here


def parse_ppm(data: bytes) -> tuple[int, int, bytes]:
    """Return (width, height, rgb bytes); maxval must be 255."""
    f = io.BytesIO(data)
    width, height, _ = _read_header(f)
    pixels = f.read(width * height * 3)
    if len(pixels) != width * height * 3:
        raise TransformError("PPM pixel data truncated")
    return width, height, pixels


def _header(width: int, height: int) -> bytes:
    return b"P6\n%d %d\n255\n" % (width, height)


def write_ppm(width: int, height: int, pixels: bytes) -> bytes:
    return _header(width, height) + pixels


def downscale_to_fit(fin: BinaryIO, fout: BinaryIO, max_resolution: int,
                     on_chunk: Callable[[int], None]):
    """Box-filter the image in fin into fout so neither side exceeds
    max_resolution.

    The header is read first, then whole rows at most IO_CHUNK_BYTES at a
    time; each output row is written once its band of input rows is summed,
    so memory is O(row), not O(image).  on_chunk(n) runs once per read of n
    bytes; bytes after the pixel data are not read.  fin must be seekable:
    the pixel data is measured against the header before anything sized by
    the header is allocated.
    """
    if max_resolution <= 0:
        raise TransformError("max_resolution must be positive")
    width, height, header_bytes = _read_header(fin)
    on_chunk(header_bytes)
    row_len = 3 * width
    if _bytes_left(fin) < row_len * height:
        raise TransformError("PPM pixel data truncated")
    batches = _pixel_rows(fin, row_len, height, on_chunk)
    factor = -(-max(width, height) // max_resolution)  # ceil division
    if factor <= 1:
        fout.write(_header(width, height))
        for batch in batches:
            fout.write(batch)
        return
    out_w = -(-width // factor)
    fout.write(_header(out_w, -(-height // factor)))
    # Each channel byte of a row becomes one lane of a big integer, so adding
    # rows, and shifted copies of a row sum, adds every lane at once.  A lane
    # must hold a whole window's sum without carrying into its neighbour; the
    # narrowest lane that does gives int.from_bytes the fewest bytes to read.
    window_max = min(factor, height) * min(factor, width) * 255
    lane_bytes = 2 if window_max < 1 << 16 else 4 if window_max < 1 << 32 else 8
    typecode = {2: "H", 4: "I", 8: "Q"}[lane_bytes]
    pixel_bits = 3 * 8 * lane_bytes
    wide = bytearray(row_len * lane_bytes)
    last_cols = width - (out_w - 1) * factor

    def band_row(total: int, band: int) -> bytearray:
        """The output row of a band of `band` input rows whose lanes sum to total."""
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
        lanes = array.array(typecode, acc.to_bytes(len(wide), "little"))
        if sys.byteorder == "big":
            lanes.byteswap()
        full = band * factor
        part = band * last_cols
        row = bytearray(3 * out_w)
        for c in range(3):
            sums = lanes[c::3 * factor]  # one lane per window, at its first pixel
            row[c::3] = bytes([s // full for s in sums[:-1]] + [sums[-1] // part])
        return row

    y, total = 0, 0
    for batch in batches:
        rows = memoryview(batch)
        for start in range(0, len(batch), row_len):
            wide[0::lane_bytes] = rows[start:start + row_len]
            total += int.from_bytes(wide, "little")
            y += 1
            if y % factor == 0 or y == height:
                fout.write(band_row(total, (y - 1) % factor + 1))
                total = 0
