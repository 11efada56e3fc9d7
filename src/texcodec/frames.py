"""Raw 4:2:0 frame handling: Y4M and planar YUV I/O, padding, block access.

All sample math is 8-bit (luma range [0, 255]).  Frames are immutable after
construction; planes are marked read-only so they can be shared across
workers without copies.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

BLOCK = 16


class Y4MError(ValueError):
    """Malformed or unsupported Y4M / raw YUV input."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.uint8)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Frame:
    """One 4:2:0 picture: luma `y`, and `uv`, the half-size U then V planes."""

    y: np.ndarray
    uv: np.ndarray
    frame_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "y", _readonly(self.y))
        object.__setattr__(self, "uv", _readonly(self.uv))
        h, w = self.y.shape
        if self.uv.shape != (2, (h + 1) // 2, (w + 1) // 2):
            raise ValueError(
                f"chroma shape {self.uv.shape} does not match luma {w}x{h}"
            )

    @property
    def u(self) -> np.ndarray:
        return self.uv[0]

    @property
    def v(self) -> np.ndarray:
        return self.uv[1]

    @property
    def width(self) -> int:
        return self.y.shape[1]

    @property
    def height(self) -> int:
        return self.y.shape[0]

    def same_samples(self, other: "Frame") -> bool:
        return (np.array_equal(self.y, other.y)
                and np.array_equal(self.uv, other.uv))


@dataclass(frozen=True)
class Sequence:
    frames: tuple[Frame, ...]
    frame_rate: tuple[int, int] = (30, 1)

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        dims = {(f.width, f.height) for f in self.frames}
        if len(dims) > 1:
            raise ValueError(f"frames have mixed dimensions: {sorted(dims)}")

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self):
        return iter(self.frames)

    def __getitem__(self, i):
        return self.frames[i]

    @property
    def width(self) -> int:
        return self.frames[0].width

    @property
    def height(self) -> int:
        return self.frames[0].height


@dataclass(frozen=True)
class BlockRect:
    """Square block in luma coordinates."""

    x: int
    y: int
    size: int

    def cells(self) -> tuple[range, range]:
        """Ranges of 16x16 grid cells (col range, row range) covered."""
        return (
            range(self.x // BLOCK, (self.x + self.size - 1) // BLOCK + 1),
            range(self.y // BLOCK, (self.y + self.size - 1) // BLOCK + 1),
        )


def frame_size_bytes(width: int, height: int) -> int:
    return width * height + 2 * (((width + 1) // 2) * ((height + 1) // 2))


def _frame_from_bytes(buf: bytes, width: int, height: int, index: int) -> Frame:
    cw, ch = (width + 1) // 2, (height + 1) // 2
    ysz = width * height
    y = np.frombuffer(buf, dtype=np.uint8, count=ysz).reshape(height, width)
    uv = np.frombuffer(buf, dtype=np.uint8, offset=ysz).reshape(2, ch, cw)
    return Frame(y=y, uv=uv, frame_index=index)


def read_y4m(source) -> Sequence:
    """Parse a YUV4MPEG2 stream (C420 family only) into a Sequence.

    `source` is a binary file object or bytes.
    """
    if isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(source)
    header = source.readline(513)  # at most 512 bytes, then the newline
    if not header.endswith(b"\n"):
        raise Y4MError("Y4M header too long" if len(header) > 512
                       else "truncated Y4M header")
    fields = header[:-1].decode("ascii", "replace").split(" ")
    if fields[0] != "YUV4MPEG2":
        raise Y4MError("missing YUV4MPEG2 signature")
    width = height = None
    rate = (30, 1)
    for tok in fields[1:]:
        if not tok:
            continue
        tag, val = tok[0], tok[1:]
        if tag == "W":
            width = int(val)
        elif tag == "H":
            height = int(val)
        elif tag == "F":
            num, den = val.split(":")
            rate = (int(num), int(den))
        elif tag == "C":
            if not val.startswith("420"):
                raise Y4MError(f"unsupported colourspace C{val}")
    if width is None or height is None or width <= 0 or height <= 0:
        raise Y4MError("Y4M header lacks W/H")
    nbytes = frame_size_bytes(width, height)
    frames = []
    while True:
        line = source.readline()
        if not line:
            break
        if not line.endswith(b"\n"):
            raise Y4MError("truncated FRAME marker")
        if not line.startswith(b"FRAME"):
            raise Y4MError("expected FRAME marker")
        buf = source.read(nbytes)
        if len(buf) != nbytes:
            raise Y4MError(
                f"truncated frame payload: got {len(buf)} of {nbytes} bytes"
            )
        frames.append(_frame_from_bytes(buf, width, height, len(frames)))
    if not frames:
        raise Y4MError("Y4M stream contains no frames")
    return Sequence(frames=tuple(frames), frame_rate=rate)


def write_y4m(seq: Sequence, sink) -> int:
    """Serialize a Sequence as Y4M.  Returns the byte count written."""
    if len(seq) == 0:
        raise Y4MError("cannot write empty sequence")
    num, den = seq.frame_rate
    header = f"YUV4MPEG2 W{seq.width} H{seq.height} F{num}:{den} Ip A0:0 C420\n"
    n = sink.write(header.encode("ascii"))
    for f in seq:
        n += sink.write(b"FRAME\n")
        n += sink.write(f.y.tobytes())
        n += sink.write(f.uv.tobytes())
    return n


def read_yuv(source, width: int, height: int,
             frame_count: int | None = None) -> Sequence:
    """Read headerless planar 4:2:0 data with caller-provided geometry."""
    if isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(source)
    if width <= 0 or height <= 0:
        raise Y4MError("width/height must be positive")
    nbytes = frame_size_bytes(width, height)
    frames = []
    while frame_count is None or len(frames) < frame_count:
        buf = source.read(nbytes)
        if not buf and frame_count is None:
            break
        if len(buf) != nbytes:
            raise Y4MError(
                f"truncated frame {len(frames)}: got {len(buf)} of {nbytes} bytes"
            )
        frames.append(_frame_from_bytes(buf, width, height, len(frames)))
    if not frames:
        raise Y4MError("no frames in raw YUV input")
    return Sequence(frames=tuple(frames))


def pad16(n: int) -> int:
    return (n + BLOCK - 1) // BLOCK * BLOCK


def pad_frame(f: Frame) -> Frame:
    """Pad dimensions up to multiples of 16 by edge replication.  Idempotent."""
    w, h = f.width, f.height
    pw, ph = pad16(w), pad16(h)
    if (pw, ph) == (w, h):
        return f
    _, ch, cw = f.uv.shape
    y = np.pad(f.y, ((0, ph - h), (0, pw - w)), mode="edge")
    uv = np.pad(f.uv, ((0, 0), (0, ph // 2 - ch), (0, pw // 2 - cw)),
                mode="edge")
    return Frame(y=y, uv=uv, frame_index=f.frame_index)


def crop_frame(f: Frame, width: int, height: int) -> Frame:
    """Crop a (padded) frame back to `width` x `height`."""
    if width > f.width or height > f.height:
        raise ValueError("crop larger than frame")
    return Frame(y=f.y[:height, :width],
                 uv=f.uv[:, : (height + 1) // 2, : (width + 1) // 2],
                 frame_index=f.frame_index)
