"""Bit-level I/O with Exp-Golomb codes, used by the bitstream codec.

ue(v) is v+1 written in 2*bitlen(v+1)-1 bits: bitlen(v+1)-1 zeros, then
v+1 itself.  se(v) is ue(se_to_ue(v)).  `ue_lengths` and `ue_bits` give the
lengths of ue() codes without writing anything.

`BitWriter` and `BitReader` code one bit field or ue() code at a time.  A
run of ue() codes can instead be split into two parts, coded as arrays:
the prefix part holds each code's zeros and the 1 after them, the suffix
part each code's remaining bits (`ue_parts` writes them, `UePartsReader`
reads them back).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Longest ue() prefix a reader accepts: 32 zeros (values below 2**33 - 1).
MAX_UE_ZEROS = 32
# Longest ue() code a reader accepts, in bits.
_UE_MAX_BITS = 2 * MAX_UE_ZEROS + 1
# Bytes that hold a longest ue() code from any bit offset.
_UE_WINDOW_BYTES = (7 + _UE_MAX_BITS + 7) // 8
# Bytes of the window each suffix is gathered from: a 64-bit word holds
# MAX_UE_ZEROS bits from any bit offset of its first byte.
_SUFFIX_WINDOW = 8
# Codes that `ue_parts` and `UePartsReader.read` code in one array step:
# their scratch arrays take a few dozen bytes per code of a step.
_CHUNK = 1 << 14


class BitstreamError(ValueError):
    pass


def se_to_ue(value):
    """The ue() value that codes se(value): v>0 -> 2v-1, v<=0 -> -2v.
    Works on an int or an integer array."""
    return 2 * abs(value) - (value > 0)


def ue_to_se(value):
    """The inverse of `se_to_ue`: odd values are positive.  Works on an int
    or an integer array."""
    return ((value + 1) >> 1) * (2 * (value & 1) - 1)


def ue_lengths(values) -> np.ndarray:
    """Length in bits of the ue() code of each value of an int or an
    integer array, each value below 2**53 - 1."""
    # frexp's exponent of a positive integer is its bit length
    return 2 * np.frexp(np.add(values, 1))[1] - 1


def ue_bits(values) -> int:
    """Summed length in bits of the ue() codes of an int or an integer
    array, each value below 2**53 - 1."""
    return int(np.sum(ue_lengths(values)))


def ue_parts(values) -> tuple[bytes, bytes]:
    """The prefix and suffix parts of the ue() codes of an integer array,
    each value below 2**53 - 1, each part zero-padded to a whole byte: for
    a code with z leading zeros, the prefix part holds the z zeros and the
    1 after them, the suffix part the z bits after that 1."""
    values = np.asarray(values, np.int64).ravel()
    if np.any(values < 0):
        raise ValueError("ue() needs non-negative values")
    prefix, suffix = [], []  # per step of codes, one uint8 per bit
    for lo in range(0, len(values), _CHUNK):
        v = values[lo:lo + _CHUNK] + 1
        zeros = np.frexp(v)[1] - 1
        bits = np.zeros(int(zeros.sum()) + len(v), np.uint8)
        bits[np.cumsum(zeros + 1) - 1] = 1  # each code's 1
        prefix.append(bits)
        # suffix bit i belongs to the code that ends at bit `end` of the
        # step's suffix bits, and is that code's bit `end - 1 - i`,
        # counted from its least significant bit
        end = np.repeat(np.cumsum(zeros), zeros)
        end -= np.arange(1, len(end) + 1)
        suffix.append((np.repeat(v, zeros) >> end).astype(np.uint8) & 1)
    return tuple(np.packbits(np.concatenate([np.empty(0, np.uint8), *bits]))
                 .tobytes() for bits in (prefix, suffix))


def _ends_at(data, bits: int) -> bool:
    """Whether `data` ends in the byte of its bit `bits - 1`, with zero bits
    after that bit."""
    return (bits + 7) >> 3 == len(data) and not (
        bits & 7 and data[-1] & (0xFF >> (bits & 7)))


class UePartsReader:
    """Reads ue() values, as arrays, from the prefix and the suffix part of
    a run of codes (see `ue_parts`), with `BitReader.read_ue`'s 32-zero
    prefix cap.  The prefix part's 1 bits are found once; each read takes
    the next codes' zeros from their gaps and gathers each suffix from one
    64-bit window."""

    def __init__(self, prefix: bytes, suffix: bytes):
        self._prefix, self._suffix = prefix, suffix
        self._ones = np.flatnonzero(np.unpackbits(np.frombuffer(prefix,
                                                                np.uint8)))
        # each suffix byte's window, which the zero bytes after the part fill
        self._windows = sliding_window_view(np.frombuffer(
            suffix + bytes(_SUFFIX_WINDOW), np.uint8), _SUFFIX_WINDOW)
        self._read = 0  # codes read
        self._bit = 0   # suffix bits read

    def read(self, k: int) -> np.ndarray:
        """The next k ue() values, as int64."""
        if k > len(self._ones) - self._read:
            raise BitstreamError("too few codes in the prefix part")
        out = np.empty(k, np.int64)
        for lo in range(0, k, _CHUNK):
            out[lo:lo + _CHUNK] = self._step(min(_CHUNK, k - lo))
        return out

    def _step(self, k: int) -> np.ndarray:
        n = self._read
        zeros = np.diff(self._ones[n:n + k],
                        prepend=self._ones[n - 1] if n else -1) - 1
        if zeros.max() > MAX_UE_ZEROS:
            raise BitstreamError("malformed Exp-Golomb code")
        offset = np.cumsum(zeros)
        end = self._bit + int(offset[-1])
        if end > 8 * len(self._suffix):
            raise BitstreamError("suffix part exhausted")
        start = self._bit + offset - zeros  # each suffix's first bit
        words = self._windows[start >> 3].view(">u8")[:, 0].astype(np.uint64)
        # the suffix's z bits, shifted to the top of the word, then down
        # to the bottom (in two steps, as a shift by 64 is undefined)
        words <<= (start & 7).astype(np.uint64)
        words >>= (63 - zeros).astype(np.uint64)
        words >>= np.uint64(1)
        self._read, self._bit = n + k, end
        return (1 << zeros) + words.astype(np.int64) - 1

    def finish(self) -> None:
        """Check that nothing follows the last code read in either part but
        zero pad bits."""
        n = self._read
        if not _ends_at(self._prefix, self._ones[n - 1] + 1 if n else 0):
            raise BitstreamError("data after the last code of the prefix "
                                 "part")
        if not _ends_at(self._suffix, self._bit):
            raise BitstreamError("data after the last code of the suffix "
                                 "part")


class BitWriter:
    """MSB-first bit writer.  Each codeword is shifted into an integer
    accumulator in one step; whole bytes are flushed to the output."""

    def __init__(self):
        self._bytes = bytearray()
        self._acc = 0
        self._nacc = 0
        self.bits_written = 0

    def _put(self, value: int, n: int) -> None:
        """Append the n-bit codeword `value` (already known to fit)."""
        acc = (self._acc << n) | value
        nacc = self._nacc + n
        self.bits_written += n
        if nacc >= 64:
            keep = nacc & 7
            self._bytes += (acc >> keep).to_bytes(nacc >> 3, "big")
            acc, nacc = acc & ((1 << keep) - 1), keep
        self._acc = acc
        self._nacc = nacc

    def write_bit(self, b: int) -> None:
        self._put(b & 1, 1)

    def write_bits(self, value: int, n: int) -> None:
        if value < 0 or value >> n:
            raise ValueError(f"value {value} does not fit in {n} bits")
        self._put(value, n)

    def write_ue(self, value: int) -> None:
        """Unsigned Exp-Golomb."""
        if value < 0:
            raise ValueError("ue() needs a non-negative value")
        v = value + 1
        self._put(v, 2 * v.bit_length() - 1)

    def to_bytes(self) -> bytes:
        """Flush, padding the final byte with zero bits."""
        nacc = self._nacc
        pad = -nacc & 7
        return bytes(self._bytes) + (self._acc << pad).to_bytes(
            (nacc + pad) >> 3, "big")


class BitReader:
    """MSB-first bit reader.  Multi-bit reads take their bits from one
    peeked word instead of bit by bit."""

    def __init__(self, data: bytes):
        self._data = data
        self._nbits = 8 * len(data)
        self._pos = 0  # bit position

    def read_bit(self) -> int:
        pos = self._pos
        if pos >= self._nbits:
            raise BitstreamError("bitstream exhausted")
        self._pos = pos + 1
        return (self._data[pos >> 3] >> (7 - (pos & 7))) & 1

    def read_bits(self, n: int) -> int:
        pos = self._pos
        end = pos + n
        if end > self._nbits:
            raise BitstreamError("bitstream exhausted")
        self._pos = end
        word = int.from_bytes(self._data[pos >> 3:(end + 7) >> 3], "big")
        return (word >> (-end & 7)) & ((1 << n) - 1)

    def read_ue(self) -> int:
        """Unsigned Exp-Golomb, from a window that holds the longest
        accepted code (or all that is left)."""
        pos = self._pos
        chunk = self._data[pos >> 3:(pos >> 3) + _UE_WINDOW_BYTES]
        avail = 8 * len(chunk) - (pos & 7)  # bits in the window
        word = int.from_bytes(chunk, "big") & ((1 << avail) - 1)
        zeros = avail - word.bit_length()
        if zeros > MAX_UE_ZEROS:
            raise BitstreamError("malformed Exp-Golomb code")
        rest = avail - 2 * zeros - 1  # bits left behind the code
        if rest < 0:
            raise BitstreamError("bitstream exhausted")
        self._pos = pos + 2 * zeros + 1
        return (word >> rest) - 1

    def read_se(self) -> int:
        return ue_to_se(self.read_ue())

    def finish(self) -> None:
        """Check that nothing follows the last bit read but zero pad
        bits."""
        if not _ends_at(self._data, self._pos):
            raise BitstreamError("data after the last code")
