"""Bit-level I/O with Exp-Golomb codes, used by the bitstream codec.

ue(v) is v+1 written in 2*bitlen(v+1)-1 bits: bitlen(v+1)-1 zeros, then
v+1 itself.  se(v) is ue(se_to_ue(v)).  `ue_lengths` and `ue_bits` give the
lengths of ue() codes without writing anything.
"""

from __future__ import annotations

import numpy as np

# Longest ue() prefix a reader accepts: 32 zeros (values below 2**33 - 1).
MAX_UE_ZEROS = 32
# Longest ue() code a reader accepts, in bits.
_UE_MAX_BITS = 2 * MAX_UE_ZEROS + 1
# Bytes a reader adds to its parse window at a time.
_WINDOW_BYTES = 16


class BitstreamError(ValueError):
    pass


def se_to_ue(value):
    """The ue() value that codes se(value): v>0 -> 2v-1, v<=0 -> -2v.
    Works on an int or an integer array."""
    return 2 * abs(value) - (value > 0)


def ue_to_se(value: int) -> int:
    """The inverse of `se_to_ue`: odd values are positive."""
    return (value + 1) >> 1 if value & 1 else -(value >> 1)


def ue_lengths(values) -> np.ndarray:
    """Length in bits of the ue() code of each value of an int or an
    integer array, each value below 2**53 - 1."""
    # frexp's exponent of a positive integer is its bit length
    return 2 * np.frexp(np.add(values, 1))[1] - 1


def ue_bits(values) -> int:
    """Summed length in bits of the ue() codes of an int or an integer
    array, each value below 2**53 - 1."""
    return int(np.sum(ue_lengths(values)))


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
            acc, nacc = self._flush(acc, nacc)
        self._acc = acc
        self._nacc = nacc

    def _flush(self, acc: int, nacc: int) -> tuple[int, int]:
        """Move the whole bytes of the `nacc`-bit accumulator `acc` to the
        output; returns the accumulator of the bits left."""
        keep = nacc & 7
        self._bytes += (acc >> keep).to_bytes(nacc >> 3, "big")
        return acc & ((1 << keep) - 1), keep

    def write_bit(self, b: int) -> None:
        self._put(b & 1, 1)

    def write_bits(self, value: int, n: int) -> None:
        if value < 0 or value >> n:
            raise ValueError(f"value {value} does not fit in {n} bits")
        self._put(value, n)

    def write_ue(self, value: int) -> None:
        """Unsigned Exp-Golomb."""
        self.write_ues((value,))

    def write_ues(self, values) -> None:
        """The ue() code of each value of an int sequence or array, in order:
        `_put`'s steps inlined, one loop step per code."""
        acc, nacc, written = self._acc, self._nacc, self.bits_written
        try:
            for value in (values.tolist() if isinstance(values, np.ndarray)
                          else map(int, values)):
                if value < 0:
                    raise ValueError("ue() needs a non-negative value")
                v = value + 1
                n = 2 * v.bit_length() - 1
                acc = (acc << n) | v
                nacc += n
                written += n
                if nacc >= 64:
                    acc, nacc = self._flush(acc, nacc)
        finally:
            self._acc, self._nacc, self.bits_written = acc, nacc, written

    def to_bytes(self) -> bytes:
        """Flush, padding the final byte with zero bits."""
        nacc = self._nacc
        pad = -nacc & 7
        return bytes(self._bytes) + (self._acc << pad).to_bytes(
            (nacc + pad) >> 3, "big")


class BitReader:
    """MSB-first bit reader.  Multi-bit reads take their bits from one
    peeked word instead of bit by bit; `read_ues` parses a run of ue()
    codes in one call."""

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
        return self.read_ues(1)[0]

    def read_ues(self, k: int) -> list[int]:
        """k consecutive ue() values: the same values, errors and final
        position as k `read_ue` calls.  The codes are parsed from a window
        of at least _UE_MAX_BITS bits (or all that is left), topped up
        _WINDOW_BYTES at a time."""
        data = self._data
        pos = self._pos
        byte = pos >> 3
        chunk = data[byte:byte + _WINDOW_BYTES]
        byte += len(chunk)
        avail = 8 * len(chunk) - (pos & 7)  # bits in the window
        word = int.from_bytes(chunk, "big") & ((1 << avail) - 1)
        out = []
        append = out.append
        for _ in range(k):
            if avail < _UE_MAX_BITS and byte < len(data):
                chunk = data[byte:byte + _WINDOW_BYTES]
                byte += len(chunk)
                avail += 8 * len(chunk)
                word = (word << 8 * len(chunk)) | int.from_bytes(chunk, "big")
            zeros = avail - word.bit_length()
            rest = avail - 2 * zeros - 1  # bits left behind the code
            if zeros > MAX_UE_ZEROS or rest < 0:
                self._pos = 8 * byte - avail
                if zeros > MAX_UE_ZEROS:
                    raise BitstreamError("malformed Exp-Golomb code")
                raise BitstreamError("bitstream exhausted")
            v = word >> rest
            append(v - 1)
            word ^= v << rest
            avail = rest
        self._pos = 8 * byte - avail
        return out

    def read_se(self) -> int:
        return ue_to_se(self.read_ue())
