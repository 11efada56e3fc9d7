"""Bit-level I/O with Exp-Golomb codes, used by the bitstream codec."""

from __future__ import annotations


class BitstreamError(ValueError):
    pass


class BitWriter:
    """MSB-first bit accumulator.  Also used in trial mode during RD search:
    `bits_written` is exact before flushing."""

    def __init__(self):
        self._bytes = bytearray()
        self._acc = 0
        self._nacc = 0
        self.bits_written = 0

    def write_bit(self, b: int) -> None:
        self._acc = (self._acc << 1) | (b & 1)
        self._nacc += 1
        self.bits_written += 1
        if self._nacc == 8:
            self._bytes.append(self._acc)
            self._acc = 0
            self._nacc = 0

    def write_bits(self, value: int, n: int) -> None:
        if value < 0 or (n < 64 and value >> n):
            raise ValueError(f"value {value} does not fit in {n} bits")
        for i in range(n - 1, -1, -1):
            self.write_bit((value >> i) & 1)

    def write_ue(self, value: int) -> None:
        """Unsigned Exp-Golomb."""
        if value < 0:
            raise ValueError("ue() needs a non-negative value")
        v = value + 1
        nbits = v.bit_length()
        for _ in range(nbits - 1):
            self.write_bit(0)
        self.write_bits(v, nbits)

    def write_se(self, value: int) -> None:
        """Signed Exp-Golomb: v>0 -> 2v-1, v<=0 -> -2v."""
        self.write_ue(2 * value - 1 if value > 0 else -2 * value)

    def to_bytes(self) -> bytes:
        """Flush, padding the final byte with zero bits."""
        out = bytes(self._bytes)
        if self._nacc:
            out += bytes([self._acc << (8 - self._nacc)])
        return out


class BitReader:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0  # bit position

    def read_bit(self) -> int:
        byte = self._pos >> 3
        if byte >= len(self._data):
            raise BitstreamError("bitstream exhausted")
        b = (self._data[byte] >> (7 - (self._pos & 7))) & 1
        self._pos += 1
        return b

    def read_bits(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.read_bit()
        return v

    def read_ue(self) -> int:
        zeros = 0
        while self.read_bit() == 0:
            zeros += 1
            if zeros > 64:
                raise BitstreamError("malformed Exp-Golomb code")
        v = 1
        for _ in range(zeros):
            v = (v << 1) | self.read_bit()
        return v - 1

    def read_se(self) -> int:
        u = self.read_ue()
        return (u + 1) // 2 if u % 2 else -(u // 2)
