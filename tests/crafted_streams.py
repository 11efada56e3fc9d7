"""Hand-built TXC1 streams for decoder robustness tests."""

import struct

from texcodec.bitio import BitWriter, se_to_ue
from texcodec.codec import KEY_FRAME, MAGIC, VERSION, BlockMode


def single_tu_stream(write_luma_tu) -> bytes:
    """A one-frame 16x16 KEY stream whose only leaf is INTRA_DC; its luma TU
    is coded by `write_luma_tu(bw)`, its chroma TUs are empty.  The CRC
    footer is a placeholder."""
    bw = BitWriter()
    bw.write_bits(int(BlockMode.INTRA_DC), 2)  # 64 and 32 nodes: forced splits
    write_luma_tu(bw)
    bw.write_ue(0)
    bw.write_ue(0)
    payload = bw.to_bytes()
    return (struct.pack("<4sBHHHBB", MAGIC, VERSION, 16, 16, 1, 4, 1)
            + struct.pack("<BB", KEY_FRAME, 24)
            + struct.pack("<I", len(payload)) + payload
            + struct.pack("<I", 0))


def huge_level_tu(bw: BitWriter) -> None:
    """One nonzero level, se(2**63): ue(1) ue(0) se(2**63)."""
    bw.write_ue(1)
    bw.write_ue(0)
    bw.write_ue(se_to_ue(2 ** 63))
