"""Hand-built TXC1 streams for decoder robustness tests."""

import struct
import zlib

from texcodec.bitio import BitWriter, se_to_ue
from texcodec.codec import KEY_FRAME, MAGIC, VERSION, BlockMode


def container(width: int, height: int, records: bytes,
              frame_crcs: tuple) -> bytes:
    """A one-group (gf 8, rotzoom) stream of the given frame records; its
    footer holds `frame_crcs` and the file header's true CRC."""
    head = struct.pack("<4sBHHHBB", MAGIC, VERSION, width, height,
                       len(frame_crcs), 8, 1)
    return (head + records
            + struct.pack(f"<{len(frame_crcs) + 1}I", *frame_crcs,
                          zlib.crc32(head)))


def single_tu_stream(write_luma_tu) -> bytes:
    """A one-frame 16x16 KEY stream whose only leaf is INTRA_DC; its luma TU
    is coded by `write_luma_tu(bw)`, its chroma TUs are empty.  The frame's
    CRC is a placeholder."""
    bw = BitWriter()
    bw.write_bits(int(BlockMode.INTRA_DC), 2)  # 64 and 32 nodes: forced splits
    write_luma_tu(bw)
    bw.write_ue(0)
    bw.write_ue(0)
    payload = bw.to_bytes()
    return container(16, 16, struct.pack("<BB", KEY_FRAME, 24)
                     + struct.pack("<I", len(payload)) + payload, (0,))


def huge_level_tu(bw: BitWriter) -> None:
    """One nonzero level, se(2**63): ue(1) ue(0) se(2**63)."""
    bw.write_ue(1)
    bw.write_ue(0)
    bw.write_ue(se_to_ue(2 ** 63))
