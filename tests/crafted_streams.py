"""Hand-built TXC1 streams for decoder robustness tests."""

import struct
import zlib

from texcodec.bitio import se_to_ue
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


def key_record(tree: bytes, prefix: bytes, suffix: bytes,
               q_level: int = 24) -> bytes:
    """A KEY frame record: its header, its three part lengths and parts."""
    return (struct.pack("<BB3I", KEY_FRAME, q_level,
                        len(tree) + len(prefix) + len(suffix), len(tree),
                        len(prefix))
            + tree + prefix + suffix)


def pack(bits: str) -> bytes:
    """A bit string, zero-padded to whole bytes."""
    bits += "0" * (-len(bits) % 8)
    return bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits), 8))


def ue_code(value: int) -> str:
    """The bit string of ue(value), for any value >= 0."""
    v = format(value + 1, "b")
    return "0" * (len(v) - 1) + v


def split_codes(codes) -> tuple[str, str]:
    """The prefix and suffix bit strings of a run of code bit strings: each
    code's bits up to its first 1, and the rest."""
    cut = [code.index("1") + 1 for code in codes]
    return ("".join(code[:c] for code, c in zip(codes, cut)),
            "".join(code[c:] for code, c in zip(codes, cut)))


def single_tu_stream(count: int, pairs=()) -> bytes:
    """A one-frame 16x16 KEY stream whose only leaf is INTRA_DC: its luma TU
    codes ue(count), then ue(run) and ue(code) of each (run, code) pair,
    its chroma TUs are empty.  The frame's CRC is a placeholder."""
    # the 64 and 32 nodes are forced splits: the tree is one mode
    tree = pack(format(int(BlockMode.INTRA_DC), "02b"))
    values = [count, 0, 0] + [v for pair in pairs for v in pair]
    prefix, suffix = split_codes([ue_code(v) for v in values])
    return container(16, 16, key_record(tree, pack(prefix), pack(suffix)),
                     (0,))


# one nonzero level, se(2**63): its code has a 64-zero prefix
HUGE_LEVEL = (1, [(0, se_to_ue(2 ** 63))])
