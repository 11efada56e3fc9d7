"""File-level decoder properties on the pinned encodes of test_pins.py:
whatever a stream is cut to, however its bytes are changed and whatever its
header fields and payload parts hold, `decode_sequence` returns or raises
`BitstreamError`, never another exception, and its tracemalloc peak stays
bounded."""

import struct
import tracemalloc
import zlib
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crafted_streams import pack
from pinned_encodes import pinned_encodes
from texcodec import codec
from texcodec.bitio import BitReader, BitstreamError
from texcodec.codec import (INTER_FRAME, KEY_FRAME, MAX_FRAME_AREA,
                            decode_sequence)
from texcodec.frames import pad16

FILE_HEADER = "<4sBHHHBB"
# The header sweeps keep the sizes at most 1024x1024, whose planes take
# 1.5 MB a frame; the decoder holds a few frames at a time.
PEAK_BOUND = 16 << 20
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


def _streams():
    return tuple(enc.bitstream for enc in pinned_encodes())


def _sealed(stream: bytearray) -> bytes:
    """`stream` with the footer's last CRC made that of its file header
    again, so that a changed header field reaches the decoder's checks."""
    struct.pack_into("<I", stream, len(stream) - 4,
                     zlib.crc32(stream[:struct.calcsize(FILE_HEADER)]))
    return bytes(stream)


def _layout(data):
    """Per frame, the offsets of its header, of its Q16 motion (None in a
    KEY frame) and of its three lengths (payload, tree part, prefix part);
    and the footer's offset."""
    pos = struct.calcsize(FILE_HEADER)
    frames = []
    for _ in range(struct.unpack_from(FILE_HEADER, data)[4]):
        motion = pos + 2 if data[pos] == INTER_FRAME else None
        plen_at = pos + 2 + (24 if motion else 0)
        frames.append((pos, motion, plen_at))
        pos = plen_at + 12 + struct.unpack_from("<I", data, plen_at)[0]
    return frames, pos


def _decode_traced(data):
    """Decode `data`, which may fail only with a BitstreamError, within
    PEAK_BOUND bytes of traced allocations."""
    tracemalloc.start()
    try:
        try:
            decode_sequence(data)
        except BitstreamError:
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BOUND


streams = st.integers(0, 2)


def test_every_header_and_footer_cut_is_rejected():
    # every cut inside the file header, a frame header, a payload length
    # or the CRC footer; test_any_cut_is_rejected adds the payloads' cuts
    for data in _streams():
        frames, footer = _layout(data)
        cuts = set(range(struct.calcsize(FILE_HEADER) + 1))
        for start, _, plen_at in frames:
            cuts.update(range(start, plen_at + 13))
        cuts.update(range(footer, len(data)))
        assert len(data) not in cuts
        for cut in sorted(cuts):
            with pytest.raises(BitstreamError):
                decode_sequence(data[:cut])


def test_any_cut_is_rejected():
    # every cut of every stream: the file header, each frame's header,
    # payload length and payload, and the CRC footer
    tracemalloc.start()
    try:
        for data in _streams():
            for cut in range(len(data)):
                tracemalloc.reset_peak()
                try:
                    decode_sequence(data[:cut])
                except BitstreamError:
                    pass
                else:
                    pytest.fail(f"a cut to {cut} bytes decoded")
                assert tracemalloc.get_traced_memory()[1] < PEAK_BOUND
    finally:
        tracemalloc.stop()


def test_cut_in_last_payload_or_footer_is_rejected_before_decoding(
        monkeypatch):
    # the decoder walks every frame record and the footer first
    def parse_frame(*args):
        raise AssertionError("a frame was decoded")

    monkeypatch.setattr(codec, "_parse_frame", parse_frame)
    for data in _streams():
        _, footer = _layout(data)
        for cut, error in ((footer - 1, "truncated payload"),
                           (footer, "CRC footer"),
                           (len(data) - 1, "CRC footer")):
            with pytest.raises(BitstreamError, match=error):
                decode_sequence(data[:cut])


@SETTINGS
@given(streams, st.floats(0, 1, exclude_max=True), st.integers(1, 255))
def test_byte_mutations(which, where, xor):
    data = bytearray(_streams()[which])
    data[int(where * len(data))] ^= xor
    _decode_traced(bytes(data))


@SETTINGS
@given(streams, st.floats(0, 1, exclude_max=True), st.integers(0, 7))
def test_bit_flips(which, where, bit):
    data = bytearray(_streams()[which])
    data[int(where * len(data))] ^= 1 << bit
    _decode_traced(bytes(data))


_FILE_FIELDS = {  # field -> (offset, struct format, values)
    "width": (5, "<H", st.integers(0, 1024)),
    "height": (7, "<H", st.integers(0, 1024)),
    "frames": (9, "<H", st.integers(0, 0xFFFF)),
    "gf": (11, "<B", st.integers(0, 0xFF)),
    "model": (12, "<B", st.integers(0, 0xFF)),
}


@SETTINGS
@given(streams, st.sampled_from(sorted(_FILE_FIELDS)), st.data())
def test_file_header_field_sweeps(which, field, data):
    # the header CRC is made to match, so each value reaches the decoder
    stream = bytearray(_streams()[which])
    offset, fmt, values = _FILE_FIELDS[field]
    struct.pack_into(fmt, stream, offset, data.draw(values))
    _decode_traced(_sealed(stream))


@SETTINGS
@given(streams, st.integers(137, 0xFFFF), st.data())
def test_frame_area_above_the_bound_is_rejected(which, width, data):
    # sizes past the sweeps above: any padded area over MAX_FRAME_AREA is
    # refused before a plane is allocated, even with a matching header CRC
    height = data.draw(st.integers(MAX_FRAME_AREA // pad16(width) + 1,
                                   0xFFFF))
    stream = bytearray(_streams()[which])
    struct.pack_into("<HH", stream, _FILE_FIELDS["width"][0], width, height)
    tracemalloc.start()
    try:
        with pytest.raises(BitstreamError, match="frame area"):
            decode_sequence(_sealed(stream))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@SETTINGS
@given(streams, st.integers(0, 4), st.sampled_from(["type", "q", "motion"]),
       st.data())
def test_frame_header_field_sweeps(which, frame, field, data):
    stream = bytearray(_streams()[which])
    frames, _ = _layout(stream)
    start, motion, _ = frames[frame % len(frames)]
    if field == "type":
        stream[start] = data.draw(st.integers(0, 0xFF))
    elif field == "q":
        stream[start + 1] = data.draw(st.integers(0, 0xFF))
    else:
        motion = motion or frames[1][1]  # every pinned stream has INTER 1
        struct.pack_into("<6i", stream, motion, *data.draw(st.lists(
            st.integers(-2 ** 31, 2 ** 31 - 1), min_size=6, max_size=6)))
    _decode_traced(bytes(stream))


# Header values that no encoder writes, each rejected with its own message


def _with_byte(stream: bytes, offset: int, value: int) -> bytes:
    data = bytearray(stream)
    data[offset] = value
    return bytes(data)


@pytest.mark.parametrize("q_level", [0, 64, 255])
@pytest.mark.parametrize("frame", [0, 1])
def test_q_level_outside_1_to_63_is_rejected(q_level, frame):
    data = _streams()[0]
    start, _, _ = _layout(data)[0][frame]
    with pytest.raises(BitstreamError,
                       match=f"bad q_level {q_level} of frame {frame}"):
        decode_sequence(_with_byte(data, start + 1, q_level))


@pytest.mark.parametrize("gf", [0, 3, 17, 255])
def test_gf_group_size_outside_4_to_16_is_rejected(gf):
    data = _with_byte(_streams()[0], _FILE_FIELDS["gf"][0], gf)
    with pytest.raises(BitstreamError, match=f"bad gf_group_size {gf}$"):
        decode_sequence(data)


@pytest.mark.parametrize("frame,ftype", [(0, INTER_FRAME), (1, KEY_FRAME)],
                         ids=["key-as-inter", "inter-as-key"])
def test_frame_type_must_follow_the_gf_group(frame, ftype):
    # frame i is a KEY frame exactly when i % gf == 0
    data = _streams()[0]
    start, _, _ = _layout(data)[0][frame]
    with pytest.raises(BitstreamError,
                       match=f"bad frame type {ftype} of frame {frame}"):
        decode_sequence(_with_byte(data, start, ftype))


def test_frame_types_follow_the_header_gf():
    # the texture stream has gf 4 and 5 frames: KEY at frames 0 and 4
    data = _streams()[0]
    assert data[_FILE_FIELDS["gf"][0]] == 4
    starts = [start for start, _, _ in _layout(data)[0]]
    assert [data[s] for s in starts] == [KEY_FRAME] + 3 * [INTER_FRAME] + [
        KEY_FRAME]
    for gf in (5, 16):  # legal, but frame 4 is then an INTER frame
        with pytest.raises(BitstreamError,
                           match="bad frame type 0 of frame 4"):
            decode_sequence(_with_byte(data, _FILE_FIELDS["gf"][0], gf))


@pytest.mark.parametrize("gf", [5, 9, 16])
def test_changed_gf_that_fits_every_frame_type_is_rejected(gf):
    # the baseline stream has gf 8 and 5 frames, so gf 5, 9 or 16 leaves
    # every frame's type legal: the header CRC catches it
    data = _streams()[1]
    assert data[_FILE_FIELDS["gf"][0]] == 8
    with pytest.raises(BitstreamError, match="file header CRC mismatch"):
        decode_sequence(_with_byte(data, _FILE_FIELDS["gf"][0], gf))


# The payload's partition: its tree and prefix part lengths, and the parts


def _parts(data, frame):
    """Frame `frame`'s (tree, prefix, suffix) part bytes, and the offset of
    its three lengths."""
    _, _, plen_at = _layout(data)[0][frame]
    plen, tree_len, prefix_len = struct.unpack_from("<3I", data, plen_at)
    tree = plen_at + 12
    prefix = tree + tree_len
    return (data[tree:prefix], data[prefix:prefix + prefix_len],
            data[prefix + prefix_len:tree + plen]), plen_at


def _with_parts(data, frame, tree, prefix, suffix) -> bytes:
    """`data` with frame `frame`'s parts replaced and its lengths set."""
    (old, plen_at) = _parts(data, frame)
    end = plen_at + 12 + sum(map(len, old))
    return (data[:plen_at]
            + struct.pack("<3I", len(tree) + len(prefix) + len(suffix),
                          len(tree), len(prefix))
            + tree + prefix + suffix + data[end:])


@SETTINGS
@given(streams, st.integers(0, 4), st.sampled_from(["tree", "prefix"]),
       st.sampled_from(["zero", "past", "sum-past"]), st.data())
def test_part_length_sweeps(which, frame, field, kind, data):
    # a tree or prefix part length of 0, past the payload length, or
    # within it but summing past it with the other
    stream = bytearray(_streams()[which])
    frames, _ = _layout(stream)
    _, _, plen_at = frames[frame % len(frames)]
    plen, tree_len, prefix_len = struct.unpack_from("<3I", stream, plen_at)
    at = plen_at + (4 if field == "tree" else 8)
    other = prefix_len if field == "tree" else tree_len
    value = {"zero": st.just(0),
             "past": st.integers(plen + 1, 0xFFFFFFFF),
             "sum-past": st.integers(max(0, plen - other + 1), plen)}[kind]
    struct.pack_into("<I", stream, at, data.draw(value))
    _decode_traced(bytes(stream))


def test_part_lengths_past_the_payload_are_rejected():
    data = _streams()[0]
    _, plen_at = _parts(data, 0)
    plen, tree_len, prefix_len = struct.unpack_from("<3I", data, plen_at)
    for lengths in ((plen + 1, 0),
                    (0, plen + 1),
                    (tree_len, plen - tree_len + 1)):
        stream = bytearray(data)
        struct.pack_into("<2I", stream, plen_at + 4, *lengths)
        with pytest.raises(BitstreamError, match="shorter than its tree"):
            decode_sequence(bytes(stream))


def _bits(part: bytes) -> str:
    return "".join(format(b, "08b") for b in part)


def _prefix_bits(prefix: bytes) -> str:
    """A prefix part's bits up to its last code's 1."""
    bits = _bits(prefix)
    return bits[:bits.rindex("1") + 1]


def _tree_bits(data, frame, tree: bytes) -> str:
    """Frame `frame`'s tree part bits up to its last code, as its parse
    ends."""
    width, height = struct.unpack_from("<HH", data, 5)
    ctx = SimpleNamespace(pw=pad16(width), ph=pad16(height),
                          frame_type=data[_layout(data)[0][frame][0]])
    br, leaves = BitReader(tree), []
    for row in codec._superblock_rows(ctx):
        for rect in row:
            codec._parse_tree(br, ctx, rect, leaves)
    return _bits(tree)[:br._pos]


def _with_pad_bit(bits: str) -> bytes:
    """`bits` packed with a nonzero pad bit, or with a trailing nonzero
    byte when they fill their last byte."""
    return pack(bits + "0" * (-len(bits) % 8 - 1) + "1")


@pytest.mark.parametrize("which", [0, 1, 2])
@pytest.mark.parametrize("frame", [0, 1])
def test_changed_parts_are_rejected(which, frame):
    # each case changes one part of a KEY or an INTER frame, sets the
    # lengths to match and must be refused, within the memory bound, before
    # the frame's CRC is checked
    data = _streams()[which]
    (tree, prefix, suffix), _ = _parts(data, frame)
    p, t = _prefix_bits(prefix), _tree_bits(data, frame, tree)
    s = _bits(suffix)[:len(p) - p.count("1")]
    cases = [
        # a prefix part with too few 1s: its last code's 1 made a 0
        ("too few codes", tree, pack(p[:-1] + "0"), suffix),
        # a 33-zero prefix before the last code
        ("malformed Exp-Golomb", tree, pack(p[:-1] + "0" * 33 + "1"), suffix),
        # a suffix part that is too short
        ("suffix part exhausted", tree, prefix, suffix[:-1]),
        # bytes left after the last code of each part
        ("data after the last code", tree + b"\x00", prefix, suffix),
        ("prefix part", tree, prefix + b"\x00", suffix),
        ("suffix part", tree, prefix, suffix + b"\x00"),
        # nonzero pad bits in each part
        ("data after the last code", _with_pad_bit(t), prefix, suffix),
        ("prefix part", tree, _with_pad_bit(p), suffix),
        ("suffix part", tree, prefix, _with_pad_bit(s)),
    ]
    assert s  # every frame tested has suffix bits, so a byte to cut
    for error, *parts in cases:
        changed = _with_parts(data, frame, *parts)
        tracemalloc.start()
        try:
            with pytest.raises(BitstreamError, match=error):
                decode_sequence(changed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < PEAK_BOUND
    # the parts as they are decode
    assert decode_sequence(_with_parts(data, frame, tree, prefix, suffix))
