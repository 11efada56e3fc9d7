"""Closed-form code lengths against the bits the writer emits, a leaf's
coefficient codes against a per-TU reference, the word-level bit
writer/reader against a bit-by-bit reference, and the array coder of the
prefix and suffix parts against a scalar reference."""

import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crafted_streams import pack, split_codes
from pinned_encodes import pinned_inputs
from texcodec import codec
from texcodec.bitio import (BitReader, BitstreamError, BitWriter,
                            UePartsReader, se_to_ue, ue_bits, ue_parts)
from texcodec.codec import (CHROMA_TU, LUMA_TU, MAX_LEVEL, BlockMode, _Leaf,
                            _coeff_codes, _coefficient_parts, _read_levels,
                            encode_sequence)
from texcodec.transform import zigzag_order

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)


# ---------------------------------------------------------------------------
# bit-by-bit reference coder


def _ref_ue(value):
    v = format(value + 1, "b")
    return "0" * (len(v) - 1) + v


def _ref_se(value):
    return _ref_ue(2 * value - 1 if value > 0 else -2 * value)


class _RefReader:
    def __init__(self, data):
        self.bits = "".join(format(b, "08b") for b in data)
        self.pos = 0

    def read_bits(self, n):
        if self.pos + n > len(self.bits):
            raise BitstreamError("bitstream exhausted")
        v = int(self.bits[self.pos:self.pos + n] or "0", 2)
        self.pos += n
        return v

    def read_ue(self):
        zeros = 0
        while self.read_bits(1) == 0:
            zeros += 1
        return ((1 << zeros) | self.read_bits(zeros)) - 1

    def read_se(self):
        u = self.read_ue()
        return (u + 1) // 2 if u % 2 else -(u // 2)


# ops: ("bits", value, n), ("ue", value) or ("se", value)
_OPS = st.one_of(
    st.integers(0, 64).flatmap(lambda n: st.tuples(
        st.just("bits"), st.integers(0, (1 << n) - 1), st.just(n))),
    st.tuples(st.just("ue"), st.integers(0, 2 ** 33 - 2)),
    st.tuples(st.just("se"), st.integers(-(2 ** 32 - 1), 2 ** 32 - 1)),
)


def _write(ops):
    bw, ref = BitWriter(), []
    for op in ops:
        if op[0] == "bits":
            bw.write_bits(op[1], op[2])
            ref.append(format(op[1], "b").zfill(op[2]) if op[2] else "")
        elif op[0] == "ue":
            bw.write_ue(op[1])
            ref.append(_ref_ue(op[1]))
        else:
            bw.write_ue(se_to_ue(op[1]))
            ref.append(_ref_se(op[1]))
    return bw, "".join(ref)


# ---------------------------------------------------------------------------
# code lengths


@SETTINGS
@given(st.integers(0, 2 ** 40))
def test_ue_bits_matches_writer(value):
    bw = BitWriter()
    bw.write_ue(value)
    assert ue_bits(value) == bw.bits_written == len(_ref_ue(value))


@SETTINGS
@given(st.integers(-2 ** 40, 2 ** 40))
def test_se_bits_matches_writer(value):
    bw = BitWriter()
    bw.write_ue(se_to_ue(value))
    assert ue_bits(se_to_ue(value)) == bw.bits_written == len(_ref_se(value))


def _levels(rng, k, n, kind):
    """(k, n, n) levels of k TUs, each with its own density of nonzeros; a
    density below 0 makes an all-zero TU."""
    if kind == "zero":
        return np.zeros((k, n, n), np.int64)
    if kind == "large":
        out = rng.integers(-MAX_LEVEL, MAX_LEVEL + 1, (k, n, n))
    else:
        out = rng.integers(-30, 31, (k, n, n))
    density = rng.uniform(-0.5, 1.0, (k, 1, 1))
    return np.where(rng.uniform(size=(k, n, n)) < density, out, 0)


@st.composite
def _leaves(draw):
    size = draw(st.sampled_from((16, 32, 64)))
    mode = draw(st.sampled_from(list(BlockMode)))
    leaf = _Leaf(mode=mode)
    if mode == BlockMode.INTER_MV:
        leaf.mv = (draw(st.integers(-64, 64)), draw(st.integers(-64, 64)))
    if mode != BlockMode.TEXTURE:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        kind = draw(st.sampled_from(("zero", "small", "large")))
        k = (size // LUMA_TU) ** 2
        y, u, v = (_levels(rng, k, LUMA_TU if plane == "y" else CHROMA_TU,
                           kind) for plane in ("y", "u", "v"))
        leaf.levels = {"y": y[None], "uv": np.array([u, v])}
    return leaf


def _part_bits(data, at):
    """The bits that a frame record's tree, prefix and suffix parts hold
    before their padding, given the tree's from the encoder; and the
    position after the record."""
    at += 2 + (24 if data[at] == codec.INTER_FRAME else 0)
    plen, tree_len, prefix_len = struct.unpack_from("<3I", data, at)
    at += 12 + tree_len
    prefix = np.unpackbits(np.frombuffer(data[at:at + prefix_len], np.uint8))
    ones = np.flatnonzero(prefix)
    # a code with z zeros has z + 1 prefix bits, the last a 1, and z suffix
    # bits
    prefix_bits = int(ones[-1]) + 1 if len(ones) else 0
    return prefix_bits, prefix_bits - len(ones), at + plen - tree_len


@pytest.mark.parametrize("which", [0, 1, 2],
                         ids=["texture", "baseline", "partial"])
def test_rate_counter_matches_the_parts(which, monkeypatch):
    # for each pinned encode and each frame, the bits the RD search counts
    # for its chosen leaves and split flags equal its tree bits plus its
    # prefix bits plus its suffix bits
    frames = []  # per frame: [bits counted, tree bits written]
    search, depth = codec._search_node, [0]

    def counted(ctx, rect, tables):
        depth[0] += 1
        try:
            tree, bits, dist = search(ctx, rect, tables)
        finally:
            depth[0] -= 1
        if depth[0] == 0:  # a superblock
            frames[-1][0] += bits
        return tree, bits, dist

    class Writer(BitWriter):
        def __init__(self):
            super().__init__()
            frames.append([0, None])

        def to_bytes(self):
            frames[-1][1] = self.bits_written
            return super().to_bytes()

    monkeypatch.setattr(codec, "_search_node", counted)
    monkeypatch.setattr(codec, "BitWriter", Writer)
    data = encode_sequence(*pinned_inputs()[which]).bitstream
    at = struct.calcsize("<4sBHHHBB")
    for counted_bits, tree_bits in frames:
        prefix_bits, suffix_bits, at = _part_bits(data, at)
        assert counted_bits == tree_bits + prefix_bits + suffix_bits
    assert len(data) - at == 4 * (len(frames) + 1)  # the CRC footer


def _ref_coeff_codes(levels):
    """Reference for `_coeff_codes`, one TU at a time: the levels in zig-zag
    order, ue(count), then ue(run) and se(level) of each nonzero level."""
    codes = []
    for tu in levels:
        scanned = [int(tu[i, j]) for i, j in zigzag_order(len(tu))]
        nonzero = [(p, v) for p, v in enumerate(scanned) if v]
        codes.append(len(nonzero))
        prev = -1
        for p, v in nonzero:
            codes += [p - prev - 1, 2 * v - 1 if v > 0 else -2 * v]
            prev = p
    return codes


_PLANE_LEVELS = (st.integers(0, 2 ** 32 - 1), st.sampled_from((1, 4, 16)),
                 st.sampled_from((LUMA_TU, CHROMA_TU)),
                 st.sampled_from(("zero", "small", "large")))


@SETTINGS
@given(*_PLANE_LEVELS)
def test_coeff_codes_match_reference(seed, k, n, kind):
    levels = _levels(np.random.default_rng(seed), k, n, kind)
    codes, starts = _coeff_codes(levels)
    assert codes.tolist() == _ref_coeff_codes(levels)
    # each TU's codes begin with its ue(count), after 2 codes per level
    counts = [int(np.count_nonzero(tu)) for tu in levels]
    assert starts.tolist() == [t + 2 * sum(counts[:t]) for t in range(k)]


@SETTINGS
@given(st.lists(_leaves(), max_size=6))
def test_coeffs_roundtrip(leaves):
    # a frame's coefficient parts parse back into every coded leaf's
    # levels, luma TUs first, then each leaf's U and V TUs, and fill both
    # parts
    coded = [leaf for leaf in leaves if leaf.mode != BlockMode.TEXTURE]
    want = {plane: np.concatenate(
        [np.empty((0, tu, tu), np.int64)]
        + [leaf.levels[plane].reshape(-1, tu, tu) for leaf in coded])
        for plane, tu in codec._TU.items()}
    reader = UePartsReader(*_coefficient_parts(leaves))
    got = _read_levels(reader, {plane: len(v) for plane, v in want.items()})
    for plane in want:
        assert np.array_equal(got[plane], want[plane])


# ---------------------------------------------------------------------------
# word-level writer and reader


@SETTINGS
@given(st.lists(_OPS, max_size=40))
def test_writer_matches_bit_by_bit_reference(ops):
    bw, ref = _write(ops)
    assert bw.bits_written == len(ref)
    assert bw.to_bytes() == pack(ref)


@SETTINGS
@given(st.lists(_OPS, max_size=40))
def test_reader_matches_bit_by_bit_reference(ops):
    _, ref = _write(ops)
    data = pack(ref)
    br, rr = BitReader(data), _RefReader(data)
    for op in ops:
        if op[0] == "bits":
            got, want = br.read_bits(op[2]), rr.read_bits(op[2])
        elif op[0] == "ue":
            got, want = br.read_ue(), rr.read_ue()
        else:
            got, want = br.read_se(), rr.read_se()
        assert got == want == op[1]


@SETTINGS
@given(st.lists(_OPS, min_size=1, max_size=10), st.data())
def test_truncated_reads_raise_bitstream_error(ops, data):
    _, ref = _write(ops)
    assume(ref)
    # keep fewer whole bytes than the codes need
    cut = data.draw(st.integers(0, (len(ref) - 1) // 8))
    br = BitReader(pack(ref)[:cut])
    with pytest.raises(BitstreamError):
        for op in ops:
            if op[0] == "bits":
                br.read_bits(op[2])
            elif op[0] == "ue":
                br.read_ue()
            else:
                br.read_se()


def test_ue_prefix_capped_at_32_zeros():
    bw = BitWriter()
    bw.write_ue(2 ** 33 - 2)  # 32 zeros: the longest accepted code
    bw.write_ue(2 ** 33 - 1)  # 33 zeros
    br = BitReader(bw.to_bytes())
    assert br.read_ue() == 2 ** 33 - 2
    with pytest.raises(BitstreamError, match="malformed Exp-Golomb code"):
        br.read_ue()


def _ref_read_ues(bits, pos, k):
    """k ue() codes of the bit string from `pos`, with the reader's 32-zero
    prefix cap: (values, error message or None, position)."""
    out = []
    for _ in range(k):
        one = bits.find("1", pos)
        zeros = (len(bits) if one < 0 else one) - pos
        if zeros > 32:
            return out, "malformed Exp-Golomb code", pos
        if pos + 2 * zeros + 1 > len(bits):
            return out, "bitstream exhausted", pos
        out.append(int(bits[pos + zeros:pos + 2 * zeros + 1], 2) - 1)
        pos += 2 * zeros + 1
    return out, None, pos


# a code: ue(value), or a prefix of 33 or more zeros (malformed)
_CODES = st.one_of(
    st.integers(0, 300).map(_ref_ue),
    st.integers(0, 2 ** 33 - 2).map(_ref_ue),
    st.integers(33, 80).map(lambda z: "0" * z + "1"),
)


@SETTINGS
@given(st.lists(_CODES, max_size=60), st.data())
def test_ue_parts_reader_matches_reference(codes, data):
    # the codes read from their prefix and suffix parts, in two reads,
    # against the scalar reference over the same codes interleaved; asking
    # for more codes than there are is an error too
    k = data.draw(st.integers(0, len(codes) + 2))
    first = data.draw(st.integers(0, k))
    want, err, _ = _ref_read_ues("".join(codes), 0, k)
    prefix, suffix = split_codes(codes)
    reader = UePartsReader(pack(prefix), pack(suffix))
    if err is None:
        got = reader.read(first).tolist() + reader.read(k - first).tolist()
        assert got == want
        if k == len(codes):
            reader.finish()
    else:
        with pytest.raises(BitstreamError):
            reader.read(first)
            reader.read(k - first)
    if err == "malformed Exp-Golomb code" and k <= len(codes):
        with pytest.raises(BitstreamError, match=err):
            UePartsReader(pack(prefix), pack(suffix)).read(k)


@SETTINGS
@given(st.lists(st.one_of(st.integers(0, 300), st.integers(0, 2 ** 33 - 2),
                          st.integers(0, 2 ** 52)), max_size=60))
def test_ue_parts_match_reference(values):
    prefix, suffix = split_codes([_ref_ue(v) for v in values])
    assert ue_parts(np.array(values, np.int64)) == (pack(prefix),
                                                    pack(suffix))


@pytest.mark.parametrize("offset", range(8))
@pytest.mark.parametrize("value", [2 ** 32 - 1, 2 ** 33 - 2])
def test_ue_parts_reader_at_the_window_edge(offset, value):
    # a 32-bit suffix (the longest) from each bit offset of its first byte,
    # and at the end of the suffix part, where its window reaches past it
    values = [1] * offset + [value, 2 ** 33 - 2, value]
    prefix, suffix = split_codes([_ref_ue(v) for v in values])
    reader = UePartsReader(pack(prefix), pack(suffix))
    assert reader.read(len(values)).tolist() == values
    reader.finish()


def test_ue_parts_reader_rejects_what_follows_the_last_code():
    prefix, suffix = split_codes([_ref_ue(v) for v in (5, 0, 2)])
    for p, s, error in (
            (prefix + "1", suffix, "prefix part"),  # a fourth code
            (prefix, suffix + "1", "suffix part"),  # a nonzero pad bit
            (prefix + "0" * 8, suffix, "prefix part"),  # a trailing byte
            (prefix, suffix + "0" * 8, "suffix part")):
        reader = UePartsReader(pack(p), pack(s))
        assert reader.read(3).tolist() == [5, 0, 2]
        with pytest.raises(BitstreamError, match=error):
            reader.finish()
    with pytest.raises(BitstreamError, match="suffix part exhausted"):
        UePartsReader(pack(prefix), b"").read(3)
    with pytest.raises(BitstreamError, match="too few codes"):
        UePartsReader(pack(prefix), pack(suffix)).read(4)


def _levels_parts(pairs, count=None):
    """The parts of one 8x8 TU: ue(count) (by default the pairs'), then
    ue(run) and se(level) of each (run, level) pair."""
    values = [len(pairs) if count is None else count]
    for run, level in pairs:
        values += [run, se_to_ue(level)]
    return UePartsReader(*ue_parts(np.array(values, np.int64)))


def test_read_levels_range_checks():
    n = CHROMA_TU
    one = {"uv": 1}
    with pytest.raises(BitstreamError, match="count"):
        _read_levels(_levels_parts([(0, 1)] * (n * n + 1)), one)
    with pytest.raises(BitstreamError, match="level"):
        _read_levels(_levels_parts([(0, MAX_LEVEL + 1), (n * n - 2, 1)]), one)
    with pytest.raises(BitstreamError, match="position"):
        _read_levels(_levels_parts([(n * n, 1)]), one)
    with pytest.raises(BitstreamError, match="position"):
        _read_levels(_levels_parts([(0, 1), (n * n - 1, -1)]), one)
    with pytest.raises(BitstreamError, match="too few codes"):
        _read_levels(_levels_parts([(0, 1)], count=2), one)
    with pytest.raises(BitstreamError, match="prefix part"):
        _read_levels(_levels_parts([(0, 1), (0, 1)], count=1), one)
    levels = _read_levels(
        _levels_parts([(0, -MAX_LEVEL), (n * n - 2, MAX_LEVEL)]), one)["uv"]
    assert levels.flat[0] == -MAX_LEVEL and levels.flat[n * n - 1] == MAX_LEVEL
    # each TU's positions count from its own start
    reader = UePartsReader(*ue_parts(np.array(
        [1, 1, n * n - 1, se_to_ue(7), 0, se_to_ue(-3)], np.int64)))
    levels = _read_levels(reader, {"uv": 2})["uv"]
    assert levels[0].flat[n * n - 1] == 7 and levels[1].flat[0] == -3
