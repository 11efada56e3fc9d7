"""Closed-form code lengths against the bits the writer emits, a leaf's
coefficient codes against a per-TU reference, and the word-level bit
writer/reader against a bit-by-bit reference."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from texcodec.bitio import (BitReader, BitstreamError, BitWriter, se_to_ue,
                            ue_bits)
from texcodec.codec import (CHROMA_TU, LUMA_TU, MAX_LEVEL, BlockMode, _Leaf,
                            _coeff_codes, _leaf_bits, _read_coeffs, _write_leaf)
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


def _ref_pack(bits):
    bits += "0" * (-len(bits) % 8)
    return bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits), 8))


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


@SETTINGS
@given(_leaves(), st.booleans())
def test_leaf_bits_matches_writer(leaf, with_flag):
    bw = BitWriter()
    if with_flag:
        bw.write_bit(0)
    _write_leaf(bw, leaf)
    assert _leaf_bits(leaf, with_flag) == bw.bits_written


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
@given(*_PLANE_LEVELS)
def test_coeffs_roundtrip(seed, k, n, kind):
    levels = _levels(np.random.default_rng(seed), k, n, kind)
    bw = BitWriter()
    bw.write_ues(_coeff_codes(levels)[0])
    br = BitReader(bw.to_bytes())
    assert np.array_equal(_read_coeffs(br, k, n), levels)
    assert br._pos == bw.bits_written


# ---------------------------------------------------------------------------
# word-level writer and reader


@SETTINGS
@given(st.lists(_OPS, max_size=40))
def test_writer_matches_bit_by_bit_reference(ops):
    bw, ref = _write(ops)
    assert bw.bits_written == len(ref)
    assert bw.to_bytes() == _ref_pack(ref)


@SETTINGS
@given(st.lists(_OPS, max_size=40))
def test_reader_matches_bit_by_bit_reference(ops):
    _, ref = _write(ops)
    data = _ref_pack(ref)
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
    br = BitReader(_ref_pack(ref)[:cut])
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
@given(st.integers(0, 15), st.lists(_CODES, max_size=60), st.data())
def test_read_ues_matches_reference(skip, codes, data):
    bits = "1" * skip + "".join(codes)
    bits = bits[:data.draw(st.integers(skip, len(bits)))]
    packed = _ref_pack(bits)
    padded = "".join(format(b, "08b") for b in packed)
    want, err, end = _ref_read_ues(padded, skip, len(codes))
    br = BitReader(packed)
    if skip:
        br.read_bits(skip)
    if err is None:
        assert br.read_ues(len(codes)) == want
    else:
        with pytest.raises(BitstreamError, match=err):
            br.read_ues(len(codes))
    assert br._pos == end  # where the failing code starts, as read_ue leaves it


def _coeff_stream(pairs):
    """ue(count), then ue(run) and se(level) of each (run, level) pair."""
    bw = BitWriter()
    bw.write_ue(len(pairs))
    for run, level in pairs:
        bw.write_ue(run)
        bw.write_ue(se_to_ue(level))
    return BitReader(bw.to_bytes())


def test_read_coeffs_reports_first_range_error_in_stream_order():
    n = CHROMA_TU
    with pytest.raises(BitstreamError, match="count"):
        _read_coeffs(_coeff_stream([(0, 1)] * (n * n + 1)), 1, n)
    with pytest.raises(BitstreamError, match="level"):
        _read_coeffs(_coeff_stream([(0, MAX_LEVEL + 1), (n * n, 1)]), 1, n)
    with pytest.raises(BitstreamError, match="position"):
        _read_coeffs(_coeff_stream([(n * n, MAX_LEVEL + 1), (0, 1)]), 1, n)
    with pytest.raises(BitstreamError, match="position"):
        _read_coeffs(_coeff_stream([(0, 1), (n * n - 1, -MAX_LEVEL - 1)]), 1, n)
    levels = _read_coeffs(
        _coeff_stream([(0, -MAX_LEVEL), (n * n - 2, MAX_LEVEL)]), 1, n)
    assert levels.flat[0] == -MAX_LEVEL and levels.flat[n * n - 1] == MAX_LEVEL
