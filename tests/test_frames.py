"""Frame containers, Y4M / raw YUV I/O, padding and block addressing."""

import io

import numpy as np
import pytest

from texcodec.frames import (BlockRect, Frame, Sequence, Y4MError, crop_frame,
                             frame_size_bytes, pad16, pad_frame, read_y4m,
                             read_yuv, write_y4m)


def _random_frame(rng, w, h, index=0):
    return Frame(
        y=rng.integers(0, 256, (h, w), dtype=np.uint8),
        uv=np.stack((
            rng.integers(0, 256, ((h + 1) // 2, (w + 1) // 2), dtype=np.uint8),
            rng.integers(0, 256, ((h + 1) // 2, (w + 1) // 2), dtype=np.uint8))),
        frame_index=index,
    )


def _random_sequence(rng, w, h, n):
    return Sequence(frames=tuple(_random_frame(rng, w, h, i) for i in range(n)))


# ---------------------------------------------------------------------------
# read_y4m


def test_read_y4m_minimal_16x16():
    data = b"YUV4MPEG2 W16 H16 F30:1\nFRAME\n" + bytes(384)
    seq = read_y4m(data)
    assert len(seq) == 1
    assert (seq[0].width, seq[0].height) == (16, 16)


def test_read_y4m_two_frames_32x32_plane_sizes():
    # 4:2:0 arithmetic: Y = 32*32 = 1024, U = V = 16*16 = 256
    n = 32 * 32 + 2 * 16 * 16
    assert n == frame_size_bytes(32, 32)
    data = b"YUV4MPEG2 W32 H32 F25:1 C420jpeg\n" + 2 * (b"FRAME\n" + bytes(n))
    seq = read_y4m(data)
    assert len(seq) == 2
    for f in seq:
        assert f.y.size == 1024
        assert f.u.size == 256 and f.v.size == 256
    assert seq.frame_rate == (25, 1)


def test_read_y4m_rejects_c444():
    with pytest.raises(Y4MError, match="colourspace"):
        read_y4m(b"YUV4MPEG2 W16 H16 F30:1 C444\nFRAME\n" + bytes(768))


def test_read_y4m_rejects_bad_signature_and_truncation():
    with pytest.raises(Y4MError):
        read_y4m(b"NOTY4M W16 H16\n")
    with pytest.raises(Y4MError, match="truncated"):
        read_y4m(b"YUV4MPEG2 W16 H16 F30:1\nFRAME\n" + bytes(100))
    with pytest.raises(Y4MError, match="no frames"):
        read_y4m(b"YUV4MPEG2 W16 H16 F30:1\n")


def _padded_header(n: int) -> bytes:
    """An n-byte 16x16 Y4M header line, without its newline; the spaces
    that pad it are empty tokens."""
    return b"YUV4MPEG2 W16 H16 F30:1".ljust(n, b" ")


def test_read_y4m_header_length_limit():
    frame = b"FRAME\n" + bytes(384)
    assert len(read_y4m(_padded_header(512) + b"\n" + frame)) == 1
    with pytest.raises(Y4MError, match="too long"):
        read_y4m(_padded_header(513) + b"\n" + frame)
    with pytest.raises(Y4MError, match="truncated Y4M header"):
        read_y4m(_padded_header(512))


@pytest.mark.parametrize("tail,error", [
    (b"FRAME", "truncated FRAME marker"),
    (b"FRAME Ixyz", "truncated FRAME marker"),
    (b"FRAMX\n" + bytes(384), "expected FRAME marker"),
    (b"\n", "expected FRAME marker"),
    (b"YUV4MPEG2 W16 H16\n", "expected FRAME marker"),
])
def test_read_y4m_bad_frame_marker_after_a_frame(tail, error):
    head = b"YUV4MPEG2 W16 H16 F30:1\nFRAME\n" + bytes(384)
    with pytest.raises(Y4MError, match=error):
        read_y4m(head + tail)


def test_read_y4m_frame_line_parameters_are_skipped():
    seq = read_y4m(b"YUV4MPEG2 W16 H16 F30:1\nFRAME Ixyz\n"
                   + bytes(range(256)) + bytes(128))
    assert seq[0].y.tobytes() == bytes(range(256))


# ---------------------------------------------------------------------------
# write_y4m


def test_write_y4m_single_frame_layout():
    rng = np.random.default_rng(0)
    seq = _random_sequence(rng, 16, 16, 1)
    sink = io.BytesIO()
    n = write_y4m(seq, sink)
    data = sink.getvalue()
    assert n == len(data)
    header, rest = data.split(b"\n", 1)
    assert header.startswith(b"YUV4MPEG2 W16 H16 F30:1")
    assert rest.startswith(b"FRAME\n")
    assert len(rest) == len(b"FRAME\n") + 384  # 16*16 + 2*8*8


@pytest.mark.parametrize("w,h,n", [(16, 16, 1), (32, 16, 3), (34, 18, 2)])
def test_y4m_roundtrip_sample_exact(w, h, n):
    rng = np.random.default_rng(w * h + n)
    seq = _random_sequence(rng, w, h, n)
    sink = io.BytesIO()
    write_y4m(seq, sink)
    back = read_y4m(sink.getvalue())
    assert len(back) == n
    for a, b in zip(seq, back):
        assert a.same_samples(b)


def test_write_y4m_empty_sequence_rejected():
    with pytest.raises(Y4MError):
        write_y4m(Sequence(frames=()), io.BytesIO())


# ---------------------------------------------------------------------------
# raw yuv


def test_read_yuv_roundtrip_and_truncation():
    rng = np.random.default_rng(7)
    seq = _random_sequence(rng, 32, 16, 2)
    raw = b"".join(f.y.tobytes() + f.u.tobytes() + f.v.tobytes() for f in seq)
    back = read_yuv(raw, 32, 16)
    assert len(back) == 2
    for a, b in zip(seq, back):
        assert a.same_samples(b)
    assert len(read_yuv(raw, 32, 16, frame_count=1)) == 1
    with pytest.raises(Y4MError, match="truncated"):
        read_yuv(raw[:-1], 32, 16)
    with pytest.raises(Y4MError):
        read_yuv(raw, 0, 16)


# ---------------------------------------------------------------------------
# padding


def test_pad_frame_already_aligned_is_identity():
    rng = np.random.default_rng(1)
    f = _random_frame(rng, 16, 16)
    assert pad_frame(f) is f
    f2 = _random_frame(rng, 352, 288)  # 22*16 x 18*16
    assert pad_frame(f2) is f2


def test_pad_frame_17x16_replicates_last_column():
    rng = np.random.default_rng(2)
    f = _random_frame(rng, 17, 16)
    p = pad_frame(f)
    assert (p.width, p.height) == (32, 16)
    for x in range(17, 32):
        assert np.array_equal(p.y[:, x], f.y[:, 16])
    assert np.array_equal(p.y[:, :17], f.y)


def test_pad_frame_idempotent():
    rng = np.random.default_rng(3)
    f = _random_frame(rng, 21, 13)
    p1 = pad_frame(f)
    p2 = pad_frame(p1)
    assert p2 is p1


def test_pad16():
    assert pad16(16) == 16
    assert pad16(17) == 32
    assert pad16(1) == 16


def test_crop_inverts_pad():
    rng = np.random.default_rng(4)
    f = _random_frame(rng, 21, 13)
    c = crop_frame(pad_frame(f), 21, 13)
    assert c.same_samples(f)
    with pytest.raises(ValueError):
        crop_frame(f, 100, 100)


# ---------------------------------------------------------------------------
# containers


def test_frame_validates_chroma_shape():
    with pytest.raises(ValueError):
        # 4x4 chroma planes where 16x16 luma needs 8x8
        Frame(y=np.zeros((16, 16), np.uint8), uv=np.zeros((2, 4, 4), np.uint8))


def test_frame_planes_read_only():
    rng = np.random.default_rng(10)
    f = _random_frame(rng, 16, 16)
    with pytest.raises(ValueError):
        f.y[0, 0] = 1


def test_sequence_rejects_mixed_dimensions():
    rng = np.random.default_rng(11)
    with pytest.raises(ValueError):
        Sequence(frames=(_random_frame(rng, 16, 16), _random_frame(rng, 32, 16)))


def test_blockrect_cells():
    cols, rows = BlockRect(16, 32, 32).cells()
    assert list(cols) == [1, 2]
    assert list(rows) == [2, 3]
