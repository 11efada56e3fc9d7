"""The three pinned encodes of test_pins.py, shared by the tests that check
properties of their bitstreams: texture mode at gf 4, the baseline of the
same clip, and partial superblocks at q 16."""

import functools

from texcodec.codec import EncoderConfig, encode_sequence
from texcodec.sequences import panning_texture_sequence, random_sequence


@functools.lru_cache(maxsize=None)
def pinned_inputs():
    """Each pinned encode's (sequence, masks, config)."""
    seq, masks = panning_texture_sequence(96, 64, n_frames=5, seed=5)
    return ((seq, masks, EncoderConfig(gf_group_size=4)),
            (seq, None, EncoderConfig(texture_mode=False)),
            (random_sequence(80, 48, 3, seed=7), None,
             EncoderConfig(q_level=16, texture_mode=False)))


@functools.lru_cache(maxsize=None)
def pinned_encodes():
    """The EncodeResult of each pinned encode."""
    return tuple(encode_sequence(*args) for args in pinned_inputs())
