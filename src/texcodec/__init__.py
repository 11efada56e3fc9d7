"""Texture-analysis/synthesis video coding laboratory.

A small numpy/scipy toolchain that segments video frames into texture and
non-texture 16x16 blocks with a tiny CNN, estimates per-frame texture motion,
codes sequences with a quadtree block codec whose texture blocks are
synthesized by global-motion warping with zero residual, and evaluates the
result with non-texture PSNR, bits/frame and Bjontegaard deltas.
"""

__version__ = "0.1.0"
