"""Train the texture classifier on a small synthetic dataset and segment a
frame with it.

Walks the first half of the pipeline: synthesize labeled 16x16 patches,
train the CNN until balanced validation accuracy is solid, then run it over
a composite frame that is noise texture on the left and flat/structured
content on the right, and print the resulting block-label grid.
"""

import numpy as np

from texcodec.analyzer import clean_mask, segment_frame, train_classifier
from texcodec.datasets import TEXTURE, DatasetConfig, synthesize_dataset
from texcodec.frames import Frame
from texcodec.nnet import TrainConfig
from texcodec.sequences import _noise_texture


def main():
    print("synthesizing dataset (400 texture / 1600 non-texture patches)...")
    ds = synthesize_dataset(DatasetConfig(n_texture=400, n_non_texture=1600),
                            seed=0)
    print(f"  {len(ds)} patches, class counts {ds.class_counts}")

    cfg = TrainConfig(batch_size=128, epochs=8, rng_seed=0)
    print("training (SGD, momentum 0.9, weight decay 5e-4)...")
    net, log = train_classifier(ds, cfg, target_val_accuracy=0.97)
    for e in log:
        acc = e.get("val_balanced_accuracy")
        extra = f"  val_bal_acc {acc:.4f}" if acc is not None else ""
        print(f"  epoch {e['epoch']:2d}  loss {e['train_loss']:.4f}{extra}")

    # composite frame: texture on the left half, flat gradient on the right
    rng = np.random.default_rng(1)
    h, w = 96, 128
    y = np.zeros((h, w), np.uint8)
    y[:, : w // 2] = _noise_texture(rng, h, w // 2, sigma=0.8)
    y[:, w // 2:] = np.linspace(40, 200, w // 2, dtype=np.uint8)[None, :]
    frame = Frame(y=y, uv=np.full((2, h // 2, w // 2), 128, np.uint8))

    mask = clean_mask(segment_frame(frame, net), min_region_blocks=2)
    print("\nblock labels (T = texture, . = non-texture):")
    for row in mask.labels:
        print("  " + "".join("T" if v == TEXTURE else "." for v in row))


if __name__ == "__main__":
    main()
