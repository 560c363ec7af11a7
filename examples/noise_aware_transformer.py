"""Noise-aware training and robustness evaluation of an optical ViT.

Run with::

    python examples/noise_aware_transformer.py

Reproduces the paper's software-model workflow end to end on the
synthetic ``striped_image_dataset`` vision task that stands in for
ImageNet (the substitution is described in the ``repro.analysis.accuracy``
docstring):

1. train a DeiT-style model with the photonic forward pass (quantized
   to 4 bits, encoding noise + dispersion + systematic noise injected);
2. evaluate the same checkpoint as the noise-free digital reference
   (the paper's "GPU" line in Figs. 14-15);
3. sweep the magnitude-noise intensity to show the robustness plateau
   inside the paper's range and the eventual collapse far beyond it.
"""

import numpy as np

from repro.core import DPTCGeometry, EncodingNoise, NoiseModel, SystematicNoise
from repro.neural import (
    PhotonicExecutor,
    QuantConfig,
    TinyViT,
    evaluate,
    striped_image_dataset,
    train_classifier,
)


def main() -> None:
    data = striped_image_dataset(n_samples=320, n_classes=6, noise=0.9, seed=0)
    train, test = data.split(0.75)
    print(f"dataset: {len(train)} train / {len(test)} test images, 6 classes")

    print("\ntraining with the noisy photonic forward pass (4-bit)...")
    model = TinyViT(
        n_classes=6,
        depth=2,
        executor=PhotonicExecutor.paper_default(QuantConfig.int4(), seed=0),
        seed=0,
    )
    result = train_classifier(model, train, epochs=12, lr=3e-3, seed=0, verbose=True)
    print(f"final training accuracy: {result.train_accuracy:.3f}")

    model.set_executor(PhotonicExecutor.digital_reference(QuantConfig.int4()))
    digital = evaluate(model, test)
    print(f"\ndigital (noise-free quantized) test accuracy: {digital:.3f}")

    print("\nmagnitude-noise sweep (paper range is 0.02-0.08):")
    print(f"{'noise std':>10}  {'accuracy':>8}  {'drop':>7}")
    for magnitude in (0.02, 0.04, 0.08, 0.15, 0.30):
        noise = NoiseModel(
            encoding=EncodingNoise(magnitude, 2.0),
            systematic=SystematicNoise(0.05),
            include_dispersion=True,
        )
        model.set_executor(
            PhotonicExecutor(
                geometry=DPTCGeometry(),
                noise=noise,
                quant=QuantConfig.int4(),
                rng=np.random.default_rng(1),
            )
        )
        acc = evaluate(model, test)
        print(f"{magnitude:>10.2f}  {acc:>8.3f}  {digital - acc:>+7.3f}")

    print(
        "\nInside the paper's sweep the drop stays within a couple of test "
        "samples; far beyond it the analog noise finally wins."
    )


if __name__ == "__main__":
    main()
