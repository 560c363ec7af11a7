"""Multi-core sharded execution + batched training loop benchmark.

Sections, each with a hard equivalence gate and a measurement:

* **Sharding equivalence** — for every ``num_cores`` in the scaling
  sweep (including cores > batch and non-divisible shards) the ideal
  sharded result must be *bit-identical* to the single-core batched
  :meth:`DPTC.matmul` on *both* shard axes (the exactness contract;
  the ideal contraction path evaluates one exact full product because
  hardware digital accumulation is exact).  The *genuine* K-split
  machinery — per-core slabs of a non-divisible ``d % num_cores``
  split merged by the digital partial-sum accumulator — is gated by a
  deterministic dispersion-only calibrated run that must recover the
  exact product, plus a direct splitter/accumulator mechanics check.
  The noisy sharded path must be reproducible under a fixed seed and
  statistically consistent with single-core execution.
* **Scaling curve** — wall-clock of a noisy batched attention-shaped
  stack for ``num_cores in {1, 2, 4, 8}``, swept over both shard axes
  (a batch-vs-contraction comparison, ``shard_axis`` recorded per
  row).  The cores run one after another on the calling thread, so
  the curve records the per-core sharding overhead (stream spawning,
  smaller per-core products, slab accumulation), not host
  parallelism; the hardware's parallel speedup is priced by
  :mod:`repro.arch.latency`.  The curve is a trend record, not a gate.
* **Training loop** — the batched minibatch :func:`train_classifier`
  versus the seed per-sample loop (preserved as
  :func:`train_classifier_reference`): losses must agree to machine
  precision on a deterministic executor, and the noisy noise-aware run
  must show a measured speedup.

Emits a ``BENCH_sharded.json`` artifact (``--out PATH`` to relocate)
with every number printed, for the CI trend record.  Every scaling row
records ``shard_axis`` so nightly artifacts distinguish the lanes.
``--report-only`` relaxes the *speedup* floors
(CI runners schedule unpredictably); the numerical equivalence gates
always apply.
"""

import json
import os
import time

import numpy as np

from repro.core import (
    DPTC,
    CalibratedDPTC,
    DigitalAccumulator,
    NoiseModel,
    ShardedDPTC,
    contraction_slabs,
)
from repro.core.hotpath import best_of
from repro.core.noise import EncodingNoise, SystematicNoise
from repro.neural import (
    PhotonicExecutor,
    TinyViT,
    striped_image_dataset,
    train_classifier,
    train_classifier_reference,
)

#: Core counts of the scaling sweep (LT-B provisions 8 cores).
CORE_COUNTS = (1, 2, 4, 8)

#: Noisy attention-shaped workload for the scaling curve.
SCALING_BATCH = 64
SCALING_TOKENS = 32
SCALING_DIM = 64

#: Acceptance floor for the batched-over-per-sample training speedup.
MIN_TRAIN_SPEEDUP = 2.0


def sharding_equivalence() -> dict:
    """Bit-exactness, edge-case, and reproducibility gates (both axes)."""
    rng = np.random.default_rng(0)
    # d=25 makes the contraction split non-divisible at every multi-core
    # count in the sweep; the batch cases keep their original shapes.
    cases = {
        "even": (rng.normal(size=(8, 6, 24)), rng.normal(size=(8, 24, 6))),
        "non_divisible": (rng.normal(size=(7, 6, 24)), rng.normal(size=(7, 24, 6))),
        "cores_gt_batch": (rng.normal(size=(3, 6, 24)), rng.normal(size=(3, 24, 6))),
        "broadcast_weight": (rng.normal(size=(6, 5, 24)), rng.normal(size=(24, 4))),
        "no_batch_axes": (rng.normal(size=(9, 24)), rng.normal(size=(24, 9))),
        "non_divisible_k": (rng.normal(size=(5, 6, 25)), rng.normal(size=(5, 25, 6))),
    }
    single = DPTC(noise=NoiseModel.ideal())
    ideal_bit_exact = {axis: True for axis in ("batch", "contraction")}
    for a, b in cases.values():
        reference = single.matmul(a, b)
        for num_cores in CORE_COUNTS:
            for axis in ideal_bit_exact:
                sharded = ShardedDPTC(num_cores=num_cores, shard_axis=axis)
                if not np.array_equal(sharded.matmul(a, b), reference):
                    ideal_bit_exact[axis] = False

    # The ideal gate above checks the engine's exactness *contract*
    # (the ideal contraction path evaluates one exact full product —
    # the digital accumulator is exact in hardware).  The genuine
    # K-split machinery is gated separately: dispersion-only noise is
    # deterministic but NOT ideal, so a calibrated 4-core engine really
    # slices d=25 into per-core slabs and digitally accumulates the
    # partials — and must still recover the exact product to ~1e-9.
    dispersion_only = NoiseModel(
        encoding=EncodingNoise(0.0, 0.0),
        systematic=SystematicNoise(0.0),
        include_dispersion=True,
    )
    a_k, b_k = cases["non_divisible_k"]
    calibrated = ShardedDPTC(
        num_cores=4,
        noise=dispersion_only,
        core_cls=CalibratedDPTC,
        shard_axis="contraction",
    )
    exact = np.matmul(a_k, b_k)
    slab_rel_error = float(
        np.linalg.norm(calibrated.matmul(a_k, b_k) - exact) / np.linalg.norm(exact)
    )
    # And the splitter + accumulator mechanics directly: ideal per-slab
    # products summed in core order agree with the full product to
    # float64 reassociation precision.
    acc = DigitalAccumulator.accumulate(
        [
            sa @ sb
            for sa, sb in zip(
                contraction_slabs(a_k, 4, axis=-1),
                contraction_slabs(b_k, 4, axis=-2),
            )
            if sa.shape[-1] > 0
        ]
    )
    slab_path_exact = bool(
        slab_rel_error < 1e-9 and np.allclose(acc, exact, rtol=1e-12, atol=1e-12)
    )

    seeded_reproducible = {}
    noisy_engines = {}
    for axis, case in (("batch", "non_divisible"), ("contraction", "non_divisible_k")):
        noisy = ShardedDPTC(
            num_cores=4, noise=NoiseModel.paper_default(), shard_axis=axis
        )
        noisy_engines[axis] = (noisy, cases[case])
        a, b = cases[case]
        first = noisy.matmul(a, b, rng=np.random.default_rng(7))
        second = noisy.matmul(a, b, rng=np.random.default_rng(7))
        seeded_reproducible[axis] = bool(np.array_equal(first, second))

    errors = {}
    consistent = {}
    for axis, (noisy, (a, b)) in noisy_engines.items():
        exact = np.matmul(a, b)
        scale = np.linalg.norm(exact)
        single_noisy = DPTC(noise=NoiseModel.paper_default())
        axis_errors = {}
        for name, engine in (("single_core", single_noisy), ("sharded_4", noisy)):
            draws = [
                np.linalg.norm(
                    engine.matmul(a, b, rng=np.random.default_rng(100 + seed)) - exact
                )
                / scale
                for seed in range(20)
            ]
            axis_errors[name] = float(np.mean(draws))
        errors[axis] = axis_errors
        consistent[axis] = bool(
            abs(axis_errors["sharded_4"] - axis_errors["single_core"])
            < 0.5 * axis_errors["single_core"]
        )
    return {
        "ideal_bit_exact": ideal_bit_exact,
        "slab_path_exact": slab_path_exact,
        "slab_path_rel_error": slab_rel_error,
        "seeded_reproducible": seeded_reproducible,
        "noise_mean_rel_error": errors,
        "noise_statistics_consistent": consistent,
    }


def scaling_curve() -> list[dict]:
    """Wall-clock of one noisy batched matmul per core count and axis.

    The batch-vs-contraction comparison: the same attention-shaped
    stack sharded along the leading batch axis and along the K axis
    (digital partial-sum accumulation).  Each row records
    ``shard_axis`` so artifact lanes stay distinguishable.
    """
    rng = np.random.default_rng(1)
    a = rng.normal(size=(SCALING_BATCH, SCALING_TOKENS, SCALING_DIM))
    b = rng.normal(size=(SCALING_BATCH, SCALING_DIM, SCALING_TOKENS))
    rows = []
    for shard_axis in ("batch", "contraction"):
        base_ms = None
        for num_cores in CORE_COUNTS:
            engine = ShardedDPTC(
                num_cores=num_cores,
                noise=NoiseModel.paper_default(),
                shard_axis=shard_axis,
            )

            def step():
                engine.matmul(a, b, rng=np.random.default_rng(2))

            elapsed_ms = best_of(step, 5, inner=2) * 1e3
            if base_ms is None:
                base_ms = elapsed_ms
            rows.append(
                {
                    "shard_axis": shard_axis,
                    "num_cores": num_cores,
                    "ms": elapsed_ms,
                    "speedup_vs_1_core": base_ms / elapsed_ms,
                }
            )
    return rows


def training_equivalence() -> dict:
    """Batched loop == seed per-sample loop on a deterministic executor."""
    data = striped_image_dataset(n_samples=32, n_classes=4, seed=1)
    batched = train_classifier(
        TinyViT(n_classes=4, depth=1, seed=0), data, epochs=2, lr=5e-3, seed=0
    )
    reference = train_classifier_reference(
        TinyViT(n_classes=4, depth=1, seed=0), data, epochs=2, lr=5e-3, seed=0
    )
    max_loss_deviation = float(
        max(abs(x - y) for x, y in zip(batched.losses, reference.losses))
    )
    return {
        "batched_losses": batched.losses,
        "reference_losses": reference.losses,
        "max_loss_deviation": max_loss_deviation,
        "accuracy_match": batched.train_accuracy == reference.train_accuracy,
    }


def training_speedup(num_cores: int = 2) -> dict:
    """Noise-aware minibatch training: batched loop vs. per-sample loop."""
    data = striped_image_dataset(n_samples=32, n_classes=4, seed=2)

    def run_batched() -> float:
        model = TinyViT(
            n_classes=4,
            depth=1,
            executor=PhotonicExecutor.paper_default(seed=0, num_cores=num_cores),
            seed=0,
        )
        start = time.perf_counter()
        train_classifier(model, data, epochs=1, lr=5e-3, seed=0)
        return time.perf_counter() - start

    def run_reference() -> float:
        model = TinyViT(
            n_classes=4,
            depth=1,
            executor=PhotonicExecutor.paper_default(seed=0),
            seed=0,
        )
        start = time.perf_counter()
        train_classifier_reference(model, data, epochs=1, lr=5e-3, seed=0)
        return time.perf_counter() - start

    batched_s = min(run_batched() for _ in range(3))
    reference_s = min(run_reference() for _ in range(2))
    return {
        "workload": f"TinyViT noise-aware epoch, 32 samples, {num_cores} cores",
        "batched_s": batched_s,
        "per_sample_s": reference_s,
        "speedup": reference_s / batched_s,
    }


def run(enforce_floors: bool = True, out_path: str = "BENCH_sharded.json") -> dict:
    equiv = sharding_equivalence()
    print("Sharding equivalence")
    for axis in ("batch", "contraction"):
        print(
            f"  [{axis}] ideal bit-exact {equiv['ideal_bit_exact'][axis]} | "
            f"seed-reproducible {equiv['seeded_reproducible'][axis]} | "
            "rel err single {single_core:.4f} vs sharded(4) {sharded_4:.4f}".format(
                **equiv["noise_mean_rel_error"][axis]
            )
        )
        assert equiv["ideal_bit_exact"][axis], (
            f"ideal {axis}-sharded path must be bit-exact"
        )
        assert equiv["seeded_reproducible"][axis], (
            f"{axis}-sharded noise must be seed-reproducible"
        )
        assert equiv["noise_statistics_consistent"][axis], (
            f"per-core noise statistics drifted ({axis})"
        )
    print(
        "  [contraction] genuine K-split slab path (calibrated, d=25/4 cores) "
        f"exact to {equiv['slab_path_rel_error']:.1e}"
    )
    assert equiv["slab_path_exact"], (
        "calibrated contraction slab path must recover the exact product"
    )

    train_equiv = training_equivalence()
    print("\nBatched training loop equivalence (ideal executor)")
    print(f"  max loss deviation vs per-sample loop : {train_equiv['max_loss_deviation']:.2e}")
    assert train_equiv["max_loss_deviation"] < 1e-9, "training loops must agree"
    assert train_equiv["accuracy_match"], "training accuracies must agree"

    print("\nScaling curve (noisy batched matmul, "
          f"[{SCALING_BATCH}x{SCALING_TOKENS}x{SCALING_DIM}] stack, "
          "cores run in core order, batch vs contraction sharding)")
    scaling = scaling_curve()
    for row in scaling:
        print(
            f"  [{row['shard_axis']:11s}] "
            f"{row['num_cores']} core(s): {row['ms']:7.2f} ms "
            f"({row['speedup_vs_1_core']:.2f}x vs 1 core)"
        )

    train = training_speedup()
    print(f"\nTraining loop: {train['workload']}")
    print(
        f"  batched {train['batched_s'] * 1e3:7.1f} ms | per-sample "
        f"{train['per_sample_s'] * 1e3:7.1f} ms | speedup {train['speedup']:.1f}x "
        f"(floor {MIN_TRAIN_SPEEDUP:.0f}x)"
    )
    if enforce_floors:
        assert train["speedup"] >= MIN_TRAIN_SPEEDUP, (
            f"batched training speedup {train['speedup']:.2f}x below the "
            f"{MIN_TRAIN_SPEEDUP:.0f}x floor"
        )

    report = {
        "host_cpus": os.cpu_count() or 1,
        "equivalence": equiv,
        "training_equivalence": train_equiv,
        "scaling": scaling,
        "training_speedup": train,
    }
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"\nwrote {out_path}")
    return report


if __name__ == "__main__":
    from _gate import main

    main(run, __doc__, "the speedup floors")
