"""Engine hot-path benchmark: stage breakdown + matmul throughput.

Sections:

* **Per-stage breakdown** — best-of wall-clock of the four stages
  (sample / encode / compute / detect) that one noisy
  :meth:`~repro.core.dptc.DPTC.matmul` runs, on the headline batched
  matmul, via :func:`repro.core.hotpath.profile_stages`; recorded in
  the artifact so stage regressions show up in CI trends.

* **Throughput floor** (nightly) — effective single-engine matmul
  throughput (GFLOP/s over the end-to-end noisy call) must clear
  :data:`MIN_THROUGHPUT_GFLOPS`.  ``--report-only`` (the fast lane)
  records it without asserting.

Emits a ``BENCH_hotpath.json`` artifact (``--out PATH`` to relocate)
with every number printed, including ``host_cpus``.
"""

import json
import os

import numpy as np

from repro.core import DPTC, NoiseModel
from repro.core.hotpath import STAGES, profile_stages

#: Headline batched case: an attention-shaped stack.
HEAD_BATCH = 64
HEAD_M = 32
HEAD_D = 64
HEAD_N = 32

#: Nightly floor on effective single-engine matmul throughput.
MIN_THROUGHPUT_GFLOPS = 0.2


def stage_breakdown() -> dict:
    """Per-stage best-of timings and throughput of the headline matmul."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=(HEAD_BATCH, HEAD_M, HEAD_D))
    b = rng.normal(size=(HEAD_BATCH, HEAD_D, HEAD_N))
    core = DPTC(noise=NoiseModel.paper_default())
    times = profile_stages(core, a, b, seed=0, repeats=5)
    flop = 2.0 * HEAD_BATCH * HEAD_M * HEAD_D * HEAD_N
    return {
        "shape": [HEAD_BATCH, HEAD_M, HEAD_D, HEAD_N],
        "seconds": times,
        "share": {name: times[name] / times["total"] for name in STAGES},
        "throughput_gflops": flop / times["total"] / 1e9,
    }


def run(enforce_floors: bool = True, out_path: str = "BENCH_hotpath.json") -> dict:
    stages = stage_breakdown()
    print("Per-stage breakdown "
          f"([{HEAD_BATCH}x{HEAD_M}x{HEAD_D}] x [{HEAD_BATCH}x{HEAD_D}x{HEAD_N}])")
    for name in STAGES:
        print(
            f"  {name:7s}: {stages['seconds'][name] * 1e3:7.3f} ms "
            f"({100.0 * stages['share'][name]:5.1f} %)"
        )
    print(f"  total  : {stages['seconds']['total'] * 1e3:7.3f} ms")
    print(
        f"  engine throughput {stages['throughput_gflops']:.3f} GFLOP/s "
        f"(floor {MIN_THROUGHPUT_GFLOPS:.2f})"
    )
    if enforce_floors:
        assert stages["throughput_gflops"] >= MIN_THROUGHPUT_GFLOPS, (
            f"engine throughput {stages['throughput_gflops']:.3f} GFLOP/s "
            f"below the {MIN_THROUGHPUT_GFLOPS:.2f} floor"
        )

    report = {"host_cpus": os.cpu_count() or 1, "stages": stages}
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"\nwrote {out_path}")
    return report


if __name__ == "__main__":
    from _gate import main

    main(run, __doc__, "the throughput floor")
