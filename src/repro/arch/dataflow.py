"""Output-stationary tiled dataflow (Fig. 5), executed functionally.

The paper's simulator "implements the detail of the tiling algorithm";
this module does the same: it decomposes a GEMM into the exact sequence
of ``[Nh, Nlambda] x [Nlambda, Nv]`` tile-MMs, assigns them to tiles
(spatial, along the M1 rows) and cycles (temporal), performs analog
partial-sum accumulation over the temporal-accumulation window, and
digital sequential accumulation across windows — numerically, so the
schedule's correctness is testable against a plain matrix product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.arch.config import AcceleratorConfig


@dataclass(frozen=True)
class TileAssignment:
    """One tile-MM in the schedule."""

    cycle: int  #: accelerator clock cycle
    core: int  #: global core index executing the tile
    row_tile: int  #: M1 row-block index (spatial dimension)
    inner_tile: int  #: contraction block index
    col_tile: int  #: M2 column-block index


class OutputStationarySchedule:
    """Schedule of one ``[m, d] x [d, n]`` GEMM on the accelerator.

    Tiles are distributed round-robin over the ``Nt * Nc`` cores with
    the contraction dimension innermost, so consecutive cycles on one
    core accumulate into the same output block — the property the
    analog temporal accumulation of Sec. IV-C relies on.
    """

    def __init__(self, config: AcceleratorConfig, m: int, d: int, n: int) -> None:
        self.row_tiles, self.inner_tiles, self.col_tiles = (
            config.geometry.tile_counts(m, d, n)
        )
        self.config = config
        self.m, self.d, self.n = m, d, n

    @property
    def total_tiles(self) -> int:
        return self.row_tiles * self.inner_tiles * self.col_tiles

    @property
    def total_cycles(self) -> int:
        return math.ceil(self.total_tiles / self.config.n_cores)

    def assignments(self) -> Iterator[TileAssignment]:
        """Yield every tile-MM with its cycle and core assignment.

        Output blocks (row, col) are dealt round-robin to cores; each
        core then walks the contraction dimension sequentially.
        """
        n_cores = self.config.n_cores
        blocks = [
            (row, col)
            for row in range(self.row_tiles)
            for col in range(self.col_tiles)
        ]
        # Per-core work queues of (row, col, inner) in contraction order.
        queues: list[list[tuple[int, int, int]]] = [[] for _ in range(n_cores)]
        for index, (row, col) in enumerate(blocks):
            queues[index % n_cores].extend(
                (row, col, inner) for inner in range(self.inner_tiles)
            )
        for core, queue in enumerate(queues):
            for cycle, (row, col, inner) in enumerate(queue):
                yield TileAssignment(
                    cycle=cycle,
                    core=core,
                    row_tile=row,
                    inner_tile=inner,
                    col_tile=col,
                )

    def execute(
        self,
        a: np.ndarray,
        b: np.ndarray,
        tile_matmul: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    ) -> np.ndarray:
        """Run the GEMM through the schedule, tile by tile.

        Args:
            a, b: the operand matrices (``[m, d]`` and ``[d, n]``).
            tile_matmul: executor for one zero-padded
                ``[Nh, Nlambda] x [Nlambda, Nv]`` tile product; defaults
                to exact arithmetic.  Pass a noisy
                :meth:`repro.core.DPTC.tile_matmul` to simulate analog
                execution through the real dataflow.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.shape != (self.m, self.d) or b.shape != (self.d, self.n):
            raise ValueError(
                f"operand shapes {a.shape} x {b.shape} do not match the "
                f"scheduled GEMM [{self.m},{self.d}] x [{self.d},{self.n}]"
            )
        if tile_matmul is None:
            tile_matmul = np.matmul

        geometry = self.config.geometry
        depth = self.config.optimizations.effective_accumulation_depth
        output = np.zeros((self.m, self.n))

        # Group per output block so analog accumulation windows are
        # explicit: partial photocurrents accumulate for `depth` inner
        # tiles before one A/D conversion and digital accumulation.
        for row in range(self.row_tiles):
            row_lo = row * geometry.n_h
            row_hi = min(row_lo + geometry.n_h, self.m)
            for col in range(self.col_tiles):
                col_lo = col * geometry.n_v
                col_hi = min(col_lo + geometry.n_v, self.n)
                digital_acc = np.zeros((geometry.n_h, geometry.n_v))
                analog_acc = np.zeros((geometry.n_h, geometry.n_v))
                window = 0
                for inner in range(self.inner_tiles):
                    inner_lo = inner * geometry.n_lambda
                    inner_hi = min(inner_lo + geometry.n_lambda, self.d)
                    a_tile = np.zeros((geometry.n_h, geometry.n_lambda))
                    b_tile = np.zeros((geometry.n_lambda, geometry.n_v))
                    a_tile[: row_hi - row_lo, : inner_hi - inner_lo] = a[
                        row_lo:row_hi, inner_lo:inner_hi
                    ]
                    b_tile[: inner_hi - inner_lo, : col_hi - col_lo] = b[
                        inner_lo:inner_hi, col_lo:col_hi
                    ]
                    analog_acc += tile_matmul(a_tile, b_tile)
                    window += 1
                    if window == depth:
                        digital_acc += analog_acc  # one A/D conversion
                        analog_acc = np.zeros_like(analog_acc)
                        window = 0
                if window:
                    digital_acc += analog_acc
                output[row_lo:row_hi, col_lo:col_hi] = digital_acc[
                    : row_hi - row_lo, : col_hi - col_lo
                ]
        return output


def os_dataflow_matmul(
    config: AcceleratorConfig,
    a: np.ndarray,
    b: np.ndarray,
    tile_matmul: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Convenience wrapper: schedule and execute ``a @ b``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible matmul shapes: {a.shape} x {b.shape}")
    schedule = OutputStationarySchedule(config, a.shape[0], a.shape[1], b.shape[1])
    return schedule.execute(a, b, tile_matmul)
