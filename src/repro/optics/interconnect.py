"""Optical broadcast interconnect: the physical layer of Sec. IV-C.1.

The architecture-level inter-core operand broadcast rides an optical
distribution network: Y-branch splitter trees fan the modulated WDM
signals out to the DPTC tiles.  This module builds that network as an
explicit tree (a child -> parent hop map), so per-destination path loss,
splitter counts, and the laser power budget follow from the topology
rather than from a closed-form approximation — and the closed form used
by :func:`repro.devices.laser.splitter_tree_loss_db` can be validated
against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.devices.library import DeviceLibrary, default_library
from repro.units import db_to_linear

#: Waveguide propagation loss (dB per metre) for the distribution bus.
WAVEGUIDE_LOSS_DB_PER_M = 100.0  # 1 dB/cm

#: Physical pitch between adjacent tile drop points.
TILE_PITCH_M = 2e-3  # 2 mm


@dataclass(frozen=True)
class PathReport:
    """Loss accounting for one source-to-destination optical path."""

    destination: str
    splitters: int
    waveguide_length: float  #: m
    loss_db: float

    @property
    def transmission(self) -> float:
        return 1.0 / db_to_linear(self.loss_db)


class BroadcastTree:
    """A balanced Y-branch tree delivering one signal to ``n_leaves``.

    Nodes are ``root``, internal ``split/<level>/<index>`` junctions and
    ``leaf/<index>`` destinations; each non-root node records its parent
    hop: the parent's name, whether the hop leaves a splitter, and the
    waveguide length.
    """

    def __init__(
        self,
        n_leaves: int,
        library: DeviceLibrary | None = None,
        tile_pitch: float = TILE_PITCH_M,
    ) -> None:
        if n_leaves < 1:
            raise ValueError(f"n_leaves must be >= 1, got {n_leaves}")
        self.n_leaves = n_leaves
        self.library = library if library is not None else default_library()
        self.tile_pitch = tile_pitch
        #: child -> (parent, splitter hop, hop length in m).
        self._parent: dict[str, tuple[str, bool, float]] = {}
        self._build()

    @property
    def depth(self) -> int:
        """Splitter stages from root to any leaf."""
        return math.ceil(math.log2(self.n_leaves)) if self.n_leaves > 1 else 0

    def _build(self) -> None:
        parent = self._parent
        frontier = ["root"]
        level = 0
        # Grow a balanced binary tree until there are enough leaves.
        while len(frontier) < self.n_leaves:
            level += 1
            next_frontier = []
            for index, node in enumerate(frontier):
                for side in (0, 1):
                    child = f"split/{level}/{2 * index + side}"
                    parent[child] = (node, True, self.tile_pitch / 2)
                    next_frontier.append(child)
            frontier = next_frontier
        for index in range(self.n_leaves):
            parent[f"leaf/{index}"] = (
                frontier[index % len(frontier)],
                False,
                self.tile_pitch * (1 + index % 2),
            )

    def leaves(self) -> list[str]:
        return [f"leaf/{index}" for index in range(self.n_leaves)]

    def path_report(self, leaf: str) -> PathReport:
        """Loss accounting from the root to one destination."""
        if leaf != "root" and leaf not in self._parent:
            raise KeyError(f"unknown destination {leaf!r}")
        hops = []
        node = leaf
        while node != "root":
            node, splitter, hop_length = self._parent[node]
            hops.append((splitter, hop_length))
        splitters = 0
        length = 0.0
        for splitter, hop_length in reversed(hops):  # sum from the root
            splitters += int(splitter)
            length += hop_length
        # Each split halves the power (3.01 dB) and adds the Y-branch
        # excess loss; the waveguide adds propagation loss.
        split_loss = splitters * (
            10 * math.log10(2) + self.library.y_branch.insertion_loss_db
        )
        propagation = length * WAVEGUIDE_LOSS_DB_PER_M
        return PathReport(
            destination=leaf,
            splitters=splitters,
            waveguide_length=length,
            loss_db=split_loss + propagation,
        )

    def worst_case_loss_db(self) -> float:
        """Loss of the lossiest destination (sets the laser budget)."""
        return max(self.path_report(leaf).loss_db for leaf in self.leaves())

    def total_splitters(self) -> int:
        """Y-branches in the tree (area accounting).

        Each splitting junction fans one input into two outputs, so the
        count is half the number of splitter hops.
        """
        return sum(splitter for _, splitter, _ in self._parent.values()) // 2

    def power_conservation_check(self) -> float:
        """Sum of ideal leaf transmissions (1.0 for a lossless tree).

        With excess losses the sum falls below 1; it can never exceed 1
        (a passive network cannot create power) — a structural sanity
        check used by the tests.
        """
        total = 0.0
        for leaf in self.leaves():
            report = self.path_report(leaf)
            total += report.transmission
        return total


def broadcast_loss_budget(
    n_tiles: int, library: DeviceLibrary | None = None
) -> float:
    """Worst-case inter-core broadcast loss (dB) for an Nt-tile fabric."""
    return BroadcastTree(n_tiles, library).worst_case_loss_db()
