"""Tests for the optical broadcast interconnect tree."""

import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.devices import default_library, splitter_tree_loss_db
from repro.optics.interconnect import (
    BroadcastTree,
    broadcast_loss_budget,
    PathReport,
)


class TestTreeStructure:
    def test_single_leaf_no_splitters(self):
        tree = BroadcastTree(1)
        assert tree.depth == 0
        assert tree.total_splitters() == 0

    def test_two_leaves_one_splitter(self):
        tree = BroadcastTree(2)
        assert tree.depth == 1
        assert tree.total_splitters() == 1

    def test_depth_is_log2(self):
        assert BroadcastTree(4).depth == 2
        assert BroadcastTree(8).depth == 3
        assert BroadcastTree(5).depth == 3  # rounded up

    def test_all_leaves_reachable(self):
        tree = BroadcastTree(6)
        for leaf in tree.leaves():
            report = tree.path_report(leaf)
            assert isinstance(report, PathReport)
            assert report.loss_db > 0

    def test_unknown_leaf_rejected(self):
        with pytest.raises(KeyError):
            BroadcastTree(4).path_report("leaf/99")

    def test_validation(self):
        with pytest.raises(ValueError):
            BroadcastTree(0)


class TestLossAccounting:
    def test_splitters_on_path_equal_depth(self):
        tree = BroadcastTree(8)
        for leaf in tree.leaves():
            assert tree.path_report(leaf).splitters == 3

    def test_loss_grows_with_fanout(self):
        losses = [BroadcastTree(n).worst_case_loss_db() for n in (2, 4, 8, 16)]
        assert losses == sorted(losses)

    def test_each_split_costs_3db_plus_excess(self):
        lib = default_library()
        two = BroadcastTree(2).path_report("leaf/0")
        split_only = 10 * math.log10(2) + lib.y_branch.insertion_loss_db
        assert two.loss_db == pytest.approx(
            split_only + two.waveguide_length * 100.0, rel=1e-6
        )

    def test_power_conservation(self):
        """A passive splitter network cannot deliver more total power
        than it receives."""
        for n in (1, 2, 4, 7, 16):
            assert BroadcastTree(n).power_conservation_check() <= 1.0 + 1e-9

    def test_matches_closed_form_within_band(self):
        """The analytic splitter_tree_loss_db used by the laser model
        approximates the graph's split losses (propagation excluded)."""
        lib = default_library()
        for n in (2, 4, 8, 16):
            tree = BroadcastTree(n, tile_pitch=0.0)  # no propagation
            assert tree.worst_case_loss_db() == pytest.approx(
                splitter_tree_loss_db(n, lib), abs=1.0
            )

    @given(n=st.integers(min_value=1, max_value=32))
    def test_worst_case_dominates_every_leaf(self, n):
        tree = BroadcastTree(n)
        worst = tree.worst_case_loss_db()
        assert all(
            tree.path_report(leaf).loss_db <= worst + 1e-12
            for leaf in tree.leaves()
        )


class TestBudgetHelper:
    def test_four_tile_budget(self):
        budget = broadcast_loss_budget(4)
        # two splits (6 dB + excess) plus millimetre-scale propagation
        assert 6.0 < budget < 9.0

    def test_budget_monotone(self):
        assert broadcast_loss_budget(8) > broadcast_loss_budget(4)


GOLDEN_TREES = Path(__file__).with_name("golden_broadcast_tree.json")


def node_names(n_leaves, depth):
    """Every node of the balanced tree: root, split junctions, leaves."""
    names = {"root"} | {f"leaf/{index}" for index in range(n_leaves)}
    names |= {
        f"split/{level}/{index}"
        for level in range(1, depth + 1)
        for index in range(2**level)
    }
    return names


class TestGoldenTrees:
    """Every report of n = 1..32 trees, pinned bit for bit (``float.hex``)
    to the values of the original graph-library implementation."""

    @pytest.mark.parametrize("n", range(1, 33))
    def test_reports_match_golden(self, n):
        golden = json.loads(GOLDEN_TREES.read_text())[str(n)]
        tree = BroadcastTree(n)
        names = sorted(node_names(n, tree.depth))
        lines = []
        for name in names:
            report = tree.path_report(name)
            lines.append(
                f"{report.destination} {report.splitters} "
                f"{report.waveguide_length.hex()} {report.loss_db.hex()} "
                f"{report.transmission.hex()}"
            )
        assert {
            "depth": tree.depth,
            "total_splitters": tree.total_splitters(),
            "worst_case_loss_db": tree.worst_case_loss_db().hex(),
            "power_conservation_check": tree.power_conservation_check().hex(),
            "nodes": len(names),
            "reports_sha256": hashlib.sha256(
                "\n".join(lines).encode()
            ).hexdigest(),
        } == golden

    @pytest.mark.parametrize("n", range(1, 33))
    def test_only_tree_nodes_are_destinations(self, n):
        tree = BroadcastTree(n)
        known = node_names(n, tree.depth)
        candidates = {"", "Root", "root/0", "leaf/-1", "leaf/00", "split/0/0"}
        candidates |= {f"leaf/{index}" for index in range(n + 2)}
        candidates |= {
            f"split/{level}/{index}"
            for level in range(tree.depth + 2)
            for index in range(2**level + 1)
        }
        for name in sorted(candidates | known):
            if name in known:
                assert tree.path_report(name).destination == name
            else:
                with pytest.raises(KeyError):
                    tree.path_report(name)
