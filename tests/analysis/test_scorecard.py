"""Tests for the reproduction scorecard."""

import math

import pytest

from repro.analysis.scorecard import (
    Claim,
    accuracy_claims,
    all_pass,
    default_claims,
    run_scorecard,
)


def _band(value, lo=-math.inf, hi=math.inf):
    return Claim("x", 0.0, lambda: value, "band", lo=lo, hi=hi).evaluate().passed


class TestClaim:
    def test_exact_pass(self):
        claim = Claim("x", 5.0, lambda: 5.0, "exact")
        assert claim.evaluate().passed

    def test_exact_fail(self):
        claim = Claim("x", 5.0, lambda: 5.0001, "exact")
        assert not claim.evaluate().passed

    def test_relative_within_tolerance(self):
        claim = Claim("x", 100.0, lambda: 104.0, "relative", tolerance=0.05)
        assert claim.evaluate().passed

    def test_relative_outside_tolerance(self):
        claim = Claim("x", 100.0, lambda: 110.0, "relative", tolerance=0.05)
        assert not claim.evaluate().passed

    def test_lower_bound(self):
        """A band open at the top is a lower bound."""
        assert _band(50.0, lo=10.0)
        assert not _band(5.0, lo=10.0)

    def test_band_inside_and_outside(self):
        assert _band(25.0, lo=20.0, hi=30.0)
        assert not _band(19.9, lo=20.0, hi=30.0)
        assert not _band(30.1, lo=20.0, hi=30.0)

    def test_band_edges_inclusive(self):
        assert _band(20.0, lo=20.0, hi=30.0)
        assert _band(30.0, lo=20.0, hi=30.0)
        assert _band(7.0, lo=7.0, hi=7.0)

    def test_band_nan_fails(self):
        assert not _band(math.nan)
        assert not _band(math.nan, lo=0.0, hi=1.0)

    def test_empty_band_rejected_at_construction(self):
        with pytest.raises(ValueError, match="empty band"):
            Claim("x", 1.0, lambda: 1.0, "band", lo=2.0, hi=1.0)
        with pytest.raises(ValueError, match="empty band"):
            Claim("x", 1.0, lambda: 1.0, "band", lo=math.nan)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown claim kind"):
            Claim("x", 1.0, lambda: 1.0, "vibes")

    def test_as_row(self):
        row = Claim("my claim", 2.0, lambda: 2.0, "exact").evaluate().as_row()
        assert row["claim"] == "my claim"
        assert row["pass"] is True
        assert Claim("x", 1.0, lambda: 1.0, "band", lo=0.5).bound == "[0.5, inf]"


class TestDefaultScorecard:
    @pytest.fixture(scope="class")
    def results(self):
        return run_scorecard()

    def test_covers_headline_results(self, results):
        names = "\n".join(result.claim.name for result in results)
        for token in (
            "Eq.6", "Eq.10", "Fig.3", "Fig.6", "Table I:", "Table IV", "Fig.7",
            "Fig.8", "Fig.9", "Fig.10", "Fig.11", "Fig.12", "Table V", "Fig.13",
            "Fig.16", "Sec.IV-C", "Sec.V-E", "Sec.VI-A", "Sec.VI-B",
        ):
            assert token in names

    def test_every_claim_passes(self, results):
        failing = [r.claim.name for r in results if not r.passed]
        assert failing == [], f"reproduction regressions: {failing}"

    def test_all_pass_helper(self, results):
        assert all_pass(results)

    def test_at_least_a_dozen_claims(self):
        """The ledger's exact size: a claim dropped by accident shows here."""
        assert len(default_claims()) == 57
        assert len(accuracy_claims()) == 5

    def test_claim_names_unique(self):
        names = [claim.name for claim in default_claims() + accuracy_claims()]
        assert len(names) == len(set(names))
        assert not any("|" in name for name in names)  # would split a markdown row


@pytest.mark.slow
def test_accuracy_claims_pass():
    """Figs. 14/15 on the trained reference models (trains them once)."""
    failing = [r.claim.name for r in run_scorecard(accuracy_claims()) if not r.passed]
    assert failing == [], f"accuracy regressions: {failing}"
