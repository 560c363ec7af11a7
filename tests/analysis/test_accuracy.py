"""Tests for the accuracy experiment runners (Fig. 6) and reference models.

The Figs. 14/15 bounds are ledger claims
(:func:`repro.analysis.scorecard.accuracy_claims`), run by the slow test
in ``test_scorecard.py``.  The reference-model trainings are cached per
process, so the first test to touch them pays the training cost once.
"""

import pytest

from repro.analysis import fig6_ddot_error, reference_bert, reference_vit


class TestFig6:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig6_ddot_error(n_trials=600, seed=1)

    def test_error_bands(self, rows):
        """Paper: 2.6 % (4-bit) and 3.4 % (8-bit) mean relative error."""
        by_bits = {r["bits"]: r for r in rows}
        assert 1.5 < by_bits[4]["mean_error_pct"] < 6.0
        assert 1.5 < by_bits[8]["mean_error_pct"] < 6.0

    def test_statistics_ordered(self, rows):
        for row in rows:
            assert row["median_error_pct"] <= row["mean_error_pct"] * 1.5
            assert row["p95_error_pct"] > row["median_error_pct"]

    def test_deterministic_given_seed(self):
        a = fig6_ddot_error(n_trials=100, seed=3)
        b = fig6_ddot_error(n_trials=100, seed=3)
        assert a == b


@pytest.mark.slow
class TestReferenceModels:
    def test_vit_reference_quality(self):
        reference = reference_vit()
        assert reference.digital_accuracy > 0.8

    def test_bert_reference_quality(self):
        reference = reference_bert()
        assert reference.digital_accuracy > 0.8

    def test_cache_returns_same_object(self):
        assert reference_vit() is reference_vit()
