"""Tests for EXPERIMENTS.md report generation."""

import pytest

from repro.analysis.report import accuracy_sections, architecture_sections, generate
from repro.analysis.scorecard import accuracy_claims


class TestArchitectureSections:
    @pytest.fixture(scope="class")
    def sections(self):
        return architecture_sections()

    def test_every_figure_and_table_present(self, sections):
        text = "".join(sections)
        for heading in (
            "Fig. 3",
            "Eq. 10",
            "Table IV",
            "Fig. 7",
            "Fig. 8",
            "Fig. 9",
            "Fig. 10",
            "Fig. 11",
            "Fig. 12",
            "Table V",
            "Fig. 13",
            "Fig. 16",
        ):
            assert heading in text, f"missing section {heading}"

    def test_extension_sections_present(self, sections):
        text = "".join(sections)
        assert "Sec. VI-B" in text
        assert "Dispersion calibration" in text
        assert "pipelining" in text.lower()

    def test_paper_reference_numbers_quoted(self, sections):
        text = "".join(sections)
        assert "60.3" in text  # Table IV area
        assert "14.75" in text  # Fig. 8 power
        assert "112" in text  # Eq. 10 channels


class TestGenerate:
    def test_writes_markdown(self, tmp_path):
        output = tmp_path / "EXPERIMENTS.md"
        generate(output, skip_accuracy=True)
        text = output.read_text()
        assert text.startswith("# EXPERIMENTS")
        assert "| " in text  # markdown tables present
        assert "Table V" in text
        assert "Generated by `repro report`" in text
        assert "(`repro verify`)" in text
        assert "DESIGN.md" not in text

    def test_output_is_fresh_each_time(self, tmp_path):
        output = tmp_path / "EXPERIMENTS.md"
        generate(output, skip_accuracy=True)
        first = output.read_text()
        generate(output, skip_accuracy=True)
        assert output.read_text() == first  # deterministic


@pytest.mark.slow
def test_accuracy_section_renders_the_accuracy_claims():
    text = "".join(accuracy_sections())
    assert "Accuracy scorecard" in text
    for claim in accuracy_claims():
        assert claim.name in text
