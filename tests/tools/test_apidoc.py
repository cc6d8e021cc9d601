"""Tests for the API-reference generator."""

import pathlib

import pytest

from repro.tools.apidoc import PACKAGES, _summary, generate_api_docs, main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


class TestGeneration:
    def test_covers_every_package(self):
        docs = generate_api_docs()
        for pkg in PACKAGES:
            assert f"## `{pkg}`" in docs

    def test_key_symbols_present(self):
        docs = generate_api_docs(["repro.gateway", "repro.core"])
        for symbol in (
            "class `Gateway",
            "class `DecoderPool",
            "class `IntraNetworkPlanner",
            "class `MasterNode",
        ):
            assert symbol in docs

    def test_docstring_summaries_included(self):
        docs = generate_api_docs(["repro.analysis"])
        assert "Erlang-B blocking probability" in docs

    def test_summary_is_the_whole_first_paragraph(self):
        def wrapped():
            """A summary sentence that wraps
            onto a second line.

            Details stay out of the summary.
            """

        assert _summary(wrapped) == (
            "A summary sentence that wraps onto a second line."
        )

    def test_single_package_subset(self):
        docs = generate_api_docs(["repro.phy"])
        assert "repro.core" not in docs

    def test_no_signature_renders_a_forward_ref(self):
        docs = generate_api_docs()
        assert "ForwardRef" not in docs
        # NamedTuple fields (Interferer) read like dataclass fields
        # (TimelineEvent).
        assert "Interferer(rssi_dbm: 'float', sf: 'SpreadingFactor'" in docs
        assert "TimelineEvent(time_s: 'float'" in docs

    def test_main_writes_file(self, tmp_path, capsys):
        out = tmp_path / "api.md"
        assert main([str(out)]) == 0
        assert out.read_text().startswith("# API reference")

    def test_committed_docs_fresh(self):
        """docs/API.md must match the live package (regenerate if not)."""
        committed = REPO_ROOT / "docs" / "API.md"
        if not committed.exists():
            pytest.skip("docs/API.md not present")
        assert committed.read_text() == generate_api_docs()
