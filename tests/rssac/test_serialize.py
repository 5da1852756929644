"""Tests for RSSAC-002 YAML serialisation."""

import pytest

from repro.rssac.serialize import (
    documents_to_report,
    load_reports,
    report_to_documents,
    save_reports,
)


class TestRoundTrip:
    def test_documents_roundtrip(self, scenario):
        report = scenario.rssac["K"][7]  # the Nov 30 event day
        rebuilt = documents_to_report(report_to_documents(report))
        assert rebuilt.letter == "K"
        assert rebuilt.date == report.date
        assert rebuilt.queries == pytest.approx(report.queries)
        assert rebuilt.unique_sources == pytest.approx(
            report.unique_sources
        )
        assert rebuilt.query_size_hist.keys() == (
            report.query_size_hist.keys()
        )

    def test_file_roundtrip(self, scenario, tmp_path):
        reports = list(scenario.rssac["A"])
        path = tmp_path / "a-root.yaml"
        count = save_reports(reports, path)
        assert count == len(reports)
        loaded = load_reports(path)
        assert len(loaded) == len(reports)
        by_date = {r.date: r for r in loaded}
        for report in reports:
            assert by_date[report.date].queries == pytest.approx(
                report.queries
            )

    def test_missing_metric_rejected(self, scenario):
        docs = report_to_documents(scenario.rssac["K"][0])[:2]
        with pytest.raises(ValueError, match="missing metrics"):
            documents_to_report(docs)

    def test_bad_version_rejected(self, scenario):
        docs = report_to_documents(scenario.rssac["K"][0])
        docs[0]["version"] = "rssac002v99"
        with pytest.raises(ValueError, match="version"):
            documents_to_report(docs)

    def test_yaml_shape(self, scenario):
        docs = report_to_documents(scenario.rssac["K"][7])
        metrics = {d["metric"] for d in docs}
        assert metrics == {
            "traffic-volume", "traffic-sizes", "unique-sources",
        }
        assert all(
            d["service"] == "k.root-servers.net" for d in docs
        )
