"""Tests for the section-2.4.1 cleaning pipeline."""

import tracemalloc

import numpy as np
import pytest

from repro.core import CleaningReport, clean_dataset, detect_hijacked
from repro.datasets import MIN_FIRMWARE


class TestCleanScenario:
    def test_drops_old_firmware(self, dataset):
        cleaned, report = clean_dataset(dataset)
        assert (cleaned.vps.firmware >= MIN_FIRMWARE).all()
        true_old = int((dataset.vps.firmware < MIN_FIRMWARE).sum())
        assert report.n_old_firmware == true_old

    def test_detects_hijacked_vps(self, dataset):
        detected = detect_hijacked(dataset)
        truth = dataset.vps.hijacked
        if truth.sum() == 0:
            pytest.skip("no hijacked VPs in this draw")
        # High recall and precision against ground truth.
        recall = (detected & truth).sum() / truth.sum()
        assert recall > 0.8
        if detected.sum():
            precision = (detected & truth).sum() / detected.sum()
            assert precision > 0.8

    def test_cleaning_preserves_nearly_all_vps(self, dataset):
        # The paper keeps > 96 % of probes after cleaning.
        _, report = clean_dataset(dataset)
        assert report.kept_fraction > 0.9

    def test_cleaned_dataset_has_no_flagged_vps(self, dataset):
        cleaned, report = clean_dataset(dataset)
        assert len(cleaned.vps) == report.n_kept
        dropped = set(report.old_firmware_ids) | set(report.hijacked_ids)
        assert dropped.isdisjoint(int(v) for v in cleaned.vps.ids)

    def test_counts_consistent(self, dataset):
        _, report = clean_dataset(dataset)
        assert report.n_kept == (
            report.n_total - report.n_old_firmware - report.n_hijacked
        )
        assert len(report.old_firmware_ids) == report.n_old_firmware
        assert len(report.hijacked_ids) == report.n_hijacked


class TestNoCopy:
    def test_cleaning_copies_no_matrix(self, dataset):
        # The hijack scan's temporaries are the only allocations: less
        # than the matrices of one letter, where a copy of the kept
        # VPs would take about those of every letter.
        obs = dataset.letter("K")
        one_letter = sum(
            m.nbytes for m in (obs.site_idx, obs.rtt_ms, obs.server)
        )
        tracemalloc.start()
        try:
            cleaned, report = clean_dataset(dataset)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < one_letter, (peak, one_letter)
        assert report.n_kept < len(dataset.vps)
        assert np.array_equal(
            cleaned.vps.ids, dataset.vps.ids[cleaned.columns]
        )


class TestReport:
    def test_empty_report(self):
        report = CleaningReport(0, 0, 0, (), ())
        assert report.kept_fraction == 0.0

    def test_fraction(self):
        report = CleaningReport(100, 3, 1, tuple(range(3)), (99,))
        assert report.kept_fraction == pytest.approx(0.96)


class TestHijackHeuristics:
    def test_slow_bogus_replies_not_flagged(self, dataset):
        """A VP with unparseable replies at normal RTT (e.g. a broken
        middlebox far away) must NOT be flagged: the paper requires
        BOTH the pattern mismatch and the short RTT."""
        from repro.datasets import RESP_BOGUS, AtlasDataset, LetterObservations

        victim = 0
        letters = {}
        for letter, obs in dataset.letters.items():
            site_idx, rtt_ms = obs.site_idx.copy(), obs.rtt_ms.copy()
            site_idx[:, victim] = RESP_BOGUS
            rtt_ms[:, victim] = 80.0  # slow: not local
            letters[letter] = LetterObservations(
                letter, obs.site_codes, site_idx, rtt_ms, obs.server
            )
        modified = AtlasDataset(dataset.grid, dataset.vps, letters)
        detected = detect_hijacked(modified)
        assert not detected[victim]
