"""Tests for dataset persistence (npz bundles and NDJSON records)."""

import numpy as np
import pytest

from repro.datasets import (
    CorruptRecordError,
    ProbeRecord,
    load_dataset,
    read_probe_records,
    save_dataset,
    write_probe_records,
)


class TestNpzRoundTrip:
    def test_full_roundtrip(self, dataset, tmp_path):
        path = tmp_path / "atlas.npz"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert loaded.grid == dataset.grid
        assert (loaded.vps.ids == dataset.vps.ids).all()
        assert (loaded.vps.firmware == dataset.vps.firmware).all()
        assert sorted(loaded.letters) == sorted(dataset.letters)
        for letter in dataset.letters:
            a, b = dataset.letter(letter), loaded.letter(letter)
            assert a.site_codes == b.site_codes
            assert (a.site_idx == b.site_idx).all()
            assert np.array_equal(a.rtt_ms, b.rtt_ms, equal_nan=True)
            assert (a.server == b.server).all()

    def test_rejects_future_format(self, dataset, tmp_path):
        path = tmp_path / "atlas.npz"
        save_dataset(dataset, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["format_version"] = np.array([99])
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="unsupported dataset format 99"):
            load_dataset(path)


class TestNotADataset:
    """Each kind of file that is not a saved dataset gets one
    ``ValueError`` naming the file and what is wrong with it."""

    def _reason(self, path):
        with pytest.raises(ValueError) as caught:
            load_dataset(path)
        message = str(caught.value)
        assert message.startswith(f"{path}: ")
        return message[len(f"{path}: "):]

    def test_text_file(self, tmp_path):
        path = tmp_path / "notes.npz"
        path.write_text("not a saved dataset\n")
        assert self._reason(path) == "not a NumPy .npz archive"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.npz"
        path.write_bytes(b"")
        assert self._reason(path) == "empty file"

    def test_npy_array(self, tmp_path):
        path = tmp_path / "array.npy"
        np.save(path, np.arange(3))
        assert self._reason(path) == (
            "a single NumPy array, not a dataset archive"
        )

    def test_truncated_archive(self, dataset, tmp_path):
        path = tmp_path / "atlas.npz"
        save_dataset(dataset, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert self._reason(path) == "truncated or corrupt archive"

    def test_corrupt_member(self, dataset, tmp_path):
        path = tmp_path / "atlas.npz"
        save_dataset(dataset, path)
        data = bytearray(path.read_bytes())
        # Flip bytes inside the first member's compressed stream; the
        # zip directory at the end stays intact.
        for i in range(80, 160):
            data[i] ^= 0xFF
        path.write_bytes(bytes(data))
        assert self._reason(path).startswith("corrupt archive member")

    def test_archive_without_dataset_arrays(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, format_version=np.array([1]), a=np.arange(3))
        reason = self._reason(path)
        assert reason.startswith("not a saved dataset: missing grid, ")
        assert "format_version" not in reason

    def test_archive_missing_a_letter(self, dataset, tmp_path):
        path = tmp_path / "atlas.npz"
        save_dataset(dataset, path)
        letter = sorted(dataset.letters)[0]
        with np.load(path) as data:
            arrays = {
                k: data[k] for k in data.files if k != f"{letter}_rtt"
            }
        np.savez_compressed(path, **arrays)
        assert self._reason(path) == (
            f"not a saved dataset: missing {letter}_rtt"
        )


class TestProbeRecords:
    def _records(self):
        return [
            ProbeRecord(
                vp_id=1, letter="K", timestamp=100.0,
                answer="ns2.fra.k.ripe.net", rtt_ms=25.0, rcode=0,
                firmware=4700,
            ),
            ProbeRecord(
                vp_id=2, letter="K", timestamp=101.0,
                answer=None, rtt_ms=None, rcode=None, firmware=4700,
            ),
            ProbeRecord(
                vp_id=3, letter="K", timestamp=102.0,
                answer=None, rtt_ms=None, rcode=2, firmware=4500,
            ),
        ]

    def test_ndjson_roundtrip(self, tmp_path):
        path = tmp_path / "probes.ndjson"
        count = write_probe_records(self._records(), path)
        assert count == 3
        loaded = list(read_probe_records(path))
        assert loaded == self._records()

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "probes.ndjson"
        write_probe_records(self._records()[:1], path)
        with open(path, "a") as handle:
            handle.write("\n\n")
        assert len(list(read_probe_records(path))) == 1

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "probes.ndjson"
        path.write_text('{"bad json\n')
        with pytest.raises(ValueError, match=":1:"):
            list(read_probe_records(path))

    def test_corrupt_error_carries_location(self, tmp_path):
        path = tmp_path / "probes.ndjson"
        write_probe_records(self._records()[:1], path)
        with open(path, "a") as handle:
            handle.write("%% truncated garbage\n")
        with pytest.raises(CorruptRecordError) as excinfo:
            list(read_probe_records(path))
        assert excinfo.value.line_no == 2
        assert excinfo.value.path == str(path)

    def test_unknown_field_is_corrupt(self, tmp_path):
        path = tmp_path / "probes.ndjson"
        path.write_text('{"vp_id": 1, "surprise": true}\n')
        with pytest.raises(CorruptRecordError, match=":1:"):
            list(read_probe_records(path))

    def test_non_object_line_is_corrupt(self, tmp_path):
        path = tmp_path / "probes.ndjson"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(CorruptRecordError, match="JSON object"):
            list(read_probe_records(path))

    def test_skip_corrupt_keeps_good_records(self, tmp_path):
        path = tmp_path / "probes.ndjson"
        write_probe_records(self._records()[:1], path)
        with open(path, "a") as handle:
            handle.write("not json at all\n")
        write_probe_records(self._records()[1:], tmp_path / "rest.ndjson")
        with open(tmp_path / "rest.ndjson") as rest:
            with open(path, "a") as handle:
                handle.write(rest.read())
        skipped = []
        loaded = list(
            read_probe_records(path, skip_corrupt=True, skipped=skipped)
        )
        assert loaded == self._records()
        assert skipped == [2]

    def test_reply_requires_rtt(self):
        with pytest.raises(ValueError):
            ProbeRecord(
                vp_id=1, letter="K", timestamp=0.0,
                answer="x", rtt_ms=None, rcode=0, firmware=4700,
            )
