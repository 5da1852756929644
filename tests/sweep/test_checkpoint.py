"""Checkpoint WAL: round-trip, torn tails, corruption, idempotence,
and resumes across the serial and pool paths."""

import json

import pytest

from repro.scenario import diff_arrays, result_arrays
from repro.sweep import (
    CheckpointError,
    CheckpointWriter,
    SweepSpec,
    load_checkpoint,
    read_header,
    run_sweep,
    spec_digest,
)

from .cell_faults import inject
from .runs import assert_same_run


@pytest.fixture(scope="module")
def spec(tiny_base):
    return SweepSpec.grid(tiny_base, {"baseline_days": [3, 7]})


@pytest.fixture(scope="module")
def reference(spec):
    return run_sweep(spec, jobs=1)


def _write_full(path, spec, reference):
    with CheckpointWriter(path, spec) as writer:
        for cell, result in zip(reference.cells, reference.results):
            writer.record(cell, result)
    return path


class TestRoundTrip:
    def test_all_cells_recovered_bit_identical(
        self, tmp_path, spec, reference
    ):
        path = _write_full(tmp_path / "ckpt.jsonl", spec, reference)
        data = load_checkpoint(path, spec)
        assert sorted(data.results) == list(range(spec.n_cells))
        assert data.dropped_lines == 0
        for index, result in data.results.items():
            assert not diff_arrays(
                result_arrays(result),
                result_arrays(reference.results[index]),
            )

    def test_digest_matches_spec(self, tmp_path, spec, reference):
        path = _write_full(tmp_path / "ckpt.jsonl", spec, reference)
        assert load_checkpoint(path).digest == spec_digest(spec)

    def test_spec_survives_header_round_trip(
        self, tmp_path, spec, reference
    ):
        # The header's pickled spec must digest identically to the
        # original, or --resume would reject its own checkpoint.
        path = _write_full(tmp_path / "ckpt.jsonl", spec, reference)
        data = load_checkpoint(path)
        assert spec_digest(data.spec) == spec_digest(spec)
        assert data.spec == spec


class TestTornAndCorrupt:
    def test_torn_tail_truncated_not_fatal(
        self, tmp_path, spec, reference
    ):
        path = _write_full(tmp_path / "ckpt.jsonl", spec, reference)
        blob = path.read_bytes()
        # Chop the last record mid-line, as a crash mid-write would.
        path.write_bytes(blob[: len(blob) - 40])
        data = load_checkpoint(path, spec)
        assert sorted(data.results) == [0]
        assert data.dropped_lines == 1

    def test_crc_mismatch_truncates_there(
        self, tmp_path, spec, reference
    ):
        path = _write_full(tmp_path / "ckpt.jsonl", spec, reference)
        lines = path.read_bytes().splitlines(keepends=True)
        record = json.loads(lines[1])
        record["crc"] ^= 1
        lines[1] = (json.dumps(record, sort_keys=True) + "\n").encode()
        path.write_bytes(b"".join(lines))
        data = load_checkpoint(path, spec)
        # Bad line 1 drops itself AND the (valid) line after it: in an
        # append-only log everything past the first bad byte is
        # untrusted.
        assert data.results == {}
        assert data.dropped_lines == 2

    def test_wrong_spec_rejected(self, tmp_path, spec, reference):
        path = _write_full(tmp_path / "ckpt.jsonl", spec, reference)
        other = SweepSpec.grid(spec.base, {"baseline_days": [1, 2]})
        with pytest.raises(CheckpointError, match="different sweep spec"):
            load_checkpoint(path, other)

    def test_missing_and_empty_files_raise(self, tmp_path, spec):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "nope.jsonl")
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        with pytest.raises(CheckpointError, match="empty"):
            load_checkpoint(empty)

    def test_non_checkpoint_file_raises(self, tmp_path):
        junk = tmp_path / "junk.jsonl"
        junk.write_text('{"hello": "world"}\n')
        with pytest.raises(CheckpointError, match="not a version"):
            load_checkpoint(junk)

    def test_version_2_checkpoint_rejected(self, tmp_path, spec, reference):
        # Version-2 records pickle AS graphs with a version token and
        # compiled views with one field more; loading them would shift
        # fields or drop every record as torn, so the header refuses.
        path = _write_full(tmp_path / "ckpt.jsonl", spec, reference)
        header, rest = path.read_bytes().split(b"\n", 1)
        fields = json.loads(header)
        assert fields["version"] == 3
        fields["version"] = 2
        path.write_bytes(
            json.dumps(fields, sort_keys=True).encode() + b"\n" + rest
        )
        for read in (load_checkpoint, read_header):
            with pytest.raises(
                CheckpointError, match="not a version-3 sweep checkpoint"
            ):
                read(path)


class TestWriter:
    def test_record_is_idempotent(self, tmp_path, spec, reference):
        path = tmp_path / "ckpt.jsonl"
        with CheckpointWriter(path, spec) as writer:
            cell = reference.cells[0]
            writer.record(cell, reference.results[0])
            size_once = path.stat().st_size
            writer.record(cell, reference.results[0])
            assert path.stat().st_size == size_once
            assert writer.recorded == {0}

    def test_reopen_appends_after_valid_prefix(
        self, tmp_path, spec, reference
    ):
        path = tmp_path / "ckpt.jsonl"
        with CheckpointWriter(path, spec) as writer:
            writer.record(reference.cells[0], reference.results[0])
        # Simulate a torn tail, then reopen: the tail is physically
        # truncated and the second cell appends cleanly after cell 0.
        path.write_bytes(path.read_bytes() + b'{"torn')
        with CheckpointWriter(path, spec) as writer:
            assert writer.recorded == {0}
            writer.record(reference.cells[1], reference.results[1])
        data = load_checkpoint(path, spec)
        assert sorted(data.results) == [0, 1]
        assert data.dropped_lines == 0


class TestHeader:
    def test_names_the_spec_without_decoding_a_cell(
        self, tmp_path, spec, reference, monkeypatch
    ):
        path = _write_full(tmp_path / "ckpt.jsonl", spec, reference)

        def no_decode(payload):
            raise AssertionError("a cell record was decoded")

        monkeypatch.setattr(
            "repro.sweep.checkpoint._decode_result", no_decode
        )
        assert read_header(path) == spec


class TestPoolWrittenCheckpoint:
    """A checkpoint a pool wrote, its cells rebuilt in the parent from
    records, resumes serially, and a serial one resumes in a pool."""

    @pytest.fixture(scope="class")
    def grid(self, tiny_base):
        # Four cells on one substrate, so a pool run over all four and
        # a pool resume of the last two both send records home.
        return SweepSpec.grid(tiny_base, {"baseline_days": [1, 3, 5, 7]})

    @pytest.fixture(scope="class")
    def uninterrupted(self, grid):
        return run_sweep(grid, jobs=1)

    @pytest.mark.parametrize("first_jobs, resume_jobs", [(2, 1), (1, 2)])
    def test_resume_equals_uninterrupted(
        self, tmp_path, monkeypatch, grid, uninterrupted,
        first_jobs, resume_jobs,
    ):
        path = tmp_path / "ckpt.jsonl"
        with monkeypatch.context() as patch:
            # Cells 2 and 3 fail, so the checkpoint holds cells 0 and 1.
            inject(patch, 2, "raise")
            inject(patch, 3, "raise")
            first = run_sweep(
                grid, jobs=first_jobs, chunk_size=1, max_retries=0,
                backoff_base_s=0.0, checkpoint=path,
            )
        assert sorted(first.failures) == [2, 3]
        assert sorted(load_checkpoint(path, grid).results) == [0, 1]
        resumed = run_sweep(
            grid, jobs=resume_jobs, chunk_size=1, checkpoint=path
        )
        assert resumed.restored == (0, 1)
        assert not resumed.failures
        for got, want in zip(resumed.results, uninterrupted.results):
            assert_same_run(got, want)
        # The pool run's cells were rebuilt on the parent's substrate.
        pooled = first if first_jobs > 1 else resumed
        ran = (0, 1) if first_jobs > 1 else (2, 3)
        assert (
            pooled.results[ran[0]].topology
            is pooled.results[ran[1]].topology
        )
