"""Tests for the anycast-ddos command-line interface."""

import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

from repro.cli import ANALYSES, build_parser, main
from repro.datasets import load_dataset


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.preset == "nov2015"
        assert args.out == "events.npz"

    def test_letters_parsing(self):
        args = build_parser().parse_args(
            ["simulate", "--letters", "b, k"]
        )
        assert args.letters == "b, k"

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["analyze", "x.npz", "--figure", "fig99"]
            )


class TestCommands:
    def test_policies_command(self, capsys):
        assert main(["policies", "--attack", "0.7"]) == 0
        out = capsys.readouterr().out
        assert "case 2" in out
        assert "H = 4/4" in out

    def test_simulate_then_analyze(self, tmp_path, capsys):
        out = tmp_path / "mini.npz"
        assert main([
            "simulate", "--stubs", "100", "--vps", "60",
            "--letters", "B,K", "--seed", "2", "--out", str(out),
        ]) == 0
        dataset = load_dataset(out)
        assert sorted(dataset.letters) == ["B", "K"]

        assert main(["analyze", str(out), "--figure", "fig3"]) == 0
        rendered = capsys.readouterr().out
        assert "Fig. 3" in rendered
        assert "B" in rendered

    def test_analyze_raw_skips_cleaning(self, tmp_path, capsys):
        out = tmp_path / "mini.npz"
        main([
            "simulate", "--stubs", "100", "--vps", "60",
            "--letters", "K", "--seed", "2", "--out", str(out),
        ])
        capsys.readouterr()
        assert main([
            "analyze", str(out), "--figure", "table2", "--raw",
        ]) == 0
        output = capsys.readouterr()
        assert "cleaned" not in output.err
        assert "Table 2" in output.out

    def test_june_preset(self, tmp_path):
        out = tmp_path / "june.npz"
        assert main([
            "simulate", "--preset", "june2016", "--stubs", "100",
            "--vps", "60", "--letters", "K", "--out", str(out),
        ]) == 0
        dataset = load_dataset(out)
        assert dataset.grid.start != 1448841600  # not the 2015 window

    @pytest.mark.parametrize("figure", ANALYSES)
    def test_every_analysis_renders(self, tmp_path, capsys, figure):
        out = tmp_path / "mini.npz"
        main([
            "simulate", "--stubs", "120", "--vps", "80",
            "--seed", "2", "--out", str(out),
        ])
        capsys.readouterr()
        assert main(["analyze", str(out), "--figure", figure]) == 0
        assert capsys.readouterr().out.strip()

    def test_sweep_writes_summary_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "summaries.json"
        assert main([
            "sweep", "--stubs", "50", "--vps", "30", "--seed", "7",
            "--letters", "A,K", "--axis", "baseline_days=3,7",
            "--replicates", "2", "--jobs", "1", "--quiet",
            "--out", str(out),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["n_points"] == 2
        assert payload["n_seeds"] == 2
        assert len(payload["summaries"]) == 2
        metrics = payload["summaries"][0]["metrics"]
        assert metrics["availability"]["n"] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--out", "{}/x.npz"],
            ["sweep", "--quiet", "--out", "{}/x.json"],
        ],
        ids=["simulate", "sweep"],
    )
    def test_out_makes_its_directory(self, tmp_path, argv):
        out_dir = tmp_path / "missing"
        argv = [arg.format(out_dir) for arg in argv]
        assert main([
            *argv, "--stubs", "40", "--vps", "20", "--letters", "K",
        ]) == 0
        assert (out_dir / pathlib.Path(argv[-1]).name).exists()

    def test_sweep_axis_parsing(self):
        from repro.cli import _parse_axis

        name, values = _parse_axis("baseline_days=3,7")
        assert name == "baseline_days"
        assert values == [3, 7]
        name, values = _parse_axis("include_nl=True,False")
        assert values == [True, False]


class TestUsageErrors:
    """Arguments that cannot build a scenario or sweep exit with a
    usage error naming the bad value, not a traceback."""

    def _usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "Traceback" not in err
        assert "retry" not in err
        return errors[0]

    def test_unknown_letter(self, capsys):
        line = self._usage_error(["simulate", "--letters", "K,Z"], capsys)
        assert line.startswith("anycast-ddos simulate: error:")
        assert "'Z'" in line

    def test_unknown_sweep_field(self, capsys):
        line = self._usage_error(
            ["sweep", "--axis", "bogus_field=3,7"], capsys
        )
        assert line.startswith("anycast-ddos sweep: error:")
        assert "'bogus_field'" in line

    def test_invalid_sweep_point(self, capsys):
        """A point no config can take is a usage error before any cell
        runs, not a quarantined cell and exit 0."""
        line = self._usage_error(
            ["sweep", "--stubs", "50", "--vps", "30", "--letters", "K",
             "--seed", "7", "--axis", "window_seconds=10860"],
            capsys,
        )
        assert line.startswith("anycast-ddos sweep: error:")
        assert "does not tile window_seconds 10860" in line

    def test_malformed_sweep_axis(self, capsys):
        line = self._usage_error(["sweep", "--axis", "bogus"], capsys)
        assert "argument --axis" in line
        assert "'bogus'" in line

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--seed", "-1"], "seed must be non-negative"),
            (["sweep", "--seed", "-1"], "--seed must be >= 0, got -1"),
            (["sweep", "--jobs", "0"], "--jobs must be >= 1, got 0"),
            (["sweep", "--replicates", "0"],
             "--replicates must be >= 1, got 0"),
            (["sweep", "--replicates", "-2"],
             "--replicates must be >= 1, got -2"),
            (["sweep", "--max-retries", "-1"],
             "--max-retries must be >= 0, got -1"),
            (["sweep", "--cell-timeout", "0"],
             "--cell-timeout must be > 0, got 0.0"),
        ],
        ids=["simulate-seed", "sweep-seed", "jobs", "replicates-0",
             "replicates-neg", "max-retries", "cell-timeout"],
    )
    def test_invalid_run_argument(self, argv, message, capsys, monkeypatch):
        """A value no run can take fails before any scenario runs, not
        with a traceback, a quarantined cell or a silent default."""

        def no_run(*args, **kwargs):
            raise AssertionError("a scenario ran")

        monkeypatch.setattr("repro.cli.simulate", no_run)
        monkeypatch.setattr("repro.sweep.run_sweep", no_run)
        line = self._usage_error(
            [*argv, "--stubs", "50", "--vps", "30", "--letters", "K"],
            capsys,
        )
        assert line == f"anycast-ddos {argv[0]}: error: {message}"


#: Files that are not version-2 checkpoints, and the one-line error
#: each must produce.
UNUSABLE_CHECKPOINTS = {
    "garbage": ("garbage\n", "checkpoint {} has an unparsable header"),
    "version-1": (
        json.dumps({"format": "repro-sweep-checkpoint", "version": 1})
        + "\n",
        "{} is not a version-2 sweep checkpoint",
    ),
}


class TestCheckpointErrors:
    @pytest.mark.parametrize("flag", ["--checkpoint", "--resume"])
    @pytest.mark.parametrize("kind", sorted(UNUSABLE_CHECKPOINTS))
    def test_unusable_checkpoint_is_one_error_line(
        self, tmp_path, capsys, flag, kind
    ):
        content, message = UNUSABLE_CHECKPOINTS[kind]
        path = tmp_path / "sweep.ckpt"
        path.write_text(content)
        code = main([
            "sweep", "--stubs", "50", "--vps", "30", "--letters", "K",
            "--quiet", flag, str(path),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "rror" in line]
        assert errors == [f"error: {message.format(path)}"]


#: A two-point sweep grid of two cells.
GRID = [
    "sweep", "--stubs", "50", "--vps", "30", "--letters", "A,K",
    "--seed", "7", "--axis", "baseline_days=3,7", "--quiet",
]


def _resume_line(capsys):
    lines = [
        line for line in capsys.readouterr().err.splitlines()
        if "resume with:" in line
    ]
    assert len(lines) == 1
    return lines[0].split("resume with:", 1)[1].strip()


class TestResume:
    def test_interrupted_sweep_resumes_from_the_printed_line(
        self, tmp_path, capsys, monkeypatch, interrupt_second_cell
    ):
        whole, resumed = tmp_path / "whole.json", tmp_path / "resumed.json"
        assert main([*GRID, "--out", str(whole)]) == 0
        interrupt_second_cell()
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(["src", "lib"]))
        ckpt = str(tmp_path / "sweep.ckpt")
        assert main([
            *GRID, "--checkpoint", ckpt, "--out", str(resumed),
        ]) == 130
        argv = shlex.split(_resume_line(capsys))
        assert argv == [
            "PYTHONPATH=" + os.pathsep.join(
                [os.path.abspath("src"), os.path.abspath("lib")]
            ),
            sys.executable, "-m", "repro.cli", "sweep",
            "--out", str(resumed), "--resume", ckpt, "--jobs", "1",
        ]
        assert main(argv[4:]) == 0
        payload = json.loads(resumed.read_text())
        assert payload["telemetry"]["restored_cells"] == [0]
        assert (
            payload["summaries"]
            == json.loads(whole.read_text())["summaries"]
        )

    def test_resume_decodes_each_stored_cell_once(
        self, tmp_path, monkeypatch
    ):
        from repro.sweep import checkpoint

        ckpt, out = str(tmp_path / "sweep.ckpt"), tmp_path / "s.json"
        assert main([*GRID, "--checkpoint", ckpt, "--out", str(out)]) == 0
        decode = checkpoint._decode_result
        calls = []

        def counted(payload):
            calls.append(payload)
            return decode(payload)

        monkeypatch.setattr(checkpoint, "_decode_result", counted)
        assert main(["sweep", "--resume", ckpt, "--out", str(out)]) == 0
        assert len(calls) == 2
        restored = json.loads(out.read_text())["telemetry"]["restored_cells"]
        assert restored == [0, 1]

    def test_printed_line_runs_where_repro_is_not_installed(
        self, tmp_path, capsys, interrupt_second_cell
    ):
        """The line carries what makes ``repro`` importable here: it
        runs in a fresh shell, elsewhere, with no ``PYTHONPATH``."""
        whole, resumed = tmp_path / "whole.json", tmp_path / "resumed.json"
        assert main([*GRID, "--out", str(whole)]) == 0
        interrupt_second_cell()
        ckpt = str(tmp_path / "sweep.ckpt")
        assert main([
            *GRID, "--checkpoint", ckpt, "--out", str(resumed),
        ]) == 130
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run(
            ["sh", "-c", _resume_line(capsys)], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        payload = json.loads(resumed.read_text())
        assert payload["telemetry"]["restored_cells"] == [0]
        assert (
            payload["summaries"]
            == json.loads(whole.read_text())["summaries"]
        )
