"""Tests for the anycast-ddos command-line interface."""

import json

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
            (["sweep", "--seed", "-1"], "seed must be non-negative"),
            (["sweep", "--jobs", "0"], "--jobs must be >= 1, got 0"),
            (["sweep", "--replicates", "0"],
             "--replicates must be >= 1, got 0"),
            (["sweep", "--replicates", "-2"],
             "--replicates must be >= 1, got -2"),
        ],
        ids=["simulate-seed", "sweep-seed", "jobs", "replicates-0",
             "replicates-neg"],
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
