"""`scripts/run_paper.py` interrupt, resume, checkpoint and argument
errors: exit 130 or 2, no traceback, and a printed resume line that
finishes the run."""

import importlib
import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

from repro.sweep import SweepInterrupted

SCRIPTS = str(pathlib.Path(__file__).resolve().parent.parent / "scripts")
SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module")
def run_paper():
    sys.path.insert(0, SCRIPTS)
    try:
        yield importlib.import_module("run_paper")
    finally:
        sys.path.remove(SCRIPTS)


def _args(tmp_path, *extra):
    return [
        "--stubs", "40", "--vps", "20",
        "--out-dir", str(tmp_path / "out"), *extra,
    ]


class TestInterruptExitCode:
    def test_keyboard_interrupt_exits_130(
        self, run_paper, tmp_path, monkeypatch, capsys
    ):
        def boom(spec, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.sweep.run_sweep", boom)
        code = run_paper.main(_args(tmp_path))
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "Traceback" not in err

    def test_sweep_interrupted_exits_130_with_resume_hint(
        self, run_paper, tmp_path, monkeypatch, capsys
    ):
        ckpt = str(tmp_path / "sweep.ckpt")

        def boom(spec, **kwargs):
            raise SweepInterrupted("SIGINT", 1, 3, ckpt)

        monkeypatch.setattr("repro.sweep.run_sweep", boom)
        code = run_paper.main(_args(tmp_path, "--checkpoint", ckpt))
        assert code == 130
        err = capsys.readouterr().err
        assert f"--resume {ckpt}" in err

    def test_interrupted_run_resumes_from_the_printed_line(
        self, run_paper, tmp_path, capsys, monkeypatch,
        interrupt_second_cell,
    ):
        """Whatever sizes the run used, the printed line finishes it:
        the resumed run writes the uninterrupted run's renders."""
        assert run_paper.main(_args(tmp_path / "whole")) == 0
        interrupt_second_cell()
        monkeypatch.delenv("PYTHONPATH", raising=False)
        ckpt = str(tmp_path / "sweep.ckpt")
        assert run_paper.main(_args(tmp_path, "--checkpoint", ckpt)) == 130
        lines = [
            line for line in capsys.readouterr().err.splitlines()
            if "resume with:" in line
        ]
        argv = shlex.split(lines[-1].split("resume with:", 1)[1])
        # Resumed before the line is checked, so a line that cannot
        # finish the run fails here with the loader's message.
        code = run_paper.main(argv[2:])
        assert code == 0, capsys.readouterr().err
        assert len(lines) == 1
        assert argv[:2] == [sys.executable, run_paper.__file__]
        renders = sorted((tmp_path / "whole" / "out").glob("*.txt"))
        assert len(renders) == 17
        for path in renders:
            resumed = tmp_path / "out" / path.name
            assert resumed.read_bytes() == path.read_bytes(), path.name

    def test_printed_line_runs_where_repro_is_not_installed(
        self, run_paper, tmp_path, capsys, interrupt_second_cell
    ):
        """The line carries what makes ``repro`` importable here: it
        runs in a fresh shell, elsewhere, with no ``PYTHONPATH``."""
        assert run_paper.main(_args(tmp_path / "whole")) == 0
        interrupt_second_cell()
        ckpt = str(tmp_path / "sweep.ckpt")
        assert run_paper.main(_args(tmp_path, "--checkpoint", ckpt)) == 130
        lines = [
            line for line in capsys.readouterr().err.splitlines()
            if "resume with:" in line
        ]
        assert len(lines) == 1
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run(
            ["sh", "-c", lines[0].split("resume with:", 1)[1]],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        renders = sorted((tmp_path / "whole" / "out").glob("*.txt"))
        assert len(renders) == 17
        for path in renders:
            resumed = tmp_path / "out" / path.name
            assert resumed.read_bytes() == path.read_bytes(), path.name

    def test_printed_line_runs_from_another_directory(
        self, run_paper, tmp_path, capsys, monkeypatch,
        interrupt_second_cell,
    ):
        """A run started with relative paths prints them absolute, so
        its line finishes the run from any directory."""
        assert run_paper.main(_args(tmp_path / "whole")) == 0
        start, elsewhere = tmp_path / "start", tmp_path / "elsewhere"
        start.mkdir()
        elsewhere.mkdir()
        monkeypatch.setenv("PYTHONPATH", SRC)
        monkeypatch.chdir(start)
        interrupt_second_cell()
        assert run_paper.main([
            "--stubs", "40", "--vps", "20", "--out-dir", "out",
            "--checkpoint", "r.ckpt",
        ]) == 130
        lines = [
            line for line in capsys.readouterr().err.splitlines()
            if "resume with:" in line
        ]
        assert len(lines) == 1
        done = subprocess.run(
            ["sh", "-c", lines[0].split("resume with:", 1)[1]],
            cwd=elsewhere, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        renders = sorted((tmp_path / "whole" / "out").glob("*.txt"))
        assert len(renders) == 17
        for path in renders:
            resumed = start / "out" / path.name
            assert resumed.read_bytes() == path.read_bytes(), path.name

    def test_resume_refuses_a_checkpoint_of_another_sweep(
        self, run_paper, tmp_path, capsys
    ):
        from repro.cli import main as cli_main

        ckpt = str(tmp_path / "sweep.ckpt")
        assert cli_main([
            "sweep", "--stubs", "40", "--vps", "20", "--letters", "K",
            "--quiet", "--checkpoint", ckpt,
            "--out", str(tmp_path / "s.json"),
        ]) == 0
        capsys.readouterr()
        assert run_paper.main(_args(tmp_path, "--resume", ckpt)) == 2
        errors = [
            line for line in capsys.readouterr().err.splitlines()
            if "rror" in line
        ]
        assert len(errors) == 1
        assert "belongs to a different sweep spec" in errors[0]
        assert not (tmp_path / "out").exists()

    def test_missing_resume_checkpoint_is_usage_error(
        self, run_paper, tmp_path
    ):
        code = run_paper.main(
            _args(tmp_path, "--resume", str(tmp_path / "nope.ckpt"))
        )
        assert code == 2


class TestCheckpointErrors:
    @pytest.mark.parametrize("flag", ["--checkpoint", "--resume"])
    @pytest.mark.parametrize(
        "content, message",
        [
            ("garbage\n", "checkpoint {} has an unparsable header"),
            (
                json.dumps(
                    {"format": "repro-sweep-checkpoint", "version": 1}
                ) + "\n",
                "{} is not a version-3 sweep checkpoint",
            ),
        ],
        ids=["garbage", "version-1"],
    )
    def test_unusable_checkpoint_is_one_error_line(
        self, run_paper, tmp_path, capsys, flag, content, message
    ):
        path = tmp_path / "sweep.ckpt"
        path.write_text(content)
        assert run_paper.main(_args(tmp_path, flag, str(path))) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "rror" in line]
        assert errors == [f"error: {message.format(path)}"]
        assert not (tmp_path / "out").exists()


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seed", "-1", "--seed must be >= 0, got -1"),
            ("--vps", "0", "--vps must be >= 1, got 0"),
            ("--stubs", "-5", "--stubs must be >= 1, got -5"),
            ("--jobs", "0", "--jobs must be >= 1, got 0"),
            ("--replicates", "0", "--replicates must be >= 1, got 0"),
            ("--replicates", "-2", "--replicates must be >= 1, got -2"),
        ],
    )
    def test_invalid_argument_is_one_usage_error(
        self, run_paper, tmp_path, monkeypatch, capsys, flag, value,
        message,
    ):
        """Checked before the spec is built: no cell runs, no traceback,
        no silent default."""

        def no_run(spec, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr("repro.sweep.run_sweep", no_run)
        with pytest.raises(SystemExit) as exc:
            run_paper.main(_args(tmp_path, flag, value))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "retry" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert errors[0].endswith(f": error: {message}")
        assert not (tmp_path / "out").exists()
