"""`scripts/run_paper.py` interrupt and checkpoint errors: exit 130 or
2, no traceback."""

import importlib
import json
import pathlib
import sys

import pytest

from repro.sweep import SweepInterrupted

SCRIPTS = str(pathlib.Path(__file__).resolve().parent.parent / "scripts")


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

        monkeypatch.setattr(run_paper, "run_sweep", boom)
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

        monkeypatch.setattr(run_paper, "run_sweep", boom)
        code = run_paper.main(_args(tmp_path, "--checkpoint", ckpt))
        assert code == 130
        err = capsys.readouterr().err
        assert f"--resume {ckpt}" in err

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
                "{} is not a version-2 sweep checkpoint",
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
