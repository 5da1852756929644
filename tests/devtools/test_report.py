"""The report contract: exit codes and the text rendering, including
witness paths for PUR rules."""

from repro.devtools.registry import Violation
from repro.devtools.runner import LintReport


def _violation(**overrides):
    fields = {
        "path": "src/repro/mod.py",
        "line": 7,
        "col": 3,
        "rule": "DET001",
        "message": "unseeded randomness",
    }
    fields.update(overrides)
    return Violation(**fields)


class TestExitCodeContract:
    def test_clean_is_zero(self):
        report = LintReport(checked_files=5)
        assert report.exit_code == 0

    def test_violations_are_one(self):
        report = LintReport(violations=[_violation()], checked_files=5)
        assert report.exit_code == 1

    def test_errors_are_two_and_beat_violations(self):
        report = LintReport(
            violations=[_violation()],
            errors=[("bad.py", "boom")],
            checked_files=5,
        )
        assert report.exit_code == 2


class TestTextRendering:
    def test_first_line_is_grep_friendly(self):
        line = _violation().format().splitlines()[0]
        assert line == (
            "src/repro/mod.py:7:3: DET001 unseeded randomness"
        )

    def test_witness_hops_render_indented(self):
        violation = _violation(
            rule="PUR001",
            message="root reaches WALL_CLOCK",
            witness=("a (f.py:1) calls b", "b (g.py:2): reads clock"),
        )
        report = LintReport(violations=[violation], checked_files=1)
        text = report.render()
        lines = text.splitlines()
        assert lines[0].startswith("src/repro/mod.py:7:3: PUR001 ")
        assert lines[1] == "    a (f.py:1) calls b"
        assert lines[2] == "    b (g.py:2): reads clock"
        assert "1 violation(s)" in text

    def test_clean_report_says_so(self):
        text = LintReport(checked_files=4).render()
        assert "4 file(s) clean" in text
