"""The report contract: exit codes and the text rendering, including
witness paths for PUR rules."""

from repro.devtools.purity import run_purity
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

    def test_summary_counts_files_not_errors(self):
        # Two errors in one file and six that name no file: one file
        # could not be checked, and the six are counted on their own.
        errors = [
            ("pkg/bad.py", "unreadable: invalid start byte"),
            ("pkg/bad.py", "second error in the same file"),
        ] + [
            ("<purity>", f"purity root pkg.root{i} not found")
            for i in range(6)
        ]
        lines = LintReport(errors=errors, checked_files=3).render()
        assert lines.splitlines()[-3:] == [
            "1 file(s) could not be checked",
            "6 other error(s)",
            "0 violation(s) in 3 checked file(s)",
        ]


def test_purity_summary_on_an_unreadable_tree(tmp_path):
    # One non-UTF-8 file and two purity roots the tree cannot define.
    (tmp_path / "bad.py").write_bytes(b"name = '\xff'\n")
    (tmp_path / "ok.py").write_text("def f():\n    return 1\n")
    allowlist = tmp_path / "allow-nothing.txt"
    allowlist.write_text("# no grants\n")
    report = run_purity(
        [str(tmp_path)],
        roots={"ok.no_such": "typo", "ok.other": "typo"},
        allowlist_path=allowlist,
    )
    assert report.exit_code == 2
    text = report.render()
    assert "1 file(s) could not be checked" in text
    assert "2 other error(s)" in text
