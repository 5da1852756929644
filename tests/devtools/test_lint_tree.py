"""Framework behaviour and the meta-test: the real tree lints clean.

The meta-test is the point of the whole exercise -- every determinism
invariant the DET/COR rules encode must actually hold on ``src/``.
If it fails, either new code broke an invariant (fix the code) or a
rule misfires (fix the rule); both are PR blockers, matching the
``lint-repro`` CI job.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.lint import main
from repro.devtools.registry import all_rules
from repro.devtools.report import render_json, render_text
from repro.devtools.runner import iter_python_files, lint_paths, lint_source

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def test_src_tree_is_clean():
    report = lint_paths([str(REPO_ROOT / "src")])
    assert report.errors == []
    assert report.violations == [], "\n".join(
        v.format() for v in report.violations
    )
    assert report.checked_files > 80  # the whole package, not a subset


def test_tests_tree_is_clean():
    report = lint_paths([str(REPO_ROOT / "tests")])
    assert report.errors == []
    assert report.violations == [], "\n".join(
        v.format() for v in report.violations
    )


def test_scripts_and_benchmarks_trees_are_clean():
    # The harness/bench surface is linted by CI too ("other" scope:
    # wall-clock reads are fine there, COR/DET002 rules still apply).
    report = lint_paths(
        [str(REPO_ROOT / "scripts"), str(REPO_ROOT / "benchmarks")]
    )
    assert report.errors == []
    assert report.violations == [], "\n".join(
        v.format() for v in report.violations
    )
    assert report.checked_files > 30


def test_parallel_lint_matches_serial():
    target = str(REPO_ROOT / "src" / "repro" / "devtools")
    serial = lint_paths([target])
    parallel = lint_paths([target], jobs=2)
    assert parallel.violations == serial.violations
    assert parallel.errors == serial.errors
    assert parallel.checked_files == serial.checked_files


def test_rule_timings_are_collected():
    report = lint_paths([str(REPO_ROOT / "src" / "repro" / "util")])
    assert set(report.rule_timings) == {
        r.code for r in all_rules()
    }
    assert all(t >= 0.0 for t in report.rule_timings.values())


def test_every_rule_is_registered():
    rule_codes = [r.code for r in all_rules()]
    assert rule_codes == sorted(rule_codes)
    for expected in ("DET001", "DET002", "DET003", "DET004", "COR001", "COR002"):
        assert expected in rule_codes
    for rule in all_rules():
        assert rule.summary, rule.code
        assert rule.rationale, rule.code


def test_violation_format_is_file_line_col_rule():
    violations = lint_source(
        "token = id(x)\n", "src/repro/example.py"
    )
    assert len(violations) == 1
    line = violations[0].format()
    assert line.startswith("src/repro/example.py:1:9: DET002 ")


def test_exit_code_contract(tmp_path):
    clean = tmp_path / "src" / "repro" / "clean.py"
    clean.parent.mkdir(parents=True)
    clean.write_text("x = 1\n")
    assert main([str(clean)]) == 0

    dirty = clean.with_name("dirty.py")
    dirty.write_text("token = id(x)\n")
    assert main([str(dirty)]) == 1

    unparseable = clean.with_name("broken.py")
    unparseable.write_text("def f(:\n")
    assert main([str(unparseable)]) == 2

    assert main([str(tmp_path / "no-such-dir")]) == 2


def test_json_report_shape(tmp_path):
    target = tmp_path / "src" / "repro" / "mod.py"
    target.parent.mkdir(parents=True)
    target.write_text("token = id(x)\n")
    report = lint_paths([str(target)])
    payload = json.loads(render_json(report))
    assert payload["exit_code"] == 1
    assert payload["checked_files"] == 1
    (violation,) = payload["violations"]
    assert violation["rule"] == "DET002"
    assert violation["line"] == 1

    text = render_text(report)
    assert "DET002" in text
    assert "1 violation(s)" in text


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "repro.devtools.lint", "--list-rules"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": ""},
    )
    assert result.returncode == 0
    assert "DET001" in result.stdout


def test_file_discovery_skips_pycache(tmp_path):
    (tmp_path / "pkg" / "__pycache__").mkdir(parents=True)
    (tmp_path / "pkg" / "__pycache__" / "junk.py").write_text("x=1\n")
    (tmp_path / "pkg" / "real.py").write_text("x = 1\n")
    found = iter_python_files([str(tmp_path)])
    assert [p.name for p in found] == ["real.py"]


@pytest.mark.parametrize(
    "path,expected",
    [
        ("src/repro/core/binning.py", "src"),
        ("tests/core/test_binning.py", "tests"),
        ("tests/conftest.py", "tests"),
        ("scripts/bench_report.py", "other"),
    ],
)
def test_scope_classification(path, expected):
    from repro.devtools.registry import classify_scope

    assert classify_scope(path) == expected
