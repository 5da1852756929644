"""The runtime imports no package it does not declare.

`pyproject.toml` lists NumPy and PyYAML as the only runtime
dependencies.  A fresh interpreter that imports the package, its
analyses, the sweep runner, the CLI and `scripts/run_paper.py` must
not load SciPy or NetworkX, even through a transitive import.
"""

import os
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

UNDECLARED = ("scipy", "networkx")

_PROBE = """
import sys
import repro, repro.core, repro.sweep, repro.cli
sys.path.insert(0, "scripts")
import run_paper
undeclared = {undeclared!r}
for name in sorted(sys.modules):
    if name.split(".")[0] in undeclared:
        print(name)
"""


def test_no_undeclared_package_on_the_import_path():
    result = subprocess.run(
        [sys.executable, "-c", _PROBE.format(undeclared=UNDECLARED)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []
