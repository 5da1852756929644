"""The runtime imports no package it does not declare, and the paper
pipeline imports only what it runs.

`pyproject.toml` lists NumPy and PyYAML as the only runtime
dependencies.  A fresh interpreter that imports the package, its
analyses, the sweep runner, the CLI and `scripts/run_paper.py` must
not load SciPy or NetworkX, even through a transitive import.  Nor
may it load what only some runs use: the process pool, PyYAML (the
RSSAC-002 files), the linter, the resolver population and the
wire-level server load when a caller imports them.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

UNDECLARED = ("scipy", "networkx")

#: Packages and modules loaded only by the runs that use them.
ON_USE = (
    "yaml",
    "multiprocessing",
    "concurrent.futures",
    "repro.devtools.registry",
    "repro.devtools.runner",
    "repro.resolver",
    "repro.rootdns.runtime",
)

_PROBE = """
import json, sys
import repro, repro.core, repro.sweep, repro.cli
sys.path.insert(0, "scripts")
import run_paper
print(json.dumps({
    name: getattr(module, "__file__", None)
    for name, module in sys.modules.items()
}))
"""


@pytest.fixture(scope="module")
def loaded() -> dict[str, str | None]:
    """Module name -> source file of everything the probe imported."""
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def _within(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def test_no_undeclared_package_on_the_import_path(loaded):
    undeclared = [
        name for name in sorted(loaded) if name.split(".")[0] in UNDECLARED
    ]
    assert undeclared == []


def test_the_paper_pipeline_imports_only_what_it_runs(loaded):
    offenders = [
        package for package in ON_USE
        if any(_within(name, package) for name in loaded)
    ]
    closure = [
        path for name, path in loaded.items()
        if path and (name == "run_paper" or _within(name, "repro"))
    ]
    lines = sum(
        len(pathlib.Path(path).read_text(encoding="utf-8").splitlines())
        for path in closure
    )
    assert offenders == [], (
        f"`import repro, run_paper` loads {', '.join(offenders)} "
        f"({len(closure)} modules, {lines} source lines)"
    )
