"""Interprocedural purity analysis (PUR001-PUR006) against fixture
packages, plus the meta-test: the real tree has zero unjustified
purity violations.

Fixture packages are written into ``tmp_path`` with a real
``__init__.py`` layout so module naming, relative-import resolution,
and call linking run exactly as they do on ``src/repro``.
"""

import textwrap
from pathlib import Path

import pytest

from repro.devtools.lint import main
from repro.devtools.purity import (
    PURITY_ROOTS,
    default_allowlist_path,
    parse_allowlist,
    run_purity,
)
from repro.devtools.runner import lint_source

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _write_package(root, files):
    """Create package *files* (relative path -> source) under *root*."""
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


def _three_hop_package(tmp_path, leaf_body):
    """A package whose root reaches *leaf_body* three calls deep:
    ``pkg.worker.run -> pkg.mid.step -> pkg.leaf.tick``."""
    return _write_package(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/worker.py": """
                from .mid import step

                def run(config):
                    return step(config)
            """,
            "pkg/mid.py": """
                from . import leaf

                def step(config):
                    return leaf.tick(config)
            """,
            "pkg/leaf.py": leaf_body,
        },
    )


ROOT = {"pkg.worker.run": "fixture root"}


def _empty_allowlist(tmp_path):
    """An empty grants file (a *missing* explicit path is an error by
    design -- a typo must not silently drop every grant)."""
    path = tmp_path / "allow-nothing.txt"
    path.write_text("# no grants\n")
    return path


def _check(tmp_path, leaf_body):
    _three_hop_package(tmp_path, leaf_body)
    return run_purity(
        [str(tmp_path)], roots=ROOT,
        allowlist_path=_empty_allowlist(tmp_path),
    )


class TestThreeHopWitness:
    """The acceptance fixture: a wall-clock read three calls deep."""

    LEAF = """
        import time

        def tick(config):
            return time.time()
    """

    def test_detected_with_rule_code(self, tmp_path):
        report = _check(tmp_path, self.LEAF)
        assert report.errors == []
        (violation,) = report.violations
        assert violation.rule == "PUR001"
        assert "pkg.worker.run" in violation.message
        assert "WALL_CLOCK" in violation.message

    def test_violation_anchors_at_the_root_def(self, tmp_path):
        report = _check(tmp_path, self.LEAF)
        (violation,) = report.violations
        assert violation.path.endswith("pkg/worker.py")
        assert violation.line == 4  # `def run` after the import

    def test_witness_path_walks_every_hop(self, tmp_path):
        report = _check(tmp_path, self.LEAF)
        (violation,) = report.violations
        assert len(violation.witness) == 3
        first, second, third = violation.witness
        assert first.startswith("pkg.worker.run (")
        assert "calls pkg.mid.step" in first
        assert "pkg/worker.py:5" in first  # the call site line
        assert second.startswith("pkg.mid.step (")
        assert "calls pkg.leaf.tick" in second
        assert third.startswith("pkg.leaf.tick (")
        assert "`time.time` reads the host clock" in third
        assert "pkg/leaf.py:5" in third


class TestEffectKinds:
    """One positive and one negative fixture per effect kind, all
    reached through the same three-hop chain."""

    def _codes(self, tmp_path, leaf_body):
        report = _check(tmp_path, leaf_body)
        assert report.errors == []
        return sorted(v.rule for v in report.violations)

    def test_wall_clock(self, tmp_path):
        positive = """
            from datetime import datetime

            def tick(config):
                return datetime.now()
        """
        assert self._codes(tmp_path, positive) == ["PUR001"]

    def test_wall_clock_negative_explicit_timestamp(self, tmp_path):
        negative = """
            from datetime import datetime

            def tick(config):
                return datetime.fromtimestamp(config)
        """
        assert self._codes(tmp_path, negative) == []

    def test_unseeded_rng(self, tmp_path):
        positive = """
            import numpy as np

            def tick(config):
                return np.random.default_rng().random()
        """
        assert self._codes(tmp_path, positive) == ["PUR002"]

    def test_unseeded_rng_negative_seeded(self, tmp_path):
        negative = """
            import numpy as np

            def tick(config):
                return np.random.default_rng(config).random()
        """
        assert self._codes(tmp_path, negative) == []

    def test_global_mutation_subscript(self, tmp_path):
        positive = """
            CACHE = {}

            def tick(config):
                CACHE[config] = 1
                return CACHE
        """
        assert self._codes(tmp_path, positive) == ["PUR003"]

    def test_global_mutation_mutator_method(self, tmp_path):
        positive = """
            SEEN = []

            def tick(config):
                SEEN.append(config)
                return SEEN
        """
        assert self._codes(tmp_path, positive) == ["PUR003"]

    def test_global_mutation_rebind_via_global(self, tmp_path):
        positive = """
            COUNT = 0

            def tick(config):
                global COUNT
                COUNT = COUNT + 1
                return COUNT
        """
        assert self._codes(tmp_path, positive) == ["PUR003"]

    def test_global_mutation_negative_local_shadow(self, tmp_path):
        negative = """
            CACHE = {}

            def tick(config):
                CACHE = {}
                CACHE[config] = 1
                return CACHE
        """
        assert self._codes(tmp_path, negative) == []

    def test_env_read(self, tmp_path):
        positive = """
            import os

            def tick(config):
                return os.environ.get("HOME", config)
        """
        assert self._codes(tmp_path, positive) == ["PUR004"]

    def test_env_read_negative_os_path(self, tmp_path):
        negative = """
            import os

            def tick(config):
                return os.path.join("a", config)
        """
        assert self._codes(tmp_path, negative) == []

    def test_fs_write_open_mode(self, tmp_path):
        positive = """
            def tick(config):
                with open(config, "w") as handle:
                    handle.write("x")
        """
        assert self._codes(tmp_path, positive) == ["PUR005"]

    def test_fs_write_negative_read_mode(self, tmp_path):
        negative = """
            def tick(config):
                with open(config) as handle:
                    return handle.read()
        """
        assert self._codes(tmp_path, negative) == []

    def test_nondet_iteration(self, tmp_path):
        positive = """
            def tick(config):
                return [x for x in {1, 2, config}]
        """
        assert self._codes(tmp_path, positive) == ["PUR006"]

    def test_nondet_iteration_negative_sorted(self, tmp_path):
        negative = """
            def tick(config):
                return [x for x in sorted({1, 2, config})]
        """
        assert self._codes(tmp_path, negative) == []

    def test_multiple_effects_report_one_violation_each(self, tmp_path):
        leaf = """
            import os
            import time

            def tick(config):
                os.environ.get("HOME")
                return time.time()
        """
        assert self._codes(tmp_path, leaf) == ["PUR001", "PUR004"]


class TestAllowlist:
    LEAF = """
        CACHE = {}

        def tick(config):
            CACHE[config] = 1
            return CACHE
    """

    def _run(self, tmp_path, allowlist_text):
        _three_hop_package(tmp_path, self.LEAF)
        allowlist = tmp_path / "allow.txt"
        allowlist.write_text(textwrap.dedent(allowlist_text))
        return run_purity(
            [str(tmp_path)], roots=ROOT, allowlist_path=allowlist
        )

    def test_grant_kills_effect_at_boundary(self, tmp_path):
        report = self._run(
            tmp_path,
            "pkg.leaf.tick GLOBAL_MUTATION -- fixture memo, output invariant\n",
        )
        assert report.errors == []
        assert report.violations == []

    def test_grant_on_mid_hop_also_cleans_root(self, tmp_path):
        report = self._run(
            tmp_path,
            "pkg.mid.step GLOBAL_MUTATION -- fixture boundary grant\n",
        )
        assert report.violations == []

    def test_stale_grant_is_noq002(self, tmp_path):
        report = self._run(
            tmp_path,
            "pkg.leaf.tick GLOBAL_MUTATION -- real grant\n"
            "pkg.leaf.tick WALL_CLOCK -- stale: tick never reads the clock\n",
        )
        (violation,) = report.violations
        assert violation.rule == "NOQ002"
        assert "no longer has the WALL_CLOCK effect" in violation.message
        assert violation.line == 2

    def test_unknown_function_grant_is_noq002(self, tmp_path):
        report = self._run(
            tmp_path,
            "pkg.leaf.tick GLOBAL_MUTATION -- real grant\n"
            "pkg.gone.fn ENV_READ -- function was deleted\n",
        )
        (violation,) = report.violations
        assert violation.rule == "NOQ002"
        assert "no function named pkg.gone.fn" in violation.message

    def test_missing_justification_is_noq001(self, tmp_path):
        report = self._run(
            tmp_path, "pkg.leaf.tick GLOBAL_MUTATION\n"
        )
        codes = sorted(v.rule for v in report.violations)
        # The malformed grant does not fire, so the violation remains.
        assert codes == ["NOQ001", "PUR003"]

    def test_unknown_effect_is_noq001(self, tmp_path):
        report = self._run(
            tmp_path, "pkg.leaf.tick TELEPATHY -- not an effect\n"
        )
        codes = sorted(v.rule for v in report.violations)
        assert codes == ["NOQ001", "PUR003"]
        noq = next(v for v in report.violations if v.rule == "NOQ001")
        assert "WALL_CLOCK" in noq.message  # lists the legal effects

    def test_comments_and_blanks_ignored(self):
        entries, violations = parse_allowlist(
            "# header\n\npkg.f ENV_READ -- why\n", "allow.txt"
        )
        assert violations == []
        (entry,) = entries
        assert entry.qualname == "pkg.f"
        assert entry.line == 3


class TestRootHandling:
    def test_missing_root_is_an_error(self, tmp_path):
        _three_hop_package(
            tmp_path, "def tick(config):\n    return config\n"
        )
        report = run_purity(
            [str(tmp_path)],
            roots={"pkg.worker.no_such": "typo"},
            allowlist_path=_empty_allowlist(tmp_path),
        )
        assert report.exit_code == 2
        assert any("no_such" in message for _, message in report.errors)

    def test_clean_package_is_clean(self, tmp_path):
        _three_hop_package(
            tmp_path, "def tick(config):\n    return config * 2\n"
        )
        report = run_purity(
            [str(tmp_path)], roots=ROOT,
            allowlist_path=_empty_allowlist(tmp_path),
        )
        assert report.exit_code == 0
        assert report.violations == []

    def test_non_utf8_file_is_an_error(self, tmp_path, capsys):
        _three_hop_package(
            tmp_path, "def tick(config):\n    return config\n"
        )
        target = tmp_path / "pkg" / "latin1.py"
        target.write_bytes(b'name = "\xff"\n')
        assert main(["--purity", str(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert f"{target.as_posix()}: error: unreadable: " in out
        assert "can't decode byte 0xff" in out


#: A module whose ``root`` runs one snippet on line ``SNIPPET_LINE``.
AGREEMENT_MODULE = (
    "import datetime\n"
    "import random\n"
    "import time\n"
    "\n"
    "import numpy as np\n"
    "\n"
    "\n"
    "def root(a):\n"
    "    {}\n"
)
SNIPPET_LINE = 9

#: (snippet, the DET rule its line breaks in ``src``, the PUR rule a
#: purity root running it breaks); ``None`` where neither flags it.
AGREEMENT = {
    "time.time": ("time.time()", "DET003", "PUR001"),
    "datetime.now": ("datetime.datetime.now()", "DET003", "PUR001"),
    "random.random": ("random.random()", "DET001", "PUR002"),
    "np.random.rand": ("np.random.rand(3)", "DET001", "PUR002"),
    "argless-default_rng": ("np.random.default_rng()", "DET001", "PUR002"),
    "for-over-set": ("for x in set(a): pass", "DET004", "PUR006"),
    "comprehension-over-set": ("[x for x in {1, 2}]", "DET004", "PUR006"),
    "list-of-set": ("list(set(a))", "DET004", "PUR006"),
    "join-of-frozenset": ('",".join(frozenset(a))', "DET004", "PUR006"),
    "seeded-default_rng": ("np.random.default_rng(7)", None, None),
    "generator-type": (
        "np.random.Generator(np.random.PCG64(1))", None, None,
    ),
    "sorted-set": ("sorted(set(a))", None, None),
}


@pytest.mark.parametrize("case", sorted(AGREEMENT))
def test_det_and_pur_agree(tmp_path, case):
    """The per-file rules and the purity analyzer share one classifier:
    a line gets DET00x in ``src`` exactly when a purity root running it
    gets the matching PUR00x, traced to that line."""
    snippet, det, pur = AGREEMENT[case]
    source = AGREEMENT_MODULE.format(snippet)

    flagged = {
        v.rule
        for v in lint_source(source, "src/repro/example.py")
        if v.line == SNIPPET_LINE
    }
    assert flagged == ({det} if det else set())

    _write_package(tmp_path, {"pkg/__init__.py": "", "pkg/mod.py": source})
    report = run_purity(
        [str(tmp_path)], roots={"pkg.mod.root": "fixture root"},
        allowlist_path=_empty_allowlist(tmp_path),
    )
    assert report.errors == []
    assert [v.rule for v in report.violations] == ([pur] if pur else [])
    for violation in report.violations:
        assert f"pkg/mod.py:{SNIPPET_LINE}" in violation.witness[-1]


class TestRealTree:
    """The acceptance meta-test, mirroring the ``purity-lint`` CI job."""

    def test_src_has_no_unjustified_purity_violations(self):
        report = run_purity([str(REPO_ROOT / "src")])
        assert report.errors == []
        assert report.violations == [], "\n".join(
            v.format() for v in report.violations
        )

    def test_declared_roots_all_exist(self):
        # Guard against silent vacuity: every declared root resolves.
        from repro.devtools.callgraph import ProjectIndex

        index = ProjectIndex.build([str(REPO_ROOT / "src")])
        for qualname in PURITY_ROOTS:
            assert qualname in index.functions, qualname

    def test_in_repo_allowlist_parses_clean(self):
        path = default_allowlist_path()
        entries, violations = parse_allowlist(
            path.read_text(encoding="utf-8"), str(path)
        )
        assert violations == []
        assert entries  # the repo does rely on justified grants
