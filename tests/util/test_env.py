"""The single environment-variable choke point (`repro.util.env`).

Every ``os.environ`` read in the package goes through
:func:`repro.util.env.read_env` -- the purity analyzer's ENV_READ
allowlist has exactly one entry, and these tests pin the accessor
semantics that entry's justification relies on.
"""

import ast
import pathlib
import re

import repro
from repro.util.env import SANITIZE, SWEEP_SHM, env_flag, read_env


class TestReadEnv:
    def test_reads_live_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "value")
        assert read_env("REPRO_TEST_KNOB") == "value"

    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        assert read_env("REPRO_TEST_KNOB") == ""
        assert read_env("REPRO_TEST_KNOB", "fallback") == "fallback"

    def test_rereads_per_call(self, monkeypatch):
        # monkeypatch.setenv in tests must take effect immediately --
        # no import-time caching.
        monkeypatch.setenv("REPRO_TEST_KNOB", "one")
        assert read_env("REPRO_TEST_KNOB") == "one"
        monkeypatch.setenv("REPRO_TEST_KNOB", "two")
        assert read_env("REPRO_TEST_KNOB") == "two"


class TestEnvFlag:
    def test_unset_uses_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_FLAG", raising=False)
        assert env_flag("REPRO_TEST_FLAG") is False
        assert env_flag("REPRO_TEST_FLAG", default=True) is True

    def test_zero_and_empty_are_false(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAG", "0")
        assert env_flag("REPRO_TEST_FLAG", default=True) is False
        monkeypatch.setenv("REPRO_TEST_FLAG", "")
        assert env_flag("REPRO_TEST_FLAG", default=True) is False

    def test_anything_else_is_true(self, monkeypatch):
        for raw in ("1", "yes", "on", "weird"):
            monkeypatch.setenv("REPRO_TEST_FLAG", raw)
            assert env_flag("REPRO_TEST_FLAG") is True


def test_declared_knob_names_are_stable():
    # These spellings are user-facing (docs, CI); renaming them is a
    # breaking change that must be deliberate.
    assert SANITIZE == "REPRO_SANITIZE"
    assert SWEEP_SHM == "REPRO_SWEEP_SHM"
    # And they are the only knobs: a new one anywhere in the package
    # has to be added here on purpose.
    knob = re.compile(r"^REPRO_[A-Z_]+$")
    found = set()
    for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and knob.match(node.value)
            ):
                found.add(node.value)
    assert found == {"REPRO_SANITIZE", "REPRO_SWEEP_SHM"}
