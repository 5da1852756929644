"""The single environment-variable choke point (`repro.util.env`).

Every ``os.environ`` read in the package goes through
:func:`repro.util.env.read_env` -- the purity analyzer's ENV_READ
allowlist has exactly one entry, and these tests pin the accessor
semantics that entry's justification relies on.
"""

from repro.util.env import (
    ENGINE_BATCH,
    SANITIZE,
    SWEEP_CHAOS,
    SWEEP_SHM,
    env_flag,
    env_str,
    read_env,
)


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


class TestEnvStr:
    def test_passthrough(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_STR", "kill:3@1")
        assert env_str("REPRO_TEST_STR") == "kill:3@1"
        monkeypatch.delenv("REPRO_TEST_STR", raising=False)
        assert env_str("REPRO_TEST_STR", "none") == "none"


def test_declared_knob_names_are_stable():
    # These spellings are user-facing (docs, CI); renaming them is a
    # breaking change that must be deliberate.
    assert SWEEP_CHAOS == "REPRO_SWEEP_CHAOS"
    assert SANITIZE == "REPRO_SANITIZE"
    assert SWEEP_SHM == "REPRO_SWEEP_SHM"
    assert ENGINE_BATCH == "REPRO_ENGINE_BATCH"
