"""`docs/tutorial.md` runs as written.

Its ```python blocks run in order in one namespace, as a reader pastes
them into one session, from a scratch working directory (§7 writes
``events.npz`` there).  A block that raises fails the test with the
block's number in the traceback.
"""

import pathlib
import re

TUTORIAL = (
    pathlib.Path(__file__).resolve().parent.parent / "docs" / "tutorial.md"
)


def _python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)


def test_tutorial_runs_as_written(tmp_path, monkeypatch):
    blocks = _python_blocks(TUTORIAL.read_text(encoding="utf-8"))
    assert len(blocks) == 10
    monkeypatch.chdir(tmp_path)
    namespace: dict[str, object] = {"__name__": "tutorial"}
    for number, block in enumerate(blocks, 1):
        name = f"{TUTORIAL.name}, python block {number}"
        exec(compile(block, name, "exec"), namespace)
