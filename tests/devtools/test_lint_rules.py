"""Per-rule fixtures: positive, negative, and noqa-suppressed snippets.

Each rule gets three kinds of evidence: code it must flag, close-by
code it must NOT flag, and a justified ``# repro: noqa`` suppression
it must honour.  Snippets are linted through the public
``lint_source`` with a fake path, which is how scope handling
(src vs tests) is exercised too.
"""

import textwrap

import pytest

from repro.devtools.runner import lint_source

#: A path that makes snippets count as simulation source.
SRC = "src/repro/example.py"
#: A path that makes snippets count as test code.
TEST = "tests/test_example.py"


def codes(text, path=SRC):
    """The rule codes flagged in *text*, in report order."""
    return [v.rule for v in lint_source(textwrap.dedent(text), path)]


# --- DET001: global / unseeded RNG ----------------------------------------


@pytest.mark.parametrize(
    "snippet",
    [
        "import random\n",
        "from random import shuffle\n",
        "import numpy as np\nx = np.random.rand(3)\n",
        "import numpy as np\nnp.random.seed(7)\n",
        "import numpy as np\nrng = np.random.default_rng()\n",
        "from numpy.random import default_rng\nrng = default_rng()\n",
        "import numpy\nnumpy.random.shuffle([1])\n",
    ],
)
def test_det001_flags_global_rng(snippet):
    assert "DET001" in codes(snippet)


@pytest.mark.parametrize(
    "snippet",
    [
        # Seeded construction and type references are the sanctioned idiom.
        "import numpy as np\nrng = np.random.default_rng(42)\n",
        "import numpy as np\ndef f(rng: np.random.Generator) -> None: ...\n",
        "import numpy as np\nrng = np.random.default_rng(seed=3)\n",
        # A local variable named `random` is not the stdlib module.
        "random = 3\nx = random\n",
    ],
)
def test_det001_allows_seeded_rng(snippet):
    assert "DET001" not in codes(snippet)


def test_det001_exempts_the_rng_module_itself():
    snippet = "import numpy as np\nrng = np.random.default_rng()\n"
    assert "DET001" not in codes(snippet, path="src/repro/util/rng.py")


def test_det001_does_not_apply_to_tests():
    assert "DET001" not in codes("import random\n", path=TEST)


# --- DET002: id() as key/token --------------------------------------------


@pytest.mark.parametrize(
    "snippet",
    [
        "cache = {}\ncache[id(x)] = 1\n",
        "token = id(table)\n",
        "ok = id(a) == id(b)\n",
        "seen = set()\nseen.add(id(x))\n",
        "d = {id(x): 1}\n",
        "key = (id(a), 3)\n",
    ],
)
def test_det002_flags_id_tokens(snippet):
    assert "DET002" in codes(snippet)


@pytest.mark.parametrize(
    "snippet",
    [
        # Diagnostic printing of an id is not a token use.
        "print(f'object at {id(x):#x}')\n",
        # A user-defined id function is not the builtin.
        "row = table.id(3)\n",
    ],
)
def test_det002_allows_diagnostic_id(snippet):
    assert "DET002" not in codes(snippet)


def test_det002_applies_to_tests_too():
    assert "DET002" in codes("token = id(x)\n", path=TEST)


# --- DET003: wall-clock reads ---------------------------------------------


@pytest.mark.parametrize(
    "snippet",
    [
        "import time\nnow = time.time()\n",
        "import time\nstamp = time.monotonic()\n",
        "import time\ntick = time.perf_counter\n",  # reference, not call
        "from datetime import datetime\nd = datetime.now()\n",
        "import datetime\nd = datetime.datetime.utcnow()\n",
    ],
)
def test_det003_flags_wall_clock(snippet):
    assert "DET003" in codes(snippet)


@pytest.mark.parametrize(
    "snippet",
    [
        # Constructing a fixed datetime is how the repo derives epochs.
        "import datetime as dt\n"
        "d = dt.datetime(2015, 11, 30, tzinfo=dt.timezone.utc)\n",
        "import time\nzone = time.timezone\n",
        "import datetime\nd = datetime.datetime.strptime(s, '%Y-%m-%d')\n",
    ],
)
def test_det003_allows_fixed_times(snippet):
    assert "DET003" not in codes(snippet)


def test_det003_does_not_apply_to_tests():
    snippet = "import time\nnow = time.time()\n"
    assert "DET003" not in codes(snippet, path=TEST)


# --- DET004: bare set iteration -------------------------------------------


@pytest.mark.parametrize(
    "snippet",
    [
        "for x in {1, 2, 3}:\n    pass\n",
        "vals = list(set(items))\n",
        "vals = tuple(frozenset(items))\n",
        "out = [f(x) for x in set(items)]\n",
        "text = ','.join({str(x) for x in items})\n",
        "for i, x in enumerate(set(items)):\n    pass\n",
    ],
)
def test_det004_flags_bare_set_iteration(snippet):
    assert "DET004" in codes(snippet)


@pytest.mark.parametrize(
    "snippet",
    [
        "vals = sorted(set(items))\n",
        "for x in sorted({1, 2, 3}):\n    pass\n",
        "n = len(set(items))\n",
        "present = x in set(items)\n",
        "union = set(a) | set(b)\n",
    ],
)
def test_det004_allows_sorted_or_unordered_use(snippet):
    assert "DET004" not in codes(snippet)


# --- COR001: mutable default arguments ------------------------------------


@pytest.mark.parametrize(
    "snippet",
    [
        "def f(a, acc=[]):\n    pass\n",
        "def f(a, table={}):\n    pass\n",
        "def f(a, seen=set()):\n    pass\n",
        "def f(a, *, acc=list()):\n    pass\n",
        "g = lambda a, acc=[]: acc\n",
    ],
)
def test_cor001_flags_mutable_defaults(snippet):
    assert "COR001" in codes(snippet)


@pytest.mark.parametrize(
    "snippet",
    [
        "def f(a, acc=None):\n    pass\n",
        "def f(a, acc=()):\n    pass\n",
        "def f(a, name=''):\n    pass\n",
        "from dataclasses import field\n"
        "def f(a, acc=field(default_factory=list)):\n    pass\n",
    ],
)
def test_cor001_allows_immutable_defaults(snippet):
    assert "COR001" not in codes(snippet)


def test_cor001_applies_to_tests_too():
    assert "COR001" in codes("def f(acc=[]):\n    pass\n", path=TEST)


# --- COR002: float equality -----------------------------------------------


@pytest.mark.parametrize(
    "snippet",
    [
        "ok = x == 1.5\n",
        "ok = 0.1 != y\n",
        "ok = x == -2.5\n",
        "ok = a < b == 0.5\n",
    ],
)
def test_cor002_flags_float_equality(snippet):
    assert "COR002" in codes(snippet)


@pytest.mark.parametrize(
    "snippet",
    [
        "ok = x == 1\n",          # int literal: exact by construction
        "ok = x >= 1.5\n",        # ordering comparison
        "ok = x == y\n",          # no literal involved
        "import math\nok = math.isclose(x, 1.5)\n",
    ],
)
def test_cor002_allows_tolerant_comparisons(snippet):
    assert "COR002" not in codes(snippet)


def test_cor002_does_not_apply_to_tests():
    assert "COR002" not in codes("assert x == 1.5\n", path=TEST)


# --- Suppressions ----------------------------------------------------------


def test_justified_noqa_suppresses():
    snippet = (
        "import numpy as np\n"
        "rng = np.random.default_rng()"
        "  # repro: noqa DET001 -- fixture demo, result discarded\n"
    )
    assert codes(snippet) == []


def test_noqa_only_covers_listed_codes():
    snippet = (
        "token = id(x)  # repro: noqa DET001 -- wrong code listed\n"
    )
    flagged = codes(snippet)
    assert "DET002" in flagged          # violation survives
    assert "NOQ002" in flagged          # and the suppression is stale


def test_unjustified_noqa_is_flagged():
    snippet = "token = id(x)  # repro: noqa DET002\n"
    flagged = codes(snippet)
    assert "NOQ001" in flagged
    assert "DET002" in flagged          # unjustified noqa silences nothing


def test_unused_noqa_is_flagged():
    snippet = "x = 1  # repro: noqa DET001 -- stale justification\n"
    assert codes(snippet) == ["NOQ002"]


def test_noqa_inside_string_literal_is_ignored():
    snippet = "s = '# repro: noqa DET001 -- not a comment'\n"
    assert codes(snippet) == []


def test_multiple_codes_one_comment():
    snippet = (
        "import time\n"
        "now = time.time() == 1.5"
        "  # repro: noqa DET003,COR002 -- fixture exercising both rules\n"
    )
    assert codes(snippet) == []
