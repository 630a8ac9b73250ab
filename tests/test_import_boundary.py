"""Import boundary: a Reptile run loads only what it runs.

``repro.core`` resolves its algorithm subpackages lazily, so importing
the ``correct`` tool must not drag in CLOSET, REDEEM, the evaluation
package or scipy; every public name still resolves on first use.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

HEAVY = ("scipy", "repro.core.closet", "repro.core.redeem", "repro.eval")


def test_correct_tool_import_skips_closet_redeem_scipy():
    probe = (
        "import json, sys\n"
        "import repro.tools.correct\n"
        f"print(json.dumps(sorted(m for m in {HEAVY!r} "
        "if m in sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert json.loads(out.stdout) == []


@pytest.mark.parametrize("name", importlib.import_module("repro.core").__all__)
def test_every_core_name_resolves(name):
    core = importlib.import_module("repro.core")
    assert getattr(core, name) is not None
    assert name in dir(core)


def test_core_submodules_import_both_ways():
    from repro.core import closet, redeem, reptile

    assert closet.__name__ == "repro.core.closet"
    assert redeem.__name__ == "repro.core.redeem"
    assert reptile.__name__ == "repro.core.reptile"
    from repro.core import HybridCorrector

    assert HybridCorrector.__module__ == "repro.core.hybrid"


def test_unknown_core_attribute_raises():
    import repro.core

    with pytest.raises(AttributeError):
        repro.core.no_such_name  # noqa: B018
