"""tools/mutants.py edits source files by exact text; each edit must still apply.

The mutation run itself is slow and runs on its own (see the tool's
docstring). This test only keeps its list from rotting: each old text must
occur exactly once in its file, so each mutant changes the line it names.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = load_mutants()


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.reason for m in MUTANTS])
def test_old_text_occurs_exactly_once(mutant):
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
