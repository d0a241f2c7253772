"""The mutation catalogue of tools/mutants.py still applies to the source.

Running the mutants takes minutes and stays out of this suite
(``python3 tools/mutants.py``); this checks that every anchor is in its
file once and that every named test exists.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _catalogue():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_applies_and_names_existing_tests():
    catalogue = _catalogue()
    assert catalogue.MUTANTS
    assert catalogue.anchor_problems() == []
    assert len({m.name for m in catalogue.MUTANTS}) == len(catalogue.MUTANTS)
    for mutant in catalogue.MUTANTS:
        assert mutant.path.startswith("src/") and mutant.replacement != mutant.anchor
        assert mutant.tests, mutant.name
        for test_id in mutant.tests:
            path, _, name = test_id.partition("::")
            tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
            functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            assert name.split("[")[0] in functions, test_id
