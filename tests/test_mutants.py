"""The mutant list of ``scripts/mutants.py`` against the current source.

The full mutant run is too slow for Tier-1; this checks only that the list
is not stale: every snippet occurs exactly once in its file, its replacement
differs from it, and every test named to kill it exists.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_every_mutant_snippet_occurs_once_and_names_existing_tests():
    script = _mutants()
    assert script.stale(script.MUTANTS) == []
    assert len({m.name for m in script.MUTANTS}) == len(script.MUTANTS)
    defined = {}  # test file -> its top-level function names; each file parsed once
    for m in script.MUTANTS:
        assert m.path.startswith("src/") and m.replacement != m.snippet, m.name
        assert m.tests, m.name
        for node in m.tests:
            path, name = node.split("::")
            if path not in defined:
                tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
                defined[path] = {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}
            assert name in defined[path], (m.name, node)
