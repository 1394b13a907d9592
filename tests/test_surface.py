"""Every public top-level function and class of the package is reached.

A name counts as reached when it appears as a whole word in the package,
in ``scripts/``, in ``perfbench/`` or in ``tests/test_acceptance.py``,
outside its own definition and outside ``__init__.py``.  An occurrence
inside the definition of a name that is not reached does not count, so a
name used only by unreached code is found too.  Unit tests do not count:
a name only they call serves no command, acceptance check or benchmark
job.  ``PENDING`` lists the names kept on purpose for an open item of
ROADMAP.md; each must still be unreached, so the list cannot go stale.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "confpara"

PENDING = {
    "transitive_orbit_structure": "item 9: the countable-paradox decision for every action",
    "refined_partition_of": "item 3: the refinement statement's test",
    "EquidecompositionWitness": "item 14: verify_equidecomposable is a tracer target",
}


def _definitions():
    """name -> (path, first line, last line) of each public top-level def."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                out[node.name] = (path, node.lineno, node.end_lineno)
    return out


def _corpus():
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
              ROOT / "tests" / "test_acceptance.py"]
    return {p: p.read_text(encoding="utf-8") for p in sorted(paths)}


def unreached(definitions, corpus, keep=()):
    """Names of ``definitions`` with no occurrence outside their own
    definition and the definitions of other unreached names; the names in
    ``keep`` are reported when unreached, but their definitions count."""
    sites = {name: [] for name in definitions}  # name -> [(path, line)] of each use
    for path, text in corpus.items():
        for line, row in enumerate(text.splitlines(), 1):
            for word in re.findall(r"\w+", row):
                if word in sites:
                    sites[word].append((path, line))

    def inside(site, name):
        path, first, last = definitions[name]
        return site[0] == path and first <= site[1] <= last

    dead = set()
    while True:
        masked = dead - set(keep)
        found = {name for name in definitions if name not in dead and not any(
            not inside(site, name) and not any(inside(site, d) for d in masked)
            for site in sites[name])}
        if not found:
            return dead
        dead |= found


def test_every_public_name_is_reached():
    dead = unreached(_definitions(), _corpus(), keep=PENDING)
    assert sorted(dead - set(PENDING)) == []
    # a pending name that got reached, or went away, leaves the list
    assert sorted(dead & set(PENDING)) == sorted(PENDING)


def test_a_name_used_only_by_unreached_code_is_unreached(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "class Used:\n    pass\n\n\n"
        "class Helper:\n    pass\n\n\n"
        "def orphan():\n    return Helper()\n\n\n"
        "def pending():\n    return Kept()\n\n\n"
        "class Kept:\n    pass\n\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n",
        encoding="utf-8")
    caller = tmp_path / "caller.py"
    caller.write_text("Used()\n", encoding="utf-8")
    definitions = {}
    for node in ast.parse(source.read_text(encoding="utf-8")).body:
        definitions[node.name] = (source, node.lineno, node.end_lineno)
    corpus = {p: p.read_text(encoding="utf-8") for p in (source, caller)}
    assert unreached(definitions, corpus) == {"Helper", "orphan", "pending", "Kept",
                                              "recursive"}
    assert unreached(definitions, corpus, keep={"pending"}) == {"Helper", "orphan",
                                                                 "pending", "recursive"}
