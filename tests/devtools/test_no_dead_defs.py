"""Every function or method defined under ``src/repro`` is named
somewhere in the repository's code: a def nothing calls, imports or
looks up is dead code, and goes.

The scan is by name, over the ASTs of ``src/``, ``bench/``, ``tests/``,
``benchmarks/`` and ``examples/``: an identifier, an attribute, an
imported name or a word of a string constant (a ``getattr`` key, an
``__all__`` entry, a docstring's ``:meth:`` cross-reference) equal to
the def's name counts as a reference; its own ``def`` statement does
not.  Dunders are called by Python itself and
``visit_*`` methods by :class:`ast.NodeVisitor`'s dispatch, so neither
needs a reference.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
TREES = ("src", "bench", "tests", "benchmarks", "examples")


def _sources(*trees):
    for tree in trees:
        yield from sorted((ROOT / tree).rglob("*.py"))


def _exempt(name: str) -> bool:
    return (name.startswith("__") and name.endswith("__")) \
        or name.startswith("visit_")


def _defs() -> dict[str, list[str]]:
    """Each def name under src/repro -> where it is defined."""
    out: dict[str, list[str]] = {}
    for path in _sources("src/repro"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not _exempt(node.name):
                out.setdefault(node.name, []).append(
                    f"{path.relative_to(ROOT)}:{node.lineno}")
    return out


def _references() -> set[str]:
    names: set[str] = set()
    for path in _sources(*TREES):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                names.update(re.findall(r"\w+", node.value))
    return names


def test_every_def_is_named_somewhere():
    refs = _references()
    dead = sorted(f"{where}: {name}" for name, places in _defs().items()
                  if name not in refs for where in places)
    assert not dead, "defs with no reference:\n" + "\n".join(dead)
