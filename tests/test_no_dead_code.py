"""Every function and class in the library is used somewhere.

A name defined in ``src/foxtwist`` counts as used when it occurs, as a
whole word, anywhere in ``src/``, ``tests/``, ``bench/`` or the README
beyond its own definitions.  Dunder methods are called by the language
and are exempt.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "foxtwist"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def corpus_words():
    paths = [ROOT / "README.md"]
    for folder in ("src", "tests", "bench"):
        paths += sorted((ROOT / folder).rglob("*.py"))
    words = Counter()
    for path in paths:
        words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    return words


def test_every_function_and_class_is_referenced():
    defined = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined.update(node.name for node in ast.walk(tree)
                       if isinstance(node, DEFINITIONS)
                       and not (node.name.startswith("__") and node.name.endswith("__")))
    assert defined
    words = corpus_words()
    dead = sorted(name for name, count in defined.items() if words[name] <= count)
    assert not dead, f"defined in src/foxtwist but referenced nowhere: {dead}"


def test_every_exported_name_resolves():
    import foxtwist
    from foxtwist import truncated_completion

    for module in (foxtwist, truncated_completion):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing objects: {missing}"
