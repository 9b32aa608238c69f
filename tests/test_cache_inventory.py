"""Every unbounded module-level cache in the library is listed here.

A function decorated with ``lru_cache`` (or ``cache``) keeps what it
computes for the life of the process.  The package holds exactly the
caches named below, so adding one is a deliberate edit to this list.
Caches kept on objects, such as the prefix cache and the letter table
of a ``TwistAutomorphism``, live as long as their object and are not
listed.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "foxtwist"
CACHES = {"truncated_completion._monomial_frames", "surfaces.surface_pairing"}


def is_cache(decorator):
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = decorator.attr if isinstance(decorator, ast.Attribute) else getattr(decorator, "id", None)
    return name in ("lru_cache", "cache")


def test_the_package_holds_exactly_the_listed_caches():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.update(f"{path.stem}.{node.name}" for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and any(map(is_cache, node.decorator_list)))
    assert found == CACHES
