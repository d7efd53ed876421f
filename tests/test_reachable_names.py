"""Every public module-level function and class in ``src/repro`` has a caller.

An AST scan collects the public (no leading underscore) functions and
classes defined at module level in ``src/repro`` and looks for a reference
to each name from code that runs outside the test suite: the library's own
modules, ``perfbench/``, ``examples/``, ``scripts/`` and ``benchmarks/``.
A reference is a load of the name, an attribute of that name, or an import
of it by a module that is not a package ``__init__.py`` (a re-export alone
calls nothing). A reference counts only from code that is itself live, so a
name whose only callers are dead names is dead too (the scan repeats until
nothing changes); references inside the definition itself never count.

A name found only by the tests is dead code with tests around it: delete it
with its tests, move it to ``tests/support`` if tests use it as an oracle, or
list it in ``ALLOWED`` with the reason it stays.

Methods get a coarser check by name alone: a public method or property of a
top-level class in ``src/repro`` must be mentioned somewhere outside its own
body, tests included, as an attribute access, a name or a string literal
(``getattr`` and ``perfbench``'s wraps look methods up by string).  A method
no code mentions at all is dead: delete it.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src/repro", "perfbench", "examples", "scripts", "benchmarks")
MENTION_DIRS = ("src", "tests", "perfbench", "benchmarks", "examples", "scripts")

# Public names that stay although no code outside the tests calls them.
ALLOWED = {
    "repro.models.sampling.TemperatureSampler":
        "the only sampler that drives the engine's per-request seed/rng path",
    "repro.bench.registry.unregister":
        "tests isolate the global benchmark registry with it",
    "repro.gateway.metrics.catalogue_markdown":
        "regenerates the metric catalogue in docs/OPERATIONS.md",
    "repro.gateway.metrics.splice_catalogue":
        "regenerates the metric catalogue in docs/OPERATIONS.md",
    "repro.utils.logging.JsonLogFormatter":
        "opt-in JSON logging API; the gateway binds request ids for it",
    "repro.utils.logging.enable_json_logging":
        "opt-in JSON logging API; the gateway binds request ids for it",
    "repro.eval.schemes.available_schemes":
        "the unknown-scheme error of build_cache_factory points users to it",
}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(REPO / "src").with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _public_definitions() -> dict[str, tuple[str, ast.AST, Path]]:
    """Qualified name -> (short name, definition node, file) for ``src/repro``."""
    found = {}
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    found[f"{_module_name(path)}.{node.name}"] = (node.name, node, path)
    return found


def _references() -> dict[str, list[tuple[Path, int]]]:
    """Name -> every (file, line) outside the tests that references it."""
    refs: dict[str, list[tuple[Path, int]]] = {}
    for directory in CALLER_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            if "tests" in path.relative_to(REPO).parts:
                continue
            reexports = path.name == "__init__.py"
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias) and not reexports:
                    name = node.name.rsplit(".", 1)[-1]
                else:
                    continue
                refs.setdefault(name, []).append((path, getattr(node, "lineno", 0)))
    return refs


def unreachable_names() -> list[str]:
    refs = _references()
    definitions = _public_definitions()
    dead: set[str] = set()
    while True:
        # Line spans of the definitions known dead so far, per file.
        dead_spans = [
            (path, range(node.lineno, node.end_lineno + 1))
            for qualified, (_, node, path) in definitions.items()
            if qualified in dead
        ]
        grew = False
        for qualified, (name, node, path) in definitions.items():
            if qualified in dead:
                continue
            own = range(node.lineno, node.end_lineno + 1)
            spans = [(path, own), *dead_spans]
            live = [
                ref for ref in refs.get(name, ())
                if not any(ref[0] == p and ref[1] in span for p, span in spans)
            ]
            if not live:
                dead.add(qualified)
                grew = True
        if not grew:
            return sorted(dead)


def test_every_public_name_has_a_caller_outside_the_tests():
    dead = [name for name in unreachable_names() if name not in ALLOWED]
    assert not dead, (
        "public names that only the tests reach (delete them, move a test "
        "oracle to tests/support, or allowlist with a reason):\n  "
        + "\n  ".join(dead)
    )


def test_allowlist_names_exist_and_are_still_unreached():
    # An allowlisted name that was deleted, or that gained a caller, must
    # leave the allowlist so the list stays short and true.
    dead = set(unreachable_names())
    defined = set(_public_definitions())
    assert not set(ALLOWED) - defined, "allowlisted names that no longer exist"
    assert not set(ALLOWED) - dead, "allowlisted names that now have a caller"


def _public_methods() -> dict[str, tuple[str, ast.AST, Path]]:
    """``module.Class.method`` -> (method name, definition node, file)."""
    found = {}
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not node.name.startswith("_"):
                        qualified = f"{_module_name(path)}.{cls.name}.{node.name}"
                        found[qualified] = (node.name, node, path)
    return found


def _mentions() -> dict[str, list[tuple[Path, int]]]:
    """Name -> every (file, line) naming it: attribute, name or string literal."""
    mentions: dict[str, list[tuple[Path, int]]] = {}
    for directory in MENTION_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    name = node.value
                else:
                    continue
                mentions.setdefault(name, []).append((path, node.lineno))
    return mentions


def unmentioned_methods() -> list[str]:
    mentions = _mentions()
    dead = []
    for qualified, (name, node, path) in _public_methods().items():
        own = range(node.lineno, node.end_lineno + 1)
        if all(p == path and line in own for p, line in mentions.get(name, ())):
            dead.append(qualified)
    return sorted(dead)


def test_every_public_method_is_mentioned():
    dead = unmentioned_methods()
    assert not dead, (
        "public methods whose name nothing mentions outside their own body "
        "(delete them):\n  " + "\n  ".join(dead)
    )
