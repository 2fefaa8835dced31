"""The package's modules import one another without a cycle."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "tokipona"


def _relative_imports(path: Path) -> set[str]:
    """The sibling modules ``path`` imports, at module level or deferred into
    a function: a deferred import still needs the module it names."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                names.add(node.module.split(".")[0])
            else:  # from . import a, b
                names.update(alias.name for alias in node.names)
    return names


def _cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle of ``graph`` as the modules along it, or [] if there is none."""
    done: set[str] = set()

    def visit(module: str, path: list[str]) -> list[str]:
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return []
        for imported in sorted(graph.get(module, ())):
            found = visit(imported, path + [module])
            if found:
                return found
        done.add(module)
        return []

    for module in sorted(graph):
        found = visit(module, [])
        if found:
            return found
    return []


def test_cycle_finder():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": set()}) == []
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]


def test_relative_imports_form_no_cycle():
    graph = {p.stem: _relative_imports(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert graph["cli"] >= {"grammar", "synth"}  # the walk finds imports at all
    assert "synth" not in graph["counting"]
    assert _cycle(graph) == []
