"""Every public method or property of the package has a caller.

An AST scan lists each public method or property defined on a class in
``src/tokipona`` whose name no code in ``src/``, ``perfbench/`` or ``tools/``
reads as an attribute.  Such a name is only a test's, so it is deleted or kept
here with the reason a user or a paper check needs it.  The scan goes by name,
so a name that another class also defines and the code reads (``walk``,
``count``, ``row``) is never listed, used or not.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The public names the scan finds, each with the reason it stays.
ALLOWED = {
    "HighlightGroup.distinct_size": "the acceptance tests check the paper's group sizes with it",
    "ParseResult.problems": "README documents it for users",
    "Synthesizer.verse_letters": "ROADMAP item 12 decides it",
}


def _trees(directory: str):
    for path in sorted((ROOT / directory).rglob("*.py")):
        yield ast.parse(path.read_text("utf-8"), str(path))


def uncalled() -> list[str]:
    """``Class.name`` of each public method or property that nothing reads."""
    read = {node.attr for directory in ("src", "perfbench", "tools")
            for tree in _trees(directory) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(
        f"{cls.name}.{f.name}"
        for tree in _trees("src/tokipona") for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for f in cls.body
        if isinstance(f, ast.FunctionDef)
        and not f.name.startswith("_") and f.name not in read
    )


def test_every_public_method_has_a_caller_or_a_reason():
    assert uncalled() == sorted(ALLOWED)
