"""Golden of the library's public API: one line per callable that
``tokipona`` exports, with its parameter names, then one per public class
that a module of the package defines but the package does not export, named
``module.Class``.

A function gives one line.  A class gives a line for its constructor when it
defines ``__init__`` or ``__new__`` itself, then one for each public method
it defines itself, and one for each public property, written without
parentheses.  An Enum gives a line of its member names, ``Name: A, B``, in
place of a constructor, and a class that gives no other line gives its bare
name, so that no public class comes or goes unseen.  A parameter with a
default is written ``name=``, and the markers ``*``, ``**`` and ``/`` are
kept; the ``self`` or ``cls`` a method is bound to is left out.  Annotations
and default values are left out, so that every supported Python version
prints the same text.  Each parameter is a value a caller can set, so the
file's parameter count tracks the library's knobs as ``cli_args_golden.txt``
tracks the CLI's.  A property or a class that the package does not export
shows here when it comes or goes, although no caller of the package names it.

Regenerate ``data/api_golden.txt`` after an intended change to the API:

    PYTHONPATH=src python tests/test_api_golden.py
"""

import enum
import inspect
import pkgutil
from functools import cached_property
from importlib import import_module
from pathlib import Path

import tokipona

GOLDEN = Path(__file__).parent / "data" / "api_golden.txt"


def _parameters(function, bound: bool) -> str:
    """The parameter list of ``function``, without the first if ``bound``."""
    params = list(inspect.signature(function).parameters.values())[bound:]
    names, starred = [], False
    for i, p in enumerate(params):
        if p.kind is p.KEYWORD_ONLY and not starred:
            names.append("*")
        starred = starred or p.kind in (p.VAR_POSITIONAL, p.KEYWORD_ONLY)
        prefix = {p.VAR_POSITIONAL: "*", p.VAR_KEYWORD: "**"}.get(p.kind, "")
        names.append(prefix + p.name + ("=" if p.default is not p.empty else ""))
        if p.kind is p.POSITIONAL_ONLY and (
                i + 1 == len(params) or params[i + 1].kind is not p.POSITIONAL_ONLY):
            names.append("/")
    return "(" + ", ".join(names) + ")"


def _lines(name: str, value) -> list[str]:
    if not inspect.isclass(value):
        return [name + _parameters(value, bound=False)]
    return list(_class_lines(name, value)) or [name]


def _class_lines(name: str, value):
    own = vars(value)
    if issubclass(value, enum.Enum):
        yield f"{name}: {', '.join(value.__members__)}"
    elif "__init__" in own or "__new__" in own:
        constructor = own.get("__init__", own.get("__new__"))
        yield name + _parameters(getattr(constructor, "__func__", constructor), bound=True)
    for attr, member in own.items():
        if attr.startswith("_"):
            continue
        if isinstance(member, staticmethod):
            yield f"{name}.{attr}" + _parameters(member.__func__, bound=False)
        elif isinstance(member, classmethod):
            yield f"{name}.{attr}" + _parameters(member.__func__, bound=True)
        elif inspect.isfunction(member):
            yield f"{name}.{attr}" + _parameters(member, bound=True)
        elif isinstance(member, (property, cached_property)):
            yield f"{name}.{attr}"


def _unexported():
    """(``module.Class``, class) for each public class that a module of the
    package defines and the package does not export, by module and then in
    the order the module defines them."""
    for info in sorted(pkgutil.iter_modules(tokipona.__path__), key=lambda m: m.name):
        module = import_module(f"tokipona.{info.name}")
        for name, value in vars(module).items():
            if (inspect.isclass(value) and value.__module__ == module.__name__
                    and not name.startswith("_") and name not in tokipona.__all__):
                yield f"{info.name}.{name}", value


def render() -> str:
    exported = [(name, getattr(tokipona, name)) for name in tokipona.__all__]
    return "".join(line + "\n" for name, value in [*exported, *_unexported()]
                   for line in _lines(name, value))


def test_api_golden():
    assert render() == GOLDEN.read_text("utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(), "utf-8")
