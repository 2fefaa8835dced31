"""Golden of the library's public API: one line per callable that
``tokipona`` exports, with its parameter names.

A function gives one line.  A class gives a line for its constructor when it
defines ``__init__`` or ``__new__`` itself (an Enum's is left out), then one
for each public method it defines itself.  A parameter with a default is
written ``name=``, and the markers ``*``, ``**`` and ``/`` are kept; the
``self`` or ``cls`` a method is bound to is left out.  Annotations and
default values are left out, so that every supported Python version prints
the same text.  Each parameter is a value a caller can set, so the file's
parameter count tracks the library's knobs as ``cli_args_golden.txt``
tracks the CLI's.

Regenerate ``data/api_golden.txt`` after an intended change to the API:

    PYTHONPATH=src python tests/test_api_golden.py
"""

import enum
import inspect
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


def _lines(name: str, value):
    if not inspect.isclass(value):
        yield name + _parameters(value, bound=False)
        return
    own = vars(value)
    if not issubclass(value, enum.Enum) and ("__init__" in own or "__new__" in own):
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


def render() -> str:
    return "".join(line + "\n" for name in tokipona.__all__
                   for line in _lines(name, getattr(tokipona, name)))


def test_api_golden():
    assert render() == GOLDEN.read_text("utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(), "utf-8")
