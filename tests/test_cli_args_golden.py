"""Golden of the CLI's argument contract: every parser and subparser of
``build_parser()``, with each argument's option strings, destination,
default, nargs, choices, help, metavar and type.

What argparse computes differently from one Python version to the next is
left out: whether a positional is required (a ``nargs="*"`` positional is
required in 3.11 and not in 3.13), and the rendered ``--help`` text.

Regenerate ``data/cli_args_golden.txt`` after an intended change:

    PYTHONPATH=src python tests/test_cli_args_golden.py
"""

import argparse
import json
from pathlib import Path

from tokipona.cli import build_parser

GOLDEN = Path(__file__).parent / "data" / "cli_args_golden.txt"


def _records(parser: argparse.ArgumentParser, name: str, help_text):
    """One record for ``parser``, then one per argument, then those of each
    subparser, in the order they were added."""
    yield {"parser": name, "help": help_text, "description": parser.description}
    for action in parser._actions:
        record = {
            "parser": name,
            "action": type(action).__name__.strip("_").removesuffix("Action"),
            "option_strings": action.option_strings,
            "dest": action.dest,
            "default": action.default,
            "nargs": action.nargs,
            "choices": None if action.choices is None else list(action.choices),
            "help": action.help,
            "metavar": action.metavar,
            "type": getattr(action.type, "__name__", action.type),
        }
        if action.option_strings or isinstance(action, argparse._SubParsersAction):
            record["required"] = action.required
        yield record
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            helps = {choice.dest: choice.help for choice in action._choices_actions}
            for sub_name, sub in action.choices.items():
                yield from _records(sub, f"{name} {sub_name}", helps.get(sub_name))


def render() -> str:
    return "".join(json.dumps(r) + "\n" for r in _records(build_parser(), "tokipona", None))


def test_cli_args_golden():
    assert render() == GOLDEN.read_text("utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(), "utf-8")
