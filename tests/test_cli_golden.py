"""Golden output of the CLI's tree and tag commands over the bundled corpus.

Regenerate ``data/cli_corpus_golden.txt`` after an intended output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
from importlib import resources
from pathlib import Path

from tokipona.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_corpus_golden.txt"

COMMANDS = (
    ("parse",),
    ("--format", "json-lines", "parse"),
    ("--format", "tsv", "tag"),
)


def corpus_lines() -> list[str]:
    text = resources.files("tokipona").joinpath("data/corpus.txt").read_text("utf-8")
    return [l for l in text.splitlines() if l.strip() and not l.startswith("#")]


def render() -> str:
    """Exit status, stdout and stderr of every command on every corpus line."""
    parts = []
    for line in corpus_lines():
        for command in COMMANDS:
            argv = [*command, "--lenient", line]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            parts.append(
                f"$ tokipona {' '.join(argv)}\n"
                f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
            )
    return "".join(parts)


def test_cli_corpus_golden():
    assert render() == GOLDEN.read_text("utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(), "utf-8")
