"""Golden output of seeded synthesis, through the CLI and the library.

Equal seeds must give equal bytes, so this pins every draw: the CLI's
``synth`` kinds at the default config, and library sessions at reuse
biases whose weights are not dyadic (0.3) or are whole (1.0), each with an
unbounded tracker and with a five-word window.

Regenerate ``data/synth_golden.txt`` after an intended output change:

    PYTHONPATH=src python tests/test_synth_golden.py
"""

import contextlib
import io
from pathlib import Path

from tokipona.cli import main
from tokipona.synth import (
    ContextTracker,
    ParagraphSpec,
    PoemSpec,
    SynthConfig,
    SynthError,
    Synthesizer,
)

GOLDEN = Path(__file__).parent / "data" / "synth_golden.txt"

SEEDS = range(1, 6)

KINDS = (
    ("--kind", "phrase", "--count", "50"),
    ("--kind", "sentence", "--count", "50"),
    ("--kind", "paragraph", "--sentences", "4", "--max-words", "26", "--max-letters", "112"),
    ("--kind", "poem", "--phonemes", "8"),
    ("--kind", "poem", "--phonemes", "12"),
    ("--kind", "poem", "--phonemes", "16"),
)

BIASES = (0.3, 1.0)
CAPACITIES = (None, 5)


def render_cli() -> str:
    """Exit status, stdout and stderr of every ``synth`` kind for every seed."""
    parts = []
    for seed in SEEDS:
        for kind in KINDS:
            argv = ["--seed", str(seed), "synth", *kind]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            parts.append(
                f"$ tokipona {' '.join(argv)}\n"
                f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
            )
    return "".join(parts)


def _attempt(make) -> str:
    try:
        return make()
    except SynthError as exc:
        return f"SynthError: {exc}"


def session(seed: int, bias: float, capacity) -> str:
    """One library session: sentences, draws on copied trackers, a poem and
    a paragraph, all sharing the session's tracker."""
    synth = Synthesizer(SynthConfig(seed=seed, reuse_bias=bias), tracker=ContextTracker(capacity))
    lines = [synth.sentence_text() for _ in range(20)]
    probe = synth.tracker.copy()
    probe.observe("moku")
    probe.observe("telo")
    lines.append(" ".join(synth.sample_word(probe) for _ in range(10)))
    lines.append(" ".join(synth.sample_word() for _ in range(10)))
    lines.append(_attempt(lambda: synth.synth_poem(PoemSpec(1, 3, 14))))
    lines.append(_attempt(lambda: synth.synth_paragraph(ParagraphSpec(3, 24, 104))))
    lines.append(synth.verse_text())
    return "\n".join(lines) + "\n"


def render_library() -> str:
    parts = []
    for seed in SEEDS:
        for bias in BIASES:
            for capacity in CAPACITIES:
                parts.append(f"# seed={seed} reuse_bias={bias} capacity={capacity}\n")
                parts.append(session(seed, bias, capacity))
    return "".join(parts)


def render() -> str:
    return render_cli() + render_library()


def test_synth_golden():
    assert render() == GOLDEN.read_text("utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(), "utf-8")
