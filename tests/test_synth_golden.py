"""Golden output of seeded synthesis, through the CLI and the library.

Equal seeds must give equal bytes, so this pins every draw: the CLI's
``synth`` kinds at the default config, library sessions at reuse biases
whose weights are not dyadic (0.3) or are whole (1.0), and scripted
``interactive_compose`` sessions.

Regenerate ``data/synth_golden.txt`` after an intended output change:

    PYTHONPATH=src python tests/test_synth_golden.py
"""

import contextlib
import io
from pathlib import Path

from tokipona.cli import main
from tokipona.synth import (
    ComposeUnit,
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


def session(seed: int, bias: float) -> str:
    """One library session: sentences, draws on a probe tracker, a poem and
    a paragraph.  The probe replays the session's counts and observes two
    more words; it stands in for the session's tracker for its ten draws,
    and every other draw shares the session's own."""
    synth = Synthesizer(SynthConfig(seed=seed, reuse_bias=bias))
    lines = [synth.sentence_text() for _ in range(20)]
    probe, own = ContextTracker(synth._pool, bias), synth.tracker
    for word in [*own.counts.elements(), "moku", "telo"]:
        probe.observe(word)
    synth.tracker = probe
    lines.append(" ".join(synth.sample_word() for _ in range(10)))
    synth.tracker = own
    lines.append(" ".join(synth.sample_word() for _ in range(10)))
    lines.append(_attempt(lambda: synth.synth_poem(PoemSpec(1, 3, 14))))
    lines.append(_attempt(lambda: synth.synth_paragraph(ParagraphSpec(3, 24, 104))))
    lines.append(synth.verse_text())
    return "\n".join(lines) + "\n"


def render_library() -> str:
    parts = []
    for seed in SEEDS:
        for bias in BIASES:
            parts.append(f"# seed={seed} reuse_bias={bias}\n")
            parts.append(session(seed, bias))
    return "".join(parts)


# A pick, a reroll, a bad reply, another pick, then finish.
COMPOSE_REPLIES = ("1\n", "r\n", "x\n", "3\n", "f\n")


def compose_session(seed: int, unit: ComposeUnit) -> str:
    """One scripted ``interactive_compose`` at k = 3: what it wrote and
    returned, three sentences drawn after it, and the tracker's counts."""
    synth = Synthesizer(SynthConfig(seed=seed))
    replies, out = iter(COMPOSE_REPLIES), []
    text = synth.interactive_compose(unit, k=3, read=lambda: next(replies), write=out.append)
    lines = ["".join(out), "--- returned", text, "--- after"]
    lines += [synth.sentence_text() for _ in range(3)]
    lines.append(" ".join(f"{w}:{n}" for w, n in sorted(synth.tracker.counts.items())))
    return "\n".join(lines) + "\n"


def render_compose() -> str:
    parts = []
    for seed in SEEDS:
        for unit in ComposeUnit:
            parts.append(f"# compose seed={seed} unit={unit.value}\n")
            parts.append(compose_session(seed, unit))
    return "".join(parts)


def render() -> str:
    return render_cli() + render_library() + render_compose()


def test_synth_golden():
    assert render() == GOLDEN.read_text("utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(), "utf-8")
