"""Regenerate the frozen ``document`` input, ``data/document.txt``.

Run once from the repository root::

    python3 perfbench/make_document.py

The benchmark never runs this script: it reads the checked-in file, so a
change to the synthesizer cannot move the numbers of the ``document``
workload.  The text is 2000 sentences from ``Synthesizer(seed=1)`` in
paragraphs of 20, followed by the bundled ``data/corpus.txt`` sentences as
one more paragraph.  Paragraphs are separated by a blank line and each
sentence sits on its own line.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tokipona import SynthConfig, Synthesizer, load_lexicon  # noqa: E402

SENTENCES = 2000
PARAGRAPH = 20


def main() -> None:
    lex = load_lexicon()
    synth = Synthesizer(SynthConfig(seed=1), lex)
    sentences = [synth.sentence_text() for _ in range(SENTENCES)]
    paragraphs = [sentences[i:i + PARAGRAPH] for i in range(0, SENTENCES, PARAGRAPH)]
    corpus = (ROOT / "src/tokipona/data/corpus.txt").read_text("utf-8").splitlines()
    paragraphs.append([l for l in corpus if l.strip() and not l.startswith("#")])
    text = "\n\n".join("\n".join(p) for p in paragraphs) + "\n"
    (Path(__file__).parent / "data/document.txt").write_text(text, "utf-8")


if __name__ == "__main__":
    main()
