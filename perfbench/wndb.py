"""Linear-time generator of a WordNet-3.0-sized database in the WNDB layout.

The database has the synset and index-lemma counts of Princeton WordNet
3.0.  Every gloss of the lexicon is an index lemma in all four part-of-speech
files, except a seeded share that is held back, so that exactly the held-back
glosses stay unresolved when the mapping is built.  The rest is filler: each
filler lemma points at one to three random synsets of its part of speech.

Each synset and each lemma is written once, and the synset -> words table is
built while lemmas are assigned, so the run time is linear in the size of
the database.
"""

from __future__ import annotations

import random
from pathlib import Path

#: Synsets and index lemmas per part of speech in WordNet 3.0.
WN30_SYNSETS = {"n": 82_115, "v": 13_767, "a": 18_156, "r": 3_621}
WN30_LEMMAS = {"n": 117_798, "v": 11_529, "a": 21_479, "r": 4_481}
SUFFIX = {"n": "noun", "v": "verb", "a": "adj", "r": "adv"}

HEADER = (
    "  1 This software and database is being provided to you, the LICENSEE.\n"
    "  2 WordNet 3.0 Copyright 2006 by Princeton University.  All rights reserved.\n"
    "  3 \n"
)

_POINTERS = ("@", "~", "+", "!", "#p", "%p", "=")
_FILLER_WORDS = (
    "a", "of", "the", "or", "that", "which", "used", "as", "in", "by",
    "part", "kind", "state", "act", "having", "being", "quality", "something",
)


def _filler_name(i: int) -> str:
    """A distinct lowercase lemma per index: 'q' plus i in base 26."""
    digits = []
    while True:
        i, r = divmod(i, 26)
        digits.append(chr(ord("a") + r))
        if i == 0:
            break
    return "q" + "".join(reversed(digits))


def write_wndb(
    root: Path, glosses: set[str], seed: int, held_back_share: float, scale: float = 1.0
) -> tuple[set[str], int]:
    """Write data.* and index.* files under ``root``.

    Returns the held-back glosses and the total number of synsets written.
    ``scale`` shrinks every count, for the benchmark's self-check mode.
    """
    rng = random.Random(seed)
    ordered = sorted(glosses)
    held_back = set(rng.sample(ordered, round(held_back_share * len(ordered))))
    kept = [g.replace(" ", "_") for g in ordered if g not in held_back]
    root.mkdir(parents=True, exist_ok=True)
    total = 0
    for pos, suffix in SUFFIX.items():
        n_synsets = max(1, round(WN30_SYNSETS[pos] * scale))
        n_lemmas = max(len(kept), round(WN30_LEMMAS[pos] * scale))
        lemmas = kept + [_filler_name(i) for i in range(n_lemmas - len(kept))]
        rand = rng.random
        senses = [
            sorted({int(rand() * n_synsets) for _ in range(1 + int(rand() * 3))})
            for _ in lemmas
        ]
        words: list[list[str]] = [[] for _ in range(n_synsets)]
        for lemma, synsets in zip(lemmas, senses):
            for s in synsets:
                words[s].append(lemma)

        offsets = []
        offset = len(HEADER.encode())
        with open(root / f"data.{suffix}", "w", encoding="utf-8") as fh:
            fh.write(HEADER)
            for s in range(n_synsets):
                members = words[s] or [_filler_name(s)]
                pointers = [
                    f"{_POINTERS[int(rand() * 7)]} {int(rand() * 1e8):08d} {pos} 0000"
                    for _ in range(1 + int(rand() * 4))
                ]
                gloss = " ".join(rng.choices(_FILLER_WORDS, k=6 + int(rand() * 9)))
                line = (
                    f"{offset:08d} {3 + int(rand() * 42):02d} {pos} {len(members):02x} "
                    + " ".join(f"{w} 0" for w in members)
                    + f" {len(pointers):03d} {' '.join(pointers)} | {gloss}\n"
                )
                offsets.append(offset)
                offset += len(line.encode())
                fh.write(line)
        total += n_synsets

        with open(root / f"index.{suffix}", "w", encoding="utf-8") as fh:
            fh.write(HEADER)
            for lemma, synsets in sorted(zip(lemmas, senses)):
                n = len(synsets)
                fh.write(
                    f"{lemma} {pos} {n} 1 @ {n} {n} "
                    + " ".join(f"{offsets[s]:08d}" for s in synsets)
                    + "\n"
                )
    return held_back, total
