"""Seeded synthesis of phrases, sentences, paragraphs, and poems.

One template grammar (subject li predicate e object, plus an optional
prepositional phrase), stated once as data by ``grammar``, is read forward
for phrases and sentences, and tracks used words so that later output
re-uses earlier vocabulary.  Poems and paragraphs meet their structural
targets (letters per verse; sentences, words and letters per paragraph) by
reading it as count tables (``counting``): every choice is drawn top-down,
exactly conditioned on the target, by Flajolet, Zimmermann and Van Cutsem's
recursive method.  All randomness flows through one Mersenne Twister
generator seeded from the config, so identical seeds give byte-identical
output.  It returns words and text, which ``tokipona.grammar`` parses.
"""

from __future__ import annotations

import math
import random
import sys
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import accumulate
from typing import Callable, Optional, Sequence

from .lexicon import LI_LESS_SUBJECTS, Lexicon, PREPOSITIONS, default_lexicon


class SynthError(ValueError):
    """A structural target cannot be met, such as a verse length no verse
    has: a ``ValueError``, since the target is a bad value."""


def _check_distribution(weights: dict[int, float], name: str):
    if not weights:
        raise ValueError(f"{name} is empty")
    if any(w < 0 for w in weights.values()):
        raise ValueError(f"{name} has negative weights")
    total = sum(weights.values())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"{name} must sum to 1, got {total}")


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    phrase_len_weights: dict[int, float] = field(
        default_factory=lambda: {1: 0.5, 2: 0.3, 3: 0.15, 4: 0.05}
    )
    object_count_weights: dict[int, float] = field(
        default_factory=lambda: {0: 0.4, 1: 0.45, 2: 0.15}
    )
    prep_probability: float = 0.2
    pi_probability: float = 0.1
    reuse_bias: float = 0.5

    def __post_init__(self):
        _check_distribution(self.phrase_len_weights, "phrase_len_weights")
        if set(self.phrase_len_weights) - {1, 2, 3, 4}:
            raise ValueError("phrase lengths must lie in 1..4")
        _check_distribution(self.object_count_weights, "object_count_weights")
        if set(self.object_count_weights) - {0, 1, 2}:
            raise ValueError("object counts must lie in 0..2")
        for name in ("prep_probability", "pi_probability", "reuse_bias"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")


class ContextTracker:
    """Multiset of content words already emitted, optionally windowed.

    It also keeps the draw weights ``1 + bias * count`` of the word pool a
    Synthesizer last drew from, so that a draw need not rebuild them;
    ``observe`` is the only way to change the counts, and keeps both in step.
    """

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.counts: Counter = Counter()
        self._order: deque[str] = deque()
        self._index: dict[str, int] = {}
        self._bias = 0.0
        self._weights: list[float] = []

    def observe(self, word: str):
        self.counts[word] += 1
        self._reweigh(word)
        if self.capacity is not None:
            self._order.append(word)
            while len(self._order) > self.capacity:
                old = self._order.popleft()
                self.counts[old] -= 1
                if self.counts[old] <= 0:
                    del self.counts[old]
                self._reweigh(old)

    def _reweigh(self, word: str):
        i = self._index.get(word)
        if i is not None:
            self._weights[i] = 1.0 + self._bias * self.counts.get(word, 0)

    def weights(self, index: dict[str, int], bias: float) -> list[float]:
        """``1 + bias * count`` for each word of ``index``, in its order.

        Built when the index or the bias differs from the last call, then
        kept in step by ``observe``.  Each weight is computed afresh from its
        integer count, so it equals a rebuilt one exactly.
        """
        if index is not self._index or bias != self._bias:
            self._index, self._bias = index, bias
            self._weights = [1.0 + bias * self.counts.get(w, 0) for w in index]
        return self._weights

    def count(self, word: str) -> int:
        return self.counts.get(word, 0)

    def total(self) -> int:
        return sum(self.counts.values())

    def copy(self) -> "ContextTracker":
        clone = ContextTracker(self.capacity)
        clone.counts = Counter(self.counts)
        clone._order = deque(self._order)
        clone._index, clone._bias = self._index, self._bias
        clone._weights = list(self._weights)
        return clone


@dataclass(frozen=True)
class ParagraphSpec:
    sentences: int
    max_words: Optional[int] = None
    max_letters: Optional[int] = None

    def __post_init__(self):
        if self.sentences < 1:
            raise ValueError("a paragraph needs at least one sentence")
        for bound in (self.max_words, self.max_letters):
            if bound is not None and bound < 1:
                raise ValueError("bounds must be positive")


@dataclass(frozen=True)
class PoemSpec:
    stanzas: int
    verses_per_stanza: int
    phonemes_per_verse: int

    def __post_init__(self):
        if min(self.stanzas, self.verses_per_stanza, self.phonemes_per_verse) < 1:
            raise ValueError("poem dimensions must be positive")


class ComposeUnit(Enum):
    SENTENCE = "sentence"
    VERSE = "verse"


def _pick(values: Sequence, cumulative: list[float], roll: float):
    """The first value whose running sum exceeds ``roll``, else the last of weight."""
    i = bisect_right(cumulative, roll)
    return values[i if i < len(values) else bisect_left(cumulative, cumulative[-1])]


def _weighted(pairs) -> tuple:
    """(values, weights, running sums of the weights) of (value, weight) pairs."""
    values, weights = zip(*pairs)
    return values, weights, tuple(accumulate(weights))


def grammar(cfg: SynthConfig) -> tuple[tuple, tuple]:
    """The sentence and the verse grammar of ``cfg`` as nested tuples, which
    ``Synthesizer`` reads forward and ``counting.CountTables`` as count tables.

    A node is led by its kind: ``("phrase", (lengths, weights, sums), pi)``,
    content words as many as a length drawn by weight, and from three on,
    with chance ``pi``, a pi before the last two; ``("word",)``; ``("subject",
    node, words, particle)``, then ``particle`` (li) unless it is one word of
    ``words`` (``lexicon.LI_LESS_SUBJECTS``); ``("lit", word)``;
    ``("seq", nodes)``; ``("alt", (nodes, weights, sums))``; ``("maybe", p,
    node)``; ``("one_of", words)``, each as likely; and ``("repeat", (counts,
    weights, sums), node)``.
    """
    phrase = ("phrase", _weighted(sorted(cfg.phrase_len_weights.items())), cfg.pi_probability)
    objects = _weighted(sorted(cfg.object_count_weights.items()))
    prepositions = ("one_of", tuple(sorted(PREPOSITIONS)))
    sentence = ("seq", (
        ("subject", phrase, LI_LESS_SUBJECTS, "li"),
        phrase,
        ("repeat", objects, ("seq", (("lit", "e"), phrase))),
        ("maybe", cfg.prep_probability, ("seq", (prepositions, phrase))),
    ))
    # A poem line: a bare phrase, or a one-word subject and its predicate.
    clause = ("seq", (("subject", ("word",), LI_LESS_SUBJECTS, "li"), phrase))
    return sentence, ("alt", _weighted([(phrase, 0.5), (clause, 0.5)]))


def letter_count(text: str) -> int:
    """Letters only; spaces and punctuation do not count."""
    return sum(ch.isalpha() for ch in text)


class Synthesizer:
    """Owns the generator and word tracker for one synthesis session.

    Single-threaded per instance; create one per thread.
    """

    def __init__(
        self,
        cfg: SynthConfig = SynthConfig(),
        lex: Optional[Lexicon] = None,
        tracker: Optional[ContextTracker] = None,
    ):
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.tracker = tracker if tracker is not None else ContextTracker()
        self._pool = tuple(sorted(e.surface for e in (lex or default_lexicon()).content_words()))
        self._pool_index = {w: i for i, w in enumerate(self._pool)}
        self._sentence, self._verse = grammar(cfg)
        self._phrase = self._sentence[1][1]  # the predicate

    # sampling -----------------------------------------------------------

    def sample_word(self, tracker: Optional[ContextTracker] = None) -> str:
        """Draw a content word; each candidate weighs 1 + reuse_bias * uses."""
        tracker = tracker if tracker is not None else self.tracker
        weights = tracker.weights(self._pool_index, self.cfg.reuse_bias)
        cumulative = list(accumulate(weights))
        word = _pick(self._pool, cumulative, self.rng.random() * cumulative[-1])
        tracker.observe(word)
        return word

    # the forward reader ---------------------------------------------------

    def _read(self, node: tuple, tracker: ContextTracker, words: list[str]) -> None:
        """Draw ``node`` of the grammar onto the end of ``words``."""
        kind, rng = node[0], self.rng
        if kind == "phrase":
            (lengths, _, sums), pi = node[1], node[2]
            length = _pick(lengths, sums, rng.random())
            phrase = [self.sample_word(tracker) for _ in range(length)]
            if length >= 3 and rng.random() < pi:
                phrase.insert(length - 2, "pi")
            words += phrase
        elif kind == "seq":
            for item in node[1]:
                self._read(item, tracker, words)
        elif kind in ("lit", "word"):
            words.append(node[1] if kind == "lit" else self.sample_word(tracker))
        elif kind == "subject":
            start = len(words)
            self._read(node[1], tracker, words)
            if len(words) - start != 1 or words[start] not in node[2]:
                words.append(node[3])
        elif kind == "repeat":
            counts, _, sums = node[1]
            for _ in range(_pick(counts, sums, rng.random())):
                self._read(node[2], tracker, words)
        elif kind == "maybe":
            if rng.random() < node[1]:
                self._read(node[2], tracker, words)
        elif kind == "one_of":
            options = node[1]
            words.append(options[int(rng.random() * len(options)) % len(options)])
        elif kind == "alt":
            nodes, _, sums = node[1]
            self._read(_pick(nodes, sums, rng.random()), tracker, words)
        else:
            raise ValueError(f"unknown grammar node {kind!r}")

    def _words(self, node: tuple, tracker: Optional[ContextTracker]) -> list[str]:
        words: list[str] = []
        self._read(node, tracker if tracker is not None else self.tracker, words)
        return words

    # phrase and sentence units -----------------------------------------

    def phrase_words(self, tracker: Optional[ContextTracker] = None) -> list[str]:
        """A phrase as a word list, possibly with an embedded pi group."""
        return self._words(self._phrase, tracker)

    def sentence_text(self, tracker: Optional[ContextTracker] = None) -> str:
        return " ".join(self._words(self._sentence, tracker)) + "."

    # larger units --------------------------------------------------------

    @cached_property
    def _tables(self):
        # Imported on first use: only poems and paragraphs need the tables.
        from .counting import count_tables

        return count_tables(self._sentence, self._verse, self._pool)

    def _weights(self) -> list[float]:
        return self.tracker.weights(self._pool_index, self.cfg.reuse_bias)

    def _drawn(self, unit: tuple, words: float, letters: float, at_most: bool) -> str:
        """A counted draw of ``unit``; its content words are observed after."""
        drawn, content = self._tables.fit(unit, self.rng, self._weights(), words, letters, at_most)
        for word in content:
            self.tracker.observe(word)
        return " ".join(drawn)

    def verse_letters(self) -> list[float]:
        """The chance that a verse drawn now has n letters, for n from 0 to
        the longest verse, with the tracker's weights as they stand."""
        chances = self._tables.distribution(self._verse, self._weights())
        letters = [0.0] * (1 + max(n for _, n in chances))
        for (_, n), p in chances.items():
            letters[n] += p
        return letters

    def synth_paragraph(self, spec: ParagraphSpec) -> str:
        """``spec.sentences`` sentences of the ``sentence_text`` grammar
        within the bounds.  Each sentence is drawn exactly conditioned on
        fitting what is left of them after keeping room for the shortest
        sentence in each one still to come."""
        tables = self._tables
        least_words, least_letters = tables.shortest_sentence
        need_words = spec.sentences * least_words
        need_letters = spec.sentences * least_letters
        # What is left of each bound beyond the shortest sentences.
        words = math.inf if spec.max_words is None else spec.max_words - need_words
        letters = math.inf if spec.max_letters is None else spec.max_letters - need_letters
        if words < 0 or letters < 0:
            raise SynthError(
                f"{spec.sentences} sentences need at least {need_words} words "
                f"and {need_letters} letters"
            )
        sentences: list[str] = []
        for _ in range(spec.sentences):
            bounds = words + least_words, letters + least_letters
            text = self._drawn(tables.sentence, *bounds, at_most=True) + "."
            words -= len(text.split()) - least_words
            letters -= letter_count(text) - least_letters
            sentences.append(text)
        return " ".join(sentences)

    def verse_text(self, tracker: Optional[ContextTracker] = None) -> str:
        """A poem line: a bare phrase, or a short subject-predicate clause."""
        return " ".join(self._words(self._verse, tracker))

    def synth_poem(self, spec: PoemSpec) -> str:
        """Stanzas of verses of the ``verse_text`` grammar, each drawn exactly
        conditioned on having ``spec.phonemes_per_verse`` letters."""
        from .counting import spans

        tables, letters = self._tables, spec.phonemes_per_verse
        if letters not in tables.verse_support:
            raise SynthError(f"verses have {spans(tables.verse_support)} letters, not {letters}")
        verses = [[self._drawn(tables.verse, math.inf, letters, at_most=False)
                   for _ in range(spec.verses_per_stanza)] for _ in range(spec.stanzas)]
        return "\n\n".join("\n".join(stanza) for stanza in verses)

    # interactive composition ----------------------------------------------

    def interactive_compose(
        self,
        unit: ComposeUnit = ComposeUnit.SENTENCE,
        k: int = 3,
        read: Optional[Callable[[], str]] = None,
        write: Optional[Callable[[str], None]] = None,
    ) -> str:
        """Line-oriented composition loop.

        Each round prints k numbered candidates; the reply is a pick
        (1..k), "r" to reroll the round, or "f" to finish.  Picked words
        feed the shared tracker, so later rounds lean toward them.
        """
        if k < 2:
            raise ValueError("need at least two candidates per round")
        read = read or (lambda: sys.stdin.readline())
        write = write or sys.stdout.write

        accepted: list[str] = []
        while True:
            candidates: list[tuple[str, ContextTracker]] = []
            for _ in range(k):
                probe = self.tracker.copy()
                draw = self.sentence_text if unit is ComposeUnit.SENTENCE else self.verse_text
                candidates.append((draw(probe), probe))
            for idx, (text, _) in enumerate(candidates, start=1):
                write(f"{idx}) {text}\n")
            write(f"pick 1..{k}, r to reroll, f to finish> ")
            try:
                line = read()
            except (EOFError, OSError):
                line = ""
            if not line:
                break
            reply = line.strip().lower()
            if reply == "f":
                break
            if reply == "r":
                continue
            if reply.isdigit() and 1 <= int(reply) <= k:
                text, probe = candidates[int(reply) - 1]
                self.tracker = probe
                accepted.append(text)
                write(f"kept: {text}\n")
            else:
                write("unrecognized reply\n")
        sep = " " if unit is ComposeUnit.SENTENCE else "\n"
        return sep.join(accepted)
