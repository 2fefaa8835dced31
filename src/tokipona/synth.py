"""Seeded synthesis of phrases, sentences, paragraphs, and poems.

Generation is template based (subject li predicate e object, plus an
optional prepositional phrase), and tracks used words so that later output
re-uses earlier vocabulary.  Poems and paragraphs meet their structural
targets (letters per verse; sentences, words and letters per paragraph) by
counting: a table of how many ways each part of the grammar can fill what
is left of the target lets every choice be drawn top-down, exactly
conditioned on the target, in the manner of Flajolet, Zimmermann and Van
Cutsem's recursive method.  All randomness flows through one Mersenne
Twister generator seeded from the config, so identical seeds give
byte-identical output.
"""

from __future__ import annotations

import math
import random
import sys
from bisect import bisect_right
from collections import Counter, deque
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .grammar import (
    Clause,
    ParseOptions,
    PhraseNode,
    default_lexicon,
    parse_text,
    pi_readings,
)
from .lexicon import Lexicon, PREPOSITIONS

if TYPE_CHECKING:
    from .counting import CountTables

SENTENCE_PREPOSITIONS = tuple(sorted(PREPOSITIONS))

#: Subjects that take no li when they stand alone.
LI_LESS_SUBJECTS = ("mi", "sina")

#: The chance that a verse is a bare phrase rather than a one-word subject
#: and its predicate.
BARE_VERSE_PROBABILITY = 0.5


class SynthError(RuntimeError):
    """A structural constraint cannot be met."""


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
    """The first value whose cumulative weight exceeds ``roll``, else the last."""
    return values[min(bisect_right(cumulative, roll), len(values) - 1)]


def _cumulative_table(weights: dict[int, float]) -> tuple[tuple[int, ...], list[float]]:
    """Values in ascending order with their running weight sums."""
    values, ws = zip(*sorted(weights.items()))
    return values, list(accumulate(ws))


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
        self.lex = lex or default_lexicon()
        self.rng = random.Random(cfg.seed)
        self.tracker = tracker if tracker is not None else ContextTracker()
        self._pool = tuple(sorted(e.surface for e in self.lex.content_words()))
        self._pool_index = {w: i for i, w in enumerate(self._pool)}
        self._phrase_lens = _cumulative_table(cfg.phrase_len_weights)
        self._object_counts = _cumulative_table(cfg.object_count_weights)

    # sampling -----------------------------------------------------------

    def sample_word(self, tracker: Optional[ContextTracker] = None) -> str:
        """Draw a content word; each candidate weighs 1 + reuse_bias * uses."""
        tracker = tracker if tracker is not None else self.tracker
        weights = tracker.weights(self._pool_index, self.cfg.reuse_bias)
        roll = self.rng.random() * sum(weights)
        word = _pick(self._pool, list(accumulate(weights)), roll)
        tracker.observe(word)
        return word

    # phrase and sentence units -----------------------------------------

    def phrase_words(self, tracker: Optional[ContextTracker] = None) -> list[str]:
        """A phrase as a word list, possibly with an embedded pi group."""
        tracker = tracker if tracker is not None else self.tracker
        length = _pick(*self._phrase_lens, self.rng.random())
        words = [self.sample_word(tracker) for _ in range(length)]
        if length >= 3 and self.rng.random() < self.cfg.pi_probability:
            words.insert(length - 2, "pi")
        return words

    def synth_phrase(self, tracker: Optional[ContextTracker] = None) -> PhraseNode:
        """A phrase as a tree: sampled head, modifiers, maybe a pi group.

        The words hold at most one interior pi, so they have one reading.
        """
        return pi_readings(self.phrase_words(tracker))[0]

    def _sentence_words(self, tracker: Optional[ContextTracker] = None) -> list[str]:
        tracker = tracker if tracker is not None else self.tracker
        subject = self.phrase_words(tracker)
        words = list(subject)
        if not (len(subject) == 1 and subject[0] in LI_LESS_SUBJECTS):
            words.append("li")
        words += self.phrase_words(tracker)
        for _ in range(_pick(*self._object_counts, self.rng.random())):
            words.append("e")
            words += self.phrase_words(tracker)
        if self.rng.random() < self.cfg.prep_probability:
            idx = int(self.rng.random() * len(SENTENCE_PREPOSITIONS)) % len(SENTENCE_PREPOSITIONS)
            words.append(SENTENCE_PREPOSITIONS[idx])
            words += self.phrase_words(tracker)
        return words

    def sentence_text(self, tracker: Optional[ContextTracker] = None) -> str:
        return " ".join(self._sentence_words(tracker)) + "."

    def synth_sentence(self, tracker: Optional[ContextTracker] = None) -> Clause:
        """One synthesized sentence, returned as its (strict) parse tree."""
        text = self.sentence_text(tracker)
        result = parse_text(text, ParseOptions(), self.lex)
        return result.clauses[0]

    # larger units --------------------------------------------------------

    @cached_property
    def _tables(self) -> "CountTables":
        # Imported on first use: only poems and paragraphs need the tables.
        from .counting import count_tables

        return count_tables(self.cfg, self._pool)

    def _weights(self) -> list[float]:
        return self.tracker.weights(self._pool_index, self.cfg.reuse_bias)

    def _drawn(self, fit, *budget) -> str:
        """The text of a counted draw, ``fit`` from the count tables, with the
        weights frozen for the draw; its content words are observed after."""
        text, content = fit(self.rng, self._weights(), *budget)
        for word in content:
            self.tracker.observe(word)
        return text

    def verse_letters(self) -> list[float]:
        """The chance that a verse drawn now has n letters, for n from 0 to
        the longest verse, with the tracker's weights as they stand."""
        return self._tables.verse_letters(self._weights())

    def synth_paragraph(self, spec: ParagraphSpec) -> str:
        """``spec.sentences`` sentences of the ``sentence_text`` grammar
        within the bounds.  Each sentence is drawn exactly conditioned on
        fitting what is left of them after keeping room for the shortest
        sentence in each one still to come."""
        tables = self._tables
        least_words, least_letters = tables.shortest_sentence
        need_words = spec.sentences * least_words
        need_letters = spec.sentences * least_letters
        if (spec.max_words is not None and need_words > spec.max_words) or (
            spec.max_letters is not None and need_letters > spec.max_letters
        ):
            raise SynthError(
                f"{spec.sentences} sentences need at least {need_words} words "
                f"and {need_letters} letters"
            )
        # What is left of each bound beyond the shortest sentences.
        words = math.inf if spec.max_words is None else spec.max_words - need_words
        letters = math.inf if spec.max_letters is None else spec.max_letters - need_letters
        sentences: list[str] = []
        for _ in range(spec.sentences):
            text = self._drawn(tables.fit_sentence, words + least_words, letters + least_letters)
            words -= len(text.split()) - least_words
            letters -= letter_count(text) - least_letters
            sentences.append(text)
        return " ".join(sentences)

    def verse_text(self, tracker: Optional[ContextTracker] = None) -> str:
        """A poem line: a bare phrase, or a short subject-predicate clause."""
        tracker = tracker if tracker is not None else self.tracker
        if self.rng.random() < BARE_VERSE_PROBABILITY:
            return " ".join(self.phrase_words(tracker))
        subject = self.sample_word(tracker)
        words = [subject]
        if subject not in LI_LESS_SUBJECTS:
            words.append("li")
        words += self.phrase_words(tracker)
        return " ".join(words)

    def synth_poem(self, spec: PoemSpec) -> str:
        """Stanzas of verses of the ``verse_text`` grammar, each drawn exactly
        conditioned on having ``spec.phonemes_per_verse`` letters."""
        from .counting import spans

        tables, letters = self._tables, spec.phonemes_per_verse
        if letters not in tables.verse_support:
            raise SynthError(f"verses have {spans(tables.verse_support)} letters, not {letters}")
        verses = spec.verses_per_stanza
        stanzas = (
            "\n".join(self._drawn(tables.fit_verse, letters) for _ in range(verses))
            for _ in range(spec.stanzas)
        )
        return "\n\n".join(stanzas)

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
                if unit is ComposeUnit.SENTENCE:
                    text = self.sentence_text(probe)
                else:
                    text = self.verse_text(probe)
                candidates.append((text, probe))
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
