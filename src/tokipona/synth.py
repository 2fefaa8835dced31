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
from enum import Enum
from functools import cached_property
from itertools import accumulate
from typing import Callable, NamedTuple, Optional, Sequence

from .lexicon import LI_LESS_SUBJECTS, CheckedRecord, Lexicon, PREPOSITIONS, default_lexicon


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


_PHRASE_LEN_WEIGHTS = {1: 0.5, 2: 0.3, 3: 0.15, 4: 0.05}
_OBJECT_COUNT_WEIGHTS = {0: 0.4, 1: 0.45, 2: 0.15}


class SynthConfig(CheckedRecord, NamedTuple("SynthConfig", [
    ("seed", int), ("phrase_len_weights", dict[int, float]),
    ("object_count_weights", dict[int, float]), ("prep_probability", float),
    ("pi_probability", float), ("reuse_bias", float),
])):
    __slots__ = ()

    def __new__(cls, seed: int = 0,
                phrase_len_weights: dict[int, float] = _PHRASE_LEN_WEIGHTS,
                object_count_weights: dict[int, float] = _OBJECT_COUNT_WEIGHTS,
                prep_probability: float = 0.2, pi_probability: float = 0.1,
                reuse_bias: float = 0.5):
        # A weight table left at its default is a copy, so no two configs share one.
        if phrase_len_weights is _PHRASE_LEN_WEIGHTS:
            phrase_len_weights = dict(phrase_len_weights)
        if object_count_weights is _OBJECT_COUNT_WEIGHTS:
            object_count_weights = dict(object_count_weights)
        _check_distribution(phrase_len_weights, "phrase_len_weights")
        if set(phrase_len_weights) - {1, 2, 3, 4}:
            raise ValueError("phrase lengths must lie in 1..4")
        _check_distribution(object_count_weights, "object_count_weights")
        if set(object_count_weights) - {0, 1, 2}:
            raise ValueError("object counts must lie in 0..2")
        for name, v in (("prep_probability", prep_probability),
                        ("pi_probability", pi_probability), ("reuse_bias", reuse_bias)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        return super().__new__(cls, seed, phrase_len_weights, object_count_weights,
                               prep_probability, pi_probability, reuse_bias)


class ContextTracker:
    """Multiset of content words already emitted, optionally windowed.

    For the word pool a Synthesizer last drew from, it also keeps the draw
    weights ``1 + bias * count`` as a list, so that a unit need not rebuild
    them; ``observe`` is the only way to change the counts, and keeps the
    list in step.
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

    def copy(self) -> "ContextTracker":
        """The counts and the window; the copy builds its weights on its first draw.
        The synthesis golden's probe draws use it with ``sample_word``, which the
        benchmark wraps; both go after ROADMAP item 5."""
        clone = ContextTracker(self.capacity)
        clone.counts = Counter(self.counts)
        clone._order = deque(self._order)
        return clone


class ParagraphSpec(CheckedRecord, NamedTuple("ParagraphSpec", [
    ("sentences", int), ("max_words", Optional[int]), ("max_letters", Optional[int]),
])):
    __slots__ = ()

    def __new__(cls, sentences: int, max_words: Optional[int] = None,
                max_letters: Optional[int] = None):
        if sentences < 1:
            raise ValueError("a paragraph needs at least one sentence")
        for bound in (max_words, max_letters):
            if bound is not None and bound < 1:
                raise ValueError("bounds must be positive")
        return super().__new__(cls, sentences, max_words, max_letters)


class PoemSpec(CheckedRecord, NamedTuple("PoemSpec", [
    ("stanzas", int), ("verses_per_stanza", int), ("phonemes_per_verse", int),
])):
    __slots__ = ()

    def __new__(cls, stanzas: int, verses_per_stanza: int, phonemes_per_verse: int):
        if min(stanzas, verses_per_stanza, phonemes_per_verse) < 1:
            raise ValueError("poem dimensions must be positive")
        return super().__new__(cls, stanzas, verses_per_stanza, phonemes_per_verse)


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

    A node is led by its kind: ``("phrase", (shapes, weights, sums))``, one
    shape drawn by weight, each (content words, index of its pi or None), so
    the pi chance and the pi's place, before the last two of three or more
    words, are stated here only; ``("word",)``; ``("subject", node, words,
    particle)``, then ``particle`` (li) unless it is one word of ``words``
    (``lexicon.LI_LESS_SUBJECTS``); ``("lit", word)``; ``("seq", nodes)``;
    and ``("alt", (nodes, weights, sums))``, one node drawn by weight, the
    only other choice.  Each table is built by ``_weighted``.
    """
    pi, p = cfg.pi_probability, cfg.prep_probability
    phrase = ("phrase", _weighted(
        ((n, at), weight * share) for n, weight in sorted(cfg.phrase_len_weights.items())
        for share, at in (((1 - pi, None), (pi, n - 2)) if n >= 3 else ((1.0, None),))))
    objects = _weighted((("seq", (("lit", "e"), phrase) * k), weight)
                        for k, weight in sorted(cfg.object_count_weights.items()))
    prepositions = _weighted((("lit", w), 1 / len(PREPOSITIONS)) for w in sorted(PREPOSITIONS))
    sentence = ("seq", (
        ("subject", phrase, LI_LESS_SUBJECTS, "li"),
        phrase,
        ("alt", objects),
        ("alt", _weighted([(("seq", ()), 1 - p), (("seq", (("alt", prepositions), phrase)), p)])),
    ))
    # A poem line: a bare phrase, or a one-word subject and its predicate.
    clause = ("seq", (("subject", ("word",), LI_LESS_SUBJECTS, "li"), phrase))
    return sentence, ("alt", _weighted([(phrase, 0.5), (clause, 0.5)]))


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
        """Draw a content word, a unit of one word: each candidate weighs
        1 + reuse_bias * uses, and one roll picks the first whose running
        sum of weights, added left to right, exceeds it times their total.  The
        benchmark wraps it and the synthesis golden's probe draws use it with
        ``ContextTracker.copy``; both go after ROADMAP item 5."""
        return self._words(("word",), tracker)[0]

    # the forward reader ---------------------------------------------------

    def _read(self, node: tuple, cumulative: list[float], words: list[str],
              content: list[str]) -> None:
        """Draw ``node`` of the grammar onto the end of ``words``, and its
        content words, each picked by the running sums ``cumulative`` of the
        pool's weights, onto the end of ``content`` too.  A phrase draws its
        shape (its length and pi) and an ``alt`` its node, each in one roll."""
        kind, rng = node[0], self.rng
        if kind == "phrase":
            shapes, _, sums = node[1]
            length, pi = _pick(shapes, sums, rng.random())
            phrase = [_pick(self._pool, cumulative, rng.random() * cumulative[-1])
                      for _ in range(length)]
            content += phrase
            if pi is not None:
                phrase.insert(pi, "pi")
            words += phrase
        elif kind == "seq":
            for item in node[1]:
                self._read(item, cumulative, words, content)
        elif kind == "lit":
            words.append(node[1])
        elif kind == "word":
            content.append(_pick(self._pool, cumulative, rng.random() * cumulative[-1]))
            words.append(content[-1])
        elif kind == "subject":
            start = len(words)
            self._read(node[1], cumulative, words, content)
            if len(words) - start != 1 or words[start] not in node[2]:
                words.append(node[3])
        elif kind == "alt":
            nodes, _, sums = node[1]
            self._read(_pick(nodes, sums, rng.random()), cumulative, words, content)
        else:
            raise ValueError(f"unknown grammar node {kind!r}")

    def _unit(self, node: tuple, tracker: ContextTracker) -> tuple[list[str], list[str]]:
        """A unit of the grammar and its content words, drawn as the counted
        draws are, with ``tracker``'s word weights frozen at its start."""
        cumulative = list(accumulate(tracker.weights(self._pool_index, self.cfg.reuse_bias)))
        words: list[str] = []
        content: list[str] = []
        self._read(node, cumulative, words, content)
        return words, content

    def _words(self, node: tuple, tracker: Optional[ContextTracker] = None) -> list[str]:
        """A unit of the grammar; ``tracker``, by default the session's,
        observes its content words after it."""
        tracker = tracker if tracker is not None else self.tracker
        words, content = self._unit(node, tracker)
        for word in content:
            tracker.observe(word)
        return words

    # phrase and sentence units -----------------------------------------

    def phrase_words(self) -> list[str]:
        """A phrase as a word list, possibly with an embedded pi group."""
        return self._words(self._phrase)

    def sentence_text(self) -> str:
        return " ".join(self._words(self._sentence)) + "."

    # larger units --------------------------------------------------------

    @cached_property
    def _tables(self):
        # Imported on first use: only poems and paragraphs need the tables.
        from .counting import count_tables

        return count_tables(self._sentence, self._verse, self._pool)

    def _weights(self) -> list[float]:
        return self.tracker.weights(self._pool_index, self.cfg.reuse_bias)

    def _drawn(self, unit: tuple, words: float, letters: float, at_most: bool) -> list[str]:
        """A counted draw of ``unit``'s words; its content words are observed after."""
        drawn, content = self._tables.fit(unit, self.rng, self._weights(), words, letters, at_most)
        for word in content:
            self.tracker.observe(word)
        return drawn

    def verse_letters(self) -> list[float]:
        """The chance that a verse drawn now has n letters, for n from 0 to
        the longest verse, with the tracker's weights as they stand.  Only the
        tests call it; ROADMAP item 12 decides it."""
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
        tables, n = self._tables, spec.sentences
        least_words, least_letters = tables.shortest_sentence
        # What is left of each bound.
        words, letters = spec.max_words or math.inf, spec.max_letters or math.inf
        if words < n * least_words or letters < n * least_letters:
            raise SynthError(f"{n} sentences need at least {n * least_words} words "
                             f"and {n * least_letters} letters")
        sentences: list[str] = []
        for to_come in reversed(range(n)):
            drawn = self._drawn(tables.sentence, words - to_come * least_words,
                                letters - to_come * least_letters, at_most=True)
            words -= len(drawn)
            letters -= sum(map(len, drawn))
            sentences.append(" ".join(drawn) + ".")
        return " ".join(sentences)

    def verse_text(self) -> str:
        """A poem line: a bare phrase, or a short subject-predicate clause."""
        return " ".join(self._words(self._verse))

    def synth_poem(self, spec: PoemSpec) -> str:
        """Stanzas of verses of the ``verse_text`` grammar, each drawn exactly
        conditioned on having ``spec.phonemes_per_verse`` letters."""
        from .counting import spans

        tables, letters = self._tables, spec.phonemes_per_verse
        if letters not in tables.verse_support:
            raise SynthError(f"verses have {spans(tables.verse_support)} letters, not {letters}")
        verses = [[" ".join(self._drawn(tables.verse, math.inf, letters, at_most=False))
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

        Each round prints k numbered candidates, drawn from the tracker's
        weights as they stand; the reply is a pick (1..k), "r" to reroll the
        round, or "f" to finish.  The tracker observes the pick's content
        words only, so later rounds lean toward them.
        """
        if k < 2:
            raise ValueError("need at least two candidates per round")
        read = read or (lambda: sys.stdin.readline())
        write = write or sys.stdout.write
        node, end, sep = ((self._sentence, ".", " ") if unit is ComposeUnit.SENTENCE
                          else (self._verse, "", "\n"))

        accepted: list[str] = []
        while True:
            candidates = [self._unit(node, self.tracker) for _ in range(k)]
            texts = [" ".join(words) + end for words, _ in candidates]
            for idx, text in enumerate(texts, start=1):
                write(f"{idx}) {text}\n")
            write(f"pick 1..{k}, r to reroll, f to finish> ")
            try:
                line = read()
            except (EOFError, OSError):
                line = ""
            reply = line.strip().lower()
            if not line or reply == "f":
                break
            if reply == "r":
                continue
            if reply.isdigit() and 1 <= int(reply) <= k:
                for word in candidates[int(reply) - 1][1]:
                    self.tracker.observe(word)
                accepted.append(texts[int(reply) - 1])
                write(f"kept: {accepted[-1]}\n")
            else:
                write("unrecognized reply\n")
        return sep.join(accepted)
