"""Exact-length verses and bounded sentences, drawn by counting.

A poem sets the letters of each verse, and a paragraph bounds its words and
letters.  Instead of drawing whole candidates until one fits, the draws here
weigh each choice of the grammar by how much of what can follow it still
fits, and go top-down: the recursive method of Flajolet, Zimmermann and
Van Cutsem (1994).  The tables split in two:

- the skeleton: the shapes each part of ``verse_text`` and
  ``sentence_text`` can take, as free content words, other words (particles,
  prepositions, a one-word subject) and their letters, with the grammar's
  probabilities.  It depends only on the config and is built once;
- the letters of n free content words, which depend on the word weights.
  They are frozen at the start of each verse or sentence, and counted only
  where the budget binds.

The weights are added left to right, never with ``sum``, whose float result
is compensated from Python 3.12 on: a seed draws the same on every version.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import inf
from functools import cached_property, lru_cache, reduce
from itertools import accumulate
from operator import add
from typing import Sequence

from .synth import (
    BARE_VERSE_PROBABILITY,
    LI_LESS_SUBJECTS,
    SENTENCE_PREPOSITIONS,
    SynthConfig,
)

def _running_total(values) -> float:
    """The sum of ``values``, added left to right."""
    return reduce(add, values, 0.0)


def spans(values: Sequence[int]) -> str:
    """Sorted integers as runs, such as "2–5, 7, 9–39"."""
    runs: list[list[int]] = []
    for v in values:
        if runs and runs[-1][1] == v - 1:
            runs[-1][1] = v
        else:
            runs.append([v, v])
    return ", ".join(f"{a}–{b}" if a < b else str(a) for a, b in runs)


#: A count table: for each number of free content words, ascending, the
#: (other words, their letters, weight) of each shape a part of the grammar
#: can take with that many, fewest other words first, after the group's
#: total weight and its most other words and letters.
Table = tuple[tuple[int, float, int, int, tuple[tuple[int, int, float], ...]], ...]


def _table(entries) -> Table:
    """A table of (free words, other words, letters, weight) ``entries``,
    with equal shapes merged."""
    merged: dict[tuple[int, int, int], float] = {}
    for n, words, letters, weight in entries:
        if weight > 0:
            merged[n, words, letters] = merged.get((n, words, letters), 0.0) + weight
    groups: dict[int, list[tuple[int, int, float]]] = {}
    for (n, words, letters), weight in sorted(merged.items()):
        groups.setdefault(n, []).append((words, letters, weight))
    return tuple(
        (n, _running_total(p for _, _, p in shapes), shapes[-1][0], max(l for _, l, _ in shapes),
         tuple(shapes))
        for n, shapes in groups.items()
    )


def _entries(table: Table):
    return ((n, w, l, p) for n, _, _, _, shapes in table for w, l, p in shapes)


_END: Table = _table([(0, 0, 0, 1.0)])


def _then(first: Table, rest: Table) -> Table:
    """The table of a ``first`` part followed by a ``rest`` part."""
    return _table(
        (n + n2, w + w2, l + l2, p * p2)
        for n, w, l, p in _entries(first)
        for n2, w2, l2, p2 in _entries(rest)
    )


@dataclass(frozen=True)
class Grammar:
    """The parts of ``verse_text`` and ``sentence_text`` as count tables
    and as the options of a top-down draw.

    An option is (weight, free words, other words, their letters, the table
    of what follows it, payload).  A phrase's payload is its shape
    (content words, pi or not).
    """

    phrase: Table
    phrases: tuple  # one phrase, then nothing
    verse: tuple  # a bare verse phrase
    subjects: tuple  # a subject phrase that takes li: 2+ words, or pi
    one_word: float  # the chance of a one-word subject phrase
    predicate: Table  # the sentence after its subject
    predicates: tuple
    object_counts: tuple
    objects: tuple  # objects[k]: one object, then k more and the rest
    prepositions: tuple


def build_grammar(cfg: SynthConfig) -> Grammar:
    pi = cfg.pi_probability
    shapes = tuple(
        (weight * share, n, with_pi)
        for n, weight in sorted(cfg.phrase_len_weights.items())
        for share, with_pi in (((1 - pi, 0), (pi, 1)) if n >= 3 else ((1.0, 0),))
        if weight * share > 0
    )

    def options(words: int, letters: int, rest: Table) -> tuple:
        """A phrase after ``words`` particles of ``letters`` letters, then ``rest``."""
        return tuple(
            (p, n, words + with_pi, letters + 2 * with_pi, rest, (n, with_pi))
            for p, n, with_pi in shapes
        )

    phrase = _table((n, with_pi, 2 * with_pi, p) for p, n, with_pi in shapes)
    prep = cfg.prep_probability / len(SENTENCE_PREPOSITIONS)
    preposition = _table(
        [(0, 0, 0, 1 - cfg.prep_probability)]
        + [(n, w + 1, l + len(word), prep * p)
           for word in SENTENCE_PREPOSITIONS for n, w, l, p in _entries(phrase)]
    )
    e_phrase = _table((n, w + 1, l + 1, p) for n, w, l, p in _entries(phrase))
    tails = [preposition]  # tails[k]: k objects, then a preposition or not
    while len(tails) <= max(cfg.object_count_weights):
        tails.append(_then(e_phrase, tails[-1]))
    object_counts = tuple(
        (p, 0, 0, 0, tails[k], k) for k, p in sorted(cfg.object_count_weights.items()) if p > 0
    )
    after_predicate = _table(
        (n, w, l, p * q) for p, _, _, _, tail, _ in object_counts for n, w, l, q in _entries(tail)
    )
    predicate = _then(phrase, after_predicate)
    return Grammar(
        phrase=phrase,
        phrases=options(0, 0, _END),
        verse=((BARE_VERSE_PROBABILITY, 0, 0, 0, phrase, None),),
        subjects=tuple(o for o in options(1, 2, predicate) if o[-1] != (1, 0)),
        one_word=_running_total(p for p, n, with_pi in shapes if n == 1),
        predicate=predicate,
        predicates=options(0, 0, after_predicate),
        object_counts=object_counts,
        objects=tuple(options(1, 1, tail) for tail in tails),
        prepositions=tuple(
            o
            for o in [(1 - cfg.prep_probability, 0, 0, 0, _END, None)]
            + [(prep, 0, 1, len(word), phrase, word) for word in SENTENCE_PREPOSITIONS]
            if o[0] > 0
        ),
    )


class Letters:
    """Weighted counts of n content words by their letters in all, for one
    set of weights: the part of the count tables that the tracker moves.

    ``by_length`` pairs each word length, ascending, with the weight of the
    pool's words of that length.  With ``at_most`` a count is of up to a
    number of letters, otherwise of exactly it.  Row n is built on first
    use, up to ``limit`` letters (the budget), and is needed only where the
    budget binds: n words have from ``lo * n`` to ``hi * n`` letters.
    """

    def __init__(self, by_length, limit: float, at_most: bool):
        self.by_length = by_length
        self.limit = limit
        self.at_most = at_most
        self.lo, self.hi = by_length[0][0], by_length[-1][0]
        self.rows = [[1] if at_most else [1] + [0] * limit]

    def row(self, n: int) -> list:
        rows = self.rows
        while len(rows) <= n:
            prev = rows[-1]
            top = min(self.limit, self.hi * len(rows))
            if self.at_most:  # past its end, a row up to a count holds its total
                prev = prev + [prev[-1]] * (top + 1 - len(prev))
            row = [0] * (top + 1)
            for length, weight in self.by_length:
                end = min(top + 1, length + len(prev))
                row[length:end] = [a + weight * b for a, b in zip(row[length:end], prev)]
            rows.append(row if self.at_most else row + [0] * (self.limit - top))
        return rows[n]

    def __call__(self, n: int, letters: float):
        if self.at_most and letters >= self.hi * n:
            return 1.0  # every n words fit: all the weight, normalized
        return self.row(n)[letters] if letters >= self.lo * n else 0


class CountTables:
    """A Synthesizer's grammar as count tables, and its word pool by length."""

    def __init__(self, cfg: SynthConfig, pool: Sequence[str]):
        self.cfg = cfg
        self.pool = pool
        by_length: dict[int, list[int]] = {}
        for i, word in enumerate(pool):
            by_length.setdefault(len(word), []).append(i)
        #: Pool indices by word length, shortest first.
        self.by_length = sorted(by_length.items())
        self.li_less = [i for i, word in enumerate(pool) if word in LI_LESS_SUBJECTS]
        #: Pool indices of the words that take li as a subject, by length.
        self.li_takers = {
            length: takers
            for length, idx in self.by_length
            if (takers := [i for i in idx if i not in self.li_less])
        }

    @cached_property
    def grammar(self) -> Grammar:
        return build_grammar(self.cfg)

    @cached_property
    def verse_support(self) -> tuple[int, ...]:
        """Every letter count a verse can have.  No weight is ever 0, so the
        weights do not change it."""
        weights = [1.0] * len(self.pool)
        return tuple(n for n, share in enumerate(self.verse_letters(weights)) if share > 0)

    @cached_property
    def shortest_sentence(self) -> tuple[int, int]:
        """Words and letters of the shortest sentence ``sentence_text`` can
        draw: fewest words, then fewest letters."""
        g = self.grammar
        low = self.by_length[0][0]
        draw = _Draw(self, None, [1.0] * len(self.pool), inf, inf, at_most=True)
        subjects = [*g.subjects, *draw.one_word_subjects(g.one_word, g.predicate)]
        # The subject and the rest are drawn independently, so the shortest
        # of each make the shortest sentence.
        subject = min((n + w, low * n + l) for p, n, w, l, _, _ in subjects if p > 0)
        rest = min((n + w, low * n + l) for n, w, l, _ in _entries(g.predicate))
        return subject[0] + rest[0], subject[1] + rest[1]

    def _verse_subjects(self, draw: _Draw) -> list:
        """A verse's first choice: no subject, or a one-word subject."""
        g = self.grammar
        return [*g.verse, *draw.one_word_subjects(1 - BARE_VERSE_PROBABILITY, g.phrase)]

    def verse_letters(self, weights: list[float]) -> list[float]:
        """The chance that a verse has n letters under ``weights``, for n
        from 0 to the longest verse."""
        longest = (1 + max(self.cfg.phrase_len_weights)) * self.by_length[-1][0] + 4
        draw = _Draw(self, None, weights, inf, longest, at_most=False)
        phrase = [draw.mass(self.grammar.phrase, 0, inf, n) for n in range(longest + 1)]
        # Each first choice adds no free words, and a phrase follows it.
        subjects = self._verse_subjects(draw)
        return [
            _running_total(weight * phrase[n - l] for weight, _, _, l, _, _ in subjects if l <= n)
            for n in range(longest + 1)
        ]

    def fit_verse(self, rng, weights: list[float], letters: int) -> tuple[str, list[str]]:
        """A verse of exactly ``letters`` letters, and its content words."""
        draw = _Draw(self, rng, weights, inf, letters, at_most=False)
        subject = draw.choose(self._verse_subjects(draw))
        parts = [] if subject is None else draw.subject(subject)
        parts.append(draw.choose(self.grammar.phrases))
        return " ".join(draw.fill(parts)), draw.content

    def fit_sentence(
        self, rng, weights: list[float], words: float, letters: float
    ) -> tuple[str, list[str]]:
        """A sentence of at most ``words`` words and ``letters`` letters, and
        its content words."""
        g = self.grammar
        draw = _Draw(self, rng, weights, words, letters, at_most=True)
        subject = draw.choose([*g.subjects, *draw.one_word_subjects(g.one_word, g.predicate)])
        parts = [subject, "li"] if isinstance(subject, tuple) else draw.subject(subject)
        parts.append(draw.choose(g.predicates))
        for more in reversed(range(draw.choose(g.object_counts))):
            parts += ["e", draw.choose(g.objects[more])]
        preposition = draw.choose(g.prepositions)
        if preposition is not None:
            parts += [preposition, draw.choose(g.phrases)]
        return " ".join(draw.fill(parts)) + ".", draw.content


def count_tables(cfg: SynthConfig, pool: tuple[str, ...]) -> CountTables:
    """The tables of ``cfg``'s grammar over ``pool``.  Sessions differ in
    seed and reuse bias, which the tables do not use, so sessions with equal
    grammars and pools share them."""
    return _count_tables(
        tuple(sorted(cfg.phrase_len_weights.items())),
        tuple(sorted(cfg.object_count_weights.items())),
        cfg.prep_probability,
        cfg.pi_probability,
        pool,
    )


@lru_cache(maxsize=8)
def _count_tables(phrase_lens, object_counts, prep, pi, pool) -> CountTables:
    grammar = SynthConfig(
        phrase_len_weights=dict(phrase_lens),
        object_count_weights=dict(object_counts),
        prep_probability=prep,
        pi_probability=pi,
    )
    return CountTables(grammar, pool)


class _Draw:
    """One top-down draw within a budget of words and letters, with the
    word weights frozen at its start.

    ``choose`` weighs each option by the share of the table behind it that
    still fits the budget, so no draw is ever rejected.  ``content`` collects
    the content words drawn, in the order of the text.
    """

    def __init__(self, tables: CountTables, rng, weights, words: float, letters: float,
                 at_most: bool):
        self.tables, self.rng, self.weights = tables, rng, weights
        totals = [_running_total(map(weights.__getitem__, idx)) for _, idx in tables.by_length]
        self.total = _running_total(totals)
        self.shares = [(length, t / self.total) for (length, _), t in zip(tables.by_length, totals)]
        self.count = Letters(self.shares, letters, at_most)
        self.free, self.words, self.letters = 0, words, letters
        self.content: list[str] = []

    def one_word_subjects(self, scale: float, rest: Table) -> list:
        """Options for a subject of one word, at ``scale`` in all: each
        word without li, and the words with li by length."""
        pool, weights = self.tables.pool, self.weights
        options = [(scale * weights[i] / self.total, 0, 1, len(pool[i]), rest, pool[i])
                   for i in self.tables.li_less]
        for length, takers in self.tables.li_takers.items():
            share = _running_total(map(weights.__getitem__, takers)) / self.total
            options.append((scale * share, 0, 2, length + 2, rest, length))
        return options

    def mass(self, table: Table, free: int, words: float, letters: float) -> float:
        """The weight of ``table`` that fits ``words`` and ``letters`` after
        ``free`` content words still to be drawn.

        This is ``self.count`` inlined, since it is the inner loop of a draw.
        """
        count, at_most = self.count, self.count.at_most
        total = 0.0
        for n, whole, most_words, most_letters, shapes in table:
            m = free + n
            if m > words:
                break
            low, high = count.lo * m, count.hi * m
            if at_most and m + most_words <= words and letters - most_letters >= high:
                total += whole  # the budget binds no shape of the group
                continue
            row = None
            for w, l, weight in shapes:
                if m + w > words:
                    break
                k = letters - l
                if at_most and k >= high:
                    total += weight
                elif k >= low:
                    if row is None:
                        row = count.row(m)
                    total += weight * row[k]
        return total

    def choose(self, options):
        """One option's payload, drawn in proportion to its fitting weight."""
        chosen = options[self._index([
            weight * self.mass(rest, self.free + n, self.words - w, self.letters - l)
            for weight, n, w, l, rest, _ in options
        ])]
        _, n, w, l, _, payload = chosen
        self.free += n
        self.words -= w
        self.letters -= l
        return payload

    def _index(self, weights: list[float]) -> int:
        cumulative = list(accumulate(weights))
        i = bisect_right(cumulative, self.rng.random() * cumulative[-1])
        # A roll that rounds up to the total takes the last option of weight.
        return min(i, bisect_left(cumulative, cumulative[-1]))

    def _pick(self, indices: list[int]) -> str:
        word = self.tables.pool[indices[self._index([self.weights[i] for i in indices])]]
        self.content.append(word)
        return word

    def subject(self, choice) -> list[str]:
        """The words of a subject chosen from ``one_word_subjects``."""
        if isinstance(choice, str):
            self.content.append(choice)
            return [choice]
        return [self._pick(self.tables.li_takers[choice]), "li"]

    def _free_word(self) -> str:
        """A word's length, then the word, for the free words left."""
        self.free -= 1
        i = self._index([
            share * self.count(self.free, self.letters - length) for length, share in self.shares
        ])
        self.letters -= self.shares[i][0]
        return self._pick(self.tables.by_length[i][1])

    def fill(self, parts: list) -> list[str]:
        """``parts`` with each phrase shape filled by free words."""
        words: list[str] = []
        for part in parts:
            if isinstance(part, str):
                words.append(part)
                continue
            n, with_pi = part
            phrase = [self._free_word() for _ in range(n)]
            if with_pi:
                phrase.insert(n - 2, "pi")
            words += phrase
        return words
