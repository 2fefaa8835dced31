"""Exact-length verses and bounded sentences, drawn by counting.

A poem sets the letters of each verse, and a paragraph bounds its words and
letters.  Instead of drawing whole candidates until one fits, the draws here
weigh each choice of the grammar by how much of what can follow it still
fits, and go top-down: the recursive method of Flajolet, Zimmermann and
Van Cutsem (1994).  The tables split in two:

- the skeleton: the options of each choice of the grammar ``synth.grammar``
  states, and the shapes of what can follow each, as free content words,
  other words (particles, prepositions, a one-word subject) and their
  letters, with the grammar's probabilities.  It depends only on the
  grammar and is built once, but for the weights of one-word subjects;
- the letters of n free content words, which depend on the word weights.
  They are frozen at the start of each verse or sentence, and counted only
  where the budget binds.

The weights are added left to right, never with ``sum``, whose float result
is compensated from Python 3.12 on: a seed draws the same on every version.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property, lru_cache, reduce
from itertools import accumulate
from math import inf
from operator import add
from typing import Sequence


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


def _joined(options) -> Table:
    """The table of a choice among ``options`` and what follows each."""
    return _table(
        (n + n2, w + w2, l + l2, p * p2)
        for p, n, w, l, rest, _, _ in options
        for n2, w2, l2, p2 in _entries(rest)
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
    """A sentence and a verse grammar, as ``synth.grammar`` states them, as
    count tables over a word pool.

    A choice is (options, one-word subjects, table), built once.  An option
    is (weight, free words, other words, letters, the table of what follows
    it, emits, the next choice or None), up to the next choice; it emits
    ("text", "word", "pick" or "shape", value) pairs.  A one-word subject
    weighs (scale, pool indices) until a draw weighs it; its choice has no table.
    """

    def __init__(self, sentence: tuple, verse: tuple, pool: Sequence[str]):
        self.sentence, self.verse, self.pool = sentence, verse, pool
        by_length: dict[int, list[int]] = {}
        for i, word in enumerate(pool):
            by_length.setdefault(len(word), []).append(i)
        #: Pool indices by word length, shortest first.
        self.by_length = sorted(by_length.items())
        self._points: dict[tuple, tuple] = {(): (0, 0, (), None)}  # the end

    def _point(self, nodes: tuple) -> tuple:
        """The fixed words that open ``nodes``, as (words, letters, emits),
        then the choice after them, or None."""
        point = self._points.get(nodes)
        if point is None:
            node, rest = nodes[0], nodes[1:]
            if node[0] == "seq":
                point = self._point(node[1] + rest)
            elif node[0] == "lit":
                w, l, emit, choice = self._point(rest)
                point = w + 1, l + len(node[1]), (("text", node[1]), *emit), choice
            else:
                options = [self._option(*o) for o in self._options(node, rest, 1.0)]
                static = tuple(o for o in options if not isinstance(o[0], tuple) and o[0] > 0)
                subjects = tuple((*o[0], o[1:]) for o in options
                                 if isinstance(o[0], tuple) and o[0][0] > 0)
                point = 0, 0, (), (static, subjects, None if subjects else _joined(static))
            self._points[nodes] = point
        return point

    def _option(self, weight, n: int, w: int, l: int, emit: tuple, rest: tuple) -> tuple:
        w2, l2, emit2, choice = self._point(rest)
        table = _END if choice is None else choice[2]
        if table is None:
            raise ValueError("a one-word subject must open its unit")
        return weight, n, w + w2, l + l2, table, emit + emit2, choice

    def _options(self, node: tuple, rest: tuple, scale: float) -> list:
        """The options of the choice ``node`` makes before ``rest``, as
        (weight, free words, other words, letters, emits, what follows).  An
        ``alt`` that opens a branch, and a one-word subject, weigh ``scale``
        in all and merge into the choice around them."""
        kind = node[0]
        if kind == "phrase":  # a shape's pi is one more word, of two letters
            return [(weight, n, pi is not None, 2 * (pi is not None), (("shape", (n, pi)),), rest)
                    for (n, pi), weight in zip(*node[1][:2])]
        if kind == "subject" and node[1][0] == "phrase":  # one word: the next case
            return [x for o in self._options(node[1], (("lit", node[3]), *rest), scale)
                    for x in ([o] if o[1:3] != (1, 0) else
                              self._options(("subject", ("word",), *node[2:]), rest, o[0]))]
        if kind == "subject":  # each word without li, then the words with li by length
            pool, li, li_less = self.pool, (("lit", node[3]), *rest), node[2]
            takers = [(n, [i for i in idx if pool[i] not in li_less])
                      for n, idx in self.by_length]
            return [((scale, [i]), 0, 1, len(word), (("word", word),), rest)
                    for i, word in enumerate(pool) if word in li_less] + [
                ((scale, idx), 0, 1, n, (("pick", idx),), li) for n, idx in takers if idx]
        if kind != "alt":
            raise ValueError(f"no counted reading of a {kind!r} node here")
        options: list = []
        for branch, weight in zip(*node[1][:2]):
            branch, weight = (branch,), scale * weight
            while branch and branch[0][0] == "seq":
                branch = branch[0][1] + branch[1:]
            if branch and (branch[0][0] == "alt" or branch[0][:2] == ("subject", ("word",))):
                options += self._options(branch[0], branch[1:] + rest, weight)
            else:
                options.append((weight, 0, 0, 0, (), branch + rest))
        return options

    def _whole(self, unit: tuple, weights: list[float]) -> tuple[list, _Draw]:
        """The options of ``unit``'s first choice under ``weights``, with the
        fixed words before it, and a draw with the weights."""
        w, l, _, choice = self._point((unit,))
        draw = _Draw(self, None, weights, inf, 0, at_most=False)
        return [(p, n, w + w1, l + l1, rest, None, None)
                for p, n, w1, l1, rest, _, _ in draw.options(choice)], draw

    def fit(self, unit: tuple, rng, weights: list[float], words: float, letters: float,
            at_most: bool) -> tuple[list[str], list[str]]:
        """A draw of ``unit`` of at most ``words`` words and at most (or,
        unless ``at_most``, exactly) ``letters`` letters: its words, and its
        content words."""
        w, l, emit, choice = self._point((unit,))
        draw = _Draw(self, rng, weights, words - w, letters - l, at_most)
        parts: list = []
        while True:
            for kind, value in emit:  # a pick is drawn at once, a shape at the end
                if kind == "pick":
                    value = draw.pick(value)
                elif kind == "word":
                    draw.content.append(value)
                parts.append(value)
            if choice is None:
                return draw.fill(parts), draw.content
            emit, choice = draw.choose(draw.options(choice))[5:]

    def distribution(self, unit: tuple, weights: list[float]) -> dict[tuple[int, int], float]:
        """The chance that ``unit`` drawn under ``weights`` has so many words
        and letters, by (words, letters)."""
        options, draw = self._whole(unit, weights)
        table = _joined(options)
        longest = max(draw.count.hi * n + most for n, _, _, most, _ in table)
        count = Letters(draw.shares, longest, at_most=False)
        chances: dict[tuple[int, int], float] = {}
        for n, w, l, p in _entries(table):
            row = count.row(n)
            for k in range(count.lo * n, count.hi * n + 1):
                chances[n + w, l + k] = chances.get((n + w, l + k), 0.0) + p * row[k]
        return chances

    @cached_property
    def verse_support(self) -> tuple[int, ...]:
        """Every letter count a verse can have.  No weight is ever 0, so the
        weights do not change it."""
        chances = self.distribution(self.verse, [1.0] * len(self.pool))
        return tuple(sorted({letters for (_, letters), p in chances.items() if p > 0}))

    @cached_property
    def shortest_sentence(self) -> tuple[int, int]:
        """Words and letters of the shortest sentence, fewest words first."""
        options, _ = self._whole(self.sentence, [1.0] * len(self.pool))
        low = self.by_length[0][0]
        return min((n + n2 + w + w2, low * (n + n2) + l + l2)
                   for _, n, w, l, rest, _, _ in options for n2, w2, l2, _ in _entries(rest))


#: The tables of a sentence and a verse grammar over a pool.  Sessions differ
#: in seed and reuse bias, which the grammars do not hold, so sessions with
#: equal grammars and pools share them.
count_tables = lru_cache(maxsize=8)(CountTables)


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

    def options(self, choice: tuple) -> tuple:
        """The options of ``choice``, its one-word subjects weighed now."""
        options, subjects, _ = choice
        if not subjects:
            return options
        weights, total = self.weights, self.total
        return options + tuple([
            (scale * (_running_total(map(weights.__getitem__, idx)) / total),) + option
            for scale, idx, option in subjects
        ])

    def choose(self, options) -> tuple:
        """One option, drawn in proportion to its fitting weight."""
        chosen = options[self._index([
            weight * self.mass(rest, self.free + n, self.words - w, self.letters - l)
            for weight, n, w, l, rest, _, _ in options
        ])]
        self.free += chosen[1]
        self.words, self.letters = self.words - chosen[2], self.letters - chosen[3]
        return chosen

    def _index(self, weights: list[float]) -> int:
        cumulative = list(accumulate(weights))
        i = bisect_right(cumulative, self.rng.random() * cumulative[-1])
        # A roll that rounds up to the total takes the last option of weight.
        return min(i, bisect_left(cumulative, cumulative[-1]))

    def pick(self, indices: list[int]) -> str:
        word = self.tables.pool[indices[self._index([self.weights[i] for i in indices])]]
        self.content.append(word)
        return word

    def _free_word(self) -> str:
        """A word's length, then the word, for the free words left."""
        self.free -= 1
        i = self._index([
            share * self.count(self.free, self.letters - length) for length, share in self.shares
        ])
        self.letters -= self.shares[i][0]
        return self.pick(self.tables.by_length[i][1])

    def fill(self, parts: list) -> list[str]:
        """``parts`` with each phrase shape filled by free words."""
        words: list[str] = []
        for part in parts:
            if isinstance(part, str):
                words.append(part)
                continue
            n, pi = part
            phrase = [self._free_word() for _ in range(n)]
            if pi is not None:
                phrase.insert(pi, "pi")
            words += phrase
        return words
