"""Toki Pona to WordNet synset mapping, plus static hyponym/antonym relations.

Consumes a Princeton WordNet 3.x database directory in the standard WNDB
layout (index.noun/verb/adj/adv and data.* files, space-delimited fields,
8-digit decimal synset offsets).  A load reads the eight files whole, then
checks every data line and every index offset (its count, and that its data
file defines it), naming the file and line of a failure.  The check runs
once per content: a database that passed leaves a stamp named by the
SHA-256 of its files under ``$XDG_CACHE_HOME/tokipona`` (by default
``~/.cache/tokipona``); a load that finds its stamp takes the version, the
synset counts and the index order from it.  A failed check leaves no stamp.
Lookups binary-search the index files by lemma, as Princeton's
``bin_search`` does.  Three mappings are built from the lexicon's English
glosses: every reachable synset, the same without preposition-tagged words,
and only synsets whose part of speech matches a dictionary tag.
"""

from __future__ import annotations

import os
import re
from enum import Enum
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

from .lexicon import PURE_PARTICLES, Lemma, PosTag


class WNPos(str, Enum):
    NOUN = "n"
    VERB = "v"
    ADJ = "a"
    ADV = "r"


_VERSION_RE = re.compile(r"Word[nN]et (\d+\.\d+|\d+) Copyright")
_DATA = {pos: f"data.{pos.name.lower()}" for pos in WNPos}
_INDEX = {pos: f"index.{pos.name.lower()}" for pos in WNPos}
#: Part of every stamp's digest, so that no stamp vouches for other checks:
#: change it when the checks change or the reader needs a new field, not for
#: a field it ignores (older stamps' ``warnings``), which keeps them hits.
_CHECKS = b"tokipona wndb checks 1\n"


class WordNetError(ValueError):
    """Missing or corrupt database files."""


class SynsetRef(NamedTuple):
    pos: WNPos
    offset: int

    def key(self) -> str:
        return f"{self.pos.value}{self.offset:08d}"

    def __str__(self) -> str:
        return self.key()


class WordNetDatabase:
    """A checked WNDB directory: its version, its synset count and, per POS,
    its index text in lemma order, binary-searched by lemma.  Every file is
    read before any line is checked, so a missing file is named first."""

    def __init__(self, root: Path):
        self.root = Path(root)
        if not self.root.is_dir():
            raise WordNetError(f"{self.root} is not a directory")
        import hashlib

        files = {name: _read(self.root / name) for name in [*_DATA.values(), *_INDEX.values()]}
        sha = hashlib.sha256(_CHECKS)
        for name, data in files.items():
            sha.update(b"%s %d\n" % (name.encode(), len(data)))
            sha.update(data)
        digest = sha.hexdigest()
        index = {pos: _text(files.pop(_INDEX[pos])) for pos in WNPos}
        stamp_path = _stamp_path(digest)
        stamp = _read_stamp(stamp_path, digest) if stamp_path else None
        if stamp is None:
            stamp = self._check(files, index)
            if stamp_path:
                _write_stamp(stamp_path, {"digest": digest, **stamp})
        self.version: Optional[str] = stamp["version"]
        self.total_synsets: int = sum(stamp["synsets"][pos.value] for pos in WNPos)
        self._index = {pos: _sorted_index(index[pos], stamp["in_order"][pos.value])
                       for pos in WNPos}

    @property
    def warnings(self) -> list[str]:
        """What the version says against the 3.0 that the mapping expects."""
        if self.version is None:
            return ["no version line found in the data files"]
        return [] if self.version == "3.0" else [f"database reports version {self.version}, not 3.0"]

    def _check(self, files: dict[str, bytes], index: dict[WNPos, str]) -> dict:
        """Check every line of the data ``files``, each let go once decoded,
        and of the ``index`` texts; the stamp fields of a database that passes."""
        data = {pos: self._check_data(pos, _split(_text(files.pop(_DATA[pos])))) for pos in WNPos}
        in_order = {pos.value: self._check_index(pos, _split(index[pos]), data[pos][1])
                    for pos in WNPos}
        return {"version": next((version for version, _ in data.values() if version), None),
                "synsets": {pos.value: len(seen) for pos, (_, seen) in data.items()},
                "in_order": in_order}

    @staticmethod
    def _check_data(pos: WNPos, lines: list[str]) -> tuple[Optional[str], set[int]]:
        """A data file's license-header version, if any, and synset offsets."""
        name, version, seen = _DATA[pos], None, set()
        for lineno, line in enumerate(lines, 1):
            if line.startswith("  "):  # license header
                m = version is None and _VERSION_RE.search(line)
                if m:
                    version = m.group(1)
                continue
            fields = line.split(None, 3)
            if len(fields) < 3:
                raise WordNetError(f"{name}:{lineno}: truncated synset line")
            try:
                seen.add(int(fields[0]))
            except ValueError:
                raise WordNetError(f"{name}:{lineno}: bad synset offset {fields[0]!r}") from None
        return version, seen

    @staticmethod
    def _check_index(pos: WNPos, lines: list[str], synsets: set[int]) -> bool:
        """Check an index file against its data file's offsets; whether its
        header lines all come first and its lemmas never fall."""
        name, in_order, last = _INDEX[pos], True, None
        for lineno, line in enumerate(lines, 1):
            if line.startswith(" "):
                in_order = in_order and last is None
                continue
            fields = line.split()
            try:  # a line without a lemma fails at fields[2] alike
                n_synsets = int(fields[2])
                offsets = _offsets(fields)
            except (IndexError, ValueError) as exc:
                raise WordNetError(f"{name}:{lineno}: {exc}") from None
            if len(offsets) != n_synsets:
                raise WordNetError(
                    f"{name}:{lineno}: expected {n_synsets} offsets, got {len(offsets)}"
                )
            if not synsets.issuperset(offsets):
                bad = next(o for o in offsets if o not in synsets)
                raise WordNetError(
                    f"{name}:{lineno}: offset {bad:08d} not in {_DATA[pos]}"
                )
            in_order = in_order and (last is None or last <= fields[0])
            last = fields[0]
        return in_order

    def _line(self, key: str, pos: WNPos) -> Optional[str]:
        """The last index line of ``key``: Princeton's ``bin_search`` over the
        lines past the header, which are in lemma order."""
        text, start = self._index[pos]
        lo, hi = start, len(text)
        while lo < hi:  # lines starting before lo have lemmas <= key, from hi on > key
            begin = text.rfind("\n", lo, (lo + hi) // 2) + 1 or lo
            end = text.find("\n", begin)
            end = len(text) if end < 0 else end
            if _lemma(text[begin:end]) <= key:
                lo = end + 1
            else:
                hi = begin
        if lo == start:
            return None
        line = text[text.rfind("\n", start, lo - 1) + 1 or start:lo - 1]
        return line if _lemma(line) == key else None

    def lookup(self, lemma: str, pos: WNPos) -> tuple[int, ...]:
        """Synset offsets for an English lemma; multiword keys use underscores."""
        line = self._line(lemma.replace(" ", "_"), pos)
        if line is None:
            return ()
        return _offsets(line.split())


def _lemma(line: str) -> str:
    return line.split(None, 1)[0]


def _offsets(fields: list[str]) -> tuple[int, ...]:
    """The synset offsets of an index line's fields, past its pointer symbols."""
    return tuple(map(int, fields[6 + int(fields[3]):]))


def _sorted_index(text: str, in_order: bool) -> tuple[str, int]:
    """An index file's text with its lines in lemma order, and where they
    start: past the header, or a sorted copy without it.  The sort is stable,
    so a lemma listed twice keeps its later line last."""
    if in_order:
        start = 0
        while text.startswith(" ", start):
            start = text.find("\n", start) + 1 or len(text)
        return text, start
    lines = [line for line in _split(text) if not line.startswith(" ")]
    return "\n".join(sorted(lines, key=_lemma)), 0


def _read(path: Path) -> bytes:
    if not path.is_file():
        raise WordNetError(f"missing database file {path.name}")
    return path.read_bytes()


def _text(data: bytes) -> str:
    """A file's text as ``open(path, encoding="utf-8", errors="replace")``
    reads it: ``\\r\\n`` and ``\\r`` read as ``\\n``."""
    text = data.decode("utf-8", "replace")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _split(text: str) -> list[str]:
    """A text's lines, split only where iterating over its file would (not
    ``splitlines``)."""
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


# --- stamps of checked databases ---------------------------------------------

def _stamp_path(digest: str) -> Optional[Path]:
    """Where the stamp of a database with this digest lives, by the XDG base
    directory rules; None if no absolute cache directory can be found."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.expanduser("~/.cache")
    return Path(base, "tokipona", f"wordnet-{digest}.json") if os.path.isabs(base) else None


def _read_stamp(path: Path, digest: str) -> Optional[dict]:
    """The stamp at ``path`` if it is whole and for ``digest``, else None."""
    import json

    try:
        stamp = json.loads(path.read_bytes())
        valid = (stamp["digest"] == digest
                 and (stamp["version"] is None or type(stamp["version"]) is str)
                 and all(type(stamp["synsets"][pos.value]) is int
                         and type(stamp["in_order"][pos.value]) is bool for pos in WNPos))
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return stamp if valid else None


def _write_stamp(path: Path, stamp: dict) -> None:
    """Write ``stamp`` whole, by renaming a finished temporary file, or not
    at all: a cache that cannot be written only costs the next load its check."""
    import contextlib
    import json
    import tempfile

    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".wordnet-", suffix=".tmp", dir=path.parent)
    except OSError:
        return
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            json.dump(stamp, fh)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def load_wordnet_db(path: str | Path) -> WordNetDatabase:
    return WordNetDatabase(Path(path))


# --- mapping construction ----------------------------------------------------

class MappingMode(Enum):
    ALL = "all"
    NO_PREPOSITIONS = "noprep"
    MATCHED_POS = "matched"


ALL_POS = frozenset(WNPos)

#: Lookup classes per dictionary tag: adjectives double as adverbs,
#: numbers count as adjectives, prepositions range over every class.
EXPANSION: dict[PosTag, frozenset[WNPos]] = {
    PosTag.NOUN: frozenset({WNPos.NOUN}),
    PosTag.VERB: frozenset({WNPos.VERB}),
    PosTag.ADJECTIVE: frozenset({WNPos.ADJ, WNPos.ADV}),
    PosTag.NUMBER: frozenset({WNPos.ADJ}),
    PosTag.PREPOSITION: ALL_POS,
    PosTag.PARTICLE: frozenset(),
    PosTag.PRE: frozenset(),
}

#: Classes that count as "the same POS" for the matched-POS mapping:
#: the expansion, except that adjectives do not double as adverbs.
MATCHED: dict[PosTag, frozenset[WNPos]] = {**EXPANSION, PosTag.ADJECTIVE: frozenset({WNPos.ADJ})}


class CoverageGap(NamedTuple):
    lemma: str
    gloss: str


class TPWordnet(NamedTuple):
    mode: MappingMode
    map: dict[str, frozenset[SynsetRef]]
    coverage_gaps: tuple[CoverageGap, ...]

    @property
    def total_synsets(self) -> int:
        """Distinct synsets across all lemmas."""
        seen: set[SynsetRef] = set()
        for refs in self.map.values():
            seen |= refs
        return len(seen)

    def synsets_of(self, word: str) -> frozenset[SynsetRef]:
        return self.map.get(word, frozenset())


def build_mapping(lex: Iterable[Lemma], db: WordNetDatabase, mode: MappingMode) -> TPWordnet:
    """Relate each non-particle lemma of ``lex``, a lexicon or some of its
    lemmas, to synsets through its English glosses.

    ALL collects everything reachable under the expanded classes;
    NO_PREPOSITIONS additionally drops preposition-tagged lemmas;
    MATCHED_POS keeps only synsets whose class matches a dictionary tag.
    """
    mapping: dict[str, frozenset[SynsetRef]] = {}
    gaps: list[CoverageGap] = []
    for entry in lex:
        if entry.surface in PURE_PARTICLES:
            continue
        if mode is MappingMode.NO_PREPOSITIONS and PosTag.PREPOSITION in entry.tags:
            continue
        classes: frozenset[WNPos] = frozenset().union(
            *(EXPANSION[t] for t in entry.tags)
        )
        matched_classes: frozenset[WNPos] = frozenset().union(
            *(MATCHED[t] for t in entry.tags)
        )
        refs: set[SynsetRef] = set()
        for gloss in entry.glosses:
            hit = False
            for pos in classes:
                for offset in db.lookup(gloss, pos):
                    hit = True
                    refs.add(SynsetRef(pos, offset))
            if not hit:
                gaps.append(CoverageGap(entry.surface, gloss))
        if mode is MappingMode.MATCHED_POS:
            refs = {r for r in refs if r.pos in matched_classes}
        mapping[entry.surface] = frozenset(refs)
    return TPWordnet(mode, mapping, tuple(gaps))


def dump_tsv(tpw: TPWordnet) -> str:
    """One row per (lemma, synset): lemma, mode, pos, 8-digit offset."""
    lines = ["lemma\tmode\tpos\tsynset"]
    for lemma in sorted(tpw.map):
        for ref in sorted(tpw.map[lemma]):
            lines.append(f"{lemma}\t{tpw.mode.value}\t{ref.pos.value}\t{ref.offset:08d}")
    return "\n".join(lines) + "\n"


def coverage_report(tpw: TPWordnet) -> str:
    """Every (lemma, gloss) pair that resolved to zero synsets."""
    if not tpw.coverage_gaps:
        return "all glosses resolved\n"
    lines = [f"{g.lemma}\t{g.gloss}" for g in tpw.coverage_gaps]
    return "\n".join(lines) + "\n"


# --- static relations ---------------------------------------------------------

HYPONYM_PAIRS: tuple[tuple[str, str], ...] = (
    ("jan", "soweli"),
    ("kili", "kasi"),
    ("walo", "kule"),
    ("pimeja", "kule"),
    ("jelo", "kule"),
    ("loje", "kule"),
    ("laso", "kule"),
)

ANTONYM_PAIRS: tuple[tuple[str, str], ...] = (
    ("suno", "mun"),
    ("pona", "jaki"),
    ("pona", "ike"),
    ("sinpin", "monsi"),
    ("lawa", "noka"),
    ("mije", "meli"),
    ("sike", "palisa"),
    ("pana", "kama jo"),
    ("pimeja", "walo"),
    ("weka", "poka"),
    ("sama", "ante"),
    ("ali", "ala"),
    ("anu", "e"),
    ("selo", "insa"),
)


class RelationTable(NamedTuple):
    hyponym_pairs: tuple[tuple[str, str], ...] = HYPONYM_PAIRS
    antonym_pairs: tuple[tuple[str, str], ...] = ANTONYM_PAIRS


def relations() -> RelationTable:
    return RelationTable()
