"""Toki Pona to WordNet synset mapping, plus static hyponym/antonym relations.

Consumes a Princeton WordNet 3.x database directory in the standard WNDB
layout (index.noun/verb/adj/adv and data.* files, space-delimited fields,
8-digit decimal synset offsets).  A load opens the eight files, naming the
first missing one, and then takes one of three paths:

- an *identity hit* reads no data file.  The identity stamp of the directory
  lists each file's resolved path, size, ``st_mtime_ns``, ``st_ctime_ns`` and
  ``st_ino``, and every one still matches.  As git does with its index
  (``Documentation/technical/racy-git.txt``), a file whose mtime is not older
  than the stamp's own is not trusted: it may have changed again within the
  same clock tick;
- a *digest hit* reads the eight files and takes the SHA-256 of their names,
  lengths and bytes.  A database with the same bytes, from any path, passed
  the checks before and left a digest stamp under that digest;
- a *full check* reads every data line and every index offset (its count,
  and that its data file defines it), naming the file and line of a failure.
  A database that passes gets its digest stamp; a failed check leaves none.

A digest stamp is one text record: the digest, the version, the synset
counts, and whether each index file is in lemma order and plain.  An identity
stamp is that record, then the identity of each file.  Either of the last two
paths writes the identity stamp again, and removes the digest stamp that it
named before, if that differs.  Stamps live under ``$XDG_CACHE_HOME/tokipona``
(by default ``~/.cache/tokipona``); JSON stamps of earlier versions are not
read.  Lookups binary-search the index files by lemma, as Princeton's
``bin_search`` does, each inside one window of the file.  Three mappings are
built from the lexicon's English glosses: every reachable synset, the same
without preposition-tagged words, and only synsets whose part of speech
matches a dictionary tag.
"""

from __future__ import annotations

import contextlib
import os
import re
import zlib
from bisect import bisect_right
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
#: change it when the checks change or the record needs a new field.
_CHECKS = b"tokipona wndb checks 1\n"
#: The first line of every stamp: its format, and the checks whose digest it
#: holds.
_FORMAT = b"identity 1 " + _CHECKS
#: An index file's lines are searched in windows that open at the first line
#: after every this many bytes (characters, in a decoded text).
_FENCE = 4096


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
    its index in lemma order, binary-searched by lemma.  Every file is opened
    before any is read, so a missing file is named first.

    On an identity hit, a plain index file in lemma order is memory-mapped:
    it must not be truncated in place while the object is in use.  Replacing
    it by a rename is safe; the object keeps searching the file it mapped."""

    def __init__(self, root: Path):
        self.root = Path(root)
        if not self.root.is_dir():
            raise WordNetError(f"{self.root} is not a directory")
        with contextlib.ExitStack() as stack:
            files = {name: stack.enter_context(_open(self.root / name))
                     for name in [*_DATA.values(), *_INDEX.values()]}
            # Taken before any file is read: a file that changes after this
            # has another identity at the next load.
            identity, newest = _identity(files)
            resolved = os.fsencode(os.path.realpath(self.root))
            id_path = _stamp_path(f"wordnet-{zlib.crc32(resolved):08x}.id")
            known, lines, written = _read_stamp(id_path) if id_path else (None, b"", 0)
            if known is not None and lines == identity and newest < written:
                stamp = known
                index = {pos: _map(files[_INDEX[pos]])
                         if stamp["plain"][pos.value] and stamp["in_order"][pos.value]
                         else files[_INDEX[pos]].read() for pos in WNPos}
            else:
                blobs = {name: fh.read() for name, fh in files.items()}
                index = {pos: blobs[_INDEX[pos]] for pos in WNPos}
                stamp = self._checked(blobs)
                if id_path:
                    if known is not None and known["digest"] != stamp["digest"]:
                        with contextlib.suppress(OSError):
                            os.unlink(_stamp_path(f"wordnet-{known['digest']}.stamp"))
                    _write_stamp(id_path, _record(stamp) + identity)
        self.version: Optional[str] = stamp["version"]
        self.total_synsets: int = sum(stamp["synsets"][pos.value] for pos in WNPos)
        self._index = {pos: _sorted_index(index[pos], stamp["plain"][pos.value],
                                          stamp["in_order"][pos.value]) for pos in WNPos}
        self._fence: dict[WNPos, tuple[list, list[int]]] = {}

    @property
    def warnings(self) -> list[str]:
        """What the version says against the 3.0 that the mapping expects."""
        if self.version is None:
            return ["no version line found in the data files"]
        return [] if self.version == "3.0" else [f"database reports version {self.version}, not 3.0"]

    def _checked(self, files: dict[str, bytes]) -> dict:
        """The stamp record of ``files``: from their digest stamp, or from a
        full check that writes it."""
        import hashlib

        sha = hashlib.sha256(_CHECKS)
        for name, data in files.items():
            sha.update(b"%s %d\n" % (name.encode(), len(data)))
            sha.update(data)
        digest = sha.hexdigest()
        path = _stamp_path(f"wordnet-{digest}.stamp")
        stamp, lines, _ = _read_stamp(path) if path else (None, b"", 0)
        if stamp is None or stamp["digest"] != digest or lines:
            stamp = {"digest": digest, **self._check(files)}
            if path:
                _write_stamp(path, _record(stamp))
        return stamp

    def _check(self, files: dict[str, bytes]) -> dict:
        """Check every line of the data ``files``, each let go once decoded,
        and of the index files; the stamp record of a database that passes,
        but its digest."""
        data = {pos: self._check_data(pos, _split(_text(files.pop(_DATA[pos])))) for pos in WNPos}
        in_order = {pos.value: self._check_index(pos, _split(_text(files[_INDEX[pos]])),
                                                 data[pos][1]) for pos in WNPos}
        return {"version": next((version for version, _ in data.values() if version), None),
                "synsets": {pos.value: len(seen) for pos, (_, seen) in data.items()},
                "in_order": in_order,
                "plain": {pos.value: _plain(files[_INDEX[pos]]) for pos in WNPos}}

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
        lines past the header, which are in lemma order, started on the one
        window of the fence that can hold the key."""
        text, start = self._index[pos]
        nl = "\n"
        if not isinstance(text, str):  # a plain file: ASCII bytes
            if not key.isascii():
                return None
            key, nl = key.encode(), b"\n"
        if pos not in self._fence:
            self._fence[pos] = _fence(text, start, nl)
        lemmas, starts = self._fence[pos]
        j = bisect_right(lemmas, key)
        lo, hi = starts[j], starts[j + 1]
        while lo < hi:  # lines starting before lo have lemmas <= key, from hi on > key
            begin = text.rfind(nl, lo, (lo + hi) // 2) + 1 or lo
            end = text.find(nl, begin)
            end = len(text) if end < 0 else end
            if _lemma(text[begin:end]) <= key:
                lo = end + 1
            else:
                hi = begin
        if lo == start:
            return None
        line = text[text.rfind(nl, start, lo - 1) + 1 or start:lo - 1]
        if _lemma(line) != key:
            return None
        return line if isinstance(line, str) else line.decode("ascii")

    def lookup(self, lemma: str, pos: WNPos) -> tuple[int, ...]:
        """Synset offsets for an English lemma; multiword keys use underscores."""
        line = self._line(lemma.replace(" ", "_"), pos)
        if line is None:
            return ()
        return _offsets(line.split())


def _lemma(line):
    return line.split(None, 1)[0]


def _offsets(fields: list[str]) -> tuple[int, ...]:
    """The synset offsets of an index line's fields, past its pointer symbols."""
    return tuple(map(int, fields[6 + int(fields[3]):]))


def _sorted_index(data, plain: bool, in_order: bool) -> tuple:
    """An index file's lines in lemma order, and where they start: the file's
    own bytes if it is plain and in order, else its text, past the header or
    in a sorted copy without it.  The sort is stable, so a lemma listed twice
    keeps its later line last."""
    if plain and in_order:
        text, space, nl = data, b" ", b"\n"
    else:
        text, space, nl = _text(data), " ", "\n"
        if not in_order:
            lines = [line for line in _split(text) if not line.startswith(" ")]
            return "\n".join(sorted(lines, key=_lemma)), 0
    start = 0
    while text[start:start + 1] == space:
        start = text.find(nl, start) + 1 or len(text)
    return text, start


def _fence(text, start: int, nl) -> tuple[list, list[int]]:
    """The windows of an index's lines in lemma order, from ``start`` on: one
    opens at the first line after every ``_FENCE`` characters.  The lemma of
    each line that opens one, and every window's start, then the text's end."""
    lemmas, starts = [], [start]
    for at in range(start + _FENCE, len(text), _FENCE):
        begin = text.find(nl, at) + 1
        if not begin or begin == len(text):
            break
        if begin > starts[-1]:  # not a line that the last step already opened
            end = text.find(nl, begin)
            lemmas.append(_lemma(text[begin:len(text) if end < 0 else end]))
            starts.append(begin)
    starts.append(len(text))
    return lemmas, starts


def _open(path: Path):
    if not path.is_file():
        raise WordNetError(f"missing database file {path.name}")
    return open(path, "rb")


def _map(fh):
    """An open file's bytes, memory-mapped; an empty file's are ``b""``."""
    import mmap

    if os.fstat(fh.fileno()).st_size == 0:
        return b""
    return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)


def _plain(data: bytes) -> bool:
    """Whether ``data`` splits and compares as its decoded text does: ASCII,
    with no ``\\r`` (read as a line end) and none of ``\\x1c``-``\\x1f``
    (which ``str.split`` takes for whitespace, and ``bytes.split`` does not)."""
    return data.isascii() and not any(c in data for c in b"\r\x1c\x1d\x1e\x1f")


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

def _stamp_path(name: str) -> Optional[Path]:
    """Where the stamp ``name`` lives, by the XDG base directory rules; None
    if no absolute cache directory can be found."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.expanduser("~/.cache")
    return Path(base, "tokipona", name) if os.path.isabs(base) else None


def _identity(files: dict) -> tuple[bytes, int]:
    """One line per open file: its size, ``st_mtime_ns``, ``st_ctime_ns``,
    ``st_ino`` and resolved path; and the newest of their mtimes."""
    stats = [(os.fstat(fh.fileno()), fh.name) for fh in files.values()]
    lines = b"".join(b"%d %d %d %d %s\n" % (st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino,
                                            os.fsencode(os.path.realpath(name)))
                     for st, name in stats)
    return lines, max(st.st_mtime_ns for st, _ in stats)


def _record(stamp: dict) -> bytes:
    """A digest stamp, and the head of an identity stamp: the format line,
    then the digest, the version (``-`` for none), and per POS the synset
    count, then whether the index is in order, then whether it is plain."""
    fields = [stamp["digest"], stamp["version"] or "-"]
    fields += [str(stamp["synsets"][pos.value]) for pos in WNPos]
    fields += [str(int(stamp[flag][pos.value])) for flag in ("in_order", "plain") for pos in WNPos]
    return _FORMAT + " ".join(fields).encode() + b"\n"


def _read_stamp(path: Path) -> tuple[Optional[dict], bytes, int]:
    """The record, the file lines (none in a digest stamp) and the write time
    of the stamp at ``path``; no record if it cannot be read or is malformed."""
    try:
        with open(path, "rb") as fh:
            written = os.fstat(fh.fileno()).st_mtime_ns
            head, fields, lines = fh.read().split(b"\n", 2)
        digest, version, *numbers = fields.split(b" ")
        version = None if version == b"-" else version.decode()
    except (OSError, ValueError):  # no such file, too few lines, not UTF-8
        return None, b"", 0
    if (head + b"\n" != _FORMAT or not re.fullmatch(rb"[0-9a-f]{64}", digest)
            or len(numbers) != 12
            or not all(n.isdigit() for n in numbers[:4])
            or not set(numbers[4:]) <= {b"0", b"1"}):
        return None, b"", 0
    synsets, in_order, plain = numbers[:4], numbers[4:8], numbers[8:]
    return {"digest": digest.decode(), "version": version,
            "synsets": {pos.value: int(n) for pos, n in zip(WNPos, synsets)},
            "in_order": {pos.value: f == b"1" for pos, f in zip(WNPos, in_order)},
            "plain": {pos.value: f == b"1" for pos, f in zip(WNPos, plain)}}, lines, written


def _write_stamp(path: Path, data: bytes) -> None:
    """Write a stamp whole, by renaming a finished temporary file, or not at
    all: a cache that cannot be written only costs the next load its check."""
    import tempfile

    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".wordnet-", suffix=".tmp", dir=path.parent)
    except OSError:
        return
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
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
