"""WNDB parsing, the stamps of checked databases and the three mapping
modes, against a small database written in the genuine index/data file
format."""

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as hst

from tokipona import wordnet
from tokipona.wordnet import (
    MappingMode,
    SynsetRef,
    TPWordnet,
    WNPos,
    WordNetDatabase,
    WordNetError,
    build_mapping,
    coverage_report,
    dump_tsv,
    load_wordnet_db,
    relations,
)
from conftest import _HEADER, _SUFFIX, FIXTURE_INDEX, write_wndb


# --- database loading ------------------------------------------------------------

def test_load_fixture(wndb_dir):
    db = load_wordnet_db(wndb_dir)
    expected = len({(pos, off) for (_, pos), offs in FIXTURE_INDEX.items() for off in offs})
    assert db.total_synsets == expected
    assert db.version == "3.0"
    assert db.warnings == []


def _has_lemma(db, lemma: str) -> bool:
    """Whether any index of ``db`` has a line for ``lemma``: its last line, read
    by the loader's own search, so that a line with no offsets counts too."""
    return any(db._line(lemma.replace(" ", "_"), pos) is not None for pos in WNPos)


def test_lookup(wndb_dir):
    db = load_wordnet_db(wndb_dir)
    assert db.lookup("eat", WNPos.VERB) == (20000001, 20000002)
    assert db.lookup("eat", WNPos.NOUN) == ()
    assert db.lookup("sea creature", WNPos.NOUN) == (10000190,)  # underscore join
    assert not _has_lemma(db, "zzz")


def test_missing_file_is_loud(tmp_path):
    root = write_wndb(tmp_path / "dict", skip_files=("data.verb",))
    with pytest.raises(WordNetError, match="data.verb"):
        load_wordnet_db(root)
    with pytest.raises(WordNetError):
        load_wordnet_db(tmp_path / "nowhere")


def test_corrupt_index_is_loud(tmp_path):
    root = write_wndb(tmp_path / "dict")
    with open(root / "index.noun", "a", encoding="utf-8") as fh:
        fh.write("brokenline n x\n")
    with pytest.raises(WordNetError, match="index.noun"):
        load_wordnet_db(root)


def test_index_offsets_must_exist_in_data(tmp_path):
    root = write_wndb(tmp_path / "dict")
    with open(root / "index.noun", "a", encoding="utf-8") as fh:
        fh.write("ghost n 1 1 @ 1 1 99999999\n")
    with pytest.raises(WordNetError, match="99999999"):
        load_wordnet_db(root)


def test_version_warning(tmp_path):
    root = write_wndb(tmp_path / "dict")
    for name in root.iterdir():
        text = name.read_text("utf-8").replace("WordNet 3.0", "WordNet 3.1")
        name.write_text(text, "utf-8")
    db = load_wordnet_db(root)
    assert db.version == "3.1"
    assert any("3.0" in w for w in db.warnings)


# --- loader error paths ------------------------------------------------------

def _load_error(root) -> str:
    with pytest.raises(WordNetError) as info:
        load_wordnet_db(root)
    return str(info.value)


def _lines_in(path) -> int:
    return path.read_text("utf-8").count("\n")


@pytest.mark.parametrize("name, line, message", [
    ("data.noun", "10000999 03", "truncated synset line"),
    ("data.noun", "", "truncated synset line"),
    ("data.noun", "1000x999 03 n 01 ghost 0 000 | a bad offset",
     "bad synset offset '1000x999'"),
    ("index.noun", "ghost n", "list index out of range"),
    ("index.noun", "", "list index out of range"),
    ("index.noun", "ghost n x 1 @ 1 1 10000001",
     "invalid literal for int() with base 10: 'x'"),
    ("index.noun", "ghost n 1 y @ 1 1 10000001",
     "invalid literal for int() with base 10: 'y'"),
    ("index.noun", "ghost n 1 1 @ 1 1 1000000z",
     "invalid literal for int() with base 10: '1000000z'"),
    ("index.noun", "ghost n 2 1 @ 2 2 10000001", "expected 2 offsets, got 1"),
    ("index.noun", "ghost n 1 1 @ 1 1 99999999", "offset 99999999 not in data.noun"),
    ("index.verb", "ghost v 2 0 2 0 20000001 10000001", "offset 10000001 not in data.verb"),
])
def test_loader_error_names_file_and_line(tmp_path, name, line, message):
    root = write_wndb(tmp_path / "dict")
    lineno = _lines_in(root / name) + 1
    with open(root / name, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    assert _load_error(root) == f"{name}:{lineno}: {message}"


@pytest.mark.parametrize("name, message", [
    ("data.noun", "truncated synset line"),
    ("index.noun", "list index out of range"),
])
def test_blank_line_in_the_middle_is_an_error_at_its_line(tmp_path, name, message):
    root = write_wndb(tmp_path / "dict")
    lines = (root / name).read_text("utf-8").split("\n")
    lines.insert(5, "")
    (root / name).write_text("\n".join(lines), "utf-8")
    assert _load_error(root) == f"{name}:6: {message}"


def test_first_bad_line_of_the_first_bad_file_is_reported(tmp_path):
    """Every data file is read before any index file, each from its top."""
    root = write_wndb(tmp_path / "dict")
    for name in ("index.noun", "data.verb", "data.verb"):
        with open(root / name, "a", encoding="utf-8") as fh:
            fh.write("ghost\n")
    first = _lines_in(root / "data.verb") - 1
    assert _load_error(root) == f"data.verb:{first}: truncated synset line"


def test_a_missing_file_is_named_before_a_bad_line_of_another(tmp_path):
    """Every file is read before any line is checked."""
    root = write_wndb(tmp_path / "dict", skip_files=("index.adv",))
    text = (root / "data.noun").read_text("utf-8")
    (root / "data.noun").write_text(text + "10000999 03\n", "utf-8")
    assert _load_error(root) == "missing database file index.adv"


def test_form_feed_inside_a_line_does_not_move_line_numbers(tmp_path):
    root = write_wndb(tmp_path / "dict")
    text = (root / "data.noun").read_text("utf-8")
    text = text.replace("a fixture synset", "a \x0cfixture\x1c synset\x85\u2028")
    (root / "data.noun").write_text(text + "ghost\n", "utf-8")
    assert _load_error(root) == f"data.noun:{_lines_in(root / 'data.noun')}: truncated synset line"


@pytest.mark.parametrize("newline, final", [
    ("\r\n", True), ("\r\n", False), ("\n", False), ("\r", True),
])
def test_line_ends_and_a_missing_final_newline(tmp_path, newline, final):
    root = write_wndb(tmp_path / "dict")
    for path in root.iterdir():
        text = path.read_text("utf-8")
        text = text.replace("\n", newline) if final else text[:-1].replace("\n", newline)
        path.write_bytes(text.encode("utf-8"))
    db = load_wordnet_db(root)
    assert (db.version, db.warnings) == ("3.0", [])
    synsets = {(pos, off) for (_, pos), offs in FIXTURE_INDEX.items() for off in offs}
    assert db.total_synsets == len(synsets)
    for (lemma, pos), offsets in FIXTURE_INDEX.items():
        assert db.lookup(lemma, WNPos(pos)) == tuple(offsets)


def test_header_only_files_load_empty(tmp_path):
    root = write_wndb(tmp_path / "dict", index={})
    db = load_wordnet_db(root)
    assert (db.total_synsets, db.version, db.warnings) == (0, "3.0", [])
    assert db.lookup("person", WNPos.NOUN) == ()
    assert not _has_lemma(db, "person")


def test_offsets_compare_as_numbers(tmp_path):
    """An index offset need not repeat the data file's zero padding."""
    root = write_wndb(tmp_path / "dict")
    with open(root / "index.noun", "a", encoding="utf-8") as fh:
        fh.write("ghost n 2 0 2 0 10000001 0010000002\n")
    assert load_wordnet_db(root).lookup("ghost", WNPos.NOUN) == (10000001, 10000002)


# --- loader property ----------------------------------------------------------

_POINTERS = ("@", "~", "+", "!", "#p", "%p", "=")
_ABSENT = 10**8  # outside the range offsets are drawn from


@hst.composite
def _wndb_files(draw):
    """{file name: lines} for a small database, plus its line end and
    whether the last line has one."""
    files = {}
    for pos, suffix in _SUFFIX.items():
        offsets = draw(hst.lists(hst.integers(0, _ABSENT - 1), unique=True, max_size=5))
        files[f"data.{suffix}"] = _HEADER.splitlines() + [
            f"{off:08d} 03 {pos} 01 w{off} 0 000 | gloss {off}" for off in offsets
        ]
        index = []
        lemmas = draw(hst.lists(hst.text("abz_", min_size=1, max_size=4), unique=True,
                                max_size=5)) if offsets else []
        for lemma in sorted(lemmas):
            senses = draw(hst.lists(hst.sampled_from(offsets), min_size=1, max_size=3))
            pointers = draw(hst.lists(hst.sampled_from(_POINTERS), max_size=3))
            width = draw(hst.sampled_from([0, 8, 10]))
            index.append(" ".join([
                lemma, pos, str(len(senses)), str(len(pointers)), *pointers,
                str(len(senses)), "0", *(f"{off:0{width}d}" for off in senses),
            ]))
        files[f"index.{suffix}"] = _HEADER.splitlines() + index
    return files, draw(hst.sampled_from(["\n", "\r\n"])), draw(hst.booleans())


def _write(root: Path, files, newline, final):
    root.mkdir()
    for name, lines in files.items():
        text = newline.join(lines) + (newline if final and lines else "")
        (root / name).write_bytes(text.encode("utf-8"))


def _naive_parse(files):
    """(lemma, pos) -> offsets and the total synset count, read field by field."""
    index, total = {}, 0
    for pos, suffix in _SUFFIX.items():
        total += len({int(l.split()[0]) for l in files[f"data.{suffix}"] if l[:1] != " "})
        for line in files[f"index.{suffix}"]:
            if line[:1] == " ":
                continue
            fields = line.split()
            offsets = fields[6 + int(fields[3]):]
            assert len(offsets) == int(fields[2])
            index[fields[0], WNPos(pos)] = tuple(int(o) for o in offsets)
    return index, total


def _stamps(cache: Path) -> list[Path]:
    """The digest stamps in ``cache``."""
    return sorted((cache / "tokipona").glob("*.stamp")) if (cache / "tokipona").is_dir() else []


def _identities(cache: Path) -> list[Path]:
    """The identity stamps in ``cache``, one per database path."""
    return sorted((cache / "tokipona").glob("*.id")) if (cache / "tokipona").is_dir() else []


def _forget_paths(cache: Path) -> None:
    """Delete the identity stamps, so that the next load reads a digest stamp."""
    for path in _identities(cache):
        path.unlink()


def _settle(root: Path) -> Path:
    """Date every file of ``root`` a minute back, to a whole second, so that
    a stamp written now is newer: a file from the stamp's own clock tick is
    not trusted (the racy case)."""
    seconds = int(time.time()) - 60
    for path in root.iterdir():
        os.utime(path, (seconds, seconds))
    return root


def _load_hit(root) -> WordNetDatabase:
    """Load a database whose stamp is in the cache: no line is checked."""
    with mock.patch.object(WordNetDatabase, "_check", side_effect=AssertionError("checked")):
        return load_wordnet_db(root)


def _load_identity_hit(root) -> WordNetDatabase:
    """Load a database whose identity stamp is in the cache: no file is hashed."""
    with mock.patch.object(WordNetDatabase, "_checked", side_effect=AssertionError("hashed")):
        return load_wordnet_db(root)


@given(db_files=_wndb_files())
@settings(max_examples=100, deadline=None)
def test_loader_matches_a_naive_parse(db_files):
    """Loaded three times: checked and stamped, then from its identity stamp,
    then from its digest stamp alone."""
    files, newline, final = db_files
    index, total = _naive_parse(files)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"XDG_CACHE_HOME": f"{tmp}/cache"}):
        _write(Path(tmp) / "dict", files, newline, final)
        miss = load_wordnet_db(_settle(Path(tmp) / "dict"))
        assert len(_stamps(Path(tmp) / "cache")) == 1
        hit = _load_identity_hit(Path(tmp) / "dict")
        _forget_paths(Path(tmp) / "cache")
        digest_hit = _load_hit(Path(tmp) / "dict")
    for db in (miss, hit, digest_hit):
        assert db.total_synsets == total
        for (lemma, pos), offsets in index.items():
            assert db.lookup(lemma.replace("_", " "), pos) == offsets
            assert _has_lemma(db, lemma)
        # Outside the drawn alphabet or length: "a a a" is the 5-character key a_a_a.
        for lemma in ("zzzzz", "q", "q q", "", "a a a"):
            assert not _has_lemma(db, lemma)
        for pos in WNPos:
            assert db.lookup("zzzzz", pos) == ()
    assert (hit.version, hit.warnings) == (miss.version, miss.warnings)


@given(db_files=_wndb_files(), data=hst.data())
@settings(max_examples=100, deadline=None)
def test_one_corrupted_line_is_reported_at_its_file_and_line(db_files, data):
    files, newline, final = db_files
    name = data.draw(hst.sampled_from(sorted(files)))
    lines = files[name]
    at = data.draw(hst.integers(3, len(lines)))  # past the header; len(lines) appends
    if name.startswith("data."):
        bad = ["00000001 03", "0000000x 03 n 01 w 0 000 | gloss"]
    else:
        suffix = name.split(".")[1]
        pos = next(p for p, s in _SUFFIX.items() if s == suffix)
        known = next((l.split()[0] for l in files[f"data.{suffix}"][3:]), str(_ABSENT))
        bad = ["ghost", f"ghost {pos}", f"ghost {pos} x 0 1 0 {known}",
               f"ghost {pos} 1 0 1 0 {known} {known}", f"ghost {pos} 1 0 1 0 {_ABSENT}",
               f"ghost {pos} 1 9 1 0 {known}"]
    if at + 1 < len(lines) or final:
        bad.append("")  # a blank last line is a line only if a line end follows it
    bad = data.draw(hst.sampled_from(bad))
    corrupt = {**files, name: lines[:at] + [bad] + lines[at + 1:]}
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"XDG_CACHE_HOME": f"{tmp}/cache"}):
        _write(Path(tmp) / "clean", files, newline, final)
        load_wordnet_db(Path(tmp) / "clean")  # stamps the clean database
        _write(Path(tmp) / "dict", corrupt, newline, final)
        with pytest.raises(WordNetError) as info:
            load_wordnet_db(Path(tmp) / "dict")
        assert len(_stamps(Path(tmp) / "cache")) == 1  # an error is never stamped
    assert str(info.value).startswith(f"{name}:{at + 1}: ")


# --- stamps -------------------------------------------------------------------

@pytest.fixture
def cache(tmp_path, monkeypatch) -> Path:
    """An empty cache directory of this test's own."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache"


def _lookups(db) -> dict:
    return {(lemma, pos): db.lookup(lemma, WNPos(pos)) for lemma, pos in FIXTURE_INDEX}


def test_a_stamp_skips_the_checks_and_changes_no_answer(tmp_path, cache):
    root = write_wndb(tmp_path / "dict")
    miss = load_wordnet_db(root)
    assert len(_stamps(cache)) == 1
    hit = _load_hit(root)
    assert _lookups(hit) == _lookups(miss)
    assert (hit.version, hit.warnings, hit.total_synsets) == ("3.0", [], miss.total_synsets)


def test_the_stamp_is_found_by_content_not_by_path(tmp_path, cache):
    write_wndb(tmp_path / "one")
    load_wordnet_db(tmp_path / "one")
    assert _lookups(_load_hit(write_wndb(tmp_path / "two"))) == _lookups(load_wordnet_db(tmp_path / "one"))


def test_a_changed_file_is_checked_again(tmp_path, cache):
    root = write_wndb(tmp_path / "dict")
    load_wordnet_db(root)
    (root / "index.adv").write_bytes((root / "index.adv").read_bytes() + b"zzz r 1 0 1 0 40000001\n")
    with pytest.raises(AssertionError, match="checked"):
        _load_hit(root)


def test_a_stamp_that_cannot_be_renamed_into_place_leaves_no_file(tmp_path, cache):
    root = write_wndb(tmp_path / "dict")
    with mock.patch("tokipona.wordnet.os.replace", side_effect=OSError("refused")):
        assert load_wordnet_db(root).lookup("eat", WNPos.VERB) == (20000001, 20000002)
    assert list((cache / "tokipona").iterdir()) == []


def test_a_cache_that_cannot_be_written_is_skipped(tmp_path, monkeypatch):
    root = write_wndb(tmp_path / "dict")
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("", "utf-8")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    assert load_wordnet_db(root).lookup("eat", WNPos.VERB) == (20000001, 20000002)
    with pytest.raises(AssertionError, match="checked"):
        _load_hit(root)
    assert blocker.read_text("utf-8") == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dict", "not-a-directory"]


def test_a_relative_cache_home_falls_back_to_the_home_directory(tmp_path, monkeypatch):
    root = write_wndb(tmp_path / "dict")
    monkeypatch.setenv("XDG_CACHE_HOME", "relative")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    load_wordnet_db(root)
    assert len(_stamps(tmp_path / "home" / ".cache")) == 1


def test_a_header_line_among_the_lemmas_is_skipped(tmp_path, cache):
    root = write_wndb(tmp_path / "dict")
    lines = (root / "index.noun").read_text("utf-8").splitlines(keepends=True)
    for at in (len(lines) // 2, len(lines)):
        lines.insert(at, "  4 a header line after the first lemma\n")
    (root / "index.noun").write_text("".join(lines), "utf-8")
    expected = _lookups(load_wordnet_db(write_wndb(tmp_path / "clean")))
    assert _lookups(load_wordnet_db(root)) == _lookups(_load_hit(root)) == expected


@pytest.mark.parametrize("at", ["in order", "out of order"])
def test_a_lemma_listed_twice_resolves_to_its_later_line(tmp_path, cache, at):
    root = write_wndb(tmp_path / "dict")
    lines = (root / "index.noun").read_text("utf-8").splitlines(keepends=True)
    later = "person n 1 0 1 0 10000003\n"
    if at == "in order":
        lines.insert(next(i for i, l in enumerate(lines) if l.startswith("person ")) + 1, later)
    else:
        lines.append(later)
    (root / "index.noun").write_text("".join(lines), "utf-8")
    for db in (load_wordnet_db(root), _load_hit(root)):
        assert db.lookup("person", WNPos.NOUN) == (10000003,)
        assert db.lookup("people", WNPos.NOUN) == (10000003,)
        assert db.lookup("sea creature", WNPos.NOUN) == (10000190,)


# --- identity stamps -------------------------------------------------------

def test_an_identity_hit_hashes_no_file_and_changes_no_answer(tmp_path, cache):
    root = _settle(write_wndb(tmp_path / "dict"))
    miss = load_wordnet_db(root)
    assert len(_identities(cache)) == 1
    hit = _load_identity_hit(root)
    assert _lookups(hit) == _lookups(miss)
    assert (hit.version, hit.warnings, hit.total_synsets) == ("3.0", [], miss.total_synsets)


def test_a_file_rewritten_in_the_stamps_clock_tick_is_hashed(tmp_path, cache):
    """The racy case: a same-size rewrite dated at the stamp's own time."""
    root = _settle(write_wndb(tmp_path / "dict"))
    load_wordnet_db(root)
    [identity] = _identities(cache)
    path = root / "data.noun"
    spoilt = path.read_bytes().replace(b"\n10000001 ", b"\n1000000x ")
    with open(path, "r+b") as fh:  # in place: the same inode and size
        fh.write(spoilt)
    written = identity.stat().st_mtime_ns
    os.utime(path, ns=(written, written))
    assert _load_error(root) == "data.noun:4: bad synset offset '1000000x'"


@pytest.mark.parametrize("newer_ns, trusted", [(0, False), (10**6, True)])
def test_a_file_is_trusted_only_if_older_than_the_identity_stamp(tmp_path, cache, newer_ns,
                                                                  trusted):
    """git's rule, with no margin: every recorded field still matches."""
    root = _settle(write_wndb(tmp_path / "dict"))
    load_wordnet_db(root)
    [identity] = _identities(cache)
    newest = max(path.stat().st_mtime_ns for path in root.iterdir())
    os.utime(identity, ns=(newest + newer_ns, newest + newer_ns))
    if trusted:
        _load_identity_hit(root)
    else:
        with pytest.raises(AssertionError, match="hashed"):
            _load_identity_hit(root)
        load_wordnet_db(root)  # hashed, and stamped again: now it is older
        _load_identity_hit(root)


def test_an_identity_hit_names_a_missing_file_first(tmp_path, cache):
    root = _settle(write_wndb(tmp_path / "dict"))
    load_wordnet_db(root)
    _load_identity_hit(root)
    (root / "index.adv").unlink()
    with mock.patch.object(WordNetDatabase, "_checked", side_effect=AssertionError("hashed")):
        assert _load_error(root) == "missing database file index.adv"


def test_the_digest_stamp_is_the_head_of_the_identity_stamp(tmp_path, cache):
    """Written by a full check, and again (the identity stamp) by a digest hit."""
    root = write_wndb(tmp_path / "dict")
    for load in (load_wordnet_db, _load_hit):
        _forget_paths(cache)
        load(root)
        [stamp], [identity] = _stamps(cache), _identities(cache)
        head, fields, _ = identity.read_bytes().split(b"\n", 2)
        assert stamp.read_bytes() == head + b"\n" + fields + b"\n"
        assert stamp.name == "wordnet-%s.stamp" % fields.split(b" ")[0].decode()


def test_a_digest_stamp_in_the_json_of_earlier_versions_is_not_read(tmp_path, cache):
    """Written as the loader wrote it before this format, with ``json.dump``
    into a text file: the load checks the database in full, writes its own
    digest stamp and leaves the JSON file as it was."""
    root = write_wndb(tmp_path / "dict")
    sha = hashlib.sha256(b"tokipona wndb checks 1\n")
    for kind in ("data", "index"):
        for suffix in ("noun", "verb", "adj", "adv"):
            data = (root / f"{kind}.{suffix}").read_bytes()
            sha.update(b"%s.%s %d\n" % (kind.encode(), suffix.encode(), len(data)))
            sha.update(data)
    digest = sha.hexdigest()
    synsets = {pos: len({off for (_, p), offs in FIXTURE_INDEX.items() if p == pos
                         for off in offs}) for pos in "nvar"}
    stamp = {"digest": digest, "version": "3.0", "synsets": synsets,
             "in_order": {pos: True for pos in "nvar"}}
    path = cache / "tokipona" / f"wordnet-{digest}.json"
    path.parent.mkdir(parents=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stamp, fh)
    earlier = path.read_bytes()
    with mock.patch.object(WordNetDatabase, "_check", autospec=True,
                           side_effect=WordNetDatabase._check) as check:
        db = load_wordnet_db(root)
    assert check.call_count == 1
    assert (db.version, db.total_synsets) == ("3.0", sum(synsets.values()))
    assert [p.name for p in _stamps(cache)] == [f"wordnet-{digest}.stamp"]
    assert path.read_bytes() == earlier


def _cut_last_line(data: bytes) -> bytes:
    return data[:data.rindex(b"\n", 0, -1) + 1]


def _fields(data: bytes, edit) -> bytes:
    head, fields, rest = data.split(b"\n", 2)
    return b"\n".join([head, b" ".join(edit(fields.split(b" "))), rest])


@pytest.mark.parametrize("spoil", [
    lambda data: data[: len(data) // 2],
    lambda data: b"",
    _cut_last_line,
    lambda data: data.replace(b"identity 1 ", b"identity 2 ", 1),
    lambda data: data.replace(b"checks 1", b"checks 0", 1),
    lambda data: _fields(data, lambda f: [f[0][:-1] + b"g"] + f[1:]),
    lambda data: _fields(data, lambda f: f[:2] + [b"x"] + f[3:]),
    lambda data: _fields(data, lambda f: f[:-1] + [b"2"]),
    lambda data: _fields(data, lambda f: f[:-1]),
    lambda data: _fields(data, lambda f: f + [b"1"]),
    lambda data: _fields(data, lambda f: f[:1] + [b"\xff"] + f[2:]),
    lambda data: data + b"0 0 0 0 /dict/data.noun\n",
], ids=["half", "empty", "last line cut", "format", "checks", "digest", "count", "flag",
        "field missing", "field added", "version not UTF-8", "line added"])
def test_a_spoilt_identity_stamp_is_a_miss_and_is_written_again(tmp_path, cache, spoil):
    """Either stamp in the one format, spoilt alone: the identity stamp, whose
    miss hashes the files, then the digest stamp, its first two lines, whose
    miss checks them."""
    root = _settle(write_wndb(tmp_path / "dict"))
    load_wordnet_db(root)
    for stamps, load, missed in [(_identities, _load_identity_hit, "hashed"),
                                 (_stamps, _load_hit, "checked")]:
        [stamp] = stamps(cache)
        good = stamp.read_bytes()
        stamp.write_bytes(spoil(good))
        if stamps is _stamps:
            _forget_paths(cache)
        with pytest.raises(AssertionError, match=missed):
            load(root)
        assert _lookups(load_wordnet_db(root)) == _lookups(load(root))
        assert stamp.read_bytes() == good


def test_a_digest_stamp_holding_another_digest_is_a_miss(tmp_path, cache):
    """An identity stamp holding another digest is a hit: an identity hit
    hashes nothing."""
    root = write_wndb(tmp_path / "dict")
    load_wordnet_db(root)
    [stamp] = _stamps(cache)
    good = stamp.read_bytes()
    stamp.write_bytes(_fields(good, lambda f: [f[0][::-1]] + f[1:]))
    _forget_paths(cache)
    with pytest.raises(AssertionError, match="checked"):
        _load_hit(root)
    load_wordnet_db(root)
    assert stamp.read_bytes() == good


def test_a_database_rewritten_in_place_leaves_one_stamp_of_each_kind(tmp_path, cache):
    root = write_wndb(tmp_path / "dict")
    load_wordnet_db(root)
    for n in (1, 2):
        with open(root / "index.adv", "a", encoding="utf-8") as fh:
            fh.write(f"zz{n} r 1 0 1 0 40000001\n")
        load_wordnet_db(root)
    assert (len(_stamps(cache)), len(_identities(cache))) == (1, 1)
    _forget_paths(cache)
    assert _load_hit(root).lookup("zz2", WNPos.ADV) == (40000001,)


# --- windows of the binary search -------------------------------------------

def _scan(path: Path, key: str) -> tuple[int, ...]:
    """The offsets of the last line of ``key`` in an index file, read line by line."""
    found = ()
    for line in path.read_bytes().decode("utf-8", "replace").replace("\r\n", "\n").split("\n"):
        fields = line.split()
        if fields and not line.startswith(" ") and fields[0] == key:
            found = tuple(int(o) for o in fields[6 + int(fields[3]):])
    return found


def _near(lemma: str) -> list[str]:
    return [lemma, lemma[:-1], lemma + "a", lemma + "~", lemma[:-1] + chr(ord(lemma[-1]) + 1)]


def test_windowed_lookups_equal_a_linear_scan(tmp_path, cache, monkeypatch):
    """With 64-byte windows: many nouns, one listed five times across a
    window's start, a header-only index.adj, an empty index.adv, and an
    index.verb with ``\\r\\n`` line ends and a non-ASCII lemma."""
    monkeypatch.setattr(wordnet, "_FENCE", 64)
    nouns = {(f"w{i:03d}{'x' * (i % 7)}", "n"): [10000000 + i] for i in range(300)}
    verbs = {(lemma, "v"): [20000000 + i] for i, lemma in enumerate(
        ["cafe", "caf\u00e9", "cafz", "eat", "na\u00efve", "see", "\u00e9t\u00e9"])}
    root = write_wndb(tmp_path / "dict", index={**nouns, **verbs})
    lines = (root / "index.noun").read_bytes().split(b"\n")
    at = next(i for i, line in enumerate(lines) if line.startswith(b"w147 "))
    lines[at + 1:at + 1] = [b"w147 n 1 0 1 0 %d" % (10000000 + k) for k in range(5)]
    (root / "index.noun").write_bytes(b"\n".join(lines))
    (root / "index.adv").write_bytes(b"")
    verb = (root / "index.verb").read_bytes()
    (root / "index.verb").write_bytes(verb.replace(b"\n", b"\r\n"))
    keys = {lemma for lemma, _ in [*nouns, *verbs]}
    keys = sorted({near for lemma in keys for near in _near(lemma)}
                  | {"", "a", "w", "zzzz", "~", "\u00e9", "\udcff", "w147 x"})
    miss = load_wordnet_db(_settle(root))
    hit = _load_identity_hit(root)
    _forget_paths(cache)
    digest_hit = _load_hit(root)
    for db in (miss, hit, digest_hit):
        for pos in WNPos:
            index = root / f"index.{_SUFFIX[pos.value]}"
            for key in keys:
                assert db.lookup(key, pos) == _scan(index, key.replace(" ", "_")), (pos, key)
    assert hit.lookup("w147", WNPos.NOUN) == (10000004,)
    assert not isinstance(hit._index[WNPos.NOUN][0], (str, bytes))  # mapped
    for db in (hit, digest_hit):  # \r\n: read and decoded, by the stamp's plain flag
        assert isinstance(db._index[WNPos.VERB][0], str)
    assert hit._index[WNPos.ADV][0] == b""
    starts = hit._fence[WNPos.NOUN][1]
    first = (root / "index.noun").read_bytes().index(b"\nw147 ") + 1
    assert any(first < start < first + 6 * len(b"w147 n 1 0 1 0 10000000\n") for start in starts)


@pytest.mark.parametrize("separator", ["\x1c", "\x1d", "\x1e", "\x1f"])
def test_a_lemma_ended_by_a_separator_control_is_searched_as_text(tmp_path, cache, separator):
    """``str.split`` ends a field at these four, and ``bytes.split`` does not."""
    root = write_wndb(tmp_path / "dict")
    text = (root / "index.noun").read_text("utf-8")
    (root / "index.noun").write_text(text.replace("\nfish n ", f"\nfish{separator}n "), "utf-8")
    for db in (load_wordnet_db(_settle(root)), _load_identity_hit(root)):
        assert db.lookup("fish", WNPos.NOUN) == (10000010,)
        assert db.lookup("mammal", WNPos.NOUN) == (10000031,)


# --- mappings ------------------------------------------------------------

@pytest.fixture(scope="module")
def db(wndb_dir):
    return load_wordnet_db(wndb_dir)


@pytest.fixture(scope="module")
def mappings(lexicon, db):
    return {mode: build_mapping(lexicon, db, mode) for mode in MappingMode}


def test_particles_contribute_nothing(mappings):
    for mode, tpw in mappings.items():
        for particle in ("li", "e", "la", "pi", "a", "o", "anu", "en", "seme", "mu"):
            assert particle not in tpw.map
            assert tpw.synsets_of(particle) == frozenset()


def test_all_mode_collects_expanded_classes(mappings, lexicon):
    tpw = mappings[MappingMode.ALL]
    # moku (VERB, NOUN): eat/drink verbs plus food/meal/drink nouns
    moku = tpw.synsets_of("moku")
    assert SynsetRef(WNPos.VERB, 20000001) in moku
    assert SynsetRef(WNPos.NOUN, 10000040) in moku
    assert SynsetRef(WNPos.NOUN, 10000042) in moku  # drink as a noun, via the noun tag
    # pona (ADJECTIVE): adjectives and adverbs, but never the verb "correct"
    pona = tpw.synsets_of("pona")
    assert SynsetRef(WNPos.ADJ, 30000001) in pona
    assert SynsetRef(WNPos.ADV, 40000001) in pona  # "good" as adverb
    assert SynsetRef(WNPos.ADJ, 30000004) in pona  # "correct" adjective
    assert SynsetRef(WNPos.VERB, 20000080) not in pona
    # kin (ADJECTIVE, synonym of a) maps through adverb glosses
    assert SynsetRef(WNPos.ADV, 40000002) in tpw.synsets_of("kin")
    # tu (NUMBER) is looked up as an adjective
    assert tpw.synsets_of("tu") == frozenset({SynsetRef(WNPos.ADJ, 30000005)})
    # lon (sole preposition) ranges over all four classes
    lon = tpw.synsets_of("lon")
    assert {r.pos for r in lon} >= {WNPos.VERB, WNPos.NOUN, WNPos.ADJ}


def test_no_prepositions_mode(mappings, lexicon):
    tpw = mappings[MappingMode.NO_PREPOSITIONS]
    all_map = mappings[MappingMode.ALL].map
    for word in ("kepeken", "lon", "tan", "sama", "tawa"):
        assert word not in tpw.map
    for word, refs in tpw.map.items():
        assert refs == all_map[word]
    assert set(tpw.map) == set(all_map) - {"kepeken", "lon", "tan", "sama", "tawa"}


def test_matched_pos_mode(mappings):
    tpw = mappings[MappingMode.MATCHED_POS]
    # pona keeps only adjective synsets: the adverb reading drops out
    pona = tpw.synsets_of("pona")
    assert SynsetRef(WNPos.ADJ, 30000001) in pona
    assert all(r.pos is WNPos.ADJ for r in pona)
    # wan (ADJECTIVE, NUMBER) likewise stays adjectival
    for ref in tpw.synsets_of("wan"):
        assert ref.pos is WNPos.ADJ


def test_subset_laws_every_lemma(mappings):
    all_map = mappings[MappingMode.ALL]
    noprep = mappings[MappingMode.NO_PREPOSITIONS]
    matched = mappings[MappingMode.MATCHED_POS]
    for word, refs in noprep.map.items():
        assert refs <= all_map.map[word]
    for word, refs in matched.map.items():
        assert refs <= all_map.map[word]
    assert noprep.total_synsets <= all_map.total_synsets
    assert matched.total_synsets <= all_map.total_synsets


def test_one_lemma_maps_as_in_the_whole_mapping(mappings, lexicon, db):
    """``wordnet lookup`` maps only the word it prints."""
    for mode, whole in mappings.items():
        for entry in lexicon:
            one = build_mapping([entry], db, mode)
            assert one.synsets_of(entry.surface) == whole.synsets_of(entry.surface)


def test_mapping_deterministic(lexicon, db):
    a = build_mapping(lexicon, db, MappingMode.ALL)
    b = build_mapping(lexicon, db, MappingMode.ALL)
    assert a.map == b.map
    assert dump_tsv(a) == dump_tsv(b)


def test_coverage_report(mappings):
    tpw = mappings[MappingMode.ALL]
    gaps = {(g.lemma, g.gloss) for g in tpw.coverage_gaps}
    # the fixture has no "me" entry, so mi's first gloss is reported
    assert ("mi", "me") in gaps
    # but covered glosses are not
    assert ("moku", "eat") not in gaps
    text = coverage_report(tpw)
    assert "mi\tme" in text


def test_coverage_report_without_gaps():
    # The bundled lexicon always has gaps: wile is only a pre-verb, which
    # expands to no WordNet class.
    assert coverage_report(TPWordnet(MappingMode.ALL, {}, ())) == "all glosses resolved\n"


def test_dump_tsv_shape(mappings):
    tpw = mappings[MappingMode.ALL]
    lines = dump_tsv(tpw).splitlines()
    assert lines[0] == "lemma\tmode\tpos\tsynset"
    for line in lines[1:]:
        lemma, mode, pos, synset = line.split("\t")
        assert mode == "all"
        assert pos in "nvar"
        assert len(synset) == 8 and synset.isdigit()
    body = lines[1:]
    assert body == sorted(body)


# --- relations ------------------------------------------------------------

def test_relations_content(lexicon):
    table = relations()
    hyponyms = set(table.hyponym_pairs)  # (child, parent)
    assert ("jan", "soweli") in hyponyms
    assert ("kili", "kasi") in hyponyms
    assert ("soweli", "jan") not in hyponyms  # irreflexive, directed
    for color in ("walo", "pimeja", "jelo", "loje", "laso"):
        assert (color, "kule") in hyponyms

    antonyms = {frozenset(pair) for pair in table.antonym_pairs}  # unordered
    assert {"suno", "mun"} in antonyms
    # found from either side of a pair
    assert [a if b == "mun" else b for a, b in table.antonym_pairs if "mun" in (a, b)] == ["suno"]
    assert {"pona", "jaki"} in antonyms
    assert {"pona", "ike"} in antonyms
    assert {"sinpin", "monsi"} in antonyms
    assert {"pana", "kama jo"} in antonyms
    assert {"pona"} not in antonyms


def test_relations_members_are_lemmas(lexicon):
    table = relations()
    words = {w for pair in table.hyponym_pairs for w in pair}
    words |= {w for pair in table.antonym_pairs for w in pair}
    for word in words:
        if " " in word:
            for part in word.split():
                assert lexicon.lookup(part) is not None
        else:
            assert lexicon.lookup(word) is not None


def test_hyponym_irreflexive():
    table = relations()
    for a, b in table.hyponym_pairs:
        assert a != b
