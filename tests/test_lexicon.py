"""Lexicon loading, lookup, word sets, and transcription checksums."""

import re

import pytest

from tokipona.lexicon import (
    EXPECTED_CHOSEN_COUNTS,
    EXPECTED_TAG_INCIDENCE,
    Lemma,
    Lexicon,
    LexiconError,
    PosTag,
    PREPOSITIONS,
    PREVERBS,
    PURE_PARTICLES,
    SOLE_PREPOSITIONS,
    SYNONYM_GROUPS,
    Sense,
    check_paper_figures,
    choose_tag,
    load_lexicon,
)


def test_counts(lexicon):
    assert len(lexicon) == 124
    assert len(lexicon.distinct_entries()) == 120
    assert len(lexicon.content_words()) == 107


def test_tag_histograms(lexicon):
    assert lexicon.tag_incidence() == EXPECTED_TAG_INCIDENCE
    assert lexicon.chosen_counts() == EXPECTED_CHOSEN_COUNTS
    assert sum(lexicon.tag_incidence().values()) == 140
    assert sum(lexicon.chosen_counts().values()) == 120


def test_chosen_histogram_values(lexicon):
    chosen = {t.value: c for t, c in lexicon.chosen_counts().items()}
    assert chosen == {
        "NOUN": 49, "ADJECTIVE": 34, "VERB": 13, "PARTICLE": 12,
        "PRE": 6, "PREPOSITION": 5, "NUMBER": 1,
    }


def test_lookup(lexicon):
    wile = lexicon.lookup("wile")
    assert wile is not None and PosTag.PRE in wile.tags
    assert wile.tags == (PosTag.PRE,)  # wile is nothing but a pre-verb
    assert lexicon.lookup("xyz") is None
    assert lexicon.lookup("Pije") is None  # proper nouns never match
    assert lexicon.lookup("Toki") is None

    from tokipona.phonotactics import syllabify
    assert len(syllabify(lexicon.lookup("toki").surface)) == 2


def test_content_words(lexicon):
    surfaces = {e.surface for e in lexicon.content_words()}
    assert "li" not in surfaces
    assert "kepeken" not in surfaces
    assert "tawa" in surfaces  # carries a non-preposition tag
    assert "sama" in surfaces
    assert "wile" in surfaces
    assert "kin" not in surfaces  # synonyms collapse onto their primary
    assert len(surfaces) == 107


def test_fixed_sets(lexicon):
    pure = {e.surface for e in lexicon if set(e.tags) == {PosTag.PARTICLE}}
    assert pure == PURE_PARTICLES == {
        "li", "e", "la", "pi", "a", "o", "anu", "en", "seme", "mu"
    }
    soleprep = {e.surface for e in lexicon if set(e.tags) == {PosTag.PREPOSITION}}
    assert soleprep == SOLE_PREPOSITIONS == {"kepeken", "lon", "tan"}
    preverbs = {e.surface for e in lexicon if PosTag.PRE in e.tags}
    assert preverbs == PREVERBS == {"wile", "ken", "awen", "kama", "lukin", "sona"}
    preps = {e.surface for e in lexicon if PosTag.PREPOSITION in e.tags}
    assert preps == PREPOSITIONS == {"kepeken", "lon", "sama", "tan", "tawa"}


def test_synonym_groups(lexicon):
    assert lexicon.synonym_groups == {
        "a": ("a", "kin"),
        "lukin": ("lukin", "oko"),
        "sin": ("sin", "namako"),
        "ale": ("ale", "ali"),
    }


def test_chosen_is_deterministic(lexicon):
    for entry in lexicon:
        assert entry.chosen == choose_tag(entry.tags)
        assert entry.chosen == choose_tag(reversed(entry.tags))
        assert entry.chosen in entry.tags


def test_no_tag_has_no_chosen_tag():
    """The lexicon refuses a lemma without tags, so only a direct call gets here."""
    with pytest.raises(LexiconError, match=r"^no chosen tag for set\(\)$"):
        choose_tag([])


def test_a_lemma_prints_as_its_surface(lexicon):
    assert str(lexicon.lookup("toki")) == "toki"


def test_chosen_precedence_examples(lexicon):
    assert lexicon.lookup("lukin").chosen is PosTag.PRE
    assert lexicon.lookup("moku").chosen is PosTag.VERB
    assert lexicon.lookup("tawa").chosen is PosTag.PREPOSITION
    assert lexicon.lookup("nanpa").chosen is PosTag.PARTICLE
    assert lexicon.lookup("mute").chosen is PosTag.ADJECTIVE
    assert lexicon.lookup("luka").chosen is PosTag.NOUN
    assert lexicon.lookup("tu").chosen is PosTag.NUMBER


def test_senses_structure(lexicon):
    moku = lexicon.lookup("moku")
    assert len(moku.senses) == 2
    assert "eat" in moku.senses[0].english_lemmas
    assert "food" in moku.senses[1].english_lemmas
    for entry in lexicon:
        assert entry.senses
        for sense in entry.senses:
            assert sense.english_lemmas


# --- loading errors ----------------------------------------------------------

def _tsv_lines():
    from importlib import resources
    text = resources.files("tokipona").joinpath("data/lexicon.tsv").read_text("utf-8")
    return text.splitlines()


def test_load_from_explicit_path(tmp_path):
    p = tmp_path / "lexicon.tsv"
    p.write_text("\n".join(_tsv_lines()) + "\n", "utf-8")
    assert len(load_lexicon(p)) == 124


@pytest.mark.parametrize("comments", [True, False], ids=["comment-first", "header-first"])
def test_load_accepts_a_byte_order_mark(tmp_path, comments):
    lines = [l for l in _tsv_lines() if comments or not l.startswith("#")]
    p = tmp_path / "lexicon.tsv"
    p.write_text("\n".join(lines) + "\n", "utf-8-sig")
    assert p.read_bytes().startswith(b"\xef\xbb\xbf")
    lex = load_lexicon(p)
    assert len(lex) == 124
    check_paper_figures(lex)


def test_missing_row_is_loud(tmp_path):
    lines = _tsv_lines()
    removed = [l for l in lines if not l.startswith("akesi\t")]
    p = tmp_path / "lexicon.tsv"
    p.write_text("\n".join(removed) + "\n", "utf-8")
    lex = load_lexicon(p)  # structurally sound, so it loads by path
    with pytest.raises(LexiconError, match=r"lemma count 123 != 124"):
        check_paper_figures(lex)


def test_paper_figures_hold_for_the_bundled_file(lexicon):
    check_paper_figures(lexicon)


def test_paper_figures_are_checked_for_the_bundled_file_only(tmp_path, monkeypatch):
    p = tmp_path / "lexicon.tsv"
    p.write_text("\n".join(_tsv_lines()) + "\n", "utf-8")
    monkeypatch.setattr("tokipona.lexicon.LEMMA_COUNT", 125)
    with pytest.raises(LexiconError, match=r"lemma count 124 != 125"):
        load_lexicon()
    assert len(load_lexicon(p)) == 124


@pytest.mark.parametrize("old, new", [
    ("namako\tNOUN\tsin\t", "namako\tNOUN\txyz\t"),      # names no lexicon word
    ("namako\tNOUN\tsin\t", "namako\tNOUN\tsoweli\t"),   # names a word outside the group
    ("sin\tADJECTIVE\tsin\t", "sin\tADJECTIVE\t-\t"),    # its namesake left the group
])
def test_synonym_group_must_name_a_member(tmp_path, old, new):
    lines = [l.replace(old, new) if l.startswith(old) else l for l in _tsv_lines()]
    p = tmp_path / "lexicon.tsv"
    p.write_text("\n".join(lines) + "\n", "utf-8")
    with pytest.raises(LexiconError, match="is not named after one of its members"):
        load_lexicon(p)


def test_malformed_row_is_loud(tmp_path):
    lines = _tsv_lines()
    lines.append("badrow\tNOUN")
    p = tmp_path / "lexicon.tsv"
    p.write_text("\n".join(lines) + "\n", "utf-8")
    with pytest.raises(LexiconError, match="expected 4 columns"):
        load_lexicon(p)


def test_wrong_tag_count_names_the_histogram(tmp_path):
    lines = [
        l.replace("akesi\tNOUN\t", "akesi\tNOUN,ADJECTIVE\t")
        if l.startswith("akesi\t") else l
        for l in _tsv_lines()
    ]
    p = tmp_path / "lexicon.tsv"
    p.write_text("\n".join(lines) + "\n", "utf-8")
    lex = load_lexicon(p)
    with pytest.raises(LexiconError, match=r"tag incidence for ADJECTIVE: 41 != 40"):
        check_paper_figures(lex)


def test_unknown_tag_is_loud(tmp_path):
    lines = [
        l.replace("akesi\tNOUN\t", "akesi\tGERUND\t")
        if l.startswith("akesi\t") else l
        for l in _tsv_lines()
    ]
    p = tmp_path / "lexicon.tsv"
    p.write_text("\n".join(lines) + "\n", "utf-8")
    with pytest.raises(LexiconError):
        load_lexicon(p)


def test_header_required(tmp_path):
    lines = [l for l in _tsv_lines() if not l.startswith("surface\t")]
    p = tmp_path / "lexicon.tsv"
    p.write_text("\n".join(lines) + "\n", "utf-8")
    with pytest.raises(LexiconError, match="header"):
        load_lexicon(p)


def test_invalid_surface_is_loud(tmp_path):
    lines = [
        l.replace("akesi\t", "akexi\t") if l.startswith("akesi\t") else l
        for l in _tsv_lines()
    ]
    p = tmp_path / "lexicon.tsv"
    p.write_text("\n".join(lines) + "\n", "utf-8")
    with pytest.raises(LexiconError):
        load_lexicon(p)


_AKESI = "akesi\tNOUN\t-\treptile;amphibian;lizard;snake"


@pytest.mark.parametrize("edit, message", [
    (lambda ls: ls + [_AKESI], "duplicate lemmas: ['akesi']"),
    (lambda ls: [_AKESI.replace("NOUN", "NOUN,NOUN") if l == _AKESI else l for l in ls],
     "akesi: duplicate tags"),
    (lambda ls: [l.replace("kepeken\tPREPOSITION", "kepeken\tNOUN,PREPOSITION") for l in ls],
     "sole-preposition set ['lon', 'tan'] != ['kepeken', 'lon', 'tan']"),
    (lambda ls: [l.replace("wile\tPRE", "wile\tVERB") for l in ls],
     "pre-verb set ['awen', 'kama', 'ken', 'lukin', 'sona'] != "
     "['awen', 'kama', 'ken', 'lukin', 'sona', 'wile']"),
    (lambda ls: [_AKESI.replace("NOUN", "NOUN,PREPOSITION") if l == _AKESI else l for l in ls],
     "preposition set ['akesi', 'kepeken', 'lon', 'sama', 'tan', 'tawa'] != "
     "['kepeken', 'lon', 'sama', 'tan', 'tawa']"),
    (lambda ls: [_AKESI.replace("reptile", "|reptile") if l == _AKESI else l for l in ls],
     "empty sense in '|reptile;amphibian;lizard;snake'"),
    (lambda ls: [_AKESI.replace("reptile", "Reptile") if l == _AKESI else l for l in ls],
     "bad gloss 'Reptile'"),
    (lambda ls: [l for l in ls if l.startswith("#")], "empty lexicon file"),
], ids=["duplicate-lemma", "repeated-tag", "sole-prepositions", "pre-verbs",
        "prepositions", "empty-sense", "upper-case-gloss", "empty-file"])
def test_broken_file_is_loud(tmp_path, edit, message):
    p = tmp_path / "lexicon.tsv"
    p.write_text("\n".join(edit(_tsv_lines())) + "\n", "utf-8")
    with pytest.raises(LexiconError, match=f"^{re.escape(message)}$"):
        load_lexicon(p)


def test_broken_lemma_is_loud():
    with pytest.raises(LexiconError, match="^empty sense$"):
        Sense(())
    with pytest.raises(LexiconError, match="^akesi: no tags$"):
        Lexicon([Lemma("akesi", (), (Sense(("lizard",)),))])


@pytest.mark.parametrize("name, value, message", [
    ("DISTINCT_COUNT", 121, "distinct lemma count 120 != 121"),
    ("EXPECTED_CHOSEN_COUNTS", {**EXPECTED_CHOSEN_COUNTS, PosTag.NUMBER: 2},
     "chosen count for NUMBER: 1 != 2"),
    ("CONTENT_COUNT", 108, "content word count 107 != 108"),
])
def test_each_paper_figure_is_checked(lexicon, monkeypatch, name, value, message):
    monkeypatch.setattr(f"tokipona.lexicon.{name}", value)
    with pytest.raises(LexiconError, match=f"^{re.escape(message)}$"):
        check_paper_figures(lexicon)


def test_synonym_groups_are_checked(lexicon, monkeypatch):
    groups = {k: v for k, v in SYNONYM_GROUPS.items() if k != "ale"}
    monkeypatch.setattr("tokipona.lexicon.SYNONYM_GROUPS", groups)
    message = f"synonym groups {lexicon.synonym_groups} != {groups}"
    with pytest.raises(LexiconError, match=f"^{re.escape(message)}$"):
        check_paper_figures(lexicon)
