"""The records outside the parser are named tuples.  Each keeps the repr,
equality, hash and order of the frozen dataclass it was, is read-only, and
runs the checks that dataclass ran, with the same messages, also when
``_make`` or ``_replace`` builds it."""

import re
from dataclasses import make_dataclass
from fractions import Fraction
from itertools import product

import pytest

from tokipona.highlight import HighlightGroup, MergeMode, build_scheme
from tokipona.lexicon import Lemma, LexiconError, PosTag, Sense
from tokipona.phonotactics import CountingMode, Syllable, ValidationResult, syllabify, validate_word
from tokipona.stats import (
    FrequencyRow, LetterRestrict, PositionalFrequencyTable, Scope, SentenceSpaceQuery,
    letter_frequency, syllable_frequency,
)
from tokipona import synth
from tokipona.synth import ParagraphSpec, PoemSpec, SynthConfig
from tokipona.wordnet import (
    CoverageGap, MappingMode, RelationTable, SynsetRef, TPWordnet, WNPos, build_mapping,
    load_wordnet_db, relations,
)

#: Each record with the fields, in order, of the dataclass it was.  Only
#: ``TPWordnet`` was not frozen, and only ``SynsetRef`` ordered.
_OLD_FIELDS = {
    Sense: ("english_lemmas",),
    Lemma: ("surface", "tags", "senses", "synonym_group"),
    Syllable: ("onset", "nucleus", "coda_n"),
    ValidationResult: ("ok", "reason"),
    FrequencyRow: ("item", "count", "percent", "exact"),
    PositionalFrequencyTable: ("scope", "total", "rows"),
    SentenceSpaceQuery: ("n", "v", "o", "p", "with_particles"),
    SynthConfig: ("seed", "phrase_len_weights", "object_count_weights", "prep_probability",
                  "pi_probability", "reuse_bias"),
    ParagraphSpec: ("sentences", "max_words", "max_letters"),
    PoemSpec: ("stanzas", "verses_per_stanza", "phonemes_per_verse"),
    HighlightGroup: ("name", "members", "pattern"),
    SynsetRef: ("pos", "offset"),
    CoverageGap: ("lemma", "gloss"),
    TPWordnet: ("mode", "map", "coverage_gaps"),
    RelationTable: ("hyponym_pairs", "antonym_pairs"),
}

#: The reference dataclasses, made as the records' old decorators made them.
_OLD = {
    record: make_dataclass(record.__name__, fields, frozen=record is not TPWordnet,
                           order=record is SynsetRef)
    for record, fields in _OLD_FIELDS.items()
}


@pytest.fixture(scope="module")
def samples(lexicon, wndb_dir):
    """Several distinct values of each record, equal ones among them."""
    db = load_wordnet_db(wndb_dir)
    mappings = [build_mapping(lexicon, db, mode) for mode in MappingMode]
    tables = [syllable_frequency(lexicon, scope) for scope in Scope]
    tables += [letter_frequency(lexicon, Scope.ALL, restrict) for restrict in LetterRestrict]
    values = [
        *lexicon.entries[:20],
        *(sense for entry in lexicon.entries[:20] for sense in entry.senses),
        *(s for word in ("toki", "pona", "ken", "lon", "sinpin", "mun") for s in syllabify(word)),
        *(validate_word(w, mode) for w in ("toki", "ji", "kinn", "wo") for mode in CountingMode),
        *tables,
        *(row for table in tables for row in table.rows[:8]),
        FrequencyRow("x", 0, 0.0, Fraction(0)),
        *(SentenceSpaceQuery(*q) for q in product((0, 1), (0, 2), (1,), (0, 1), (True, False))),
        SynthConfig(), SynthConfig(), SynthConfig(seed=3), SynthConfig(reuse_bias=1.0),
        ParagraphSpec(1), ParagraphSpec(1), ParagraphSpec(2, 5), ParagraphSpec(2, max_letters=9),
        PoemSpec(1, 2, 3), PoemSpec(1, 2, 3), PoemSpec(3, 2, 1),
        *(group for mode in MergeMode for group in build_scheme(lexicon, mode)),
        *(ref for tpw in mappings for refs in tpw.map.values() for ref in refs),
        *(gap for tpw in mappings for gap in tpw.coverage_gaps[:30]),
        *mappings, build_mapping(lexicon, db, MappingMode.ALL),
        relations(), RelationTable(), RelationTable((("a", "b"),)),
    ]
    by_record = {record: [v for v in values if type(v) is record] for record in _OLD_FIELDS}
    assert all(len(v) >= 2 for v in by_record.values())
    return by_record


def _hash(value):
    try:
        return hash(value)
    except TypeError:  # a dict among the fields, or a dataclass that was not frozen
        return TypeError


@pytest.mark.parametrize("record", _OLD_FIELDS, ids=lambda r: r.__name__)
def test_repr_equality_and_hash_are_the_dataclass_ones(record, samples):
    assert record._fields == _OLD_FIELDS[record]
    values = samples[record]
    old = [_OLD[record](*value) for value in values]
    for value, reference in zip(values, old):
        assert repr(value) == repr(reference)
        assert _hash(value) == _hash(reference)
        assert value == tuple(value) and tuple(value) == tuple(vars(reference).values())
    for (a, old_a), (b, old_b) in product(zip(values, old), repeat=2):
        assert (a == b) == (old_a == old_b)
        assert (a != b) == (old_a != old_b)


def test_synset_refs_sort_as_the_dataclass_did(samples):
    refs = samples[SynsetRef]
    old = [_OLD[SynsetRef](*ref) for ref in refs]
    assert [(ref.pos, ref.offset) for ref in sorted(refs)] == [
        (ref.pos, ref.offset) for ref in sorted(old)
    ]
    assert sorted(refs) == sorted(refs, key=lambda ref: ref.key())  # pos letter, then offset


@pytest.mark.parametrize("record", _OLD_FIELDS, ids=lambda r: r.__name__)
def test_fields_cannot_be_assigned(record, samples):
    value = samples[record][0]
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.extra = 1  # no instance dict


def test_each_config_has_its_own_weights():
    a, b = SynthConfig(), SynthConfig(seed=1)
    assert a.phrase_len_weights == b.phrase_len_weights
    assert a.object_count_weights == b.object_count_weights
    assert a.phrase_len_weights is not b.phrase_len_weights
    assert a.object_count_weights is not b.object_count_weights
    a.phrase_len_weights[1] = 0.0
    assert SynthConfig().phrase_len_weights == {1: 0.5, 2: 0.3, 3: 0.15, 4: 0.05}
    weights = {1: 1.0}
    assert SynthConfig(phrase_len_weights=weights).phrase_len_weights is weights


@pytest.mark.parametrize("make, error, message", [
    (lambda: SentenceSpaceQuery(1, -1, 0, 0), ValueError, "phrase size v must be >= 0"),
    (lambda: SentenceSpaceQuery(0, 0, 0, -2), ValueError, "phrase size p must be >= 0"),
    (lambda: SentenceSpaceQuery(-1, 0, 0, 0), ValueError, "phrase size n must be >= 0"),
    (lambda: SentenceSpaceQuery(0, 0, 0, 0), ValueError, "at least one phrase must be non-empty"),
    (lambda: SentenceSpaceQuery(0, 0, 0, 0, False), ValueError,
     "at least one phrase must be non-empty"),
    (lambda: ParagraphSpec(0), ValueError, "a paragraph needs at least one sentence"),
    (lambda: ParagraphSpec(0, max_words=0), ValueError, "a paragraph needs at least one sentence"),
    (lambda: ParagraphSpec(1, max_letters=0), ValueError, "bounds must be positive"),
    (lambda: PoemSpec(1, 0, 1), ValueError, "poem dimensions must be positive"),
    (lambda: SynthConfig(phrase_len_weights={1: 0.5}), ValueError,
     "phrase_len_weights must sum to 1, got 0.5"),
    (lambda: SynthConfig(phrase_len_weights=None), ValueError, "phrase_len_weights is empty"),
    (lambda: SynthConfig(phrase_len_weights={5: 1.0}, reuse_bias=2.0), ValueError,
     "phrase lengths must lie in 1..4"),
    (lambda: SynthConfig(pi_probability=-0.5, reuse_bias=2.0), ValueError,
     "pi_probability must be in [0, 1]"),
    (lambda: SynthConfig(reuse_bias=2.0), ValueError, "reuse_bias must be in [0, 1]"),
    (lambda: Sense(("Good",)), LexiconError, "bad gloss 'Good'"),
])
def test_checks_run_in_order_with_their_messages(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("make, error, message", [
    (lambda: SentenceSpaceQuery(1, 1, 1, 1)._replace(n=-1), ValueError,
     "phrase size n must be >= 0"),
    (lambda: SentenceSpaceQuery._make((0, 0, 0, 0, True)), ValueError,
     "at least one phrase must be non-empty"),
    (lambda: ParagraphSpec(1)._replace(max_words=0), ValueError, "bounds must be positive"),
    (lambda: ParagraphSpec._make((0, None, None)), ValueError,
     "a paragraph needs at least one sentence"),
    (lambda: PoemSpec(1, 2, 3)._replace(stanzas=0), ValueError, "poem dimensions must be positive"),
    (lambda: PoemSpec._make((0, 0, 0)), ValueError, "poem dimensions must be positive"),
    (lambda: SynthConfig()._replace(reuse_bias=2.0), ValueError, "reuse_bias must be in [0, 1]"),
    (lambda: SynthConfig._make((0, {1: 0.5}, {0: 1.0}, 0.2, 0.1, 0.5)), ValueError,
     "phrase_len_weights must sum to 1, got 0.5"),
    (lambda: Sense(("talk",))._replace(english_lemmas=("Good",)), LexiconError,
     "bad gloss 'Good'"),
    (lambda: Sense._make([()]), LexiconError, "empty sense"),
])
def test_replace_and_make_run_the_checks(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("record", _OLD_FIELDS, ids=lambda r: r.__name__)
def test_replace_and_make_remake_the_record(record, samples):
    for value in samples[record]:
        for remade in (value._replace(), record._make(value)):
            assert type(remade) is record and remade == value


def test_a_remade_config_has_its_own_weights():
    """Remade from the constructor's defaults, a config copies the module's
    weight tables as ``SynthConfig()`` does; ``_replace`` keeps a table it is
    given, as ``dataclasses.replace`` did."""
    defaults = SynthConfig.__new__.__defaults__
    assert defaults[1] is synth._PHRASE_LEN_WEIGHTS
    assert defaults[2] is synth._OBJECT_COUNT_WEIGHTS
    for remade in (SynthConfig._make(defaults),
                   SynthConfig(seed=1)._replace(phrase_len_weights=defaults[1],
                                                object_count_weights=defaults[2])):
        assert remade.phrase_len_weights == defaults[1]
        assert remade.object_count_weights == defaults[2]
        assert remade.phrase_len_weights is not defaults[1]
        assert remade.object_count_weights is not defaults[2]
    weights = {1: 1.0}
    assert SynthConfig()._replace(phrase_len_weights=weights).phrase_len_weights is weights


def test_records_are_tuples():
    syllable = Syllable("t", "o")
    onset, nucleus, coda_n = syllable
    assert (onset, nucleus, coda_n) == ("t", "o", False) == syllable
    assert syllable[1] == "o" and str(syllable) == "to"
    assert SynsetRef(WNPos.NOUN, 5) == ("n", 5) and str(SynsetRef(WNPos.NOUN, 5)) == "n00000005"
    assert not ValidationResult(False, "ji") and ValidationResult(True)
    assert Lemma("toki", (PosTag.VERB,), (Sense(("talk",)),)).synonym_group is None
