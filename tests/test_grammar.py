"""Tokenizer, parser, round-tripping, pi readings, and POS tagging.

The pi-reading enumeration is checked against an independent brute-force
bracket builder over every phrase shape up to eight words and three pi
particles.
"""

import json
import re
import tracemalloc
from dataclasses import dataclass
from itertools import islice
from math import comb
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as hst

from tokipona import grammar
from tokipona.grammar import (
    GrammarError,
    Hybrid,
    LENIENT,
    MAX_NESTING,
    ObjectArg,
    ParseOptions,
    PhraseNode,
    PiGroup,
    PrepPhrase,
    Severity,
    TagValue,
    TERMINATORS,
    Token,
    TokenKind,
    _DICT_TO_TAGVALUE,
    _NON_HEADS,
    detokenize,
    iter_pi_readings,
    parse,
    parse_text,
    pi_reading_count,
    pi_readings,
    pos_tag,
    render_grouping,
    render_record,
    tokenize,
)
from tokipona.lexicon import PREPOSITIONS, PURE_PARTICLES, Lexicon, load_lexicon
from tokipona.phonotactics import validate_proper_noun

HYBRID_NVA = frozenset({TagValue.NOUN, TagValue.VERB, TagValue.ADJECTIVE})
HYBRID = Hybrid(HYBRID_NVA)


# --- tokenizer ---------------------------------------------------------------

def test_tokenize_simple():
    toks = tokenize("mi moku.")
    assert [(t.surface, t.kind) for t in toks] == [
        ("mi", TokenKind.WORD), ("moku", TokenKind.WORD), (".", TokenKind.PUNCT),
    ]
    assert [(t.start, t.end) for t in toks] == [(0, 2), (3, 7), (7, 8)]


def test_tokenize_proper_and_colon():
    toks = tokenize("jan Pije li toki e ni:")
    kinds = {t.surface: t.kind for t in toks}
    assert kinds["Pije"] is TokenKind.PROPER
    assert kinds[":"] is TokenKind.COLON


def test_tokenize_errors_embedded():
    toks = tokenize("mi xyz Xena moku")
    notes = {t.surface: (t.kind, t.note) for t in toks}
    assert notes["xyz"] == (TokenKind.ERROR, "unknown word")
    assert notes["Xena"] == (TokenKind.ERROR, "invalid proper noun")
    assert notes["mi"][0] is TokenKind.WORD


def test_detokenize_spacing():
    assert detokenize(tokenize("toki e ni: mi pona.")) == "toki e ni: mi pona."
    assert detokenize(tokenize("a, a!")) == "a, a!"


def _old_tokenize(text, lex):
    """The tokenizer as it was before ``classify``: every match runs the
    branches, with a lexicon lookup for each lowercase word."""
    tokens = []
    for m in re.finditer(r"[A-Za-z]+|[.!?,:]|\S", text):
        s = m.group()
        start, end = m.span()
        if s == ":":
            tokens.append(Token(s, TokenKind.COLON, start, end))
        elif s in TERMINATORS or s == ",":
            tokens.append(Token(s, TokenKind.PUNCT, start, end))
        elif s.isalpha():
            if s == s.lower():
                if lex.lookup(s):
                    tokens.append(Token(s, TokenKind.WORD, start, end))
                else:
                    tokens.append(Token(s, TokenKind.ERROR, start, end, "unknown word"))
            elif validate_proper_noun(s):
                tokens.append(Token(s, TokenKind.PROPER, start, end))
            else:
                tokens.append(Token(s, TokenKind.ERROR, start, end, "invalid proper noun"))
        else:
            tokens.append(Token(s, TokenKind.ERROR, start, end, "unexpected character"))
    return tokens


_LEX = load_lexicon()
_WORDS = sorted(e.surface for e in _LEX)

#: Text of lexicon words, names, unknown words, punctuation, characters
#: that HTML escapes, digits and non-ASCII letters, with any whitespace (or
#: none) between them.
_mixed_text = hst.lists(
    hst.tuples(
        hst.one_of(
            hst.sampled_from(_WORDS),
            hst.sampled_from(_WORDS).map(str.capitalize),
            hst.text(alphabet="aeijklmnopstuwAKPTXxqé", min_size=1, max_size=6),
            hst.sampled_from(list(".!?,:&<>\"'") + ["0", "42", "é", "Ü", "Üma"]),
        ),
        hst.sampled_from(["", " ", "  ", "\t", "\n", " \n\t"]),
    ),
    max_size=30,
).map(lambda pairs: "".join(piece + gap for piece, gap in pairs))


def _fields(tokens):
    return [(t.surface, t.kind, t.start, t.end, t.note) for t in tokens]


@given(_mixed_text)
@settings(max_examples=500, deadline=None)
def test_tokenize_matches_the_old_tokenizer(text):
    assert _fields(tokenize(text, _LEX)) == _fields(_old_tokenize(text, _LEX))


@dataclass(frozen=True, slots=True)
class _OldToken:
    """The frozen dataclass that ``Token`` was, kept to compare ``repr``."""

    surface: str
    kind: TokenKind
    start: int
    end: int
    note: Optional[str] = None


_OldToken.__qualname__ = "Token"  # the name its repr printed


@given(_mixed_text)
@settings(max_examples=300, deadline=None)
def test_tokens_are_equal_and_hashed_by_value(text):
    first, second = tokenize(text, _LEX), tokenize(text, _LEX)
    assert first == second
    for a, b in zip(first, second):
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert repr(a) == repr(_OldToken(*_fields([a])[0]))
        assert str(a) == a.surface


def test_token_fields_each_decide_equality():
    tok = Token("moku", TokenKind.WORD, 3, 7)
    assert tok == Token("moku", TokenKind.WORD, 3, 7, None)
    for other in (
        Token("soweli", TokenKind.WORD, 3, 7),
        Token("moku", TokenKind.ERROR, 3, 7),
        Token("moku", TokenKind.WORD, 4, 7),
        Token("moku", TokenKind.WORD, 3, 8),
        Token("moku", TokenKind.WORD, 3, 7, "unknown word"),
    ):
        assert tok != other and not tok == other
    assert (tok == tok.surface) is False
    assert tok != ("moku", TokenKind.WORD, 3, 7, None)
    assert repr(tok) == "Token(surface='moku', kind=<TokenKind.WORD: 'word'>, start=3, end=7, note=None)"
    assert str(tok) == "moku"
    with pytest.raises(AttributeError):
        tok.foo = 1


def _bundled_lexicon_text():
    from importlib import resources
    return resources.files("tokipona").joinpath("data/lexicon.tsv").read_text("utf-8")


def test_tokenize_answers_under_the_lexicon_it_is_given(tmp_path):
    """A word in only one of two lexicons is WORD under that one and ERROR
    under the other, whichever lexicon tokenizes first."""
    lines = [
        l for l in _bundled_lexicon_text().splitlines()
        if not l.startswith(("akesi\t", "alasa\t"))
    ]
    lines.append("kijetesantakalu\tNOUN\t-\traccoon")
    p = tmp_path / "small.tsv"
    p.write_text("\n".join(lines) + "\n", "utf-8")
    small = load_lexicon(p)
    assert len(small) < len(_LEX)

    text = "akesi li kijetesantakalu. akesi kijetesantakalu"
    cases = [(_LEX, "akesi", "kijetesantakalu"), (small, "kijetesantakalu", "akesi")]
    for first, second in (cases, cases[::-1]):
        for lex, known, unknown in (first, second, first, second):
            kinds = {t.surface: (t.kind, t.note) for t in tokenize(text, lex)}
            assert kinds[known] == (TokenKind.WORD, None)
            assert kinds[unknown] == (TokenKind.ERROR, "unknown word")
            assert kinds["li"] == (TokenKind.WORD, None)


# --- parser: structure ----------------------------------------------------------

def test_parse_simple_clause():
    clause = parse_text("ona li pona.").clauses[0]
    assert clause.subject.head.surface == "ona"
    assert len(clause.predicates) == 1
    assert clause.predicates[0].phrase.head.surface == "pona"
    assert not clause.li_elided


def test_parse_elided_li_with_objects():
    clause = parse_text("mi wile e moku e telo.").clauses[0]
    assert clause.subject.head.surface == "mi"
    assert clause.li_elided
    pred = clause.predicates[0]
    assert pred.phrase.head.surface == "wile"
    assert [o.head.surface for o in pred.objects] == ["moku", "telo"]


def test_parse_la_context_and_question():
    clause = parse_text("tan seme la sina pana e sike?").clauses[0]
    assert len(clause.contexts) == 1
    ctx = clause.contexts[0]
    assert [t.surface for t in ctx.tokens()][:2] == ["tan", "seme"]
    assert clause.subject.head.surface == "sina"
    assert clause.predicates[0].phrase.head.surface == "pana"
    assert [o.head.surface for o in clause.predicates[0].objects] == ["sike"]
    assert clause.question_focus is not None
    assert clause.question_focus.surface == "seme"


def test_parse_multiple_la_right_associative():
    clause = parse_text("ken la moku la mi pona.").clauses[0]
    assert [c.contexts for c in clause.contexts] == [[], []]
    heads = [c.predicates[0].phrase.head.surface for c in clause.contexts]
    assert heads == ["ken", "moku"]
    assert clause.subject.head.surface == "mi"


def _preps(pred):
    """The prepositional phrases among a predicate's complements."""
    return [c for c in pred.complements if isinstance(c, PrepPhrase)]


def _prepositional(clause):
    """(preposition, complement) of every prepositional phrase of a clause, in
    reading order: the vocative's, the subject's, then each predicate's."""
    pps = (clause.vocative.complements if clause.vocative else []) + clause.subject_complements
    pps += [pp for pred in clause.predicates for pp in _preps(pred)]
    return [(pp.prep, pp.complement) for pp in pps]


def test_parse_preposition_opens_phrase():
    clause = parse_text("jan kala li lape lon ni.").clauses[0]
    pred = clause.predicates[0]
    assert pred.phrase.head.surface == "lape"
    preps = _preps(pred)
    assert len(preps) == 1
    assert preps[0].prep.surface == "lon"
    assert preps[0].complement.head.surface == "ni"
    # clause-level view flattens them
    assert [(p.surface, c.head.surface) for p, c in _prepositional(clause)] == [("lon", "ni")]


def test_parse_preposition_interleaved_with_object():
    clause = parse_text("mi pana tawa kon e ilo pi suli mute.").clauses[0]
    pred = clause.predicates[0]
    kinds = [type(c).__name__ for c in pred.complements]
    assert kinds == ["PrepPhrase", "ObjectArg"]
    obj = pred.objects[0]
    assert obj.head.surface == "ilo"
    assert isinstance(obj.modifiers[0], PiGroup)
    assert obj.modifiers[0].inner.head.surface == "suli"


def test_parse_preverb_chain():
    clause = parse_text("mi wile pali e sitelen lon toki pona.").clauses[0]
    pred = clause.predicates[0]
    assert [t.surface for t in pred.preverbs] == ["wile"]
    assert pred.phrase.head.surface == "pali"
    notes = [d for d in parse_text("mi wile pali e ni.").diagnostics]
    assert any("pre-verb" in d.message for d in notes)


def test_parse_repeated_li():
    clause = parse_text("ona li toki li moku li lape.").clauses[0]
    assert len(clause.predicates) == 3
    assert [p.marker.surface for p in clause.predicates] == ["li", "li", "li"]


def test_parse_vocative_and_imperative():
    clause = parse_text("jan sona o toki!").clauses[0]
    assert clause.vocative.phrase.head.surface == "jan"
    assert clause.predicates[0].phrase.head.surface == "toki"
    only_voc = parse_text("ante la toki pona o.").clauses[0]
    assert only_voc.vocative is not None
    assert not only_voc.predicates

    imp = parse_text("o moku e telo!").clauses[0]
    assert imp.vocative is None
    assert imp.predicates[0].marker.surface == "o"

    result = parse_text("jan o, moku!")
    (comma_voc,) = result.clauses
    assert result.text() == "jan o, moku!"
    assert comma_voc.vocative.comma.surface == ","
    assert pos_tag(comma_voc)[comma_voc.vocative.comma] is TagValue.PUNCT
    assert comma_voc.predicates[0].phrase.head.surface == "moku"


def test_interjection_after_a_lone_comma():
    """The trailing ``a`` leaves nothing before it but a comma."""
    result = parse_text(", a.")
    (clause,) = result.clauses
    assert [t.surface for t in clause.tail] == [",", "a"]
    assert [d.message for d in result.diagnostics] == ["interjection-only sentence"]
    assert result.text() == ", a."
    assert list(pos_tag(clause).values()) == [TagValue.PUNCT, TagValue.PARTICLE, TagValue.PUNCT]
    # With interjections before the comma, these raise; whether they should
    # is open (ROADMAP item 8).
    with pytest.raises(GrammarError) as err:
        parse_text("a, a.")
    assert str(err.value) == "expected a content word to head a phrase (at 'a', 0..1)"
    with pytest.raises(GrammarError) as err:
        parse_text("mu mu, a.")
    assert str(err.value) == "unparsed trailing material (at 'mu', 3..5)"


# The next three tests pin today's reading of cases the paper's rules leave
# open (ROADMAP item 8); if the parser decides them otherwise, they change too.

def test_both_interjections_make_an_interjection_only_sentence():
    result = parse_text("a mu!")
    (clause,) = result.clauses
    assert clause.predicates == []
    assert [t.surface for t in clause.tail] == ["a", "mu"]
    assert [d.message for d in result.diagnostics] == ["interjection-only sentence"]
    assert list(pos_tag(clause).values()) == [TagValue.PARTICLE, TagValue.PARTICLE, TagValue.PUNCT]


@pytest.mark.parametrize("text", ["mi.", "sina."])
def test_a_lone_li_less_subject_is_a_fragment(text):
    """A lone ``mi`` or ``sina`` is a predicate with no subject, not a
    subject whose li is elided."""
    word = text[:-1]
    result = parse_text(text)
    (clause,) = result.clauses
    record = clause.to_dict()
    assert record["subject"] is None and record["li_elided"] is False
    (predicate,) = record["predicates"]
    assert (predicate["phrase"]["head"], predicate["phrase"]["role"]) == (word, "verb")
    assert [(d.severity, d.message, d.start, d.end) for d in result.diagnostics] == [
        (Severity.NOTE, "incomplete sentence (no subject/predicate structure)", 0, len(word))
    ]
    assert list(pos_tag(clause).values()) == [TagValue.NOUN, TagValue.PUNCT]


def test_anu_in_a_predicate_is_warned_unless_extended():
    text = "mi moku anu pali."
    assert [(d.severity, d.message, d.start, d.end) for d in parse_text(text).diagnostics] == [
        (Severity.WARNING, "anu outside its canonical slots", 8, 11)
    ]
    assert parse_text(text, ParseOptions(extended_en_anu=True)).diagnostics == []


def test_parse_en_subject_coordination():
    clause = parse_text("mi en sina li moku.").clauses[0]
    assert clause.subject.head.surface == "mi"
    assert [(c.surface, p.head.surface) for c, p in clause.subject.conj] == [("en", "sina")]
    assert not clause.li_elided
    assert render_grouping(clause.subject) == "mi en sina"
    nested = parse_text("jan pi kulupu suli en soweli anu kala li moku.").clauses[0]
    assert render_grouping(nested.subject) == "jan [kulupu suli en soweli anu kala]"


def test_parse_anu_in_object():
    result = parse_text("mi wile e telo anu moku.")
    clause = result.clauses[0]
    obj = clause.predicates[0].objects[0]
    assert obj.head.surface == "telo"
    assert obj.conj[0][1].head.surface == "moku"
    assert render_grouping(obj) == "telo anu moku"
    assert not result.problems()  # anu is canonical in any noun slot


def test_extended_en_warns_without_flag():
    strict = parse_text("ona li pona tawa jan mute en toki.")
    assert any(
        d.severity is Severity.WARNING and "en" in d.message for d in strict.diagnostics
    )
    lenient = parse_text("ona li pona tawa jan mute en toki.", LENIENT)
    assert not lenient.problems()


def test_lenient_li_flag():
    strict = parse_text("sina li wawa.")
    assert any(d.severity is Severity.WARNING for d in strict.diagnostics)
    lenient = parse_text("sina li wawa.", ParseOptions(lenient_li=True))
    assert not lenient.problems()


def test_colon_shorthand_flag():
    with_flag = parse_text("mi toki:", ParseOptions(colon_shorthand=True))
    assert with_flag.clauses[0].predicates[0].colon_object
    assert not with_flag.problems()
    without = parse_text("mi toki:")
    assert any(d.severity is Severity.WARNING for d in without.diagnostics)
    # "e ni:" needs no shorthand
    plain = parse_text("mi toki e ni:")
    assert not plain.problems()


def test_pije_pi_possession_flag():
    ok = parse_text("soweli li pi sina.", ParseOptions(pije_pi_possession=True))
    pred = ok.clauses[0].predicates[0]
    assert pred.possessive_pi is not None
    assert pred.phrase.head.surface == "sina"
    with pytest.raises(GrammarError):
        parse_text("soweli li pi sina.")


def test_hard_errors():
    with pytest.raises(GrammarError):
        parse_text("e moku.")  # e before any predicate
    with pytest.raises(GrammarError):
        parse_text("jan pi.")  # dangling pi
    with pytest.raises(GrammarError):
        parse_text("mi xyz.")  # unknown word
    with pytest.raises(GrammarError):
        parse_text("la mi moku.")  # empty context
    with pytest.raises(GrammarError):
        parse_text("mi moku la")  # la without a main clause


def test_incomplete_sentences_note_not_error():
    result = parse_text("sitelen sona, sitelen musi.")
    clause = result.clauses[0]
    assert clause.subject is None
    assert [p.phrase.head.surface for p in clause.predicates] == ["sitelen", "sitelen"]
    assert not result.problems()
    assert any(d.severity is Severity.NOTE for d in result.diagnostics)


def test_pure_particles_never_head_phrases(corpus_lines):
    never_heads = {"li", "e", "la", "pi", "a", "o", "anu", "en"}
    for line in corpus_lines:
        for clause in parse_text(line, LENIENT).clauses:
            def check_phrase(p):
                assert p.head.surface not in never_heads
                for m in p.modifiers:
                    if isinstance(m, PiGroup):
                        check_phrase(m.inner)
                    else:
                        assert m.surface not in never_heads
                for _, ph in p.conj:
                    check_phrase(ph)
            for pred in clause.predicates:
                check_phrase(pred.phrase)
                for comp in pred.complements:
                    if getattr(comp, "phrase", None) is not None:
                        check_phrase(comp.phrase)
                    elif getattr(comp, "complement", None) is not None:
                        check_phrase(comp.complement)
            if clause.subject:
                check_phrase(clause.subject)


# --- parser: surfaces ----------------------------------------------------------

DOCUMENT = Path(__file__).parent.parent / "perfbench" / "data" / "document.txt"
#: Names spelled like particles: the parser must read each as a name.
PARTICLE_NAMES = ("Li", "E", "Pi", "La", "O", "En", "Anu", "Seme", "Mu", "A")


def _ref_is_word(tok, surface):
    """Reference for the surface rules: a lexicon word told by its token kind."""
    return tok is not None and tok.kind is TokenKind.WORD and tok.surface == surface


def _ref_can_head(tok):
    if tok is None:
        return False
    if tok.kind is TokenKind.PROPER:
        return True
    return tok.kind is TokenKind.WORD and (
        tok.surface in ("seme", "mu") or tok.surface not in PURE_PARTICLES
    )


def test_surfaces_decide_as_token_kinds_did(corpus_lines, lexicon):
    """Every token that can reach a clause body, from the corpus, the benchmark
    document and the particle-shaped names, gets the same answer from its
    surface as from its kind.  Each name tokenizes as a name, not an error."""
    texts = corpus_lines + [DOCUMENT.read_text("utf-8"), " ".join(PARTICLE_NAMES) + ", Mali."]
    body = {
        (t.surface, t.kind): t
        for text in texts for t in tokenize(text)
        if t.surface not in TERMINATORS and t.surface != ":"
    }
    assert {kind for _, kind in body} == {TokenKind.WORD, TokenKind.PROPER, TokenKind.PUNCT}
    for tok in body.values():
        assert (tok.surface not in _NON_HEADS) == _ref_can_head(tok), tok
        assert (tok.surface == ",") == (tok.kind is TokenKind.PUNCT), tok
        assert tok.surface[0].isupper() == (tok.kind is TokenKind.PROPER), tok
        for entry in lexicon:
            assert (tok.surface == entry.surface) == _ref_is_word(tok, entry.surface), tok
    assert None in _NON_HEADS and not _ref_can_head(None)


@pytest.mark.parametrize("name", PARTICLE_NAMES)
@pytest.mark.parametrize("text", ["X li moku.", "jan X li moku e X.", "mi moku lon X."])
def test_particle_shaped_name_parses_as_a_name(name, text):
    """A name spelled like a particle parses as "Mali" does, with only the surface swapped."""
    def parsed(n):
        result = parse_text(text.replace("X", n))
        records = json.dumps([c.to_dict() for c in result.clauses])
        tags = {t.surface: tag for c in result.clauses for t, tag in pos_tag(c).items()}
        return records, [(d.severity, d.message) for d in result.diagnostics], tags
    records, diags, tags = parsed(name)
    mali_records, mali_diags, _ = parsed("Mali")
    assert records == mali_records.replace('"Mali"', json.dumps(name))
    assert diags == mali_diags
    assert tags[name] is TagValue.PROPER


# --- round trip ------------------------------------------------------------

def test_corpus_roundtrip(corpus_lines):
    for line in corpus_lines:
        result = parse_text(line, LENIENT)
        assert [t.surface for t in result.tokens()] == [
            t.surface for t in tokenize(line)
        ], line
        assert result.text() == line


def test_corpus_no_problems_lenient(corpus_lines):
    for line in corpus_lines:
        result = parse_text(line, LENIENT)
        assert result.problems() == [], (line, [str(d) for d in result.problems()])


@pytest.mark.parametrize(
    "text", ["toki li pona!!", "mi moku?!", ". mi moku.", "mi moku. . sina pona."]
)
def test_empty_sentence_keeps_terminator(text):
    result = parse_text(text, LENIENT)
    assert result.text() == detokenize(tokenize(text))
    assert any(d.message == "empty sentence" for d in result.diagnostics)
    (empty,) = [c for c in result.clauses if list(c.tokens()) == [c.terminator]]
    assert pos_tag(empty) == {empty.terminator: TagValue.PUNCT}


_WORDS = sorted(e.surface for e in load_lexicon())
#: The words a phrase is made of: no particle and no word that is only a
#: preposition (``sama`` and ``tawa`` stay, and read as prepositions).
_CONTENT = sorted(e.surface for e in load_lexicon().content_words())
#: The particles, prepositions and punctuation that give a sentence its shape.
_SHAPERS = ["li", "e", "pi", "la", "o", "en", "anu", *sorted(PREPOSITIONS), ",", ":"]
#: A shaper, or a particle-shaped name or the unknown word "xq", as often as any
#: other lexicon word.
_fuzz_word = hst.one_of(
    hst.sampled_from(_WORDS), hst.sampled_from(_SHAPERS), hst.sampled_from([*PARTICLE_NAMES, "xq"])
)
#: Random text: words, names, an unknown word and punctuation in any order.
_token_soup = hst.lists(
    hst.one_of(_fuzz_word, hst.sampled_from(list(".!?"))), max_size=20
).map(" ".join)
_fuzz_phrase = hst.lists(hst.sampled_from(_CONTENT), min_size=1, max_size=3)
#: An object or prepositional phrase, led by a comma or not.
_fuzz_complement = hst.tuples(
    hst.sampled_from([[], [","]]), hst.sampled_from(["e", *sorted(PREPOSITIONS)]), _fuzz_phrase
).map(lambda c: [*c[0], c[1], *c[2]])
_fuzz_sentence = hst.tuples(
    _fuzz_phrase,
    hst.sampled_from([[], ["li"], ["o"], ["o", ","]]),
    _fuzz_phrase,
    hst.lists(_fuzz_complement, max_size=3),
    hst.sampled_from(list(".!?:")),
).map(lambda s: [*s[0], *s[1], *s[2], *(w for c in s[3] for w in c), s[4]])
#: Sentences shaped as subject or vocative, li, o, o and a comma, or neither,
#: predicate and complements, with every phrase of content words.
_sentences = hst.lists(_fuzz_sentence, min_size=1, max_size=3).map(
    lambda ss: " ".join(w for s in ss for w in s)
)


def _assert_roundtrips_and_tags_each_token_once(tokens, result):
    assert result.text() == detokenize(tokens)
    for clause in result.clauses:
        toks = list(clause.tokens())
        assert len(set(toks)) == len(toks)
        assert list(pos_tag(clause)) == toks  # in reading order, as `tag` prints them


@given(_token_soup)
@settings(max_examples=400, deadline=None)
def test_parse_roundtrips_and_tags_each_token_once(text):
    """Only GrammarError escapes; a parse gives back its tokens, each tagged once."""
    tokens = tokenize(text)
    try:
        result = parse(tokens, LENIENT)
    except GrammarError:
        return
    _assert_roundtrips_and_tags_each_token_once(tokens, result)


@given(_sentences)
@settings(max_examples=400, deadline=None)
def test_sentence_shaped_text_parses_roundtrips_and_tags_each_token_once(text):
    """Well-shaped sentences of content words always parse."""
    tokens = tokenize(text)
    _assert_roundtrips_and_tags_each_token_once(tokens, parse(tokens, LENIENT))


def test_vocative_takes_prepositional_phrases_like_a_subject():
    """``jan lon tomo o kama`` addresses the person in the house."""
    (clause,) = parse_text("jan lon tomo o kama.").clauses
    assert clause.vocative.phrase.head.surface == "jan"
    ((prep, complement),) = _prepositional(clause)
    assert (prep.surface, complement.head.surface) == ("lon", "tomo")
    assert clause.to_dict()["vocative_preps"] == [{
        "prep": "lon",
        "complement": {"head": "tomo", "role": "noun", "modifiers": [], "conj": []},
    }]
    assert clause.pretty().splitlines()[:3] == [
        "vocative: jan", "prep: lon", "    complement: tomo",
    ]
    assert "vocative_preps" not in parse_text("jan o kama.").clauses[0].to_dict()


def test_record_keeps_possessive_pi_and_colon_object():
    """``li pi X`` and a colon read as ``e ni:`` reach the record and its
    text tree, each under a key that only such a predicate has."""
    for marked, plain, key, line in (
        ("ni li pi mi.", "ni li mi.", "possessive_pi", "    possessive: pi"),
        ("mi wile:", "mi wile.", "colon_object", "    object: (the colon, for e ni)"),
    ):
        (clause,), (other,) = (parse_text(t, LENIENT).clauses for t in (marked, plain))
        record = clause.to_dict()
        assert record["predicates"][0][key] is True
        assert key not in other.to_dict()["predicates"][0]
        assert line in clause.pretty().splitlines()
        assert clause.pretty() != other.pretty()
        assert render_record(json.loads(json.dumps(record))) == clause.pretty()
    # Strict options warn about the colon and do not read it as an object.
    (strict,) = parse_text("mi wile:").clauses
    assert "colon_object" not in strict.to_dict()["predicates"][0]


#: Chains of groups that each nest one phrase deeper, in three slots.
_CHAIN_UNITS = (" pi ma suli", " en jan", " anu jan")
_CHAIN_SLOTS = ("jan{} li moku.", "mi moku e jan{}.", "mi moku lon jan{}.")


@pytest.mark.parametrize("unit", _CHAIN_UNITS)
@pytest.mark.parametrize("slot", _CHAIN_SLOTS)
def test_nesting_limit(unit, slot):
    """At the limit a chain parses, serializes, renders and tags; one group
    more is a GrammarError at the group's own particle."""
    (clause,) = parse_text(slot.format(unit * MAX_NESTING), LENIENT).clauses
    record = json.loads(json.dumps(clause.to_dict()))
    assert render_record(record) == clause.pretty()
    assert list(pos_tag(clause)) == list(clause.tokens())
    pred = clause.predicates[0]
    phrases = [clause.subject, *pred.objects, *(pp.complement for pp in _preps(pred))]
    # Each group renders as two items: "[ma suli]", "en jan" or "anu jan".
    assert max(len(render_grouping(p).split()) for p in phrases) == 1 + 2 * MAX_NESTING
    with pytest.raises(GrammarError, match=f"^phrases nest more than {MAX_NESTING} deep") as exc:
        parse_text(slot.format(unit * (MAX_NESTING + 1)), LENIENT)
    assert exc.value.token.surface == unit.split()[0]


@given(
    hst.sampled_from(_CHAIN_UNITS),
    hst.sampled_from(_CHAIN_SLOTS),
    hst.integers(0, 3000),
    hst.sampled_from([ParseOptions(), LENIENT]),
)
@settings(max_examples=60, deadline=None)
def test_deep_chains_parse_or_raise_grammar_error(unit, slot, groups, opts):
    """Only GrammarError escapes however long the chain, and only past the limit."""
    text = slot.format(unit * groups)
    try:
        result = parse_text(text, opts)
    except GrammarError:
        assert groups > MAX_NESTING
        return
    assert groups <= MAX_NESTING
    _assert_roundtrips_and_tags_each_token_once(tokenize(text), result)
    for clause in result.clauses:
        assert clause.pretty()


def test_tree_serializations(corpus_lines):
    """The indented text form is the JSON record rendered: it needs nothing
    beyond what one JSON line carries."""
    import json
    cases = [(line, opts) for line in corpus_lines for opts in (ParseOptions(), LENIENT)]
    for text, opts in cases + [("jan lon tomo o kama.", ParseOptions())]:
        for clause in parse_text(text, opts).clauses:
            text_form = clause.pretty()
            assert text_form
            assert render_record(json.loads(json.dumps(clause.to_dict()))) == text_form


# --- pi readings ------------------------------------------------------------

def brute_force_groupings(words: list[str]) -> set[str]:
    """Enumerate bracketings directly: each pi opens a group, and any
    number of open groups may close before a later pi."""
    segments: list[list[str]] = [[]]
    for w in words:
        if w == "pi":
            segments.append([])
        else:
            segments[-1].append(w)
    base, groups = segments[0], segments[1:]
    results: set[str] = set()

    def rec(i: int, depth: int, text: str):
        if i == len(groups):
            results.add(text + "]" * depth)
            return
        for closes in range(depth + 1):
            rec(
                i + 1,
                depth - closes + 1,
                text + "]" * closes + " [" + " ".join(groups[i]),
            )

    rec(0, 0, " ".join(base))
    return results


def _shapes(max_tokens=9, max_groups=3):
    # (base_len, group_lens...) with the pi tokens counted in the budget
    shapes = []
    def rec(prefix, used):
        if len(prefix) > 1:
            shapes.append(tuple(prefix))
        if len(prefix) - 1 >= max_groups:
            return
        for g in range(1, max_tokens - used):
            rec(prefix + [g], used + g + 1)
    for base in range(1, max_tokens + 1):
        rec([base], base)
        shapes.append((base,))
    return shapes


def test_pi_readings_match_brute_force():
    for shape in _shapes():
        words = []
        n = 0
        for i, seg_len in enumerate(shape):
            if i:
                words.append("pi")
            for _ in range(seg_len):
                words.append(f"w{n}")
                n += 1
        got = {render_grouping(r) for r in pi_readings(words)}
        want = brute_force_groupings(words)
        assert got == want, words
        assert len(pi_readings(words)) == len(want)


def test_pi_reading_counts():
    assert len(pi_readings(["jan", "pi", "toki", "pona"])) == 1
    assert len(pi_readings(["w1", "pi", "w2", "w3"])) == 1
    two_pi = pi_readings(["w1", "pi", "w2", "w3", "w4", "pi", "w5", "w6"])
    assert len(two_pi) == 2
    rendered = {render_grouping(r) for r in two_pi}
    assert rendered == {"w1 [w2 w3 w4] [w5 w6]", "w1 [w2 w3 w4 [w5 w6]]"}
    # leftmost (outermost) grouping comes first
    assert render_grouping(two_pi[0]) == "w1 [w2 w3 w4] [w5 w6]"
    three_pi = pi_readings("a pi b c pi d e pi f g".split())
    assert len(three_pi) == 5


def test_pi_readings_simple_structure():
    (reading,) = pi_readings(["jan", "pi", "toki", "pona"])
    assert reading.head.surface == "jan"
    group = reading.modifiers[0]
    assert isinstance(group, PiGroup)
    assert group.inner.head.surface == "toki"
    assert group.inner.modifiers[0].surface == "pona"


def test_pi_readings_errors():
    with pytest.raises(GrammarError):
        pi_readings(["pi", "toki", "pona"])
    with pytest.raises(GrammarError, match="dangling pi at phrase end"):
        pi_readings(["jan", "pi"])
    with pytest.raises(GrammarError, match="dangling pi at phrase end"):
        pi_readings(["jan", "pi", "toki", "pi"])
    with pytest.raises(GrammarError):
        pi_readings([])


def test_pi_readings_rejects_non_words():
    with pytest.raises(GrammarError, match=r"not a word: punct token \(at '\.', 11\.\.12\)"):
        pi_readings(tokenize("jan pi toki. xq"))
    with pytest.raises(GrammarError, match=r"not a word: error token \(at 'xq'"):
        pi_readings(tokenize("jan pi toki xq"))
    with pytest.raises(GrammarError, match=r"not a single word: 'toki pona'"):
        pi_readings(["jan", "pi", "toki pona", ""])
    with pytest.raises(GrammarError, match=r"not a single word: ''"):
        pi_readings(["jan", "pi", "toki", ""])
    assert [render_grouping(r) for r in pi_readings(tokenize("jan pi Pije"))] == ["jan [Pije]"]


def test_pi_readings_empty_interior_group():
    with pytest.raises(GrammarError, match="pi group has no words before the next pi") as err:
        pi_readings(["jan", "pi", "pi", "x"])
    assert err.value.token.start == 4
    toks = tokenize("jan pi toki pi pi")
    with pytest.raises(GrammarError, match="pi group has no words before the next pi") as err:
        pi_readings(toks)
    assert err.value.token is toks[3]


def test_pi_readings_offsets_continue_after_tokens():
    (reading,) = pi_readings(tokenize("jan pi") + ["toki", "pona"])
    assert [(t.surface, t.start, t.end) for t in reading.tokens()] == [
        ("jan", 0, 3), ("pi", 4, 6), ("toki", 7, 11), ("pona", 12, 16),
    ]


#: Every phrase ``pi_readings`` refuses, with the message it gives.
PI_ERRORS = [
    (["pi", "toki", "pona"], "pi in initial position"),
    (["jan", "pi"], "dangling pi at phrase end"),
    (["jan", "pi", "toki", "pi"], "dangling pi at phrase end"),
    ([], "empty phrase"),
    (["jan", "pi", "pi", "x"], "pi group has no words before the next pi"),
    (tokenize("jan pi toki pi pi"), "pi group has no words before the next pi"),
    (tokenize("jan pi toki. xq"), r"not a word: punct token \(at '\.', 11\.\.12\)"),
    (tokenize("jan pi toki xq"), r"not a word: error token \(at 'xq'"),
    (["jan", "pi", "toki pona", ""], r"not a single word: 'toki pona'"),
    (["jan", "pi", "toki", ""], r"not a single word: ''"),
]


@pytest.mark.parametrize("items, message", PI_ERRORS)
def test_pi_errors_raise_at_the_call(items, message):
    # The generator checks the phrase before it is returned, and the count
    # checks it like the list.
    for call in (pi_readings, iter_pi_readings, pi_reading_count):
        with pytest.raises(GrammarError, match=message):
            call(items)


def _phrase(k):
    words = ["w0", "w1"]
    for i in range(k):
        words += ["pi", f"a{i}", f"b{i}"]
    return words


def test_pi_reading_count_is_the_catalan_number():
    # The Catalan numbers by their own recurrence, C(n + 1) = sum C(i) C(n - i).
    catalan = [1]
    for n in range(200):
        catalan.append(sum(catalan[i] * catalan[n - i] for i in range(n + 1)))
    for k in range(201):
        assert pi_reading_count(_phrase(k)) == catalan[k]
    assert pi_reading_count(["jan"]) == 1


def test_pi_readings_of_a_long_phrase_are_made_one_at_a_time():
    first, second, *rest = islice(iter_pi_readings(_phrase(3000)), 5)
    assert len(rest) == 3
    # the first reading attaches every group to the root
    assert first.head.surface == "w0" and first.modifiers[0].surface == "w1"
    groups = first.modifiers[1:]
    assert [g.inner.head.surface for g in groups] == [f"a{i}" for i in range(3000)]
    assert all([m.surface for m in g.inner.modifiers] == [f"b{i}"] for i, g in enumerate(groups))
    # the next one moves the last group into the one before
    assert second.modifiers[:-1] == first.modifiers[:-2]
    inner = second.modifiers[-1].inner
    assert render_grouping(inner) == "a2998 b2998 [a2999 b2999]"


def test_pi_readings_memory_does_not_grow_with_the_reading_count():
    # Catalan(200) readings could never all be held; the first 100 take
    # about 0.6 MB on CPython 3.11.
    phrase = _phrase(200)
    tracemalloc.start()
    try:
        readings = list(islice(iter_pi_readings(phrase), 100))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(readings) == 100
    assert peak < 2_000_000


def _nodes(phrase, out):
    out.append(phrase)
    out.append(phrase.conj)
    for m in phrase.modifiers:
        if isinstance(m, PiGroup):
            out.append(m)
            _nodes(m.inner, out)
    for _, ph in phrase.conj:
        _nodes(ph, out)
    return out


def test_pi_readings_of_two_calls_share_nothing():
    words = _phrase(5)
    first, second = pi_readings(words), pi_readings(words)
    assert first == second
    ids = [{id(x) for r in readings for x in _nodes(r, [])} for readings in (first, second)]
    assert not ids[0] & ids[1]


def test_pi_readings_make_each_distinct_subtree_once():
    # A group's distinct subtrees are its words over each run of later
    # subtrees, a forest of d groups in C(d) ways, so k groups have
    # S(k) = sum over d < k of (k - d) C(d) of them in all.  Each reading
    # adds only its root; the stream, which copies, holds 35,082 groups at 10.
    def catalan(n):
        return comb(2 * n, n) // (n + 1)

    for k in range(11):
        readings = pi_readings(_phrase(k))
        distinct = {id(x): x for r in readings for x in _nodes(r, [])}.values()
        subtrees = sum((k - d) * catalan(d) for d in range(k))
        assert sum(isinstance(x, PiGroup) for x in distinct) == subtrees
        assert sum(isinstance(x, PhraseNode) for x in distinct) == catalan(k) + subtrees
    assert subtrees == 9_901


def _level_vector_readings(toks):
    """The readings as the level-vector builder made them: every reading
    built from scratch, in lexicographic order of its attachment levels."""
    segments, pi_tokens = [[]], []
    for tok in toks:
        if tok.surface == "pi":
            pi_tokens.append(tok)
            segments.append([])
        else:
            segments[-1].append(tok)
    base, groups = segments[0], segments[1:]

    def build(levels):
        def make(seg):
            return PhraseNode(head=seg[0], modifiers=list(seg[1:]))

        root = make(base)
        stack = [root]
        for k, g in enumerate(groups):
            del stack[levels[k] + 1:]
            inner = make(g)
            stack[levels[k]].modifiers.append(PiGroup(pi_tokens[k], inner))
            stack.append(inner)
        return root

    def level_vectors(prefix):
        if len(prefix) == len(groups):
            yield prefix
            return
        ceiling = prefix[-1] + 1 if prefix else 0
        for lvl in range(ceiling + 1):
            yield from level_vectors(prefix + (lvl,))

    return [build(v) for v in level_vectors(())]


def _check_against_level_vectors(items):
    readings = pi_readings(items)
    toks = list(readings[0].tokens())
    want = _level_vector_readings(toks)
    assert [render_grouping(r) for r in readings] == [render_grouping(r) for r in want]
    assert readings == want
    assert list(iter_pi_readings(items)) == want
    k = sum(t.surface == "pi" for t in toks)
    assert len(readings) == comb(2 * k, k) // (k + 1) == pi_reading_count(items)
    for r in readings:
        got = list(r.tokens())
        assert len(got) == len(toks) and all(a is b for a, b in zip(got, toks))
    return toks


def test_pi_readings_match_level_vector_builder():
    for k in range(10):
        _check_against_level_vectors(_phrase(k))


@given(
    groups=hst.lists(
        hst.lists(hst.sampled_from(["jan", "toki", "pona", "suli", "moku", "telo"]),
                  min_size=1, max_size=3),
        min_size=1, max_size=7,
    ),
    as_tokens=hst.lists(hst.booleans(), min_size=27, max_size=27),
)
@settings(max_examples=200, deadline=None)
def test_pi_readings_match_level_vector_builder_property(groups, as_tokens):
    text_toks = tokenize(" pi ".join(" ".join(g) for g in groups))
    items = [t if use else t.surface for t, use in zip(text_toks, as_tokens)]
    toks = _check_against_level_vectors(items)
    assert toks == text_toks
    for item, tok in zip(items, toks):
        if isinstance(item, Token):
            assert tok is item


# --- POS tagging ------------------------------------------------------------

def _tags_by_surface(text, resolve=False, opts=ParseOptions()):
    clause = parse_text(text, opts).clauses[0]
    assignment = pos_tag(clause, resolve_with_dictionary=resolve)
    return {t.surface: v for t, v in assignment.items()}, assignment, clause


def test_tag_sentence_with_preposition():
    tags, _, _ = _tags_by_surface("jan kala li lape lon ni.")
    assert tags["jan"] is TagValue.NOUN
    assert tags["kala"] is TagValue.ADJECTIVE
    assert tags["lape"] is TagValue.VERB
    assert tags["lon"] is TagValue.PREPOSITION
    assert isinstance(tags["ni"], Hybrid)
    assert tags["ni"].candidates == HYBRID_NVA
    # the dictionary lists ni as an adjective, so resolution narrows it
    resolved, _, _ = _tags_by_surface("jan kala li lape lon ni.", resolve=True)
    assert resolved["ni"] is TagValue.ADJECTIVE


def test_tag_elided_li_hybrid():
    tags, _, _ = _tags_by_surface("mi moku.")
    assert tags["mi"] is TagValue.NOUN
    assert isinstance(tags["moku"], Hybrid)
    assert tags["moku"].candidates == HYBRID_NVA
    resolved, _, _ = _tags_by_surface("mi moku.", resolve=True)
    # the dictionary is itself ambiguous here (verb and noun)
    assert isinstance(resolved["moku"], Hybrid)
    assert resolved["moku"].candidates == frozenset({TagValue.NOUN, TagValue.VERB})


def test_tag_explicit_li_is_verb():
    tags, _, _ = _tags_by_surface("sina li wawa.", opts=ParseOptions(lenient_li=True))
    assert tags["wawa"] is TagValue.VERB


def test_tag_object_and_modifiers():
    tags, _, _ = _tags_by_surface("jan pona li moku e kili suli.")
    assert tags["jan"] is TagValue.NOUN
    assert tags["pona"] is TagValue.ADJECTIVE
    assert tags["moku"] is TagValue.VERB
    assert tags["e"] is TagValue.PARTICLE
    assert tags["kili"] is TagValue.NOUN
    assert tags["suli"] is TagValue.ADJECTIVE


def test_tag_adverb_after_verb():
    tags, _, _ = _tags_by_surface("ona li moku mute e kili.")
    assert tags["mute"] is TagValue.ADVERB


def test_tag_pi_group():
    tags, _, _ = _tags_by_surface("mi lukin e jan pi toki pona.")
    assert tags["pi"] is TagValue.PARTICLE
    assert tags["toki"] is TagValue.NOUN       # head after pi
    assert tags["pona"] is TagValue.ADJECTIVE


def test_tag_proper_and_seme():
    tags, _, _ = _tags_by_surface("jan Pije li toki e seme?")
    assert tags["Pije"] is TagValue.PROPER
    assert tags["seme"] is TagValue.PARTICLE


def test_every_token_tagged(corpus_lines):
    for line in corpus_lines:
        for clause in parse_text(line, LENIENT).clauses:
            assignment = pos_tag(clause)
            toks = list(clause.tokens())
            assert set(assignment.keys()) == set(toks)
            assert len(assignment) == len(toks)
            for v in assignment.values():
                assert isinstance(v, (TagValue, Hybrid))
                if isinstance(v, Hybrid):
                    assert len(v.candidates) >= 2


# --- the tag fold against the generator walk --------------------------------

def _ref_phrase_walk(phrase, head, mod):
    """A phrase's tag walk as it was before the fold: nested generators."""
    yield phrase.head, head
    for m in phrase.modifiers:
        if isinstance(m, PiGroup):
            yield m.pi_token, TagValue.PARTICLE
            yield from _ref_phrase_walk(m.inner, TagValue.NOUN, TagValue.ADJECTIVE)
        else:
            yield m, mod
    for conj_tok, phrase in phrase.conj:
        yield conj_tok, TagValue.PARTICLE
        yield from _ref_phrase_walk(phrase, head, mod)


def _ref_complements_walk(complements):
    for c in complements:
        if c.lead_sep:
            yield c.lead_sep, TagValue.PUNCT
        if isinstance(c, ObjectArg):
            yield c.marker, TagValue.PARTICLE
            yield from _ref_phrase_walk(c.phrase, TagValue.NOUN, TagValue.ADJECTIVE)
        else:
            yield c.prep, TagValue.PREPOSITION
            if c.complement is not None:
                yield from _ref_phrase_walk(c.complement, HYBRID, TagValue.ADJECTIVE)


def _ref_walk(clause):
    """``Clause.walk`` as it was: nested generators."""
    for ctx in clause.contexts:
        yield from _ref_walk(ctx)
    if clause.vocative:
        yield from _ref_phrase_walk(clause.vocative.phrase, TagValue.NOUN, TagValue.ADJECTIVE)
        yield from _ref_complements_walk(clause.vocative.complements)
        yield clause.vocative.o_token, TagValue.PARTICLE
        if clause.vocative.comma:
            yield clause.vocative.comma, TagValue.PUNCT
    if clause.subject:
        yield from _ref_phrase_walk(clause.subject, TagValue.NOUN, TagValue.ADJECTIVE)
    yield from _ref_complements_walk(clause.subject_complements)
    for pred in clause.predicates:
        if pred.lead_sep:
            yield pred.lead_sep, TagValue.PUNCT
        if pred.marker:
            yield pred.marker, TagValue.PARTICLE
        if pred.possessive_pi:
            yield pred.possessive_pi, TagValue.PARTICLE
        for pv in pred.preverbs:
            yield pv, TagValue.VERB
        if pred.marker is not None or pred.objects or pred.colon_object or pred.preverbs:
            head, mod = TagValue.VERB, TagValue.ADVERB
        elif clause.subject is None and clause.vocative is None and not clause.li_elided:
            head, mod = TagValue.NOUN, TagValue.ADJECTIVE
        else:
            head, mod = HYBRID, TagValue.ADVERB
        yield from _ref_phrase_walk(pred.phrase, head, mod)
        yield from _ref_complements_walk(pred.complements)
    for t in clause.tail:
        yield t, TagValue.PUNCT if t.kind is TokenKind.PUNCT else TagValue.PARTICLE
    if clause.terminator:
        yield clause.terminator, TagValue.PUNCT
    if clause.la_token:
        yield clause.la_token, TagValue.PARTICLE


def _ref_pos_tag(clause, resolve, lex):
    out = {}
    for tok, tag in _ref_walk(clause):
        if tok.kind is TokenKind.PROPER:
            tag = TagValue.PROPER
        elif tok.surface == "seme":
            tag = TagValue.PARTICLE
        elif resolve and isinstance(tag, Hybrid):
            entry = lex.lookup(tok.surface)
            if entry is not None:
                narrowed = tag.candidates & {_DICT_TO_TAGVALUE[t] for t in entry.tags}
                if len(narrowed) == 1:
                    tag = next(iter(narrowed))
                elif narrowed:
                    tag = Hybrid(frozenset(narrowed))
        out[tok] = tag
    return out


def _ref_question_focus(clause):
    semes = [t for t, _ in _ref_walk(clause) if t.surface == "seme"]
    in_contexts = sum(t.surface == "seme" for ctx in clause.contexts for t, _ in _ref_walk(ctx))
    return (semes[in_contexts:] or semes or [None])[0]


def _assert_fold_matches_the_walk(text, opts):
    try:
        result = parse_text(text, opts)
    except GrammarError:
        return
    assert result.tokens() == [t for c in result.clauses for t, _ in _ref_walk(c)]
    for clause in result.clauses:
        ref = list(_ref_walk(clause))
        assert list(clause.walk()) == ref
        assert list(clause.tokens()) == [t for t, _ in ref]
        assert clause.question_focus is _ref_question_focus(clause)
        for resolve in (False, True):
            tags = pos_tag(clause, resolve, _LEX)
            assert list(tags.items()) == list(_ref_pos_tag(clause, resolve, _LEX).items())
        if clause.subject:
            assert list(clause.subject.tokens()) == [
                t for t, _ in _ref_phrase_walk(clause.subject, TagValue.NOUN, TagValue.ADJECTIVE)]


_GOLDEN_INPUTS = [
    line[2:] for line in (Path(__file__).parent / "data" / "parse_golden.txt")
    .read_text("utf-8").splitlines() if line.startswith("$ ")
]


def test_fold_matches_the_walk_on_the_parse_golden_inputs():
    """Tags, their order, tokens and question focus, strict and lenient."""
    assert len(_GOLDEN_INPUTS) > 400
    for text in _GOLDEN_INPUTS:
        for opts in (ParseOptions(), LENIENT):
            _assert_fold_matches_the_walk(text, opts)


@given(hst.one_of(_token_soup, _sentences), hst.sampled_from([ParseOptions(), LENIENT]))
@settings(max_examples=300, deadline=None)
def test_fold_matches_the_walk(text, opts):
    _assert_fold_matches_the_walk(text, opts)


def test_fold_tags_a_phrase_nested_to_the_limit():
    """pi, en and anu groups in turn, MAX_NESTING deep after a preposition, tag
    as the walk does; one group more is a GrammarError."""
    chain = "".join(_CHAIN_UNITS[k % 3] for k in range(MAX_NESTING))
    text = f"mi moku e kili lon jan{chain}."
    (clause,) = parse_text(text, LENIENT).clauses
    assert len(pos_tag(clause, resolve_with_dictionary=True)) == len(tokenize(text))
    _assert_fold_matches_the_walk(text, LENIENT)
    with pytest.raises(GrammarError, match="nest more than"):
        parse_text(text[:-1] + " pi ma suli.", LENIENT)


def test_a_lexicon_is_read_only_where_it_is_needed(monkeypatch):
    """``pos_tag`` gets the default lexicon only to resolve hybrids, and a
    given lexicon is tested against ``None``, never for its length."""
    class Unsized(Lexicon):
        def __len__(self):
            raise AssertionError("len called")

    lex = Unsized(_LEX)
    (clause,) = parse(tokenize("jan Pije li lape lon ni.", lex), LENIENT).clauses
    assert pos_tag(clause, True, lex) == pos_tag(clause, True)
    monkeypatch.setattr(grammar, "default_lexicon", lambda: pytest.fail("default lexicon read"))
    assert pos_tag(clause) == pos_tag(clause, False, lex)
