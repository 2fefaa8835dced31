"""Highlight schemes: partition laws, merge modes, and the emitters."""

import html
import re

import pytest
from hypothesis import given, settings, strategies as hst

from conftest import classify_syntax_lines
from tokipona import highlight
from tokipona.grammar import TokenKind, tokenize
from tokipona.highlight import (
    _HTML_COLORS,
    _SGR,
    HighlightGroup,
    MergeMode,
    build_scheme,
    emit_filetype_detect,
    emit_vim_syntax,
    render_ansi,
    render_html,
)
from tokipona.lexicon import (
    PREPOSITIONS,
    PREVERBS,
    PURE_PARTICLES,
    Lexicon,
    default_lexicon,
    load_lexicon,
)
from tokipona.phonotactics import PUNCTUATION


def _keyword_groups(scheme):
    return [g for g in scheme if g.pattern is None]


@pytest.mark.parametrize("mode", list(MergeMode))
def test_partition_all_modes(lexicon, mode):
    scheme = build_scheme(lexicon, mode)
    keyword = _keyword_groups(scheme)
    all_members = [w for g in keyword for w in g.members]
    assert len(all_members) == 124            # covers every lemma
    assert len(set(all_members)) == 124       # disjoint
    assert sum(g.distinct_size(lexicon) for g in keyword) == 120


def test_full_group_sizes(lexicon):
    scheme = build_scheme(lexicon, MergeMode.FULL)
    sizes = {g.name: g.distinct_size(lexicon) for g in _keyword_groups(scheme)}
    assert sizes == {
        "tpNOUN": 49, "tpADJECTIVE": 34, "tpVERB": 13, "tpPARTICLE": 12,
        "tpPRE": 6, "tpPREPOSITION": 5, "tpNUMBER": 1,
    }
    by_name = {g.name: g for g in scheme}
    assert "wile" in by_name["tpPRE"].members


def test_merge_mode_sizes(lexicon):
    scheme = build_scheme(lexicon, MergeMode.PARTICLES_VS_REST)
    sizes = {g.name: g.distinct_size(lexicon) for g in _keyword_groups(scheme)}
    assert sizes == {"tpPARTICLE": 12, "tpCONTENT": 108}

    scheme = build_scheme(lexicon, MergeMode.PARTICLES_PREPS_VS_REST)
    sizes = {g.name: g.distinct_size(lexicon) for g in _keyword_groups(scheme)}
    assert sizes == {"tpPARTICLE": 12, "tpPREPOSITION": 5, "tpCONTENT": 103}


def test_synonym_pairs_share_groups(lexicon):
    for mode in MergeMode:
        scheme = build_scheme(lexicon, mode)
        for pair in (("a", "kin"), ("lukin", "oko"), ("sin", "namako"), ("ale", "ali")):
            homes = [g.name for g in scheme for w in pair if w in g.members]
            assert len(set(homes)) == 1, (pair, homes)


# --- vim emission ------------------------------------------------------------

def test_vim_syntax_content(lexicon):
    scheme = build_scheme(lexicon)
    content = emit_vim_syntax(scheme)
    particle_lines = [
        l for l in content.splitlines() if l.startswith("syn keyword tpPARTICLE ")
    ]
    assert len(particle_lines) == 1
    words = particle_lines[0].split()[3:]
    assert len(words) == 13  # 12 distinct + the synonym kin
    assert words == sorted(words)
    assert "syn match tpPROPER" in content
    assert "hi def link tpPARTICLE Statement" in content
    assert content.rstrip().endswith('let b:current_syntax = "tokipona"')

    # every lemma appears exactly once across keyword lines
    keyword_words = [
        w
        for l in content.splitlines()
        if l.startswith("syn keyword ")
        for w in l.split()[3:]
    ]
    assert len(keyword_words) == 124
    assert len(set(keyword_words)) == 124


def test_vim_syntax_deterministic(lexicon):
    scheme = build_scheme(lexicon)
    assert emit_vim_syntax(scheme) == emit_vim_syntax(build_scheme(lexicon))


def test_vim_syntax_line_grammar(lexicon):
    for mode in MergeMode:
        content = emit_vim_syntax(build_scheme(lexicon, mode))
        kinds = classify_syntax_lines(content)
        assert all(kind != "unknown" for kind, _ in kinds), [
            l for k, l in kinds if k == "unknown"
        ]
    assert classify_syntax_lines("set nocompatible\n") == [("unknown", "set nocompatible")]


def test_filetype_detect():
    content = emit_filetype_detect()
    assert content == emit_filetype_detect()
    assert "*.tp" in content and "*.tokipona" in content
    non_comment = [
        l for l in content.splitlines() if l.strip() and not l.startswith('"')
    ]
    assert len(non_comment) == 2
    for line in non_comment:
        assert line.endswith("set filetype=tokipona")


# --- rendering ------------------------------------------------------------

def test_render_html_spans(lexicon):
    doc = render_html("mi moku", lex=lexicon)
    assert doc.startswith("<!DOCTYPE html>")
    assert doc.count("<span") == 2
    assert 'class="tpNOUN"' in doc     # mi and moku are both noun-chosen... moku is verb
    assert 'class="tpVERB"' in doc


def test_render_html_escaping(lexicon):
    doc = render_html("mi <3 & pona", lex=lexicon)
    assert "&lt;" in doc
    assert "&amp;" in doc
    assert "<3" not in doc


def test_render_html_empty_and_unknown(lexicon):
    doc = render_html("", lex=lexicon)
    assert doc.startswith("<!DOCTYPE html>") and "<pre></pre>" in doc
    doc = render_html("xyzzy", lex=lexicon)
    assert 'class="tpERROR"' in doc


def test_render_html_same_word_same_color(lexicon):
    doc = render_html("moku li moku e moku", lex=lexicon)
    import re
    spans = re.findall(r'<span class="(\w+)"[^>]*>(\w+)</span>', doc)
    moku_groups = {g for g, w in spans if w == "moku"}
    assert len(moku_groups) == 1


def test_render_ansi(lexicon):
    out = render_ansi("mi moku.", lex=lexicon)
    assert out.count("\x1b[") == 4  # two colored words, two resets
    assert out.endswith(".")
    assert render_ansi("mi moku.", lex=lexicon) == out
    out256 = render_ansi("mi moku.", lex=lexicon, color_depth=256)
    assert "38;5;" in out256
    for depth in (8, 24):
        with pytest.raises(ValueError, match="color_depth must be 16 or 256"):
            render_ansi("mi", lex=lexicon, color_depth=depth)


def test_render_ansi_proper_nouns(lexicon):
    out = render_ansi("jan Pije", lex=lexicon)
    assert "Pije" in out
    assert "\x1b[92mPije" in out  # proper-noun palette entry


def test_render_without_a_scheme_builds_the_default_one_once(monkeypatch):
    built = []

    def counted_build_scheme(lex, *args):
        built.append(lex)
        return build_scheme(lex, *args)

    highlight._scheme_of.cache_clear()
    monkeypatch.setattr(highlight, "build_scheme", counted_build_scheme)
    text = "mi moku e kili. jan Pije li <3 & xyzzy"
    lex = default_lexicon()
    scheme = build_scheme(lex)
    for _ in range(2):
        assert render_html(text) == render_html(text, scheme, lex)
        for depth in (16, 256):
            assert render_ansi(text, color_depth=depth) == render_ansi(text, scheme, lex, depth)
    assert built == [lex]


def test_render_with_a_lexicon_builds_its_scheme_once(monkeypatch, lexicon):
    built = []

    def counted_build_scheme(lex, *args):
        built.append(lex)
        return build_scheme(lex, *args)

    lex = load_lexicon()
    scheme = build_scheme(lex)
    highlight._scheme_of.cache_clear()
    monkeypatch.setattr(highlight, "build_scheme", counted_build_scheme)
    text = "mi moku e kili. jan Pije li <3 & xyzzy"
    for _ in range(2):
        assert render_html(text, lex=lex) == render_html(text, scheme, lex)
        assert render_ansi(text, lex=lex, color_depth=256) == render_ansi(text, scheme, lex, 256)
    assert built == [lex]
    render_ansi(text, lex=lexicon)
    render_ansi(text, lex=lex)  # one slot: the other lexicon took it
    assert built == [lex, lexicon, lex]


def test_render_takes_its_words_from_the_scheme(lexicon):
    """A word the scheme lacks is an error, whatever lexicon the renderers
    are given, as in the scheme's Vim file."""
    kept = PURE_PARTICLES | PREPOSITIONS | PREVERBS | {"mi", "pona"}
    small = Lexicon(e for e in lexicon if e.surface in kept)
    scheme = build_scheme(small)
    text = "mi moku e kili. Mali li pona, xyz!"
    html_out = render_html(text, scheme)
    assert re.findall(r'<span class="(\w+)"[^>]*>(\w+)</span>', html_out) == [
        ("tpNOUN", "mi"), ("tpERROR", "moku"), ("tpPARTICLE", "e"), ("tpERROR", "kili"),
        ("tpPROPER", "Mali"), ("tpPARTICLE", "li"), ("tpADJECTIVE", "pona"), ("tpERROR", "xyz"),
    ]
    assert render_html(text, scheme, lexicon) == html_out
    for depth in (16, 256):
        assert render_ansi(text, scheme, lexicon, depth) == render_ansi(text, scheme, None, depth)
    assert render_html(text, lex=small) == html_out


# --- rendering against the token-by-token loop ------------------------------

def _old_render(text, scheme, lex, escape, paint):
    """The render loop as it was: tokenize, then escape each token and each
    gap between tokens."""
    group_of = {w: g.name for g in reversed(scheme) for w in g.members}
    out = []
    pos = 0
    for tok in tokenize(text, lex):
        if tok.start > pos:
            out.append(escape(text[pos:tok.start]))
        chunk = escape(text[tok.start:tok.end])
        if tok.kind is TokenKind.WORD:
            group = group_of.get(tok.surface, "")
        elif tok.kind is TokenKind.PROPER:
            group = "tpPROPER"
        elif tok.kind is TokenKind.ERROR:
            group = "tpERROR"
        else:
            group = ""
        out.append(paint(group, chunk) if group else chunk)
        pos = tok.end
    out.append(escape(text[pos:]))
    return "".join(out)


def _old_render_html(text, scheme, lex):
    def paint(group, chunk):
        color = _HTML_COLORS.get(group, "#d8d8d8")
        return f'<span class="{group}" style="color:{color}">{chunk}</span>'

    return (
        "<!DOCTYPE html>\n"
        '<html><head><meta charset="utf-8"><title>toki pona</title></head>\n'
        '<body style="background:#1d2021;color:#d8d8d8"><pre>'
        + _old_render(text, scheme, lex, html.escape, paint)
        + "</pre></body></html>\n"
    )


def _old_render_ansi(text, scheme, lex, depth):
    sgr = _SGR[depth]

    def paint(group, chunk):
        return f"\x1b[{sgr[group]}m{chunk}\x1b[0m" if group in sgr else chunk

    return _old_render(text, scheme, lex, str, paint)


_LEX = load_lexicon()
_WORDS = sorted(e.surface for e in _LEX)
_SCHEMES = {m: build_scheme(_LEX, m) for m in MergeMode}

#: Lexicon words, names, unknown words, punctuation, characters that HTML
#: escapes, digits and non-ASCII letters, with any whitespace (or none)
#: between them.
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


@given(_mixed_text, hst.sampled_from([None, *MergeMode]))
@settings(max_examples=400, deadline=None)
def test_render_matches_the_token_by_token_loop(text, mode):
    """The default scheme (``None``) and one scheme per merge mode."""
    scheme = None if mode is None else _SCHEMES[mode]
    ref = _SCHEMES[MergeMode.FULL] if mode is None else scheme
    assert render_html(text, scheme, _LEX) == _old_render_html(text, ref, _LEX)
    for depth in (16, 256):
        assert render_ansi(text, scheme, _LEX, depth) == _old_render_ansi(text, ref, _LEX, depth)


_SGR_RE = re.compile(r"\x1b\[[0-9;]*m")
_HTML_TAG_RE = re.compile(r"<[^>]*>")
_HTML_BODY = re.compile(r"<pre>(.*)</pre>", re.S)


@pytest.mark.parametrize("text", [
    "",
    "   ",
    "\n",
    "\t\n ",
    "  mi moku.",
    "mi moku.\n\n",
    " \tjan Mali li toki. \n",
    "moku.moku,Mali:",
    "mi&moku<li>pona",
    "&<>",
    " <mi> & <sina> ",
])
def test_render_gaps_pass_through(text):
    """Edge cases of the split into gaps and tokens: no tokens, whitespace
    at either end, tokens with no gap between them, and escaped characters
    next to words.  The uncolored output gives back the text."""
    html_out = render_html(text, lex=_LEX)
    assert html_out == _old_render_html(text, _SCHEMES[MergeMode.FULL], _LEX)
    body = _HTML_BODY.search(html_out).group(1)
    assert html.unescape(_HTML_TAG_RE.sub("", body)) == text
    for depth in (16, 256):
        ansi_out = render_ansi(text, lex=_LEX, color_depth=depth)
        assert ansi_out == _old_render_ansi(text, _SCHEMES[MergeMode.FULL], _LEX, depth)
        assert _SGR_RE.sub("", ansi_out) == text


# --- the kept chunks: keyed by the scheme's contents --------------------------

_CACHE_TEXT = "mi moku e kili. jan Pije li <3 & xyzzy, Kalo: o lukin!"


def _assert_renders_as_the_loop(text, scheme):
    assert render_html(text, scheme) == _old_render_html(text, scheme, _LEX)
    for depth in (16, 256):
        assert render_ansi(text, scheme, color_depth=depth) == _old_render_ansi(
            text, scheme, _LEX, depth)


def test_a_scheme_changed_in_place_renders_with_its_new_groups():
    scheme = build_scheme(_LEX)
    _assert_renders_as_the_loop(_CACHE_TEXT, scheme)
    scheme.insert(0, HighlightGroup("tpNUMBER", frozenset({"moku", "kili"})))
    _assert_renders_as_the_loop(_CACHE_TEXT, scheme)
    assert '<span class="tpNUMBER" style="color:#fe8019">moku</span>' in render_html(
        _CACHE_TEXT, scheme)
    scheme[0] = HighlightGroup("tpVERB", frozenset({"li", "kili"}))
    _assert_renders_as_the_loop(_CACHE_TEXT, scheme)
    assert '<span class="tpVERB" style="color:#fabd2f">li</span>' in render_html(
        _CACHE_TEXT, scheme)


def test_equal_schemes_built_apart_render_alike():
    first, second = build_scheme(_LEX), build_scheme(load_lexicon())
    assert first == second and first is not second
    assert render_html(_CACHE_TEXT, first) == render_html(_CACHE_TEXT, second)
    for depth in (16, 256):
        assert render_ansi(_CACHE_TEXT, first, color_depth=depth) == render_ansi(
            _CACHE_TEXT, second, color_depth=depth)


def test_styles_alternate_on_one_scheme():
    scheme = _SCHEMES[MergeMode.PARTICLES_VS_REST]
    for text in (_CACHE_TEXT, "sina pona, a!", _CACHE_TEXT.upper()):
        for _ in range(2):
            _assert_renders_as_the_loop(text, scheme)


def test_more_schemes_than_the_cache_holds():
    """Each scheme puts a different word first in tpNUMBER; the schemes are
    rendered in turn twice, so each second round misses the cache."""
    words = _WORDS[:highlight._painted.cache_info().maxsize + 3]
    schemes = [[HighlightGroup("tpNUMBER", frozenset({w})), *_SCHEMES[MergeMode.FULL]]
               for w in words]
    for _ in range(2):
        for word, scheme in zip(words, schemes):
            text = f"{_CACHE_TEXT} {word}"
            _assert_renders_as_the_loop(text, scheme)
            assert f'<span class="tpNUMBER" style="color:#fe8019">{word}</span>' in render_html(
                text, scheme)


@given(hst.lists(hst.text(alphabet="aeijklmnopstuwAKPTXxqé<&", min_size=1, max_size=8),
                 max_size=40))
@settings(max_examples=100, deadline=None)
def test_only_scheme_words_and_punctuation_are_kept(words):
    """Names, errors and other characters are painted per call: what is kept
    for a scheme holds its words and the punctuation marks only."""
    scheme = _SCHEMES[MergeMode.FULL]
    text = " ".join(words) + " mi moku. Pije, xyzzy!"
    assert render_html(text, scheme) == _old_render_html(text, scheme, _LEX)
    group_of, chunks = highlight._painted(tuple(scheme), "html")
    assert set(chunks) <= set(group_of) | set(PUNCTUATION)
    assert {"mi", "moku", ".", ",", "!"} <= set(chunks)
