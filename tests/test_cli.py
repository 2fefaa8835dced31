"""CLI behavior: dispatch, formats, exit codes, determinism."""

import argparse
import io
import json
import os
import re
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as hst

from tokipona.cli import build_parser, main
from tokipona.grammar import MAX_NESTING
from tokipona.highlight import MergeMode
from tokipona.stats import (
    LetterRestrict, Scope, SentenceSpaceQuery, sentence_space, syllable_frequency,
)
from tokipona.synth import ComposeUnit
from tokipona.wordnet import MappingMode
from conftest import write_wndb


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_paper(capsys):
    code, out, _ = run(capsys, "count", "--syllables", "2", "--mode", "paper")
    assert code == 0
    assert out.strip() == "8256"


def test_count_strict(capsys):
    code, out, _ = run(capsys, "count", "--syllables", "2", "--mode", "strict")
    assert code == 0
    assert out.strip() == "6624"


def test_stats_pos_table(capsys):
    code, out, _ = run(capsys, "--format", "tsv", "stats", "--table", "pos")
    assert code == 0
    assert "NOUN\t58\t49" in out
    assert "total\t140\t120" in out


@pytest.mark.parametrize("table", ["letters", "syllables"])
def test_stats_letters_tsv_roundtrip(capsys, lexicon, table):
    code, out, _ = run(capsys, "--format", "tsv", "stats", "--table", table)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "item\tcount\tpercent"
    rows = [l.split("\t") for l in lines[1:]]
    assert all(len(r) == 3 for r in rows)
    if table == "letters":
        a_row = next(r for r in rows if r[0] == "a")
        assert a_row[2] == "16.35"
        total = sum(int(r[1]) for r in rows)
        assert total == 477  # all letters of all 124 words
    else:
        expected = syllable_frequency(lexicon, Scope.ALL).rows
        assert len(rows) == 68
        assert [(i, int(c), float(p)) for i, c, p in rows] == [
            (r.item, r.count, r.percent) for r in expected
        ]


def test_stats_json_lines(capsys):
    code, out, _ = run(capsys, "--format", "json-lines", "stats", "--table", "lengths")
    assert code == 0
    rows = [json.loads(l) for l in out.strip().splitlines()]
    assert rows[0] == {"syllables": "1", "count": "26", "percent": "20.97"}


def test_stats_sentence_space(capsys):
    code, out, _ = run(capsys, "stats", "--sentence-space", "1,1,1,1")
    assert code == 0
    assert out.strip() == "4300066310805"
    code, out, _ = run(
        capsys, "stats", "--sentence-space", "1,0,0,0", "--without-particles"
    )
    assert out.strip() == "535"
    for bad in ("1,1,1", "a,1,1,1", ""):
        code, out, err = run(capsys, "stats", "--sentence-space", bad)
        assert (code, out, err) == (
            1, "", "error: --sentence-space expects four comma-separated integers\n"
        )
    # A value that starts with "-" is written with "=": spaced, argparse may read
    # it as an option.
    assert run(capsys, "stats", "--sentence-space=-1,0,0,0") == (
        1, "", "error: phrase size n must be >= 0\n"
    )


@pytest.mark.parametrize("flags, most", [((), 2116), (("--without-particles",), 2118)])
def test_stats_sentence_space_refuses_what_cannot_print(capsys, lexicon, flags, most):
    """The largest total of words prints in full; one word more, or ten million, is
    refused at once, before the count is computed.  The library's count stays exact
    past the bound: at one word more it has more digits than Python prints (4,300)."""
    low, high = (sentence_space(lexicon, SentenceSpaceQuery(words, 0, 0, 0, not flags))
                 for words in (most, most + 1))
    assert low < 10 ** 4300 <= high
    code, out, err = run(capsys, "stats", *flags, "--sentence-space", f"{most - 2},1,1,0")
    assert (code, err) == (0, "") and out.strip().isdigit()
    for total in (most + 1, 10_000_000):
        start = time.perf_counter()
        code, out, err = run(capsys, "stats", *flags, "--sentence-space", f"{total},0,0,0")
        assert time.perf_counter() - start < 0.5
        assert (code, out, err) == (1, "", f"error: --sentence-space prints at most {most} "
                                           f"words in all, not {total}: the count would "
                                           "have too many digits\n")


def test_syllabify(capsys):
    code, out, _ = run(capsys, "--format", "tsv", "syllabify", "sitelen", "toki")
    assert code == 0
    assert "sitelen\tsi-te-len\t3" in out
    assert "toki\tto-ki\t2" in out


def test_validate_exit_codes(capsys):
    code, out, _ = run(capsys, "validate", "pona")
    assert code == 0
    code, out, _ = run(capsys, "validate", "wuta")
    assert code == 1
    assert "wu" in out
    code, out, _ = run(capsys, "validate", "--mode", "paper", "jin")
    assert code == 0
    code, out, _ = run(capsys, "validate", "--proper", "Pije")
    assert code == 0


def test_parse_tree_output(capsys):
    code, out, err = run(capsys, "parse", "mi wile e moku e telo.")
    assert code == 0
    assert "subject: mi" in out
    assert out.count("object:") == 2


def test_parse_tree_shows_empty_sentence_terminator(capsys):
    code, out, err = run(capsys, "parse", "--lenient", "mi moku!!")
    assert code == 0
    assert out == "subject: mi\npredicate [(li)]:\n    head: moku\n\nterminator: !\n"
    assert err == "warning: empty sentence @8..9\n"


def test_parse_json_output(capsys):
    code, out, _ = run(capsys, "--format", "json-lines", "parse", "ona li pona.")
    assert code == 0
    tree = json.loads(out.strip())
    assert tree["subject"]["head"] == "ona"
    assert tree["predicates"][0]["phrase"]["head"] == "pona"


def test_parse_reads_stdin_and_needs_text(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("ona li pona.\nmi moku.\n"))
    code, out, _ = run(capsys, "parse", "--stdin")
    assert (code, out) == (0, "subject: ona\npredicate [li]:\n    head: pona\n\n"
                              "subject: mi\npredicate [(li)]:\n    head: moku\n")
    assert run(capsys, "parse") == (1, "", "error: no input text\n")


@pytest.mark.parametrize("argv", [
    (*command, blank)
    for command in (("parse",), ("tag",), ("highlight", "render", "--mode", "ansi"),
                    ("highlight", "render", "--mode", "html"))
    for blank in ("", "   ")
])
def test_blank_input_is_an_error(capsys, argv):
    assert run(capsys, *argv) == (1, "", "error: no input text\n")


def test_parse_error_exit(capsys):
    code, _, err = run(capsys, "parse", "e moku.")
    assert code == 1
    assert "error:" in err


def test_tag_output(capsys):
    code, out, _ = run(capsys, "--format", "tsv", "tag", "jan kala li lape lon ni.")
    assert code == 0
    assert "jan\tNOUN" in out
    assert "kala\tADJECTIVE" in out
    assert "lape\tVERB" in out
    assert "lon\tPREPOSITION" in out
    assert "ni\tADJECTIVE" in out  # dictionary resolution on by default
    code, out, _ = run(capsys, "--format", "tsv", "tag", "--no-dictionary", "mi moku.")
    assert "moku\tHYBRID" in out


def test_synth_deterministic(capsys):
    code, out1, _ = run(capsys, "--seed", "42", "synth", "--kind", "sentence", "--count", "5")
    assert code == 0
    _, out2, _ = run(capsys, "--seed", "42", "synth", "--kind", "sentence", "--count", "5")
    assert out1 == out2
    _, out3, _ = run(capsys, "--seed", "43", "synth", "--kind", "sentence", "--count", "5")
    assert out1 != out3
    assert len(out1.strip().splitlines()) == 5


def test_synth_poem(capsys):
    code, out, _ = run(
        capsys, "--seed", "7", "synth", "--kind", "poem",
        "--stanzas", "2", "--verses", "3", "--phonemes", "10",
    )
    assert code == 0
    verses = [l for l in out.splitlines() if l.strip()]
    assert len(verses) == 6
    for v in verses:
        assert sum(c.isalpha() for c in v) == 10


@pytest.mark.parametrize("count", ["0", "-2"])
def test_synth_count_must_be_positive(capsys, count):
    code, out, err = run(capsys, "synth", "--count", count)
    assert (code, out, err) == (1, "", "error: --count must be at least 1\n")


@pytest.mark.parametrize("table", ["letters", "syllables"])
def test_stats_limit_must_not_be_negative(capsys, table):
    code, out, err = run(capsys, "stats", "--table", table, "--limit", "-12")
    assert (code, out, err) == (1, "", "error: --limit must not be negative\n")
    code, out, _ = run(capsys, "stats", "--table", table, "--limit", "0")
    assert code == 0 and len(out.splitlines()) == 1  # the header only


@pytest.mark.parametrize("table, rows, total", [
    ("pos", ["NOUN\t58\t49", "ADJECTIVE\t40\t34"], ["total\t140\t120"]),
    ("lengths", ["1\t26\t20.97"], []),
])
def test_stats_limit_applies_to_every_table(capsys, table, rows, total):
    code, out, _ = run(capsys, "--format", "tsv", "stats", "--table", table,
                       "--limit", str(len(rows)))
    assert code == 0
    assert out.splitlines()[1:] == rows + total  # pos keeps its total of every tag


def test_synth_poem_length_error(capsys):
    code, out, err = run(capsys, "synth", "--kind", "poem", "--phonemes", "40")
    assert (code, out, err) == (1, "", "error: verses have 2–39 letters, not 40\n")


def test_synth_paragraph_bounds_error(capsys):
    code, _, err = run(
        capsys, "--seed", "7", "synth", "--kind", "paragraph",
        "--sentences", "2", "--max-letters", "4",
    )
    assert code == 1
    assert "error:" in err


def test_compose_scripted(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("1\nf\n"))
    code, out, _ = run(capsys, "--seed", "9", "compose", "-k", "2")
    assert code == 0
    assert "1)" in out and "2)" in out
    assert "kept:" in out


def test_highlight_emit_vim(capsys, tmp_path):
    out_dir = tmp_path / "plugin"
    code, out, _ = run(capsys, "highlight", "emit-vim", "--out", str(out_dir))
    assert code == 0
    syntax = (out_dir / "syntax" / "tokipona.vim").read_text("utf-8")
    ftdetect = (out_dir / "ftdetect" / "tokipona.vim").read_text("utf-8")
    assert "syn keyword tpNOUN" in syntax
    assert "*.tokipona" in ftdetect
    # regeneration is byte-identical
    code, _, _ = run(capsys, "highlight", "emit-vim", "--out", str(out_dir))
    assert (out_dir / "syntax" / "tokipona.vim").read_text("utf-8") == syntax


def test_highlight_render(capsys):
    code, out, _ = run(capsys, "highlight", "render", "--mode", "ansi", "mi moku")
    assert code == 0
    assert "\x1b[" in out
    code, out, _ = run(capsys, "highlight", "render", "--mode", "html", "mi moku")
    assert out.startswith("<!DOCTYPE html>")


def test_wordnet_cli(capsys, tmp_path):
    db = write_wndb(tmp_path / "dict")
    code, out, _ = run(capsys, "wordnet", "build", "--db", str(db), "--mode", "all")
    assert code == 0
    assert "mapping mode: all" in out
    dump = tmp_path / "map.tsv"
    code, out, _ = run(
        capsys, "wordnet", "build", "--db", str(db), "--mode", "matched",
        "--dump", str(dump),
    )
    assert code == 0
    assert dump.read_text("utf-8").startswith("lemma\tmode\tpos\tsynset")

    code, out, _ = run(capsys, "wordnet", "lookup", "--db", str(db), "moku")
    assert code == 0
    assert any(line.startswith("v2000000") for line in out.splitlines())

    # A lexicon word without synsets prints nothing; a word outside the
    # lexicon is an error, whatever the database holds.
    assert run(capsys, "wordnet", "lookup", "--db", str(db), "li") == (0, "", "")
    for word in ("xyz", "Moku"):
        code, out, err = run(capsys, "wordnet", "lookup", "--db", str(db), word)
        assert (code, out, err) == (1, "", f"error: {word!r} is not in the lexicon\n")
    code, _, err = run(capsys, "wordnet", "lookup", "--db", str(tmp_path / "none"), "xyz")
    assert (code, err) == (1, "error: 'xyz' is not in the lexicon\n")

    code, _, err = run(capsys, "wordnet", "build", "--db", str(tmp_path / "none"))
    assert code == 1 and "error:" in err

    coverage = tmp_path / "coverage.txt"
    code, out, _ = run(capsys, "wordnet", "build", "--db", str(db), "--coverage", str(coverage))
    assert code == 0 and out.endswith(f"wrote {coverage}\n")
    assert "mi\tme\n" in coverage.read_text("utf-8")


def test_wordnet_warning_reaches_stderr(capsys, tmp_path):
    db = write_wndb(tmp_path / "dict")
    for path in db.iterdir():
        lines = path.read_text("utf-8").splitlines(keepends=True)
        path.write_text("".join(l for l in lines if "WordNet 3.0" not in l), "utf-8")
    code, out, err = run(capsys, "wordnet", "lookup", "--db", str(db), "moku")
    assert code == 0 and out
    assert err == "warning: no version line found in the data files\n"


def test_wordnet_relations(capsys):
    code, out, _ = run(capsys, "--format", "tsv", "wordnet", "relations")
    assert code == 0
    assert "hyponym\tjan\tsoweli" in out
    assert "antonym\tsuno\tmun" in out


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count"])  # missing required --syllables
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def _option(path, option):
    """The argparse action of ``option`` in the subcommand ``path`` names."""
    parser = build_parser()
    for name in path:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    return next(a for a in parser._actions if option in a.option_strings)


@pytest.mark.parametrize("path, option, enum", [
    (("stats",), "--scope", Scope),
    (("stats",), "--restrict", LetterRestrict),
    (("compose",), "--unit", ComposeUnit),
    (("highlight", "emit-vim"), "--merge", MergeMode),
    (("wordnet", "build"), "--mode", MappingMode),
    (("wordnet", "lookup"), "--mode", MappingMode),
])
def test_choices_are_the_enum_values(path, option, enum):
    # build_parser writes these lists out so that it imports no module for them.
    assert _option(path, option).choices == tuple(m.value for m in enum)


def _bundled_lexicon_text():
    return resources.files("tokipona").joinpath("data/lexicon.tsv").read_text("utf-8")


def test_alternative_lexicon_path(capsys, tmp_path):
    p = tmp_path / "lex.tsv"
    p.write_text(_bundled_lexicon_text(), "utf-8")
    code, out, _ = run(capsys, "--lexicon", str(p), "stats", "--table", "pos")
    assert code == 0
    bad = tmp_path / "bad.tsv"
    bad.write_text("surface\ttags\tgroup\tsenses\n", "utf-8")
    code, _, err = run(capsys, "--lexicon", str(bad), "stats", "--table", "pos")
    assert code == 1
    assert "error: pure-particle set [] != " in err


DROPPED = {"akesi", "alasa"}


def test_other_lexicon_drives_every_subcommand(capsys, tmp_path):
    """A structurally valid lexicon that is not the paper's loads by path,
    and every subcommand uses its words and counts."""
    lines = [
        l for l in _bundled_lexicon_text().splitlines()
        if l.split("\t")[0] not in DROPPED
    ]
    lines.append("kijetesantakalu\tNOUN\t-\traccoon")
    p = tmp_path / "other.tsv"
    p.write_text("\n".join(lines) + "\n", "utf-8")
    lex = ["--lexicon", str(p)]

    code, out, err = run(
        capsys, *lex, "stats", "--sentence-space", "1,1,0,0", "--without-particles"
    )
    assert (code, out, err) == (0, "56180\n", "")  # 106 * 106 * 5
    code, out, _ = run(capsys, *lex, "--format", "tsv", "stats", "--table", "pos")
    assert "NOUN\t57\t48" in out and "total\t139\t119" in out

    code, out, _ = run(capsys, *lex, "--format", "tsv", "tag", "kijetesantakalu li moku.")
    assert code == 0
    assert "kijetesantakalu\tNOUN" in out
    code, _, err = run(capsys, *lex, "tag", "akesi li moku.")
    assert code == 1
    assert "unknown word" in err

    code, _, _ = run(capsys, *lex, "highlight", "emit-vim", "--out", str(tmp_path / "vim"))
    assert code == 0
    syntax = (tmp_path / "vim" / "syntax" / "tokipona.vim").read_text("utf-8")
    keywords = {
        w for line in syntax.splitlines() if line.startswith("syn keyword")
        for w in line.split()[3:]
    }
    assert "kijetesantakalu" in keywords
    assert not keywords & DROPPED

    synth = ["--seed", "5", "synth", "--count", "50"]
    code, out, _ = run(capsys, *synth)
    assert DROPPED & set(re.findall(r"[a-z]+", out))  # the seed reaches them
    code, out, _ = run(capsys, *lex, *synth)
    assert code == 0
    assert not DROPPED & set(re.findall(r"[a-z]+", out))


@pytest.mark.parametrize("command", ["parse", "tag"])
def test_nesting_past_the_limit_is_an_error(capsys, command):
    text = "jan" + " pi ma suli" * (MAX_NESTING + 1) + " li moku."
    code, out, err = run(capsys, command, text)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: phrases nest more than {MAX_NESTING} deep (at 'pi', ")


def _parsers(parser, names=(), levels=()):
    """``parser`` and each parser under it, in the order they were added, each with
    the names of its subcommand path and the actions of every parser along that
    path but their help and subparsers, as ``test_cli_args_golden.py`` walks them."""
    levels += ([a for a in parser._actions
                if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))],)
    yield parser, names, levels
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parsers(sub, names + (name,), levels)


def test_every_help_renders():
    # Help strings are %-formatted only when rendered, so a stray % fails at --help.
    for parser, _, _ in _parsers(build_parser()):
        assert parser.format_help().startswith(f"usage: {parser.prog}")


# A parser without subparsers ends a subcommand path.
_SUBCOMMANDS = [(names, levels) for parser, names, levels in _parsers(build_parser())
                if parser._subparsers is None]
_EDGE_INTS = ("0", "-1", "1", str(2 ** 31), str(10 ** 7))
_EDGE_STRINGS = ("", " ", "a,1,1,1", "1,1", "-", "sitelén", "pona")
_SENTENCE_SPACES = ("2200,0,0,0", "10000000,0,0,0")  # past what prints
# A --lexicon that names no lexicon fails before the rest of the argv is read, so
# the bundled file is drawn as often as all the edge strings together; so are the
# sentence spaces past what prints, against the edge strings of N,V,O,P.
_LEXICON = str(resources.files("tokipona").joinpath("data", "lexicon.tsv"))
# Each of these sets the size of the output, so it is drawn from -1 to 3: --count
# the phrases or sentences printed, --sentences those of the paragraph, --stanzas
# and --verses the poem's, and -k the candidates of each round.
_OUTPUT_SIZE = ("--count", "--sentences", "--stanzas", "--verses", "-k")


def _value(action):
    if action.choices is not None:
        return hst.sampled_from([str(choice) for choice in action.choices])
    if action.option_strings and action.option_strings[0] in _OUTPUT_SIZE:
        return hst.integers(-1, 3).map(str)
    if action.type is int:
        return hst.sampled_from(_EDGE_INTS)
    if action.option_strings == ["--lexicon"]:
        return hst.one_of(hst.just(_LEXICON), hst.sampled_from(_EDGE_STRINGS))
    if action.metavar == "N,V,O,P":
        return hst.one_of(hst.sampled_from(_SENTENCE_SPACES), hst.sampled_from(_EDGE_STRINGS))
    return hst.sampled_from(_EDGE_STRINGS)


@hst.composite
def _argv(draw):
    """One subcommand path with a subset of its options and its positionals."""
    names, levels = draw(hst.sampled_from(_SUBCOMMANDS))
    argv = []
    for step, actions in zip([()] + [(name,) for name in names], levels):
        argv += step
        for action in actions:
            if not action.option_strings:
                low, high = {"+": (1, 3), "*": (0, 3), None: (1, 1)}[action.nargs]
                argv += draw(hst.lists(_value(action), min_size=low, max_size=high))
            elif action.required or draw(hst.booleans()):
                argv.append(action.option_strings[0])
                if action.nargs != 0:
                    argv.append(draw(_value(action)))
    return names, argv


@settings(max_examples=200, deadline=None)
@given(_argv())
# Inputs that were found by hand before this property, each once answered wrongly.
@example((("stats",), ["stats", "--sentence-space", ""]))
@example((("stats",), ["stats", "--sentence-space", "2200,0,0,0"]))
@example((("stats",), ["stats", "--sentence-space", "10000000,0,0,0"]))
@example((("highlight", "render"), ["highlight", "render", " "]))
def test_every_argv_is_answered_or_refused_at_once(command):
    """Any argv built from the parser's own arguments exits 0, 1 or 2 and raises
    nothing else; on 1 it ends with the CLI's own message, and it is quick."""
    names, argv = command
    out, err = io.StringIO(), io.StringIO()
    cwd, stdin = os.getcwd(), sys.stdin
    with tempfile.TemporaryDirectory() as work:  # emit-vim and --dump write files
        os.chdir(work)
        sys.stdin = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            elapsed = time.perf_counter() - start
            os.chdir(cwd)
            sys.stdin = stdin
    assert code in (0, 1, 2)
    if code != 1:
        return
    assert elapsed < 0.5
    if names == ("validate",) and not err.getvalue():
        assert "invalid" in out.getvalue()  # a word is invalid; its row says why
        return
    last = err.getvalue().splitlines()[-1]
    assert last.startswith("error: ")
    assert "invalid literal" not in last and "Exceeds the limit" not in last
