"""CLI behavior: dispatch, formats, exit codes, determinism."""

import json

import pytest

from tokipona.cli import main
from tokipona.stats import Scope, syllable_frequency
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

    code, _, err = run(capsys, "wordnet", "build", "--db", str(tmp_path / "none"))
    assert code == 1 and "error:" in err


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


def test_alternative_lexicon_path(capsys, tmp_path):
    from importlib import resources
    text = resources.files("tokipona").joinpath("data/lexicon.tsv").read_text("utf-8")
    p = tmp_path / "lex.tsv"
    p.write_text(text, "utf-8")
    code, out, _ = run(capsys, "--lexicon", str(p), "stats", "--table", "pos")
    assert code == 0
    bad = tmp_path / "bad.tsv"
    bad.write_text("surface\ttags\tgroup\tsenses\n", "utf-8")
    code, _, err = run(capsys, "--lexicon", str(bad), "stats", "--table", "pos")
    assert code == 1
    assert "lemma count" in err
