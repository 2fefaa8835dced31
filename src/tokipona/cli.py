"""Command-line entry point: one subcommand per capability.

Exit status: 0 on success, 2 on a usage error, and 1 when the library
raises a ValueError (every error class of the package is one) or an
OSError, with the message on stderr.  ``validate`` also exits 1 when a
word is invalid; its row gives the reason.  All randomized subcommands
honor --seed, so equal invocations produce byte-identical output.

Each subcommand imports the modules it uses when it runs, so one call
loads only those.  The choice lists of ``build_parser`` are the values of
their enums, written out for the same reason; the tests check that they
agree.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .lexicon import load_lexicon

FORMATS = ("text", "tsv", "json-lines")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tokipona",
        description="Toki Pona toolkit: statistics, grammar, synthesis, highlighting, wordnet",
    )
    p.add_argument("--lexicon", metavar="PATH", help="alternative lexicon TSV")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized commands")
    p.add_argument("--format", choices=FORMATS, default="text", help="output format")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("stats", help="vocabulary statistics and sentence-space size")
    q.set_defaults(run=_cmd_stats)
    q.add_argument("--table", choices=("pos", "syllables", "letters", "lengths"))
    q.add_argument("--scope", choices=("all", "first", "last", "middle"), default="all")
    q.add_argument("--restrict", choices=("all", "vowels", "consonants"), default="all")
    q.add_argument("--limit", type=int, help="show only the top rows")
    q.add_argument(
        "--sentence-space",
        metavar="N,V,O,P",
        help="phrase word counts for the sentence-space formula",
    )
    q.add_argument("--without-particles", action="store_true")

    q = sub.add_parser("syllabify", help="split words into syllables")
    q.set_defaults(run=_cmd_syllabify)
    q.add_argument("words", nargs="+")

    q = sub.add_parser("validate", help="check words against the syllable grammar")
    q.set_defaults(run=_cmd_validate)
    q.add_argument("--mode", choices=("strict", "paper"), default="strict")
    q.add_argument("--proper", action="store_true", help="validate as proper nouns")
    q.add_argument("words", nargs="+")

    q = sub.add_parser("count", help="count possible words by syllable count")
    q.set_defaults(run=_cmd_count)
    q.add_argument("--syllables", type=int, required=True)
    q.add_argument("--mode", choices=("strict", "paper"), default="paper")

    q = sub.add_parser("parse", help="parse sentences into clause trees")
    q.set_defaults(run=_cmd_parse)
    _add_parse_options(q)
    q.add_argument("text", nargs="*", help="sentence text (or use --stdin)")
    q.add_argument("--stdin", action="store_true")

    q = sub.add_parser("tag", help="POS-tag a sentence")
    q.set_defaults(run=_cmd_tag)
    _add_parse_options(q)
    q.add_argument("--no-dictionary", action="store_true", help="skip dictionary narrowing")
    q.add_argument("text", nargs="+")

    q = sub.add_parser("synth", help="synthesize text")
    q.set_defaults(run=_cmd_synth)
    q.add_argument(
        "--kind", choices=("phrase", "sentence", "paragraph", "poem"), default="sentence"
    )
    q.add_argument("--count", type=int, default=1, help="units to emit (phrase/sentence)")
    q.add_argument("--sentences", type=int, default=3, help="paragraph length")
    q.add_argument("--max-words", type=int)
    q.add_argument("--max-letters", type=int)
    q.add_argument("--stanzas", type=int, default=2)
    q.add_argument("--verses", type=int, default=4)
    q.add_argument("--phonemes", type=int, default=12, help="letters per verse")

    q = sub.add_parser("compose", help="interactive composition (stdin protocol)")
    q.set_defaults(run=_cmd_compose)
    q.add_argument("--unit", choices=("sentence", "verse"), default="sentence")
    q.add_argument("-k", type=int, default=3, help="candidates per round")

    q = sub.add_parser("highlight", help="emit or render highlight schemes")
    q.set_defaults(run=_cmd_highlight)
    hsub = q.add_subparsers(dest="action", required=True)
    e = hsub.add_parser("emit-vim", help="write syntax/ and ftdetect/ files")
    e.add_argument("--out", required=True, metavar="DIR")
    e.add_argument("--merge", choices=("full", "particles", "particles-preps"), default="full")
    r = hsub.add_parser("render", help="render colored text")
    r.add_argument("--mode", choices=("html", "ansi"), default="ansi")
    r.add_argument("--color-depth", type=int, choices=(16, 256), default=16)
    r.add_argument("text", nargs="+")

    q = sub.add_parser("wordnet", help="build synset mappings / show relations")
    q.set_defaults(run=_cmd_wordnet)
    modes = ("all", "noprep", "matched")
    wsub = q.add_subparsers(dest="action", required=True)
    b = wsub.add_parser("build", help="build a mapping against a WordNet directory")
    b.add_argument("--db", required=True, metavar="DIR")
    b.add_argument("--mode", choices=modes, default="all")
    b.add_argument("--dump", metavar="PATH", help="write the mapping as TSV")
    b.add_argument("--coverage", metavar="PATH", help="write the coverage report")
    lk = wsub.add_parser("lookup", help="synsets of one word")
    lk.add_argument("--db", required=True, metavar="DIR")
    lk.add_argument("--mode", choices=modes, default="all")
    lk.add_argument("word")
    wsub.add_parser("relations", help="static hyponym and antonym pairs")
    return p


def _add_parse_options(q: argparse.ArgumentParser):
    q.add_argument("--lenient", action="store_true", help="enable every leniency flag")
    q.add_argument("--lenient-li", action="store_true")
    q.add_argument("--colon-shorthand", action="store_true")
    q.add_argument("--pije-pi", action="store_true")
    q.add_argument("--extended-en-anu", action="store_true")


def _parse_options(args):
    from .grammar import LENIENT, ParseOptions

    if args.lenient:
        return LENIENT
    return ParseOptions(
        lenient_li=args.lenient_li,
        colon_shorthand=args.colon_shorthand,
        pije_pi_possession=args.pije_pi,
        extended_en_anu=args.extended_en_anu,
    )


def _emit_rows(header: list[str], rows: list[list[str]], fmt: str, out) -> None:
    if fmt == "tsv":
        print("\t".join(header), file=out)
        for row in rows:
            print("\t".join(row), file=out)
    elif fmt == "json-lines":
        import json

        for row in rows:
            print(json.dumps(dict(zip(header, row))), file=out)
    else:
        widths = [max(map(len, column)) for column in zip(header, *rows)]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)), file=out)
        for row in rows:
            print("  ".join(c.ljust(w) for c, w in zip(row, widths)), file=out)


def _text(args, stdin: bool = False) -> str:
    """The text arguments joined by spaces, then standard input if ``stdin``."""
    text = " ".join(args.text)
    if stdin:
        text = (text + " " + sys.stdin.read()).strip()
    if not text.strip():
        raise ValueError("no input text")
    return text


def _cmd_stats(args, lex, out) -> int:
    from . import stats as st

    if args.limit is not None and args.limit < 0:
        raise ValueError("--limit must not be negative")
    if args.sentence_space is not None:
        try:
            n, v, o, p = map(int, args.sentence_space.split(","))
        except ValueError:  # a count other than four, or a part int() refuses
            raise ValueError("--sentence-space expects four comma-separated integers") from None
        query = st.SentenceSpaceQuery(n, v, o, p, with_particles=not args.without_particles)
        words, most = n + v + o + p, _printable_words(lex, query.with_particles)
        if words > most:
            raise ValueError(f"--sentence-space prints at most {most} words in all, "
                             f"not {words}: the count would have too many digits")
        print(st.sentence_space(lex, query), file=out)
        return 0
    table = args.table or "pos"
    total: list[list[str]] = []  # kept after the limit, and counts every tag
    if table == "pos":
        header = ["pos", "all", "chosen"]
        rows = [[t.value, str(a), str(c)] for t, a, c in st.pos_histogram(lex)]
        total = [["total", *map(str, st.pos_totals(lex))]]
    elif table == "lengths":
        header = ["syllables", "count", "percent"]
        rows = [
            [str(n), str(c), st.format_percent(p)]
            for n, (c, p) in st.word_length_report(lex).items()
        ]
    else:
        scope = st.Scope(args.scope)
        if table == "syllables":
            t = st.syllable_frequency(lex, scope)
        else:
            t = st.letter_frequency(lex, scope, st.LetterRestrict(args.restrict))
        header = ["item", "count", "percent"]
        rows = [[r.item, str(r.count), st.format_percent(r.percent)] for r in t.rows]
    _emit_rows(header, rows[: args.limit] + total, args.format, out)
    return 0


def _printable_words(lex, with_particles: bool) -> int:
    """The largest total of phrase words whose exact sentence space Python prints: in
    at most ``sys.get_int_max_str_digits()`` digits, or 4,300 when that is 0 or missing."""
    from math import log10

    from . import stats as st

    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    limit = 10 ** digits
    one, two = (st.sentence_space(lex, st.SentenceSpaceQuery(words, 0, 0, 0, with_particles))
                for words in (1, 2))
    per_word = two // one
    # w words count one * per_word ** (w - 1): estimate the largest w, then settle it.
    words = int((digits - log10(one)) / log10(per_word)) + 1
    while words > 1 and one * per_word ** (words - 1) >= limit:
        words -= 1
    while one * per_word ** words < limit:
        words += 1
    return words


def _cmd_syllabify(args, lex, out) -> int:
    from .phonotactics import syllabify

    rows = []
    for word in args.words:
        syls = syllabify(word.lower())
        rows.append([word, "-".join(s.text for s in syls), str(len(syls))])
    _emit_rows(["word", "syllables", "count"], rows, args.format, out)
    return 0


def _cmd_validate(args, lex, out) -> int:
    from .phonotactics import CountingMode, validate_proper_noun, validate_word

    mode = CountingMode(args.mode)
    rows = []
    ok_all = True
    for word in args.words:
        if args.proper:
            ok = validate_proper_noun(word)
            reason = "" if ok else "not a valid proper noun"
        else:
            res = validate_word(word, mode)
            ok, reason = res.ok, res.reason or ""
        ok_all &= ok
        rows.append([word, "ok" if ok else "invalid", reason])
    _emit_rows(["word", "status", "reason"], rows, args.format, out)
    return 0 if ok_all else 1


def _cmd_count(args, lex, out) -> int:
    from .phonotactics import CountingMode, count_possible_words

    mode = CountingMode(args.mode)
    print(count_possible_words(args.syllables, mode), file=out)
    return 0


def _cmd_parse(args, lex, out) -> int:
    from .grammar import parse_text

    result = parse_text(_text(args, args.stdin), _parse_options(args), lex)
    for diag in result.diagnostics:
        print(str(diag), file=sys.stderr)
    if args.format == "json-lines":
        import json

        for clause in result.clauses:
            print(json.dumps(clause.to_dict()), file=out)
    else:
        for i, clause in enumerate(result.clauses):
            if i:
                print(file=out)
            print(clause.pretty(), file=out)
    return 0


def _cmd_tag(args, lex, out) -> int:
    from .grammar import TagValue, parse_text, pos_tag

    result = parse_text(_text(args), _parse_options(args), lex)
    rows = []
    for clause in result.clauses:
        assignment = pos_tag(clause, resolve_with_dictionary=not args.no_dictionary, lex=lex)
        for tok, value in assignment.items():
            label = value.value if isinstance(value, TagValue) else str(value)
            rows.append([tok.surface, label])
    _emit_rows(["token", "tag"], rows, args.format, out)
    return 0


def _cmd_synth(args, lex, out) -> int:
    from . import synth as sy

    if args.count < 1:
        raise ValueError("--count must be at least 1")
    cfg = sy.SynthConfig(seed=args.seed)
    synthesizer = sy.Synthesizer(cfg, lex)
    if args.kind == "phrase":
        for _ in range(args.count):
            print(" ".join(synthesizer.phrase_words()), file=out)
    elif args.kind == "sentence":
        for _ in range(args.count):
            print(synthesizer.sentence_text(), file=out)
    elif args.kind == "paragraph":
        spec = sy.ParagraphSpec(args.sentences, args.max_words, args.max_letters)
        print(synthesizer.synth_paragraph(spec), file=out)
    else:
        spec = sy.PoemSpec(args.stanzas, args.verses, args.phonemes)
        print(synthesizer.synth_poem(spec), file=out)
    return 0


def _cmd_compose(args, lex, out) -> int:
    from . import synth as sy

    cfg = sy.SynthConfig(seed=args.seed)
    synthesizer = sy.Synthesizer(cfg, lex)
    text = synthesizer.interactive_compose(
        unit=sy.ComposeUnit(args.unit), k=args.k, write=lambda s: out.write(s)
    )
    print(file=out)
    print(text, file=out)
    return 0


def _cmd_highlight(args, lex, out) -> int:
    from . import highlight as hl

    if args.action == "emit-vim":
        scheme = hl.build_scheme(lex, hl.MergeMode(args.merge))
        for folder, source in (("syntax", hl.emit_vim_syntax(scheme)),
                               ("ftdetect", hl.emit_filetype_detect())):
            path = Path(args.out) / folder / "tokipona.vim"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, "utf-8")
            print(f"wrote {path}", file=out)
        return 0
    text = _text(args)
    if args.mode == "html":
        out.write(hl.render_html(text, lex=lex))
    else:
        out.write(hl.render_ansi(text, lex=lex, color_depth=args.color_depth) + "\n")
    return 0


def _cmd_wordnet(args, lex, out) -> int:
    from . import wordnet as wn

    if args.action == "relations":
        table = wn.relations()
        rows = [["hyponym", a, b] for a, b in table.hyponym_pairs]
        rows += [["antonym", a, b] for a, b in table.antonym_pairs]
        _emit_rows(["relation", "word", "other"], rows, args.format, out)
        return 0
    if args.action == "lookup" and args.word not in lex:
        raise ValueError(f"{args.word!r} is not in the lexicon")
    db = wn.load_wordnet_db(args.db)
    for warning in db.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.action == "lookup":
        mapping = wn.build_mapping([lex.lookup(args.word)], db, wn.MappingMode(args.mode))
        for ref in sorted(mapping.synsets_of(args.word)):
            print(ref.key(), file=out)
        return 0
    mapping = wn.build_mapping(lex, db, wn.MappingMode(args.mode))
    print(f"database synsets: {db.total_synsets}", file=out)
    print(f"mapping mode: {mapping.mode.value}", file=out)
    print(f"mapped lemmas: {len(mapping.map)}", file=out)
    print(f"distinct synsets: {mapping.total_synsets}", file=out)
    print(f"unresolved glosses: {len(mapping.coverage_gaps)}", file=out)
    if args.dump:
        Path(args.dump).write_text(wn.dump_tsv(mapping), "utf-8")
        print(f"wrote {args.dump}", file=out)
    if args.coverage:
        Path(args.coverage).write_text(wn.coverage_report(mapping), "utf-8")
        print(f"wrote {args.coverage}", file=out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        lex = load_lexicon(args.lexicon)
        return args.run(args, lex, sys.stdout)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
