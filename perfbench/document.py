"""Workload ``document``: a full library pass over the frozen document.

Each paragraph is one operation: tokenize -> parse (LENIENT) -> pos_tag per
clause -> render_ansi and render_html.  The grammar and highlight layers do
the work; nothing here calls the synthesizer.
"""

from __future__ import annotations

import html
import random
import re
import statistics

from common import HERE, SGR_RE, TOKEN_RE, Outcome, PassSample, Stopwatch
from spans import OFF

from tokipona import (
    GrammarError,
    build_scheme,
    load_lexicon,
    parse,
    pos_tag,
    render_ansi,
    render_html,
    tokenize,
)
from tokipona.grammar import LENIENT, Severity

SETUP_EXTRA = "tokipona.build_scheme(lex)"
_PRE_RE = re.compile(r"<pre>(.*)</pre>", re.S)
_TAG_RE = re.compile(r"<[^>]+>")


def _nonspace(text: str) -> str:
    return "".join(text.split())


class Document:
    def __init__(self, seed: int, smoke: bool):
        text = (HERE / "data" / "document.txt").read_text("utf-8")
        paragraphs = [" ".join(p.split("\n")) for p in text.strip().split("\n\n")]
        if smoke:
            paragraphs = paragraphs[:2] + paragraphs[-1:]
        random.Random(seed).shuffle(paragraphs)
        self.paragraphs = [
            (p, _nonspace(p), sum(p.count(t) for t in ".!?:"),
             [m.span() for m in TOKEN_RE.finditer(p)])
            for p in paragraphs
        ]
        self.lex = load_lexicon()
        self.scheme = build_scheme(self.lex)

    def layer_setup(self, rec) -> dict[str, float]:
        """Time scheme building on its own; the document's set-up does it once."""
        for _ in range(5):
            with rec.span("highlight.build_scheme"):
                build_scheme(self.lex)
        return {"highlight.build_scheme_ms":
                statistics.median(rec.durations("highlight.build_scheme")) * 1e3}

    def one_pass(self, rec, outcome: Outcome, watch: Stopwatch) -> PassSample:
        lex, scheme = self.lex, self.scheme
        sample = PassSample()
        since = 0 if rec is OFF else len(rec.spans)
        counts = dict.fromkeys(("tokens", "clauses", "notes", "warnings", "roundtrip_mismatches"), 0)
        for text, nonspace, n_sentences, spans in self.paragraphs:
            try:
                with watch:
                    with rec.span("grammar.tokenize"):
                        tokens = tokenize(text, lex)
                    with rec.span("grammar.parse"):
                        result = parse(tokens, LENIENT, lex)
                    with rec.span("grammar.pos_tag"):
                        tags = [pos_tag(c, lex=lex) for c in result.clauses]
                    with rec.span("highlight.render_ansi"):
                        ansi = render_ansi(text, scheme=scheme, lex=lex)
                    with rec.span("highlight.render_html"):
                        page = render_html(text, scheme=scheme, lex=lex)
            except GrammarError as exc:
                outcome.fail(f"GrammarError: {exc}", wrong=False)
                continue

            counts["tokens"] += len(tokens)
            counts["clauses"] += sum(1 + len(c.contexts) for c in result.clauses)
            for d in result.diagnostics:
                counts["notes"] += d.severity is Severity.NOTE
                counts["warnings"] += d.severity is Severity.WARNING
            problems = []
            if _nonspace(result.text()) != nonspace:
                counts["roundtrip_mismatches"] += 1
                problems.append("parse does not round-trip")
            if len(result.clauses) != n_sentences:
                problems.append(f"{len(result.clauses)} sentences, {n_sentences} terminators")
            tagged = sorted((t.start, t.end) for a in tags for t in a)
            if tagged != spans:
                problems.append("pos_tag does not tag every token once")
            if SGR_RE.sub("", ansi) != text:
                problems.append("render_ansi changes the text")
            body = _PRE_RE.search(page)
            if body is None or html.unescape(_TAG_RE.sub("", body.group(1))) != text:
                problems.append("render_html changes the text")
            if problems:
                outcome.fail(f"{'; '.join(problems)}: {text[:60]!r}", wrong=True)
                continue
            outcome.ok()
            sample.items += n_sentences
            sample.busy_s += watch.seconds
            sample.calls_ms.append(watch.scaled * 1e3)
        sample.heavy_s = sample.busy_s

        if rec is not OFF:
            def total_ms(name):
                return sum(rec.durations(name, since)) * 1e3
            layers = {f"grammar.{k}": float(v) for k, v in counts.items()}
            layers["grammar.tokenize_ms"] = total_ms("grammar.tokenize")
            layers["grammar.tokenize_us_per_token"] = total_ms("grammar.tokenize") * 1e3 / max(1, counts["tokens"])
            layers["grammar.parse_ms"] = total_ms("grammar.parse")
            layers["grammar.parse_us_per_sentence"] = total_ms("grammar.parse") * 1e3 / max(1, sample.items)
            layers["grammar.pos_tag_ms"] = total_ms("grammar.pos_tag")
            layers["highlight.render_ansi_ms"] = total_ms("highlight.render_ansi")
            layers["highlight.render_html_ms"] = total_ms("highlight.render_html")
            sample.layers = layers
        return sample
