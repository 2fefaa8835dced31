"""Tokenizer, clause parser, pi-grouping enumeration, and rule-based POS tagging.

The parser is deterministic: one canonical tree per sentence, with
ambiguities (preposition vs. modifier, pre-verb vs. adverb, ...) reported
as diagnostics instead of parse forks.  Hard failures are reserved for
structural impossibilities and raise :class:`GrammarError`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional, Sequence, Union

from .lexicon import (
    Lexicon,
    PosTag,
    PREPOSITIONS,
    PREVERBS,
    PURE_PARTICLES,
    load_lexicon,
)
from .phonotactics import validate_proper_noun

_DEFAULT_LEXICON: Optional[Lexicon] = None


def default_lexicon() -> Lexicon:
    global _DEFAULT_LEXICON
    if _DEFAULT_LEXICON is None:
        _DEFAULT_LEXICON = load_lexicon()
    return _DEFAULT_LEXICON


# --- tokens ---------------------------------------------------------------

class TokenKind(Enum):
    WORD = "word"
    PROPER = "proper"
    PUNCT = "punct"
    COLON = "colon"
    ERROR = "error"


TERMINATORS = {".", "!", "?"}

_TOKEN_RE = re.compile(r"[A-Za-z]+|[.!?,:]|\S")


@dataclass(frozen=True)
class Token:
    surface: str
    kind: TokenKind
    start: int
    end: int
    note: Optional[str] = None

    def __str__(self) -> str:
        return self.surface


def tokenize(text: str, lex: Optional[Lexicon] = None) -> list[Token]:
    """Split ``text`` into word, proper-noun, and punctuation tokens.

    Unknown lowercase words and invalid capitalized forms become ERROR
    tokens carrying a note; tokenization itself never fails.
    """
    lex = lex or default_lexicon()
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
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


def detokenize(tokens: Sequence[Token]) -> str:
    """Render a token sequence; punctuation attaches to the previous token."""
    out: list[str] = []
    for tok in tokens:
        if out and tok.kind in (TokenKind.PUNCT, TokenKind.COLON):
            out[-1] += tok.surface
        else:
            out.append(tok.surface)
    return " ".join(out)


# --- diagnostics ----------------------------------------------------------

class Severity(Enum):
    NOTE = "note"
    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Diagnostic:
    severity: Severity
    message: str
    start: int = -1
    end: int = -1

    def __str__(self) -> str:
        where = f" @{self.start}..{self.end}" if self.start >= 0 else ""
        return f"{self.severity.value}: {self.message}{where}"


class GrammarError(ValueError):
    """A structural impossibility in the input sentence."""

    def __init__(self, message: str, token: Optional[Token] = None):
        if token is not None:
            message = f"{message} (at {token.surface!r}, {token.start}..{token.end})"
        super().__init__(message)
        self.token = token


@dataclass(frozen=True)
class ParseOptions:
    """Leniency switches; everything defaults to strict canon."""

    lenient_li: bool = False          # accept li after bare mi / sina
    colon_shorthand: bool = False     # accept ":" standing for "e ni:"
    pije_pi_possession: bool = False  # accept "li pi X" possession
    extended_en_anu: bool = False     # accept en/anu beyond canonical slots


LENIENT = ParseOptions(
    lenient_li=True, colon_shorthand=True, pije_pi_possession=True, extended_en_anu=True
)


# --- tags and parse tree ---------------------------------------------------

class TagValue(Enum):
    NOUN = "NOUN"
    ADJECTIVE = "ADJECTIVE"
    VERB = "VERB"
    ADVERB = "ADVERB"
    PREPOSITION = "PREPOSITION"
    PARTICLE = "PARTICLE"
    NUMBER = "NUMBER"
    PROPER = "PROPER"
    PUNCT = "PUNCT"


@dataclass(frozen=True)
class Hybrid:
    candidates: frozenset[TagValue]

    def __str__(self) -> str:
        names = "/".join(sorted(t.value for t in self.candidates))
        return f"HYBRID({names})"


Assignment = Union[TagValue, Hybrid]

HYBRID_NVA = Hybrid(frozenset({TagValue.NOUN, TagValue.VERB, TagValue.ADJECTIVE}))

TaggedToken = tuple[Token, Assignment]


class PhraseRole(Enum):
    NOUN_HEAD = "noun"
    VERB_HEAD = "verb"


@dataclass
class PiGroup:
    pi_token: Token
    inner: "PhraseNode"


@dataclass
class PhraseNode:
    head: Token
    modifiers: list[Union[Token, PiGroup]] = field(default_factory=list)
    role: PhraseRole = PhraseRole.NOUN_HEAD
    conj: list[tuple[Token, "PhraseNode"]] = field(default_factory=list)

    def walk(self, head: Assignment, mod: TagValue) -> Iterator[TaggedToken]:
        """Each token with its slot's tag: ``head`` for the head, ``mod`` for
        plain modifiers.  A pi group's phrase is tagged as a noun phrase; a
        conjoined phrase takes the same tags as this one."""
        yield self.head, head
        for m in self.modifiers:
            if isinstance(m, PiGroup):
                yield m.pi_token, TagValue.PARTICLE
                yield from m.inner.walk(TagValue.NOUN, TagValue.ADJECTIVE)
            else:
                yield m, mod
        for conj_tok, phrase in self.conj:
            yield conj_tok, TagValue.PARTICLE
            yield from phrase.walk(head, mod)

    def tokens(self) -> Iterator[Token]:
        return (tok for tok, _ in self.walk(TagValue.NOUN, TagValue.ADJECTIVE))

    def words(self) -> list[str]:
        return [t.surface for t in self.tokens()]

    def __str__(self) -> str:
        return " ".join(self.words())


@dataclass
class ObjectArg:
    marker: Token  # the introducing "e"
    phrase: PhraseNode
    lead_sep: Optional[Token] = None


@dataclass
class PrepPhrase:
    prep: Token
    complement: Optional[PhraseNode] = None
    lead_sep: Optional[Token] = None


Complement = Union[ObjectArg, PrepPhrase]


def _walk_complements(complements: Sequence[Complement]) -> Iterator[TaggedToken]:
    for c in complements:
        if c.lead_sep:
            yield c.lead_sep, TagValue.PUNCT
        if isinstance(c, ObjectArg):
            yield c.marker, TagValue.PARTICLE
            yield from c.phrase.walk(TagValue.NOUN, TagValue.ADJECTIVE)
        else:
            yield c.prep, TagValue.PREPOSITION
            if c.complement is not None:
                yield from c.complement.walk(HYBRID_NVA, TagValue.ADJECTIVE)


@dataclass
class Predicate:
    marker: Optional[Token]  # li or o; None when elided or in a fragment
    phrase: PhraseNode
    preverbs: list[Token] = field(default_factory=list)
    complements: list[Complement] = field(default_factory=list)
    possessive_pi: Optional[Token] = None  # "li pi X" possession
    lead_sep: Optional[Token] = None       # comma before a fragment continuation
    colon_object: bool = False             # trailing ":" standing for "e ni"

    @property
    def objects(self) -> list[PhraseNode]:
        return [c.phrase for c in self.complements if isinstance(c, ObjectArg)]

    @property
    def prepositional(self) -> list[PrepPhrase]:
        return [c for c in self.complements if isinstance(c, PrepPhrase)]


@dataclass
class Vocative:
    phrase: PhraseNode
    o_token: Token
    comma: Optional[Token] = None


@dataclass
class Clause:
    contexts: list["Clause"] = field(default_factory=list)
    la_token: Optional[Token] = None  # set when this clause conditions another
    vocative: Optional[Vocative] = None
    subject: Optional[PhraseNode] = None
    subject_complements: list[PrepPhrase] = field(default_factory=list)
    predicates: list[Predicate] = field(default_factory=list)
    tail: list[Token] = field(default_factory=list)  # trailing interjections
    terminator: Optional[Token] = None
    li_elided: bool = False
    question_focus: Optional[Token] = None

    @property
    def prepositional(self) -> list[tuple[Token, Optional[PhraseNode]]]:
        """All prepositional phrases of the clause, in reading order."""
        out = [(pp.prep, pp.complement) for pp in self.subject_complements]
        for pred in self.predicates:
            out += [(pp.prep, pp.complement) for pp in pred.prepositional]
        return out

    def walk(self) -> Iterator[TaggedToken]:
        """Every token of the clause, in reading order, with the tag its slot
        gives it (before :func:`pos_tag`'s proper-noun, seme and dictionary
        rules).  A context clause yields its own la last."""
        for ctx in self.contexts:
            yield from ctx.walk()
        if self.vocative:
            yield from self.vocative.phrase.walk(TagValue.NOUN, TagValue.ADJECTIVE)
            yield self.vocative.o_token, TagValue.PARTICLE
            if self.vocative.comma:
                yield self.vocative.comma, TagValue.PUNCT
        if self.subject:
            yield from self.subject.walk(TagValue.NOUN, TagValue.ADJECTIVE)
        yield from _walk_complements(self.subject_complements)
        for pred in self.predicates:
            if pred.lead_sep:
                yield pred.lead_sep, TagValue.PUNCT
            if pred.marker:
                yield pred.marker, TagValue.PARTICLE
            if pred.possessive_pi:
                yield pred.possessive_pi, TagValue.PARTICLE
            for pv in pred.preverbs:
                yield pv, TagValue.VERB
            head: Assignment
            if pred.marker is not None or pred.objects or pred.colon_object or pred.preverbs:
                # An explicit marker or an object leaves no doubt; the
                # noun/verb ambiguity comes from omitting li.
                head, mod = TagValue.VERB, TagValue.ADVERB
            elif self.subject is None and self.vocative is None and not self.li_elided:
                head, mod = TagValue.NOUN, TagValue.ADJECTIVE  # a fragment
            else:
                head, mod = HYBRID_NVA, TagValue.ADVERB
            yield from pred.phrase.walk(head, mod)
            yield from _walk_complements(pred.complements)
        for t in self.tail:
            yield t, TagValue.PUNCT if t.kind is TokenKind.PUNCT else TagValue.PARTICLE
        if self.terminator:
            yield self.terminator, TagValue.PUNCT
        if self.la_token:
            yield self.la_token, TagValue.PARTICLE

    def tokens(self) -> Iterator[Token]:
        return (tok for tok, _ in self.walk())

    # serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        def phrase_dict(p: PhraseNode) -> dict:
            return {
                "head": p.head.surface,
                "role": p.role.value,
                "modifiers": [
                    {"pi": phrase_dict(m.inner)} if isinstance(m, PiGroup) else m.surface
                    for m in p.modifiers
                ],
                "conj": [{c.surface: phrase_dict(ph)} for c, ph in p.conj],
            }

        def prep_dict(pp: PrepPhrase) -> dict:
            return {
                "prep": pp.prep.surface,
                "complement": phrase_dict(pp.complement) if pp.complement else None,
            }

        return {
            "contexts": [c.to_dict() for c in self.contexts],
            "vocative": phrase_dict(self.vocative.phrase) if self.vocative else None,
            "subject": phrase_dict(self.subject) if self.subject else None,
            "subject_preps": [prep_dict(pp) for pp in self.subject_complements],
            "li_elided": self.li_elided,
            "question_focus": self.question_focus.surface if self.question_focus else None,
            "predicates": [
                {
                    "marker": p.marker.surface if p.marker else None,
                    "preverbs": [t.surface for t in p.preverbs],
                    "phrase": phrase_dict(p.phrase),
                    "complements": [
                        {"object": phrase_dict(c.phrase)}
                        if isinstance(c, ObjectArg)
                        else prep_dict(c)
                        for c in p.complements
                    ],
                }
                for p in self.predicates
            ],
            "tail": [t.surface for t in self.tail],
            "terminator": self.terminator.surface if self.terminator else None,
        }

    def pretty(self, indent: str = "") -> str:
        lines: list[str] = []

        def phrase_lines(p: PhraseNode, pad: str, label: str):
            lines.append(f"{pad}{label}: {p.head.surface}")
            for m in p.modifiers:
                if isinstance(m, PiGroup):
                    phrase_lines(m.inner, pad + "    ", "pi")
                else:
                    lines.append(f"{pad}    mod: {m.surface}")
            for conj_tok, ph in p.conj:
                phrase_lines(ph, pad + "    ", conj_tok.surface)

        for ctx in self.contexts:
            lines.append(f"{indent}context:")
            lines.append(ctx.pretty(indent + "    "))
        if self.vocative:
            phrase_lines(self.vocative.phrase, indent, "vocative")
        if self.subject:
            phrase_lines(self.subject, indent, "subject")
        for pp in self.subject_complements:
            lines.append(f"{indent}prep: {pp.prep.surface}")
            if pp.complement:
                phrase_lines(pp.complement, indent + "    ", "complement")
        for p in self.predicates:
            marker = p.marker.surface if p.marker else ("(li)" if self.li_elided else "(none)")
            lines.append(f"{indent}predicate [{marker}]:")
            for pv in p.preverbs:
                lines.append(f"{indent}    preverb: {pv.surface}")
            phrase_lines(p.phrase, indent + "    ", "head")
            for c in p.complements:
                if isinstance(c, ObjectArg):
                    phrase_lines(c.phrase, indent + "    ", "object")
                else:
                    lines.append(f"{indent}    prep: {c.prep.surface}")
                    if c.complement:
                        phrase_lines(c.complement, indent + "        ", "complement")
        if self.tail:
            lines.append(f"{indent}tail: {' '.join(t.surface for t in self.tail)}")
        if not lines and self.terminator:  # an empty sentence
            lines.append(f"{indent}terminator: {self.terminator.surface}")
        return "\n".join(lines)


@dataclass
class ParseResult:
    clauses: list[Clause]
    diagnostics: list[Diagnostic]

    def problems(self) -> list[Diagnostic]:
        """Diagnostics at warning level or above (notes record ambiguities)."""
        return [d for d in self.diagnostics if d.severity is not Severity.NOTE]

    def tokens(self) -> list[Token]:
        return [tok for c in self.clauses for tok, _ in c.walk()]

    def text(self) -> str:
        return detokenize(self.tokens())


# --- the parser -----------------------------------------------------------

_INTERJECTIONS = {"a", "mu"}


class _ClauseParser:
    def __init__(self, opts: ParseOptions, diags: list[Diagnostic]):
        self.opts = opts
        self.diags = diags

    # helpers ------------------------------------------------------------

    def note(self, message: str, tok: Optional[Token] = None):
        self._emit(Severity.NOTE, message, tok)

    def warn(self, message: str, tok: Optional[Token] = None):
        self._emit(Severity.WARNING, message, tok)

    def _emit(self, sev: Severity, message: str, tok: Optional[Token]):
        if tok is not None:
            self.diags.append(Diagnostic(sev, message, tok.start, tok.end))
        else:
            self.diags.append(Diagnostic(sev, message))

    def is_word(self, tok: Token, surface: str) -> bool:
        return tok.kind is TokenKind.WORD and tok.surface == surface

    def is_preposition(self, tok: Token) -> bool:
        return tok.kind is TokenKind.WORD and tok.surface in PREPOSITIONS

    def is_pure_particle(self, tok: Token) -> bool:
        return tok.kind is TokenKind.WORD and tok.surface in PURE_PARTICLES

    def can_head(self, tok: Token) -> bool:
        """True when the token may head or continue a phrase."""
        if tok.kind is TokenKind.PROPER:
            return True
        if tok.kind is not TokenKind.WORD:
            return False
        if tok.surface in ("seme", "mu"):
            return True
        return tok.surface not in PURE_PARTICLES

    # phrase level --------------------------------------------------------

    def parse_phrase(
        self,
        toks: Sequence[Token],
        i: int,
        role: PhraseRole,
        clause: Clause,
        allow_conj: bool,
        in_pi: bool = False,
    ) -> tuple[PhraseNode, int]:
        head = toks[i]
        if not self.can_head(head):
            raise GrammarError("expected a content word to head a phrase", head)
        if head.kind is TokenKind.PROPER:
            self.note("proper noun used as a phrase head", head)
        if self.is_word(head, "mu"):
            self.warn("mu used as a content word (dictionary lists it only as a particle)", head)
        self._mark_question(head, clause)
        node = PhraseNode(head=head, role=role)
        i += 1
        while i < len(toks):
            tok = toks[i]
            if self.is_word(tok, "pi"):
                group, i = self._parse_pi_group(toks, i, role, clause)
                node.modifiers.append(group)
                continue
            if tok.kind is TokenKind.WORD and tok.surface in ("en", "anu"):
                # Canonical slots: anu in any noun slot; en in the subject
                # or inside a pi group.  Anything else is an extension.
                if role is PhraseRole.NOUN_HEAD:
                    canonical = tok.surface == "anu" or in_pi or allow_conj
                else:
                    canonical = False
                if not canonical and not self.opts.extended_en_anu:
                    self.warn(f"{tok.surface} outside its canonical slots", tok)
                conj_tok = tok
                i += 1
                if i >= len(toks) or not self.can_head(toks[i]):
                    raise GrammarError(f"{conj_tok.surface} must join two phrases", conj_tok)
                other, i = self.parse_phrase(toks, i, role, clause, allow_conj, in_pi)
                node.conj.append((conj_tok, other))
                continue
            if self.is_preposition(tok) and not in_pi:
                break  # post-phrase preposition opens a prepositional phrase
            if self.can_head(tok) and not self.is_word(tok, "mu"):
                self._mark_question(tok, clause)
                node.modifiers.append(tok)
                i += 1
                continue
            break
        return node, i

    def _parse_pi_group(
        self, toks: Sequence[Token], i: int, role: PhraseRole, clause: Clause
    ) -> tuple[PiGroup, int]:
        pi_tok = toks[i]
        i += 1
        if i >= len(toks) or not self.can_head(toks[i]):
            raise GrammarError("dangling pi at phrase end", pi_tok)
        inner, i = self.parse_phrase(toks, i, role, clause, allow_conj=False, in_pi=True)
        if not inner.modifiers and not inner.conj:
            self.warn("pi before a single final word is redundant", pi_tok)
        return PiGroup(pi_tok, inner), i

    def _mark_question(self, tok: Token, clause: Clause):
        if self.is_word(tok, "seme") and clause.question_focus is None:
            clause.question_focus = tok

    def parse_phrase_with_preps(
        self,
        toks: Sequence[Token],
        i: int,
        role: PhraseRole,
        clause: Clause,
        allow_conj: bool,
    ) -> tuple[PhraseNode, list[PrepPhrase], int]:
        phrase, i = self.parse_phrase(toks, i, role, clause, allow_conj)
        preps: list[PrepPhrase] = []
        while i < len(toks) and self.is_preposition(toks[i]):
            pp, i = self._parse_prep(toks, i, clause)
            preps.append(pp)
        return phrase, preps, i

    def _parse_prep(
        self, toks: Sequence[Token], i: int, clause: Clause, lead_sep: Optional[Token] = None
    ) -> tuple[PrepPhrase, int]:
        prep = toks[i]
        self.note(
            f"{prep.surface} read as a preposition; the modifier reading is also possible",
            prep,
        )
        i += 1
        complement: Optional[PhraseNode] = None
        if i < len(toks) and self.can_head(toks[i]):
            complement, i = self.parse_phrase(toks, i, PhraseRole.NOUN_HEAD, clause, allow_conj=False)
        return PrepPhrase(prep, complement, lead_sep), i

    # predicate level ------------------------------------------------------

    def parse_predicate(
        self,
        toks: Sequence[Token],
        i: int,
        marker: Optional[Token],
        clause: Clause,
        lead_sep: Optional[Token] = None,
    ) -> tuple[Predicate, int]:
        possessive = None
        if i < len(toks) and self.is_word(toks[i], "pi"):
            if marker is not None and self.opts.pije_pi_possession:
                possessive = toks[i]
                self.note("pi after li read as possession", toks[i])
                i += 1
            else:
                raise GrammarError("pi cannot start a predicate", toks[i])
        if i >= len(toks):
            raise GrammarError("empty predicate", marker)

        preverbs: list[Token] = []
        while (
            i + 1 < len(toks)
            and toks[i].kind is TokenKind.WORD
            and toks[i].surface in PREVERBS
            and possessive is None
            and self.can_head(toks[i + 1])
            and not self.is_word(toks[i + 1], "mu")
        ):
            preverbs.append(toks[i])
            self.note(
                f"{toks[i].surface} read as a pre-verb; the verb+adverb reading is equivalent",
                toks[i],
            )
            i += 1

        phrase, i = self.parse_phrase(toks, i, PhraseRole.VERB_HEAD, clause, allow_conj=False)
        pred = Predicate(
            marker=marker,
            phrase=phrase,
            preverbs=preverbs,
            possessive_pi=possessive,
            lead_sep=lead_sep,
        )
        while i < len(toks):
            tok = toks[i]
            sep: Optional[Token] = None
            if tok.kind is TokenKind.PUNCT and tok.surface == ",":
                if i + 1 < len(toks) and (
                    self.is_word(toks[i + 1], "e") or self.is_preposition(toks[i + 1])
                ):
                    sep, tok, i = tok, toks[i + 1], i + 1
                else:
                    break  # comma closes the predicate (fragment list or tail)
            if self.is_word(tok, "e"):
                marker_e = tok
                i += 1
                if i >= len(toks) or not self.can_head(toks[i]):
                    raise GrammarError("e must introduce an object phrase", marker_e)
                obj_phrase, i = self.parse_phrase(
                    toks, i, PhraseRole.NOUN_HEAD, clause, allow_conj=False
                )
                pred.complements.append(ObjectArg(marker_e, obj_phrase, sep))
                continue
            if self.is_preposition(tok):
                pp, i = self._parse_prep(toks, i, clause, sep)
                pred.complements.append(pp)
                continue
            break
        return pred, i

    # clause level ----------------------------------------------------------

    def parse_clause_body(self, toks: Sequence[Token], clause: Clause) -> None:
        n = len(toks)
        if n == 0:
            raise GrammarError("empty clause")

        # Pure interjection sentence: "a!", "mu mu!"
        if all(
            t.kind is TokenKind.WORD and t.surface in _INTERJECTIONS for t in toks
        ):
            clause.tail.extend(toks)
            self.note("interjection-only sentence")
            return

        # Trailing interjection: ... [,] a
        limit = n
        tail: list[Token] = []
        if (
            limit >= 2
            and toks[limit - 1].kind is TokenKind.WORD
            and toks[limit - 1].surface == "a"
        ):
            cut = limit - 1
            if cut >= 1 and toks[cut - 1].kind is TokenKind.PUNCT and toks[cut - 1].surface == ",":
                cut -= 1
            tail = list(toks[cut:limit])
            limit = cut
        toks = toks[:limit]
        n = len(toks)
        if n == 0:
            clause.tail.extend(tail)
            self.note("interjection-only sentence")
            return

        # e at clause start (before any predicate head) is impossible.
        first = toks[0]
        if self.is_word(first, "e"):
            raise GrammarError("e before any predicate", first)

        o_pos = next(
            (k for k, t in enumerate(toks) if self.is_word(t, "o")), None
        )
        li_pos = next(
            (k for k, t in enumerate(toks) if self.is_word(t, "li")), None
        )
        marker: Optional[Token]
        if self.is_word(first, "o"):
            # Imperative marked by a leading o.
            start, marker = 1, first
        elif self.is_word(first, "li"):
            # Subjectless continuation: leading li.
            self.note("subject omitted before li", first)
            start, marker = 1, first
        elif o_pos is not None and (li_pos is None or o_pos < li_pos):
            # Vocative: phrase o [,] ...
            phrase, i = self.parse_phrase(
                toks, 0, PhraseRole.NOUN_HEAD, clause, allow_conj=True
            )
            if i != o_pos:
                raise GrammarError("could not read the phrase before o", toks[i])
            comma = None
            start = o_pos + 1
            if start < n and toks[start].kind is TokenKind.PUNCT and toks[start].surface == ",":
                comma = toks[start]
                start += 1
            clause.vocative = Vocative(phrase, toks[o_pos], comma)
            if start >= n:
                self.note("vocative-only sentence", toks[o_pos])
                clause.tail.extend(tail)
                return
            marker = toks[start] if self.is_word(toks[start], "li") else None
            if marker is not None:
                start += 1
        elif li_pos is not None:
            # Subject ... li ...
            subject, preps, i = self.parse_phrase_with_preps(
                toks, 0, PhraseRole.NOUN_HEAD, clause, allow_conj=True
            )
            if i != li_pos:
                raise GrammarError("could not read the subject before li", toks[i])
            clause.subject = subject
            clause.subject_complements = preps
            bare = subject.head.surface in ("mi", "sina") and not subject.modifiers \
                and not subject.conj and not preps
            if bare and not self.opts.lenient_li:
                self.warn("li after a bare mi or sina is non-canonical", toks[li_pos])
            start, marker = li_pos + 1, toks[li_pos]
        elif first.kind is TokenKind.WORD and first.surface in ("mi", "sina") and n > 1:
            # Elided li after a bare mi / sina.
            clause.subject = PhraseNode(head=first, role=PhraseRole.NOUN_HEAD)
            clause.li_elided = True
            start, marker = 1, None
        else:
            # Fragment: comma-separated phrases, possibly with complements.
            self.note("incomplete sentence (no subject/predicate structure)", first)
            start, marker = 0, None

        i = self._parse_predicates(toks, start, marker, clause)
        if i < n:
            raise GrammarError("unparsed trailing material", toks[i])
        clause.tail.extend(tail)

    def _parse_predicates(
        self, toks: Sequence[Token], i: int, marker: Optional[Token], clause: Clause
    ) -> int:
        pred, i = self.parse_predicate(toks, i, marker, clause)
        clause.predicates.append(pred)
        while i < len(toks):
            tok = toks[i]
            if tok.kind is TokenKind.WORD and tok.surface in ("li", "o"):
                pred, i = self.parse_predicate(toks, i + 1, tok, clause)
            elif (
                tok.kind is TokenKind.PUNCT
                and tok.surface == ","
                and clause.subject is None
                and clause.predicates[0].marker is None
                and i + 1 < len(toks)
                and self.can_head(toks[i + 1])
            ):
                pred, i = self.parse_predicate(toks, i + 1, None, clause, lead_sep=tok)
            else:
                break
            clause.predicates.append(pred)
        return i


def parse(
    tokens: Sequence[Token],
    opts: ParseOptions = ParseOptions(),
    lex: Optional[Lexicon] = None,
) -> ParseResult:
    """Parse a token stream into clauses.

    One clause per sentence terminator; la-chains fold into ``contexts``
    (each earlier clause conditions the rest).  Ambiguities become NOTE
    diagnostics, non-canonical but readable constructs become WARNINGs,
    and structural impossibilities raise :class:`GrammarError`.  ``lex``
    is unused; it stays for callers that pass it by position.
    """
    diags: list[Diagnostic] = []
    parser = _ClauseParser(opts, diags)

    for tok in tokens:
        if tok.kind is TokenKind.ERROR:
            raise GrammarError(tok.note or "bad token", tok)

    clauses: list[Clause] = []
    sentence: list[Token] = []
    sentences: list[tuple[list[Token], Optional[Token]]] = []
    for tok in tokens:
        if tok.kind is TokenKind.COLON or (
            tok.kind is TokenKind.PUNCT and tok.surface in TERMINATORS
        ):
            sentences.append((sentence, tok))
            sentence = []
        else:
            sentence.append(tok)
    if sentence:
        sentences.append((sentence, None))

    for body, terminator in sentences:
        if not body:
            if terminator is not None:
                parser.warn("empty sentence", terminator)
                clauses.append(Clause(terminator=terminator))
            continue
        # Split at la into context clauses plus the main clause.
        segments: list[tuple[list[Token], Optional[Token]]] = []
        current: list[Token] = []
        for tok in body:
            if tok.kind is TokenKind.WORD and tok.surface == "la":
                segments.append((current, tok))
                current = []
            else:
                current.append(tok)
        segments.append((current, None))

        contexts: list[Clause] = []
        for seg, la_tok in segments[:-1]:
            if not seg:
                raise GrammarError("empty context clause before la", la_tok)
            ctx = Clause(la_token=la_tok)
            parser.parse_clause_body(seg, ctx)
            contexts.append(ctx)

        main_body, _ = segments[-1]
        clause = Clause(contexts=contexts, terminator=terminator)
        if not main_body:
            raise GrammarError("la must introduce a main clause", segments[-2][1])
        parser.parse_clause_body(main_body, clause)
        for ctx in contexts:
            if ctx.question_focus is not None and clause.question_focus is None:
                clause.question_focus = ctx.question_focus

        # ":" standing for "e ni:" straight after a predicate.
        if (
            terminator is not None
            and terminator.kind is TokenKind.COLON
            and clause.predicates
            and not clause.predicates[-1].complements
            and clause.predicates[-1].phrase.head.surface != "ni"
        ):
            if opts.colon_shorthand:
                clause.predicates[-1].colon_object = True
                parser.note("colon read as shorthand for 'e ni:'", terminator)
            else:
                parser.warn("colon shorthand for 'e ni:' is non-canonical", terminator)
        clauses.append(clause)

    return ParseResult(clauses, diags)


def parse_text(
    text: str,
    opts: ParseOptions = ParseOptions(),
    lex: Optional[Lexicon] = None,
) -> ParseResult:
    return parse(tokenize(text, lex), opts, lex)


# --- pi-grouping readings ---------------------------------------------------


def _as_tokens(phrase: Sequence[Union[Token, str]]) -> list[Token]:
    toks = []
    pos = 0
    for item in phrase:
        if isinstance(item, Token):
            toks.append(item)
        else:
            toks.append(
                Token(
                    item,
                    TokenKind.WORD,
                    pos,
                    pos + len(item),
                )
            )
            pos += len(item) + 1
    return toks


def pi_readings(phrase: Sequence[Union[Token, str]]) -> list[PhraseNode]:
    """All structurally consistent groupings of a phrase with pi particles.

    A pi group always extends to the next pi (or the end); each later
    group may qualify the phrase at any nesting level that is still
    open, so k groups admit a Catalan number of readings.  Readings are
    ordered deterministically, attaching to the outermost (leftmost)
    phrase first.
    """
    toks = _as_tokens(phrase)
    if not toks:
        raise GrammarError("empty phrase")
    segments: list[list[Token]] = [[]]
    pi_tokens: list[Token] = []
    for tok in toks:
        if tok.surface == "pi":
            pi_tokens.append(tok)
            segments.append([])
        else:
            segments[-1].append(tok)
    base, groups = segments[0], segments[1:]
    if not base:
        raise GrammarError("pi in initial position", pi_tokens[0] if pi_tokens else None)
    for k, g in enumerate(groups):
        if not g:
            raise GrammarError("dangling pi at phrase end", pi_tokens[k])

    def build(levels: Sequence[int]) -> PhraseNode:
        def make(seg: list[Token]) -> PhraseNode:
            return PhraseNode(head=seg[0], modifiers=list(seg[1:]))

        root = make(base)
        stack = [root]  # open phrases, outermost first
        for k, g in enumerate(groups):
            level = levels[k]
            del stack[level + 1:]
            inner = make(g)
            stack[level].modifiers.append(PiGroup(pi_tokens[k], inner))
            stack.append(inner)
        return root

    def level_vectors(k: int) -> Iterator[tuple[int, ...]]:
        if k == 0:
            yield ()
            return
        def rec(prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
            if len(prefix) == k:
                yield prefix
                return
            ceiling = (prefix[-1] + 1) if prefix else 0
            for lvl in range(ceiling + 1):
                yield from rec(prefix + (lvl,))
        yield from rec(())

    return [build(v) for v in level_vectors(len(groups))]


def render_grouping(phrase: PhraseNode) -> str:
    """Bracketed rendering of a phrase tree, for comparing readings."""
    parts = [phrase.head.surface]
    for m in phrase.modifiers:
        if isinstance(m, PiGroup):
            parts.append(f"[{render_grouping(m.inner)}]")
        else:
            parts.append(m.surface)
    for conj_tok, ph in phrase.conj:
        parts.append(conj_tok.surface)
        parts.append(render_grouping(ph))
    return " ".join(parts)


# --- POS tagging -------------------------------------------------------------


_DICT_TO_TAGVALUE = {
    PosTag.NOUN: TagValue.NOUN,
    PosTag.ADJECTIVE: TagValue.ADJECTIVE,
    PosTag.VERB: TagValue.VERB,
    PosTag.PRE: TagValue.VERB,
    PosTag.PREPOSITION: TagValue.PREPOSITION,
    PosTag.PARTICLE: TagValue.PARTICLE,
    PosTag.NUMBER: TagValue.NUMBER,
}


def pos_tag(
    clause: Clause,
    resolve_with_dictionary: bool = False,
    lex: Optional[Lexicon] = None,
) -> dict[Token, Assignment]:
    """Assign one tag (or hybrid) to every token of a parsed clause.

    Phrase heads in noun positions are nouns, later phrase words are
    adjectives (noun phrases) or adverbs (verb phrases), predicate heads
    are verbs when an object follows and noun/verb/adjective hybrids
    otherwise, as are the heads of preposition complements.
    With ``resolve_with_dictionary``, hybrids are narrowed by the
    lemma's dictionary tags whenever those decide the question.
    """
    lex = lex or default_lexicon()
    out: dict[Token, Assignment] = {}
    for tok, tag in clause.walk():
        if tok.kind is TokenKind.PROPER:
            tag = TagValue.PROPER
        elif tok.kind is TokenKind.WORD and tok.surface == "seme":
            # Particles keep their particle nature wherever they landed.
            tag = TagValue.PARTICLE
        elif resolve_with_dictionary and isinstance(tag, Hybrid):
            entry = lex.lookup(tok.surface)
            if entry is not None:
                narrowed = tag.candidates & {_DICT_TO_TAGVALUE[t] for t in entry.tags}
                if len(narrowed) == 1:
                    tag = next(iter(narrowed))
                elif narrowed:
                    tag = Hybrid(frozenset(narrowed))
        out[tok] = tag
    return out
