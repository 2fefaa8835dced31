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
from typing import Container, Iterator, Optional, Sequence, Union

from .lexicon import (
    Lexicon,
    PosTag,
    PREPOSITIONS,
    PREVERBS,
    PURE_PARTICLES,
    default_lexicon,
)
from .phonotactics import validate_proper_noun


# --- tokens ---------------------------------------------------------------

class TokenKind(Enum):
    WORD = "word"
    PROPER = "proper"
    PUNCT = "punct"
    COLON = "colon"
    ERROR = "error"


TERMINATORS = {".", "!", "?"}

_TOKEN_RE = re.compile(r"[A-Za-z]+|[.!?,:]|\S")


@dataclass(frozen=True, slots=True)
class Token:
    """One match of the tokenizer with its kind and, for ERROR, a note.

    Slotted: a token takes no attributes beyond its fields."""

    surface: str
    kind: TokenKind
    start: int
    end: int
    note: Optional[str] = None

    def __str__(self) -> str:
        return self.surface


def classify(surface: str, lex: Lexicon) -> tuple[TokenKind, Optional[str]]:
    """The kind and note of one tokenizer match under ``lex``.

    Lexicon membership is tested first: every lexicon surface is strict-valid
    lowercase, so a hit is a WORD and a lowercase miss is an unknown word."""
    if surface in lex:
        return TokenKind.WORD, None
    if surface == ":":
        return TokenKind.COLON, None
    if surface in TERMINATORS or surface == ",":
        return TokenKind.PUNCT, None
    if surface.isalpha():
        if surface == surface.lower():
            return TokenKind.ERROR, "unknown word"
        if validate_proper_noun(surface):
            return TokenKind.PROPER, None
        return TokenKind.ERROR, "invalid proper noun"
    return TokenKind.ERROR, "unexpected character"


def tokenize(text: str, lex: Optional[Lexicon] = None) -> list[Token]:
    """Split ``text`` into word, proper-noun, and punctuation tokens.

    Unknown lowercase words and invalid capitalized forms become ERROR
    tokens carrying a note; tokenization itself never fails.  Each distinct
    surface is classified once per call.
    """
    lex = lex or default_lexicon()
    kinds: dict[str, tuple[TokenKind, Optional[str]]] = {}
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        s = m.group()
        kind = kinds.get(s)
        if kind is None:
            kind = kinds[s] = classify(s, lex)
        tokens.append(Token(s, kind[0], m.start(), m.end(), kind[1]))
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


@dataclass(slots=True)
class PiGroup:
    pi_token: Token
    inner: "PhraseNode"


@dataclass(slots=True)
class PhraseNode:
    head: Token
    modifiers: list[Union[Token, PiGroup]] = field(default_factory=list)
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
    complements: list[PrepPhrase] = field(default_factory=list)


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

    @property
    def prepositional(self) -> list[tuple[Token, Optional[PhraseNode]]]:
        """All prepositional phrases of the clause, in reading order."""
        pps = (self.vocative.complements if self.vocative else []) + self.subject_complements
        out = [(pp.prep, pp.complement) for pp in pps]
        for pred in self.predicates:
            out += [(pp.prep, pp.complement) for pp in pred.prepositional]
        return out

    @property
    def question_focus(self) -> Optional[Token]:
        """The first seme of the clause's own phrases, else of its contexts'."""
        semes = [t for t in self.tokens() if _is_word(t, "seme")]
        in_contexts = sum(_is_word(t, "seme") for ctx in self.contexts for t in ctx.tokens())
        return (semes[in_contexts:] or semes or [None])[0]

    def walk(self) -> Iterator[TaggedToken]:
        """Every token of the clause, in reading order, with the tag its slot
        gives it (before :func:`pos_tag`'s proper-noun, seme and dictionary
        rules).  A context clause yields its own la last."""
        for ctx in self.contexts:
            yield from ctx.walk()
        if self.vocative:
            yield from self.vocative.phrase.walk(TagValue.NOUN, TagValue.ADJECTIVE)
            yield from _walk_complements(self.vocative.complements)
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
        """The clause as plain data.  Each phrase has role ``"verb"`` when it
        is a predicate's phrase or a pi group or ``en``/``anu`` phrase inside
        one, and role ``"noun"`` otherwise."""
        def phrase_dict(p: PhraseNode, role: str = "noun") -> dict:
            return {
                "head": p.head.surface,
                "role": role,
                "modifiers": [
                    {"pi": phrase_dict(m.inner, role)} if isinstance(m, PiGroup) else m.surface
                    for m in p.modifiers
                ],
                "conj": [{c.surface: phrase_dict(ph, role)} for c, ph in p.conj],
            }

        def prep_dict(pp: PrepPhrase) -> dict:
            return {
                "prep": pp.prep.surface,
                "complement": phrase_dict(pp.complement) if pp.complement else None,
            }

        return {
            "contexts": [c.to_dict() for c in self.contexts],
            "vocative": phrase_dict(self.vocative.phrase) if self.vocative else None,
            # Only present when the vocative has any, which keeps the record
            # of every other clause as it was before vocatives could have them.
            **({"vocative_preps": [prep_dict(pp) for pp in self.vocative.complements]}
               if self.vocative and self.vocative.complements else {}),
            "subject": phrase_dict(self.subject) if self.subject else None,
            "subject_preps": [prep_dict(pp) for pp in self.subject_complements],
            "li_elided": self.li_elided,
            "question_focus": self.question_focus.surface if self.question_focus else None,
            "predicates": [
                {
                    "marker": p.marker.surface if p.marker else None,
                    "preverbs": [t.surface for t in p.preverbs],
                    "phrase": phrase_dict(p.phrase, "verb"),
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

        def prep_lines(pp: PrepPhrase, pad: str):
            lines.append(f"{pad}prep: {pp.prep.surface}")
            if pp.complement:
                phrase_lines(pp.complement, pad + "    ", "complement")

        for ctx in self.contexts:
            lines.append(f"{indent}context:")
            lines.append(ctx.pretty(indent + "    "))
        if self.vocative:
            phrase_lines(self.vocative.phrase, indent, "vocative")
            for pp in self.vocative.complements:
                prep_lines(pp, indent)
        if self.subject:
            phrase_lines(self.subject, indent, "subject")
        for pp in self.subject_complements:
            prep_lines(pp, indent)
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
                    prep_lines(c, indent + "    ")
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

#: Subjects that take no li when they stand alone; synthesis reads them too.
LI_LESS_SUBJECTS = ("mi", "sina")


def _is_word(tok: Optional[Token], surface: str) -> bool:
    return tok is not None and tok.kind is TokenKind.WORD and tok.surface == surface


def _word_in(tok: Optional[Token], surfaces: Container[str]) -> bool:
    return tok is not None and tok.kind is TokenKind.WORD and tok.surface in surfaces


def _is_comma(tok: Optional[Token]) -> bool:
    return tok is not None and tok.kind is TokenKind.PUNCT and tok.surface == ","


def _can_head(tok: Optional[Token]) -> bool:
    """True when the token may head or continue a phrase."""
    if tok is None:
        return False
    if tok.kind is TokenKind.PROPER:
        return True
    return tok.kind is TokenKind.WORD and (
        tok.surface in ("seme", "mu") or tok.surface not in PURE_PARTICLES
    )


class _ClauseParser:
    """Recursive descent over one clause body at a time, through a cursor:
    ``peek`` looks ahead (``None`` past the end), ``take`` consumes."""

    def __init__(self, opts: ParseOptions):
        self.opts = opts
        self.diags: list[Diagnostic] = []
        self.toks: Sequence[Token] = ()
        self.i = 0

    # helpers ------------------------------------------------------------

    def peek(self, ahead: int = 0) -> Optional[Token]:
        j = self.i + ahead
        return self.toks[j] if j < len(self.toks) else None

    def take(self) -> Token:
        self.i += 1
        return self.toks[self.i - 1]

    def note(self, message: str, tok: Optional[Token] = None):
        self._emit(Severity.NOTE, message, tok)

    def warn(self, message: str, tok: Optional[Token] = None):
        self._emit(Severity.WARNING, message, tok)

    def _emit(self, sev: Severity, message: str, tok: Optional[Token]):
        where = () if tok is None else (tok.start, tok.end)
        self.diags.append(Diagnostic(sev, message, *where))

    # phrase level --------------------------------------------------------

    def phrase(self, allow_conj: bool, in_pi: bool = False, verb: bool = False) -> PhraseNode:
        head = self.peek()
        if not _can_head(head):
            raise GrammarError("expected a content word to head a phrase", head)
        if head.kind is TokenKind.PROPER:
            self.note("proper noun used as a phrase head", head)
        if _is_word(head, "mu"):
            self.warn("mu used as a content word (dictionary lists it only as a particle)", head)
        node = PhraseNode(self.take())
        while True:
            tok = self.peek()
            if _is_word(tok, "pi"):
                self.i += 1
                if not _can_head(self.peek()):
                    raise GrammarError("dangling pi at phrase end", tok)
                inner = self.phrase(allow_conj=False, in_pi=True, verb=verb)
                if not inner.modifiers and not inner.conj:
                    self.warn("pi before a single final word is redundant", tok)
                node.modifiers.append(PiGroup(tok, inner))
            elif _word_in(tok, ("en", "anu")):
                # Canonical slots: anu in any noun slot; en in the subject
                # or inside a pi group.  Anything else is an extension.
                canonical = not verb and (tok.surface == "anu" or in_pi or allow_conj)
                if not canonical and not self.opts.extended_en_anu:
                    self.warn(f"{tok.surface} outside its canonical slots", tok)
                self.i += 1
                if not _can_head(self.peek()):
                    raise GrammarError(f"{tok.surface} must join two phrases", tok)
                node.conj.append((tok, self.phrase(allow_conj, in_pi, verb)))
            elif _word_in(tok, PREPOSITIONS) and not in_pi:
                break  # post-phrase preposition opens a prepositional phrase
            elif _can_head(tok) and not _is_word(tok, "mu"):
                node.modifiers.append(self.take())
            else:
                break
        return node

    def prep(self, lead_sep: Optional[Token] = None) -> PrepPhrase:
        prep = self.take()
        self.note(
            f"{prep.surface} read as a preposition; the modifier reading is also possible",
            prep,
        )
        complement = None
        if _can_head(self.peek()):
            complement = self.phrase(allow_conj=False)
        return PrepPhrase(prep, complement, lead_sep)

    def preps(self) -> list[PrepPhrase]:
        """The prepositional phrases that follow a subject or a vocative."""
        out = []
        while _word_in(self.peek(), PREPOSITIONS):
            out.append(self.prep())
        return out

    # predicate level ------------------------------------------------------

    def predicate(self, marker: Optional[Token], lead_sep: Optional[Token] = None) -> Predicate:
        possessive = None
        if _is_word(self.peek(), "pi"):
            if marker is None or not self.opts.pije_pi_possession:
                raise GrammarError("pi cannot start a predicate", self.peek())
            possessive = self.take()
            self.note("pi after li read as possession", possessive)
        if self.peek() is None:
            raise GrammarError("empty predicate", marker)

        preverbs: list[Token] = []
        while (
            possessive is None
            and _word_in(self.peek(), PREVERBS)
            and _can_head(self.peek(1))
            and not _is_word(self.peek(1), "mu")
        ):
            pv = self.take()
            preverbs.append(pv)
            self.note(
                f"{pv.surface} read as a pre-verb; the verb+adverb reading is equivalent", pv
            )

        pred = Predicate(
            marker=marker,
            phrase=self.phrase(allow_conj=False, verb=True),
            preverbs=preverbs,
            possessive_pi=possessive,
            lead_sep=lead_sep,
        )
        while True:
            sep = None
            if _is_comma(self.peek()):
                if not (_is_word(self.peek(1), "e") or _word_in(self.peek(1), PREPOSITIONS)):
                    break  # comma closes the predicate (fragment list or tail)
                sep = self.take()
            tok = self.peek()
            if _is_word(tok, "e"):
                self.i += 1
                if not _can_head(self.peek()):
                    raise GrammarError("e must introduce an object phrase", tok)
                obj = self.phrase(allow_conj=False)
                pred.complements.append(ObjectArg(tok, obj, sep))
            elif _word_in(tok, PREPOSITIONS):
                pred.complements.append(self.prep(sep))
            else:
                break
        return pred

    # clause level ----------------------------------------------------------

    def clause_body(self, toks: list[Token], clause: Clause) -> None:
        """Parse one non-empty clause, without its la or terminator, into ``clause``."""
        # Pure interjection sentence: "a!", "mu mu!"
        if all(_word_in(t, _INTERJECTIONS) for t in toks):
            clause.tail.extend(toks)
            self.note("interjection-only sentence")
            return

        # Trailing interjection: ... [,] a
        tail: list[Token] = []
        if len(toks) >= 2 and _is_word(toks[-1], "a"):
            cut = -2 if _is_comma(toks[-2]) else -1
            toks, tail = toks[:cut], toks[cut:]
        if not toks:
            clause.tail.extend(tail)
            self.note("interjection-only sentence")
            return
        self.toks, self.i = toks, 0

        # e at clause start (before any predicate head) is impossible.
        first = toks[0]
        if _is_word(first, "e"):
            raise GrammarError("e before any predicate", first)

        # The first o or li tells a vocative from a subject.
        split = next((k for k, t in enumerate(toks) if _word_in(t, ("o", "li"))), None)
        marker: Optional[Token] = None
        if split == 0:
            # Imperative marked by a leading o, or a subjectless leading li.
            if first.surface == "li":
                self.note("subject omitted before li", first)
            marker = self.take()
        elif split is not None and toks[split].surface == "o":
            # Vocative: phrase [prep phrases] o [,] ...
            phrase = self.phrase(allow_conj=True)
            preps = self.preps()
            if self.i != split:
                raise GrammarError("could not read the phrase before o", self.peek())
            o_tok = self.take()
            comma = self.take() if _is_comma(self.peek()) else None
            clause.vocative = Vocative(phrase, o_tok, comma, preps)
            if self.peek() is None:
                self.note("vocative-only sentence", o_tok)
                clause.tail.extend(tail)
                return
            if _is_word(self.peek(), "li"):
                marker = self.take()
        elif split is not None:
            # Subject ... li ...
            subject = self.phrase(allow_conj=True)
            clause.subject_complements = self.preps()
            if self.i != split:
                raise GrammarError("could not read the subject before li", self.peek())
            clause.subject = subject
            bare = subject.head.surface in LI_LESS_SUBJECTS and not subject.modifiers \
                and not subject.conj and not clause.subject_complements
            if bare and not self.opts.lenient_li:
                self.warn("li after a bare mi or sina is non-canonical", toks[split])
            marker = self.take()
        elif _word_in(first, LI_LESS_SUBJECTS) and len(toks) > 1:
            # Elided li after a bare mi / sina.
            clause.subject = PhraseNode(self.take())
            clause.li_elided = True
        else:
            # Fragment: comma-separated phrases, possibly with complements.
            self.note("incomplete sentence (no subject/predicate structure)", first)

        fragment = clause.subject is None and marker is None
        sep = None
        while True:
            clause.predicates.append(self.predicate(marker, sep))
            tok = self.peek()
            if _word_in(tok, ("li", "o")):
                marker, sep = self.take(), None
            elif _is_comma(tok) and fragment and _can_head(self.peek(1)):
                marker, sep = None, self.take()
            else:
                break
        if tok is not None:
            raise GrammarError("unparsed trailing material", tok)
        clause.tail.extend(tail)

    # sentence level --------------------------------------------------------

    def sentence(self, body: list[Token], terminator: Optional[Token]) -> Clause:
        """One sentence: its la-separated context clauses, then its main clause."""
        if not body:
            self.warn("empty sentence", terminator)
            return Clause(terminator=terminator)
        contexts: list[Clause] = []
        start = 0
        for k, tok in enumerate(body):
            if _is_word(tok, "la"):
                if k == start:
                    raise GrammarError("empty context clause before la", tok)
                contexts.append(Clause(la_token=tok))
                self.clause_body(body[start:k], contexts[-1])
                start = k + 1
        if start == len(body):
            raise GrammarError("la must introduce a main clause", body[-1])
        clause = Clause(contexts=contexts, terminator=terminator)
        self.clause_body(body[start:], clause)

        # ":" standing for "e ni:" straight after a predicate.
        if (
            terminator is not None
            and terminator.kind is TokenKind.COLON
            and clause.predicates
            and not clause.predicates[-1].complements
            and clause.predicates[-1].phrase.head.surface != "ni"
        ):
            if self.opts.colon_shorthand:
                clause.predicates[-1].colon_object = True
                self.note("colon read as shorthand for 'e ni:'", terminator)
            else:
                self.warn("colon shorthand for 'e ni:' is non-canonical", terminator)
        return clause


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
    # Bad tokens are reported before any structural error, wherever they are.
    for tok in tokens:
        if tok.kind is TokenKind.ERROR:
            raise GrammarError(tok.note or "bad token", tok)

    parser = _ClauseParser(opts)
    clauses: list[Clause] = []
    body: list[Token] = []
    for tok in tokens:
        if tok.kind is TokenKind.COLON or (
            tok.kind is TokenKind.PUNCT and tok.surface in TERMINATORS
        ):
            clauses.append(parser.sentence(body, tok))
            body = []
        else:
            body.append(tok)
    if body:
        clauses.append(parser.sentence(body, None))
    return ParseResult(clauses, parser.diags)


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
            if item.kind not in (TokenKind.WORD, TokenKind.PROPER):
                raise GrammarError(f"not a word: {item.kind.value} token", item)
        elif item.isalnum():
            item = Token(item, TokenKind.WORD, pos, pos + len(item))
        else:
            raise GrammarError(f"not a single word: {item!r}")
        toks.append(item)
        pos = item.end + 1
    return toks


def pi_readings(phrase: Sequence[Union[Token, str]]) -> list[PhraseNode]:
    """All structurally consistent groupings of a phrase with pi particles.

    A pi group always extends to the next pi (or the end); each later
    group may qualify the phrase at any nesting level that is still
    open, so k groups admit a Catalan number of readings.  Readings are
    ordered deterministically, attaching to the outermost (leftmost)
    phrase first.

    Readings share the phrase objects of closed pi groups (path copying:
    each group copies only the open phrases it attaches through), so the
    returned trees are read-only: mutating one may change others.

    Each item must be one word: a WORD or PROPER token, or an
    alphanumeric string; anything else raises ``GrammarError``.
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
            message = ("dangling pi at phrase end" if k == len(groups) - 1
                       else "pi group has no words before the next pi")
            raise GrammarError(message, pi_tokens[k])

    # Each partial reading is its open spine, root first; the last group
    # attached to spine[i] holds spine[i + 1].  Extending the spines in
    # order, outermost level first, keeps the readings in that order.
    spines = [[PhraseNode(base[0], base[1:])]]
    for pi, g in zip(pi_tokens, groups):
        extended = []
        for spine in spines:
            for level in range(len(spine)):
                leaf = PhraseNode(g[0], g[1:])
                node = spine[level]
                path = [leaf, PhraseNode(node.head, node.modifiers + [PiGroup(pi, leaf)])]
                for node in reversed(spine[:level]):
                    group = PiGroup(node.modifiers[-1].pi_token, path[-1])
                    path.append(PhraseNode(node.head, node.modifiers[:-1] + [group]))
                path.reverse()
                extended.append(path)
        spines = extended
    return [spine[0] for spine in spines]


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
