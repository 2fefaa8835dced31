"""Tokenizer, clause parser, pi-grouping enumeration, and rule-based POS tagging.

The parser is deterministic: one canonical tree per sentence, with
ambiguities (preposition vs. modifier, pre-verb vs. adverb, ...) reported
as diagnostics instead of parse forks.  Hard failures are reserved for
structural impossibilities and raise :class:`GrammarError`.
"""

from __future__ import annotations

import re
from enum import Enum
from math import comb
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

from .lexicon import (
    Lexicon,
    LI_LESS_SUBJECTS,
    PosTag,
    PREPOSITIONS,
    PREVERBS,
    PURE_PARTICLES,
    default_lexicon,
)
from .phonotactics import TOKEN_PATTERN, validate_proper_noun


# --- tokens ---------------------------------------------------------------

class TokenKind(Enum):
    WORD = "word"
    PROPER = "proper"
    PUNCT = "punct"
    COLON = "colon"
    ERROR = "error"


TERMINATORS = {".", "!", "?"}
_TOKEN_RE = re.compile(TOKEN_PATTERN)


class _Node:
    """The dataclass methods over the fields ``__slots__`` names: ``==`` by class and
    fields (so, defining ``__eq__``, no hash), a ``Name(field=value, ...)`` repr, and an
    ``__init__`` compiled once per subclass, as ``collections.namedtuple`` does.
    ``_defaults`` gives each field that may be left out its default: ``None``,
    ``False``, or ``list`` for a new empty list (also when ``None`` is passed)."""

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        params, body = [], []
        for name in cls.__slots__:
            default = cls._defaults.get(name, ...)  # ... for a required field
            params.append(name if default is ... else
                          f"{name}={None if default is list else default!r}")
            body.append(f"self.{name} = [] if {name} is None else {name}" if default is list
                        else f"self.{name} = {name}")
        exec(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body),
             {"__name__": cls.__module__}, namespace := {})
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self.__slots__
        return [getattr(self, n) for n in names] == [getattr(other, n) for n in names]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Token(_Node):
    """One match of the tokenizer with its kind and, for ERROR, a note: read-only
    by contract, and not frozen because a document pass builds one per word.  The
    hash reads ``surface``, ``start`` and ``end`` only (equal tokens still hash
    equal), which spares hashing the enum."""

    __slots__ = ("surface", "kind", "start", "end", "note")
    _defaults = {"note": None}

    def __hash__(self) -> int:
        return hash((self.surface, self.start, self.end))

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
    lex = default_lexicon() if lex is None else lex
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
        if out and tok.kind in _ATTACHING_KINDS:
            out[-1] += tok.surface
        else:
            out.append(tok.surface)
    return " ".join(out)


# --- diagnostics ----------------------------------------------------------

class Severity(Enum):
    NOTE = "note"
    WARNING = "warning"
    ERROR = "error"


class Diagnostic(NamedTuple):
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


class ParseOptions(NamedTuple):
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


class Hybrid(NamedTuple):
    candidates: frozenset[TagValue]

    def __str__(self) -> str:
        names = "/".join(sorted(t.value for t in self.candidates))
        return f"HYBRID({names})"


Assignment = Union[TagValue, Hybrid]

HYBRID_NVA = Hybrid(frozenset({TagValue.NOUN, TagValue.VERB, TagValue.ADJECTIVE}))

TaggedToken = tuple[Token, Assignment]


# The tag fold and the loops over every token read these names: a global read,
# where ``TagValue.NOUN`` costs a descriptor call (about ten times as long on
# Python 3.11).
_NOUN, _ADJECTIVE, _VERB = TagValue.NOUN, TagValue.ADJECTIVE, TagValue.VERB
_ADVERB, _PREPOSITION = TagValue.ADVERB, TagValue.PREPOSITION
_PARTICLE, _PUNCT = TagValue.PARTICLE, TagValue.PUNCT
_ERROR_KIND, _PROPER_KIND = TokenKind.ERROR, TokenKind.PROPER
_ATTACHING_KINDS = (TokenKind.PUNCT, TokenKind.COLON)  # detokenize's punctuation


class PiGroup(_Node):
    __slots__ = ("pi_token", "inner")


class PhraseNode(_Node):
    # modifiers: each a Token or a PiGroup; conj: (en or anu Token, PhraseNode) pairs
    __slots__ = ("head", "modifiers", "conj")
    _defaults = {"modifiers": list, "conj": list}

    def _tag(self, head: Assignment, mod: TagValue, out: list[TaggedToken]) -> list[TaggedToken]:
        """Append each token with its slot's tag to ``out``: ``head`` for the
        head, ``mod`` for plain modifiers.  A pi group's phrase is tagged as a
        noun phrase; a conjoined phrase takes the same tags as this one."""
        out.append((self.head, head))
        for m in self.modifiers:
            if isinstance(m, PiGroup):
                out.append((m.pi_token, _PARTICLE))
                m.inner._tag(_NOUN, _ADJECTIVE, out)
            else:
                out.append((m, mod))
        for conj_tok, phrase in self.conj:
            out.append((conj_tok, _PARTICLE))
            phrase._tag(head, mod, out)
        return out

    def tokens(self) -> Iterator[Token]:
        return (tok for tok, _ in self._tag(_NOUN, _ADJECTIVE, []))

    def words(self) -> list[str]:
        return [t.surface for t in self.tokens()]

    def __str__(self) -> str:
        return " ".join(self.words())


class ObjectArg(_Node):
    __slots__ = ("marker", "phrase", "lead_sep")  # marker: the introducing "e"
    _defaults = {"lead_sep": None}


class PrepPhrase(_Node):
    __slots__ = ("prep", "complement", "lead_sep")
    _defaults = {"complement": None, "lead_sep": None}


Complement = Union[ObjectArg, PrepPhrase]


def _tag_complements(complements: Sequence[Complement], out: list[TaggedToken]) -> None:
    for c in complements:
        if c.lead_sep:
            out.append((c.lead_sep, _PUNCT))
        if isinstance(c, ObjectArg):
            out.append((c.marker, _PARTICLE))
            c.phrase._tag(_NOUN, _ADJECTIVE, out)
        else:
            out.append((c.prep, _PREPOSITION))
            if c.complement is not None:
                c.complement._tag(HYBRID_NVA, _ADJECTIVE, out)


class Predicate(_Node):
    __slots__ = ("marker",         # li or o; None when elided or in a fragment
                 "phrase", "preverbs",
                 "complements",    # each an ObjectArg or a PrepPhrase
                 "possessive_pi",  # "li pi X" possession
                 "lead_sep",       # comma before a fragment continuation
                 "colon_object")   # trailing ":" standing for "e ni"
    _defaults = {"preverbs": list, "complements": list, "possessive_pi": None,
                 "lead_sep": None, "colon_object": False}

    @property
    def objects(self) -> list[PhraseNode]:
        return [c.phrase for c in self.complements if isinstance(c, ObjectArg)]


class Vocative(_Node):
    __slots__ = ("phrase", "o_token", "comma", "complements")  # complements: PrepPhrases
    _defaults = {"comma": None, "complements": list}


class Clause(_Node):
    # la_token: set when this clause conditions another; tail: trailing interjections
    __slots__ = ("contexts", "la_token", "vocative", "subject", "subject_complements",
                 "predicates", "tail", "terminator", "li_elided")
    _defaults = {"contexts": list, "la_token": None, "vocative": None, "subject": None,
                 "subject_complements": list, "predicates": list, "tail": list,
                 "terminator": None, "li_elided": False}

    @property
    def question_focus(self) -> Optional[Token]:
        """The first seme of the clause's own phrases, else of its contexts'."""
        semes = [t for t in self.tokens() if t.surface == "seme"]
        in_contexts = sum(t.surface == "seme" for ctx in self.contexts for t in ctx.tokens())
        return (semes[in_contexts:] or semes or [None])[0]

    def walk(self) -> Iterator[TaggedToken]:
        """Every token of the clause, in reading order, with the tag its slot
        gives it (before :func:`pos_tag`'s proper-noun, seme and dictionary
        rules).  A context clause gives its own la last.  One fold over the
        tree appends the pairs to a list, and this iterates over it."""
        return iter(self._tag([]))

    def _tag(self, out: list[TaggedToken]) -> list[TaggedToken]:
        for ctx in self.contexts:
            ctx._tag(out)
        if self.vocative:
            self.vocative.phrase._tag(_NOUN, _ADJECTIVE, out)
            _tag_complements(self.vocative.complements, out)
            out.append((self.vocative.o_token, _PARTICLE))
            if self.vocative.comma:
                out.append((self.vocative.comma, _PUNCT))
        if self.subject:
            self.subject._tag(_NOUN, _ADJECTIVE, out)
        _tag_complements(self.subject_complements, out)
        for pred in self.predicates:
            if pred.lead_sep:
                out.append((pred.lead_sep, _PUNCT))
            if pred.marker:
                out.append((pred.marker, _PARTICLE))
            if pred.possessive_pi:
                out.append((pred.possessive_pi, _PARTICLE))
            out += [(pv, _VERB) for pv in pred.preverbs]
            head: Assignment
            if pred.marker is not None or pred.objects or pred.colon_object or pred.preverbs:
                # An explicit marker or an object leaves no doubt; the
                # noun/verb ambiguity comes from omitting li.
                head, mod = _VERB, _ADVERB
            elif self.subject is None and self.vocative is None and not self.li_elided:
                head, mod = _NOUN, _ADJECTIVE  # a fragment
            else:
                head, mod = HYBRID_NVA, _ADVERB
            pred.phrase._tag(head, mod, out)
            _tag_complements(pred.complements, out)
        out += [(t, _PUNCT if t.kind is TokenKind.PUNCT else _PARTICLE) for t in self.tail]
        if self.terminator:
            out.append((self.terminator, _PUNCT))
        if self.la_token:
            out.append((self.la_token, _PARTICLE))
        return out

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

        focus = self.question_focus
        return {
            "contexts": [c.to_dict() for c in self.contexts],
            "vocative": phrase_dict(self.vocative.phrase) if self.vocative else None,
            # This key, possessive_pi and colon_object are present only when
            # set, which keeps the record of every other clause as it was.
            **({"vocative_preps": [prep_dict(pp) for pp in self.vocative.complements]}
               if self.vocative and self.vocative.complements else {}),
            "subject": phrase_dict(self.subject) if self.subject else None,
            "subject_preps": [prep_dict(pp) for pp in self.subject_complements],
            "li_elided": self.li_elided,
            "question_focus": focus.surface if focus else None,
            "predicates": [
                {
                    "marker": p.marker.surface if p.marker else None,
                    **({"possessive_pi": True} if p.possessive_pi else {}),
                    "preverbs": [t.surface for t in p.preverbs],
                    "phrase": phrase_dict(p.phrase, "verb"),
                    "complements": [
                        {"object": phrase_dict(c.phrase)}
                        if isinstance(c, ObjectArg)
                        else prep_dict(c)
                        for c in p.complements
                    ],
                    **({"colon_object": True} if p.colon_object else {}),
                }
                for p in self.predicates
            ],
            "tail": [t.surface for t in self.tail],
            "terminator": self.terminator.surface if self.terminator else None,
        }

    def pretty(self) -> str:
        """The indented text form: :func:`render_record` of :meth:`to_dict`, so
        that it shows nothing the record does not hold."""
        return render_record(self.to_dict())


def render_record(record: dict) -> str:
    """A clause record, as :meth:`Clause.to_dict` returns it, as an indented tree."""
    lines: list[str] = []

    def phrase(p: dict, pad: str, label: str):
        lines.append(f"{pad}{label}: {p['head']}")
        for m in p["modifiers"] + p["conj"]:
            if isinstance(m, str):
                lines.append(f"{pad}    mod: {m}")
            else:  # a phrase under its pi, en or anu: {"pi": phrase}
                for word, inner in m.items():
                    phrase(inner, pad + "    ", word)

    def prep(pp: dict, pad: str):
        lines.append(f"{pad}prep: {pp['prep']}")
        if pp["complement"]:
            phrase(pp["complement"], pad + "    ", "complement")

    def clause(c: dict, pad: str):
        start = len(lines)
        for ctx in c["contexts"]:
            lines.append(f"{pad}context:")
            clause(ctx, pad + "    ")
        for slot in ("vocative", "subject"):
            if c[slot]:
                phrase(c[slot], pad, slot)
            for pp in c.get(f"{slot}_preps", ()):
                prep(pp, pad)
        for p in c["predicates"]:
            marker = p["marker"] or ("(li)" if c["li_elided"] else "(none)")
            lines.append(f"{pad}predicate [{marker}]:")
            if p.get("possessive_pi"):
                lines.append(f"{pad}    possessive: pi")
            lines.extend(f"{pad}    preverb: {pv}" for pv in p["preverbs"])
            phrase(p["phrase"], pad + "    ", "head")
            for comp in p["complements"]:
                if "object" in comp:
                    phrase(comp["object"], pad + "    ", "object")
                else:
                    prep(comp, pad + "    ")
            if p.get("colon_object"):
                lines.append(f"{pad}    object: (the colon, for e ni)")
        if c["tail"]:
            lines.append(f"{pad}tail: {' '.join(c['tail'])}")
        if len(lines) == start and c["terminator"]:  # an empty sentence
            lines.append(f"{pad}terminator: {c['terminator']}")

    clause(record, "")
    return "\n".join(lines)


class ParseResult(_Node):
    __slots__ = ("clauses", "diagnostics")

    def problems(self) -> list[Diagnostic]:
        """Diagnostics at warning level or above (notes record ambiguities).
        No library code calls it: README "Parsing" documents it for users."""
        return [d for d in self.diagnostics if d.severity is not Severity.NOTE]

    def tokens(self) -> list[Token]:
        return [tok for c in self.clauses for tok, _ in c.walk()]

    def text(self) -> str:
        return detokenize(self.tokens())


# --- the parser -----------------------------------------------------------

_INTERJECTIONS = {"a", "mu"}

#: How deep pi, en and anu phrases may nest: far past real text, and well inside
#: the recursion limit for every walk of a parse (``to_dict``, ``pos_tag``, ...).
MAX_NESTING = 100


# The parser reads surfaces, not token kinds.  ``parse`` has already raised on
# every ERROR token and split the text at ".!?:", so a clause body holds only
# WORD and PROPER tokens and ",", and their surfaces tell them apart: every
# lexicon word is lowercase (``Lexicon`` holds strict-valid words only), a
# name starts with a capital (``validate_proper_noun``), and "," is no letter.
# A surface (``None`` past the end) may head or continue a phrase unless it is one of these.
_NON_HEADS = {None, ","} | (PURE_PARTICLES - {"seme", "mu"})


class _ClauseParser:
    """Recursive descent over one clause body at a time, through a cursor:
    ``peek`` looks ahead at a surface (``None`` past the end), ``take``
    consumes a token."""

    def __init__(self, opts: ParseOptions):
        self.opts = opts
        self.diags: list[Diagnostic] = []
        self.toks: Sequence[Token] = ()
        self.words: Sequence[Optional[str]] = ()
        self.i = 0

    # helpers ------------------------------------------------------------

    def peek(self, ahead: int = 0) -> Optional[str]:
        # clause_body ends the surfaces with two None: peek looks one ahead at most.
        return self.words[self.i + ahead]

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

    def phrase(self, allow_conj: bool, in_pi: bool = False, verb: bool = False,
               depth: int = 0) -> PhraseNode:
        if depth > MAX_NESTING:
            raise GrammarError(f"phrases nest more than {MAX_NESTING} deep", self.toks[self.i - 1])
        head = self.toks[self.i]  # every caller has seen a token at the cursor
        if head.surface in _NON_HEADS:
            raise GrammarError("expected a content word to head a phrase", head)
        if head.surface[0].isupper():
            self.note("proper noun used as a phrase head", head)
        if head.surface == "mu":
            self.warn("mu used as a content word (dictionary lists it only as a particle)", head)
        node = PhraseNode(self.take())
        while True:
            word = self.peek()
            if word == "pi":
                pi = self.take()
                if self.peek() in _NON_HEADS:
                    raise GrammarError("dangling pi at phrase end", pi)
                inner = self.phrase(allow_conj=False, in_pi=True, verb=verb, depth=depth + 1)
                if not inner.modifiers and not inner.conj:
                    self.warn("pi before a single final word is redundant", pi)
                node.modifiers.append(PiGroup(pi, inner))
            elif word in ("en", "anu"):
                # Canonical slots: anu in any noun slot; en in the subject
                # or inside a pi group.  Anything else is an extension.
                conj = self.take()
                canonical = not verb and (word == "anu" or in_pi or allow_conj)
                if not canonical and not self.opts.extended_en_anu:
                    self.warn(f"{word} outside its canonical slots", conj)
                if self.peek() in _NON_HEADS:
                    raise GrammarError(f"{word} must join two phrases", conj)
                node.conj.append((conj, self.phrase(allow_conj, in_pi, verb, depth + 1)))
            elif word in PREPOSITIONS and not in_pi:
                break  # post-phrase preposition opens a prepositional phrase
            elif word not in _NON_HEADS and word != "mu":
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
        if self.peek() not in _NON_HEADS:
            complement = self.phrase(allow_conj=False)
        return PrepPhrase(prep, complement, lead_sep)

    def preps(self) -> list[PrepPhrase]:
        """The prepositional phrases that follow a subject or a vocative."""
        out = []
        while self.peek() in PREPOSITIONS:
            out.append(self.prep())
        return out

    # predicate level ------------------------------------------------------

    def predicate(self, marker: Optional[Token], lead_sep: Optional[Token] = None) -> Predicate:
        possessive = None
        if self.peek() == "pi":
            if marker is None or not self.opts.pije_pi_possession:
                raise GrammarError("pi cannot start a predicate", self.toks[self.i])
            possessive = self.take()
            self.note("pi after li read as possession", possessive)
        if self.peek() is None:
            raise GrammarError("empty predicate", marker)

        preverbs: list[Token] = []
        while (
            possessive is None
            and self.peek() in PREVERBS
            and self.peek(1) not in _NON_HEADS
            and self.peek(1) != "mu"
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
            if self.peek() == ",":
                if not (self.peek(1) == "e" or self.peek(1) in PREPOSITIONS):
                    break  # comma closes the predicate (fragment list or tail)
                sep = self.take()
            word = self.peek()
            if word == "e":
                e = self.take()
                if self.peek() in _NON_HEADS:
                    raise GrammarError("e must introduce an object phrase", e)
                obj = self.phrase(allow_conj=False)
                pred.complements.append(ObjectArg(e, obj, sep))
            elif word in PREPOSITIONS:
                pred.complements.append(self.prep(sep))
            else:
                break
        return pred

    # clause level ----------------------------------------------------------

    def clause_body(self, toks: list[Token], clause: Clause) -> None:
        """Parse one non-empty clause, without its la or terminator, into ``clause``."""
        # The tail: every token of "a!" or "mu mu!", else a trailing "[,] a".
        words = [t.surface for t in toks]
        cut = len(words)
        if set(words) <= _INTERJECTIONS:
            cut = 0
        elif words[-1] == "a":  # not alone: a lone "a" is cut above
            cut -= 2 if words[-2] == "," else 1
        toks, clause.tail = toks[:cut], toks[cut:]
        if not toks:
            self.note("interjection-only sentence")
            return
        self.toks, self.words, self.i = toks, words[:cut] + [None, None], 0

        # e at clause start (before any predicate head) is impossible.
        first = toks[0]
        if first.surface == "e":
            raise GrammarError("e before any predicate", first)

        # The first o or li tells a vocative from a subject.
        split = next((k for k, w in enumerate(self.words) if w in ("o", "li")), None)
        marker: Optional[Token] = None
        if split == 0:
            # Imperative marked by a leading o, or a subjectless leading li.
            if first.surface == "li":
                self.note("subject omitted before li", first)
            marker = self.take()
        elif split is not None:
            # Vocative "phrase [prep phrases] o [,] ..." or subject "... li ...".
            phrase = self.phrase(allow_conj=True)
            preps = self.preps()
            if self.i != split:
                if toks[split].surface == "o":
                    raise GrammarError("could not read the phrase before o", self.toks[self.i])
                raise GrammarError("could not read the subject before li", self.toks[self.i])
            marker = self.take()
            if marker.surface == "li":
                clause.subject, clause.subject_complements = phrase, preps
                bare = phrase.head.surface in LI_LESS_SUBJECTS and not phrase.modifiers \
                    and not phrase.conj and not preps
                if bare and not self.opts.lenient_li:
                    self.warn("li after a bare mi or sina is non-canonical", marker)
            else:
                comma = self.take() if self.peek() == "," else None
                clause.vocative = Vocative(phrase, marker, comma, preps)
                if self.peek() is None:
                    self.note("vocative-only sentence", marker)
                    return
                marker = self.take() if self.peek() == "li" else None
        elif first.surface in LI_LESS_SUBJECTS and len(toks) > 1:
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
            word = self.peek()
            if word in ("li", "o"):
                marker, sep = self.take(), None
            elif word == "," and fragment and self.peek(1) not in _NON_HEADS:
                marker, sep = None, self.take()
            else:
                break
        if word is not None:
            raise GrammarError("unparsed trailing material", self.toks[self.i])

    # sentence level --------------------------------------------------------

    def sentence(self, body: list[Token], terminator: Optional[Token]) -> Clause:
        """One sentence: its la-separated context clauses, then its main clause."""
        if not body:
            self.warn("empty sentence", terminator)
            return Clause(terminator=terminator)
        contexts: list[Clause] = []
        start = 0
        for k, tok in enumerate(body):
            if tok.surface == "la":
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
            and terminator.surface == ":"
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
    """Parse a token stream, as :func:`tokenize` makes it, into clauses.

    One clause per sentence terminator; la-chains fold into ``contexts``
    (each earlier clause conditions the rest).  Ambiguities become NOTE
    diagnostics, non-canonical but readable constructs become WARNINGs,
    and structural impossibilities raise :class:`GrammarError`.  ``lex``
    is unused; it stays for callers that pass it by position.
    """
    # Bad tokens are reported before any structural error, wherever they are.
    for tok in tokens:
        if tok.kind is _ERROR_KIND:
            raise GrammarError(tok.note or "bad token", tok)

    parser = _ClauseParser(opts)
    clauses: list[Clause] = []
    body: list[Token] = []
    for tok in tokens:
        if tok.surface in TERMINATORS or tok.surface == ":":
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


_PiGroups = list[tuple[Token, list[Token]]]  # each pi with the words of its group


def _pi_segments(phrase: Sequence[Union[Token, str]]) -> tuple[list[Token], _PiGroups]:
    """The words before the first pi, and each pi group, with each string made a
    WORD token one space after the item before it."""
    segments: list[list[Token]] = [[]]
    pi_tokens: list[Token] = []
    pos = 0
    for item in phrase:
        if isinstance(item, Token):
            if item.kind not in (TokenKind.WORD, TokenKind.PROPER):
                raise GrammarError(f"not a word: {item.kind.value} token", item)
        elif item.isalnum():
            item = Token(item, TokenKind.WORD, pos, pos + len(item))
        else:
            raise GrammarError(f"not a single word: {item!r}")
        pos = item.end + 1
        if item.surface == "pi":
            pi_tokens.append(item)
            segments.append([])
        else:
            segments[-1].append(item)
    base, groups = segments[0], segments[1:]
    if not pi_tokens and not base:
        raise GrammarError("empty phrase")
    if not base:
        raise GrammarError("pi in initial position", pi_tokens[0])
    for k, g in enumerate(groups):
        if not g:
            message = ("dangling pi at phrase end" if k == len(groups) - 1
                       else "pi group has no words before the next pi")
            raise GrammarError(message, pi_tokens[k])
    return base, list(zip(pi_tokens, groups))


def iter_pi_readings(phrase: Sequence[Union[Token, str]]) -> Iterator[PhraseNode]:
    """All structurally consistent groupings of a phrase with pi particles.

    A pi group always extends to the next pi (or the end); each later
    group may qualify the phrase at any nesting level that is still
    open, so k groups admit a Catalan number of readings
    (``pi_reading_count``).  Readings are ordered deterministically,
    attaching to the outermost (leftmost) phrase first.

    The phrase is checked at the call; the readings are then made one at
    a time, depth first, holding O(k^2) nodes however many are taken.
    One call's readings share nodes (path copying: each group copies only
    the open phrases it attaches through), each pi group's own phrase, and
    one empty ``conj`` list, so they are read-only: mutating one may
    change others.  Two calls share nothing.  ``pi_readings`` gives the
    same readings in the same order as one list.

    Each item must be one word: a WORD or PROPER token, or an
    alphanumeric string; anything else raises ``GrammarError``.

    No library code calls it: it is the bounded stream of ROADMAP aim 3.
    """
    base, groups = _pi_segments(phrase)
    return _pi_readings(base, groups)


def _pi_readings(base: list[Token], groups: _PiGroups) -> Iterator[PhraseNode]:
    no_conj: list = []
    attached = [PiGroup(pi, PhraseNode(g[0], g[1:], no_conj)) for pi, g in groups]
    root = PhraseNode(base[0], base[1:], no_conj)
    if not attached:
        yield root
        return
    last = len(attached) - 1
    # Each frame holds a partial reading's open spine, root first (the last
    # group attached to spine[i] holds spine[i + 1]), the group to attach
    # and the level to attach it at next.  Trying the levels outermost
    # first keeps the readings in that order.
    stack = [[[root], 0, 0]]
    while stack:
        frame = stack[-1]
        spine, k, level = frame
        if level == len(spine):
            stack.pop()
            continue
        frame[2] = level + 1
        group = attached[k]
        node = spine[level]
        node = PhraseNode(node.head, [*node.modifiers, group], no_conj)
        if k == last:
            for up in reversed(spine[:level]):
                group = PiGroup(up.modifiers[-1].pi_token, node)
                node = PhraseNode(up.head, [*up.modifiers[:-1], group], no_conj)
            yield node
        else:
            path = [group.inner, node]
            for up in reversed(spine[:level]):
                group = PiGroup(up.modifiers[-1].pi_token, node)
                node = PhraseNode(up.head, [*up.modifiers[:-1], group], no_conj)
                path.append(node)
            path.reverse()
            stack.append([path, k + 1, 0])


def pi_readings(phrase: Sequence[Union[Token, str]]) -> list[PhraseNode]:
    """The readings of ``iter_pi_readings``, equal and in the same order, as
    one list that holds each distinct subtree once.

    A reading is a run of group subtrees under the root's words, and a
    group's subtree is a run of later groups' subtrees under its own words.
    So the subtrees of each group are made once, from the last group to the
    first, and every reading and larger subtree that holds one shares it:
    the list takes about half the memory of the stream's readings, which
    copy the open phrases of each.  The readings are read-only like the
    stream's, and two calls share nothing.  Checks like ``iter_pi_readings``.
    """
    base, groups = _pi_segments(phrase)
    no_conj: list = []
    k = len(groups)
    # sub[i] lists each subtree of group i, in reading order, with the
    # index of the group after it; sub[k] is empty.
    sub: list[list[tuple[PiGroup, int]]] = [[] for _ in range(k + 1)]
    kids: list[PiGroup] = []

    def walk(p: int, close: bool, emit: Callable[[int], None]) -> None:
        # emit(end) for each run of subtrees an open phrase can take from
        # group p on, with the run in kids and end the group after it.
        # Closing comes first, as it attaches group p further out; the root
        # (close false) closes only after the last group.
        if close or p == k:
            emit(p)
        for g, end in sub[p]:
            kids.append(g)
            walk(end, close, emit)
            kids.pop()

    for i in range(k - 1, -1, -1):
        pi, (head, *mods) = groups[i]
        trees = sub[i]
        walk(i + 1, True, lambda end: trees.append(
            (PiGroup(pi, PhraseNode(head, mods + kids, no_conj)), end)))
    head, *mods = base
    readings: list[PhraseNode] = []
    walk(0, False, lambda end: readings.append(PhraseNode(head, mods + kids, no_conj)))
    return readings


def pi_reading_count(phrase: Sequence[Union[Token, str]]) -> int:
    """How many readings ``pi_readings`` gives, without making them: the
    Catalan number of the phrase's k pi groups.  Checks like ``pi_readings``."""
    k = len(_pi_segments(phrase)[1])
    return comb(2 * k, k) // (k + 1)


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


_DICT_TO_TAGVALUE = {t: TagValue.VERB if t is PosTag.PRE else TagValue[t.name] for t in PosTag}


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
    if resolve_with_dictionary and lex is None:
        lex = default_lexicon()
    out: dict[Token, Assignment] = {}
    for tok, tag in clause.walk():
        if tok.kind is _PROPER_KIND:
            tag = TagValue.PROPER
        elif tok.surface == "seme":
            # Particles keep their particle nature wherever they landed.
            tag = _PARTICLE
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
