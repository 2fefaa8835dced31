"""The parser's records are defined without ``dataclasses``.  ``Diagnostic``,
``ParseOptions`` and ``Hybrid`` are named tuples; the nodes the parser fills as
it reads are slotted classes.  Each keeps the repr, equality, hash (or its
absence) and constructor parameters of the dataclass it was, against
reference dataclasses made here with ``make_dataclass``."""

import inspect
from dataclasses import field, make_dataclass
from itertools import product

import pytest

from tokipona import grammar
from tokipona.grammar import (
    LENIENT,
    Clause,
    Diagnostic,
    Hybrid,
    ObjectArg,
    ParseOptions,
    ParseResult,
    PhraseNode,
    PiGroup,
    Predicate,
    PrepPhrase,
    Severity,
    TagValue,
    Token,
    Vocative,
    parse_text,
    pi_readings,
    pos_tag,
)

_LIST = object()  # stands for a default of a new empty list

#: Each record with the fields, in order, of the dataclass it was, and the
#: default of each field that had one.
_OLD_FIELDS = {
    Token: [("surface",), ("kind",), ("start",), ("end",), ("note", None)],
    Diagnostic: [("severity",), ("message",), ("start", -1), ("end", -1)],
    ParseOptions: [("lenient_li", False), ("colon_shorthand", False),
                   ("pije_pi_possession", False), ("extended_en_anu", False)],
    Hybrid: [("candidates",)],
    PiGroup: [("pi_token",), ("inner",)],
    PhraseNode: [("head",), ("modifiers", _LIST), ("conj", _LIST)],
    ObjectArg: [("marker",), ("phrase",), ("lead_sep", None)],
    PrepPhrase: [("prep",), ("complement", None), ("lead_sep", None)],
    Predicate: [("marker",), ("phrase",), ("preverbs", _LIST), ("complements", _LIST),
                ("possessive_pi", None), ("lead_sep", None), ("colon_object", False)],
    Vocative: [("phrase",), ("o_token",), ("comma", None), ("complements", _LIST)],
    Clause: [("contexts", _LIST), ("la_token", None), ("vocative", None), ("subject", None),
             ("subject_complements", _LIST), ("predicates", _LIST), ("tail", _LIST),
             ("terminator", None), ("li_elided", False)],
    ParseResult: [("clauses",), ("diagnostics",)],
}
_FROZEN = (Diagnostic, ParseOptions, Hybrid)


def test_every_node_is_pinned():
    """A parse node added to the module gets a line in ``_OLD_FIELDS`` too."""
    nodes = {value for value in vars(grammar).values()
             if isinstance(value, type) and issubclass(value, grammar._Node)}
    assert nodes - {grammar._Node} == set(_OLD_FIELDS) - set(_FROZEN)


def _field(name, *default):
    if not default:
        return name
    made = field(default_factory=list) if default[0] is _LIST else field(default=default[0])
    return name, object, made


#: The reference dataclasses, made as the old decorators made them; ``Token``
#: had its own hash.
_OLD = {
    record: make_dataclass(record.__name__, [_field(*f) for f in fields],
                           frozen=record in _FROZEN,
                           namespace={"__hash__": Token.__hash__} if record is Token else None)
    for record, fields in _OLD_FIELDS.items()
}


def _names(record) -> list[str]:
    return [name for name, *_ in _OLD_FIELDS[record]]


def _old(value):
    """``value`` with every record in it, at any depth, remade as its reference."""
    if type(value) in _OLD:
        return _OLD[type(value)](*(_old(getattr(value, name)) for name in _names(type(value))))
    if isinstance(value, (list, tuple)):
        return type(value)(_old(item) for item in value)
    return value


def _collect(value, found: dict):
    """Every record in ``value``, at any depth, into ``found`` by its class."""
    if type(value) in _OLD:
        found[type(value)].setdefault(id(value), value)
        for name in _names(type(value)):
            _collect(getattr(value, name), found)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _collect(item, found)


#: Sentences that between them build every node: subjects with and without li,
#: en and anu, pi groups, objects and prepositions after a comma, pre-verbs,
#: vocatives with prepositions, la contexts, the colon shorthand, fragments, a
#: tail and an empty sentence, under both option sets; and "li pi" possession,
#: which only the lenient options read.
_TEXTS = [(text, opts) for opts in (ParseOptions(), LENIENT) for text in (
    "mi moku.", "jan pona mi li moku e kili e telo lon tomo.", "jan en meli li pona.",
    "jan Mali o, moku!", "jan lon tomo o kama.", "sina wile moku la mi pona.",
    "mi toki:", "ona li pona, a!", "a!", "tomo, telo, lon ma.",
    "ijo pi jan pona anu ike li seme?", ".", "jan li moku, e kili, lon tomo.",
)] + [("soweli li pi sina.", LENIENT)]


@pytest.fixture(scope="module")
def samples():
    """Distinct values of each record, equal ones among them."""
    found = {record: {} for record in _OLD_FIELDS}
    for text, opts in _TEXTS:
        for _ in range(2):  # equal records that are not the same object
            result = parse_text(text, opts)
            _collect(result, found)
            for clause in result.clauses:
                _collect(list(pos_tag(clause, resolve_with_dictionary=True).values()), found)
    _collect(pi_readings("jan pi ma suli pi tomo mi pi kulupu".split()), found)
    _collect([ParseOptions(), ParseOptions(), LENIENT, ParseOptions(colon_shorthand=True),
              Hybrid(frozenset({TagValue.NOUN, TagValue.VERB})),
              Hybrid(frozenset({TagValue.VERB, TagValue.NOUN}))], found)
    by_record = {record: list(values.values()) for record, values in found.items()}
    for values in by_record.values():
        assert any(a == b and a is not b for a, b in product(values, repeat=2))
    return by_record


def _hash(value):
    try:
        return hash(value)
    except TypeError:  # a node the parser fills, or a reference that was not frozen
        return TypeError


@pytest.mark.parametrize("record", _OLD_FIELDS, ids=lambda r: r.__name__)
def test_repr_equality_and_hash_are_the_dataclass_ones(record, samples):
    values = samples[record]
    old = [_old(value) for value in values]
    for value, reference in zip(values, old):
        assert repr(value) == repr(reference)
        assert _hash(value) == _hash(reference)
        assert (_hash(value) is TypeError) == (record not in _FROZEN + (Token,))
        assert not value == reference and value != reference  # another class
    for (a, old_a), (b, old_b) in product(zip(values, old), repeat=2):
        assert (a == b) == (old_a == old_b)
        assert (a != b) == (old_a != old_b)
        if a == b and record in _FROZEN:
            assert hash(a) == hash(b)


@pytest.mark.parametrize("record", _OLD_FIELDS, ids=lambda r: r.__name__)
def test_constructor_parameters_are_the_dataclass_ones(record):
    def shape(cls):
        return [(p.name, p.kind, p.default is p.empty)
                for p in inspect.signature(cls).parameters.values()]

    assert shape(record) == shape(_OLD[record])


@pytest.mark.parametrize("record", _OLD_FIELDS, ids=lambda r: r.__name__)
def test_defaults_are_the_dataclass_ones_and_lists_are_new(record):
    required = [name for name, *default in _OLD_FIELDS[record] if not default]
    first, second = record(*required), record(*required)
    assert _old(first) == _OLD[record](*required)
    lists = [name for name, *default in _OLD_FIELDS[record] if default == [_LIST]]
    for name in lists:
        assert getattr(first, name) == [] and getattr(first, name) is not getattr(second, name)
    assert len(lists) == {PhraseNode: 2, Predicate: 2, Vocative: 1, Clause: 4}.get(record, 0)


@pytest.mark.parametrize("record", _OLD_FIELDS, ids=lambda r: r.__name__)
def test_no_attribute_beyond_the_fields(record, samples):
    value = samples[record][0]
    with pytest.raises(AttributeError):
        value.extra = 1
    for name in _names(record):
        if record in _FROZEN:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
        else:  # the parser sets the fields of the nodes as it reads
            setattr(value, name, getattr(value, name))


def test_frozen_records_are_tuples():
    diag = Diagnostic(Severity.NOTE, "x", 1, 2)
    assert diag == (Severity.NOTE, "x", 1, 2) and str(diag) == "note: x @1..2"
    assert str(Diagnostic(Severity.WARNING, "y")) == "warning: y"
    assert ParseOptions() == (False,) * 4 and LENIENT == (True,) * 4
    hybrid = Hybrid(frozenset({TagValue.VERB, TagValue.NOUN}))
    (candidates,) = hybrid
    assert candidates == {TagValue.NOUN, TagValue.VERB} and str(hybrid) == "HYBRID(NOUN/VERB)"
