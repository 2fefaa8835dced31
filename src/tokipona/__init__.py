"""Toki Pona as a formal system.

Lexicon and phonotactics, vocabulary statistics, a deterministic clause
parser with POS tagging, seeded text synthesis, highlight-scheme
emission, and a WordNet synset mapping, all behind one CLI (``tokipona``).

Importing the package loads none of its modules: each exported name
imports its module on first access (PEP 562), so a caller pays only for
what it uses.
"""

from importlib import import_module

_EXPORTS = {  # module -> the names the package exports from it
    "lexicon": "Lemma Lexicon LexiconError PosTag Sense load_lexicon",
    "phonotactics": "CountingMode PhonotacticsError Syllable count_possible_words"
    " syllabify validate_proper_noun validate_word",
    "grammar": "Clause Diagnostic GrammarError ParseOptions ParseResult PhraseNode"
    " PiGroup Token parse parse_text pi_readings pos_tag tokenize",
    "synth": "ComposeUnit ContextTracker ParagraphSpec PoemSpec SynthConfig SynthError"
    " Synthesizer",
    "highlight": "HighlightGroup MergeMode build_scheme emit_filetype_detect"
    " emit_vim_syntax render_ansi render_html",
    "wordnet": "MappingMode RelationTable SynsetRef TPWordnet WordNetError"
    " build_mapping load_wordnet_db relations",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
