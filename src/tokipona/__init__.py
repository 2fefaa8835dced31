"""Toki Pona as a formal system.

Lexicon and phonotactics, vocabulary statistics, a deterministic clause
parser with POS tagging, seeded text synthesis, highlight-scheme
emission, and a WordNet synset mapping, all behind one CLI (``tokipona``).
"""

from .lexicon import (
    Lemma,
    Lexicon,
    LexiconError,
    PosTag,
    Sense,
    load_lexicon,
)
from .phonotactics import (
    CountingMode,
    PhonotacticsError,
    Syllable,
    count_possible_words,
    syllabify,
    validate_proper_noun,
    validate_word,
)
from .grammar import (
    Clause,
    Diagnostic,
    GrammarError,
    ParseOptions,
    ParseResult,
    PhraseNode,
    PiGroup,
    Token,
    parse,
    parse_text,
    pi_readings,
    pos_tag,
    tokenize,
)
from .synth import (
    ComposeUnit,
    ContextTracker,
    ParagraphSpec,
    PoemSpec,
    SynthConfig,
    SynthError,
    Synthesizer,
)
from .highlight import (
    HighlightGroup,
    MergeMode,
    build_scheme,
    emit_filetype_detect,
    emit_vim_syntax,
    render_ansi,
    render_html,
)
from .wordnet import (
    MappingMode,
    RelationTable,
    SynsetRef,
    TPWordnet,
    WordNetError,
    build_mapping,
    load_wordnet_db,
    relations,
)

__version__ = "0.1.0"
