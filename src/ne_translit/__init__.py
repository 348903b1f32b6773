"""English-to-Hindi named-entity translation and transliteration.

Knowledge-base translation for organization and location names, HMM
phoneme transliteration for everything else, packaged as a library, an
estimator-style API, and the ``ne-translit`` command-line tool.
"""

from .alignment import (
    AlignedPair,
    AlignmentCostTable,
    ParallelEntry,
    align_corpus,
    align_monotone,
    em_train_alignment,
    load_corpus,
)
from .decoder import Decoding, Fallback, candidates, decode_name, viterbi
from .errors import NeTranslitError
from .estimator import HmmTransliterator, NamedEntityTranslator
from .evaluation import AccuracyReport, GoldRecord, evaluate, render_report
from .kb import EntityCategory, KnowledgeBase, load_kb, load_seed_kb, normalize
from .model import BOS, EOS, TransliterationModel, estimate, load_model, save_model
from .phonology import PhonemeSequence, phonify, phonify_devanagari, phonify_latin
from .pipeline import (
    EntityDecision,
    EntitySpan,
    ProcessedSentence,
    Route,
    parse_annotations,
    process_sentence,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyReport",
    "AlignedPair",
    "AlignmentCostTable",
    "BOS",
    "Decoding",
    "EOS",
    "EntityCategory",
    "EntityDecision",
    "EntitySpan",
    "Fallback",
    "GoldRecord",
    "HmmTransliterator",
    "KnowledgeBase",
    "NamedEntityTranslator",
    "NeTranslitError",
    "ParallelEntry",
    "PhonemeSequence",
    "ProcessedSentence",
    "Route",
    "TransliterationModel",
    "align_corpus",
    "align_monotone",
    "candidates",
    "decode_name",
    "em_train_alignment",
    "estimate",
    "evaluate",
    "load_corpus",
    "load_kb",
    "load_model",
    "load_seed_kb",
    "normalize",
    "parse_annotations",
    "phonify",
    "phonify_devanagari",
    "phonify_latin",
    "process_sentence",
    "render_report",
    "save_model",
    "viterbi",
]
