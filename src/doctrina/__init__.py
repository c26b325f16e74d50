"""Machine-checked span doctrines over finite sets.

Finite limits and colimits, the span double category over an adequate
triple, powerset and truncated min-plus predicate fibers with adjoint
quantifiers, the double extension with its full coherence suite, the
converse extraction with a round-trip check, and compositional
evaluation of undirected wiring diagrams under relational and min-plus
semantics.
"""

from .finset import (
    AdequateTriple,
    FinFn,
    FinSet,
    LabelledFinSet,
    MorClass,
    check_adequate_triple,
    injection_right_triple,
    surjection_triple,
    trivial_triple,
)
from .poskit import MonoPoset, MonotoneMap, Poset, check_mono_poset
from .spancat import Span, SpanCell, SpanCategory
from .doctrine import (
    Doctrine,
    PullbackSquare,
    check_adjunction,
    check_beck_chevalley,
    check_doctrine,
    check_frobenius,
    external_laxator,
    external_unit,
    powerset_doctrine,
    tropical_doctrine,
)
from .doubling import PDot, QtCell, verify_pdot
from .extraction import DoubleFunctorData, frobenius_via_Bhat, roundtrip
from .uwd import (
    Corpus,
    System,
    TypeAssignment,
    UwdDiagram,
    compose_diagrams,
    evaluate,
    load_corpus,
)
from .report import Clause, Report

__version__ = "0.1.0"

__all__ = [
    "AdequateTriple",
    "Clause",
    "Corpus",
    "Doctrine",
    "DoubleFunctorData",
    "FinFn",
    "FinSet",
    "LabelledFinSet",
    "MonoPoset",
    "MonotoneMap",
    "MorClass",
    "PDot",
    "Poset",
    "PullbackSquare",
    "QtCell",
    "Report",
    "Span",
    "SpanCategory",
    "SpanCell",
    "System",
    "TypeAssignment",
    "UwdDiagram",
    "check_adequate_triple",
    "check_adjunction",
    "check_beck_chevalley",
    "check_doctrine",
    "check_frobenius",
    "check_mono_poset",
    "compose_diagrams",
    "evaluate",
    "external_laxator",
    "external_unit",
    "frobenius_via_Bhat",
    "injection_right_triple",
    "load_corpus",
    "powerset_doctrine",
    "roundtrip",
    "surjection_triple",
    "trivial_triple",
    "tropical_doctrine",
    "verify_pdot",
]
