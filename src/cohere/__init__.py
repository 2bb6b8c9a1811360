"""Exact coherence checking and probability propagation for conditional events.

Every name in ``__all__`` is importable as ``cohere.X``, and every submodule
as ``cohere.<module>``.  Each is resolved the first time it is read (PEP 562)
and then kept in this module's globals, so ``import cohere`` loads no
submodule: with no bytecode cache, a process compiles only the modules its
first answer uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Submodule -> the names re-exported from it.
_EXPORTS = {
    "coherence": (
        "Assessment",
        "CoherenceVerdict",
        "ProbabilityInterval",
        "SigmaSystem",
        "build_sigma",
        "check_coherence",
        "extension_interval",
        "zero_upper",
    ),
    "conditionals": (
        "ConditionalEvent",
        "ConstituentSet",
        "TruthValue3",
        "biconditional",
        "constituents",
        "equivalent",
        "gn_includes",
        "n_conditional",
        "negate",
        "parse_conditional",
        "quasi_conjunction",
        "quasi_disjunction",
    ),
    "errors": (
        "CohereError",
        "EventSyntaxError",
        "ImpossibleAntecedentError",
        "IncoherentAssessmentError",
        "KBFormatError",
        "NotPConsistentError",
        "ProbabilityRangeError",
        "SizeLimitError",
        "UnknownAtomError",
    ),
    "events": (
        "Atom",
        "Context",
        "Event",
        "FALSE",
        "TRUE",
        "enumerate_worlds",
        "implies",
        "is_impossible",
        "parse_event",
        "world_equivalent",
    ),
    "inference": (
        "KnowledgeBase",
        "biconditional_value",
        "compound_bounds",
        "derangements",
        "dual_compound_value",
        "gn_chain_bounds",
        "in_l_gamma_qc",
        "in_l_gamma_qd",
        "in_u_gamma_qc",
        "in_u_gamma_qd",
        "loop_entails",
        "loop_family",
        "or_rule_bounds",
        "p_consistent",
        "p_entails",
        "p_entails_qc",
        "qc_bounds",
        "qd_bounds",
    ),
    "tnorms": (
        "DRASTIC",
        "HAMACHER0",
        "INF",
        "LUKASIEWICZ",
        "MINIMUM",
        "OperatorFamily",
        "PRODUCT",
        "hamacher",
        "hamacher0_conary",
        "hamacher0_nary",
        "tconorm",
        "tnorm",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(
    ("cli", "coherence", "conditionals", "errors", "events", "inference", "kbfile",
     "oracle", "rationals", "simplex", "tnorms")
)

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
