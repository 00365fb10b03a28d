"""Superposition logic toolkit.

A library and CLI for the syntax, choice-function semantics, and Hilbert
proof systems of propositional and first-order superposition logic, with
desk-scale exhaustive enumeration behind every verdict.

The names below are exported lazily (PEP 562): ``import supkit`` loads no
submodule, and the first use of a name imports the module that defines it,
so a program pays only for the modules it uses.  ``from supkit import X``,
``supkit.X``, ``__all__`` and ``dir(supkit)`` work as for eager exports.
"""

import importlib

_EXPORTS = {
    "choice": (
        "BoundedModelOracle", "ChoiceTable", "ClassSpec", "MissingEntryError",
        "NotBasicError", "OracleRequiredError", "TruthTableOracle", "choose", "collapse",
        "enumerate_tables", "extendable",
    ),
    "constructions": (
        "TheoryFragment", "UiWitness", "build_choice_from_theory", "check_theory_fragment",
        "enumerate_fragment_markings", "object_superposition_report", "refute_uniformity",
        "ui_failure_general", "ui_failure_witness",
    ),
    "models": ("Structure", "Valuation", "eval_classical"),
    "proofs": (
        "Proof", "ProofLine", "check_proof", "derives", "match_axiom", "proof_from_json",
        "proof_to_json",
    ),
    "semantics": (
        "SearchSpace", "Verdict", "check_consequence", "eval_fcs", "eval_scs",
    ),
    "syntax": (
        "And", "Constant", "Equality", "Exists", "Forall", "Formula", "FuncApp", "Iff",
        "Implies", "Not", "Or", "Parameter", "PredAtom", "PropAtom", "Signature", "Sup",
        "SupkitError", "SyntaxClass", "Term", "Variable", "canonical_key", "classify",
        "free_vars", "is_sentence", "parse", "substitute", "substitute_map",
        "to_text",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value   # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
