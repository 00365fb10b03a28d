"""Superposition logic toolkit.

A library and CLI for the syntax, choice-function semantics, and Hilbert
proof systems of propositional and first-order superposition logic, with
desk-scale exhaustive enumeration behind every verdict.
"""

from .choice import (
    BoundedModelOracle,
    ChoiceTable,
    ClassSpec,
    MissingEntryError,
    NotBasicError,
    OracleRequiredError,
    TruthTableOracle,
    check_class,
    choose,
    collapse,
    enumerate_tables,
    extendable,
)
from .constructions import (
    TheoryFragment,
    UiWitness,
    build_choice_from_theory,
    check_theory_fragment,
    enumerate_fragment_markings,
    object_superposition_report,
    refute_uniformity,
    ui_failure_general,
    ui_failure_witness,
)
from .models import Structure, Valuation, eval_classical
from .proofs import (
    Proof,
    ProofLine,
    check_proof,
    derives,
    match_axiom,
    proof_from_json,
    proof_to_json,
)
from .semantics import (
    SearchSpace,
    Verdict,
    check_consequence,
    eval_fcs,
    eval_scs,
    is_tautology,
)
from .syntax import (
    And,
    Constant,
    Equality,
    Exists,
    Forall,
    Formula,
    FuncApp,
    Iff,
    Implies,
    Not,
    Or,
    Parameter,
    PredAtom,
    PropAtom,
    Signature,
    Sup,
    SupkitError,
    SyntaxClass,
    Term,
    Variable,
    canonical_key,
    classify,
    free_vars,
    is_sentence,
    pair_key,
    parse,
    substitute,
    substitute_map,
    to_text,
)

__version__ = "0.1.0"
