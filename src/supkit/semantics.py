"""The two superposition truth relations and enumeration-backed consequence
checking.

* eval_scs: choice applies to sentences only; quantifiers are evaluated
  Tarskian-style by instantiating domain elements as parameters, so only
  restricted sentences are legal input.
* eval_fcs: the table holds open formulas and the collapse commutes with
  quantifiers; any sentence is legal input.

Consequence/tautology verdicts quantify over an explicit finite search
space (valuations or structures up to a domain bound, crossed with every
admissible choice table on the reachable pairs) and say nothing beyond it.
"""

from dataclasses import dataclass

from .choice import (
    FORMULA_MODE,
    SENTENCE_MODE,
    BoundedModelOracle,
    ChoiceTable,
    ClassSpec,
    TruthTableOracle,
    choose,
    collapse,
    enumerate_tables,
)
from .models import (
    EvalError,
    Structure,
    Valuation,
    eval_classical,
    structures_over,
    valuations_over,
    vocabulary_of,
)
from .syntax import (
    And,
    Exists,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    Sup,
    SupkitError,
    SyntaxClass,
    classify,
    free_vars,
    instantiate,
    is_classical,
    to_text,
)


class NotRestrictedError(SupkitError):
    pass


class SearchBudgetError(SupkitError):
    pass


def eval_scs(model, table, phi):
    """Sentence-choice truth of a restricted sentence in (model, table)."""
    if free_vars(phi):
        raise EvalError(f"not a sentence: {to_text(phi)}")
    if classify(phi) > SyntaxClass.RESTRICTED:
        raise NotRestrictedError(
            f"sentence-choice evaluation requires a restricted sentence: {to_text(phi)}")
    if table.mode != SENTENCE_MODE:
        raise EvalError("sentence-choice evaluation requires a sentence-mode table")
    return _scs(model, table, phi)


def _scs(model, table, phi):
    if is_classical(phi):
        return eval_classical(model, phi)
    if isinstance(phi, Not):
        return not _scs(model, table, phi.body)
    if isinstance(phi, And):
        return _scs(model, table, phi.left) and _scs(model, table, phi.right)
    if isinstance(phi, Or):
        return _scs(model, table, phi.left) or _scs(model, table, phi.right)
    if isinstance(phi, Implies):
        return (not _scs(model, table, phi.left)) or _scs(model, table, phi.right)
    if isinstance(phi, Iff):
        return _scs(model, table, phi.left) == _scs(model, table, phi.right)
    if isinstance(phi, Sup):
        chosen = choose(table, collapse(table, phi.left), collapse(table, phi.right))
        return eval_classical(model, chosen)
    if isinstance(phi, (Forall, Exists)):
        if not isinstance(model, Structure):
            raise EvalError("quantified sentence requires a structure")
        tester = all if isinstance(phi, Forall) else any
        return tester(_scs(model, table, instantiate(phi, x)) for x in model.domain)
    raise EvalError(f"not a formula: {phi!r}")


def eval_fcs(structure, table, phi):
    """Formula-choice truth: collapse with quantifier commuting, then
    classical evaluation of the resulting sentence."""
    if free_vars(phi):
        raise EvalError(f"not a sentence: {to_text(phi)}")
    if table.mode != FORMULA_MODE:
        raise EvalError("formula-choice evaluation requires a formula-mode table")
    return eval_classical(structure, collapse(table, phi))


# ---------------------------------------------------------------------------
# Search spaces


DEFAULT_DOMAIN_BOUND = 3
DEFAULT_ORACLE_BOUND = 3
DEFAULT_BUDGET = 2_000_000


@dataclass(frozen=True)
class SearchSpace:
    """The finite class of models a verdict quantifies over."""

    kind: str                  # "propositional" | "first-order"
    atoms: tuple = ()
    vocabulary: object = None
    max_domain: int = DEFAULT_DOMAIN_BOUND

    @classmethod
    def for_task(cls, formulas, max_domain=DEFAULT_DOMAIN_BOUND):
        vocab = vocabulary_of(formulas)
        if vocab.first_order:
            return cls(kind="first-order", vocabulary=vocab, max_domain=max_domain)
        return cls(kind="propositional", atoms=vocab.prop_atoms)

    def models(self):
        if self.kind == "propositional":
            return valuations_over(self.atoms)
        return structures_over(self.vocabulary, self.max_domain)

    def describe(self):
        if self.kind == "propositional":
            return {"kind": self.kind, "atoms": list(self.atoms)}
        return {
            "kind": self.kind,
            "max_domain": self.max_domain,
            "vocabulary": self.vocabulary.describe(),
        }


@dataclass(frozen=True)
class Countermodel:
    model: object
    table: ChoiceTable

    def to_json(self):
        key = "valuation" if isinstance(self.model, Valuation) else "structure"
        return {key: self.model.to_json(), "table": self.table.to_json()}

    def describe(self):
        return f"{self.model.describe()} with table [{self.table.describe()}]"


@dataclass(frozen=True)
class Verdict:
    valid: bool
    premises: tuple
    conclusion: object
    space: dict
    countermodel: Countermodel = None
    models_checked: int = 0
    tables_checked: int = 0

    def verify(self):
        """Re-check the verdict's countermodel by direct evaluation."""
        if self.countermodel is None:
            return self.valid
        cm = self.countermodel
        premises_hold = all(eval_scs(cm.model, cm.table, s) for s in self.premises)
        return premises_hold and not eval_scs(cm.model, cm.table, self.conclusion)

    def to_json(self):
        out = {
            "space": self.space,
            "result": "valid" if self.valid else "countermodel",
            "models_checked": self.models_checked,
            "tables_checked": self.tables_checked,
        }
        if self.countermodel is not None:
            out["countermodel"] = self.countermodel.to_json()
        return out


def check_restricted_sentences(formulas):
    """Raise unless every formula is a restricted sentence, the input that
    consequence checking handles."""
    for phi in formulas:
        if classify(phi) > SyntaxClass.RESTRICTED:
            raise NotRestrictedError(
                f"consequence checking handles restricted sentences only: {to_text(phi)}")
        if free_vars(phi):
            raise EvalError(f"not a sentence: {to_text(phi)}")


def check_consequence(premises, conclusion, spec, space=None, budget=DEFAULT_BUDGET):
    """Search the space for a (model, admissible table) pair satisfying every
    premise but not the conclusion; valid-over-space when none exists."""
    premises = tuple(premises)
    formulas = list(premises) + [conclusion]
    check_restricted_sentences(formulas)
    if space is None:
        space = SearchSpace.for_task(formulas)
    scan = scan_models(space.models(), premises, conclusion, spec, budget)
    return verdict_of_scans(premises, conclusion, spec, space, [scan], budget)


def scan_models(models, premises, conclusion, spec, budget=DEFAULT_BUDGET):
    """Search the models in order, each under every admissible table, for a
    countermodel.  Returns ``(countermodel or None, models checked, tables
    checked)``; it stops at the first countermodel, or as soon as more than
    ``budget`` tables have been checked."""
    models_checked = 0
    tables_checked = 0
    for model in models:
        models_checked += 1
        task = _model_task(model, premises, conclusion)
        for table, refuted in enumerate_tables(task, spec):
            tables_checked += 1
            if tables_checked > budget:
                return None, models_checked, tables_checked
            if refuted:
                return Countermodel(model, table), models_checked, tables_checked
    return None, models_checked, tables_checked


def verdict_of_scans(premises, conclusion, spec, space, scans, budget=DEFAULT_BUDGET):
    """The verdict of scans over consecutive runs of the space's models,
    given in model order.  Its counts, and whether it raises
    SearchBudgetError, are those of one scan over all the models."""
    countermodel = None
    models_checked = 0
    tables_checked = 0
    for countermodel, models, tables in scans:
        models_checked += models
        tables_checked += tables
        if tables_checked > budget:
            raise SearchBudgetError(f"search budget of {budget} evaluations exceeded")
        if countermodel is not None:
            break
    description = dict(space.describe())
    description.update(spec.describe())
    return Verdict(
        valid=countermodel is None,
        premises=tuple(premises),
        conclusion=conclusion,
        space=description,
        countermodel=countermodel,
        models_checked=models_checked,
        tables_checked=tables_checked,
    )


def _model_task(model, premises, conclusion):
    def task(table):
        for sigma in premises:
            if not eval_scs(model, table, sigma):
                return False
        return not eval_scs(model, table, conclusion)
    return task


def is_tautology(phi, spec, space=None, budget=DEFAULT_BUDGET):
    """Tautology over the space = consequence of the empty premise set."""
    return check_consequence((), phi, spec, space=space, budget=budget)


def class_spec_for(name, formulas, oracle_bound=DEFAULT_ORACLE_BOUND):
    """A ClassSpec whose oracle matches the task's vocabulary."""
    if name in ("all", "asso"):
        return ClassSpec(name)
    vocab = vocabulary_of(formulas)
    oracle = BoundedModelOracle(oracle_bound) if vocab.first_order else TruthTableOracle()
    return ClassSpec(name, oracle)
