"""Executable constructions behind the toolkit's demo suite.

* universal-instantiation failure generators for formula-choice evaluation
  (the single-formula and the general two-formula variants, four table
  cases each, every witness re-verified by the evaluator);
* the impossibility of substitution-uniform choice on open formulas;
* finite theory fragments (complete markings of a subformula closure) with
  the satisfiability criterion, and construction of a choice table that
  realizes a fragment in a model, optionally regular via representative
  delegation;
* the two-element object-superposition dichotomy: which tables make
  "something equals a or b, uniquely" true, and which of them are regular.
"""

import functools
import itertools

from .choice import (
    FORMULA_MODE,
    SENTENCE_MODE,
    BoundedModelOracle,
    ChoiceTable,
    ClassSpec,
    MissingEntryError,
    choose,
    collapse,
    class_representatives,
    extendable,
)
from .models import Structure, eval_classical, vocabulary_of
from .semantics import DEFAULT_DOMAIN_BOUND, SearchSpace, eval_fcs, eval_scs
from .syntax import (
    And,
    Constant,
    Equality,
    Exists,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    Parameter,
    PredAtom,
    PropAtom,
    Record,
    Sup,
    SupkitError,
    SyntaxClass,
    Variable,
    canonical_key,
    classify,
    free_vars,
    instantiate,
    is_basic,
    is_classical,
    rename_parameters,
    substitute,
    substitute_map,
    term_vars,
    to_text,
    to_text_term,
)


class ConditionError(SupkitError):
    """A stated precondition of a construction fails; named in the message."""


class FragmentError(SupkitError):
    """``verdict`` is the failed FragmentVerdict of an invalid fragment."""

    def __init__(self, message, verdict=None):
        super().__init__(message)
        self.verdict = verdict


# ---------------------------------------------------------------------------
# Universal-instantiation failure


class UiWitness(Record):
    __slots__ = __match_args__ = ("structure", "table", "psi", "variables", "terms", "case_id")

    def __init__(self, structure, table, psi, variables, terms, case_id):
        # psi: open formula in the listed variables; terms: closed terms of the
        # failing instance, in order
        self._init(structure, table, psi, variables, terms, case_id)

    @property
    def universal(self):
        phi = self.psi
        for var in reversed(self.variables):
            phi = Forall(var, phi)
        return phi

    @property
    def instance(self):
        return substitute_map(self.psi, dict(zip(self.variables, self.terms)))

    def verify(self):
        """Universal closure true, instance false, under formula-choice
        evaluation; the dual existential-generalization instance fails too."""
        if not eval_fcs(self.structure, self.table, self.universal):
            return False
        if eval_fcs(self.structure, self.table, self.instance):
            return False
        # EG dual on the negated witness: ~psi(t) holds but exists ~psi fails
        exists_neg = Not(self.psi)
        for var in reversed(self.variables):
            exists_neg = Exists(var, exists_neg)
        return eval_fcs(self.structure, self.table, Not(self.instance)) and \
            not eval_fcs(self.structure, self.table, exists_neg)

    def describe(self):
        return {
            "case": self.case_id,
            "psi": to_text(self.psi),
            "universal": to_text(self.universal),
            "failing_instance": to_text(self.instance),
            "terms": [to_text_term(t) for t in self.terms],
            "structure": self.structure.describe(),
            "table": self.table.describe(),
        }


def _find_structure(condition, max_domain=DEFAULT_DOMAIN_BOUND):
    """The first structure of the condition's space where it holds: the
    first set bit of its mask over the blocks of each size."""
    space = SearchSpace(vocabulary_of([condition]), max_domain)
    return next(space.models_where(lambda block: block.truth(condition)), None)


def _eq_prefix(variables, terms):
    return functools.reduce(And, [Equality(Variable(v), t) for v, t in zip(variables, terms)])


def ui_failure_general(alpha, beta, t_terms, s_terms, table,
                       max_domain=DEFAULT_DOMAIN_BOUND):
    """Build a universal-instantiation failure from two formulas that swap
    into each other under the term tuples.

    Preconditions, checked and reported by name:
    (a) alpha(s) == beta(t) syntactically, (b) alpha(t) == beta(s)
    syntactically, (c) alpha(t) & ~beta(t) and ~alpha(t) & beta(t) are both
    satisfiable within the domain bound.  The table must already decide the
    pairs {alpha, beta} (open) and {alpha(t), beta(t)} (closed).
    """
    variables = tuple(sorted(free_vars(alpha) | free_vars(beta)))
    if not variables:
        raise ConditionError("alpha and beta must have free variables")
    if len(t_terms) != len(variables) or len(s_terms) != len(variables):
        raise ConditionError(
            f"term tuples must match the variable tuple {variables}")
    for t in tuple(t_terms) + tuple(s_terms):
        if term_vars(t):
            raise ConditionError(f"term {to_text_term(t)} is not closed")
    t_map = dict(zip(variables, t_terms))
    s_map = dict(zip(variables, s_terms))
    alpha_t = substitute_map(alpha, t_map)
    beta_t = substitute_map(beta, t_map)
    alpha_s = substitute_map(alpha, s_map)
    beta_s = substitute_map(beta, s_map)
    if alpha_s != beta_t:
        raise ConditionError("(a) fails: alpha(s) is not syntactically beta(t)")
    if alpha_t != beta_s:
        raise ConditionError("(b) fails: alpha(t) is not syntactically beta(s)")
    m1 = _find_structure(And(alpha_t, Not(beta_t)), max_domain)
    m2 = _find_structure(And(Not(alpha_t), beta_t), max_domain)
    if m1 is None or m2 is None:
        raise ConditionError(
            "(c) fails: alpha(t)&~beta(t) and ~alpha(t)&beta(t) must both be "
            f"satisfiable with domain size <= {max_domain}")

    open_choice = choose(table, alpha, beta)
    closed_choice = choose(table, alpha_t, beta_t)
    open_is_alpha = open_choice == alpha
    closed_is_alpha_t = closed_choice == alpha_t

    if open_is_alpha and closed_is_alpha_t:
        case, structure, inst_terms = 1, m2, tuple(s_terms)
    elif open_is_alpha and not closed_is_alpha_t:
        case, structure, inst_terms = 2, m1, tuple(t_terms)
    elif not open_is_alpha and closed_is_alpha_t:
        case, structure, inst_terms = 3, m2, tuple(t_terms)
    else:
        case, structure, inst_terms = 4, m1, tuple(s_terms)

    psi = Implies(_eq_prefix(variables, inst_terms), Sup(alpha, beta))
    witness = UiWitness(structure, table, psi, variables, inst_terms, case)
    if not eval_fcs(structure, table, witness.universal) or \
            eval_fcs(structure, table, witness.instance):
        raise SupkitError("internal error: constructed witness failed to verify")
    return witness


def ui_failure_witness(alpha, t1, t2, table, max_domain=DEFAULT_DOMAIN_BOUND):
    """The single-formula variant: rename alpha's one free variable to v1
    and v2 and superpose the copies."""
    a1, a2 = renamed(alpha, "v1", "v2")
    return ui_failure_general(a1, a2, (t1, t2), (t2, t1), table, max_domain)


def renamed(alpha, *names):
    """``alpha`` with its one free variable renamed to each name."""
    fv = free_vars(alpha)
    if len(fv) != 1:
        raise ConditionError("alpha must have exactly one free variable")
    (var,) = fv
    return [substitute(alpha, var, Variable(name)) for name in names]


def ui_case_table(alpha, beta, t_terms, case_id):
    """The formula-mode table realizing a given case id (1..4)."""
    variables = tuple(sorted(free_vars(alpha) | free_vars(beta)))
    t_map = dict(zip(variables, t_terms))
    alpha_t, beta_t = substitute_map(alpha, t_map), substitute_map(beta, t_map)
    open_pick = alpha if case_id in (1, 2) else beta
    closed_pick = alpha_t if case_id in (1, 3) else beta_t
    return (ChoiceTable(mode=FORMULA_MODE)
            .with_entry(alpha, beta, open_pick)
            .with_entry(alpha_t, beta_t, closed_pick))


# ---------------------------------------------------------------------------
# No uniform choice function


class UniformityBranch(Record):
    __slots__ = __match_args__ = ("assumed_choice", "substituted", "symmetric_choice",
                                  "required_equivalence", "equivalence_holds")

    def __init__(self, assumed_choice, substituted, symmetric_choice, required_equivalence,
                 equivalence_holds):
        # substituted: [choice](v2,v1)
        self._init(assumed_choice, substituted, symmetric_choice, required_equivalence,
                   equivalence_holds)

    def describe(self):
        lhs, rhs = self.required_equivalence
        return {
            "assume": to_text(self.assumed_choice),
            "after_swap": to_text(self.substituted),
            "choice_on_swapped_pair": to_text(self.symmetric_choice),
            "uniformity_requires": f"{to_text(lhs)} ~ {to_text(rhs)}",
            "holds": self.equivalence_holds,
        }


class UniformityRefutation(Record):
    __slots__ = __match_args__ = ("alpha1", "alpha2", "branches", "exhaustive")

    def __init__(self, alpha1, alpha2, branches, exhaustive):
        # exhaustive: no 2-entry table satisfies the uniformity equation
        self._init(alpha1, alpha2, branches, exhaustive)

    def contradiction(self):
        return all(not b.equivalence_holds for b in self.branches) and self.exhaustive

    def describe(self):
        return {
            "pair": [to_text(self.alpha1), to_text(self.alpha2)],
            "branches": [b.describe() for b in self.branches],
            "exhaustive_over_tables": self.exhaustive,
            "contradiction": self.contradiction(),
        }


def refute_uniformity(alpha, v1, v2, oracle):
    """Replay the swap-substitution argument showing no choice on the pair
    {alpha(v1), alpha(v2)} commutes with substitution up to equivalence."""
    a1, a2 = renamed(alpha, v1, v2)
    if oracle.equivalent(a1, a2):
        raise ConditionError(
            f"{to_text(a1)} and {to_text(a2)} are equivalent at oracle bound "
            f"{oracle.max_domain}; pick a formula whose renamed copies differ, or a larger bound")
    swap = {v1: Variable(v2), v2: Variable(v1)}
    branches = []
    for assumed in (a1, a2):
        table = ChoiceTable(mode=FORMULA_MODE).with_entry(a1, a2, assumed)
        substituted = substitute_map(assumed, swap)
        # the swapped pair {alpha(v2), alpha(v1)} is the same unordered pair
        symmetric = choose(table, substitute_map(a1, swap), substitute_map(a2, swap))
        holds = oracle.equivalent(substituted, symmetric)
        branches.append(UniformityBranch(
            assumed_choice=assumed,
            substituted=substituted,
            symmetric_choice=symmetric,
            required_equivalence=(substituted, symmetric),
            equivalence_holds=holds,
        ))
    exhaustive = all(not b.equivalence_holds for b in branches)
    return UniformityRefutation(a1, a2, tuple(branches), exhaustive)


# ---------------------------------------------------------------------------
# Theory fragments


class TheoryFragment(Record):
    """A finite, negation-paired, subformula-closed set of restricted
    sentences with a complete in/out marking (the finite stand-in for a
    complete theory and its complement)."""

    __slots__ = __match_args__ = ("sentences", "markers", "signature")

    def __init__(self, sentences, markers, signature=None):
        # sentences: closure in canonical order; markers: canonical key ->
        # bool; signature: a Signature or None
        self._init(sentences, markers, signature)

    def marked(self, phi):
        return self.markers[canonical_key(phi)]

    @classmethod
    def from_markings(cls, markings, signature=None):
        """Close the marked sentences under subformulas and single
        negations, deriving connective markers; unknown or conflicting
        markers raise FragmentError."""
        base = {canonical_key(f): (f, bool(v)) for f, v in dict(markings).items()}
        universe = _closure_of(phi for phi, _ in base.values())
        known = {key: value for key, (phi, value) in base.items()}
        changed = True
        while changed:
            changed = False
            for key, phi in universe.items():
                if isinstance(phi, Not) and key in known:
                    bkey = canonical_key(phi.body)
                    if bkey not in known:
                        known[bkey] = not known[key]
                        changed = True
                derived = _derive_marker(phi, known)
                if derived is None:
                    continue
                if key in known:
                    if known[key] != derived:
                        raise FragmentError(
                            f"marking of {to_text(phi)} conflicts with its parts")
                else:
                    known[key] = derived
                    changed = True
        missing = [to_text(universe[k]) for k in universe if k not in known]
        if missing:
            raise FragmentError(f"markings undetermined for: {', '.join(sorted(missing))}")
        sentences = tuple(universe[k] for k in sorted(universe))
        return cls(sentences=sentences, markers=known, signature=signature)


def _closure_of(formulas):
    """Subformula + single-negation closure as a key -> formula map.
    Quantifier bodies are open formulas and stay out of the closure."""
    universe = {}

    def add(phi):
        key = canonical_key(phi)
        if key in universe:
            return
        universe[key] = phi
        if isinstance(phi, Not):
            add(phi.body)
        elif isinstance(phi, (And, Or, Implies, Iff, Sup)):
            add(phi.left)
            add(phi.right)
        if not isinstance(phi, Not):
            nkey = canonical_key(Not(phi))
            if nkey not in universe:
                universe[nkey] = Not(phi)

    for phi in formulas:
        add(phi)
    return universe


def _derive_marker(phi, known):
    def get(sub):
        return known.get(canonical_key(sub))

    if isinstance(phi, Not):
        inner = get(phi.body)
        return None if inner is None else not inner
    if isinstance(phi, (And, Or, Implies, Iff)):
        left, right = get(phi.left), get(phi.right)
        if left is None or right is None:
            return None
        if isinstance(phi, And):
            return left and right
        if isinstance(phi, Or):
            return left or right
        if isinstance(phi, Implies):
            return (not left) or right
        return left == right
    return None  # atoms, sup nodes and quantified sentences are free bits


class FragmentVerdict(Record):
    __slots__ = __match_args__ = ("ok", "case", "reason", "witness")

    def __init__(self, ok, case="", reason="", witness=()):
        self._init(ok, case, reason, witness)

    def __bool__(self):
        return self.ok


def _fragment_constants(fragment):
    names = set(vocabulary_of(fragment.sentences).constants)
    if fragment.signature is not None:
        names |= set(fragment.signature.constants)
    return sorted(names)


def _quantifier_instances(fragment, phi):
    """Constant instances of a quantified sentence that are present in the
    fragment, as (constant, instance) pairs."""
    present = {canonical_key(s) for s in fragment.sentences}
    out = []
    for name in _fragment_constants(fragment):
        inst = substitute(phi.body, phi.var, Constant(name))
        if canonical_key(inst) in present:
            out.append((name, inst))
    return out


def check_theory_fragment(fragment, max_domain=DEFAULT_DOMAIN_BOUND):
    """Validate completeness, negation coherence, the two impossible
    superposition patterns, Henkin witnessing, and classical satisfiability."""
    verdict = _check_markings(fragment)
    if verdict.ok and next(_candidate_models(fragment, max_domain), None) is None:
        return _inconsistent(max_domain)
    return verdict


def _inconsistent(max_domain):
    reason = f"classical part has no model with domain size <= {max_domain}"
    return FragmentVerdict(False, case="consistency", reason=reason)


def _check_markings(fragment):
    """``check_theory_fragment`` but for classical satisfiability."""
    keys = {canonical_key(s) for s in fragment.sentences}
    for s in fragment.sentences:
        if canonical_key(s) not in fragment.markers:
            return FragmentVerdict(False, reason=f"unmarked sentence {to_text(s)}")
        if free_vars(s):
            return FragmentVerdict(False, reason=f"open formula {to_text(s)}")
        if classify(s) > SyntaxClass.RESTRICTED:
            return FragmentVerdict(False, reason=f"unrestricted sentence {to_text(s)}")
        if isinstance(s, Not) and canonical_key(s.body) not in keys:
            return FragmentVerdict(False, reason=f"closure misses body of {to_text(s)}")
        if isinstance(s, (And, Or, Implies, Iff, Sup)):
            if canonical_key(s.left) not in keys or canonical_key(s.right) not in keys:
                return FragmentVerdict(False, reason=f"closure misses parts of {to_text(s)}")
        if not isinstance(s, Not) and canonical_key(Not(s)) not in keys:
            return FragmentVerdict(False, reason=f"closure misses negation of {to_text(s)}")

    for s in fragment.sentences:
        if isinstance(s, Not):
            if fragment.marked(s) == fragment.marked(s.body):
                return FragmentVerdict(
                    False, case="completeness",
                    reason=f"{to_text(s.body)} and its negation are marked alike")
        derived = _derive_marker(s, fragment.markers)
        if derived is not None and derived != fragment.marked(s):
            return FragmentVerdict(
                False, case="coherence",
                reason=f"marking of {to_text(s)} conflicts with its parts")

    for s in fragment.sentences:
        if isinstance(s, Sup):
            m, ml, mr = fragment.marked(s), fragment.marked(s.left), fragment.marked(s.right)
            if m and not ml and not mr:
                return FragmentVerdict(
                    False, case="a7",
                    reason="superposition marked in with both parts out "
                           "(contradicts the disjunction bound)",
                    witness=(s, Not(s.left), Not(s.right)))
            if not m and ml and mr:
                return FragmentVerdict(
                    False, case="a8",
                    reason="superposition marked out with both parts in "
                           "(contradicts the conjunction bound)",
                    witness=(Not(s), s.left, s.right))

    for s in fragment.sentences:
        if isinstance(s, Exists) and not is_classical(s):
            instances = _quantifier_instances(fragment, s)
            marked = [inst for _, inst in instances if fragment.marked(inst)]
            if fragment.marked(s) and not marked:
                return FragmentVerdict(
                    False, case="henkin",
                    reason=f"{to_text(s)} is in but has no marked-in witness instance")
            if not fragment.marked(s) and marked:
                return FragmentVerdict(
                    False, case="henkin",
                    reason=f"{to_text(s)} is out but an instance is marked in")
        if isinstance(s, Forall) and not is_classical(s):
            instances = _quantifier_instances(fragment, s)
            unmarked = [inst for _, inst in instances if not fragment.marked(inst)]
            if fragment.marked(s) and unmarked:
                return FragmentVerdict(
                    False, case="henkin",
                    reason=f"{to_text(s)} is in but an instance is marked out")
            if not fragment.marked(s) and instances and not unmarked:
                return FragmentVerdict(
                    False, case="henkin",
                    reason=f"{to_text(s)} is out but every present instance is in")
    return FragmentVerdict(True)


def _classical_members(fragment):
    return [s for s in fragment.sentences if is_classical(s)]


def _needs_covering(fragment):
    return any(isinstance(s, (Forall, Exists)) and not is_classical(s)
               for s in fragment.sentences)


def _candidate_models(fragment, max_domain):
    """The models that give each classical member its marking, in model
    order; when a quantified member needs it, only the structures whose
    every element some constant denotes."""
    literals = [s if fragment.marked(s) else Not(s) for s in _classical_members(fragment)]
    covering = _needs_covering(fragment)

    def mask_of(block):
        mask = block.covered() if covering else block.full
        for literal in literals:
            if not mask:
                break
            mask &= block.truth(literal)
        return mask

    space = SearchSpace.for_task(fragment.sentences, max_domain)
    return space.models_where(mask_of)


# ---------------------------------------------------------------------------
# Choice-table construction from a fragment


class BuildResult(Record):
    __slots__ = __match_args__ = ("model", "table", "report")

    def __init__(self, model, table, report):
        # table: a ChoiceTable
        self._init(model, table, report)


def _sup_nodes(fragment):
    return sorted(
        (s for s in fragment.sentences if isinstance(s, Sup)),
        key=lambda s: (len(canonical_key(s)), canonical_key(s)),
    )


def build_choice_from_theory(fragment, spec, max_domain=DEFAULT_DOMAIN_BOUND):
    """Construct a choice table of the spec's class, ``all`` or ``reg``,
    realizing the fragment in a model.

    Marked superpositions take the side their markers dictate (in+in/out+out
    ties broken canonically, or through equivalence-class representatives in
    regular mode); quantified members get entries on their parameter
    instances by delegating to the canonical constant naming each element.
    The result is verified: the collapse of every marked-in basic member
    lands back in the marked set, and the fragment is satisfied under
    sentence-choice evaluation.  A fragment that ``check_theory_fragment``
    rejects at ``max_domain`` raises FragmentError with that verdict.
    """
    if spec.name not in ("all", "reg"):
        raise SupkitError(f"tables are built for class 'all' or 'reg', not {spec.name!r}")
    oracle = spec.require_oracle()
    verdict = _check_markings(fragment)
    reps, failures = None, []
    # one pass over the candidate models, whose first shows consistency
    for model in _candidate_models(fragment, max_domain) if verdict.ok else ():
        if reps is None:
            reps = class_representatives(oracle, _classical_members(fragment)) \
                if spec.name == "reg" else {}
        try:
            table = _build_table(fragment, model, reps)
        except FragmentError as exc:
            failures.append(str(exc))
            continue
        problem = _verify_build(fragment, model, table)
        if problem is None:
            report = {
                "mode": spec.name,
                "model": model.describe(),
                "table": table.to_json()["entries"],
                "criterion": "collapse of every marked-in basic member is marked in",
            }
            if spec.name == "reg":
                report["regular"] = extendable(table, spec)
            return BuildResult(model=model, table=table, report=report)
        failures.append(problem)
    if not failures:
        verdict = _inconsistent(max_domain) if verdict.ok else verdict
        raise FragmentError(f"fragment invalid ({verdict.case}): {verdict.reason}", verdict)
    raise FragmentError(
        "no model in the space realizes the fragment: " + "; ".join(failures[:4]))


def _free_pick(a, b, reps):
    """Tie-break for the both-in / both-out cases: the smaller class
    representative (in ``reps``, empty for ``all``), then the smaller key."""
    ka, kb = canonical_key(a), canonical_key(b)
    ra = reps.get(ka, ka)
    rb = reps.get(kb, kb)
    if ra == rb:
        return a if ka <= kb else b
    return a if ra <= rb else b


def _build_table(fragment, model, reps):
    table = ChoiceTable(mode=SENTENCE_MODE)
    for node in _sup_nodes(fragment):
        a = collapse(table, node.left)
        b = collapse(table, node.right)
        m, ml, mr = fragment.marked(node), fragment.marked(node.left), fragment.marked(node.right)
        if ml != mr:   # pick the side marked as the superposition is
            pick = a if ml == m else b
        else:
            pick = _free_pick(a, b, reps)
        if a == b:
            continue
        if table.defined_on(a, b) and choose(table, a, b) != pick:
            raise FragmentError(
                f"nested superpositions force conflicting choices on "
                f"{{{to_text(a)}, {to_text(b)}}}")
        table = table.with_entry(a, b, pick)
    if isinstance(model, Structure) and _needs_covering(fragment):
        table = _add_parameter_entries(fragment, model, table)
    return table


def _add_parameter_entries(fragment, model, table):
    # each denoted element's least constant
    canon = {element: Constant(name)
             for name, element in sorted(model.constants.items(), reverse=True)}

    def ensure(phi):
        nonlocal table
        if isinstance(phi, Sup):
            ensure(phi.left)
            ensure(phi.right)
            a = collapse(table, phi.left)
            b = collapse(table, phi.right)
            if a == b or table.defined_on(a, b):
                return
            ca, cb = rename_parameters(a, canon), rename_parameters(b, canon)
            if not table.defined_on(ca, cb):
                raise FragmentError(
                    f"no fragment entry to delegate to for "
                    f"{{{to_text(a)}, {to_text(b)}}}")
            picked = choose(table, ca, cb)
            table = table.with_entry(a, b, a if picked == ca else b)
        elif isinstance(phi, Not):
            ensure(phi.body)
        elif isinstance(phi, (And, Or, Implies, Iff)):
            ensure(phi.left)
            ensure(phi.right)
        elif isinstance(phi, (Forall, Exists)):
            for element in model.domain:
                ensure(instantiate(phi, element))

    for s in fragment.sentences:
        if isinstance(s, (Forall, Exists)) and not is_classical(s):
            ensure(s)
    return table


def _verify_build(fragment, model, table):
    for s in fragment.sentences:
        if is_basic(s) and fragment.marked(s):
            collapsed = collapse(table, s)
            if not eval_classical(model, collapsed):
                return (f"criterion fails: collapse of {to_text(s)} is "
                        f"{to_text(collapsed)}, false in the model")
    for s in fragment.sentences:
        try:
            truth = eval_scs(model, table, s)
        except MissingEntryError as exc:
            return f"evaluation of {to_text(s)} needs {exc}"
        if truth != fragment.marked(s):
            return (f"{to_text(s)} evaluates {truth} but is marked "
                    f"{fragment.marked(s)}")
    return None


def enumerate_fragment_markings(base_sentences, signature=None, max_free=12):
    """All complete, validator-passing markings of the closure of the given
    sentences (the free bits are atoms, superposition nodes and quantified
    members)."""
    universe = _closure_of(base_sentences)
    free_nodes = [
        universe[key] for key in sorted(universe)
        if isinstance(universe[key], (PropAtom, PredAtom, Equality, Sup, Forall, Exists))
    ]
    if len(free_nodes) > max_free:
        raise FragmentError(f"too many free bits ({len(free_nodes)}) to enumerate")
    for bits in itertools.product((False, True), repeat=len(free_nodes)):
        markings = dict(zip(free_nodes, bits))
        try:
            fragment = TheoryFragment.from_markings(markings, signature)
        except FragmentError:
            continue
        if check_theory_fragment(fragment).ok:
            yield fragment


# ---------------------------------------------------------------------------
# Object superposition


class ObjectSuperpositionReport(Record):
    __slots__ = __match_args__ = ("structure", "element_a", "element_b", "rows")

    def __init__(self, structure, element_a, element_b, rows):
        # rows: (table, witnesses tuple, unique flag, regular flag) per table
        self._init(structure, element_a, element_b, rows)

    def unique_count(self):
        return sum(1 for _, _, unique, _ in self.rows if unique)

    def regular_count(self):
        return sum(1 for _, _, _, regular in self.rows if regular)

    def dichotomy_holds(self):
        """Some table yields a unique witness, no regular table does, and
        the two sets of tables are disjoint."""
        return (self.unique_count() == 2 and self.regular_count() == 2
                and all(not (unique and regular)
                        for _, _, unique, regular in self.rows))

    def describe(self):
        return {
            "structure": self.structure.describe(),
            "elements": [self.element_a, self.element_b],
            "tables": [
                {
                    "table": table.describe(),
                    "witnesses": list(witnesses),
                    "unique_witness": unique,
                    "regular": regular,
                }
                for table, witnesses, unique, regular in self.rows
            ],
            "unique_count": self.unique_count(),
            "regular_count": self.regular_count(),
            "dichotomy": self.dichotomy_holds(),
        }


def object_superposition_report(structure, a, b, oracle=None):
    """Enumerate the four sentence tables on the witness pairs of
    "v equals a or v equals b" and classify each by witness count and
    regularity.  The oracle's bound must be at least 2: over one element
    ``@a = @b`` is valid, and every table would read as regular."""
    if a == b:
        raise ConditionError("the two elements must be distinct")
    for element in (a, b):
        if element not in structure.domain:
            raise ConditionError(f"element {element!r} not in the domain")
    if oracle is None:
        oracle = BoundedModelOracle(max_domain=2)
    if oracle.max_domain < 2:
        raise ConditionError(
            f"the oracle bound {oracle.max_domain} is below 2: over one element the "
            "parameters of both elements denote the same one")

    def sides(x):
        return (Equality(Parameter(x), Parameter(a)),
                Equality(Parameter(x), Parameter(b)))

    pair_a, pair_b = sides(a), sides(b)
    rows = []
    for pick_a, pick_b in itertools.product((0, 1), repeat=2):
        table = (ChoiceTable()
                 .with_entry(*pair_a, pair_a[pick_a])
                 .with_entry(*pair_b, pair_b[pick_b]))
        witnesses = []
        for x in structure.domain:
            lhs, rhs = sides(x)
            if not eval_classical(structure, lhs) and not eval_classical(structure, rhs):
                continue  # neither side can hold, no table choice matters
            if eval_classical(structure, choose(table, lhs, rhs)):
                witnesses.append(x)
        regular = extendable(table, ClassSpec("reg", oracle))
        rows.append((table, tuple(witnesses), len(witnesses) == 1, regular))
    return ObjectSuperpositionReport(structure, a, b, tuple(rows))
