import itertools
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supkit.choice import (
    CLASS_NAMES,
    FORMULA_MODE,
    ChoiceTable,
    ClassSpec,
    TruthTableOracle,
)
from supkit.models import (
    Block,
    EvalError,
    Structure,
    Valuation,
    eval_classical,
    structures_over,
    vocabulary_of,
)
from supkit.semantics import (
    NotRestrictedError,
    SearchSpace,
    check_consequence,
    class_spec_for,
    eval_fcs,
    eval_scs,
)
from supkit.syntax import (
    And,
    Constant,
    Equality,
    Exists,
    Forall,
    FuncApp,
    Iff,
    Implies,
    Not,
    Or,
    Parameter,
    PredAtom,
    PropAtom,
    Sup,
    SupkitError,
    Variable,
    parse,
    substitute_map,
    symbols,
)
from test_facts import ref_eval_classical

p0, p1, p2 = PropAtom("p0"), PropAtom("p1"), PropAtom("p2")


def table_of(*entries, mode="sentence"):
    t = ChoiceTable(mode=mode)
    for a, b, c in entries:
        t = t.with_entry(a, b, c)
    return t


M_AB = Structure(domain=("a", "b"), constants={"ca": "a", "cb": "b"})


def test_eval_classical_distinct_constants():
    assert not eval_classical(M_AB, Equality(Constant("ca"), Constant("cb")))
    phi = Forall("v", Or(Equality(Variable("v"), Constant("ca")),
                         Equality(Variable("v"), Constant("cb"))))
    assert eval_classical(M_AB, phi)


def test_eval_classical_ui_hypothesis_structure():
    # alpha(v) := v = c3 with c3 sharing c1's value satisfies alpha(c1) & ~alpha(c2)
    m1 = Structure(domain=("e0", "e1"),
                   constants={"c1": "e0", "c2": "e1", "c3": "e0"})
    alpha = lambda t: Equality(t, Constant("c3"))
    assert eval_classical(m1, And(alpha(Constant("c1")), Not(alpha(Constant("c2")))))


def test_eval_classical_errors():
    with pytest.raises(EvalError):
        eval_classical(M_AB, PredAtom("P", (Variable("v"),)))  # unbound var
    with pytest.raises(EvalError):
        eval_classical(M_AB, Sup(p0, p1))  # non-classical
    with pytest.raises(EvalError):
        eval_classical(Valuation({"p0": True}), PredAtom("P", (Constant("ca"),)))


def test_scs_classical_agreement():
    v = Valuation({"p0": True, "p1": False})
    alpha = Implies(p0, p1)
    for table in (ChoiceTable(), table_of((p0, p1, p0))):
        assert eval_scs(v, table, alpha) == eval_classical(v, alpha)


def test_scs_propositional_sup():
    v = Valuation({"p0": True, "p1": False})
    assert eval_scs(v, table_of((p0, p1, p0)), Sup(p0, p1))
    assert not eval_scs(v, table_of((p0, p1, p1)), Sup(p0, p1))


def test_scs_quantified_sup_pointwise():
    # forall v (P(v) sup Q(v)) holds iff the chosen side holds at every element
    P = lambda t: PredAtom("P", (t,))
    Q = lambda t: PredAtom("Q", (t,))
    m = Structure(domain=("a", "b"),
                  predicates={"P": frozenset({("a",)}), "Q": frozenset({("b",)})})
    phi = Forall("v", Sup(P(Variable("v")), Q(Variable("v"))))
    t_good = table_of(
        (P(Parameter("a")), Q(Parameter("a")), P(Parameter("a"))),
        (P(Parameter("b")), Q(Parameter("b")), Q(Parameter("b"))),
    )
    assert eval_scs(m, t_good, phi)
    t_bad = table_of(
        (P(Parameter("a")), Q(Parameter("a")), Q(Parameter("a"))),
        (P(Parameter("b")), Q(Parameter("b")), Q(Parameter("b"))),
    )
    assert not eval_scs(m, t_bad, phi)
    # the existential dual picks a witness
    psi = Exists("v", Sup(P(Variable("v")), Q(Variable("v"))))
    assert eval_scs(m, t_bad, psi)


def test_scs_negation_duality():
    v = Valuation({"p0": True, "p1": False})
    t = table_of((p0, p1, p1))
    phi = Sup(p0, p1)
    assert eval_scs(v, t, Not(phi)) == (not eval_scs(v, t, phi))


def test_scs_rejects_unrestricted():
    phi = Sup(Forall("v", Sup(PredAtom("P", (Variable("v"),)),
                              PredAtom("Q", (Variable("v"),)))), p0)
    with pytest.raises(NotRestrictedError):
        eval_scs(M_AB, ChoiceTable(), phi)


def test_fcs_quantifier_commutes():
    P = lambda t: PredAtom("P", (t,))
    Q = lambda t: PredAtom("Q", (t,))
    v = Variable("v")
    m = Structure(domain=("a", "b"),
                  predicates={"P": frozenset({("a",)}), "Q": frozenset({("a",), ("b",)})})
    phi = Forall("v", Sup(P(v), Q(v)))
    # choosing the open formula P(v) makes truth equal forall v P(v)
    t = table_of((P(v), Q(v), P(v)), mode=FORMULA_MODE)
    assert not eval_fcs(m, t, phi)
    t2 = table_of((P(v), Q(v), Q(v)), mode=FORMULA_MODE)
    assert eval_fcs(m, t2, phi)


def test_fcs_classical_agreement():
    t = ChoiceTable(mode=FORMULA_MODE)
    alpha = Equality(Constant("ca"), Constant("ca"))
    assert eval_fcs(M_AB, t, alpha) == eval_classical(M_AB, alpha)


def test_fcs_scs_divergence():
    # non-uniform sentence table vs uniform formula table on the same shape
    P = lambda t: PredAtom("P", (t,))
    Q = lambda t: PredAtom("Q", (t,))
    v = Variable("v")
    m = Structure(domain=("a", "b"),
                  predicates={"P": frozenset({("a",)}), "Q": frozenset({("b",)})})
    phi = Forall("v", Sup(P(v), Q(v)))
    formula_table = table_of((P(v), Q(v), P(v)), mode=FORMULA_MODE)
    sentence_table = table_of(
        (P(Parameter("a")), Q(Parameter("a")), P(Parameter("a"))),
        (P(Parameter("b")), Q(Parameter("b")), Q(Parameter("b"))),
    )
    assert not eval_fcs(m, formula_table, phi)   # P fails at b
    assert eval_scs(m, sentence_table, phi)      # pointwise choices both true


# ---------------------------------------------------------------------------
# Consequence and tautology checking


def test_interpolation_consequences():
    spec = ClassSpec("all")
    assert check_consequence([And(p0, p1)], Sup(p0, p1), spec).valid
    assert check_consequence([Sup(p0, p1)], Or(p0, p1), spec).valid


def test_interpolation_non_implications():
    spec = ClassSpec("all")
    v1 = check_consequence([Or(p0, p1)], Sup(p0, p1), spec)
    assert not v1.valid and v1.verify()
    v2 = check_consequence([Sup(p0, p1)], And(p0, p1), spec)
    assert not v2.valid and v2.verify()
    # the classic countermodel: p0 true, p1 false, table choosing the false side
    cm = v1.countermodel
    assert isinstance(cm.model, Valuation)


def test_s1_tautology_every_space():
    spec = ClassSpec("all")
    inst = Implies(And(p0, p1), Sup(p0, p1))
    assert check_consequence((), inst, spec).valid
    fo_inst = parse("P(c1) /\\ Q(c1) -> P(c1) sup Q(c1)")
    assert check_consequence((), fo_inst, ClassSpec("all"),
                             space=SearchSpace.for_task([fo_inst], max_domain=2)).valid


S4 = Implies(Sup(Sup(p0, p1), p2), Sup(p0, Sup(p1, p2)))
S5 = Implies(And(p0, Not(p1)), Iff(Sup(p0, p1), Sup(Not(p0), Not(p1))))


def test_s4_separates_all_from_asso():
    verdict = check_consequence((), S4, ClassSpec("all"))
    assert not verdict.valid and verdict.verify()
    assert check_consequence((), S4, ClassSpec("asso")).valid


def test_s5_separates_regstar_from_dec():
    oracle = TruthTableOracle()
    verdict = check_consequence((), S5, ClassSpec("regstar", oracle))
    assert not verdict.valid and verdict.verify()
    assert check_consequence((), S5, ClassSpec("dec", oracle)).valid


def test_verdict_json_and_space_description():
    verdict = check_consequence((), S4, ClassSpec("all"))
    data = verdict.to_json()
    assert data["result"] == "countermodel"
    assert data["space"]["kind"] == "propositional"
    assert data["space"]["class"] == "all"
    assert "countermodel" in data


def test_class_spec_for_picks_oracle():
    assert class_spec_for("all", [p0]).oracle is None
    assert isinstance(class_spec_for("reg", [p0]).oracle, TruthTableOracle)
    fo = parse("P(c1)")
    assert class_spec_for("reg", [fo]).oracle.describe()["kind"] == "bounded-model"


def test_fo_consequence_ui_is_sound_under_scs():
    # universal instantiation is fine in sentence-choice semantics
    phi = parse("(forall v. P(v)) -> P(c1)")
    spec = ClassSpec("all")
    assert check_consequence([], phi, spec,
                             space=SearchSpace.for_task([phi], max_domain=2)).valid


# ---------------------------------------------------------------------------
# eval_classical, a one-model Block, against the evaluator it replaced


_DOMAINS = [("a", "b"), ("e0", "e1", "e2"), ("x",), ("e1", "e0")]
_VARS = ("v", "u", "w")
_PARAMS = ("a", "b", "e0", "e1", "x", "z")
_UNINTERPRETED = re.compile(r"propositional atom requires a valuation"
                            r"|structure does not interpret (constant|function) '\w+'")


def _terms():
    base = st.one_of(st.builds(Variable, st.sampled_from(_VARS)),
                     st.sampled_from([Constant("c1"), Constant("c2")]),
                     st.builds(Parameter, st.sampled_from(_PARAMS)))
    return st.recursive(base, lambda sub: st.one_of(
        st.builds(lambda t: FuncApp("g", (t,)), sub),
        st.builds(lambda s, t: FuncApp("h", (s, t)), sub, sub)), max_leaves=3)


def _classical(atoms, quantifiers=True):
    def extend(sub):
        options = [st.builds(Not, sub)] + [st.builds(c, sub, sub)
                                           for c in (And, Or, Implies, Iff)]
        if quantifiers:
            options += [st.builds(q, st.sampled_from(_VARS), sub) for q in (Forall, Exists)]
        return st.one_of(options)
    return st.recursive(atoms, extend, max_leaves=8)


_FO_ATOMS = st.one_of(
    st.builds(lambda t: PredAtom("P", (t,)), _terms()),
    st.builds(lambda s, t: PredAtom("R", (s, t)), _terms(), _terms()),
    st.builds(Equality, _terms(), _terms()))
_PROP = st.sampled_from([p0, p1, p2])


@st.composite
def _structures(draw, complete):
    """A structure with an environment.  A complete one interprets every
    symbol of ``_FO_ATOMS`` and binds every variable; otherwise anything
    may be missing and function tables may be partial.  A parameter names
    its element, which may lie outside the domain."""
    domain = draw(st.sampled_from(_DOMAINS))
    element = st.sampled_from(domain)
    keep = st.just(True) if complete else st.integers(0, 4).map(bool)
    constants = {name: draw(element) for name in ("c1", "c2") if draw(keep)}
    functions = {
        name: {args: draw(element)
               for args in itertools.product(domain, repeat=arity) if draw(keep)}
        for name, arity in (("g", 1), ("h", 2)) if draw(keep)}
    predicates = {
        name: frozenset(args for args in itertools.product(domain, repeat=arity)
                        if draw(st.booleans()))
        for name, arity in (("P", 1), ("R", 2)) if draw(st.booleans())}
    env = {var: draw(element) for var in _VARS if draw(keep)}
    return Structure(domain, constants, functions, predicates), env


def _outcome(evaluate, model, phi, env):
    try:
        return True, evaluate(model, phi, env)
    except EvalError as exc:
        return False, str(exc)


@settings(max_examples=300, deadline=None)
@given(_structures(complete=True), _classical(_FO_ATOMS))
def test_eval_classical_matches_the_reference_on_structures(model_env, phi):
    """Truth values agree, and so do the errors of parameters that name no
    element of the domain."""
    model, env = model_env
    assert _outcome(eval_classical, model, phi, env) == \
        _outcome(ref_eval_classical, model, phi, env)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.sampled_from(["p0", "p1", "p2"]), st.booleans()),
       _classical(_PROP, quantifiers=False))
def test_eval_classical_matches_the_reference_on_valuations(assignment, phi):
    v = Valuation(assignment)
    assert _outcome(eval_classical, v, phi, {}) == _outcome(ref_eval_classical, v, phi, {})


def _interprets(model, phi):
    """Whether a structure interprets every symbol that ``phi`` names; a
    valuation is checked node by node."""
    if isinstance(model, Valuation):
        return True
    syms = symbols(phi)
    return not syms.prop_atoms and syms.constants <= model.constants.keys() \
        and {name for name, _ in syms.functions} <= model.functions.keys()


def _mostly(atoms, stray):
    """Formulas over ``atoms``, a quarter of them with ``stray`` atoms too."""
    usual = _classical(atoms, quantifiers=atoms is _FO_ATOMS)
    return st.one_of(usual, usual, usual, _classical(st.one_of(atoms, stray)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.tuples(_structures(complete=False), _mostly(_FO_ATOMS, _PROP)),
    st.tuples(st.builds(lambda a: (Valuation(a), {}),
                        st.dictionaries(st.sampled_from(["p0", "p1", "p2"]), st.booleans())),
              _mostly(_PROP, _FO_ATOMS))))
def test_eval_classical_raises_where_the_reference_raises(task):
    """Where anything may be missing, the block gives the reference's truth
    value or its error, message included, since it reads what the
    reference's short-circuits read.  Only a symbol that the structure
    leaves uninterpreted raises before evaluation, wherever it occurs."""
    (model, env), phi = task
    outcome = _outcome(eval_classical, model, phi, env)
    if _interprets(model, phi):
        assert outcome == _outcome(ref_eval_classical, model, phi, env)
    else:
        assert not outcome[0] and _UNINTERPRETED.fullmatch(outcome[1]), outcome


@settings(max_examples=200, deadline=None)
@given(_structures(complete=False), st.lists(_classical(_FO_ATOMS), min_size=1, max_size=4))
def test_a_shared_block_raises_again_where_an_atom_raised(model_env, formulas):
    """One model's block, shared by several formulas, their negations and
    the formulas again, keeps each atom's mask once built; it gives the
    reference's value or message on each, so an atom that raised (an
    undefined function entry, an unbound variable, a parameter outside the
    domain) raises again instead of reading a mask it never finished."""
    model, env = model_env
    model = model.replace(
        constants={"c1": model.domain[0], "c2": model.domain[-1], **model.constants},
        functions={"g": {}, "h": {}, **model.functions})
    formulas = [substitute_map(phi, {v: Parameter(x) for v, x in env.items()})
                for phi in formulas]
    block = Block.of_model(model, vocabulary_of(formulas))

    def shared(model, phi, env):
        return bool(block.truth(phi))

    for phi in formulas + [Not(phi) for phi in formulas] + formulas:
        assert _outcome(shared, model, phi, {}) == _outcome(ref_eval_classical, model, phi, {})


M_PARAM = Structure(domain=("a", "b"), constants={"c1": "a"},
                    functions={"g": {("a",): "b"}}, predicates={"P": frozenset({("a",)})})
V_P0 = Valuation({"p0": True})


@pytest.mark.parametrize("model, phi, message", [
    (M_PARAM, PredAtom("P", (Variable("v"),)), "unbound variable 'v'"),
    (M_PARAM, PredAtom("P", (Constant("c9"),)), "structure does not interpret constant 'c9'"),
    (M_PARAM, PredAtom("P", (FuncApp("k", (Constant("c1"),)),)),
     "structure does not interpret function 'k'"),
    (M_PARAM, Equality(FuncApp("g", (FuncApp("g", (Constant("c1"),)),)), Constant("c1")),
     "function 'g' undefined on ('b',)"),
    (M_PARAM, Exists("v", Equality(FuncApp("g", (Variable("v"),)), Variable("v"))),
     "function 'g' undefined on ('b',)"),
    (M_PARAM, PredAtom("P", (Parameter("z"),)), "parameter @z not in domain"),
    (M_PARAM, And(PredAtom("P", (Constant("c1"),)), p0),
     "propositional atom requires a valuation"),
    (V_P0, PredAtom("P", (Constant("c1"),)), "valuations cannot evaluate PredAtom nodes"),
    (V_P0, Or(Not(p0), Forall("v", p0)), "valuations cannot evaluate Forall nodes"),
    (V_P0, And(p0, p1), "valuation does not cover atom 'p1'"),
], ids=["unbound", "constant", "function", "partial", "partial-in-quantifier", "parameter",
        "atom-in-structure", "predicate-in-valuation", "quantifier-in-valuation",
        "uncovered-atom"])
def test_eval_classical_keeps_the_reference_messages(model, phi, message):
    for evaluate in (eval_classical, ref_eval_classical):
        with pytest.raises(EvalError) as caught:
            evaluate(model, phi)
        assert str(caught.value) == message


def test_parameters_read_as_their_elements():
    # @a names a and @b names b, whatever the constants denote
    assert not eval_classical(M_PARAM, Equality(Parameter("b"), Parameter("a")))
    assert eval_classical(M_PARAM, Equality(Parameter("a"), Constant("c1")))
    assert eval_classical(M_PARAM, PredAtom("P", (Parameter("a"),)))
    assert not eval_classical(M_PARAM, PredAtom("P", (Parameter("b"),)))
    assert eval_classical(M_PARAM, Equality(FuncApp("g", (Parameter("a"),)), Variable("v")),
                          {"v": "b"})


def test_an_environment_binds_its_variables_as_parameters():
    """An element outside the domain is an EvalError, as a parameter that
    names it is, not a KeyError."""
    model = Structure(("a", "b"), predicates={"P": frozenset({("a",)})})
    assert eval_classical(model, parse("P(v)"), {"v": "a"})
    assert eval_classical(model, parse("forall v. P(v) \\/ v = u"), {"u": "b"})
    with pytest.raises(EvalError, match="^parameter @z not in domain$"):
        eval_classical(model, parse("P(v)"), {"v": "z"})


def test_an_uninterpreted_symbol_raises_before_evaluation():
    """The block needs every digit of the layout up front, so a symbol that
    the model leaves uninterpreted raises even where the evaluator it
    replaced short-circuited past it."""
    phi = Or(PredAtom("P", (Constant("c1"),)), PredAtom("Q", (Constant("c9"),)))
    assert ref_eval_classical(M_PARAM, phi)
    with pytest.raises(EvalError, match="^structure does not interpret constant 'c9'$"):
        eval_classical(M_PARAM, phi)


# ---------------------------------------------------------------------------
# Re-verification of countermodels on tasks with parameters


PARAMETER_TASKS = [
    ("forall v. (P(v) sup P(v))", "~P(@e0) \\/ forall v. P(v)"),
    ("", "((forall v. (P(v) sup P(v))) -> forall v. P(v)) \\/ (P(@e0) /\\ ~P(@e0))"),
    ("P(@e1) sup Q(@e0)", "exists v. (P(v) sup Q(v))"),
    ("forall v. (P(v) sup P(@e0))", "P(@e1)"),
]


@pytest.mark.parametrize("name", ["all", "reg", "dec"])
def test_verify_agrees_with_the_search_on_tasks_with_parameters(name):
    """``Verdict.verify`` reads each parameter as the search reads it, as
    its element, so it confirms every countermodel the search returns.  A
    bound below the least domain that the parameters need is refused, by
    one job and by two, rather than searched as an empty space."""
    countermodels = refused = 0
    for premises, conclusion in PARAMETER_TASKS:
        needs_two = "@e1" in premises + conclusion
        premises = [parse(text) for text in premises.split(";") if text]
        formulas = premises + [parse(conclusion)]
        spec = class_spec_for(name, formulas, oracle_bound=2)
        for max_domain in (1, 2, 3):
            space = SearchSpace.for_task(formulas, max_domain)
            if needs_two and max_domain == 1:
                for jobs in (1, 2):
                    with pytest.raises(SupkitError, match="the domain bound 1 leaves out "
                                       "element e1, which a parameter names"):
                        check_consequence(premises, formulas[-1], spec, space, jobs=jobs)
                refused += 1
                continue
            verdict = check_consequence(premises, formulas[-1], spec, space)
            assert verdict.verify(), (conclusion, max_domain)
            assert check_consequence(premises, formulas[-1], spec, space, jobs=2).to_json() \
                == verdict.to_json()
            countermodels += not verdict.valid
    assert countermodels and refused == 2


def test_a_first_order_space_below_the_least_domain_is_refused():
    """A first-order space with no model is refused, with or without a
    parameter, rather than reported valid over no model; a propositional
    space has no domain bound to fall short of."""
    spec = ClassSpec("all")
    for text, max_domain, message in [
            ("forall v. P(v)", 0,
             "the domain bound 0 admits no domain: a domain has at least 1 element"),
            ("P(c1) -> P(c1)", -1,
             "the domain bound -1 admits no domain: a domain has at least 1 element"),
            ("P(@e0) -> P(@e0)", 0,
             "the domain bound 0 leaves out element e0, which a parameter names")]:
        phi = parse(text)
        space = SearchSpace.for_task([phi], max_domain)
        for jobs in (1, 2):
            with pytest.raises(SupkitError, match=f"^{re.escape(message)}$"):
                check_consequence((), phi, spec, space, jobs=jobs)
    phi = parse("p0 -> p0")
    verdict = check_consequence((), phi, spec, SearchSpace.for_task([phi], 0))
    assert verdict.valid and verdict.models_checked == 2


# ---------------------------------------------------------------------------
# Sentences whose every sup has equal operands: ``a sup a`` collapses to
# ``a`` under every table, so each verdict is classical validity


_TWIN_TERMS = [Constant("c1"), Parameter("e0"), Parameter("e1")]
_CLASSICAL, _BASIC, _RESTRICTED = range(3)


def _twin_atoms(variables):
    terms = st.sampled_from(_TWIN_TERMS + [Variable(v) for v in variables])
    return st.one_of(
        st.builds(lambda name, t: PredAtom(name, (t,)), st.sampled_from("PQ"), terms),
        st.builds(Equality, terms, terms))


@st.composite
def _twin_formulas(draw, level=_RESTRICTED, variables=(), depth=3):
    """A formula of at most the given syntax class, free variables among
    ``variables``, whose every ``sup`` has equal operands."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(_twin_atoms(variables))
    kinds = ["not", "binary", "quantifier", "quantifier"] + ["sup", "sup"] * (level > _CLASSICAL)
    kind = draw(st.sampled_from(kinds))
    if kind == "quantifier":
        var = f"v{len(variables)}"
        body = draw(_twin_formulas(_RESTRICTED if level == _RESTRICTED else _CLASSICAL,
                                   variables + (var,), depth - 1))
        return draw(st.sampled_from((Forall, Exists)))(var, body)
    if kind == "not":
        return Not(draw(_twin_formulas(level, variables, depth - 1)))
    if kind == "sup":
        operand = draw(_twin_formulas(_BASIC, variables, depth - 1))
        return Sup(operand, operand)
    return draw(st.sampled_from((And, Or, Implies, Iff)))(
        draw(_twin_formulas(level, variables, depth - 1)),
        draw(_twin_formulas(level, variables, depth - 1)))


def _without_twins(phi):
    """``phi`` with each ``a sup a`` replaced by ``a``."""
    if isinstance(phi, Sup):
        return _without_twins(phi.left)
    if isinstance(phi, Not):
        return Not(_without_twins(phi.body))
    if isinstance(phi, (And, Or, Implies, Iff)):
        return type(phi)(_without_twins(phi.left), _without_twins(phi.right))
    if isinstance(phi, (Forall, Exists)):
        return type(phi)(phi.var, _without_twins(phi.body))
    return phi


@settings(max_examples=150, deadline=None)
@given(st.lists(_twin_formulas(), max_size=1), _twin_formulas(), st.sampled_from(CLASS_NAMES))
@example([], parse("((forall v. (P(v) sup P(v))) -> forall v. P(v)) \\/ (P(@e0) /\\ ~P(@e0))"),
         "all")
def test_equal_operands_give_the_classical_verdict(premises, conclusion, name):
    """A quantifier's instances denote their elements, whatever parameters
    the sentences name, so the search visits each element once."""
    formulas = premises + [conclusion]
    space = SearchSpace.for_task(formulas, max_domain=2)
    verdict = check_consequence(premises, conclusion,
                                class_spec_for(name, formulas, oracle_bound=2), space)
    classical = [_without_twins(phi) for phi in formulas]
    valid = all(not all(ref_eval_classical(model, phi) for phi in classical[:-1])
                or ref_eval_classical(model, classical[-1])
                for model in structures_over(space.vocabulary, 2))
    assert verdict.valid == valid and verdict.verify()
