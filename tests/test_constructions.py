import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supkit import constructions
from supkit.choice import (
    BoundedModelOracle,
    ChoiceTable,
    ClassSpec,
    TruthTableOracle,
    check_class,
    collapse,
)
from supkit.constructions import (
    ConditionError,
    FragmentError,
    TheoryFragment,
    build_choice_from_theory,
    check_theory_fragment,
    enumerate_fragment_markings,
    object_superposition_report,
    refute_uniformity,
    ui_case_table,
    ui_failure_general,
    ui_failure_witness,
)
from supkit.models import Structure, Valuation, eval_classical, structures_over, vocabulary_of
from supkit.semantics import eval_fcs, eval_scs
from supkit.syntax import (
    And,
    Constant,
    Equality,
    Exists,
    Forall,
    Implies,
    Not,
    PredAtom,
    PropAtom,
    Signature,
    Sup,
    Variable,
    is_classical,
    parse,
    to_text,
)
from test_blocks import CLASSICAL, _formulas
from test_facts import ref_eval_classical

p0, p1 = PropAtom("p0"), PropAtom("p1")


def alpha_c3(term):
    return Equality(term, Constant("c3"))


ALPHA = alpha_c3(Variable("v"))  # v = c3


# ---------------------------------------------------------------------------
# Universal instantiation failure


def test_ui_failure_case1_shape():
    a1, a2 = alpha_c3(Variable("v1")), alpha_c3(Variable("v2"))
    table = ui_case_table(a1, a2, (Constant("c1"), Constant("c2")), 1)
    witness = ui_failure_witness(ALPHA, Constant("c1"), Constant("c2"), table)
    assert witness.case_id == 1
    # psi := [v1 = t2 /\ v2 = t1 -> alpha(v1) sup alpha(v2)]
    assert to_text(witness.psi) == "v1 = c2 /\\ v2 = c1 -> v1 = c3 sup v2 = c3"
    # case 1 uses the structure where alpha(t2) holds and alpha(t1) does not
    assert eval_classical(witness.structure,
                          And(Not(alpha_c3(Constant("c1"))), alpha_c3(Constant("c2"))))
    assert witness.verify()


def test_ui_failure_all_four_cases():
    a1, a2 = alpha_c3(Variable("v1")), alpha_c3(Variable("v2"))
    for case in (1, 2, 3, 4):
        table = ui_case_table(a1, a2, (Constant("c1"), Constant("c2")), case)
        witness = ui_failure_witness(ALPHA, Constant("c1"), Constant("c2"), table)
        assert witness.case_id == case
        assert not eval_fcs(witness.structure, witness.table, witness.instance)
        assert eval_fcs(witness.structure, witness.table, witness.universal)
        assert witness.verify()


def test_ui_failure_general_binary_relation():
    rel = Signature(predicates={"R": 2}, constants={"c1", "c2"})
    alpha = parse("R(v1,v2)", rel)
    beta = parse("R(v2,v1)", rel)
    t = (Constant("c1"), Constant("c2"))
    s = (Constant("c2"), Constant("c1"))
    for case in (1, 2, 3, 4):
        table = ui_case_table(alpha, beta, t, case)
        witness = ui_failure_general(alpha, beta, t, s, table)
        assert witness.case_id == case
        assert witness.verify()


def test_ui_failure_general_condition_a_violated():
    rel = Signature(predicates={"R": 2, "S": 2}, constants={"c1", "c2"})
    alpha = parse("R(v1,v2)", rel)
    beta = parse("S(v1,v2)", rel)  # not a swap of alpha
    t = (Constant("c1"), Constant("c2"))
    s = (Constant("c2"), Constant("c1"))
    table = ui_case_table(alpha, beta, t, 1)
    with pytest.raises(ConditionError) as err:
        ui_failure_general(alpha, beta, t, s, table)
    assert "(a)" in str(err.value)


def test_ui_failure_hypothesis_unsatisfiable():
    # alpha(v) := v = v cannot distinguish the two closed terms
    alpha = Equality(Variable("v"), Variable("v"))
    a1 = Equality(Variable("v1"), Variable("v1"))
    a2 = Equality(Variable("v2"), Variable("v2"))
    table = (ChoiceTable(mode="formula")
             .with_entry(a1, a2, a1)
             .with_entry(Equality(Constant("c1"), Constant("c1")),
                         Equality(Constant("c2"), Constant("c2")),
                         Equality(Constant("c1"), Constant("c1"))))
    with pytest.raises(ConditionError) as err:
        ui_failure_witness(alpha, Constant("c1"), Constant("c2"), table)
    assert "(c)" in str(err.value)


def test_ui_witness_requires_table_entries():
    from supkit.choice import MissingEntryError
    with pytest.raises(MissingEntryError):
        ui_failure_witness(ALPHA, Constant("c1"), Constant("c2"),
                           ChoiceTable(mode="formula"))


def test_d_scheme_is_safe_for_formula_choice():
    # the quantifier-distribution scheme holds under every table the
    # universal-instantiation witnesses use
    sigP = Signature(predicates={"P": 1, "Q": 1}, constants={"c1"})
    v = Variable("v")
    phi = parse("forall u. Q(u)", sigP)
    d_instance = Implies(
        Forall("v", Implies(phi, PredAtom("P", (v,)))),
        Implies(phi, Forall("v", PredAtom("P", (v,)))),
    )
    a1, a2 = alpha_c3(Variable("v1")), alpha_c3(Variable("v2"))
    for case in (1, 2, 3, 4):
        table = ui_case_table(a1, a2, (Constant("c1"), Constant("c2")), case)
        witness = ui_failure_witness(ALPHA, Constant("c1"), Constant("c2"), table)
        assert eval_fcs(witness.structure, witness.table, d_instance)


# ---------------------------------------------------------------------------
# No uniform choice


def test_refute_uniformity_predicate():
    oracle = BoundedModelOracle(max_domain=2)
    result = refute_uniformity(parse("P(v)"), "v1", "v2", oracle)
    assert result.contradiction()
    assert len(result.branches) == 2
    for branch in result.branches:
        assert not branch.equivalence_holds
    # both branches derive alpha(v1) ~ alpha(v2), against the precondition
    texts = {to_text(b.substituted) for b in result.branches}
    assert texts == {"P(v1)", "P(v2)"}


def test_refute_uniformity_precondition():
    oracle = BoundedModelOracle(max_domain=2)
    with pytest.raises(ConditionError):
        refute_uniformity(Equality(Variable("v"), Variable("v")), "v1", "v2", oracle)


# ---------------------------------------------------------------------------
# Theory fragments


def frag(markings, sig=None):
    return TheoryFragment.from_markings(markings, sig)


def test_fragment_a7_rejected():
    fragment = frag({Sup(p0, p1): True, p0: False, p1: False})
    verdict = check_theory_fragment(fragment)
    assert not verdict.ok and verdict.case == "a7"


def test_fragment_a8_rejected():
    fragment = frag({Sup(p0, p1): False, p0: True, p1: True})
    verdict = check_theory_fragment(fragment)
    assert not verdict.ok and verdict.case == "a8"


def test_fragment_a2_accepted():
    fragment = frag({Sup(p0, p1): True, p0: True, p1: False})
    assert check_theory_fragment(fragment).ok


def test_fragment_coherence():
    with pytest.raises(FragmentError):
        frag({And(p0, p1): True, p0: True, p1: False})


def test_build_a2_picks_the_marked_side():
    fragment = frag({Sup(p0, p1): True, p0: True, p1: False})
    result = build_choice_from_theory(fragment, "all")
    assert collapse(result.table, Sup(p0, p1)) == p0
    assert isinstance(result.model, Valuation)
    for s in fragment.sentences:
        assert eval_scs(result.model, result.table, s) == fragment.marked(s)


def test_build_a1_either_choice_works():
    fragment = frag({Sup(p0, p1): True, p0: True, p1: True})
    result = build_choice_from_theory(fragment, "all")
    assert eval_scs(result.model, result.table, Sup(p0, p1))


def test_build_reg_mode_uses_representatives():
    nn0 = Not(Not(p0))
    fragment = frag({
        Sup(nn0, p1): True, Sup(p0, p1): True,
        nn0: True, p0: True, p1: True,
    })
    oracle = TruthTableOracle()
    result = build_choice_from_theory(fragment, "reg", oracle)
    members = [f for a, b, _ in result.table.pairs() for f in (a, b)]
    assert check_class(result.table, ClassSpec("reg", oracle), members).ok
    assert result.report["regular"]
    # delegation picks equivalent sides on the two equivalent pairs
    chosen = {to_text(c) for _, _, c in result.table.pairs()}
    assert chosen == {"p0", "~~p0"}


def test_propositional_marking_enumeration_count():
    fragments = list(enumerate_fragment_markings([Sup(p0, p1), p0, p1]))
    # two of the eight markings hit the impossible patterns
    assert len(fragments) == 6


QSIG = Signature(constants={"c1", "c2"}, predicates={"P": 1, "Q": 1})


def quantified_base():
    body = Sup(PredAtom("P", (Variable("v"),)), PredAtom("Q", (Variable("v"),)))
    return [
        Exists("v", body),
        parse("P(c1) sup Q(c1)", QSIG),
        parse("P(c2) sup Q(c2)", QSIG),
    ]


def test_quantified_fragment_markings_and_build():
    fragments = list(enumerate_fragment_markings(quantified_base(), QSIG))
    assert fragments, "expected at least one valid marking"
    oracle = BoundedModelOracle(max_domain=2)
    for fragment in fragments:
        result = build_choice_from_theory(fragment, "all", max_domain=2)
        assert isinstance(result.model, Structure)
        for s in fragment.sentences:
            assert eval_scs(result.model, result.table, s) == fragment.marked(s)


def test_henkin_rule_enforced():
    body = Sup(PredAtom("P", (Variable("v"),)), PredAtom("Q", (Variable("v"),)))
    fragment = frag({
        Exists("v", body): True,
        parse("P(c1) sup Q(c1)", QSIG): False,
        parse("P(c1)", QSIG): True,
        parse("Q(c1)", QSIG): False,
    }, QSIG)
    verdict = check_theory_fragment(fragment)
    assert not verdict.ok and verdict.case == "henkin"


def _two_elements():
    return frag({parse("exists v. exists u. ~(v = u)"): True})


@pytest.mark.parametrize("fragment, max_domain, case", [
    (_two_elements(), 1, "consistency"),
    (frag({Sup(p0, p1): True, p0: False, p1: False}), 3, "a7"),
], ids=("consistency", "a7"))
def test_build_raises_the_checks_verdict_at_its_bound(fragment, max_domain, case):
    with pytest.raises(FragmentError) as caught:
        build_choice_from_theory(fragment, "all", max_domain=max_domain)
    verdict = caught.value.verdict
    assert verdict == check_theory_fragment(fragment, max_domain) and verdict.case == case
    assert str(caught.value) == f"fragment invalid ({case}): {verdict.reason}"


@pytest.mark.parametrize("fragment, max_domain", [
    (_two_elements(), 2),
    (frag({Sup(p0, p1): True, p0: True, p1: False}), 3),
])
def test_build_searches_the_candidate_models_once(monkeypatch, fragment, max_domain):
    searches = []
    models_where = constructions.SearchSpace.models_where

    def counted(self, mask_of):
        searches.append(self)
        return models_where(self, mask_of)

    monkeypatch.setattr(constructions.SearchSpace, "models_where", counted)
    result = build_choice_from_theory(fragment, "all", max_domain=max_domain)
    assert len(searches) == 1
    for s in fragment.sentences:
        assert eval_scs(result.model, result.table, s) == fragment.marked(s)


# ---------------------------------------------------------------------------
# Object superposition


def test_object_superposition_dichotomy():
    m = Structure(domain=("a", "b"))
    report = object_superposition_report(m, "a", "b")
    assert len(report.rows) == 4
    assert report.unique_count() == 2
    assert report.regular_count() == 2
    assert report.dichotomy_holds()
    witness_sets = sorted(tuple(w) for _, w, _, _ in report.rows)
    assert witness_sets == [(), ("a",), ("a", "b"), ("b",)]
    # unique-witness tables are exactly the irregular ones
    for _, witnesses, unique, regular in report.rows:
        assert unique == (not regular)


def test_object_superposition_requires_distinct():
    m = Structure(domain=("a", "b"))
    with pytest.raises(ConditionError):
        object_superposition_report(m, "a", "a")


# ---------------------------------------------------------------------------
# The mask searches against the per-structure loops they replaced


def ref_find_structure(condition, max_domain):
    for structure in structures_over(vocabulary_of([condition]), max_domain):
        if ref_eval_classical(structure, condition):
            return structure
    return None


def ref_candidate_models(fragment, max_domain):
    """The candidates as the loop gave them, a propositional fragment's one
    valuation only when it gives each classical member its marking."""
    classical = [s for s in fragment.sentences if is_classical(s)]
    vocab = vocabulary_of(fragment.sentences)
    if not vocab.first_order:
        valuation = Valuation({s.name: fragment.marked(s)
                               for s in fragment.sentences if isinstance(s, PropAtom)})
        if all(ref_eval_classical(valuation, s) == fragment.marked(s) for s in classical):
            yield valuation
        return
    covering = any(isinstance(s, (Forall, Exists)) and not is_classical(s)
                   for s in fragment.sentences)
    for structure in structures_over(vocab, max_domain):
        if covering and set(structure.domain) - set(structure.constants.values()):
            continue
        if all(ref_eval_classical(structure, s) == fragment.marked(s) for s in classical):
            yield structure


@settings(max_examples=100, deadline=None)
@given(_formulas(CLASSICAL), st.integers(1, 3))
def test_find_structure_finds_what_the_loop_found(condition, max_domain):
    assert constructions._find_structure(condition, max_domain) == \
        ref_find_structure(condition, max_domain)


def _all_fragments(base, sig=None):
    """Every fragment of the closure of ``base``, consistent or not."""
    universe = constructions._closure_of(base)
    free = [universe[key] for key in sorted(universe)
            if isinstance(universe[key], (PropAtom, PredAtom, Equality, Sup, Forall, Exists))]
    for bits in itertools.product((False, True), repeat=len(free)):
        try:
            yield TheoryFragment.from_markings(dict(zip(free, bits)), sig)
        except FragmentError:
            pass


@pytest.mark.parametrize("base, sig", [
    ([Sup(p0, p1), p0, p1], None),
    ([Sup(Not(Not(p0)), p1), Sup(p0, p1)], None),
    (quantified_base(), QSIG),
    ([parse("forall v. (P(v) sup Q(v))", QSIG), parse("P(c1) /\\ ~Q(c2)", QSIG)], QSIG),
    ([parse("forall v. ~P(v)", QSIG), parse("P(c1) \\/ exists v. exists u. ~(v = u)", QSIG)],
     QSIG),
    ([parse("exists v. (P(v) sup Q(v))", QSIG), parse("P(@e1) sup Q(c1)", QSIG)], QSIG),
], ids=["sup", "double-negation", "quantified", "covering", "inconsistent", "parameter"])
def test_candidate_models_are_those_of_the_loop(base, sig):
    fragments = list(_all_fragments(base, sig))
    assert fragments
    for fragment in fragments:
        for max_domain in (1, 2, 3):
            assert list(constructions._candidate_models(fragment, max_domain)) == \
                list(ref_candidate_models(fragment, max_domain))
