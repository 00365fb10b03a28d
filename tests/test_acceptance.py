"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 1 bounds the *compound* sentences (the conjunction, superposition
and disjunction of each pair) to connective depth <= 2, so the operands
range over every sentence of depth <= 1 on two atoms; a seeded random
sample of deeper pairs is swept on top.
"""

import itertools
import random
import time

import pytest

from supkit import corpus
from supkit.choice import (
    BoundedModelOracle,
    ChoiceTable,
    ClassSpec,
    TruthTableOracle,
    choose,
    collapse,
    enumerate_tables,
    extendable,
)
from supkit.cli import _depth1_sentences
from supkit.constructions import (
    build_choice_from_theory,
    enumerate_fragment_markings,
    object_superposition_report,
    refute_uniformity,
    ui_case_table,
    ui_failure_general,
    ui_failure_witness,
)
from supkit.corpus import SYSTEM_CLASS, corpus_entries, mutant_entries
from supkit.models import Structure, Valuation, eval_classical, structures_over, vocabulary_of
from supkit.proofs import SV, Axiom, GR, MP, check_proof
from supkit.semantics import (
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
    Signature,
    Sup,
    Variable,
    classify,
    is_basic,
    parse,
    to_text,
)

p0, p1, p2 = PropAtom("p0"), PropAtom("p1"), PropAtom("p2")


def report(line):
    print(f"\nPASS {line}")


# ---------------------------------------------------------------------------
# Criterion 1: interpolation


def test_criterion_1_interpolation():
    start = time.monotonic()
    sentences = _depth1_sentences()
    assert len(sentences) == 24
    pairs = list(itertools.product(sentences, repeat=2))
    rng = random.Random(20240817)
    for _ in range(100):
        pairs.append((rng.choice(sentences),
                      Sup(rng.choice(sentences), rng.choice(sentences))))
    spec = ClassSpec("all")
    evaluations = 0
    for phi, psi in pairs:
        conj, sup, disj = And(phi, psi), Sup(phi, psi), Or(phi, psi)
        for bits in itertools.product((False, True), repeat=2):
            valuation = Valuation({"p0": bits[0], "p1": bits[1]})

            def task(table):
                return (eval_scs(valuation, table, conj),
                        eval_scs(valuation, table, sup),
                        eval_scs(valuation, table, disj))

            for _table, (a, b, c) in enumerate_tables(task, spec):
                evaluations += 1
                assert not (a and not b), (to_text(conj), valuation)
                assert not (b and not c), (to_text(sup), valuation)
    # the two non-implications have countermodels
    v1 = check_consequence([Or(p0, p1)], Sup(p0, p1), spec)
    v2 = check_consequence([Sup(p0, p1)], And(p0, p1), spec)
    assert not v1.valid and v1.verify()
    assert not v2.valid and v2.verify()
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(f"criterion 1: interpolation, {len(pairs)} pairs / {evaluations} "
           f"(valuation, table) evaluations, 0 violations, both "
           f"non-implications refuted, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: associativity = min of a total order, exact counts


def _total_tables(universe):
    pairs = list(itertools.combinations(universe, 2))
    for picks in itertools.product((0, 1), repeat=len(pairs)):
        table = ChoiceTable()
        for (a, b), i in zip(pairs, picks):
            table = table.with_entry(a, b, (a, b)[i])
        yield table


def _min_table(order):
    table = ChoiceTable()
    rank = {to_text(s): i for i, s in enumerate(order)}
    for a, b in itertools.combinations(order, 2):
        table = table.with_entry(a, b, a if rank[to_text(a)] < rank[to_text(b)] else b)
    return table


def test_criterion_2_associativity_counts():
    spec = ClassSpec("asso")
    for universe, expected_tables, expected_pass in (
            ([p0, p1, p2], 8, 6),
            ([p0, p1, p2, PropAtom("p3")], 64, 24),
    ):
        tables = list(_total_tables(universe))
        assert len(tables) == expected_tables
        passing = [t for t in tables if extendable(t, spec)]
        assert len(passing) == expected_pass
        # brute-force oracle: min-tables of every total ordering
        order_tables = {
            frozenset(_min_table(list(perm)).entries.items())
            for perm in itertools.permutations(universe)
        }
        assert len(order_tables) == expected_pass
        assert {frozenset(t.entries.items()) for t in passing} == order_tables
    report("criterion 2: associativity counts match the order-enumeration "
           "oracle exactly (6/8 on 3 sentences, 24/64 on 4)")


# ---------------------------------------------------------------------------
# Criterion 3: universal-instantiation failure, all four cases


SIG3 = Signature(constants={"c1", "c2", "c3"})
ALPHA = parse("v = c3", SIG3)


def test_criterion_3_ui_failure():
    a1, a2 = parse("v1 = c3", SIG3), parse("v2 = c3", SIG3)
    t = (Constant("c1"), Constant("c2"))
    verified = 0
    for case in (1, 2, 3, 4):
        table = ui_case_table(a1, a2, t, case)
        witness = ui_failure_witness(ALPHA, t[0], t[1], table)
        assert witness.case_id == case
        assert eval_fcs(witness.structure, witness.table, witness.universal)
        assert not eval_fcs(witness.structure, witness.table, witness.instance)
        assert witness.verify()
        verified += 1
    assert verified == 4

    # the general two-formula analogue with a binary relation
    rel = Signature(predicates={"R": 2}, constants={"c1", "c2"})
    alpha, beta = parse("R(v1,v2)", rel), parse("R(v2,v1)", rel)
    s = (Constant("c2"), Constant("c1"))
    general = 0
    for case in (1, 2, 3, 4):
        table = ui_case_table(alpha, beta, t, case)
        witness = ui_failure_general(alpha, beta, t, s, table)
        assert witness.verify()
        general += 1
    assert general == 4

    # quantifier-distribution companion: zero violations over the same
    # spaces and the same witness tables (extended lazily where an instance
    # touches pairs the witness never needed)
    d_instances = [
        _d_instance(parse("c1 = c3 sup c2 = c3", SIG3), parse("v = c3", SIG3)),
        _d_instance(parse("c1 = c3", SIG3), parse("v = c3 sup v = c1", SIG3)),
        _d_instance(parse("~(c1 = c2)", SIG3), parse("v = v", SIG3)),
    ]
    seeds = [None] + [ui_case_table(a1, a2, t, case) for case in (1, 2, 3, 4)]
    vocab = vocabulary_of([ALPHA] + d_instances)
    checked = 0
    for structure in structures_over(vocab, max_domain=3):
        for instance in d_instances:
            def task(table):
                return eval_fcs(structure, table, instance)
            for seed in seeds:
                for _table, truth in enumerate_tables(
                        task, ClassSpec("all"), seed=seed, mode="formula"):
                    assert truth, (structure.describe(), to_text(instance))
                    checked += 1
    assert checked > 0
    report(f"criterion 3: 4/4 single-formula cases and 4/4 general cases "
           f"verified; distribution scheme held in {checked} evaluations")


def _d_instance(phi, psi_v):
    v = "v"
    return Implies(Forall(v, Implies(phi, psi_v)),
                   Implies(phi, Forall(v, psi_v)))


# ---------------------------------------------------------------------------
# Criterion 4: no uniform choice function


def test_criterion_4_no_uniform_choice():
    oracle = BoundedModelOracle(max_domain=3)
    result = refute_uniformity(parse("P(v)"), "v1", "v2", oracle)
    assert len(result.branches) == 2
    for branch in result.branches:
        assert not branch.equivalence_holds
    assert result.exhaustive
    assert result.contradiction()
    # explicit 2-table re-check of the uniformity equation on the swap
    a1, a2 = parse("P(v1)"), parse("P(v2)")
    swap = {"v1": Variable("v2"), "v2": Variable("v1")}
    from supkit.syntax import substitute_map
    satisfied = 0
    for pick in (a1, a2):
        table = ChoiceTable(mode="formula").with_entry(a1, a2, pick)
        lhs = substitute_map(pick, swap)
        rhs = choose(table, substitute_map(a1, swap), substitute_map(a2, swap))
        if oracle.equivalent(lhs, rhs):
            satisfied += 1
    assert satisfied == 0
    report("criterion 4: uniformity refuted on both branches; 0 of 2 tables "
           "satisfy the substitution equation")


# ---------------------------------------------------------------------------
# Criterion 5: object superposition dichotomy


def test_criterion_5_object_superposition():
    structure = Structure(domain=("a", "b"))
    result = object_superposition_report(structure, "a", "b")
    assert len(result.rows) == 4
    assert result.unique_count() == 2
    assert result.regular_count() == 2
    assert all(not (unique and regular) for _, _, unique, regular in result.rows)
    assert result.dichotomy_holds()
    report("criterion 5: 4 tables, 2 unique-witness, 2 regular, disjoint")


# ---------------------------------------------------------------------------
# Criterion 6: soundness of the bundled corpus


def _used_schemes_and_rules(proof, schemes, rules):
    for line in proof.lines:
        just = line.just
        if isinstance(just, Axiom):
            schemes.add(just.scheme)
        elif isinstance(just, MP):
            rules.add("MP")
        elif isinstance(just, GR):
            rules.add("GR")
        elif isinstance(just, SV):
            rules.add("SV")
            _used_schemes_and_rules(just.cert, schemes, rules)


def test_criterion_6_soundness_corpus():
    entries = corpus_entries()
    assert len(entries) >= 12
    schemes, rules = set(), set()
    for entry in entries:
        verdict = check_proof(entry.proof)
        assert verdict.ok, (entry.name, verdict)
        assert entry.table_class == SYSTEM_CLASS[entry.proof.system]
        _used_schemes_and_rules(entry.proof, schemes, rules)
    assert schemes >= {"P1", "P2", "P3", "S1", "S2", "S3", "S4", "S5",
                       "UI", "D", "I1", "I2", "I3", "I4", "I5"}
    assert rules == {"MP", "GR", "SV"}

    countermodels = 0
    for entry in entries:
        premises = list(entry.proof.hypotheses)
        conclusion = entry.proof.conclusion()
        spec = class_spec_for(entry.table_class, premises + [conclusion])
        verdict = check_consequence(premises, conclusion, spec)
        if not verdict.valid:
            countermodels += 1
    assert countermodels == 0

    mutants = mutant_entries()
    assert len(mutants) >= 6
    for mutant in mutants:
        verdict = check_proof(mutant.proof)
        assert not verdict.ok, mutant.name
        assert verdict.line == mutant.expect_line, (mutant.name, verdict)
        assert mutant.expect_reason in verdict.reason, (mutant.name, verdict)

    # axiom separations by enumeration
    s4 = Implies(Sup(Sup(p0, p1), p2), Sup(p0, Sup(p1, p2)))
    assert not check_consequence((), s4, ClassSpec("all")).valid
    assert check_consequence((), s4, ClassSpec("asso")).valid
    s5 = Implies(And(p0, Not(p1)), Iff(Sup(p0, p1), Sup(Not(p0), Not(p1))))
    oracle = TruthTableOracle()
    assert not check_consequence((), s5, ClassSpec("regstar", oracle)).valid
    assert check_consequence((), s5, ClassSpec("dec", oracle)).valid
    report(f"criterion 6: {len(entries)} proofs accepted and consequence-valid "
           f"in their classes; {len(mutants)} mutants rejected with exact "
           f"diagnoses; S4 and S5 separations confirmed")


@pytest.mark.xfail(strict=True, reason="check_proof compares sup operands by primitive "
                   "form, class all by their text: ROADMAP item 2")
def test_a_k0_proof_that_respells_a_sup_operand_proves_a_sentence_valid_in_all():
    """A K0 proof of ``X <-> Y``, where ``Y`` spells ``X``'s ``sup`` operand
    ``p0 /\\ p1`` as ``~(p0 -> ~p1)``: the identity ``X -> X``, then the
    primitive conjunction of it with itself, whose primitive form is the
    goal's.  An accepted proof's conclusion should be valid in class
    ``all``, the class K0 answers to; class ``all`` refutes this one with
    ``p0=0, p1=0, p2=1``."""
    goal = parse("((p0 /\\ p1) sup p2) <-> (~(p0 -> ~p1) sup p2)")
    x = goal.left
    xx = Implies(x, x)
    items = corpus._identity_items(x) + corpus._conj_intro_items(xx, xx)
    proof = corpus._assemble("K0", items + [(goal, ("mp", xx, items[-1][0]))])
    assert len(proof.lines) == 62 and proof.conclusion() is goal
    assert check_proof(proof).ok
    assert check_consequence((), goal, ClassSpec("all")).valid


# ---------------------------------------------------------------------------
# Criterion 7: completeness kernel


QSIG = Signature(constants={"c1", "c2"}, predicates={"P": 1, "Q": 1})


def _quantified_base():
    body = Sup(PredAtom("P", (Variable("v"),)), PredAtom("Q", (Variable("v"),)))
    return [Exists("v", body),
            parse("P(c1) sup Q(c1)", QSIG),
            parse("P(c2) sup Q(c2)", QSIG)]


def test_criterion_7_completeness_kernel():
    prop_fragments = list(enumerate_fragment_markings([Sup(p0, p1), p0, p1]))
    assert len(prop_fragments) == 6
    quant_fragments = list(enumerate_fragment_markings(_quantified_base(), QSIG))
    assert len(quant_fragments) == 36
    assert len(prop_fragments) + len(quant_fragments) <= 300

    failures = 0
    for fragment in prop_fragments:
        for spec in (ClassSpec("all"), ClassSpec("reg", TruthTableOracle())):
            result = build_choice_from_theory(fragment, spec)
            failures += _kernel_violations(fragment, result, spec)
    oracle = BoundedModelOracle(max_domain=2)
    for fragment in quant_fragments:
        for spec in (ClassSpec("all"), ClassSpec("reg", oracle)):
            result = build_choice_from_theory(fragment, spec, max_domain=2)
            failures += _kernel_violations(fragment, result, spec)
    assert failures == 0
    report(f"criterion 7: {len(prop_fragments)} propositional and "
           f"{len(quant_fragments)} quantified markings built in both modes, "
           f"0 failures")


def _kernel_violations(fragment, result, spec):
    bad = 0
    # (a) the collapse of every marked-in basic member stays in the theory
    for s in fragment.sentences:
        if is_basic(s) and fragment.marked(s):
            if not eval_classical(result.model, collapse(result.table, s)):
                bad += 1
    # (b) the fragment is satisfied (and its complement refuted)
    for s in fragment.sentences:
        if eval_scs(result.model, result.table, s) != fragment.marked(s):
            bad += 1
    # (c) regular mode yields a regular table
    if spec.name == "reg" and not extendable(result.table, spec):
        bad += 1
    return bad


# ---------------------------------------------------------------------------
# Criterion 8: round-trip and classification on random formulas


GEN_SIG = Signature(constants={"c1", "c2"}, functions={"g": 1},
                    predicates={"P": 1, "R": 2}, prop_atoms={"p0", "p1"})


def _random_term(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.55:
        return rng.choice([Variable("v"), Variable("u"), Constant("c1"),
                           Constant("c2"), Parameter("e0")])
    return FuncApp("g", (_random_term(rng, depth - 1),))


def _random_formula(rng, depth):
    if depth <= 0:
        roll = rng.random()
        if roll < 0.4:
            return PropAtom(rng.choice(["p0", "p1"]))
        if roll < 0.7:
            return PredAtom("P", (_random_term(rng, 1),))
        if roll < 0.85:
            return PredAtom("R", (_random_term(rng, 1), _random_term(rng, 1)))
        return Equality(_random_term(rng, 1), _random_term(rng, 1))
    kind = rng.randrange(8)
    if kind == 0:
        return Not(_random_formula(rng, depth - 1))
    if kind in (1, 2, 3, 4, 5):
        ctor = (And, Or, Implies, Iff, Sup)[kind - 1]
        return ctor(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))
    ctor = Forall if kind == 6 else Exists
    return ctor(rng.choice(["v", "u"]), _random_formula(rng, depth - 1))


def _sup_free(phi):
    if isinstance(phi, Sup):
        return False
    if isinstance(phi, Not):
        return _sup_free(phi.body)
    if isinstance(phi, (And, Or, Implies, Iff)):
        return _sup_free(phi.left) and _sup_free(phi.right)
    if isinstance(phi, (Forall, Exists)):
        return _sup_free(phi.body)
    return True


def _all_nodes(phi):
    yield phi
    if isinstance(phi, Not):
        yield from _all_nodes(phi.body)
    elif isinstance(phi, (And, Or, Implies, Iff, Sup)):
        yield from _all_nodes(phi.left)
        yield from _all_nodes(phi.right)
    elif isinstance(phi, (Forall, Exists)):
        yield from _all_nodes(phi.body)


def _reference_class(phi):
    """Independent reading of the class definitions: global conditions on
    node occurrences instead of structural recursion."""
    nodes = list(_all_nodes(phi))
    if all(not isinstance(n, Sup) for n in nodes):
        return "classical"
    quantified = [n for n in nodes if isinstance(n, (Forall, Exists))]
    if all(_sup_free(q) for q in quantified):
        return "basic"
    sup_children_basic = all(
        all(_sup_free(q) for q in _all_nodes(child) if isinstance(q, (Forall, Exists)))
        for n in nodes if isinstance(n, Sup)
        for child in (n.left, n.right)
    )
    if sup_children_basic:
        return "restricted"
    return "unrestricted"


def test_criterion_8_roundtrip_and_classification():
    from supkit.syntax import parse as parse_fn, to_text as print_fn
    rng = random.Random(987654321)
    count = 0
    for _ in range(1000):
        phi = _random_formula(rng, rng.randrange(1, 6))
        assert parse_fn(print_fn(phi), GEN_SIG) == phi
        assert str(classify(phi)) == _reference_class(phi), to_text(phi)
        count += 1
    assert count == 1000
    report("criterion 8: 1000/1000 random formulas round-trip and agree with "
           "the reference classifier")
