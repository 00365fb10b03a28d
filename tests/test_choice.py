import itertools

import pytest
from hypothesis import given, settings, strategies as st

from supkit.choice import (
    FORMULA_MODE,
    SENTENCE_MODE,
    BoundedModelOracle,
    ChoiceDomainError,
    ChoiceTable,
    ClassSpec,
    MissingEntryError,
    NotBasicError,
    OracleRequiredError,
    TruthTableOracle,
    choose,
    collapse,
    enumerate_tables,
    extendable,
)
from supkit.syntax import (
    And,
    Constant,
    Equality,
    Forall,
    Not,
    Or,
    Parameter,
    PredAtom,
    PropAtom,
    Sup,
    Variable,
    free_vars,
    is_classical,
    parse,
)
from test_extendable import ref_extendable

p0, p1, p2 = PropAtom("p0"), PropAtom("p1"), PropAtom("p2")


def table_of(*entries, mode=SENTENCE_MODE):
    t = ChoiceTable(mode=mode)
    for a, b, c in entries:
        t = t.with_entry(a, b, c)
    return t


def min_table(order):
    """Total table on the listed sentences induced by min of the ordering."""
    t = ChoiceTable()
    rank = {id(s): i for i, s in enumerate(order)}
    for a, b in itertools.combinations(order, 2):
        t = t.with_entry(a, b, a if rank[id(a)] < rank[id(b)] else b)
    return t


def test_choose_basics():
    t = table_of((p0, p1, p0))
    assert choose(t, p0, p0) == p0
    assert choose(t, p0, p1) == p0
    assert choose(t, p1, p0) == p0
    with pytest.raises(MissingEntryError):
        choose(t, p0, p2)


def test_choose_object_superposition_entry():
    a_eq_a = parse("@a = @a")
    a_eq_b = parse("@a = @b")
    t = table_of((a_eq_a, a_eq_b, a_eq_a))
    assert choose(t, a_eq_a, a_eq_b) == a_eq_a


def test_table_validation():
    with pytest.raises(ChoiceDomainError):
        table_of((p0, p1, p2))  # choice not a member
    with pytest.raises(ChoiceDomainError):
        table_of((Sup(p0, p1), p1, p1))  # not classical
    v = PredAtom("P", (Variable("v"),))
    with pytest.raises(ChoiceDomainError):
        table_of((v, p1, p1))  # open formula in sentence mode
    table_of((v, PredAtom("Q", (Variable("v"),)), v), mode=FORMULA_MODE)
    # idempotent pairs are never stored
    assert len(table_of((p0, p0, p0))) == 0


def test_table_json_roundtrip():
    t = table_of((p0, p1, p1), (p0, p2, p0))
    data = t.to_json()
    assert data["mode"] == "sentence"
    assert ChoiceTable.from_json(data).entries == t.entries


def test_table_json_load_equals_the_entry_by_entry_build():
    atoms = [PropAtom(f"p{i}") for i in range(4001)]
    chain = ChoiceTable()
    for a, b in zip(atoms, atoms[1:]):
        chain = chain.with_entry(a, b, a)
    loaded = ChoiceTable.from_json(chain.to_json())
    assert len(loaded) == 4000
    assert (loaded.mode, loaded.entries, loaded.formulas) == (
        chain.mode, chain.entries, chain.formulas)


@pytest.mark.parametrize("entry, message", [
    ({"pair": ["p1", "p0"], "choice": "p1"}, "conflicting entry for pair {p0, p1}"),
    ({"pair": ["p0", "p1"], "choice": "p2"}, "choice p2 is not a member of the pair"),
    ({"pair": ["p0 sup p1", "p1"], "choice": "p1"},
     "choice tables hold classical formulas, got p0 sup p1"),
])
def test_table_json_load_rejects_what_with_entry_rejects(entry, message):
    data = {"entries": [{"pair": ["p0", "p1"], "choice": "p0"},
                        {"pair": ["p0", "p0"], "choice": "p0"},
                        entry]}
    with pytest.raises(ChoiceDomainError) as caught:
        ChoiceTable.from_json(data)
    assert str(caught.value) == message
    table = ChoiceTable().with_entry(p0, p1, p0)
    with pytest.raises(ChoiceDomainError) as caught:
        table.with_entry(*(parse(text) for text in entry["pair"]), parse(entry["choice"]))
    assert str(caught.value) == message


def test_collapse_classical_identity():
    t = ChoiceTable()
    alpha = And(p0, Not(p1))
    assert collapse(t, alpha) == alpha


def test_collapse_negated_sup():
    t = table_of((p0, p1, p1))
    assert collapse(t, Not(Sup(p0, p1))) == Not(p1)
    # composition: connectives commute, sup applies the table
    assert collapse(t, And(Sup(p0, p1), p2)) == And(p1, p2)


def test_collapse_formula_mode_shrinks_fv():
    a1 = PredAtom("P", (Variable("v1"),))
    b2 = PredAtom("Q", (Variable("v2"),))
    t = table_of((a1, b2, a1), mode=FORMULA_MODE)
    out = collapse(t, Sup(a1, b2))
    assert out == a1
    assert free_vars(out) == {"v1"} < free_vars(Sup(a1, b2))


def test_collapse_sentence_mode_rejects_quantified_sup():
    alpha = PredAtom("P", (Variable("v"),))
    beta = PredAtom("Q", (Variable("v"),))
    with pytest.raises(NotBasicError):
        collapse(ChoiceTable(), Forall("v", Sup(alpha, beta)))
    # formula mode commutes with the quantifier instead
    t = table_of((alpha, beta, beta), mode=FORMULA_MODE)
    assert collapse(t, Forall("v", Sup(alpha, beta))) == Forall("v", beta)


def test_collapse_never_leaves_sup_and_missing_entry():
    t = ChoiceTable()
    with pytest.raises(MissingEntryError):
        collapse(t, Sup(p0, p1))


# ---------------------------------------------------------------------------
# Oracles


def test_truth_table_oracle_sanity():
    oracle = TruthTableOracle()
    assert oracle.equivalent(p0, And(p0, p0))
    assert oracle.equivalent(Not(Not(p0)), p0)
    assert not oracle.equivalent(p0, p1)
    assert oracle.equivalent(Not(p0), Not(And(p0, p0)))  # respects negation


def test_bounded_oracle_fo():
    oracle = BoundedModelOracle(max_domain=2)
    a_eq_a = Equality(Parameter("a"), Parameter("a"))
    b_eq_b = Equality(Parameter("b"), Parameter("b"))
    a_eq_b = Equality(Parameter("a"), Parameter("b"))
    b_eq_a = Equality(Parameter("b"), Parameter("a"))
    assert oracle.equivalent(a_eq_a, b_eq_b)
    assert oracle.equivalent(a_eq_b, b_eq_a)
    assert not oracle.equivalent(a_eq_a, a_eq_b)
    # open formulas: distinct free variables are inequivalent
    assert not oracle.equivalent(
        PredAtom("P", (Variable("v1"),)), PredAtom("P", (Variable("v2"),))
    )
    assert oracle.equivalent(
        PredAtom("P", (Variable("v1"),)),
        Not(Not(PredAtom("P", (Variable("v1"),)))),
    )


# ---------------------------------------------------------------------------
# Class membership


def test_min_of_total_order_is_associative():
    t = min_table([p0, p1, p2])
    assert extendable(t, ClassSpec("asso"))


def test_cyclic_tournament_fails_asso():
    entries = ((p0, p1, p0), (p1, p2, p1), (p0, p2, p2))
    assert not extendable(table_of(*entries), ClassSpec("asso"))
    # any two of its entries agree with the min-table of an order
    for two in itertools.combinations(entries, 2):
        assert extendable(table_of(*two), ClassSpec("asso"))


def test_three_sentence_tournaments_6_of_8():
    universe = [p0, p1, p2]
    pairs = list(itertools.combinations(universe, 2))
    passing = []
    for picks in itertools.product((0, 1), repeat=3):
        t = table_of(*((a, b, (a, b)[i]) for (a, b), i in zip(pairs, picks)))
        if extendable(t, ClassSpec("asso")):
            passing.append(t)
    assert len(passing) == 6
    # independent oracle: exactly the min-tables of the 6 total orders
    order_tables = {
        frozenset(min_table(list(perm)).entries.items())
        for perm in itertools.permutations(universe)
    }
    assert {frozenset(t.entries.items()) for t in passing} == order_tables


def test_reg_violation_object_superposition():
    a_eq_a = parse("@a = @a")
    a_eq_b = parse("@a = @b")
    b_eq_b = parse("@b = @b")
    b_eq_a = parse("@b = @a")
    t = table_of((a_eq_a, a_eq_b, a_eq_a), (b_eq_b, b_eq_a, b_eq_a))
    spec = ClassSpec("reg", BoundedModelOracle(max_domain=2))
    assert not extendable(t, spec)
    # choosing the valid side both times is regular
    t2 = table_of((a_eq_a, a_eq_b, a_eq_a), (b_eq_b, b_eq_a, b_eq_b))
    assert extendable(t2, spec)


def test_class_membership_requires_oracle():
    with pytest.raises(OracleRequiredError):
        extendable(table_of((p0, p1, p0)), ClassSpec("reg"))


def test_class_monotonicity_on_total_tables():
    universe = [p0, p1, Not(p0)]
    oracle = TruthTableOracle()
    pairs = list(itertools.combinations(universe, 2))
    specs = {name: ClassSpec(name, oracle) for name in ("reg", "asso", "regstar", "dec")}
    for picks in itertools.product((0, 1), repeat=len(pairs)):
        t = table_of(*((a, b, (a, b)[i]) for (a, b), i in zip(pairs, picks)))
        member = {name: extendable(t, spec) for name, spec in specs.items()}
        if member["dec"]:
            assert member["regstar"]
        if member["regstar"]:
            assert member["reg"] and member["asso"]
        assert extendable(t, ClassSpec("all"))


# ---------------------------------------------------------------------------
# Extendability


def test_extendable_empty_table():
    empty = ChoiceTable()
    oracle = TruthTableOracle()
    for name in ("all", "asso", "reg", "regstar", "dec"):
        assert extendable(empty, ClassSpec(name, oracle))


def test_extendable_cycle_fails_asso():
    t = table_of((p0, p1, p0), (p1, p2, p1), (p0, p2, p2))
    assert not extendable(t, ClassSpec("asso"))
    # independent check: no total order of the three nodes extends the cycle
    for perm in itertools.permutations([p0, p1, p2]):
        assert min_table(list(perm)).entries != t.entries


def test_extendable_long_chain_asso():
    # p0 > p1 > ... > p5000: a recursive depth-first cycle search, started
    # at its members in hash order, nests deeper than Python's default
    # recursion limit on almost every hash seed
    atoms = [PropAtom(f"p{i}") for i in range(5001)]
    chain = ChoiceTable()
    for a, b in zip(atoms, atoms[1:]):
        chain = chain.with_entry(a, b, a)
    assert len(chain) == 5000
    assert extendable(chain, ClassSpec("asso"))
    assert not extendable(chain.with_entry(atoms[0], atoms[-1], atoms[-1]), ClassSpec("asso"))


def test_extendable_large_reg_table():
    # one formula per nonempty truth table over p0, p1, p2 (its disjunctive
    # normal form), ranked by the truth table's number; about 1,500 entries
    # each prefer the lower rank, so every pair of classes is decided one
    # way, and entries inside a class do not count for reg
    def minterm(row):
        lits = [p if row >> i & 1 else Not(p) for i, p in enumerate((p0, p1, p2))]
        return And(And(lits[0], lits[1]), lits[2])

    dnfs = []
    for mask in range(1, 256):
        rows = [minterm(row) for row in range(8) if mask >> row & 1]
        phi = rows[0]
        for row in rows[1:]:
            phi = Or(phi, row)
        dnfs.append(phi)
    table = ChoiceTable()
    for i, a in enumerate(dnfs):
        for b in dnfs[i + 1:i + 7]:
            table = table.with_entry(a, b, a)
        table = table.with_entry(a, Not(Not(a)), Not(Not(a)))
    assert len(table) > 1500
    spec = ClassSpec("reg", TruthTableOracle())
    assert extendable(table, spec)
    flipped = table.with_entry(Not(Not(dnfs[0])), dnfs[1], dnfs[1])
    assert not extendable(flipped, spec)


def test_extendable_requires_an_oracle_even_on_the_empty_table():
    for name in ("reg", "regstar", "dec"):
        with pytest.raises(OracleRequiredError):
            extendable(ChoiceTable(), ClassSpec(name))


def test_extendable_reg_consistency():
    nn0 = Not(Not(p0))
    t = table_of((p0, p1, p0), (nn0, p1, p1))
    assert not extendable(t, ClassSpec("reg", TruthTableOracle()))
    t2 = table_of((p0, p1, p0), (nn0, p1, nn0))
    assert extendable(t2, ClassSpec("reg", TruthTableOracle()))


def test_extendable_dec_duality():
    # p0 < p1 forces ~p1 < ~p0: the opposite negation entry is inconsistent
    t = table_of((p0, p1, p0), (Not(p0), Not(p1), Not(p0)))
    oracle = TruthTableOracle()
    assert extendable(t, ClassSpec("regstar", oracle))
    assert not extendable(t, ClassSpec("dec", oracle))
    t2 = table_of((p0, p1, p0), (Not(p0), Not(p1), Not(p1)))
    assert extendable(t2, ClassSpec("dec", oracle))


# ---------------------------------------------------------------------------
# Enumeration


def eval_task(phi):
    def task(table):
        return collapse(table, phi)
    return task


def test_enumerate_single_sup():
    results = list(enumerate_tables(eval_task(Sup(p0, p1)), ClassSpec("all")))
    assert [r for _, r in results] == [p0, p1]


def test_enumerate_nested_sup_four_leaves():
    results = list(enumerate_tables(eval_task(Sup(Sup(p0, p1), p2)), ClassSpec("all")))
    # hand expansion: inner pair branches to p0/p1, outer pair then branches
    assert [r for _, r in results] == [p0, p2, p1, p2]
    assert len(results) == 4
    for table, _ in results:
        assert len(table) == 2


def test_enumerate_filters_through_extendable():
    phi = Sup(Sup(p0, p1), Sup(p1, p2))
    all_count = sum(1 for _ in enumerate_tables(eval_task(phi), ClassSpec("all")))
    asso = list(enumerate_tables(eval_task(phi), ClassSpec("asso")))
    assert all_count >= len(asso)
    for table, _ in asso:
        assert ref_extendable(table, ClassSpec("asso"))


# ---------------------------------------------------------------------------
# Property: formula-mode collapse never grows free variables, never keeps sup

_terms = st.one_of(
    st.builds(Variable, st.sampled_from(["v", "u"])),
    st.sampled_from([Constant("c1"), Constant("c2")]),
)
_atoms = st.one_of(
    st.sampled_from([PropAtom("p0"), PropAtom("p1")]),
    st.builds(lambda t: PredAtom("P", (t,)), _terms),
)


def _formulas():
    def extend(sub):
        return st.one_of(
            st.builds(Not, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Sup, sub, sub),
            st.builds(Forall, st.sampled_from(["v", "u"]), sub),
        )
    return st.recursive(_atoms, extend, max_leaves=8)


@settings(max_examples=120, deadline=None)
@given(_formulas())
def test_collapse_fv_shrinks_property(phi):
    def task(table):
        return collapse(table, phi)
    for table, result in enumerate_tables(
            task, ClassSpec("all"), mode=FORMULA_MODE):
        assert is_classical(result)
        assert free_vars(result) <= free_vars(phi)
