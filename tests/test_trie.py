"""Tests of the search trie (``choice.TableNode``).

The trie's step must judge every one-entry extension as ``ref_extendable``
(of ``test_extendable``) does from scratch, and the trie must change nothing
that a verdict prints: the reference below searches each block on its own,
from an empty table, pruning by ``ref_extendable``, as the search did before
the trie.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supkit import semantics
from supkit.choice import (
    BoundedModelOracle,
    ChoiceTable,
    ClassSpec,
    MissingEntryError,
    TableNode,
    TruthTableOracle,
    _ordered,
    enumerate_tables,
    pick,
)
from supkit.cli import run
from supkit.models import Block, Valuation
from supkit.semantics import SearchSpace, check_consequence, class_spec_for
from supkit.syntax import PropAtom, parse
from test_blocks import LATE, RUNGS
from test_extendable import (
    CLASSES,
    _rung_argv,
    ref_class_graphs,
    ref_dec_closure,
    ref_extendable,
)

# Pools with equivalent members (so that edges inside a class occur) and
# with negations of members (so that dec's dual edges meet other entries).
PROP_POOL = [parse(text) for text in (
    "p0", "~~p0", "~p0", "p0 /\\ p0", "p1", "~p1", "~~p1", "p0 \\/ p1", "~(p0 \\/ p1)",
    "p2", "~p2")]
FO_POOL = [parse(text) for text in (
    "P(c1)", "~~P(c1)", "~P(c1)", "Q(c1)", "~Q(c1)", "forall v. P(v)",
    "~exists v. ~P(v)", "exists v. ~P(v)", "P(c1) /\\ Q(c1)", "~(P(c1) /\\ Q(c1))")]
ORACLES = {"propositional": (PROP_POOL, TruthTableOracle),
           "first-order": (FO_POOL, lambda: BoundedModelOracle(2))}


def _entries(pool):
    """An entry over the pool, as ``(a, b, chosen)`` with the pair in
    canonical order, as ``MissingEntryError`` gives it."""
    def entry(i, j, first):
        (a, _), (b, _) = _ordered(pool[i], pool[j])
        return a, b, a if first else b

    index = st.integers(0, len(pool) - 1)
    return st.builds(entry, index, index, st.booleans()).filter(lambda e: e[0] != e[1])


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(ORACLES)), st.data())
def test_each_step_judges_as_extendable_does(kind, data):
    """Along a drawn chain of one-entry extensions from a drawn seed table,
    in every class, a child exists exactly when ``ref_extendable`` admits
    its table, and holds that table; the root's graph exists exactly when
    the seed is admissible."""
    pool, make_oracle = ORACLES[kind]
    entries = _entries(pool)
    seed = ChoiceTable()
    for a, b, chosen in data.draw(st.lists(entries, max_size=3)):
        if not seed.defined_on(a, b):
            seed = seed.with_entry(a, b, chosen)
    chain = data.draw(st.lists(entries, min_size=1, max_size=8))
    oracle = make_oracle()
    for name in CLASSES:
        spec = ClassSpec(name, oracle)
        node = TableNode.root(spec, seed)
        assert (node.succ is not None) == ref_extendable(seed, spec), (name, seed.describe())
        for a, b, chosen in chain:
            if node.table.defined_on(a, b):
                continue
            extended = node.table.with_entry(a, b, chosen)
            child = node.child(a, b, chosen)
            assert (child is not None) == \
                (node.succ is not None and ref_extendable(extended, spec)), \
                (name, extended.describe())
            assert node.child(a, b, chosen) is child   # kept, pruned or not
            if child is not None:
                assert child.table == extended
                node = child


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(ORACLES)), st.data())
def test_dec_closure_is_the_edges_and_their_duals(kind, data):
    """Negation is an involution on classes: ``~~f`` is equivalent to ``f``,
    so ``neg(neg(A)) = A``, and two equivalent formulas have equivalent
    negations, so ``neg`` is a function of the class.  The dual of a dual
    edge ``A -> B`` is therefore ``neg(neg(A)) -> neg(neg(B))``, the edge
    itself, and the duality closure of the inter-class edges is those edges
    with the dual of each: the trie adds both with each entry and never
    closes the graph.  Checked on the reference's class graphs, whose
    classes are named by their least member's key."""
    pool, make_oracle = ORACLES[kind]
    table = ChoiceTable()
    for a, b, chosen in data.draw(st.lists(_entries(pool), max_size=10)):
        if not table.defined_on(a, b):
            table = table.with_entry(a, b, chosen)
    _, neg_class, inter, _ = ref_class_graphs(table, make_oracle())
    assert ref_dec_closure(inter, neg_class) == \
        inter | {(neg_class[b], neg_class[a]) for a, b in inter}
    assert all(neg_class.get(neg_class[c], c) == c for c in neg_class)


def test_missing_entry_error_survives_pickling():
    error = MissingEntryError((PropAtom("p0"), PropAtom("p1")))
    again = pickle.loads(pickle.dumps(error))
    assert type(again) is MissingEntryError
    assert again.pair == error.pair
    assert str(again) == str(error) == "no entry for pair {p0, p1}"


# ---------------------------------------------------------------------------
# The trie changes no verdict


def ref_enumerate_tables(task, spec, table=None):
    """The search before the trie: every branch a new table, pruned by
    ``ref_extendable`` from scratch."""
    table = table if table is not None else ChoiceTable()
    try:
        result = task(table)
    except MissingEntryError as exc:
        a, b = exc.pair
        for chosen in (a, b):
            extended = table.with_entry(a, b, chosen)
            if ref_extendable(extended, spec):
                yield from ref_enumerate_tables(task, spec, extended)
        return
    yield table, result


def ref_search_block(block, premises, conclusion, root, allowance):
    """``semantics._search_block`` before the trie: a fresh search per
    block, on plain tables, ignoring the trie's root but for its class.
    ``_truth`` reads each table through a trie of its own."""
    below = block.full

    def task(table):
        node = TableNode.root(ClassSpec("all"), table)
        care = below
        for sigma in premises:
            care &= semantics._truth(block, node, sigma, care)
            if not care:
                return 0
        return care & ~semantics._truth(block, node, conclusion, care)

    found, leaves = None, 0
    for table, refuted in ref_enumerate_tables(task, root.spec):
        leaves += 1
        if leaves > allowance:
            break
        if refuted:
            below = (refuted & -refuted) - 1
            found = table
            if not below:
                break
    return (below + 1).bit_length() - 1 if found is not None else -1, found, leaves


R_PAIR = "(forall v. R(v,c1) sup R(c1,v)) -> exists v. (R(v,v) sup R(c1,c1))"
ARGVS = [pytest.param(_rung_argv(rung), id=rung.name) for rung in RUNGS] + [
    pytest.param(["taut", "--formula", R_PAIR, "--class", name, "--max-domain", "4", "--json"],
                 id=f"r-pair-{name}-domain-4") for name in CLASSES]


@pytest.mark.parametrize("argv", ARGVS)
def test_the_trie_prints_what_a_search_per_block_prints(capsys, monkeypatch, argv):
    code = run(argv)
    out = capsys.readouterr().out
    monkeypatch.setattr(semantics, "_search_block", ref_search_block)
    assert run(argv) == code
    assert capsys.readouterr().out == out


def _fresh(table):
    return ChoiceTable(table.mode, dict(table.entries), dict(table.formulas))


def test_countermodel_tables_hold_no_trie_state(monkeypatch):
    """Under ``--jobs 1/2/3`` with one-model blocks, so that countermodels
    are found in workers too, a countermodel's table is a plain table:
    equal to, and pickled to the same bytes as, one built fresh from its
    entries, and the same whatever the number of jobs."""
    monkeypatch.setattr(semantics, "BLOCK_WIDTH", 1)
    from_workers = []
    received = semantics._received

    def spy(*worker):
        scan = received(*worker)
        from_workers.append(scan[0] is not None)
        return scan

    monkeypatch.setattr(semantics, "_received", spy)
    texts = [((), text, "all") for text in LATE] + \
        [(rung.premises, rung.conclusion, rung.table_class)
         for rung in RUNGS if not rung.valid]
    names = {s: s for s in ("P", "Q", "R", "c1", "c2", "p0", "p1", "p2", "p3", "p4")}
    for premises, conclusion, name in texts:
        premises = [parse(text.format(**names)) for text in premises]
        conclusion = parse(conclusion.format(**names))
        formulas = premises + [conclusion]
        space = SearchSpace.for_task(formulas, max_domain=3)
        tables = []
        for jobs in (1, 2, 3):
            spec = class_spec_for(name, formulas)
            table = check_consequence(premises, conclusion, spec, space,
                                      jobs=jobs).countermodel.table
            # a slotted record: it can hold its three fields and nothing else
            assert type(table) is ChoiceTable and not hasattr(table, "__dict__")
            assert type(table).__slots__ == ("mode", "entries", "formulas")
            assert table == _fresh(table)
            assert pickle.dumps(table) == pickle.dumps(_fresh(table))
            tables.append(pickle.dumps(table))
        assert len(set(tables)) == 1, conclusion
    assert any(from_workers)


def test_a_trie_is_shared_by_the_blocks_of_one_scan(monkeypatch):
    """Every block of one scan, and the re-search of its lowest refuted
    model, starts from the same root; another scan makes its own."""
    roots = []
    search_block = semantics._search_block

    def spy(block, premises, conclusion, root, allowance):
        roots.append(root)
        return search_block(block, premises, conclusion, root, allowance)

    monkeypatch.setattr(semantics, "_search_block", spy)
    monkeypatch.setattr(semantics, "BLOCK_WIDTH", 4)
    argv = ["taut", "--formula", LATE[0], "--json"]
    for _ in range(2):
        assert run(argv) == 1
    first, second = roots[:len(roots) // 2], roots[len(roots) // 2:]
    assert len(first) > 20 and all(root is first[0] for root in first)
    assert all(root is second[0] for root in second) and second[0] is not first[0]


def test_a_node_evaluates_each_sup_once(monkeypatch):
    """A node's pick at a ``sup`` node is computed on the first visit and
    read afterwards; a child inherits it."""
    from supkit import choice
    calls = []
    original = choice.pick

    def counted(table, sup):
        calls.append(sup)
        return original(table, sup)

    monkeypatch.setattr(choice, "pick", counted)
    phi = parse("(p0 sup p1) /\\ (p1 sup p2)")
    left, right = phi.left, phi.right
    p0, p1, p2 = (PropAtom(f"p{i}") for i in range(3))
    root = TableNode.root(ClassSpec("all"))
    with pytest.raises(MissingEntryError):
        root.pick(left)
    child = root.child(p0, p1, p1)
    assert child.pick(left) == p1 and child.pick(left) == p1
    assert calls == [left, left]
    grandchild = child.child(p1, p2, p2)
    model = Block.of_model(Valuation({"p0": False, "p1": True, "p2": False}))
    assert semantics._truth(model, grandchild, phi, 1) == 0
    assert calls == [left, left, right]


def test_an_inadmissible_seed_has_no_admissible_child():
    p0, p1, p2 = (PropAtom(f"p{i}") for i in range(3))
    cycle = ChoiceTable().with_entry(p0, p1, p0).with_entry(p1, p2, p1).with_entry(p0, p2, p2)
    spec = ClassSpec("asso")
    assert not ref_extendable(cycle, spec)
    root = TableNode.root(spec, cycle)
    assert root.succ is None
    q = PropAtom("p3")
    assert root.child(p0, q, p0) is None and root.child(p0, q, q) is None
    leaves = list(enumerate_tables(lambda t: pick(t, parse("p0 sup p3")), spec, cycle))
    assert leaves == []
