"""Tests of the search trie (``choice.TableNode``).

The trie's step must judge every one-entry extension as ``ref_extendable``
(of ``test_extendable``) does from scratch, and the trie must change nothing
that a verdict prints: the reference below searches each block on its own,
from an empty table, pruning by ``ref_extendable``, as the search did before
the trie, and reads each plain table through its own ``ChoiceTable.pick``,
which keeps no pick.
"""

import itertools
import json
import pickle
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
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
)
from supkit.cli import run
from supkit.models import Block, Valuation, layouts
from supkit.semantics import (
    SearchBudgetError,
    SearchSpace,
    check_consequence,
    class_spec_for,
    eval_scs,
)
from supkit.syntax import PropAtom, Signature, parse
from test_blocks import LATE, RESTRICTED, RUNGS, _formulas
from test_extendable import (
    CLASSES,
    _rung_argv,
    ref_class_graphs,
    ref_dec_closure,
    ref_extendable,
)
from test_facts import ref_scs

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
    error = MissingEntryError((PropAtom("p0"), PropAtom("p1")), ("p0", "p1"))
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
    ``Block.truth`` reads each table through its uncached ``pick``."""
    below = block.full

    def task(table):
        care = below
        for sigma in premises:
            care &= block.truth(sigma, table, care)
            if not care:
                return 0
        return care & ~block.truth(conclusion, table, care)

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


def _counted_choices(monkeypatch):
    """The pairs that ``choice._choose`` is asked about, from now on."""
    from supkit import choice
    calls = []
    original = choice._choose

    def counted(entries, a, b):
        calls.append({a, b})
        return original(entries, a, b)

    monkeypatch.setattr(choice, "_choose", counted)
    return calls


def test_a_node_evaluates_each_sup_once(monkeypatch):
    """A node's pick at a ``sup`` node is computed on the first visit and
    read afterwards; a child inherits it."""
    calls = _counted_choices(monkeypatch)
    phi = parse("(p0 sup p1) /\\ (p1 sup p2)")
    left, right = phi.left, phi.right
    p0, p1, p2 = (PropAtom(f"p{i}") for i in range(3))
    root = TableNode.root(ClassSpec("all"))
    with pytest.raises(MissingEntryError):
        root.pick(left)
    child = root.child(p0, p1, p1)
    assert child.pick(left) == p1 and child.pick(left) == p1
    assert calls == [{p0, p1}, {p0, p1}]
    grandchild = child.child(p1, p2, p2)
    model = Block.of_model(Valuation({"p0": False, "p1": True, "p2": False}))
    assert model.truth(phi, grandchild) == 0
    assert calls == [{p0, p1}, {p0, p1}, {p1, p2}]


def test_a_node_chooses_each_nested_sup_once(monkeypatch):
    """A nested ``sup`` is chosen through the node's own ``pick``: once per
    node, whether it is reached inside an outer ``sup`` or on its own."""
    calls = _counted_choices(monkeypatch)
    phi = parse("(p0 sup p1) sup p2")
    inner = phi.left
    p0, p1, p2 = (PropAtom(f"p{i}") for i in range(3))
    node = TableNode.root(ClassSpec("all")).child(p0, p1, p0).child(p0, p2, p2)
    assert node.pick(phi) == p2 and node.pick(inner) == p0
    assert node.pick(phi) == p2
    assert calls == [{p0, p1}, {p0, p2}]
    mask = Block(next(layouts(SearchSpace.for_task([phi]).vocabulary, 1)), 0, 8).truth(
        phi, node)
    assert mask == 0b10101010   # p2, the last digit, runs fastest
    assert calls == [{p0, p1}, {p0, p2}]


def test_an_inadmissible_seed_has_no_admissible_child():
    p0, p1, p2 = (PropAtom(f"p{i}") for i in range(3))
    cycle = ChoiceTable().with_entry(p0, p1, p0).with_entry(p1, p2, p1).with_entry(p0, p2, p2)
    spec = ClassSpec("asso")
    assert not ref_extendable(cycle, spec)
    root = TableNode.root(spec, cycle)
    assert root.succ is None
    q = PropAtom("p3")
    assert root.child(p0, q, p0) is None and root.child(p0, q, q) is None
    leaves = list(enumerate_tables(lambda t: t.pick(parse("p0 sup p3")), spec, cycle))
    assert leaves == []


# ---------------------------------------------------------------------------
# The lean search path against plain tables

GUARD = parse("exists v0. exists v1. ~(v0 = v1)")


@st.composite
def _searches(draw):
    """Premises and a conclusion, restricted sentences of one vocabulary
    kind (nested ``sup``s, quantified instance pairs, equality, constants
    and parameters among them), with now and then the premise that the
    domain has two elements; and a block width."""
    propositional = draw(st.booleans())
    sentences = _formulas(RESTRICTED, propositional=propositional)
    premises = draw(st.lists(sentences, max_size=1))
    if not propositional and draw(st.booleans()):
        premises.append(GUARD)
    return premises, draw(sentences), draw(st.sampled_from((1, 3, semantics.BLOCK_WIDTH)))


def _search_outcome(premises, conclusion, name):
    formulas = premises + [conclusion]
    spec = class_spec_for(name, formulas, oracle_bound=2)
    space = SearchSpace.for_task(formulas, max_domain=2)
    try:
        return check_consequence(premises, conclusion, spec, space, budget=3000).to_json()
    except SearchBudgetError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(_searches())
@example(([], parse("((p0 sup p1) sup p2) -> (p0 sup (p1 sup p2))"), 1))
@example(([parse("forall v0. (P(v0) sup Q(v0))")],
          parse("exists v0. (Q(v0) sup P(v0))"), 3))
@example(([GUARD, parse("forall v0. (v0 = c1 sup P(v0))")],
          parse("P(c1) \\/ exists v0. (P(v0) sup ~(v0 = c1))"), 1))
@example(([GUARD], parse("forall v0. ((P(v0) sup (Q(v0) sup P(c1))) -> Q(v0))"),
          semantics.BLOCK_WIDTH))
def test_sampled_verdicts_match_the_plain_table_search(search):
    """In every class, a verdict, its counts and its countermodel's JSON are
    those of a search per block on plain tables, read by their uncached
    ``pick``."""
    premises, conclusion, width = search
    with mock.patch.object(semantics, "BLOCK_WIDTH", width):
        for name in CLASSES:
            got = _search_outcome(premises, conclusion, name)
            with mock.patch.object(semantics, "_search_block", ref_search_block):
                assert _search_outcome(premises, conclusion, name) == got, name


def _outcome(evaluate):
    try:
        return evaluate()
    except MissingEntryError as exc:
        return exc.pair, exc.keys, str(exc)


@settings(max_examples=40, deadline=None)
@given(st.booleans().flatmap(lambda p: _formulas(RESTRICTED, propositional=p)), st.data())
def test_eval_scs_on_table_files_matches_plain_table_evaluation(phi, data):
    """A table read from a file, whole or with entries left out, gives every
    model of the space the truth that the substituting evaluation on plain
    tables gives, or the same missing pair."""
    vocabulary = SearchSpace.for_task([phi]).vocabulary
    models = [layout.model_at(i) for layout in layouts(vocabulary, 2) for i in range(layout.count)]
    model = data.draw(st.sampled_from(models))
    tables = [t for t, _ in itertools.islice(enumerate_tables(
        lambda t: ref_scs(model, t, phi), ClassSpec("all")), 8)]
    table = data.draw(st.sampled_from(tables))
    kept = data.draw(st.lists(st.booleans(), min_size=len(table), max_size=len(table)))
    data = table.to_json()
    data["entries"] = [entry for entry, keep in zip(data["entries"], kept) if keep]
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "table.json"
        path.write_text(json.dumps(data))
        sig = Signature(constants={"c1"}, functions={"f": 1}, predicates={"P": 1, "Q": 1})
        loaded = ChoiceTable.from_json(json.loads(path.read_text()), sig)
    for model in models:
        assert _outcome(lambda: eval_scs(model, loaded, phi)) == \
            _outcome(lambda: ref_scs(model, loaded, phi)), model


def test_a_search_builds_tables_only_for_leaves_that_refute(monkeypatch):
    """A search keeps entries on its nodes: it makes no ``ChoiceTable`` for a
    valid verdict, and one for each leaf that refutes a model otherwise."""
    built, refuting = [], []
    init = ChoiceTable.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counted_leaves(task, spec, seed):
        for node, refuted in enumerate_tables(task, spec, seed):
            if refuted:
                refuting.append(node)
            yield node, refuted

    monkeypatch.setattr(ChoiceTable, "__init__", counted_init)
    monkeypatch.setattr(semantics, "enumerate_tables", counted_leaves)
    names = {s: s for s in ("P", "Q", "R", "c1", "c2", "p0", "p1", "p2", "p3", "p4")}
    tasks = [((), text, "all") for text in LATE] + \
        [(rung.premises, rung.conclusion, rung.table_class) for rung in RUNGS]
    for premises, conclusion, name in tasks:
        premises = [parse(text.format(**names)) for text in premises]
        conclusion = parse(conclusion.format(**names))
        formulas = premises + [conclusion]
        del built[:], refuting[:]
        verdict = check_consequence(premises, conclusion, class_spec_for(name, formulas),
                                    SearchSpace.for_task(formulas, max_domain=3))
        assert len(built) == len(refuting), conclusion
        assert verdict.valid == (not built), conclusion


def ref_leaves(node, task):
    """``TableNode.leaves`` as it was: a generator per level."""
    try:
        result = task(node)
    except MissingEntryError as exc:
        a, b = exc.pair
        for chosen in (a, b):
            child = node.child(a, b, chosen)
            if child is not None:
                yield from ref_leaves(child, task)
        return
    yield node, result


@pytest.mark.parametrize("name", CLASSES)
def test_the_walk_visits_leaves_in_the_recursive_order_and_stops_when_told(name):
    """The walk yields the leaves, and runs the task on the nodes, in the
    order of the recursive walk; stopped after its first leaf, it has run
    the task only on that leaf's path and built no other child."""
    phi = parse("(((p0 sup p1) /\\ (p1 sup ~p0)) sup (p2 sup p1)) \\/ ~(p0 sup p2)")
    block = Block(next(layouts(SearchSpace.for_task([phi]).vocabulary, 1)), 0, 8)

    def walk(leaves):
        runs = []

        def task(node):
            runs.append(node)
            return block.truth(phi, node)

        spec = class_spec_for(name, [phi])
        return [(node.entries, mask) for node, mask in leaves(TableNode.root(spec), task)], \
            [node.entries for node in runs]

    assert walk(TableNode.leaves) == walk(ref_leaves)
    runs = []
    root = TableNode.root(class_spec_for(name, [phi]))
    walk_ = root.leaves(lambda node: runs.append(node) or
                        block.truth(phi, node))
    leaf, _ = next(walk_)
    walk_.close()
    path = [root]
    while path[-1] is not leaf:
        (child,) = [c for c in path[-1].children.values() if c is not None]
        path.append(child)
    assert runs == path
    assert all(len(node.children) == 1 for node in path[:-1])
