"""Differential tests of class membership and of the equivalence oracle.

``choice.extendable`` replays a table's entries through the search trie's
step (``choice.TableNode``), which labels classes by the oracle's class ids,
grows one class graph entry by entry and reads ``reg`` consistency off its
2-cycles.  The reference below, ``ref_extendable``, shares none of that: it
partitions a table's members once for the ``reg`` check and again, with
every member's negation, for the class graphs, whatever the class, each time
by a pairwise scan that decides each comparison through
``pairwise_equivalent``, the oracle's structure-by-structure comparison
before fingerprints; it builds each graph from scratch, closes the class
graph under duality to a fixed point and looks for cycles by its own
search.  Both must give the same answer on every table.
"""

import functools
import itertools
import pickle
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supkit import models
from supkit.choice import (
    BoundedModelOracle,
    ChoiceTable,
    ClassSpec,
    TableNode,
    TruthTableOracle,
    _constant_for,
    class_representatives,
    extendable,
)
from supkit.cli import run
from supkit.models import EvalError
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
    SupkitError,
    Variable,
    canonical_key,
    free_vars,
    parse,
    rename_parameters,
    substitute_map,
    symbols,
)

from test_facts import ref_eval_classical

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

CLASSES = ("all", "reg", "asso", "regstar", "dec")


# ---------------------------------------------------------------------------
# Reference implementation


def ref_has_cycle(nodes, edges):
    succ = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)
    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in nodes}
    for a, b in edges:
        color.setdefault(a, WHITE)
        color.setdefault(b, WHITE)

    def visit(n):
        color[n] = GREY
        for m in succ.get(n, ()):
            if color[m] == GREY:
                return True
            if color[m] == WHITE and visit(m):
                return True
        color[n] = BLACK
        return False

    return any(color[n] == WHITE and visit(n) for n in list(color))


def ref_preference_edges(table):
    """A table's members and its winner -> loser edges."""
    nodes = {k for pair in table.entries for k in pair}
    edges = {(kc, kb if kc == ka else ka) for (ka, kb), kc in table.entries.items()}
    return nodes, edges


def ref_dec_closure(inter_edges, neg_class):
    """Close class edges under the duality rule: A beats B forces not-B to
    beat not-A (inequivalent classes only; the involution is fixed-point
    free classically)."""
    closed = set(inter_edges)
    frontier = list(inter_edges)
    while frontier:
        a, b = frontier.pop()
        na, nb = neg_class.get(a), neg_class.get(b)
        if na is None or nb is None or na == nb:
            continue
        dual = (nb, na)
        if dual not in closed:
            closed.add(dual)
            frontier.append(dual)
    return closed


def _parameters_as_constants(phi):
    """``phi`` with each parameter ``@e`` read as a constant ``?@e``, which
    denotes any element, as the oracle reads it."""
    return rename_parameters(phi, {e: Constant("?@" + e) for e in symbols(phi).parameters})


def pairwise_equivalent(oracle, a, b):
    """Whether ``a`` and ``b`` are equivalent up to ``oracle.max_domain``,
    decided as the oracle did before fingerprints: over the pair's own
    vocabulary, its parameters read as constants, structure by structure
    and, for open formulas, assignment by assignment."""
    a, b = _parameters_as_constants(a), _parameters_as_constants(b)
    vocab = models.vocabulary_of([a, b])
    if not vocab.first_order:
        return all(
            ref_eval_classical(v, a) == ref_eval_classical(v, b)
            for v in models.Layout.of_valuations(vocab.prop_atoms).models()
        )
    fv = sorted(free_vars(a) | free_vars(b))
    for structure in models.structures_over(vocab, oracle.max_domain):
        for values in itertools.product(structure.domain, repeat=len(fv)):
            env = dict(zip(fv, values))
            if ref_eval_classical(structure, a, env) != \
                    ref_eval_classical(structure, b, env):
                return False
    return True


_REF_DECIDED = {}


def ref_equivalent(oracle, a, b):
    """``pairwise_equivalent(oracle, a, b)``, memoised by the pair and the
    bound, which are all that it depends on, so that the reference stays
    affordable on the benchmark rungs."""
    key = (oracle.max_domain, *sorted((canonical_key(a), canonical_key(b))))
    if key not in _REF_DECIDED:
        _REF_DECIDED[key] = pairwise_equivalent(oracle, a, b)
    return _REF_DECIDED[key]


def ref_class_representatives(oracle, formulas):
    """Canonical key -> the least key equivalent to it in the collection,
    by comparing each formula with the representatives found before it."""
    reps = {}
    rep_formulas = []
    for key, phi in sorted({canonical_key(f): f for f in formulas}.items()):
        assigned = None
        for rep_key, rep_phi in rep_formulas:
            if ref_equivalent(oracle, phi, rep_phi):
                assigned = rep_key
                break
        if assigned is None:
            assigned = key
            rep_formulas.append((key, phi))
        reps[key] = assigned
    return reps


def ref_reg_violation(table, oracle):
    triples = list(table.pairs())
    members = [f for a, b, _ in triples for f in (a, b)]
    reps = ref_class_representatives(oracle, members)
    seen = {}
    for a, b, c in triples:
        ra, rb = reps[canonical_key(a)], reps[canonical_key(b)]
        rc = reps[canonical_key(c)]
        class_pair = (ra, rb) if ra <= rb else (rb, ra)
        if class_pair[0] == class_pair[1]:
            continue
        prev = seen.get(class_pair)
        if prev is not None and prev[0] != rc:
            return (prev[1], (a, b, c))
        seen[class_pair] = (rc, (a, b, c))
    return None


def ref_class_graphs(table, oracle):
    triples = list(table.pairs())
    members = [f for a, b, _ in triples for f in (a, b)]
    negs = [Not(f) for f in members]
    reps = ref_class_representatives(oracle, members + negs)
    neg_rep = {}
    for f in members:
        neg_rep[reps[canonical_key(f)]] = reps[canonical_key(Not(f))]
    inter_edges, intra_edges = set(), set()
    for a, b, c in triples:
        ka, kb, kc = canonical_key(a), canonical_key(b), canonical_key(c)
        ra, rb = reps[ka], reps[kb]
        loser_key = kb if kc == ka else ka
        if ra == rb:
            intra_edges.add((kc, loser_key))
        else:
            winner_rep = reps[kc]
            loser_rep = rb if winner_rep == ra else ra
            inter_edges.add((winner_rep, loser_rep))
    return reps, neg_rep, inter_edges, intra_edges


def ref_extendable(table, spec):
    name = spec.name
    if name == "all":
        return True
    if name == "asso":
        return not ref_has_cycle(*ref_preference_edges(table))
    oracle = spec.require_oracle()
    if ref_reg_violation(table, oracle) is not None:
        return False
    if name == "reg":
        return True
    reps, neg_rep, inter, intra = ref_class_graphs(table, oracle)
    if ref_has_cycle(set(), intra) or ref_has_cycle(set(), inter):
        return False
    if name == "regstar":
        return True
    return not ref_has_cycle(set(), ref_dec_closure(inter, neg_rep))


# ---------------------------------------------------------------------------
# Tables


def _tables(pairs):
    """The table holding these pairs, once for every choice of sides."""
    for picks in itertools.product((0, 1), repeat=len(pairs)):
        table = ChoiceTable()
        for (a, b), pick in zip(pairs, picks):
            table = table.with_entry(a, b, (a, b)[pick])
        yield table


def _assert_agree(tables, oracle):
    specs = [ClassSpec(name, oracle) for name in CLASSES]
    outcomes = set()
    for table in tables:
        for spec in specs:
            want = ref_extendable(table, spec)
            assert extendable(table, spec) == want, (spec.name, table.describe())
            outcomes.add((spec.name, want))
    # every class both accepts and rejects some table, except "all"
    assert outcomes == {(name, ok) for name in CLASSES for ok in (True, False)
                        if name != "all" or ok}


PROP_POOL = [parse(text) for text in ("p0", "~~p0", "~p0", "p1", "~p1", "p0 /\\ p1")]


def test_extendable_matches_reference_on_small_propositional_tables():
    pairs = list(itertools.combinations(PROP_POOL, 2))
    tables = [table for size in range(4)
              for chosen in itertools.combinations(pairs, size)
              for table in _tables(chosen)]
    assert len(tables) == 4091
    _assert_agree(tables, TruthTableOracle())


FO_POOL = [parse(text) for text in (
    "P(c1)", "~~P(c1)", "~P(c1)", "Q(c1)", "~Q(c1)", "P(c2)",
    "forall v. P(v)", "~exists v. ~P(v)", "exists v. ~P(v)", "R(c1,c2)",
)]


def _sampled_first_order_tables():
    rng = random.Random(5)
    pairs = list(itertools.combinations(FO_POOL, 2))
    tables = []
    for _ in range(400):
        table = ChoiceTable()
        for a, b in rng.sample(pairs, rng.randint(1, 12)):
            table = table.with_entry(a, b, rng.choice((a, b)))
        tables.append(table)
    return tables


def test_extendable_matches_reference_on_sampled_first_order_tables():
    _assert_agree(_sampled_first_order_tables(), BoundedModelOracle(2))


@pytest.mark.parametrize("pool, make_oracle", [
    (PROP_POOL, TruthTableOracle), (FO_POOL, lambda: BoundedModelOracle(2)),
], ids=("propositional", "first-order"))
def test_class_ids_match_the_pairwise_reference(pool, make_oracle):
    """One oracle, reused throughout, decides every pair of the pool and its
    negations as ``pairwise_equivalent`` does, and partitions every subset of
    the pool (the member set of any table over it) as the pairwise scan
    does."""
    oracle = make_oracle()
    formulas = pool + [Not(f) for f in pool]
    for a, b in itertools.product(formulas, repeat=2):
        assert oracle.equivalent(a, b) == pairwise_equivalent(oracle, a, b), (a, b)
    subsets = [formulas] + [list(chosen) for size in range(2, len(pool) + 1)
                            for chosen in itertools.combinations(pool, size)]
    for members in subsets:
        assert class_representatives(oracle, members) == \
            ref_class_representatives(oracle, members), members


# Pools beyond the tables' sentences: open formulas (free variables are read
# as constants), function symbols with equality, and parameters (read as
# constants ``?@e``, which denote any element).  Each is fed to one oracle in the order
# of the pairs, so the oracle's vocabulary widens while classes exist.
WIDER_POOLS = {
    "open": ("P(v)", "P(u)", "~~P(v)", "P(v) /\\ P(u)", "P(u) /\\ P(v)", "v = u", "u = v",
             "v = v", "R(v,u)", "R(u,v)", "exists u. R(v,u)", "exists w. R(v,w)",
             "forall v. P(v)", "P(v) \\/ ~P(v)", "P(c1)", "v = c1 -> P(v)", "P(c1) /\\ v = c1"),
    "functions-equality": (
        "g(c1) = c1", "c1 = g(c1)", "g(g(c1)) = c1", "c1 = c2", "c2 = c1", "c1 = c1",
        "g(c1) = g(c2)", "c1 = c2 -> g(c1) = g(c2)", "P(g(c1))", "forall v. g(v) = v",
        "exists v. g(v) = c1", "forall v. exists u. g(u) = v",
        "forall v. forall u. (g(v) = g(u) -> v = u)", "P(c1) \\/ ~P(c1)"),
    "parameters": (
        "P(@e0)", "P(@e1)", "@e0 = @e1", "@e1 = @e0", "@e0 = @e0", "R(@e0,c1)", "R(c1,@e0)",
        "forall v. P(v) -> P(@e0)", "P(@e0) /\\ @e0 = @e1 -> P(@e1)", "exists v. v = @e2",
        "P(c1)", "c1 = @e0 -> (P(c1) <-> P(@e0))"),
}


@pytest.mark.parametrize("pool, bound", [
    ("open", 2), ("functions-equality", 2), ("functions-equality", 3), ("parameters", 2),
])
def test_class_ids_match_the_pairwise_reference_on_wider_pools(pool, bound):
    oracle = BoundedModelOracle(bound)
    formulas = [parse(text) for text in WIDER_POOLS[pool]]
    formulas += [Not(f) for f in formulas]
    for a, b in itertools.product(formulas, repeat=2):
        assert oracle.equivalent(a, b) == pairwise_equivalent(oracle, a, b), (a, b)
    assert class_representatives(oracle, formulas) == \
        ref_class_representatives(oracle, formulas)


# Each pool's class ids, one character ``chr(48 + id)`` per formula of the
# pool and then of its negations, in that order, at oracle bounds 1-3, as
# they were when the oracle read each parameter as a constant under its
# ``@`` name, interpreted in each model: reading it as the constant ``?@e``
# must change no class.
CLASS_IDS = {
    "prop-1": "001234110325",
    "prop-2": "001234110325",
    "prop-3": "001234110325",
    "fo-1": "00123000141103211105",
    "fo-2": "00123455671103286659",
    "fo-3": "00123455671103286659",
    "open-1": "0000011122220100033333444555534333",
    "open-2": "010223345677849:;<=<>>??@ABCCD@EFG",
    "open-3": "010223345677849:;<=<>>??@ABCCD@EFG",
    "functions-equality-1": "0000000010000022222222322222",
    "functions-equality-2": "00122343561773889::;<;=>9??;",
    "functions-equality-3": "0012234356788399:;;<=<>?@AA<",
    "parameters-1": "001112211101334445544434",
    "parameters-2": "01223456337389::;<=>;;?;",
    "parameters-3": "01223456337389::;<=>;;?;",
}


@pytest.mark.parametrize("name", sorted(CLASS_IDS))
def test_closing_parameters_keeps_every_class_id(name):
    pool, bound = name.rsplit("-", 1)
    members = {"prop": PROP_POOL, "fo": FO_POOL}.get(pool) or \
        [parse(text) for text in WIDER_POOLS[pool]]
    oracle = TruthTableOracle() if pool == "prop" else BoundedModelOracle(int(bound))
    formulas = members + [Not(f) for f in members]
    assert "".join(chr(48 + oracle.class_of(f)) for f in formulas) == CLASS_IDS[name]


def test_widening_keeps_the_classes_found_before():
    """Formulas with new symbols, parameters and free variables join the
    classes found before them, which keep their ids, as they would in an
    oracle that saw the wide formulas first."""
    early = [parse(text) for text in ("P(c1)", "~~P(c1)", "~P(c1)", "P(c1) \\/ ~P(c1)")]
    late = [parse(text) for text in (
        "P(c1) /\\ (Q(@e0) \\/ ~Q(@e0))", "R(v,c2) \\/ ~R(v,c2)", "g(c1) = g(c1) -> ~~P(c1)",
        "Q(@e0)", "R(v,c2)", "~(P(c1) \\/ ~P(c1)) \\/ ~P(c1)")]
    oracle = BoundedModelOracle(2)
    assert [oracle.class_of(f) for f in early] == [0, 0, 1, 2]
    assert [oracle.class_of(f) for f in late] == [0, 2, 0, 3, 4, 1]
    assert not oracle._syms.parameters and {"?@e0", "?v"} <= oracle._syms.constants
    wide_first = BoundedModelOracle(2)
    for f in late + early:
        wide_first.class_of(f)
    formulas = early + late
    for a, b in itertools.product(formulas, repeat=2):
        want = pairwise_equivalent(oracle, a, b)
        assert oracle.equivalent(a, b) == wide_first.equivalent(a, b) == want, (a, b)
    truth_tables = TruthTableOracle()
    assert [truth_tables.class_of(parse(text)) for text in (
        "p0", "~~p0", "p0 /\\ (p1 \\/ ~p1)", "p1", "~p0 \\/ p0 /\\ p1")] == [0, 0, 0, 1, 2]


FIRST_ORDER_WIDENINGS = ["P(c1)", "P(@e0)", "R(v,c1)", "Q(@e0) /\\ R(c1,c1)", "P(g(v))"]


@pytest.mark.parametrize("bound", [1, 2, 3, None])
def test_a_widened_oracle_numbers_its_models_as_the_search_does(bound):
    """After each widening (a parameter, a free variable, new predicates, a
    function; new atoms for the truth-table oracle, ``None`` here), each
    block's models are numbered as ``models.layouts`` draws them for the
    oracle's vocabulary, size by size."""
    oracle, texts = (TruthTableOracle(), ["p1", "p0 /\\ p1", "p2 -> p1"]) if bound is None \
        else (BoundedModelOracle(bound), FIRST_ORDER_WIDENINGS)
    for text in texts:
        oracle.class_of(parse(text))
        assert [block.layout.digits for block in oracle._blocks] == \
            [layout.digits for layout in models.layouts(oracle._syms, oracle.max_domain)]


@pytest.mark.parametrize("bound", [1, 2, 3])
@pytest.mark.parametrize("pool", ["propositional", "first-order", *WIDER_POOLS])
def test_an_oracle_given_a_vocabulary_gives_the_same_class_ids(pool, bound):
    """An oracle given a task's vocabulary covers it at its first query, and
    is empty before, as a ``--jobs`` worker receives it; it gives every
    formula, and each of the negations, the id that an oracle widened one
    formula at a time gives.  The vocabulary is that of the pool's first
    half, so the second half's symbols still widen it."""
    if pool == "propositional":
        formulas, make_oracle = PROP_POOL, lambda vocabulary: TruthTableOracle(
            vocabulary=vocabulary)
    else:
        formulas = FO_POOL if pool == "first-order" else [parse(t) for t in WIDER_POOLS[pool]]
        make_oracle = functools.partial(BoundedModelOracle, bound)
    formulas = formulas + [Not(f) for f in formulas]
    seeded = make_oracle(models.vocabulary_of(formulas[:len(formulas) // 4]))
    assert seeded._blocks == ()
    seeded = pickle.loads(pickle.dumps(seeded))
    plain = make_oracle(models.NO_SYMBOLS)
    assert [seeded.class_of(f) for f in formulas] == [plain.class_of(f) for f in formulas]


class EagerOracle:
    """The oracle as it was before classes were decided size by size, less
    its widening: a formula's fingerprint, its masks at every size up to the
    bound, looked up in one dict, over one vocabulary fixed at construction,
    that of every formula it will be asked about, each closed into fresh
    nodes (free variables and parameters read as constants)."""

    def __init__(self, max_domain, formulas):
        self._ids, self._classes = {}, {}
        vocabulary = models.vocabulary_of(map(self._closed, formulas))
        self._blocks = [models.Block(layout, 0, layout.count)
                        for layout in models.layouts(vocabulary, max_domain)]

    @staticmethod
    def _closed(phi):
        free = free_vars(phi)
        if free:
            phi = substitute_map(phi, {v: Constant("?" + v) for v in free})
        return rename_parameters(phi, {e: _constant_for(e) for e in symbols(phi).parameters})

    def class_of(self, phi):
        key = canonical_key(phi)
        if key not in self._ids:
            phi = self._closed(phi)
            fingerprint = tuple(block.truth(phi) for block in self._blocks)
            self._ids[key] = self._classes.setdefault(fingerprint, len(self._classes))
        return self._ids[key]


def _oracle_formulas(atoms, quantifiers):
    return st.recursive(atoms, lambda sub: st.one_of(
        st.builds(Not, sub), *(st.builds(c, sub, sub) for c in (And, Or, Implies, Iff)),
        *(st.builds(q, st.sampled_from("vu"), sub) for q in quantifiers)), max_leaves=5)


def _first_order_pool(late):
    """Sentences and open formulas over ``P``, ``c1``, ``@e0`` and the
    variables ``v`` and ``u``, free or bound, with equality; the late ones
    may also name ``Q``, ``g`` and ``@e1``, which widen an oracle."""
    names = [Variable("v"), Variable("u"), Constant("c1"), Parameter("e0")]
    terms = st.sampled_from(names + [Parameter("e1")] * late)
    if late:
        terms = st.one_of(terms, st.builds(lambda t: FuncApp("g", (t,)), terms))
    predicates = "PQ" if late else "P"
    return _oracle_formulas(st.one_of(
        st.builds(lambda name, t: PredAtom(name, (t,)), st.sampled_from(predicates), terms),
        st.builds(Equality, terms, terms)), (Forall, Exists))


def _propositional_pool(late):
    return _oracle_formulas(st.sampled_from([PropAtom(f"p{i}") for i in range(2 + 2 * late)]), ())


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(["first-order", "propositional"]), st.integers(1, 3))
def test_class_ids_match_the_eager_fingerprint_oracle(data, kind, bound):
    """Decided size by size, the oracle hands out the ids that an oracle
    comparing whole fingerprints hands out, in the same order, while late
    formulas widen its vocabulary; an oracle given the early formulas'
    vocabulary gives them too."""
    pool = _first_order_pool if kind == "first-order" else _propositional_pool
    early = data.draw(st.lists(pool(False), min_size=1, max_size=6))
    late = data.draw(st.lists(pool(True), max_size=6))
    formulas = early + late + [Not(f) for f in early + late] + early
    make = BoundedModelOracle if kind == "first-order" else TruthTableOracle
    eager = EagerOracle(bound, formulas)
    want = [eager.class_of(f) for f in formulas]
    for oracle in (make(bound), make(bound, models.vocabulary_of(early))):
        assert [oracle.class_of(f) for f in formulas] == want


def test_a_free_variable_and_a_parameter_of_one_name_stay_apart():
    """The oracle reads the free variable ``v`` as the constant ``?v``, which
    is not the parameter ``@v``: they may denote different elements."""
    left, right = parse("R(v,@v)"), parse("R(@v,v)")
    for bound in (1, 2):   # one element makes them equivalent
        oracle = BoundedModelOracle(bound)
        assert oracle.equivalent(left, right) is pairwise_equivalent(oracle, left, right) \
            is (bound == 1)
        assert oracle.equivalent(left, parse("R(v,@v) /\\ v = v"))


def test_oracle_rejects_what_it_cannot_compare():
    oracle = TruthTableOracle()
    oracle.class_of(parse("p0"))
    with pytest.raises(SupkitError, match="propositional formulas only"):
        oracle.class_of(parse("P(c1)"))
    oracle = BoundedModelOracle(2)
    oracle.class_of(parse("P(c1)"))
    with pytest.raises(EvalError, match="mixes propositional atoms"):
        oracle.class_of(parse("p0"))
    with pytest.raises(EvalError, match="sup-free"):
        oracle.class_of(parse("P(c1) sup Q(c1)"))
    assert oracle.class_of(parse("~~P(c1)")) == 0   # the oracle still works


# ---------------------------------------------------------------------------
# The two properties the block search relies on (semantics.scan_models)


def _without(table, key_pair):
    """The table less its entry on one pair."""
    smaller = ChoiceTable()
    for a, b, c in table.pairs():
        if (canonical_key(a), canonical_key(b)) != key_pair:
            smaller = smaller.with_entry(a, b, c)
    return smaller


def _assert_monotone_and_exact(tables, exact_up_to, pool, oracle):
    """Monotone: removing an entry from an admissible table leaves it
    admissible (so every sub-table is, by induction).  Exact: an admissible
    table of at most ``exact_up_to`` entries has, on every pair of the pool
    it lacks, an admissible one-entry extension."""
    pairs = list(itertools.combinations(pool, 2))
    for name in CLASSES:
        spec = ClassSpec(name, oracle)
        admissible = [t for t in tables if extendable(t, spec)]
        assert admissible and (name == "all" or len(admissible) < len(tables))
        for table in admissible:
            for key_pair in table.entries:
                assert extendable(_without(table, key_pair), spec), \
                    (name, "monotone", table.describe(), key_pair)
        for table in admissible:
            if len(table) > exact_up_to:
                continue
            for a, b in pairs:
                if not table.defined_on(a, b):
                    assert any(extendable(table.with_entry(a, b, pick), spec)
                               for pick in (a, b)), \
                        (name, "exact", table.describe(), a, b)


def test_extendable_is_monotone_and_exact_on_propositional_tables():
    pairs = list(itertools.combinations(PROP_POOL, 2))
    tables = [table for size in range(4)
              for chosen in itertools.combinations(pairs, size)
              for table in _tables(chosen)]
    _assert_monotone_and_exact(tables, 2, PROP_POOL, TruthTableOracle())


def test_extendable_is_monotone_and_exact_on_first_order_tables():
    tables = _sampled_first_order_tables()
    _assert_monotone_and_exact(tables, len(FO_POOL) ** 2, FO_POOL, BoundedModelOracle(2))


def _rung_argv(rung):
    """A benchmark rung's command line, with its symbols left unrenamed."""
    names = {s: s for s in ("P", "Q", "R", "c1", "c2", "p0", "p1", "p2", "p3", "p4")}
    *premises, conclusion = [text.format(**names)
                             for text in list(rung.premises) + [rung.conclusion]]
    if premises:
        argv = ["consequence", "--premises", ";".join(premises),
                "--conclusion", conclusion]
    else:
        argv = ["taut", "--formula", conclusion]
    return argv + ["--class", rung.table_class, "--max-domain", str(workloads.MAX_DOMAIN),
                   "--oracle-bound", str(workloads.ORACLE_BOUND), "--json"]


@pytest.mark.parametrize("rung", workloads.FO_CLASSES, ids=lambda r: r.name)
def test_class_rungs_report_what_the_reference_reports(capsys, monkeypatch, rung):
    """Each class rung exits as expected, and prints the same when the
    search's trie admits each child by ``ref_extendable`` on its table
    instead of by its step."""
    argv = _rung_argv(rung)
    code = run(argv)
    out = capsys.readouterr().out
    assert code == (0 if rung.valid else 1)

    def ref_child(node, a, b, chosen, key=None):
        table = node.table.with_entry(a, b, chosen)
        if not ref_extendable(table, node.spec):
            return None
        node.formulas.update(table.formulas)
        return TableNode(node.spec, node.mode, node.formulas, node.negations, table.entries,
                         node.succ, dict(node.picks))

    monkeypatch.setattr(TableNode, "child", ref_child)
    assert run(argv) == code
    assert capsys.readouterr().out == out
