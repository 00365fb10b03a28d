"""Differential tests of the block search against the search it replaced.

The reference, kept only here, is the search model by model: every model of
the space in turn, each under every admissible table, evaluated by the
substituting evaluator ``ref_scs`` of ``test_facts``.  With blocks of one
model the block search must print what the reference prints, byte for
byte; at the default width everything but ``tables_checked``, which counts
block leaves.
"""

import functools
import itertools
import json
from dataclasses import dataclass
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supkit import semantics
from supkit.choice import TableNode, enumerate_tables
from supkit.cli import run
from supkit.corpus import corpus_entries
from supkit.models import (
    Block,
    EvalError,
    Layout,
    element_names,
    layouts,
    least_domain,
    structures_over,
    vocabulary_of,
)
from supkit.semantics import (
    DEFAULT_BUDGET,
    Countermodel,
    SearchSpace,
    check_consequence,
    check_restricted_sentences,
    class_spec_for,
    verdict_of_scans,
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
    NO_SYMBOLS,
    PropAtom,
    Sup,
    Symbols,
    Variable,
    symbols,
)
from test_extendable import CLASSES, _rung_argv, workloads
from test_facts import ref_eval_classical, ref_scs
from test_syntax import _formulas as _syntax_formulas


def ref_scan_models(space, blocks, premises, conclusion, spec, budget=DEFAULT_BUDGET):
    """``semantics.scan_models`` as it was before blocks: ``blocks`` is
    ignored, and each model's tables are searched on their own."""
    models_checked = 0
    tables_checked = 0
    for model in structures_over(space.vocabulary, space.max_domain):
        models_checked += 1

        def task(table):
            return all(ref_scs(model, table, s) for s in premises) and \
                not ref_scs(model, table, conclusion)

        for table, refuted in enumerate_tables(task, spec):
            tables_checked += 1
            if tables_checked > budget:
                return None, models_checked, tables_checked
            if refuted:
                return Countermodel(model, table), models_checked, tables_checked
    return None, models_checked, tables_checked


def _without_tables(out):
    data = json.loads(out)
    data.pop("tables_checked")
    return data


def _outputs(capsys, monkeypatch, argv):
    """The output of the reference, of one-model blocks and of the default
    blocks, with the exit codes.  The command's search
    (``semantics.check_consequence``) scans with ``semantics.scan_models``,
    so that is the name patched."""
    outputs = []
    for width, scan in ((None, ref_scan_models), (1, semantics.scan_models),
                        (semantics.BLOCK_WIDTH, semantics.scan_models)):
        with monkeypatch.context() as patch:
            patch.setattr(semantics, "scan_models", scan)
            if width is not None:
                patch.setattr(semantics, "BLOCK_WIDTH", width)
            code = run(argv)
        outputs.append((code, capsys.readouterr().out))
    return outputs


RUNGS = workloads.FO_ALL + workloads.FO_CLASSES


@pytest.mark.parametrize("rung", RUNGS, ids=lambda r: r.name)
def test_rungs_match_the_model_by_model_reference(capsys, monkeypatch, rung):
    reference, one, wide = _outputs(capsys, monkeypatch, _rung_argv(rung))
    assert reference[0] == (0 if rung.valid else 1)
    assert one == reference
    assert wide[0] == reference[0]
    assert _without_tables(wide[1]) == _without_tables(reference[1])


# Sentences refuted only late in their spaces (by the 77th of 84 and the 93rd
# of 228 structures), so that with one-model blocks their countermodels fall
# in a worker's share; the rungs' countermodels all fall in the first share.
LATE = (
    "(forall v. forall w. forall u. (v = w \\/ v = u \\/ w = u)) \\/ (exists v. ~P(v))"
    " \\/ ((exists v. P(v)) sup (exists v. Q(v)))",
    "(forall v. forall w. forall u. (v = w \\/ v = u \\/ w = u)) \\/ (exists v. ~P(v))"
    " \\/ (P(c1) sup Q(c1))",
)


def test_jobs_print_what_the_serial_search_prints(capsys, monkeypatch):
    """``--jobs 2`` and ``--jobs 3`` give the serial output and exit code on
    every rung, with blocks of one model, so that shares really split, and
    at the default width; the countermodels found fall in this process's
    share and in workers' shares.  The serial run scans through
    ``semantics.scan_models`` too, so only scans of ``--jobs`` runs are
    counted."""
    found_in = set()
    in_jobs = False
    scan_models, received = semantics.scan_models, semantics._received

    def own_scan(*scan):
        result = scan_models(*scan)
        if in_jobs and result[0] is not None:
            found_in.add("caller")
        return result

    def workers_scan(*worker):
        result = received(*worker)
        if result[0] is not None:
            found_in.add("worker")
        return result

    monkeypatch.setattr(semantics, "scan_models", own_scan)
    monkeypatch.setattr(semantics, "_received", workers_scan)
    argvs = [_rung_argv(rung) for rung in RUNGS] + \
        [["taut", "--formula", text, "--json"] for text in LATE]
    for width in (1, semantics.BLOCK_WIDTH):
        monkeypatch.setattr(semantics, "BLOCK_WIDTH", width)
        for argv in argvs:
            in_jobs = False
            serial = (run(argv), capsys.readouterr().out)
            in_jobs = True
            for jobs in ("2", "3"):
                assert (run(argv + ["--jobs", jobs]), capsys.readouterr().out) == serial, \
                    (width, argv, jobs)
    assert found_in == {"caller", "worker"}


def _verdict_json(entry, monkeypatch, width, scan):
    premises = list(entry.proof.hypotheses)
    conclusion = entry.proof.conclusion()
    spec = class_spec_for(entry.table_class, premises + [conclusion])
    with monkeypatch.context() as patch:
        patch.setattr(semantics, "scan_models", scan)
        patch.setattr(semantics, "BLOCK_WIDTH", width)
        return check_consequence(premises, conclusion, spec).to_json()


def test_corpus_consequence_checks_match_the_reference(monkeypatch):
    entries = corpus_entries()
    assert len(entries) == 20
    for entry in entries:
        reference = _verdict_json(entry, monkeypatch, 1, ref_scan_models)
        assert reference["result"] == "valid", entry.name
        one = _verdict_json(entry, monkeypatch, 1, semantics.scan_models)
        assert json.dumps(one) == json.dumps(reference), entry.name
        wide = _verdict_json(entry, monkeypatch, semantics.BLOCK_WIDTH,
                             semantics.scan_models)
        reference.pop("tables_checked")
        wide.pop("tables_checked")
        assert wide == reference, entry.name


# ---------------------------------------------------------------------------
# Sampled sentences: a unary function, equality, parameters, and
# propositional atoms


def _terms(variables):
    base = [Constant("c1"), Parameter("e0"), Parameter("e1")]
    base += [Variable(v) for v in variables]
    return st.recursive(st.sampled_from(base),
                        lambda inner: st.builds(lambda t: FuncApp("f", (t,)), inner),
                        max_leaves=2)


def _atoms(variables):
    return st.one_of(
        st.builds(lambda name, t: PredAtom(name, (t,)), st.sampled_from("PQ"),
                  _terms(variables)),
        st.builds(Equality, _terms(variables), _terms(variables)))


_BINARY = (And, Or, Implies, Iff)
_PROP_ATOMS = st.sampled_from([PropAtom(f"p{i}") for i in range(3)])
CLASSICAL, BASIC, RESTRICTED = range(3)


@st.composite
def _formulas(draw, level, propositional=False, variables=(), depth=3):
    """A formula of at most the given syntax class whose free variables are
    among ``variables``."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(_PROP_ATOMS if propositional else _atoms(variables))
    kinds = ["not", "binary"] + ["sup"] * (level >= BASIC) + ["quantifier"] * (not propositional)
    kind = draw(st.sampled_from(kinds))
    if kind == "quantifier":
        var = f"v{len(variables)}"
        body_level = RESTRICTED if level == RESTRICTED else CLASSICAL
        body = draw(_formulas(body_level, False, variables + (var,), depth - 1))
        return draw(st.sampled_from((Forall, Exists)))(var, body)
    if kind == "not":
        return Not(draw(_formulas(level, propositional, variables, depth - 1)))
    connective = Sup if kind == "sup" else draw(st.sampled_from(_BINARY))
    operand_level = BASIC if kind == "sup" else level
    return connective(draw(_formulas(operand_level, propositional, variables, depth - 1)),
                      draw(_formulas(operand_level, propositional, variables, depth - 1)))


@st.composite
def _tasks(draw):
    """(premises, conclusion, class) over one vocabulary kind."""
    sentences = _formulas(RESTRICTED, propositional=draw(st.booleans()))
    premises = draw(st.lists(sentences, max_size=1))
    return premises, draw(sentences), draw(st.sampled_from(CLASSES))


@settings(max_examples=60, deadline=None)
@given(_tasks())
def test_sampled_sentences_match_the_reference(task):
    premises, conclusion, name = task
    formulas = premises + [conclusion]
    check_restricted_sentences(formulas)
    spec = class_spec_for(name, formulas, oracle_bound=2)
    space = SearchSpace.for_task(formulas, max_domain=2)

    def verdict(scan):
        found = scan(space, space.blocks(), premises, conclusion, spec)
        return verdict_of_scans(premises, conclusion, spec, space, [found]).to_json()

    reference = verdict(ref_scan_models)
    with mock.patch.object(semantics, "BLOCK_WIDTH", 1):
        assert verdict(semantics.scan_models) == reference
    wide = verdict(semantics.scan_models)
    reference.pop("tables_checked")
    wide.pop("tables_checked")
    assert wide == reference


@settings(max_examples=40, deadline=None)
@given(st.booleans().flatmap(lambda p: _formulas(RESTRICTED, propositional=p)),
       st.sampled_from(CLASSES))
def test_blocks_reach_the_pairs_their_models_reach(phi, name):
    """A one-model block's table search yields the tables, in order, and
    the truth values that the reference gives on that model alone; every
    bit of a whole size's block, under each of its leaf tables, is its
    model's truth by the reference."""
    spec = class_spec_for(name, [phi], oracle_bound=2)
    space = SearchSpace.for_task([phi], max_domain=2)
    for layout in layouts(space.vocabulary, space.max_domain):
        models = [layout.model_at(i) for i in range(layout.count)]
        for i, model in enumerate(models):
            block = Block(layout, i, 1)
            leaves = [(node.table.entries, truth) for node, truth in enumerate_tables(
                lambda node: block.truth(phi, node, 1), spec, TableNode.root(spec))]
            expected = [(table.entries, int(truth)) for table, truth in enumerate_tables(
                lambda t: ref_scs(model, t, phi), spec)]
            assert leaves == expected, (model, leaves, expected)
        block = Block(layout, 0, layout.count)
        for node, mask in enumerate_tables(
                lambda node: block.truth(phi, node, block.full), spec, TableNode.root(spec)):
            assert [mask >> i & 1 for i in range(len(models))] == \
                [int(ref_scs(model, node.table, phi)) for model in models]


@settings(max_examples=60, deadline=None)
@given(_formulas(CLASSICAL), st.integers(1, 3), st.data())
def test_block_masks_match_classical_evaluation(phi, size, data):
    """Each bit of a block's mask is the sentence's truth in its model, for
    blocks of any width starting anywhere, so that digit masks are cut
    from both sides of a period.  The domain holds the elements that the
    sentence's parameters name."""
    syms = vocabulary_of([phi])
    layout = Layout.of_structures(syms, element_names(max(size, least_domain(syms))))
    start = data.draw(st.integers(0, layout.count - 1))
    width = data.draw(st.integers(1, min(layout.count - start, 70)))
    mask = Block(layout, start, width).classical(phi)
    for i in range(width):
        assert bool(mask >> i & 1) == ref_eval_classical(layout.model_at(start + i), phi)


# ---------------------------------------------------------------------------
# The vocabulary as sorted tuples, as it was before ``syntax.Symbols`` served
# as the one vocabulary type, with the digits and the description built
# from it; parameters have no digits, and the least domain size holds the
# elements they name


@dataclass(frozen=True)
class RefVocabulary:
    prop_atoms: tuple = ()
    constants: tuple = ()
    functions: tuple = ()
    predicates: tuple = ()
    parameters: tuple = ()
    first_order: bool = False

    @classmethod
    def of_formulas(cls, formulas):
        syms = functools.reduce(Symbols.union, map(symbols, formulas), NO_SYMBOLS)
        if syms.prop_atoms and syms.first_order:
            raise EvalError("vocabulary mixes propositional atoms with first-order symbols; "
                            "search spaces support one kind at a time")
        return cls(*(tuple(sorted(names)) for names in syms[:-1]), syms.first_order)

    @property
    def least(self):
        return max([int(p[1:]) + 1 for p in self.parameters], default=1)

    def digits(self, domain):
        n = len(domain)
        digits = [(("c", name), n) for name in self.constants]
        for kind, names, radix in (("f", self.functions, n), ("p", self.predicates, 2)):
            for name, arity in names:
                digits += [((kind, name, args), radix)
                           for args in itertools.product(range(n), repeat=arity)]
        return tuple(digits)

    def describe(self, max_domain):
        if not self.first_order:
            return {"kind": "propositional", "atoms": list(self.prop_atoms)}
        least = {"min_domain": self.least} if self.least > 1 else {}
        return {"kind": "first-order", **least, "max_domain": max_domain, "vocabulary": {
            "prop_atoms": list(self.prop_atoms),
            "constants": list(self.constants),
            "functions": [list(f) for f in self.functions],
            "predicates": [list(p) for p in self.predicates],
            "parameters": list(self.parameters),
        }}


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(_formulas(RESTRICTED), _formulas(BASIC, propositional=True),
                          _syntax_formulas(), _syntax_formulas(prop_atoms=False)),
                min_size=1, max_size=3),
       st.integers(1, 3))
def test_symbols_number_and_describe_models_as_sorted_tuples_did(formulas, size):
    """Constants, parameters, functions and predicates, unary and binary:
    each size's digits, and so every model's number, and the ``space``
    block are those of the sorted tuples; a bound below the least size
    that the parameters need leaves no layout."""
    try:
        ref = RefVocabulary.of_formulas(formulas)
    except EvalError as exc:
        with pytest.raises(EvalError, match=str(exc)):
            vocabulary_of(formulas)
        return
    description = SearchSpace.for_task(formulas, size).describe()
    assert json.dumps(description) == json.dumps(ref.describe(size))
    if ref.first_order:
        syms = vocabulary_of(formulas)
        assert Layout.of_structures(syms, element_names(size)).digits == \
            ref.digits(element_names(size))
        assert [layout.digits for layout in layouts(syms, size)] == \
            [ref.digits(element_names(n)) for n in range(ref.least, size + 1)]
