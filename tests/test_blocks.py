"""Differential tests of the block search against the search it replaced.

The reference, kept only here, is the search model by model: every model of
the space in turn, each under every admissible table, evaluated by the
substituting evaluator ``ref_scs`` of ``test_facts``.  With blocks of one
model the block search must print what the reference prints, byte for
byte; at the default width everything but ``tables_checked``, which counts
block leaves.
"""

import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supkit import cli, semantics
from supkit.choice import enumerate_tables
from supkit.cli import run
from supkit.corpus import corpus_entries
from supkit.models import Block, Layout, element_names, eval_classical, vocabulary_of
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
    PropAtom,
    Sup,
    Variable,
)
from test_extendable import CLASSES, _rung_argv, workloads
from test_facts import ref_scs


def ref_scan_models(space, blocks, premises, conclusion, spec, budget=DEFAULT_BUDGET):
    """``semantics.scan_models`` as it was before blocks: ``blocks`` is
    ignored, and each model's tables are searched on their own."""
    models_checked = 0
    tables_checked = 0
    for model in space.models():
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
    blocks, with the exit codes."""
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
    share and in workers' shares."""
    found_in = set()
    scan_models, received = cli.scan_models, cli._received

    def own_scan(*scan):
        result = scan_models(*scan)
        if result[0] is not None:
            found_in.add("caller")
        return result

    def workers_scan(*worker):
        result = received(*worker)
        if result[0] is not None:
            found_in.add("worker")
        return result

    monkeypatch.setattr(cli, "scan_models", own_scan)
    monkeypatch.setattr(cli, "_received", workers_scan)
    argvs = [_rung_argv(rung) for rung in RUNGS] + \
        [["taut", "--formula", text, "--json"] for text in LATE]
    for width in (1, semantics.BLOCK_WIDTH):
        monkeypatch.setattr(semantics, "BLOCK_WIDTH", width)
        for argv in argvs:
            serial = (run(argv), capsys.readouterr().out)
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
    for size in space._sizes():
        layout = space.layout(size)
        models = [layout.model_at(i) for i in range(layout.count)]
        for i, model in enumerate(models):
            block = Block(layout, i, 1)
            leaves = [(table.entries, truth) for table, truth in enumerate_tables(
                lambda t: semantics._truth(block, t, phi, 1), spec)]
            expected = [(table.entries, int(truth)) for table, truth in enumerate_tables(
                lambda t: ref_scs(model, t, phi), spec)]
            assert leaves == expected, (model, leaves, expected)
        block = Block(layout, 0, layout.count)
        for table, mask in enumerate_tables(
                lambda t: semantics._truth(block, t, phi, block.full), spec):
            assert [mask >> i & 1 for i in range(len(models))] == \
                [int(ref_scs(model, table, phi)) for model in models]


@settings(max_examples=60, deadline=None)
@given(_formulas(CLASSICAL), st.integers(1, 3), st.data())
def test_block_masks_match_classical_evaluation(phi, size, data):
    """Each bit of a block's mask is the sentence's truth in its model, for
    blocks of any width starting anywhere, so that digit masks are cut
    from both sides of a period."""
    layout = Layout.of_structures(vocabulary_of([phi]), element_names(size))
    start = data.draw(st.integers(0, layout.count - 1))
    width = data.draw(st.integers(1, min(layout.count - start, 70)))
    mask = Block(layout, start, width).classical(phi)
    for i in range(width):
        assert bool(mask >> i & 1) == eval_classical(layout.model_at(start + i), phi)
