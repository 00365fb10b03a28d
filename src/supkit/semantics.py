"""The two superposition truth relations and enumeration-backed consequence
checking.

* eval_scs: choice applies to sentences only; quantifiers are evaluated
  Tarskian-style by instantiating domain elements as parameters, so only
  restricted sentences are legal input.
* eval_fcs: the table holds open formulas and the collapse commutes with
  quantifiers; any sentence is legal input.

Consequence/tautology verdicts quantify over an explicit finite search
space (valuations or structures up to a domain bound, crossed with every
admissible choice table on the reachable pairs) and say nothing beyond it.
``check_consequence`` is the one search driver: serial runs and ``--jobs``
runs, which scan shares of the models in worker processes, both go
through it.
"""

import itertools

from .choice import (
    FORMULA_MODE,
    SENTENCE_MODE,
    BoundedModelOracle,
    ClassSpec,
    TableNode,
    TruthTableOracle,
    collapse,
    enumerate_tables,
)
from .models import (
    Block,
    EvalError,
    Layout,
    Structure,
    Valuation,
    element_names,
    eval_classical,
    structures_over,
    valuations_over,
    vocabulary_of,
)
from .syntax import (
    And,
    Exists,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    Record,
    Sup,
    SupkitError,
    SyntaxClass,
    classify,
    free_vars,
    instantiate,
    is_classical,
    set_field,
    to_text,
)


class NotRestrictedError(SupkitError):
    pass


class SearchBudgetError(SupkitError):
    pass


def eval_scs(model, table, phi):
    """Sentence-choice truth of a restricted sentence in (model, table)."""
    if free_vars(phi):
        raise EvalError(f"not a sentence: {to_text(phi)}")
    if classify(phi) > SyntaxClass.RESTRICTED:
        raise NotRestrictedError(
            f"sentence-choice evaluation requires a restricted sentence: {to_text(phi)}")
    if table.mode != SENTENCE_MODE:
        raise EvalError("sentence-choice evaluation requires a sentence-mode table")
    return bool(_truth(_OneModel(model), TableNode.root(ClassSpec("all"), table), phi, 1))


def _truth(block, node, phi, care):
    """The truth mask of a restricted sentence over a block of models (see
    ``Block``), under the table of a search trie's ``TableNode``, which
    picks at each ``sup`` node once per table.  Bits outside ``care``
    may be wrong: they are models whose truth here no longer matters to the
    caller.

    A subformula is evaluated when, and only when, some model of its care
    mask would evaluate it on its own, and the table is read only at
    ``sup`` nodes.  So a block's evaluation reaches the pairs that its
    models, one at a time, would reach, and no other; a one-model block
    reaches them in the order of plain short-circuit evaluation."""
    if is_classical(phi):
        return block.classical(phi)
    if isinstance(phi, Sup):
        return block.classical(node.pick(phi))
    full = block.full
    if isinstance(phi, Not):
        return full ^ _truth(block, node, phi.body, care)
    if isinstance(phi, (Forall, Exists)):
        if block.domain is None:
            raise EvalError("quantified sentence requires a structure")
        universal = isinstance(phi, Forall)
        acc = full if universal else 0
        for x in block.domain:
            rest = care & (acc if universal else ~acc)
            if not rest:
                break
            truth = _truth(block, node, instantiate(phi, x), rest)
            acc = acc & truth if universal else acc | truth
        return acc
    left = _truth(block, node, phi.left, care)
    if isinstance(phi, Iff):
        return full ^ left ^ _truth(block, node, phi.right, care)
    if isinstance(phi, Or):
        rest = care & ~left
        return left | _truth(block, node, phi.right, rest) if rest else left
    rest = care & left
    if isinstance(phi, And):
        return left & _truth(block, node, phi.right, rest) if rest else left
    if isinstance(phi, Implies):
        return (full ^ left) | (_truth(block, node, phi.right, rest) if rest else 0)
    raise EvalError(f"not a formula: {phi!r}")


class _OneModel:
    """A block of one given model, whatever its domain's names; classical
    truth comes from ``eval_classical``."""

    full = 1

    def __init__(self, model):
        self.model = model
        self.domain = model.domain if isinstance(model, Structure) else None

    def classical(self, phi):
        return int(eval_classical(self.model, phi))


def eval_fcs(structure, table, phi):
    """Formula-choice truth: collapse with quantifier commuting, then
    classical evaluation of the resulting sentence."""
    if free_vars(phi):
        raise EvalError(f"not a sentence: {to_text(phi)}")
    if table.mode != FORMULA_MODE:
        raise EvalError("formula-choice evaluation requires a formula-mode table")
    return eval_classical(structure, collapse(table, phi))


# ---------------------------------------------------------------------------
# Search spaces


DEFAULT_DOMAIN_BOUND = 3
DEFAULT_ORACLE_BOUND = 3
DEFAULT_BUDGET = 2_000_000
# Models per block: the table search runs once per block of this many
# consecutive models of one size (see scan_models).
BLOCK_WIDTH = 1 << 16


class SearchSpace(Record):
    """The finite class of models a verdict quantifies over."""

    __slots__ = __match_args__ = ("kind", "atoms", "vocabulary", "max_domain")

    def __init__(self, kind, atoms=(), vocabulary=None, max_domain=DEFAULT_DOMAIN_BOUND):
        set_field(self, "kind", kind)   # "propositional" | "first-order"
        set_field(self, "atoms", atoms)
        set_field(self, "vocabulary", vocabulary)
        set_field(self, "max_domain", max_domain)

    @classmethod
    def for_task(cls, formulas, max_domain=DEFAULT_DOMAIN_BOUND):
        vocab = vocabulary_of(formulas)
        if vocab.first_order:
            return cls(kind="first-order", vocabulary=vocab, max_domain=max_domain)
        return cls(kind="propositional", atoms=vocab.prop_atoms)

    def models(self):
        if self.kind == "propositional":
            return valuations_over(self.atoms)
        return structures_over(self.vocabulary, self.max_domain)

    def layout(self, size):
        """The numbered models of one domain size (``None`` for valuations)."""
        if self.kind == "propositional":
            return Layout.of_valuations(self.atoms)
        return Layout.of_structures(self.vocabulary, element_names(size))

    def _sizes(self):
        return [None] if self.kind == "propositional" else range(1, self.max_domain + 1)

    def blocks(self):
        """The space's blocks, as ``(size, start, width)``: runs of at most
        ``BLOCK_WIDTH`` consecutive models of one size, in model order."""
        for size in self._sizes():
            count = self.layout(size).count
            for start in range(0, count, BLOCK_WIDTH):
                yield size, start, min(BLOCK_WIDTH, count - start)

    def describe(self):
        if self.kind == "propositional":
            return {"kind": self.kind, "atoms": list(self.atoms)}
        return {
            "kind": self.kind,
            "max_domain": self.max_domain,
            "vocabulary": self.vocabulary.describe(),
        }


class Countermodel(Record):
    __slots__ = __match_args__ = ("model", "table")

    def __init__(self, model, table):
        set_field(self, "model", model)
        set_field(self, "table", table)   # a ChoiceTable

    def to_json(self):
        key = "valuation" if isinstance(self.model, Valuation) else "structure"
        return {key: self.model.to_json(), "table": self.table.to_json()}

    def describe(self):
        return f"{self.model.describe()} with table [{self.table.describe()}]"


class Verdict(Record):
    __slots__ = __match_args__ = ("valid", "premises", "conclusion", "space", "countermodel",
                                  "models_checked", "tables_checked")

    def __init__(self, valid, premises, conclusion, space, countermodel=None,
                 models_checked=0, tables_checked=0):
        set_field(self, "valid", valid)
        set_field(self, "premises", premises)
        set_field(self, "conclusion", conclusion)
        set_field(self, "space", space)
        set_field(self, "countermodel", countermodel)
        set_field(self, "models_checked", models_checked)
        set_field(self, "tables_checked", tables_checked)

    def verify(self):
        """Re-check the verdict's countermodel by direct evaluation."""
        if self.countermodel is None:
            return self.valid
        cm = self.countermodel
        premises_hold = all(eval_scs(cm.model, cm.table, s) for s in self.premises)
        return premises_hold and not eval_scs(cm.model, cm.table, self.conclusion)

    def to_json(self):
        out = {
            "space": self.space,
            "result": "valid" if self.valid else "countermodel",
            "models_checked": self.models_checked,
            "tables_checked": self.tables_checked,
        }
        if self.countermodel is not None:
            out["countermodel"] = self.countermodel.to_json()
        return out


def check_restricted_sentences(formulas):
    """Raise unless every formula is a restricted sentence, the input that
    consequence checking handles."""
    for phi in formulas:
        if classify(phi) > SyntaxClass.RESTRICTED:
            raise NotRestrictedError(
                f"consequence checking handles restricted sentences only: {to_text(phi)}")
        if free_vars(phi):
            raise EvalError(f"not a sentence: {to_text(phi)}")


def check_consequence(premises, conclusion, spec, space=None, budget=DEFAULT_BUDGET, jobs=1):
    """Search the space for a (model, admissible table) pair satisfying every
    premise but not the conclusion; valid-over-space when none exists.

    Each block's search sees at least one leaf table, so a scan stops
    within the space's first ``budget + 1`` blocks, and no later block is
    drawn.  With one job this process scans those blocks as it draws them.
    With more, it lists them and cuts their models into ``jobs`` equal
    shares (see ``shares``): this process scans the first share's blocks
    and one worker process scans each other share's, so no process is
    started when one share holds every block.  The verdict, its counts and
    the budget are exactly those of one scan over all the blocks: the scans
    are read in model order, and the workers still running once the
    verdict is settled are killed, as they are on every other way out.
    Each share's scan builds its own table trie (see ``scan_models``); none
    is shared between processes."""
    premises = tuple(premises)
    formulas = list(premises) + [conclusion]
    check_restricted_sentences(formulas)
    if space is None:
        space = SearchSpace.for_task(formulas)
    blocks = mine = itertools.islice(space.blocks(), max(budget, 0) + 1)
    rest = []
    if jobs > 1:
        blocks = list(blocks)
        (first, stop), *rest = shares([width for _, _, width in blocks], jobs)
        mine = blocks[first:stop]
    task = (premises, conclusion, spec, budget)
    workers = []
    try:
        if rest:
            import multiprocessing   # only here: importing the package stays cheap
            for start, end in rest:
                receive, send = multiprocessing.Pipe(duplex=False)
                worker = multiprocessing.Process(
                    target=_scan_share, args=(send, space, blocks[start:end], *task),
                    daemon=True)
                worker.start()
                workers.append((worker, receive))
                send.close()
        scans = itertools.chain([scan_models(space, mine, *task)],
                                itertools.starmap(_received, workers))
        return verdict_of_scans(premises, conclusion, spec, space, scans, budget)
    finally:
        for worker, receive in workers:
            worker.kill()
            worker.join()
            receive.close()


def shares(widths, jobs):
    """Runs of consecutive blocks, given their widths in model order, as
    ``(first, stop)`` block numbers: block ``b`` joins run
    ``jobs * m_b // total``, where ``m_b`` is the number of its first model.
    So there are at most ``jobs`` runs, and each holds within one block
    width of ``total / jobs`` models; no blocks make one empty run."""
    total = sum(widths)
    runs, share, start = [[0, 0]], 0, 0
    for b, width in enumerate(widths):
        if jobs * start // total != share:
            share = jobs * start // total
            runs.append([b, b])
        runs[-1][1] = b + 1
        start += width
    return [tuple(run) for run in runs]


def _scan_share(send, *scan):
    """A worker's body: sends ``(True, scan_models(...))``, or ``(False,
    exception)`` if it raised.  Interrupts are left to the caller, which
    kills its workers."""
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        result = True, scan_models(*scan)
    except Exception as exc:
        result = False, exc
    send.send(result)


def _received(worker, receive):
    """A worker's scan, or its exception raised again here."""
    try:
        ok, result = receive.recv()
    except EOFError:
        worker.join()
        raise SupkitError(f"a search worker ended without a result "
                          f"(exit code {worker.exitcode})") from None
    if not ok:
        raise result
    return result


def scan_models(space, blocks, premises, conclusion, spec, budget=DEFAULT_BUDGET):
    """Search the space's blocks in order, each under every admissible table,
    for a countermodel.  Returns ``(countermodel or None, models checked,
    tables checked)``; it stops at the first block holding a countermodel,
    or as soon as more than ``budget`` tables have been checked.

    A block's tables are searched once for all its models: ``_truth`` gives
    each leaf table's refuted models as a mask.  That finds what a search
    per model would find, provided that the trie's step (see
    ``choice.TableNode``) is

    * monotone, so a block leaf restricted to the pairs one model reaches
      is a leaf of that model's own search; and
    * exact, so each leaf of one model's search is extended by some leaf of
      its block's search.

    Both are tested for every class on sampled tables.  The lowest refuted
    model is searched again as a block of its own, so the countermodel and
    its table are those of a search model by model; ``models_checked``
    counts the models up to it, and ``tables_checked`` every leaf of every
    search made.

    Every search starts from the root of one ``TableNode`` trie, made here
    and dropped on return, so a table that several blocks reach is built,
    judged and evaluated at each ``sup`` node once."""
    models_checked = 0
    tables_checked = 0
    layouts = {}
    root = TableNode.root(spec)
    for size, start, width in blocks:
        if size not in layouts:
            layouts[size] = space.layout(size)
        layout = layouts[size]
        index, table, leaves = _search_block(
            Block(layout, start, width), premises, conclusion, root, budget - tables_checked)
        tables_checked += leaves
        if tables_checked > budget:
            return None, models_checked, tables_checked
        if index < 0:
            models_checked += width
            continue
        models_checked += index + 1
        if width > 1:
            _, table, leaves = _search_block(
                Block(layout, start + index, 1), premises, conclusion, root,
                budget - tables_checked)
            tables_checked += leaves
            if tables_checked > budget:
                return None, models_checked, tables_checked
        return Countermodel(layout.model_at(start + index), table), \
            models_checked, tables_checked
    return None, models_checked, tables_checked


def _search_block(block, premises, conclusion, root, allowance):
    """``(i, table, leaves)``: the block's lowest refuted model ``i`` (-1 if
    none) and the first leaf table refuting it, searched from the trie's
    ``root``.  Once a model is refuted, the rest of the search evaluates
    only the models below it, since only they can lower ``i``; every branch
    still offers each admissible choice, so each of those models still
    meets each of its own leaves.  Stops as soon as more than ``allowance``
    leaves are seen."""
    below = block.full   # the models that may still lower the answer

    def task(node):
        care = below
        for sigma in premises:
            care &= _truth(block, node, sigma, care)
            if not care:
                return 0
        return care & ~_truth(block, node, conclusion, care)

    found, leaves = None, 0
    for node, refuted in enumerate_tables(task, root.spec, root):
        leaves += 1
        if leaves > allowance:
            break
        if refuted:
            below = (refuted & -refuted) - 1
            found = node.table
            if not below:
                break
    return (below + 1).bit_length() - 1 if found is not None else -1, found, leaves


def verdict_of_scans(premises, conclusion, spec, space, scans, budget=DEFAULT_BUDGET):
    """The verdict of scans over consecutive runs of the space's models,
    given in model order.  Its counts, and whether it raises
    SearchBudgetError, are those of one scan over all the models."""
    countermodel = None
    models_checked = 0
    tables_checked = 0
    for countermodel, models, tables in scans:
        models_checked += models
        tables_checked += tables
        if tables_checked > budget:
            raise SearchBudgetError(f"search budget of {budget} evaluations exceeded")
        if countermodel is not None:
            break
    description = dict(space.describe())
    description.update(spec.describe())
    return Verdict(
        valid=countermodel is None,
        premises=tuple(premises),
        conclusion=conclusion,
        space=description,
        countermodel=countermodel,
        models_checked=models_checked,
        tables_checked=tables_checked,
    )


def is_tautology(phi, spec, space=None, budget=DEFAULT_BUDGET):
    """Tautology over the space = consequence of the empty premise set."""
    return check_consequence((), phi, spec, space=space, budget=budget)


def class_spec_for(name, formulas, oracle_bound=DEFAULT_ORACLE_BOUND):
    """A ClassSpec whose oracle matches the task's vocabulary."""
    if name in ("all", "asso"):
        return ClassSpec(name)
    vocab = vocabulary_of(formulas)
    oracle = BoundedModelOracle(oracle_bound) if vocab.first_order else TruthTableOracle()
    return ClassSpec(name, oracle)
