"""The two superposition truth relations and enumeration-backed consequence
checking.

* eval_scs: choice applies to sentences only; quantifiers are evaluated
  Tarskian-style by instantiating domain elements as parameters, each of
  which denotes its element, so only restricted sentences are legal input
  (evaluated by ``models.Block.truth``, as classical truth is).
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
    _NEEDS_ORACLE,
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
    Valuation,
    eval_classical,
    layouts,
    least_domain,
    vocabulary_of,
)
from .syntax import (
    Record,
    SupkitError,
    SyntaxClass,
    classify,
    free_vars,
    symbols,
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
    return bool(Block.of_model(model, symbols(phi)).truth(phi, table))


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
    """The finite class of models a verdict quantifies over: those of a
    vocabulary (a ``syntax.Symbols``) with domains up to ``max_domain``, in
    the order of ``models.layouts``, from the least size that holds every
    element the vocabulary's parameters name."""

    __slots__ = __match_args__ = ("vocabulary", "max_domain")

    def __init__(self, vocabulary, max_domain=DEFAULT_DOMAIN_BOUND):
        self._init(vocabulary, max_domain)

    @classmethod
    def for_task(cls, formulas, max_domain=DEFAULT_DOMAIN_BOUND):
        return cls(vocabulary_of(formulas), max_domain)

    def blocks(self, first=0, stop=float("inf")):
        """The space's blocks numbered ``first`` up to ``stop``, as ``(layout,
        start, width)``: runs of at most ``BLOCK_WIDTH`` consecutive models
        of one size, in model order."""
        for layout, b, _, n in self._cut_sizes(stop):
            for i in range(max(first - b, 0), n):
                yield layout, i * BLOCK_WIDTH, min(BLOCK_WIDTH, layout.count - i * BLOCK_WIDTH)

    def _cut_sizes(self, stop):
        """``(layout, first block, first model, blocks)`` for each size in
        turn, with the blocks cut at block number ``stop``; no later size's
        layout is built."""
        b = m = 0
        drawn = layouts(self.vocabulary, self.max_domain)
        while b < stop and (layout := next(drawn, None)) is not None:
            n = min(-(-layout.count // BLOCK_WIDTH), stop - b)
            yield layout, b, m, n
            b, m = b + n, m + min(layout.count, n * BLOCK_WIDTH)

    def models_where(self, mask_of):
        """The models, in model order, whose bit is set in the mask that
        ``mask_of`` gives for their block (a ``models.Block``)."""
        for layout, start, width in self.blocks():
            mask = mask_of(Block(layout, start, width))
            while mask:
                low = mask & -mask
                yield layout.model_at(start + low.bit_length() - 1)
                mask ^= low

    def describe(self):
        if not self.vocabulary.first_order:
            return {"kind": "propositional", "atoms": sorted(self.vocabulary.prop_atoms)}
        least = least_domain(self.vocabulary)
        return {
            "kind": "first-order",
            **({"min_domain": least} if least > 1 else {}),
            "max_domain": self.max_domain,
            "vocabulary": self.vocabulary.describe(),
        }


class Countermodel(Record):
    __slots__ = __match_args__ = ("model", "table")

    def __init__(self, model, table):
        # table: a ChoiceTable
        self._init(model, table)

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
        self._init(valid, premises, conclusion, space, countermodel, models_checked,
                   tables_checked)

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
    With more, their models are cut into ``jobs`` equal shares, worked out
    from the layouts' counts (see ``shares``): this process scans the first
    share's blocks as it draws them, and one worker process draws and scans
    each other share's, so no process is started when one share holds every
    block.  The verdict, its counts and the budget are exactly those of one
    scan over all the blocks: the scans are read in model order, and the
    workers still running once the verdict is settled are killed, as they
    are on every other way out.
    Each share's scan builds its own table trie (see ``scan_models``); none
    is shared between processes.

    A first-order space whose bound is below its least domain size, so
    that it holds no model, is refused (SupkitError), as no verdict over it
    could mean anything."""
    premises = tuple(premises)
    formulas = list(premises) + [conclusion]
    check_restricted_sentences(formulas)
    if space is None:
        space = SearchSpace.for_task(formulas)
    vocabulary, bound = space.vocabulary, space.max_domain
    if vocabulary.first_order and (least := least_domain(vocabulary)) > bound:
        if vocabulary.parameters:
            raise SupkitError(f"the domain bound {bound} leaves out element e{least - 1}, "
                              "which a parameter names")
        raise SupkitError(f"the domain bound {bound} admits no domain: a domain has at least "
                          "1 element")
    limit = max(budget, 0) + 1
    (first, stop), *rest = shares(space, limit, jobs) if jobs > 1 else [(0, limit)]
    task = (premises, conclusion, spec, budget)
    workers = []
    try:
        if rest:
            import multiprocessing   # only here: importing the package stays cheap
            for start, end in rest:
                receive, send = multiprocessing.Pipe(duplex=False)
                worker = multiprocessing.Process(
                    target=_scan_share, args=(send, space, start, end, *task), daemon=True)
                worker.start()
                workers.append((worker, receive))
                send.close()
        scans = itertools.chain([scan_models(space.blocks(first, stop), *task)],
                                itertools.starmap(_received, workers))
        return verdict_of_scans(premises, conclusion, spec, space, scans, budget)
    finally:
        for worker, receive in workers:
            worker.kill()
            worker.join()
            receive.close()


def shares(space, limit, jobs):
    """Runs of consecutive blocks among the space's first ``limit``, as
    ``(first, stop)`` block numbers: block ``b`` joins run
    ``jobs * m_b // total``, where ``m_b`` is the number of its first model
    and ``total`` the number of models in those blocks.  So there are at most
    ``jobs`` runs, and each holds within one block width of ``total / jobs``
    models; no blocks make one empty run.  The runs are worked out from the
    layouts' counts, without drawing a block."""
    sizes = list(space._cut_sizes(limit))
    if not sizes:   # a space without models
        return [(0, 0)]
    layout, b, m, n = sizes[-1]
    total, stop = m + min(layout.count, n * BLOCK_WIDTH), b + n
    starts = {0, stop}
    for run in range(1, jobs):
        least = -(-run * total // jobs)   # the first model of this run or a later one
        starts.add(next((first + max(0, -(-(least - start) // BLOCK_WIDTH))
                         for _, first, start, blocks in sizes
                         if least <= start + (blocks - 1) * BLOCK_WIDTH), stop))
    bounds = sorted(starts)
    return list(zip(bounds, bounds[1:]))


def _scan_share(send, space, first, stop, *task):
    """A worker's body: sends ``(True, scan_models(...))`` over blocks
    ``first`` to ``stop``, or ``(False, exception)`` if it raised.
    Interrupts are left to the caller, which kills its workers."""
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        result = True, scan_models(space.blocks(first, stop), *task)
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


def scan_models(blocks, premises, conclusion, spec, budget=DEFAULT_BUDGET):
    """Search a space's blocks in order, each under every admissible table,
    for a countermodel.  Returns ``(countermodel or None, models checked,
    tables checked)``; it stops at the first block holding a countermodel,
    or as soon as more than ``budget`` tables have been checked.

    A block's tables are searched once for all its models: ``Block.truth`` gives
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
    root = TableNode.root(spec)
    for layout, start, width in blocks:
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
            care &= block.truth(sigma, node, care)
            if not care:
                return 0
        return care & ~block.truth(conclusion, node, care)

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


def class_spec_for(name, formulas, oracle_bound=DEFAULT_ORACLE_BOUND):
    """A ClassSpec whose oracle matches the task's vocabulary."""
    if not _NEEDS_ORACLE.get(name):
        return ClassSpec(name)
    vocab = vocabulary_of(formulas)
    oracle = (BoundedModelOracle if vocab.first_order else TruthTableOracle)(oracle_bound, vocab)
    return ClassSpec(name, oracle)
