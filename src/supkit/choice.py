"""Choice tables over unordered pairs of classical formulas, the collapsing
map that eliminates sup nodes, the equivalence oracles, the table classes
(all / regular / associative / regular+associative / negation-decreasing),
and the search trie, which enumerates admissible tables lazily and also
decides class membership: ``extendable`` asks its step.

Tables are immutable values; pair keys are canonicalized so symmetry and
idempotence hold by construction.  Both table types are read at a ``sup``
node only through their own ``pick``, which checks nothing: ``collapse``,
the search and ``semantics.eval_scs`` check their input first.
"""

from . import models
from .syntax import (
    And,
    Constant,
    Exists,
    Forall,
    Iff,
    Implies,
    NO_SYMBOLS,
    Not,
    Or,
    Parameter,
    Record,
    Sup,
    SupkitError,
    SyntaxClass,
    canonical_key,
    classify,
    free_vars,
    is_classical,
    is_sentence,
    json_field,
    json_names,
    parse,
    rename_parameters,
    substitute_map,
    symbols,
    to_text,
    to_text_term,
)


class MissingEntryError(SupkitError):
    """Raised when a table has no entry for a pair it is asked about.

    Enumeration treats this as a branch point; ``pair`` is in canonical
    order (smaller key first), and ``keys`` holds its members' canonical
    keys.  The message is formatted only when it is read.
    """

    def __init__(self, pair, keys):
        self.pair, self.keys = pair, keys

    def __str__(self):
        return "no entry for pair {%s, %s}" % self.keys


class NotBasicError(SupkitError):
    pass


class OracleRequiredError(SupkitError):
    pass


class ChoiceDomainError(SupkitError):
    pass


SENTENCE_MODE = "sentence"
FORMULA_MODE = "formula"


def _ordered(a, b):
    ka, kb = canonical_key(a), canonical_key(b)
    return ((a, ka), (b, kb)) if ka <= kb else ((b, kb), (a, ka))


class ChoiceTable(Record):
    """Finite partial map from unordered pairs of classical formulas to a
    chosen member.  Sentence-mode tables hold closed formulas only;
    formula-mode tables may hold open formulas."""

    __slots__ = __match_args__ = ("mode", "entries", "formulas")

    def __init__(self, mode=SENTENCE_MODE, entries=None, formulas=None):
        if mode not in (SENTENCE_MODE, FORMULA_MODE):
            raise ChoiceDomainError(f"unknown table mode {mode!r}")
        # entries: (key1, key2) -> chosen key; formulas: key -> formula
        self._init(mode, {} if entries is None else entries, {} if formulas is None else formulas)

    def _check_member(self, phi):
        if not is_classical(phi):
            raise ChoiceDomainError(
                f"choice tables hold classical formulas, got {to_text(phi)}")
        if self.mode == SENTENCE_MODE and not is_sentence(phi):
            raise ChoiceDomainError(
                f"sentence-mode table given open formula {to_text(phi)}")

    def pick(self, sup):
        """The table's choice at a ``sup`` node: between the collapses of the
        node's two operands, unchecked (see ``choose`` and ``collapse``)."""
        return _choose(self.entries, _collapse(self, sup.left), _collapse(self, sup.right))

    def defined_on(self, a, b):
        (_, ka), (_, kb) = _ordered(a, b)
        return ka == kb or (ka, kb) in self.entries

    def with_entry(self, a, b, choice):
        """A new table extended by one entry; the choice must be a member."""
        table = ChoiceTable(self.mode, dict(self.entries), dict(self.formulas))
        return table if table._add(a, b, choice) else self

    def _add(self, a, b, choice):
        """Put one entry into this table's own dicts, for a table still being
        built; False for a pair of equal members, which needs no entry."""
        self._check_member(a)
        self._check_member(b)
        (fa, ka), (fb, kb) = _ordered(a, b)
        kc = canonical_key(choice)
        if kc not in (ka, kb):
            raise ChoiceDomainError(
                f"choice {to_text(choice)} is not a member of the pair")
        if ka == kb:
            return False
        old = self.entries.get((ka, kb))
        if old is not None and old != kc:
            raise ChoiceDomainError(
                f"conflicting entry for pair {{{ka}, {kb}}}")
        self.entries[(ka, kb)] = kc
        self.formulas[ka] = fa
        self.formulas[kb] = fb
        return True

    def pairs(self):
        """Iterate (member, member, chosen) triples in canonical order."""
        for (ka, kb), kc in sorted(self.entries.items()):
            fa, fb = self.formulas[ka], self.formulas[kb]
            yield fa, fb, fa if kc == ka else fb

    def __len__(self):
        return len(self.entries)

    def to_json(self):
        return {
            "mode": self.mode,
            "entries": [
                {"pair": [to_text(a), to_text(b)], "choice": to_text(c)}
                for a, b, c in self.pairs()
            ],
        }

    @classmethod
    def from_json(cls, data, sig=None):
        """The table in the JSON form of ``to_json``; malformed input raises
        SupkitError."""
        source = "table JSON"
        table = cls(mode=json_field(data, "mode", str, source, SENTENCE_MODE))
        memo = {}   # texts parsed before, whole or in parentheses
        for entry in json_field(data, "entries", list, source, []):
            pair = json_names(entry, "pair", source)
            if len(pair) != 2:
                raise SupkitError(f"malformed {source}: 'pair' must hold two formulas")
            a, b = (parse(text, sig, memo) for text in pair)
            choice = parse(json_field(entry, "choice", str, source), sig, memo)
            table._add(a, b, choice)
        return table

    def describe(self):
        return "; ".join(
            f"{{{to_text(a)}, {to_text(b)}}} -> {to_text(c)}" for a, b, c in self.pairs()
        )


def choose(table, a, b):
    """The table's pick from {a, b}; structurally equal arguments pick a."""
    table._check_member(a)
    table._check_member(b)
    return _choose(table.entries, a, b)


def _choose(entries, a, b):
    """``choose`` on a table's entries, without its checks."""
    ka, kb = canonical_key(a), canonical_key(b)
    if ka == kb:
        return a
    if kb < ka:
        a, b, ka, kb = b, a, kb, ka
    kc = entries.get((ka, kb))
    if kc is None:
        raise MissingEntryError((a, b), (ka, kb))
    return a if kc == ka else b


def collapse(table, phi):
    """Eliminate every sup node by applying the table bottom-up.

    Classical subformulas are returned verbatim; connectives commute with
    the collapse; in sentence mode the input must be a basic sentence
    (quantifiers may only occur inside classical subformulas), in formula
    mode quantifiers commute as well.
    """
    if table.mode == SENTENCE_MODE:
        if free_vars(phi):
            raise NotBasicError(f"sentence-mode collapse requires a sentence: {to_text(phi)}")
        if classify(phi) > SyntaxClass.BASIC:
            raise NotBasicError(
                f"sentence-mode collapse requires a basic sentence: {to_text(phi)}")
    return _collapse(table, phi)


def _collapse(table, phi):
    if is_classical(phi):
        return phi
    if isinstance(phi, Not):
        return Not(_collapse(table, phi.body))
    if isinstance(phi, (And, Or, Implies, Iff)):
        return type(phi)(_collapse(table, phi.left), _collapse(table, phi.right))
    if isinstance(phi, Sup):
        return table.pick(phi)
    if isinstance(phi, (Forall, Exists)):
        if table.mode != FORMULA_MODE:
            raise NotBasicError(
                f"collapse undefined for quantified non-classical {to_text(phi)}")
        return type(phi)(phi.var, _collapse(table, phi.body))
    raise SupkitError(f"not a formula: {phi!r}")


# ---------------------------------------------------------------------------
# Equivalence oracles


class BoundedModelOracle:
    """Classical equivalence decided over all structures with domain size up
    to a bound (exact for propositional inputs).  It decides logical
    equivalence, so it reads each free variable ``v`` as a constant ``?v``
    (open formulas are compared under every assignment of their free
    variables) and each parameter ``@e`` as a constant ``?@e``, which may
    denote any element.  No input can spell these names, and none prints as
    a parameter, whose masks ``models.Block`` keeps by its text.

    A formula's class is decided size by size by its truth masks
    (``models.Block``) over the models of the oracle's vocabulary, drawn
    from ``models.layouts``: the valuations of its atoms, or the structures
    of each size from 1 to the bound.  A class is a leaf of a tree keyed by
    the mask of size 1, then of size 2, and so on: a formula's next mask is
    computed only while some class agrees with it on the smaller sizes, and
    a representative's only when a newcomer reaches it.  Ids are handed out
    in the order classes are found.  The vocabulary is the one it was given
    (its parameters read as constants too), covered from its first query
    on, and that of the formulas given so far.  A formula with a new symbol
    widens it: the blocks are built again over the wider vocabulary's
    models, numbered as ``models.layouts`` draws them, and the classes
    found so far are decided again from their representatives, in id
    order, so ids do not change.  That is sound because a formula's truth
    does not change when a structure is expanded to more symbols on the
    same domain, so bounded equivalence over the oracle's vocabulary is the
    relation over each pair's own.  ``semantics.class_spec_for`` builds one
    per verdict from the task's vocabulary, so only instances' parameters
    widen it.

    A mask has one bit per model of its size: at size 3, ``P``, ``Q``, two
    constants and three parameters give about 16 k bits, ``R/2``, one
    constant and three parameters about 42 k, and two binary relations
    about 21 M.  The tree keeps only the masks that told classes apart, and
    most are told apart at sizes 1 and 2; each block keeps its atoms' masks.  A
    vocabulary with more than ``MAX_ORACLE_MODELS`` models of one size is
    refused (SupkitError) before a block of them is built.
    """

    def __init__(self, max_domain=3, vocabulary=NO_SYMBOLS):
        self.max_domain = max_domain
        self._ids = {}       # canonical key -> class id
        self._tree = {}      # size-1 mask -> a class id or a subtree (see _classify)
        self._reps = []      # each class's representative, closed, by id
        self._closed = {}    # text -> its parameters closed, for rename_parameters
        self._syms = _closed_symbols(vocabulary)
        self._blocks = ()    # one Block of every model per domain size, once queried

    def class_of(self, phi):
        key = canonical_key(phi)
        cid = self._ids.get(key)
        if cid is None:
            if not is_classical(phi):
                raise models.EvalError(
                    f"equivalence is decided for sup-free formulas only: {to_text(phi)}")
            free = free_vars(phi)
            if free:
                phi = substitute_map(phi, {v: Constant("?" + v) for v in free})
            syms = symbols(phi)
            self._widen(_closed_symbols(syms))
            phi = rename_parameters(phi, {e: _constant_for(e) for e in syms.parameters},
                                    self._closed)
            cid = self._ids[key] = self._classify(phi)
        return cid

    def equivalent(self, a, b):
        return self.class_of(a) == self.class_of(b)

    def _classify(self, phi):
        """The id of a closed formula's class.  A tree node maps a size's
        mask to a subtree for the next size, or to the id of the one class
        with that mask and the smaller sizes'; a newcomer that agrees with
        it there moves it one size down."""
        node, last = self._tree, len(self._blocks) - 1
        for size, block in enumerate(self._blocks):
            mask = block.truth(phi)
            hit = node.get(mask)
            if type(hit) is int and size < last:
                hit = node[mask] = {self._blocks[size + 1].truth(self._reps[hit]): hit}
            if type(hit) is not dict:
                if hit is None:
                    hit = node[mask] = len(self._reps)
                    self._reps.append(phi)
                return hit
            node = hit
        return 0   # no size tells formulas apart

    def _widen(self, syms):
        """Cover a new formula's symbols: new blocks over the models of the
        wider vocabulary, and the classes found so far decided again over
        them from their representatives, in id order, which keeps the ids."""
        syms = self._syms.union(syms)
        if syms is self._syms and self._blocks:
            return
        layouts = list(models.layouts(syms, self.max_domain))
        for layout in layouts:
            if layout.count > MAX_ORACLE_MODELS:
                raise SupkitError(
                    f"the equivalence oracle would hold {layout.count} models of one size, "
                    f"more than its limit of {MAX_ORACLE_MODELS} "
                    f"(2^{MAX_ORACLE_MODELS.bit_length() - 1}): lower --oracle-bound or use "
                    "fewer symbols")
        self._syms = syms
        self._blocks = [models.Block(layout, 0, layout.count) for layout in layouts]
        reps, self._tree, self._reps = self._reps, {}, []
        for phi in reps:
            self._classify(phi)

    def describe(self):
        return {"kind": "bounded-model", "max_domain": self.max_domain}


MAX_ORACLE_MODELS = 1 << 25   # the most models of one size an oracle holds: 4 MiB a mask


def _closed_symbols(syms):
    """``syms`` with each parameter ``@e`` read as the constant ``?@e``."""
    closed = {_constant_for(e).name for e in syms.parameters}
    return syms._replace(constants=syms.constants | closed, parameters=frozenset()) \
        if closed else syms


def _constant_for(element):
    """The constant ``?@e`` that the oracle reads in place of ``@e``."""
    return Constant("?" + to_text_term(Parameter(element)))


class TruthTableOracle(BoundedModelOracle):
    """Exact classical equivalence for propositional formulas."""

    def _widen(self, syms):
        # one that mixes atoms with first-order symbols is refused as mixed
        if syms.first_order and not syms.prop_atoms:
            raise SupkitError("truth-table oracle supports propositional formulas only")
        super()._widen(syms)

    def describe(self):
        return {"kind": "truth-table"}


# ---------------------------------------------------------------------------
# Class specifications and membership


CLASS_NAMES = ("all", "reg", "asso", "regstar", "dec")
_NEEDS_ORACLE = {"reg": True, "regstar": True, "dec": True, "all": False, "asso": False}


class ClassSpec(Record):
    """A table class plus the equivalence oracle needed to decide it."""

    __slots__ = __match_args__ = ("name", "oracle")

    def __init__(self, name, oracle=None):
        if name not in CLASS_NAMES:
            raise SupkitError(f"unknown table class {name!r}")
        self._init(name, oracle)

    def require_oracle(self):
        if _NEEDS_ORACLE[self.name] and self.oracle is None:
            raise OracleRequiredError(
                f"class {self.name!r} requires an equivalence oracle")
        return self.oracle

    def describe(self):
        out = {"class": self.name}
        if self.oracle is not None and _NEEDS_ORACLE[self.name]:
            out["oracle"] = self.oracle.describe()
        return out


def class_representatives(oracle, formulas):
    """Map canonical key -> representative key (lexicographically least
    member of each equivalence class within the given collection)."""
    ids = {key: oracle.class_of(f)
           for key, f in sorted({canonical_key(f): f for f in formulas}.items())}
    least = {}
    for key, cid in ids.items():
        least.setdefault(cid, key)
    return {key: least[cid] for key, cid in ids.items()}


def extendable(table, spec):
    """Whether some total table in the class agrees with this table, so for
    a total table whether it is in the class: whether the trie's step
    admits its entries one by one (see ``TableNode``)."""
    return TableNode.root(spec, table).succ is not None


# ---------------------------------------------------------------------------
# The search trie


class TableNode:
    """A table of one verdict's search trie, with what the search learns
    about it.

    * ``entries``: the table's entries as a ``ChoiceTable`` keeps them, its
      parent's and one more; ``formulas`` maps their keys to formulas, one
      dict for the whole trie.  ``table`` builds a ``ChoiceTable`` of the
      node's own members when asked, as for a leaf that refutes a model.
    * ``children``: the one-entry extensions built so far, keyed by the
      canonical keys of the pair and of the pick, ``None`` where the class
      rules one out; blocks of one verdict reach different pairs from the
      same table, so a node may have children on several pairs.
    * ``picks``: the pick at each ``sup`` node, nested ones too, by the
      node's ``id``, stored with the node, which keeps its ``id`` from
      reuse.  A child starts from a copy: adding entries changes no pick.
    * ``succ``: the class graph, node -> successors (``None`` for a seed
      that no table of the class extends).  Each entry adds the edge winner
      -> loser: on member keys for asso; for reg, regstar and dec on class
      ids between two classes and on keys inside one (strings and integers
      never meet; reg keeps no edges inside a class); dec adds with each
      edge A -> B between classes its dual ~B -> ~A, which closes the graph
      under duality, as negation is an involution on classes.

    The step decides class membership for the search and for
    ``extendable``: a table is admissible iff each entry in turn closes no
    cycle; for reg, iff no loser already beats its winner, as regularity
    asks only that entries on one pair of classes choose alike (for
    regstar and dec, entries that do not are a 2-cycle).  The block search
    (``semantics.scan_models``) relies on the step being monotone (every
    sub-table of an admissible table is admissible) and exact (an
    admissible table has an admissible one-entry extension on every pair
    it lacks), both tested for every class.
    """

    __slots__ = ("spec", "mode", "formulas", "negations", "entries", "succ", "children",
                 "picks")

    def __init__(self, spec, mode, formulas, negations, entries, succ, picks):
        # negations: class id -> its negation's class id, for dec
        self.spec, self.mode, self.formulas, self.negations = spec, mode, formulas, negations
        self.entries, self.succ, self.children, self.picks = entries, succ, {}, picks

    @classmethod
    def root(cls, spec, seed=None, mode=SENTENCE_MODE):
        """A new trie's root: the seed table (empty by default), its class
        graph built from its entries.  Raises OracleRequiredError for a
        class that needs an oracle and has none."""
        spec.require_oracle()
        node = cls(spec, mode, {}, {}, {}, {}, {}) if seed is None else \
            cls(spec, seed.mode, dict(seed.formulas), {}, seed.entries, {}, {})
        for (ka, kb), kc in sorted(node.entries.items()):
            # the root owns its graph, so it grows it in place
            node.succ = node._step(ka, kb, kc, node.succ, owned=True)
            if node.succ is None:
                break
        return node

    @property
    def table(self):
        members = {key: self.formulas[key] for pair in self.entries for key in pair}
        return ChoiceTable(self.mode, dict(self.entries), members)

    def child(self, a, b, choice, key=None):
        """The node of this table extended by ``choice`` on the pair
        ``{a, b}`` (in canonical order), or ``None`` when the class rules
        that table out.  ``key`` holds the three's canonical keys, if known."""
        key = key or (canonical_key(a), canonical_key(b), canonical_key(choice))
        if key in self.children:
            return self.children[key]
        ka, kb, kc = key
        node = None
        if self.succ is not None:
            self.formulas[ka], self.formulas[kb] = a, b
            succ = self._step(ka, kb, kc, self.succ)
            if succ is not None:
                node = TableNode(self.spec, self.mode, self.formulas, self.negations,
                                 {**self.entries, (ka, kb): kc}, succ, dict(self.picks))
        self.children[key] = node
        return node

    def _step(self, ka, kb, kc, succ, owned=False):
        """The class graph ``succ`` with the entry ``{ka, kb} -> kc`` (on keys
        in ``formulas``) added, or ``None`` when that closes a cycle.  An
        edge goes into a copy made when the first edge is added, or, if the
        caller ``owned`` the graph, into ``succ`` itself, which may then
        hold part of a refused entry."""
        name = self.spec.name
        if name == "all":
            return succ
        if kc != ka:
            ka, kb = kb, ka   # ka wins, kb loses
        edges = [(ka, kb)]
        if name != "asso":
            oracle = self.spec.oracle
            a, b = self.formulas[ka], self.formulas[kb]
            ca, cb = oracle.class_of(a), oracle.class_of(b)
            if ca != cb:
                edges = [(ca, cb)]
                if name == "dec":
                    edges.append((self._negation(oracle, cb, b), self._negation(oracle, ca, a)))
            elif name == "reg":
                return succ
        for winner, loser in edges:
            closes = winner in succ.get(loser, ()) if name == "reg" else \
                _reaches(succ, loser, winner)
            if closes:
                return None
            if loser not in succ.get(winner, ()):
                if not owned:
                    succ, owned = dict(succ), True
                succ[winner] = succ.get(winner, ()) + (loser,)
        return succ

    def _negation(self, oracle, cid, phi):
        """The class of ``~phi``, given ``phi``'s class ``cid``."""
        neg = self.negations.get(cid)
        if neg is None:
            neg = self.negations[cid] = oracle.class_of(Not(phi))
        return neg

    def pick(self, sup):
        """``ChoiceTable.pick`` on the node's table, evaluated once per node."""
        hit = self.picks.get(id(sup))
        if hit is None:
            hit = self.picks[id(sup)] = \
                sup, _choose(self.entries, _collapse(self, sup.left), _collapse(self, sup.right))
        return hit[1]

    def leaves(self, task):
        """Run ``task`` (a callable taking a node) here and, at each
        MissingEntryError, under each admissible child on the missing pair,
        the canonically smaller pick first.  Yields ``(node, result)`` for
        each node where the task returns.  A child waits on the walk's stack
        unbuilt, as ``(parent, child's arguments)``, until its turn."""
        stack = [(self, None)]
        while stack:
            node, args = stack.pop()
            if args is not None:
                node = node.child(*args)
                if node is None:
                    continue
            try:
                result = task(node)
            except MissingEntryError as exc:
                (a, b), (ka, kb) = exc.pair, exc.keys
                stack += [(node, (a, b, b, (ka, kb, kb))), (node, (a, b, a, (ka, kb, ka)))]
            else:
                yield node, result


def _reaches(succ, source, target):
    """Whether the digraph ``succ`` has a path from ``source`` to ``target``."""
    seen = {source}
    stack = [source]
    while stack:
        for node in succ.get(stack.pop(), ()):
            if node == target:
                return True
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return False


def enumerate_tables(task, spec, seed=None, mode=SENTENCE_MODE):
    """Run ``task`` (a callable taking a table) under every admissible total
    extension of the seed table on the pairs the task actually reaches.

    Branch points are discovered lazily from MissingEntryError and walked
    as a ``TableNode`` trie, whose step prunes each branch the class rules
    out.  Yields (table, result) pairs in deterministic order (canonically
    smaller choice first).

    The seed may also be a trie's node: the search then walks and extends
    that trie, and the task takes, and the pairs hold, nodes.
    """
    if isinstance(seed, TableNode):
        yield from seed.leaves(task)
        return
    for _, found in TableNode.root(spec, seed, mode).leaves(
            lambda node: ((table := node.table), task(table))):
        yield found   # the table the task ran on, and its result
