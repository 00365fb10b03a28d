"""Finite structures and propositional valuations, the numbered models of
one domain size (``Layout``), and truth over a run of them as one bit mask
(``Block``), whose ``truth`` is the one walk that evaluates connectives and
quantifiers, for classical and for sentence-choice truth alike.

A vocabulary is a ``syntax.Symbols``, and ``layouts`` is the one
enumeration of its models: the valuations of its atoms, or its structures
of each size from the least that its parameters need to a bound.  The
search (``semantics.SearchSpace``) and the equivalence oracle
(``choice.BoundedModelOracle``) both draw from it.

Structures have named domain elements, ``e0, e1, ...`` in the search;
equality is always identity.  A parameter ``@e`` always denotes the element
``e``, never a constant that a model interprets.
"""

import functools
import itertools

from .syntax import (
    And,
    Constant,
    Equality,
    Exists,
    Forall,
    FuncApp,
    Iff,
    Implies,
    NO_SYMBOLS,
    Not,
    Or,
    Parameter,
    PredAtom,
    PropAtom,
    Record,
    Sup,
    SupkitError,
    Symbols,
    Variable,
    canonical_key,
    instantiate,
    is_classical,
    json_field,
    json_names,
    substitute_map,
    symbols,
    to_text_term,
)


class EvalError(SupkitError):
    pass


class Valuation(Record):
    """Truth assignment for propositional atoms."""

    __slots__ = __match_args__ = ("assignment",)

    def __init__(self, assignment):
        self._init(assignment)

    def to_json(self):
        return {"atoms": {k: int(v) for k, v in sorted(self.assignment.items())}}

    @classmethod
    def from_json(cls, data):
        atoms = json_field(data, "atoms", dict, "valuation JSON")
        if not all(v in (0, 1) for v in atoms.values()):
            raise SupkitError("malformed valuation JSON: atom values must be 0 or 1")
        return cls({k: bool(v) for k, v in atoms.items()})

    def describe(self):
        return ", ".join(f"{k}={int(v)}" for k, v in sorted(self.assignment.items()))


class Structure(Record):
    """Finite first-order structure with named elements.

    functions maps a name to a dict from argument tuples to an element;
    predicates maps a name to the set of tuples where it holds.
    """

    __slots__ = __match_args__ = ("domain", "constants", "functions", "predicates")

    def __init__(self, domain, constants=None, functions=None, predicates=None):
        if not domain:
            raise SupkitError("structure domain must be nonempty")
        self._init(domain, {} if constants is None else constants,
                   {} if functions is None else functions,
                   {} if predicates is None else predicates)

    def to_json(self):
        return {
            "domain": list(self.domain),
            "constants": dict(sorted(self.constants.items())),
            "functions": {
                name: {",".join(args): val for args, val in sorted(table.items())}
                for name, table in sorted(self.functions.items())
            },
            "predicates": {
                name: sorted(list(t) for t in tuples)
                for name, tuples in sorted(self.predicates.items())
            },
        }

    @classmethod
    def from_json(cls, data):
        """The structure in the JSON form of ``to_json``; malformed input, an
        element outside the domain or listed twice, a symbol whose tuples
        differ in length, or a constant whose name is not an identifier
        (such as a parameter's ``@e0``) raises SupkitError."""
        source = "model JSON"
        domain = tuple(json_names(data, "domain", source))
        if len(set(domain)) < len(domain):
            raise SupkitError(f"malformed {source}: the domain lists an element twice")

        def element(value, where):
            if not isinstance(value, str) or value not in domain:
                raise SupkitError(f"malformed {source}: {where} names {value!r}, "
                                  "which is not an element of the domain")
            return value

        def elements(values, where):
            if not isinstance(values, list):
                raise SupkitError(f"malformed {source}: {where} must list elements")
            return tuple(element(v, where) for v in values)

        constants = json_field(data, "constants", dict, source, {})
        for name in constants:
            if not name.isidentifier():
                raise SupkitError(f"malformed {source}: constant {name!r} is not an "
                                  "identifier (a parameter names its element itself)")
        functions = json_field(data, "functions", dict, source, {})
        predicates = json_field(data, "predicates", dict, source, {})
        functions = {
            name: {elements(k.split(","), f"function {name!r}"): element(v, f"function {name!r}")
                   for k, v in json_field(functions, name, dict, source).items()}
            for name in functions
        }
        predicates = {
            name: frozenset(elements(t, f"predicate {name!r}")
                            for t in json_field(predicates, name, list, source))
            for name in predicates
        }
        for kind, tuples in (("function", functions), ("predicate", predicates)):
            for name, held in tuples.items():
                if len({len(args) for args in held}) > 1:
                    raise SupkitError(f"malformed {source}: {kind} {name!r} holds tuples "
                                      "of different lengths")
        return cls(
            domain=domain,
            constants={name: element(value, f"constant {name!r}")
                       for name, value in constants.items()},
            functions=functions,
            predicates=predicates,
        )

    def describe(self):
        bits = [f"domain={{{','.join(self.domain)}}}"]
        for name, el in sorted(self.constants.items()):
            bits.append(f"{name}={el}")
        for name, table in sorted(self.functions.items()):
            inner = ",".join(f"{'/'.join(k)}->{v}" for k, v in sorted(table.items()))
            bits.append(f"{name}:{{{inner}}}")
        for name, tuples in sorted(self.predicates.items()):
            inner = ",".join("(" + ",".join(t) + ")" for t in sorted(tuples))
            bits.append(f"{name}={{{inner}}}")
        return " ".join(bits)


# ---------------------------------------------------------------------------
# Vocabularies and the enumeration of their models


_MIXED = ("vocabulary mixes propositional atoms with first-order symbols; "
          "search spaces support one kind at a time")


def _one_kind(syms):
    """``syms``, unless it mixes atoms with first-order symbols (EvalError)."""
    if syms.prop_atoms and syms.first_order:
        raise EvalError(_MIXED)
    return syms


def vocabulary_of(formulas):
    """The vocabulary of the formulas' symbols together."""
    return _one_kind(functools.reduce(Symbols.union, map(symbols, formulas), NO_SYMBOLS))


def least_domain(syms):
    """The least domain size whose elements ``e0, e1, ...`` include each one
    that a parameter of ``syms`` names (1 for none).  A parameter that names
    no such element, or a size above 1 whose structures, drawn first, have
    more than 4,096 elements and digits together, raises EvalError."""
    least = 1
    for element in syms.parameters:
        index = element[1:]
        if not (element[:1] == "e" and index.isascii() and index.isdigit()
                and element == f"e{int(index)}"):
            raise EvalError(f"parameter {to_text_term(Parameter(element))} names no "
                            "domain element: the elements are e0, e1, ...")
        least = max(least, int(index) + 1)
    size = least + len(syms.constants) + sum(
        least ** arity for _, arity in syms.functions | syms.predicates)
    if least > 1 and size > 4096:
        raise EvalError(f"the parameters need domain size {least}, whose structures "
                        f"have {size} elements and digits, more than 4096")
    return least


def layouts(syms, max_domain):
    """The models of a vocabulary, one ``Layout`` per domain size in search
    order: the valuations of its atoms, or its structures of each size from
    ``least_domain(syms)`` to ``max_domain`` (none when the bound is below
    the least size).  Each layout is built as it is drawn."""
    if not _one_kind(syms).first_order:
        yield Layout.of_valuations(syms.prop_atoms)
        return
    for n in range(least_domain(syms), max_domain + 1):
        yield Layout.of_structures(syms, element_names(n))


class Layout:
    """The models of one domain size, numbered in the order the search visits
    them: the valuations of some atoms, or the structures over one domain.

    A model's number is a mixed-radix integer with one digit per
    interpretation: each constant, then each function-table entry, then
    each predicate bit, in sorted symbol order and argument-tuple order, the
    last digit fastest.  A valuation has one binary digit per atom, in
    sorted order.  ``digit`` maps ``("c", name)``, ``("f", name, args)``,
    ``("p", name, args)`` and ``("a", name)`` to a digit's position, with
    ``args`` a tuple of element indices; a digit's value is an element
    index, or 0/1 for a bit.
    """

    def __init__(self, domain, digits):
        self.domain = domain            # element names, or None for valuations
        self.digits = tuple(digits)     # (key, radix), most significant first
        self.digit = {key: k for k, (key, _) in enumerate(self.digits)}
        self.strides = []
        stride = 1
        for _, radix in reversed(self.digits):
            self.strides.append(stride)
            stride *= radix
        self.strides.reverse()
        self.count = stride

    @classmethod
    def of_valuations(cls, atoms):
        return cls(None, ((("a", name), 2) for name in sorted(atoms)))

    @classmethod
    def of_structures(cls, syms, domain):
        """The structures over ``domain`` that interpret the symbols, their
        digits in sorted symbol order; parameters have none."""
        if syms.prop_atoms:
            raise EvalError("structures cannot interpret propositional atoms")
        n = len(domain)
        digits = [(("c", name), n) for name in sorted(syms.constants)]
        for kind, symbols, radix in (("f", syms.functions, n), ("p", syms.predicates, 2)):
            for name, arity in sorted(symbols):
                digits += [((kind, name, args), radix)
                           for args in itertools.product(range(n), repeat=arity)]
        return cls(tuple(domain), digits)

    @classmethod
    def of_model(cls, model, syms=NO_SYMBOLS):
        """The models over one model's domain and interpreted symbols: a
        valuation's atoms, or a structure's constants, function-table
        entries and predicates, and the predicates of ``syms``.  A symbol of
        ``syms`` that the structure leaves uninterpreted, or interprets with
        another arity, raises EvalError."""
        if isinstance(model, Valuation):
            return cls.of_valuations(model.assignment)
        if syms.prop_atoms:
            raise EvalError("propositional atom requires a valuation")
        for kind, names, interpreted in (
                ("constant", syms.constants, model.constants),
                ("function", {name for name, _ in syms.functions}, model.functions)):
            missing = sorted(names - interpreted.keys())
            if missing:
                raise EvalError(f"structure does not interpret {kind} {missing[0]!r}")
        for kind, declared, interpreted in (("function", syms.functions, model.functions),
                                            ("predicate", syms.predicates, model.predicates)):
            for name, arity in sorted(declared):
                other = {len(args) for args in interpreted.get(name, ())} - {arity}
                if other:
                    raise EvalError(f"{kind} {name!r} has arity {arity} in the formula "
                                    f"and {min(other)} in the structure")
        n = len(model.domain)
        index = {element: i for i, element in enumerate(model.domain)}
        digits = [(("c", name), n) for name in sorted(model.constants)]
        digits += [(("f", name, args), n) for name, table in sorted(model.functions.items())
                   for args in sorted(tuple(map(index.get, key)) for key in table)]
        arities = set(syms.predicates).union(
            *({(name, len(t)) for t in tuples} for name, tuples in model.predicates.items()))
        digits += [(("p", name, args), 2) for name, arity in sorted(arities)
                   for args in itertools.product(range(n), repeat=arity)]
        return cls(tuple(model.domain), digits)

    def number_of(self, model):
        """The model's number: the inverse of ``model_at``."""
        index = {element: i for i, element in enumerate(self.domain or ())}
        number = 0
        for (kind, name, *args), radix in self.digits:
            if kind == "a":
                value = bool(model.assignment[name])
            elif kind == "c":
                value = index[model.constants[name]]
            else:
                names = tuple(self.domain[i] for i in args[0])
                value = index[model.functions[name][names]] if kind == "f" \
                    else names in model.predicates.get(name, ())
            number = number * radix + value
        return number

    def model_at(self, number):
        """The model with this number."""
        values = [0] * len(self.digits)
        for k in range(len(values) - 1, -1, -1):
            number, values[k] = divmod(number, self.digits[k][1])
        return self._model(values)

    def models(self):
        """Every model, in number order."""
        return map(self._model, itertools.product(*(range(r) for _, r in self.digits)))

    def _model(self, values):
        if self.domain is None:
            return Valuation({name: bool(values[k]) for name, k in self._plan})
        elems = self.domain
        consts, funcs, preds = self._plan
        return Structure(
            elems,
            {name: elems[values[k]] for name, k in consts},
            {name: {args: elems[values[k]] for args, k in entries}
             for name, entries in funcs},
            {name: frozenset([args for args, k in entries if values[k]])
             for name, entries in preds})

    @functools.cached_property
    def _plan(self):
        """Where each interpretation's digit sits, grouped by symbol."""
        if self.domain is None:
            return [(key[1], k) for k, (key, _) in enumerate(self.digits)]
        groups = {"c": [], "f": {}, "p": {}}
        for k, (key, _) in enumerate(self.digits):
            if key[0] == "c":
                groups["c"].append((key[1], k))
            else:
                args = tuple(self.domain[i] for i in key[2])
                groups[key[0]].setdefault(key[1], []).append((args, k))
        return groups["c"], list(groups["f"].items()), list(groups["p"].items())


class Block:
    """Truth over a run of consecutively numbered models of one ``Layout``,
    as one integer mask: bit ``i`` stands for model ``start + i``.

    An atom's mask is built from digit masks: the models in which digit
    ``k`` of the number has value ``v`` form a periodic bit pattern, runs of
    ``stride`` ones every ``stride * radix`` bits.  Connectives are bit
    operations, and a quantifier is the AND/OR of its instances' masks: its
    body with the variable replaced by the parameter of each element in turn
    (``syntax.instantiate``), which denotes that element.

    ``truth`` is the only code that walks a formula for truth: the search
    takes masks over blocks of up to ``semantics.BLOCK_WIDTH`` models, and
    one given model is a block of width 1 (``of_model``).
    """

    _BINARY = (And, Or, Implies, Iff)   # the connectives but sup, as ``truth`` reads them

    def __init__(self, layout, start, width):
        self.layout = layout
        self.start = start
        self.width = width
        self.full = (1 << width) - 1
        self.domain = layout.domain
        if layout.domain is not None:
            self._elements = {name: i for i, name in enumerate(layout.domain)}
        self._masks = {}   # an atom's or a classical sentence's mask, by its text

    @classmethod
    def of_model(cls, model, syms=NO_SYMBOLS):
        """The block of one model, over ``Layout.of_model(model, syms)``."""
        layout = Layout.of_model(model, syms)
        return cls(layout, layout.number_of(model), 1)

    def covered(self):
        """The models in which some constant denotes each element."""
        names = [k for k, (key, _) in enumerate(self.layout.digits) if key[0] == "c"]
        mask = self.full
        for v in range(len(self.domain)):
            mask &= functools.reduce(int.__or__, (self.digit_mask(k, v) for k in names), 0)
        return mask

    def digit_mask(self, k, v):
        """The models whose digit ``k`` has value ``v``."""
        stride = self.layout.strides[k]
        return _periodic(self.start, self.width, stride * self.layout.digits[k][1],
                         v * stride, stride)

    def classical(self, phi):
        """A classical sentence's mask, kept for the block's life."""
        key = canonical_key(phi)
        mask = self._masks.get(key)
        if mask is None:
            mask = self._masks[key] = self.truth(phi)
        return mask

    def truth(self, phi, table=None, care=None):
        """``phi``'s mask: the classical truth of a sentence, or with a
        table (a ``choice.ChoiceTable`` or a search trie's
        ``choice.TableNode``) the sentence-choice truth of a restricted
        sentence under it, which is read only at ``sup`` nodes, through the
        table's ``pick``, and a classical subformula's mask is
        ``classical``'s.  Bits outside ``care`` (all by default) may be
        wrong: their models' truth here no longer matters to the caller.

        A subformula is evaluated when, and only when, some model of its
        care mask would evaluate it on its own.  So a block reaches the
        pairs that its models, one at a time, would reach, and a one-model
        block reads what short-circuit evaluation reads, and raises where
        it would."""
        if table is not None and is_classical(phi):
            return self.classical(phi)
        full = self.full
        if care is None:
            care = full
        kind = type(phi)
        if kind is PredAtom and self.domain is not None or kind is PropAtom:
            key = canonical_key(phi)
            mask = self._masks.get(key)
            if mask is None:   # kept once built, so an atom that raises raises again
                if kind is PropAtom:
                    k = self.layout.digit.get(("a", phi.name))
                    if k is None:
                        raise EvalError(f"valuation does not cover atom {phi.name!r}")
                    mask = self.digit_mask(k, 1)
                else:
                    mask = 0
                    for args, within in self._combinations(phi.args):
                        mask |= within & self.digit_mask(
                            self.layout.digit[("p", phi.name, args)], 1)
                self._masks[key] = mask
            return mask
        if kind is Not:
            return full ^ self.truth(phi.body, table, care)
        if kind in self._BINARY:
            left = self.truth(phi.left, table, care)
            if kind is Iff:
                return full ^ left ^ self.truth(phi.right, table, care)
            if kind is Or:
                rest = care & ~left
                return left | self.truth(phi.right, table, rest) if rest else left
            rest = care & left
            if kind is And:
                return left & self.truth(phi.right, table, rest) if rest else left
            return (full ^ left) | (self.truth(phi.right, table, rest) if rest else 0)   # ->
        if kind is Sup:
            return self.classical(table.pick(phi))
        if self.domain is None and kind is not PropAtom:
            raise EvalError(f"valuations cannot evaluate {kind.__name__} nodes")
        if kind is Forall or kind is Exists:
            universal = kind is Forall
            acc = full if universal else 0
            for x in self.domain:
                rest = care & (acc if universal else ~acc)
                if not rest:
                    break
                truth = self.truth(instantiate(phi, x), table, rest)
                acc = acc & truth if universal else acc | truth
            return acc
        if kind is Equality:
            lhs, rhs = self._term(phi.lhs), self._term(phi.rhs)
            mask = 0
            for v, within in lhs.items():
                mask |= within & rhs.get(v, 0)
            return mask
        raise EvalError(f"not a formula: {phi!r}")

    def _combinations(self, terms):
        """(argument element indices, the models where the terms take them)
        for every combination the terms take somewhere in the block."""
        combos = [((), self.full)]
        for term in terms:
            values = self._term(term)
            combos = [(args + (v,), within & m) for args, within in combos
                      for v, m in values.items() if within & m]
        return combos

    def _term(self, term):
        """Element index -> the models where the term denotes it."""
        if isinstance(term, Parameter):
            v = self._elements.get(term.element)
            if v is None:
                raise EvalError(f"parameter {to_text_term(term)} not in domain")
            return {v: self.full}
        if isinstance(term, FuncApp):
            out = {}
            n = len(self.domain)
            for args, within in self._combinations(term.args):
                k = self.layout.digit.get(("f", term.name, args))
                if k is None:   # a partial table of ``Layout.of_model``
                    names = tuple(self.domain[i] for i in args)
                    raise EvalError(f"function {term.name!r} undefined on {names}")
                for v in range(n):
                    m = within & self.digit_mask(k, v)
                    if m:
                        out[v] = out.get(v, 0) | m
            return out
        if isinstance(term, Constant):
            k = self.layout.digit[("c", term.name)]
            masks = {v: self.digit_mask(k, v) for v in range(len(self.domain))}
            return {v: m for v, m in masks.items() if m}
        if isinstance(term, Variable):
            raise EvalError(f"unbound variable {term.name!r}")
        raise EvalError(f"not a term: {term!r}")


def _periodic(start, width, period, offset, run):
    """Bits ``i < width`` such that ``(start + i) % period`` lies in
    ``[offset, offset + run)``."""
    first = start - start % period
    if period > width:   # the block meets at most two periods
        mask = 0
        for base in (first + offset, first + period + offset):
            lo, hi = max(base, start), min(base + run, start + width)
            if lo < hi:
                mask |= ((1 << (hi - lo)) - 1) << (lo - start)
        return mask
    tiled, size = ((1 << run) - 1) << offset, period
    while size < start - first + width:
        tiled |= tiled << size
        size *= 2
    return (tiled >> (start - first)) & ((1 << width) - 1)


def eval_classical(model, phi, env=None):
    """Standard Tarskian truth of a classical formula: its mask over the
    block of the one model (see ``Block.of_model``).

    ``model`` is a Structure (first-order formulas) or a Valuation
    (propositional formulas); ``env`` maps free variables to elements, each
    bound by putting the element's parameter in the variable's place.
    """
    if not is_classical(phi):
        raise EvalError("eval_classical requires a sup-free formula")
    if env:
        phi = substitute_map(phi, {var: Parameter(x) for var, x in env.items()})
    return bool(Block.of_model(model, symbols(phi)).truth(phi))


def element_names(n):
    return tuple(f"e{i}" for i in range(n))


def structures_over(vocab, max_domain=3):
    """All models of the vocabulary (see ``layouts``), in search order."""
    for layout in layouts(vocab, max_domain):
        yield from layout.models()
