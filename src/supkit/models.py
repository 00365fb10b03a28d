"""Finite structures and propositional valuations, the numbered models of
one domain size (``Layout``), and classical truth over a run of them as one
bit mask (``Block``).  ``Block`` is the one classical evaluator:
``eval_classical`` reads a model's truth off the block of that model alone.

A vocabulary is a ``syntax.Symbols``, and ``layouts`` is the one
enumeration of its models: the valuations of its atoms, or its structures
of sizes 1 to a bound.  The search (``semantics.SearchSpace``) and the
equivalence oracle (``choice.BoundedModelOracle``) both draw from it.

Structures have named domain elements; equality is always identity.  A
parameter term ``@x`` denotes the element ``x``, unless the structure
interprets a constant under the parameter's printed name, as the models of
a task that mentions the parameter do (and those inside the bounded
equivalence oracle); that constant then decides.
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
    PARAM_PREFIX,
    Parameter,
    PredAtom,
    PropAtom,
    Record,
    SupkitError,
    Symbols,
    Variable,
    canonical_key,
    is_classical,
    json_field,
    json_names,
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
        """The structure in the JSON form of ``to_json``; malformed input, or
        an interpretation naming an element outside the domain, raises
        SupkitError."""
        source = "model JSON"
        domain = tuple(json_names(data, "domain", source))

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
        functions = json_field(data, "functions", dict, source, {})
        predicates = json_field(data, "predicates", dict, source, {})
        return cls(
            domain=domain,
            constants={name: element(value, f"constant {name!r}")
                       for name, value in constants.items()},
            functions={
                name: {elements(k.split(","), f"function {name!r}"):
                       element(v, f"function {name!r}")
                       for k, v in json_field(functions, name, dict, source).items()}
                for name in functions
            },
            predicates={
                name: frozenset(elements(t, f"predicate {name!r}")
                                for t in json_field(predicates, name, list, source))
                for name in predicates
            },
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


def layouts(syms, max_domain):
    """The models of a vocabulary, one ``Layout`` per domain size in search
    order: the valuations of its atoms, or its structures of each size 1 to
    ``max_domain``.  Each layout is built as it is drawn."""
    if not _one_kind(syms).first_order:
        yield Layout.of_valuations(syms.prop_atoms)
        return
    for n in range(1, max_domain + 1):
        yield Layout.of_structures(syms, element_names(n))


class Layout:
    """The models of one domain size, numbered in the order the search visits
    them: the valuations of some atoms, or the structures over one domain.

    A model's number is a mixed-radix integer with one digit per
    interpretation: each constant (parameters after them, under their ``@``
    name), then each function-table entry, then each predicate bit, in
    sorted symbol order and argument-tuple order, the last digit fastest.  A
    valuation has one binary digit per atom, in sorted order.  ``digit``
    maps ``("c", name)``, ``("f", name, args)``, ``("p", name, args)`` and
    ``("a", name)`` to a digit's position, with ``args`` a tuple of element
    indices; a digit's value is an element index, or 0/1 for a bit.
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
        digits in sorted symbol order."""
        if syms.prop_atoms:
            raise EvalError("structures cannot interpret propositional atoms")
        n = len(domain)
        consts = sorted(syms.constants) + [PARAM_PREFIX + p for p in sorted(syms.parameters)]
        digits = [(("c", name), n) for name in consts]
        for kind, symbols, radix in (("f", syms.functions, n), ("p", syms.predicates, 2)):
            for name, arity in sorted(symbols):
                digits += [((kind, name, args), radix)
                           for args in itertools.product(range(n), repeat=arity)]
        return cls(tuple(domain), digits)

    @classmethod
    def of_model(cls, model, syms=NO_SYMBOLS):
        """The models over one model's domain and interpreted symbols: a
        valuation's atoms, or a structure's constants (``@`` names
        included), function-table entries and predicates, and the
        predicates of ``syms``.  A symbol of ``syms`` that the structure
        leaves uninterpreted raises EvalError."""
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
    """The truth of classical sentences over a run of consecutively numbered
    models of one ``Layout``, as one integer mask: bit ``i`` stands for
    model ``start + i``.

    An atom's mask is built from digit masks: the models in which digit
    ``k`` of the number has value ``v`` form a periodic bit pattern, runs of
    ``stride`` ones every ``stride * radix`` bits.  Connectives are bit
    operations, and a quantifier is the AND/OR of its body's masks with the
    variable bound to each element in turn.

    It is the only code that computes classical truth: the search takes
    masks over blocks of up to ``semantics.BLOCK_WIDTH`` models, and one
    given model is a block of width 1 (``of_model``).  A connective reads
    its right operand only when its left one leaves some model's truth
    open, so a block of one model reads the subformulas that short-circuit
    evaluation reads, and raises where it would.
    """

    def __init__(self, layout, start, width):
        self.layout = layout
        self.start = start
        self.width = width
        self.full = (1 << width) - 1
        self.domain = layout.domain
        if layout.domain is not None:
            self._elements = {name: i for i, name in enumerate(layout.domain)}
        self._digits = {}
        self._masks = {}

    @classmethod
    def of_model(cls, model, syms=NO_SYMBOLS):
        """The block of one model, over ``Layout.of_model(model, syms)``."""
        layout = Layout.of_model(model, syms)
        return cls(layout, layout.number_of(model), 1)

    def covered(self):
        """The models in which some constant or parameter denotes each
        element."""
        names = [k for k, (key, _) in enumerate(self.layout.digits) if key[0] == "c"]
        mask = self.full
        for v in range(len(self.domain)):
            mask &= functools.reduce(int.__or__, (self.digit_mask(k, v) for k in names), 0)
        return mask

    def digit_mask(self, k, v):
        """The models whose digit ``k`` has value ``v``."""
        key = (k, v)
        mask = self._digits.get(key)
        if mask is None:
            layout = self.layout
            stride = layout.strides[k]
            mask = self._digits[key] = _periodic(
                self.start, self.width, stride * layout.digits[k][1], v * stride, stride)
        return mask

    def classical(self, phi):
        """``phi``'s mask, kept for the block's life."""
        key = canonical_key(phi)
        mask = self._masks.get(key)
        if mask is None:
            mask = self._masks[key] = self.mask(phi)
        return mask

    def mask(self, phi, env=None):
        """``phi``'s mask, not kept, with its free variables bound by
        ``env`` to elements."""
        if env and self.domain is not None:
            env = {var: self._elements[x] for var, x in env.items()}
        return self._eval(phi, env or {})

    def _eval(self, phi, env):
        """``phi``'s mask with its free variables bound by ``env`` to
        element indices."""
        if self.domain is None and not isinstance(phi, (PropAtom, Not, And, Or, Implies, Iff)):
            raise EvalError(f"valuations cannot evaluate {type(phi).__name__} nodes")
        if isinstance(phi, PredAtom):
            mask = 0
            for args, within in self._combinations(phi.args, env):
                mask |= within & self.digit_mask(
                    self.layout.digit[("p", phi.name, args)], 1)
            return mask
        if isinstance(phi, Equality):
            lhs, rhs = self._term(phi.lhs, env), self._term(phi.rhs, env)
            mask = 0
            for v, within in lhs.items():
                mask |= within & rhs.get(v, 0)
            return mask
        if isinstance(phi, PropAtom):
            k = self.layout.digit.get(("a", phi.name))
            if k is None:
                raise EvalError(f"valuation does not cover atom {phi.name!r}")
            return self.digit_mask(k, 1)
        full = self.full
        if isinstance(phi, Not):
            return full ^ self._eval(phi.body, env)
        if isinstance(phi, Forall):
            mask = full
            for v in range(len(self.domain)):
                mask &= self._eval(phi.body, {**env, phi.var: v})
                if not mask:
                    break
            return mask
        if isinstance(phi, Exists):
            mask = 0
            for v in range(len(self.domain)):
                mask |= self._eval(phi.body, {**env, phi.var: v})
                if mask == full:
                    break
            return mask
        left = self._eval(phi.left, env)
        if isinstance(phi, And):
            return left & self._eval(phi.right, env) if left else 0
        if isinstance(phi, Or):
            return left | self._eval(phi.right, env) if left != full else full
        if isinstance(phi, Implies):
            return (full ^ left) | self._eval(phi.right, env) if left else full
        if isinstance(phi, Iff):
            return full ^ left ^ self._eval(phi.right, env)
        raise EvalError(f"not a formula: {phi!r}")

    def _combinations(self, terms, env):
        """(argument element indices, the models where the terms take them)
        for every combination the terms take somewhere in the block."""
        combos = [((), self.full)]
        for term in terms:
            values = self._term(term, env)
            combos = [(args + (v,), within & m) for args, within in combos
                      for v, m in values.items() if within & m]
        return combos

    def _term(self, term, env):
        """Element index -> the models where the term denotes it."""
        if isinstance(term, Variable):
            if term.name in env:
                return {env[term.name]: self.full}
            raise EvalError(f"unbound variable {term.name!r}")
        if isinstance(term, FuncApp):
            out = {}
            n = len(self.domain)
            for args, within in self._combinations(term.args, env):
                k = self.layout.digit.get(("f", term.name, args))
                if k is None:   # a partial table of ``Layout.of_model``
                    names = tuple(self.domain[i] for i in args)
                    raise EvalError(f"function {term.name!r} undefined on {names}")
                for v in range(n):
                    m = within & self.digit_mask(k, v)
                    if m:
                        out[v] = out.get(v, 0) | m
            return out
        elif isinstance(term, Constant):
            k = self.layout.digit[("c", term.name)]
        elif isinstance(term, Parameter):
            k = self.layout.digit.get(("c", PARAM_PREFIX + term.element))
            if k is None:
                if term.element not in self._elements:
                    raise EvalError(f"parameter {to_text_term(term)} not in domain")
                return {self._elements[term.element]: self.full}
        else:
            raise EvalError(f"not a term: {term!r}")
        masks = {v: self.digit_mask(k, v) for v in range(len(self.domain))}
        return {v: m for v, m in masks.items() if m}


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
    (propositional formulas); ``env`` maps free variables to elements.
    """
    if not is_classical(phi):
        raise EvalError("eval_classical requires a sup-free formula")
    return bool(Block.of_model(model, symbols(phi)).mask(phi, env))


def valuations_over(atoms):
    """All truth assignments of the given atoms, in lexicographic order."""
    return Layout.of_valuations(atoms).models()


def element_names(n):
    return tuple(f"e{i}" for i in range(n))


def structures_over(vocab, max_domain=3):
    """All models of the vocabulary (see ``layouts``), in search order.

    Parameters are interpreted like constants under their printed ``@`` name.
    """
    for layout in layouts(vocab, max_domain):
        yield from layout.models()
