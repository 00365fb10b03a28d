"""AST, parser, printer and well-formedness classes for superposition logic.

Terms and formulas are slotted classes that are never changed once built,
and they are compared structurally (no alpha-equivalence, no
normalization).  Each formula node also carries its own facts: free
variables, syntax class, canonical text, primitive form, symbols and, on a
quantifier, its instances by domain element.  Each fact is computed the
first time it is asked for, from the children's facts, and read afterwards.
Equality, hashing and pickling look at the fields only; the package's other
immutable values, from signatures to proofs, are records (``Record``) on
the same base.  The superposition connective is written ``sup`` infix in
text form; ``|`` is accepted as an input alias.  One table of binding
levels (``_LEVELS`` and ``_INFIX``) decides where the printer puts
parentheses and how the parser groups connectives.

Formulas fall into four nested well-formedness classes:

* CLASSICAL    -- no ``sup`` node anywhere
* BASIC        -- built from classical formulas by connectives (incl. sup)
                  but no new quantifiers
* RESTRICTED   -- built from basic formulas by connectives and quantifiers
                  but no new sup
* UNRESTRICTED -- everything else
"""

import re
import sys
from collections import namedtuple
from enum import IntEnum


class SupkitError(Exception):
    """Base class for all errors raised by this package."""


_JSON_KINDS = {str: "a string", int: "an integer", bool: "a boolean", list: "a list",
               dict: "an object"}
_REQUIRED = object()


def json_field(data, key, kind, source, default=_REQUIRED):
    """``data[key]`` of a JSON object, which must have type ``kind``; a
    missing key gives ``default`` when one is given.  Malformed input raises
    SupkitError naming the ``source`` ("proof JSON", "model JSON", ...)."""
    if not isinstance(data, dict):
        raise SupkitError(f"malformed {source}: expected an object")
    if key not in data and default is not _REQUIRED:
        return default
    value = data.get(key)
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise SupkitError(f"malformed {source}: {key!r} must be {_JSON_KINDS[kind]}")
    return value


def json_names(data, key, source, default=_REQUIRED):
    """``data[key]`` of a JSON object, which must be a list of strings."""
    names = json_field(data, key, list, source, default)
    if not all(isinstance(name, str) for name in names):
        raise SupkitError(f"malformed {source}: {key!r} must be a list of strings")
    return names


class ParseError(SupkitError):
    """Malformed formula text; ``pos`` is the offset in the text, and
    ``where`` names the text among several, such as ``line 3`` of a proof."""

    def __init__(self, message, pos=None, where=None):
        self.detail, self.pos, self.where = message, pos, where
        if pos is not None:
            message = f"{message} (at position {pos})"
        if where is not None:
            message = f"{where}: {message}"
        super().__init__(message)

    def within(self, where):
        """The same error, located in ``where`` and then in its own place."""
        inner = where if self.where is None else f"{where}, {self.where}"
        return type(self)(self.detail, self.pos, inner)


# The error for input nested deeper than the parser's bound, MAX_NESTING
# calls of its recursive descent (a parse _DEEP calls deep raises the
# recursion limit by as much until it ends, so the caller's stack does not
# decide), or than a later recursive walk can follow (the CLI reports it).
NESTED_TOO_DEEPLY = "input nested too deeply"
MAX_NESTING, _DEEP = 1000, 100


class UnknownSymbolError(ParseError):
    pass


class ArityError(ParseError):
    pass


class CaptureError(SupkitError):
    """A substituted term's variable would be captured by a binder."""


# ---------------------------------------------------------------------------
# Nodes


class Node:
    """Shared behaviour of terms, formulas and records (see ``Record``).

    ``__match_args__`` names a node's fields.  Equality compares the class
    and the fields, the hash is the hash of the field tuple, the repr
    prints the fields, and a pickle rebuilds the node from its fields, so
    no cached fact travels with it.
    """

    __slots__ = ()
    __match_args__ = ()

    def _astuple(self):
        return ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__match_args__, self._astuple()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._astuple()


# A record's ``__init__`` sets each field through this, past
# ``Record.__setattr__``.
set_field = object.__setattr__


class Record(Node):
    """Shared behaviour of the package's immutable values other than terms
    and formulas: signatures, structures, tables, verdicts, proofs and the
    like.

    Each record class names its fields in ``__slots__ = __match_args__``
    and sets them in its own ``__init__`` with ``_init`` (or ``set_field``
    where a record is built often enough to count the call); equality,
    hashing, the repr and pickling are a node's.  Assigning or deleting an
    attribute raises AttributeError, and ``replace`` gives a copy with some
    fields changed.
    """

    __slots__ = ()

    def _astuple(self):
        return tuple([getattr(self, name) for name in self.__match_args__])

    def _init(self, *values):
        """Set the first fields, in order, to the values."""
        for name, value in zip(self.__match_args__, values):
            set_field(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A copy of this record with the named fields changed; an unknown
        name raises TypeError."""
        return type(self)(**dict(zip(self.__match_args__, self._astuple()), **changes))


# ---------------------------------------------------------------------------
# Terms

PARAM_PREFIX = "@"


class Term(Node):
    __slots__ = ()


class Variable(Term):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name):
        self.name = name

    def _astuple(self):
        return (self.name,)


class Constant(Term):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name):
        self.name = name

    def _astuple(self):
        return (self.name,)


class FuncApp(Term):
    __slots__ = __match_args__ = ("name", "args")

    def __init__(self, name, args):
        self.name = name
        self.args = args

    def _astuple(self):
        return (self.name, self.args)


class Parameter(Term):
    """A domain element used as a name of itself, printed with an ``@``.

    Parameters keep formulas over an extended language separate from the
    base language: no declared symbol may start with ``@``.
    """

    __slots__ = __match_args__ = ("element",)

    def __init__(self, element):
        self.element = element

    def _astuple(self):
        return (self.element,)


# ---------------------------------------------------------------------------
# Formulas
#
# Besides its fields, every formula node has five fact slots, and a
# quantifier node a sixth: free variables, syntax class, canonical text,
# primitive form, symbols and instances by domain element.  Each starts as
# None and is filled by its accessor below (free_vars, classify, to_text,
# primitive_form, symbols, instantiate) the first time it is asked for.  A
# node is never changed after it is built, so a fact once computed stays
# true.


class Formula(Node):
    __slots__ = ("_free", "_class", "_text", "_prim", "_syms")


class PropAtom(Formula):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name):
        self.name = name
        self._free = self._class = self._text = self._prim = self._syms = None

    def _astuple(self):
        return (self.name,)


class PredAtom(Formula):
    __slots__ = __match_args__ = ("name", "args")

    def __init__(self, name, args):
        self.name = name
        self.args = args
        self._free = self._class = self._text = self._prim = self._syms = None

    def _astuple(self):
        return (self.name, self.args)


class Equality(Formula):
    __slots__ = __match_args__ = ("lhs", "rhs")

    def __init__(self, lhs, rhs):
        self.lhs = lhs
        self.rhs = rhs
        self._free = self._class = self._text = self._prim = self._syms = None

    def _astuple(self):
        return (self.lhs, self.rhs)


class Not(Formula):
    __slots__ = __match_args__ = ("body",)

    def __init__(self, body):
        self.body = body
        self._free = self._class = self._text = self._prim = self._syms = None

    def _astuple(self):
        return (self.body,)


class BinaryFormula(Formula):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self._free = self._class = self._text = self._prim = self._syms = None

    def _astuple(self):
        return (self.left, self.right)


class And(BinaryFormula):
    __slots__ = ()


class Or(BinaryFormula):
    __slots__ = ()


class Implies(BinaryFormula):
    __slots__ = ()


class Iff(BinaryFormula):
    __slots__ = ()


class Sup(BinaryFormula):
    """The superposition connective.  Commutativity is a property of choice
    tables, never applied to the AST itself."""

    __slots__ = ()


class QuantifiedFormula(Formula):
    __slots__ = ("var", "body", "_inst")
    __match_args__ = ("var", "body")

    def __init__(self, var, body):
        self.var = var
        self.body = body
        self._free = self._class = self._text = self._prim = self._syms = self._inst = None

    def _astuple(self):
        return (self.var, self.body)


class Forall(QuantifiedFormula):
    __slots__ = ()


class Exists(QuantifiedFormula):
    __slots__ = ()


ATOM_NODES = (PropAtom, PredAtom, Equality)


class SyntaxClass(IntEnum):
    CLASSICAL = 0
    BASIC = 1
    RESTRICTED = 2
    UNRESTRICTED = 3

    def __str__(self):
        return self.name.lower()


# ---------------------------------------------------------------------------
# Signature

_IMPLICIT_PROP_ATOM = re.compile(r"p[0-9]+\Z")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


class Signature(Record):
    """Declares the non-logical vocabulary used by the parser.

    Names of the form ``p<digits>`` are treated as propositional atoms even
    when not declared, unless claimed by another category.
    """

    __slots__ = __match_args__ = ("constants", "functions", "predicates", "prop_atoms")

    def __init__(self, constants=frozenset(), functions=None, predicates=None,
                 prop_atoms=frozenset()):
        self._init(frozenset(constants), dict(functions or {}), dict(predicates or {}),
                   frozenset(prop_atoms))
        names = [*self.constants, *self.functions, *self.predicates, *self.prop_atoms]
        # An ASCII identifier is exactly what _IDENT matches; these passes
        # run in C, and the walk below, only on failure, finds the offender.
        if not (all(map(str.isidentifier, names)) and "".join(names).isascii()) \
                or len(set(names)) < len(names):
            self._raise_for_names()
        arities = [*self.functions.values(), *self.predicates.values()]
        if arities and (set(map(type, arities)) != {int} or min(arities) < 1):
            for name, arity in [*self.functions.items(), *self.predicates.items()]:
                if type(arity) is not int or arity < 1:
                    raise SupkitError(f"arity of {name!r} must be a positive integer")

    def _raise_for_names(self):
        """Raise for the first illegal or twice-declared name."""
        seen = {}
        for kind, names in (("constant", self.constants), ("function", self.functions),
                            ("predicate", self.predicates), ("prop_atom", self.prop_atoms)):
            for name in names:
                if not _IDENT.match(name):
                    raise SupkitError(f"illegal {kind} name {name!r}")
                if name in seen:
                    raise SupkitError(f"name {name!r} declared both as {seen[name]} and {kind}")
                seen[name] = kind

    def is_prop_atom(self, name):
        if name in self.prop_atoms:
            return True
        return bool(_IMPLICIT_PROP_ATOM.match(name)) and name not in self.constants \
            and name not in self.functions and name not in self.predicates

    def to_json(self):
        return {
            "constants": sorted(self.constants),
            "functions": dict(sorted(self.functions.items())),
            "predicates": dict(sorted(self.predicates.items())),
            "prop_atoms": sorted(self.prop_atoms),
        }

    @classmethod
    def from_json(cls, data):
        source = "signature JSON"
        return cls(
            constants=json_names(data, "constants", source, ()),
            functions=json_field(data, "functions", dict, source, {}),
            predicates=json_field(data, "predicates", dict, source, {}),
            prop_atoms=json_names(data, "prop_atoms", source, ()),
        )


DEFAULT_SIGNATURE = Signature(
    constants=frozenset({"c1", "c2", "c3"}),
    functions={"g": 1},
    predicates={"P": 1, "Q": 1, "R": 2},
)


# ---------------------------------------------------------------------------
# Free variables and substitution

_NO_VARS = frozenset()


def _not_a_formula(phi):
    return SupkitError(f"not a formula: {phi!r}")


def term_vars(t):
    if isinstance(t, Variable):
        return frozenset((t.name,))
    if isinstance(t, FuncApp):
        out = frozenset()
        for a in t.args:
            out |= term_vars(a)
        return out
    return frozenset()


def free_vars(phi):
    """Free variable names of a formula; sentences are exactly the formulas
    with an empty result."""
    try:
        names = phi._free
    except AttributeError:
        raise _not_a_formula(phi) from None
    if names is None:
        names = phi._free = _free_vars_of(phi)
    return names


def _free_vars_of(phi):
    """A node's free variables, from its terms or its children's facts."""
    if isinstance(phi, PropAtom):
        return _NO_VARS
    if isinstance(phi, PredAtom):
        return _NO_VARS.union(*map(term_vars, phi.args))
    if isinstance(phi, Equality):
        return term_vars(phi.lhs) | term_vars(phi.rhs)
    if isinstance(phi, Not):
        return free_vars(phi.body)
    if isinstance(phi, BinaryFormula):
        left, right = free_vars(phi.left), free_vars(phi.right)
        # share an operand's set when it holds both, as most nodes allow
        if right <= left:
            return left
        return right if left <= right else left | right
    body = free_vars(phi.body)
    return body - {phi.var} if phi.var in body else body


def is_sentence(phi):
    return not free_vars(phi)


def substitute_term(t, mapping):
    if isinstance(t, Variable):
        return mapping.get(t.name, t)
    if isinstance(t, FuncApp):
        return FuncApp(t.name, tuple(substitute_term(a, mapping) for a in t.args))
    return t


def substitute_map(phi, mapping):
    """Simultaneously substitute terms for free variables, refusing capture."""
    mapping = {v: t for v, t in mapping.items() if t != Variable(v)}
    return _subst(phi, mapping)


def substitute(phi, var, term):
    """Replace every free occurrence of ``var`` in ``phi`` by ``term``."""
    return substitute_map(phi, {var: term})


def _subst(phi, mapping):
    # A subformula in which no mapped variable is free is shared, not copied.
    if mapping.keys().isdisjoint(free_vars(phi)):
        return phi
    if isinstance(phi, PredAtom):
        return PredAtom(phi.name, tuple(substitute_term(a, mapping) for a in phi.args))
    if isinstance(phi, Equality):
        return Equality(substitute_term(phi.lhs, mapping), substitute_term(phi.rhs, mapping))
    if isinstance(phi, Not):
        return Not(_subst(phi.body, mapping))
    if isinstance(phi, BinaryFormula):
        return type(phi)(_subst(phi.left, mapping), _subst(phi.right, mapping))
    inner = {v: t for v, t in mapping.items() if v != phi.var}
    body_free = free_vars(phi.body)
    for v, t in inner.items():
        if v in body_free and phi.var in term_vars(t):
            raise CaptureError(
                f"substituting {to_text_term(t)} for {v} would capture "
                f"{phi.var} in {to_text(phi)}"
            )
    return type(phi)(phi.var, _subst(phi.body, inner))


def instantiate(phi, element):
    """The instance ``body[var := @element]`` of a quantified formula, built
    once per node and element, so that its facts are computed once too."""
    instances = phi._inst
    if instances is None:
        instances = phi._inst = {}
    inst = instances.get(element)
    if inst is None:
        inst = instances[element] = substitute(phi.body, phi.var, Parameter(element))
    return inst


def rename_parameters(x, mapping, memo=None):
    """``x`` (a formula or a term) with each parameter ``@e`` whose element
    ``e`` is in ``mapping`` replaced by the closed term ``mapping[e]``; a
    walk over nodes and their fields, which shares each subformula that
    names none of them.  ``memo`` maps the text of each formula renamed
    before, by mappings that agree on its parameters, to its result, which
    is reused."""
    if isinstance(x, Parameter):
        return mapping.get(x.element, x)
    if isinstance(x, Formula):
        if mapping.keys().isdisjoint(symbols(x).parameters):
            return x
        if memo is not None:
            hit = memo.get(to_text(x))
            if hit is None:
                hit = memo[to_text(x)] = type(x)(*rename_parameters(x._astuple(), mapping, memo))
            return hit
    if isinstance(x, Node):
        return type(x)(*rename_parameters(x._astuple(), mapping, memo))
    return tuple(rename_parameters(y, mapping, memo) for y in x) if isinstance(x, tuple) else x


# ---------------------------------------------------------------------------
# Symbols


class Symbols(namedtuple("Symbols", ("prop_atoms", "constants", "functions", "predicates",
                                      "parameters", "first_order"))):
    """The non-logical symbols of a formula, each field a frozenset but the
    last.  It is also the one vocabulary type: ``models.vocabulary_of``
    unites a task's symbols, and ``models.layouts`` numbers the models that
    interpret them.  ``functions`` and ``predicates`` hold (name, arity)
    pairs, and ``first_order`` says whether a predicate, an equality or a
    quantifier occurs."""

    __slots__ = ()

    def describe(self):
        """Each field but the last as a sorted list, pairs as lists."""
        return {name: [list(s) if type(s) is tuple else s for s in sorted(names)]
                for name, names in zip(self._fields, self[:-1])}

    def union(self, other):
        """The symbols of both, ``self`` when it covers ``other``; a field
        that one of them covers is shared."""
        if other == self:   # the common case, as most operands share their symbols
            return self
        merged = Symbols(*[b if a <= b else a if b <= a else a | b for a, b in zip(self, other)])
        return self if merged == self else merged


NO_SYMBOLS = Symbols(_NO_VARS, _NO_VARS, _NO_VARS, _NO_VARS, _NO_VARS, False)


def symbols(phi):
    """The formula's symbols, from its terms or its children's symbols."""
    try:
        syms = phi._syms
    except AttributeError:
        raise _not_a_formula(phi) from None
    if syms is None:
        syms = phi._syms = _symbols_of(phi)
    return syms


def _symbols_of(phi):
    if isinstance(phi, PropAtom):
        return Symbols(frozenset((phi.name,)), _NO_VARS, _NO_VARS, _NO_VARS, _NO_VARS, False)
    if isinstance(phi, Not):
        return symbols(phi.body)
    if isinstance(phi, BinaryFormula):
        return symbols(phi.left).union(symbols(phi.right))
    if isinstance(phi, QuantifiedFormula):
        return symbols(phi.body)._replace(first_order=True)
    pred = isinstance(phi, PredAtom)
    terms = list(phi.args) if pred else [phi.lhs, phi.rhs]
    for t in terms:   # the loop reaches the arguments it appends too
        if type(t) is FuncApp:
            terms += t.args
    return Symbols(_NO_VARS, frozenset([t.name for t in terms if type(t) is Constant]),
                   frozenset([(t.name, len(t.args)) for t in terms if type(t) is FuncApp]),
                   frozenset([(phi.name, len(phi.args))] if pred else ()),
                   frozenset([t.element for t in terms if type(t) is Parameter]), True)


# ---------------------------------------------------------------------------
# Well-formedness classes (basic / restricted hierarchy)

_CLASSICAL = SyntaxClass.CLASSICAL


def classify(phi):
    """The tightest syntax class containing ``phi``."""
    try:
        cls = phi._class
    except AttributeError:
        raise _not_a_formula(phi) from None
    if cls is None:
        cls = phi._class = _class_of(phi)
    return cls


def _class_of(phi):
    """A node's class, from its children's: atoms are classical, ``~`` keeps
    its body's class and the other connectives take the larger class of
    their operands, except that ``sup`` is basic over operands that are at
    most basic and unrestricted otherwise.  A quantifier keeps a classical
    body classical and makes any other body at least restricted."""
    if isinstance(phi, ATOM_NODES):
        return _CLASSICAL
    if isinstance(phi, Not):
        return classify(phi.body)
    if isinstance(phi, BinaryFormula):
        cls = max(classify(phi.left), classify(phi.right))
        if not isinstance(phi, Sup):
            return cls
        return SyntaxClass.BASIC if cls <= SyntaxClass.BASIC else SyntaxClass.UNRESTRICTED
    cls = classify(phi.body)
    return cls if cls is _CLASSICAL else max(cls, SyntaxClass.RESTRICTED)


def is_classical(phi):
    """True when the formula contains no superposition node."""
    # reads the slot itself: this is the most frequent question of a search
    try:
        cls = phi._class
    except AttributeError:
        raise _not_a_formula(phi) from None
    return (cls if cls is not None else classify(phi)) is _CLASSICAL


def is_basic(phi):
    """Connective combinations of classical formulas; quantifiers only
    inside classical subformulas."""
    return classify(phi) <= SyntaxClass.BASIC


# ---------------------------------------------------------------------------
# Printer

_LEVEL_QUANT = 0
_LEVEL_IFF = 1
_LEVEL_IMPLIES = 2
_LEVEL_OR = 3
_LEVEL_AND = 4
_LEVEL_SUP = 5
_LEVEL_NOT = 6
_LEVEL_ATOM = 7

_LEVELS = {
    PropAtom: _LEVEL_ATOM, PredAtom: _LEVEL_ATOM, Equality: _LEVEL_ATOM,
    Not: _LEVEL_NOT, Sup: _LEVEL_SUP, And: _LEVEL_AND, Or: _LEVEL_OR,
    Implies: _LEVEL_IMPLIES, Iff: _LEVEL_IFF,
    Forall: _LEVEL_QUANT, Exists: _LEVEL_QUANT,
}

# infix text, least level of the left operand, least level of the right one;
# the parser reads each right operand at its least level
_INFIX = {
    Sup: (" sup ", _LEVEL_SUP, _LEVEL_SUP + 1),
    And: (" /\\ ", _LEVEL_AND, _LEVEL_AND + 1),
    Or: (" \\/ ", _LEVEL_OR, _LEVEL_OR + 1),
    Implies: (" -> ", _LEVEL_IMPLIES + 1, _LEVEL_IMPLIES),
    Iff: (" <-> ", _LEVEL_IFF + 1, _LEVEL_IFF),
}

_QUANTIFIER_WORDS = {Forall: "forall", Exists: "exists"}


def to_text_term(t):
    if isinstance(t, (Variable, Constant)):
        return t.name
    if isinstance(t, Parameter):
        return PARAM_PREFIX + t.element
    if isinstance(t, FuncApp):
        return f"{t.name}({','.join(to_text_term(a) for a in t.args)})"
    raise SupkitError(f"not a term: {t!r}")


def to_text(phi):
    """Canonical text form; ``parse(to_text(phi))`` returns ``phi``.

    A node's text is built from its terms or its children's text, with one
    call of this function per level of nesting; an operand is parenthesized
    when it binds looser than its position requires.
    """
    try:
        text = phi._text
    except AttributeError:
        raise _not_a_formula(phi) from None
    if text is not None:
        return text
    if isinstance(phi, PropAtom):
        text = phi.name
    elif isinstance(phi, PredAtom):
        text = f"{phi.name}({','.join(to_text_term(a) for a in phi.args)})"
    elif isinstance(phi, Equality):
        text = f"{to_text_term(phi.lhs)} = {to_text_term(phi.rhs)}"
    elif isinstance(phi, Not):
        body = to_text(phi.body)
        text = "~" + (f"({body})" if _LEVELS[type(phi.body)] < _LEVEL_NOT else body)
    elif isinstance(phi, BinaryFormula):
        infix, left_level, right_level = _INFIX[type(phi)]
        left, right = to_text(phi.left), to_text(phi.right)
        if _LEVELS[type(phi.left)] < left_level:
            left = f"({left})"
        if _LEVELS[type(phi.right)] < right_level:
            right = f"({right})"
        text = left + infix + right
    else:
        text = f"{_QUANTIFIER_WORDS[type(phi)]} {phi.var}. {to_text(phi.body)}"
    phi._text = text
    return text


# Injective string key for a formula, used to canonicalize pairs.
canonical_key = to_text


# ---------------------------------------------------------------------------
# Definitional expansion into the ~ / -> / forall / sup fragment
#
# Used by the proof systems, whose propositional axiom basis is complete
# only for that fragment: a /\ b := ~(a -> ~b), a \/ b := ~a -> b,
# a <-> b := (a -> b) /\ (b -> a), exists v := ~forall v~.

# Marks a node that is its own primitive form, so that the slot does not
# point back at the node itself.
_PRIMITIVE = object()


def primitive_form(phi):
    try:
        prim = phi._prim
    except AttributeError:
        raise _not_a_formula(phi) from None
    if prim is None:
        prim = _primitive_of(phi)
        phi._prim = _PRIMITIVE if prim is phi else prim
        return prim
    return phi if prim is _PRIMITIVE else prim


def _primitive_of(phi):
    """A node's primitive form, from its children's; a node that is
    primitive already is returned itself."""
    if isinstance(phi, ATOM_NODES):
        return phi
    if isinstance(phi, Not):
        body = primitive_form(phi.body)
        return phi if body is phi.body else Not(body)
    if isinstance(phi, QuantifiedFormula):
        body = primitive_form(phi.body)
        if isinstance(phi, Exists):
            return Not(Forall(phi.var, Not(body)))
        return phi if body is phi.body else Forall(phi.var, body)
    a, b = primitive_form(phi.left), primitive_form(phi.right)
    if isinstance(phi, And):
        return Not(Implies(a, Not(b)))
    if isinstance(phi, Or):
        return Implies(Not(a), b)
    if isinstance(phi, Iff):
        return Not(Implies(Implies(a, b), Not(Implies(b, a))))
    if a is phi.left and b is phi.right:
        return phi
    return type(phi)(a, b)


# ---------------------------------------------------------------------------
# Parser
#
# Tokens are read as the parser asks for them: one pattern finds a token's
# text and one table (``_KINDS``) its kind; any other text is a name.
#
# Every node is built through a table keyed by its class and its fields, a
# child formula by its ``id``, so equal subformulas are one node and each
# fact of a formula is computed once.  The ``id``s stay valid while the
# table, which holds every child, lives.  A caller that parses many
# formulas under one signature may pass a memo, a dict it keeps for one
# load, that serves as the table for every parse of the load.  The memo
# also maps each formula text parsed to its node: a whole text, the text
# between a ``(`` and its matching ``)``, and the rest of a text after a
# binary connective outside parentheses, from the rest's first token to the
# text's end.  It lists each such text of ``_HEAD`` or more characters
# under its first ``_HEAD`` (at the key ``_HEADS``).  A parsed text's
# parentheses balance, so a memo text that starts just after a ``(`` and is
# followed by ``)`` is the whole span of that ``(``, at any depth: the
# parser skips it, as its parse depends only on its text and the signature
# (binders bind by name).  A lookup checks each text under the span's head
# in turn, its closing ``)`` first, so it costs more the more texts share
# that head; a shorter span is read (a few tokens).  After a connective
# outside parentheses, the rest of the text is looked up whole, and its
# node is taken where the connective's right operand would be all of the
# rest: where the node binds at least as tightly as ``_INFIX`` asks of that
# operand (``p1 <-> p2`` is not the right operand in ``p0 -> p1 <-> p2``).
# So an MP line, the text after its implication line's ``->``, is found
# whole.  Only successful parses are stored, so an error is raised exactly
# as it is without a memo.

_TOKEN = r"<->|->|\\/|/\\|[~|(),.=]|@[A-Za-z_0-9]+|[A-Za-z_][A-Za-z_0-9]*"
# one token's text after any whitespace; the empty text at the end only
_TOKEN_RE = re.compile(rf"\s*({_TOKEN}|\Z)")
_KINDS = {"<->": "ARROW2", "->": "ARROW", "\\/": "OR", "/\\": "AND", "~": "NOT",
          "|": "SUP", "sup": "SUP", "(": "LPAR", ")": "RPAR", ",": "COMMA", ".": "DOT",
          "=": "EQ", "forall": "FORALL", "exists": "EXISTS", "": "EOF"}
# the binary connective each token writes, its level and its right operand's
_CONNECTIVES = {kind: (cls, _LEVELS[cls], _INFIX[cls][2]) for kind, cls in
                (("ARROW2", Iff), ("ARROW", Implies), ("OR", Or), ("AND", And), ("SUP", Sup))}
_NO_CONNECTIVE = (None, -1, None)
# the least level at which an operand's parse reads all of a text parsed
# whole as a node of this class: its own level for a binary connective (a
# text that is one span in parentheses would do at any level, but is not
# told apart), and any level for the others, which ``atom`` reads to the
# text's end; see _Parser._taken
_BINDS = {cls: level for cls, level, _ in _CONNECTIVES.values()}


# the memo's key for its long texts by their first _HEAD characters
_HEADS, _HEAD = object(), 24


def _remember(memo, text, phi):
    memo[text] = phi
    if len(text) >= _HEAD:
        memo.setdefault(_HEADS, {}).setdefault(text[:_HEAD], []).append(text)


# the longest prefix that splits into tokens
_READABLE_RE = re.compile(rf"(?:\s+|{_TOKEN})*")


def _unreadable(text):
    """The error for the first character of ``text`` that no token starts,
    or None when the whole text splits into tokens."""
    stop = _READABLE_RE.match(text).end()
    if stop < len(text):
        return ParseError(f"unexpected character {text[stop]!r}", stop)
    return None


class _Parser:
    def __init__(self, text, sig, memo):
        self.text = text
        self.sig = sig
        self.memo = memo
        self.nodes = {} if memo is None else memo   # see node
        self.heads = None if memo is None else memo.setdefault(_HEADS, {})
        self.end = 0            # where the next token is read from
        self.open = 0           # ``(`` read and not yet closed, in formula positions
        self.checked, self.limit = _DEEP, None   # see _deeper
        self.after = None       # the token after the current one, once looked at
        self.tok = self._lex()  # the current token: (kind, value, position)

    def _lex(self):
        m = _TOKEN_RE.match(self.text, self.end)
        if m is None:
            raise _unreadable(self.text)
        end = self.end = m.end()
        value = m[1]
        kind = _KINDS.get(value)
        if kind is None:
            kind = "PARAM" if value[0] == "@" else "IDENT"
        return (kind, value, end - len(value))

    def node(self, cls, *fields):
        """The node of class ``cls`` with these fields, built unless
        ``nodes`` (the memo, or one parse's own table) has it.  The key
        holds an atom's fields, and a child formula's ``id``."""
        if cls in ATOM_NODES:
            key = (cls, *fields)
        elif cls is Forall or cls is Exists:
            key = (cls, fields[0], id(fields[1]))
        else:
            key = (cls, id(fields[0]), id(fields[-1]))   # one field or two
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = cls(*fields)
        return node

    def ahead(self):
        if self.after is None:
            self.after = self._lex()
        return self.after

    def next(self):
        tok = self.tok
        if self.after is None:
            self.tok = self._lex()
        else:
            self.tok, self.after = self.after, None
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        return tok

    def _span(self, pos):
        """With a memo, the memo text that is the whole span of the ``(`` at
        ``pos``, or None; a text shorter than ``_HEAD`` is never found.  The
        texts that share the span's head are tried newest first, as a proof
        line mostly repeats the lines just before it."""
        start = pos + 1
        for span in reversed(self.heads.get(self.text[start:start + _HEAD], ())):
            if self.text.startswith(")", start + len(span)) and \
                    self.text.startswith(span, start):
                return span
        return None

    def _deeper(self, depth):
        """The parse is past ``self.checked`` calls deep: raise the recursion
        limit, the first time, or fail past the bound."""
        if depth > MAX_NESTING:
            raise ParseError(NESTED_TOO_DEEPLY)
        self.limit, self.checked = sys.getrecursionlimit(), MAX_NESTING
        sys.setrecursionlimit(self.limit + MAX_NESTING)

    def formula(self, least=_LEVEL_IFF, depth=1):
        """A formula whose connectives outside parentheses bind at least as
        tightly as level ``least``.  Each connective's right operand is read
        at the least level ``_INFIX`` gives it, so the printer's table
        decides binding strength and associativity for the parser too."""
        left = self.atom(depth + 1)
        cls, level, right = _CONNECTIVES.get(self.tok[0], _NO_CONNECTIVE)
        while level >= least:
            self.next()
            if self.open or self.memo is None:
                operand = self.formula(right, depth + 1)
            else:   # inline, so that a right-nested chain takes one frame per level
                rest = self.text[self.tok[2]:]
                operand = self._taken(rest, right, depth)
                if operand is None:
                    operand = self.formula(right, depth + 1)
                    if self.tok[0] == "EOF" and rest not in self.memo:
                        _remember(self.memo, rest, operand)
            left = self.node(cls, left, operand)
            cls, level, right = _CONNECTIVES.get(self.tok[0], _NO_CONNECTIVE)
        return left

    def _taken(self, rest, least, depth):
        """The memo's node for ``rest``, the text after a connective outside
        parentheses that a parse ``depth`` calls deep has just read, where
        the connective's right operand, read at level ``least``, would be
        all of it: the node binds at least as tightly as ``least``, and that
        parse cannot pass the bound (as for a span in ``atom``).  The parse
        then moves to the end of the text.  None otherwise: the caller reads
        the operand, and remembers it when it runs to the end."""
        phi = self.memo.get(rest)
        if phi is None or _BINDS.get(type(phi), _LEVEL_ATOM) < least \
                or depth + len(rest) + 4 > MAX_NESTING:
            return None
        self.end, self.after = len(self.text), None
        self.tok = self._lex()
        return phi

    def atom(self, depth):
        """An operand of the binary connectives: a negation, a formula in
        parentheses, a quantified formula or an atomic formula, ``depth``
        calls deep.  A memo text is skipped only where its parse, at most
        its length plus three calls deep, cannot pass the bound."""
        if depth > self.checked:
            self._deeper(depth)
        kind, value, pos = self.tok
        if kind == "NOT":
            self.next()
            return self.node(Not, self.atom(depth + 1))
        if kind == "LPAR":
            span = None if self.memo is None else self._span(pos)
            if span is not None and depth + len(span) + 4 <= MAX_NESTING:
                self.end, self.after = pos + len(span) + 2, None
                self.tok = self._lex()
                return self.memo[span]
            self.next()
            self.open += 1
            phi = self.formula(_LEVEL_IFF, depth + 1)
            self.open -= 1
            # a successful production reads balanced parentheses, so this
            # is the ``)`` that closes the span
            end = self.expect("RPAR")[2]
            if self.memo is not None and span is None:
                _remember(self.memo, self.text[pos + 1:end], phi)
            return phi
        if kind in ("FORALL", "EXISTS"):
            self.next()
            var_tok = self.expect("IDENT")
            var = var_tok[1]
            if not self._is_free_name(var):
                raise ParseError(f"cannot bind declared symbol {var!r}", var_tok[2])
            self.expect("DOT")
            body = self.formula(_LEVEL_IFF, depth + 1)
            return self.node(Forall if kind == "FORALL" else Exists, var, body)
        if kind == "IDENT":
            if value in self.sig.predicates and self.ahead()[0] == "LPAR":
                self.next()
                args = self.args(value, self.sig.predicates[value], pos, depth)
                return self.node(PredAtom, value, args)
            if self.sig.is_prop_atom(value) and self.ahead()[0] not in ("EQ", "LPAR"):
                self.next()
                return self.node(PropAtom, value)
        if kind in ("IDENT", "PARAM"):
            lhs = self.term(depth + 1)
            self.expect("EQ")
            return self.node(Equality, lhs, self.term(depth + 1))
        raise ParseError(f"expected a formula, found {value!r}", pos)

    def args(self, name, arity, pos, depth=0):
        self.expect("LPAR")
        out = [self.term(depth + 2)]
        while self.tok[0] == "COMMA":
            self.next()
            out.append(self.term(depth + 2))
        self.expect("RPAR")
        if len(out) != arity:
            raise ArityError(f"{name!r} expects {arity} argument(s), got {len(out)}", pos)
        return tuple(out)

    def term(self, depth=1):
        if depth > self.checked:
            self._deeper(depth)
        kind, value, pos = self.next()
        if kind == "PARAM":
            return Parameter(value[len(PARAM_PREFIX):])
        if kind != "IDENT":
            raise ParseError(f"expected a term, found {value!r}", pos)
        if value in self.sig.functions:
            args = self.args(value, self.sig.functions[value], pos, depth)
            return FuncApp(value, args)
        if value in self.sig.constants:
            return Constant(value)
        if self.tok[0] == "LPAR":
            raise UnknownSymbolError(f"unknown function or predicate {value!r}", pos)
        if value in self.sig.predicates or self.sig.is_prop_atom(value):
            raise ParseError(f"{value!r} cannot appear inside a term", pos)
        return Variable(value)

    def _is_free_name(self, name):
        return (
            name not in self.sig.constants
            and name not in self.sig.functions
            and name not in self.sig.predicates
            and not self.sig.is_prop_atom(name)
        )


def parse(text, sig=None, memo=None):
    """Parse the text grammar into a Formula; round-trips with to_text.

    ``memo`` is an optional dict that the caller keeps for one load under
    one signature: equal subformulas of the load come back as one node, and
    a text seen before, whole, in parentheses at any depth or after a
    connective outside parentheses, is not read again (texts of fewer than
    ``_HEAD`` characters in parentheses are).  A parenthesised span is
    found by its first ``_HEAD`` characters; when many memo texts share
    them, each is checked in turn.
    """
    phi = memo.get(text) if memo is not None else None
    if phi is None:
        phi = _parse_whole(text, sig, _Parser.formula, memo)
        if memo is not None:
            _remember(memo, text, phi)
    return phi


def parse_term(text, sig=None):
    return _parse_whole(text, sig, _Parser.term)


def _parse_whole(text, sig, start, memo=None):
    """Run one production over the whole text.  Input nested deeper than
    ``MAX_NESTING`` calls raises ParseError.

    A character that no token starts is reported before any other error,
    wherever it is in the text, as when the text was split into tokens
    before it was parsed; the check runs only once the parse has failed.
    """
    parser = None
    try:
        parser = _Parser(text, sig or DEFAULT_SIGNATURE, memo)
        result = start(parser)
        kind, value, pos = parser.tok
        if kind != "EOF":
            raise ParseError(f"trailing input {value!r}", pos)
        return result
    except RecursionError:
        raise _unreadable(text) or ParseError(NESTED_TOO_DEEPLY) from None
    except ParseError as exc:
        raise _unreadable(text) or exc from None
    finally:
        if parser is not None and parser.limit is not None:
            sys.setrecursionlimit(parser.limit)
