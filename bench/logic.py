"""The benchmark's own reading of supkit's text syntax, kept apart from the
program so that its verdicts can be checked without trusting its code.

Formulas are plain tuples:

    ("atom", name)                   propositional atom
    ("pred", name, (term, ...))      predicate atom
    ("eq", term, term)               equality
    ("not", a)
    ("and" | "or" | "imp" | "iff" | "sup", a, b)
    ("forall" | "exists", var, body)

and terms are ("const", name), ("var", name) or ("param", element).

The module gives a parser for the text the program reads and prints, a
sentence-choice evaluator written from the paper's definition, a matcher
for the superposition axiom schemes, and the closed-form number of
structures a bounded search has to visit.
"""

import math
import re

_TOKEN = re.compile(
    r"\s*(?:(<->)|(->)|(\\/)|(/\\)|(~)|(\|)|(\()|(\))|(,)|(\.)|(=)"
    r"|(@[A-Za-z_0-9]+)|([A-Za-z_][A-Za-z_0-9]*))"
)
_KINDS = ("IFF", "IMP", "OR", "AND", "NOT", "SUP", "(", ")", ",", ".", "=",
          "PARAM", "IDENT")
_BINARY = ("and", "or", "imp", "iff", "sup")


class LogicError(Exception):
    """Raised on text the parser cannot read or on a table that has no
    entry for a pair the evaluation reaches."""


def _tokens(text):
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise LogicError(f"cannot read {text[pos:]!r}")
        kind = _KINDS[m.lastindex - 1]
        value = m.group(m.lastindex)
        if kind == "IDENT" and value == "sup":
            kind = "SUP"
        elif kind == "IDENT" and value in ("forall", "exists"):
            kind = value.upper()
        out.append((kind, value))
        pos = m.end()
    out.append(("EOF", ""))
    return out


def parse(text, constants=()):
    """Parse supkit's text syntax.  Identifiers in term position are
    constants when listed in ``constants`` and variables otherwise."""
    toks = _tokens(text)
    constants = frozenset(constants)
    i = 0

    def peek(k=0):
        return toks[min(i + k, len(toks) - 1)][0]

    def take(kind=None):
        nonlocal i
        tok = toks[i]
        if kind is not None and tok[0] != kind:
            raise LogicError(f"expected {kind}, found {tok[1]!r} in {text!r}")
        i += 1
        return tok[1]

    def iff():
        left = imp()
        if peek() == "IFF":
            take()
            return ("iff", left, iff())
        return left

    def imp():
        left = disj()
        if peek() == "IMP":
            take()
            return ("imp", left, imp())
        return left

    def left_assoc(kind, tag, operand):
        def level():
            left = operand()
            while peek() == kind:
                take()
                left = (tag, left, operand())
            return left
        return level

    def neg():
        if peek() == "NOT":
            take()
            return ("not", neg())
        return atom()

    sup = left_assoc("SUP", "sup", neg)
    conj = left_assoc("AND", "and", sup)
    disj = left_assoc("OR", "or", conj)

    def term():
        kind = peek()
        value = take()
        if kind == "PARAM":
            return ("param", value[1:])
        if kind != "IDENT":
            raise LogicError(f"expected a term, found {value!r} in {text!r}")
        return ("const", value) if value in constants else ("var", value)

    def atom():
        kind = peek()
        if kind == "(":
            take()
            phi = iff()
            take(")")
            return phi
        if kind in ("FORALL", "EXISTS"):
            take()
            var = take("IDENT")
            take(".")
            return (kind.lower(), var, iff())
        if kind == "IDENT" and peek(1) == "(":
            name = take()
            take("(")
            args = [term()]
            while peek() == ",":
                take()
                args.append(term())
            take(")")
            return ("pred", name, tuple(args))
        if kind == "IDENT" and peek(1) != "=":
            return ("atom", take())
        lhs = term()
        take("=")
        return ("eq", lhs, term())

    phi = iff()
    if peek() != "EOF":
        raise LogicError(f"trailing input in {text!r}")
    return phi


def subst(phi, var, term):
    """Replace the free occurrences of variable ``var`` by ``term``."""
    tag = phi[0]
    if tag == "atom":
        return phi
    if tag == "pred":
        return ("pred", phi[1], tuple(term if t == ("var", var) else t for t in phi[2]))
    if tag == "eq":
        return ("eq",) + tuple(term if t == ("var", var) else t for t in phi[1:])
    if tag == "not":
        return ("not", subst(phi[1], var, term))
    if tag in _BINARY:
        return (tag, subst(phi[1], var, term), subst(phi[2], var, term))
    if phi[1] == var:
        return phi
    return (tag, phi[1], subst(phi[2], var, term))


def is_classical(phi):
    tag = phi[0]
    if tag == "sup":
        return False
    if tag == "not":
        return is_classical(phi[1])
    if tag in _BINARY:
        return is_classical(phi[1]) and is_classical(phi[2])
    if tag in ("forall", "exists"):
        return is_classical(phi[2])
    return True


# ---------------------------------------------------------------------------
# Models and evaluation
#
# A structure is a dict {"domain": [...], "constants": {name: element},
# "predicates": {name: set of tuples}}, as supkit's model JSON gives it; a
# valuation is a dict {atom: bool}.


def structure_from_json(data):
    return {
        "domain": list(data["domain"]),
        "constants": dict(data.get("constants", {})),
        "predicates": {name: {tuple(t) for t in tuples}
                       for name, tuples in data.get("predicates", {}).items()},
    }


def _term_value(model, t, env):
    kind, name = t
    if kind == "var":
        return env[name]
    if kind == "const":
        return model["constants"][name]
    if name not in model["domain"]:
        raise LogicError(f"parameter @{name} outside the domain")
    return name


def eval_classical(model, phi, env=None):
    """Tarskian truth of a sup-free formula in a structure or valuation."""
    env = env or {}
    tag = phi[0]
    if tag == "atom":
        return bool(model[phi[1]])
    if tag == "pred":
        args = tuple(_term_value(model, t, env) for t in phi[2])
        return args in model["predicates"].get(phi[1], set())
    if tag == "eq":
        return _term_value(model, phi[1], env) == _term_value(model, phi[2], env)
    if tag == "not":
        return not eval_classical(model, phi[1], env)
    if tag in ("forall", "exists"):
        test = all if tag == "forall" else any
        return test(eval_classical(model, phi[2], {**env, phi[1]: x})
                    for x in model["domain"])
    a = eval_classical(model, phi[1], env)
    b = eval_classical(model, phi[2], env)
    if tag == "and":
        return a and b
    if tag == "or":
        return a or b
    if tag == "imp":
        return (not a) or b
    if tag == "iff":
        return a == b
    raise LogicError(f"not classical: {phi!r}")


def table_from_json(data, constants=()):
    """A choice table as {frozenset({a, b}): chosen}."""
    table = {}
    for entry in data.get("entries", ()):
        a, b = (parse(text, constants) for text in entry["pair"])
        table[frozenset((a, b))] = parse(entry["choice"], constants)
    return table


def _choose(table, a, b):
    if a == b:
        return a
    pick = table.get(frozenset((a, b)))
    if pick is None:
        raise LogicError("the table has no entry for a pair the evaluation reaches")
    return pick


def _collapse(table, phi):
    """The classical sentence a basic sentence collapses to."""
    tag = phi[0]
    if is_classical(phi):
        return phi
    if tag == "not":
        return ("not", _collapse(table, phi[1]))
    if tag == "sup":
        return _choose(table, _collapse(table, phi[1]), _collapse(table, phi[2]))
    if tag in _BINARY:
        return (tag, _collapse(table, phi[1]), _collapse(table, phi[2]))
    raise LogicError("a quantifier above sup has no collapse")


def eval_scs(model, table, phi):
    """Sentence-choice truth: connectives and quantifiers are read
    classically (a quantifier instantiates each element as a parameter),
    and a sup node is true when the table's pick from its collapsed
    operands is true."""
    tag = phi[0]
    if is_classical(phi):
        return eval_classical(model, phi)
    if tag == "sup":
        return eval_classical(model, _collapse(table, phi))
    if tag == "not":
        return not eval_scs(model, table, phi[1])
    if tag in ("forall", "exists"):
        test = all if tag == "forall" else any
        return test(eval_scs(model, table, subst(phi[2], phi[1], ("param", x)))
                    for x in model["domain"])
    a = eval_scs(model, table, phi[1])
    if tag == "and":
        return a and eval_scs(model, table, phi[2])
    if tag == "or":
        return a or eval_scs(model, table, phi[2])
    if tag == "imp":
        return (not a) or eval_scs(model, table, phi[2])
    return a == eval_scs(model, table, phi[2])


# ---------------------------------------------------------------------------
# Axiom schemes


def _sup(a, b):
    return ("sup", a, b)


SCHEMES = {
    "S1": ("imp", ("and", "a", "b"), _sup("a", "b")),
    "S2": ("imp", _sup("a", "b"), ("or", "a", "b")),
    "S3": ("imp", _sup("a", "b"), _sup("b", "a")),
    "S4": ("imp", _sup(_sup("a", "b"), "c"), _sup("a", _sup("b", "c"))),
    "S5": ("imp", ("and", "a", ("not", "b")),
           ("iff", _sup("a", "b"), _sup(("not", "a"), ("not", "b")))),
    "DN": ("iff", _sup(("not", ("not", "a")), "b"), _sup("a", "b")),
}


def match(pattern, phi, binding=None):
    """Bind the scheme letters in ``pattern`` so that it equals ``phi``;
    None when it cannot."""
    binding = {} if binding is None else binding
    if isinstance(pattern, str):
        if binding.setdefault(pattern, phi) != phi:
            return None
        return binding
    if pattern[0] != phi[0] or len(pattern) != len(phi):
        return None
    for p, f in zip(pattern[1:], phi[1:]):
        if match(p, f, binding) is None:
            return None
    return binding


def is_chain_instance(phi):
    """``(((a0 sup a1) sup a2) ...) -> a0 sup (a1 sup (a2 ...))``: the
    left-nested and right-nested superpositions of one list of sentences,
    which every associative table reads alike."""
    if phi[0] != "imp":
        return False

    def flatten(node, side):
        out = []
        while node[0] == "sup":
            out.append(node[2] if side == 1 else node[1])
            node = node[side]
        out.append(node)
        return out[::-1] if side == 1 else out

    left, right = flatten(phi[1], 1), flatten(phi[2], 2)
    return len(left) >= 3 and left == right


def closure_instances(phi, elements):
    """The instances of a sentence's leading universal quantifiers, one per
    tuple of parameters drawn from ``elements``."""
    if phi[0] != "forall":
        return [phi]
    return [inst for x in elements
            for inst in closure_instances(subst(phi[2], phi[1], ("param", x)),
                                          elements)]


# ---------------------------------------------------------------------------
# The size of a bounded search space


def vocabulary(formulas):
    """(prop atoms, constants, predicates with arity) of the formulas."""
    atoms, consts, preds = set(), set(), set()

    def walk(phi):
        tag = phi[0]
        if tag == "atom":
            atoms.add(phi[1])
        elif tag in ("pred", "eq"):
            args = phi[2] if tag == "pred" else phi[1:]
            if tag == "pred":
                preds.add((phi[1], len(args)))
            consts.update(name for kind, name in args if kind == "const")
        elif tag == "not":
            walk(phi[1])
        elif tag in _BINARY:
            walk(phi[1])
            walk(phi[2])
        else:
            walk(phi[2])

    for phi in formulas:
        walk(phi)
    return atoms, consts, preds


def count_models(formulas, max_domain):
    """How many models a complete search over the formulas' vocabulary
    visits: 2^|atoms| valuations, or for a first-order vocabulary with k
    constants, predicates of arities b and functions of arities a,
    sum over n <= max_domain of n^k * prod n^(n^a) * prod 2^(n^b)."""
    atoms, consts, preds = vocabulary(formulas)
    if atoms:
        return 2 ** len(atoms)
    return count_structures(len(consts), [], [b for _, b in preds], max_domain)


def count_structures(constants, function_arities, predicate_arities, max_domain):
    return sum(
        n ** constants
        * math.prod(n ** (n ** a) for a in function_arities)
        * math.prod(2 ** (n ** b) for b in predicate_arities)
        for n in range(1, max_domain + 1)
    )

