"""Differential tests of the facts a formula node caches.

Each fact (free variables, syntax class, text, primitive form, quantifier
instances) is checked against the plain recursion that derives it again at
every call.  Those recursions live here only, as the reference path, and
so does the one-model classical evaluator (``ref_eval_classical``) that the
block evaluator's tests compare against.
"""

import pickle

from hypothesis import given, settings

from supkit.choice import ClassSpec, choose, collapse, enumerate_tables
from supkit.models import EvalError, Valuation, structures_over, vocabulary_of
from supkit.semantics import eval_scs
from supkit.syntax import (
    And,
    CaptureError,
    Constant,
    Equality,
    Exists,
    Forall,
    Formula,
    FuncApp,
    Iff,
    Implies,
    Not,
    Or,
    Parameter,
    PredAtom,
    PropAtom,
    Sup,
    SyntaxClass,
    Variable,
    canonical_key,
    classify,
    free_vars,
    instantiate,
    is_basic,
    is_classical,
    parse,
    primitive_form,
    substitute,
    substitute_term,
    term_vars,
    to_text,
    to_text_term,
)
from test_syntax import SIG, _formulas, _subformulas

BINARY = (And, Or, Implies, Iff, Sup)
QUANTIFIERS = (Forall, Exists)
ATOMS = (PropAtom, PredAtom, Equality)


# ---------------------------------------------------------------------------
# Reference recursions


def ref_free_vars(phi):
    if isinstance(phi, PropAtom):
        return frozenset()
    if isinstance(phi, PredAtom):
        out = frozenset()
        for a in phi.args:
            out |= term_vars(a)
        return out
    if isinstance(phi, Equality):
        return term_vars(phi.lhs) | term_vars(phi.rhs)
    if isinstance(phi, Not):
        return ref_free_vars(phi.body)
    if isinstance(phi, BINARY):
        return ref_free_vars(phi.left) | ref_free_vars(phi.right)
    return ref_free_vars(phi.body) - {phi.var}


def ref_is_classical(phi):
    if isinstance(phi, ATOMS):
        return True
    if isinstance(phi, Not):
        return ref_is_classical(phi.body)
    if isinstance(phi, Sup):
        return False
    if isinstance(phi, BINARY):
        return ref_is_classical(phi.left) and ref_is_classical(phi.right)
    return ref_is_classical(phi.body)


def ref_is_basic(phi):
    if ref_is_classical(phi):
        return True
    if isinstance(phi, Not):
        return ref_is_basic(phi.body)
    if isinstance(phi, BINARY):
        return ref_is_basic(phi.left) and ref_is_basic(phi.right)
    return False


def ref_is_restricted(phi):
    if ref_is_basic(phi):
        return True
    if isinstance(phi, Not):
        return ref_is_restricted(phi.body)
    if isinstance(phi, Sup):
        return False
    if isinstance(phi, BINARY):
        return ref_is_restricted(phi.left) and ref_is_restricted(phi.right)
    if isinstance(phi, QUANTIFIERS):
        return ref_is_restricted(phi.body)
    return False


def ref_classify(phi):
    if ref_is_classical(phi):
        return SyntaxClass.CLASSICAL
    if ref_is_basic(phi):
        return SyntaxClass.BASIC
    if ref_is_restricted(phi):
        return SyntaxClass.RESTRICTED
    return SyntaxClass.UNRESTRICTED


def ref_to_text(phi, min_level=0):
    if isinstance(phi, PropAtom):
        text, level = phi.name, 7
    elif isinstance(phi, PredAtom):
        text, level = f"{phi.name}({','.join(to_text_term(a) for a in phi.args)})", 7
    elif isinstance(phi, Equality):
        text, level = f"{to_text_term(phi.lhs)} = {to_text_term(phi.rhs)}", 7
    elif isinstance(phi, Not):
        text, level = "~" + ref_to_text(phi.body, 6), 6
    elif isinstance(phi, Sup):
        text, level = ref_to_text(phi.left, 5) + " sup " + ref_to_text(phi.right, 6), 5
    elif isinstance(phi, And):
        text, level = ref_to_text(phi.left, 4) + " /\\ " + ref_to_text(phi.right, 5), 4
    elif isinstance(phi, Or):
        text, level = ref_to_text(phi.left, 3) + " \\/ " + ref_to_text(phi.right, 4), 3
    elif isinstance(phi, Implies):
        text, level = ref_to_text(phi.left, 3) + " -> " + ref_to_text(phi.right, 2), 2
    elif isinstance(phi, Iff):
        text, level = ref_to_text(phi.left, 2) + " <-> " + ref_to_text(phi.right, 1), 1
    else:
        word = "forall" if isinstance(phi, Forall) else "exists"
        text, level = f"{word} {phi.var}. {ref_to_text(phi.body, 0)}", 0
    return "(" + text + ")" if level < min_level else text


def ref_primitive_form(phi):
    if isinstance(phi, ATOMS):
        return phi
    if isinstance(phi, Not):
        return Not(ref_primitive_form(phi.body))
    if isinstance(phi, And):
        return Not(Implies(ref_primitive_form(phi.left), Not(ref_primitive_form(phi.right))))
    if isinstance(phi, Or):
        return Implies(Not(ref_primitive_form(phi.left)), ref_primitive_form(phi.right))
    if isinstance(phi, Implies):
        return Implies(ref_primitive_form(phi.left), ref_primitive_form(phi.right))
    if isinstance(phi, Iff):
        a, b = ref_primitive_form(phi.left), ref_primitive_form(phi.right)
        return Not(Implies(Implies(a, b), Not(Implies(b, a))))
    if isinstance(phi, Sup):
        return Sup(ref_primitive_form(phi.left), ref_primitive_form(phi.right))
    if isinstance(phi, Forall):
        return Forall(phi.var, ref_primitive_form(phi.body))
    return Not(Forall(phi.var, Not(ref_primitive_form(phi.body))))


def ref_substitute(phi, var, term):
    """Rebuilds every node, and checks capture at every quantifier."""
    if isinstance(phi, PropAtom):
        return phi
    if isinstance(phi, PredAtom):
        return PredAtom(phi.name, tuple(substitute_term(a, {var: term}) for a in phi.args))
    if isinstance(phi, Equality):
        return Equality(substitute_term(phi.lhs, {var: term}),
                        substitute_term(phi.rhs, {var: term}))
    if isinstance(phi, Not):
        return Not(ref_substitute(phi.body, var, term))
    if isinstance(phi, BINARY):
        return type(phi)(ref_substitute(phi.left, var, term),
                         ref_substitute(phi.right, var, term))
    if phi.var == var:
        return type(phi)(phi.var, phi.body)
    if var in ref_free_vars(phi.body) and phi.var in term_vars(term):
        raise CaptureError(phi)
    return type(phi)(phi.var, ref_substitute(phi.body, var, term))


def ref_eval_term(structure, term, env):
    if isinstance(term, Variable):
        if term.name not in env:
            raise EvalError(f"unbound variable {term.name!r}")
        return env[term.name]
    if isinstance(term, Constant):
        if term.name not in structure.constants:
            raise EvalError(f"structure does not interpret constant {term.name!r}")
        return structure.constants[term.name]
    if isinstance(term, Parameter):
        if term.element in structure.domain:
            return term.element
        raise EvalError(f"parameter {to_text_term(term)} not in domain")
    if isinstance(term, FuncApp):
        if term.name not in structure.functions:
            raise EvalError(f"structure does not interpret function {term.name!r}")
        args = tuple(ref_eval_term(structure, a, env) for a in term.args)
        table = structure.functions[term.name]
        if args not in table:
            raise EvalError(f"function {term.name!r} undefined on {args}")
        return table[args]
    raise EvalError(f"not a term: {term!r}")


def ref_eval_classical(model, phi, env=None):
    """Tarskian truth in one model with Python bools, short-circuiting as
    Python does: the one-model evaluator that ``eval_classical`` was before
    it became a one-model ``Block``."""
    if not ref_is_classical(phi):
        raise EvalError("eval_classical requires a sup-free formula")
    return _ref_eval(model, phi, env or {})


def _ref_eval(model, phi, env):
    if isinstance(phi, PropAtom):
        if not isinstance(model, Valuation):
            raise EvalError("propositional atom requires a valuation")
        if phi.name not in model.assignment:
            raise EvalError(f"valuation does not cover atom {phi.name!r}")
        return bool(model.assignment[phi.name])
    if isinstance(model, Valuation) and not isinstance(phi, (Not, And, Or, Implies, Iff)):
        raise EvalError(f"valuations cannot evaluate {type(phi).__name__} nodes")
    if isinstance(phi, PredAtom):
        args = tuple(ref_eval_term(model, a, env) for a in phi.args)
        return args in model.predicates.get(phi.name, frozenset())
    if isinstance(phi, Equality):
        return ref_eval_term(model, phi.lhs, env) == ref_eval_term(model, phi.rhs, env)
    if isinstance(phi, Not):
        return not _ref_eval(model, phi.body, env)
    if isinstance(phi, And):
        return _ref_eval(model, phi.left, env) and _ref_eval(model, phi.right, env)
    if isinstance(phi, Or):
        return _ref_eval(model, phi.left, env) or _ref_eval(model, phi.right, env)
    if isinstance(phi, Implies):
        return (not _ref_eval(model, phi.left, env)) or _ref_eval(model, phi.right, env)
    if isinstance(phi, Iff):
        return _ref_eval(model, phi.left, env) == _ref_eval(model, phi.right, env)
    tester = all if isinstance(phi, Forall) else any
    return tester(_ref_eval(model, phi.body, {**env, phi.var: x}) for x in model.domain)


def ref_scs(model, table, phi):
    """Sentence-choice truth that builds a fresh instance at every
    quantifier and every call."""
    if ref_is_classical(phi):
        return ref_eval_classical(model, phi)
    if isinstance(phi, Not):
        return not ref_scs(model, table, phi.body)
    if isinstance(phi, And):
        return ref_scs(model, table, phi.left) and ref_scs(model, table, phi.right)
    if isinstance(phi, Or):
        return ref_scs(model, table, phi.left) or ref_scs(model, table, phi.right)
    if isinstance(phi, Implies):
        return (not ref_scs(model, table, phi.left)) or ref_scs(model, table, phi.right)
    if isinstance(phi, Iff):
        return ref_scs(model, table, phi.left) == ref_scs(model, table, phi.right)
    if isinstance(phi, Sup):
        chosen = choose(table, collapse(table, phi.left), collapse(table, phi.right))
        return ref_eval_classical(model, chosen)
    tester = all if isinstance(phi, Forall) else any
    return tester(ref_scs(model, table, ref_substitute(phi.body, phi.var, Parameter(x)))
                  for x in model.domain)


# ---------------------------------------------------------------------------
# Cached facts against the reference


FACTS = (
    (free_vars, ref_free_vars),
    (classify, ref_classify),
    (is_classical, ref_is_classical),
    (is_basic, ref_is_basic),
    (lambda phi: classify(phi) <= SyntaxClass.RESTRICTED, ref_is_restricted),
    (to_text, ref_to_text),
    (canonical_key, ref_to_text),
    (primitive_form, ref_primitive_form),
)


@settings(max_examples=200, deadline=None)
@given(_formulas())
def test_cached_facts_match_reference(phi):
    for sub in _subformulas(phi):
        for fact, reference in FACTS:
            first = fact(sub)
            assert first == reference(sub), (fact.__name__, sub)
            assert fact(sub) is first, fact.__name__


@settings(max_examples=200, deadline=None)
@given(_formulas())
def test_substitution_and_instances_match_reference(phi):
    for term in (Constant("c1"), Variable("u"), Parameter("e0")):
        try:
            expected = ref_substitute(phi, "v", term)
        except CaptureError:
            expected = CaptureError
        try:
            got = substitute(phi, "v", term)
        except CaptureError:
            got = CaptureError
        assert got == expected
    for sub in _subformulas(phi):
        if isinstance(sub, QUANTIFIERS):
            first = instantiate(sub, "e1")
            assert first == ref_substitute(sub.body, sub.var, Parameter("e1"))
            assert instantiate(sub, "e1") is first


def _nodes(phi):
    yield phi
    for value in phi._astuple():
        if isinstance(value, Formula):
            yield from _nodes(value)


def test_pickle_round_trip_drops_facts():
    phi = parse("(forall v. P(v) sup Q(v)) -> exists u. (R(u,c1) <-> ~P(g(u)))", SIG)
    for sub in _subformulas(phi):
        for fact, _ in FACTS:
            fact(sub)
    instantiate(phi.left, "e0")
    again = pickle.loads(pickle.dumps(phi))
    assert again == phi and hash(again) == hash(phi) and repr(again) == repr(phi)
    assert again is not phi
    for node in _nodes(again):
        assert (node._free, node._class, node._text, node._prim) == (None,) * 4
        assert getattr(node, "_inst", None) is None
    assert to_text(again) == to_text(phi)


# ---------------------------------------------------------------------------
# eval_scs against the reference that substitutes at every quantifier

FO_ALL_SENTENCES = (
    "(forall v. R(v,c1) sup R(c1,v)) -> exists v. (R(v,v) sup R(c1,c1))",
    "forall v. (R(v,c1) /\\ R(c1,v) -> R(v,c1) sup R(c1,v))",
    "forall v. (P(v) sup Q(v) -> P(v) \\/ Q(v))",
    "forall v. (P(v) sup Q(v) -> Q(v) sup P(v))",
    "(P(c1) sup Q(c1)) sup P(c2) -> P(c1) sup (Q(c1) sup P(c2))",
    "((((p0 sup p1) sup p2) sup p3) sup p4) -> p0 sup (p1 sup (p2 sup (p3 sup p4)))",
    "exists x. exists y. exists z. (~(x = y) /\\ ~(y = z) /\\ ~(x = z))",
)


def test_eval_scs_matches_substituting_reference():
    pairs = 0
    for text in FO_ALL_SENTENCES:
        phi = parse(text)
        for model in structures_over(vocabulary_of([phi]), max_domain=2):
            def task(table):
                return eval_scs(model, table, phi), ref_scs(model, table, phi)

            for _table, (got, expected) in enumerate_tables(task, ClassSpec("all")):
                assert got == expected, (text, model)
                pairs += 1
    assert pairs > 1000
