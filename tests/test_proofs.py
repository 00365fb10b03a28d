import hashlib
import json
import random
import re
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from supkit.choice import ChoiceTable, ClassSpec, TruthTableOracle, collapse, extendable
from supkit.corpus import (
    ENTRY_NAMES,
    GENERATED,
    corpus_entries,
    dn_iff_proof,
    mutant_entries,
    sv_double_negation,
)
from supkit import proofs, syntax
from supkit.proofs import (
    GR,
    MP,
    SV,
    Axiom,
    Hyp,
    MetaVar,
    Proof,
    ProofLine,
    ProofVerdict,
    _free_in_sup_operand,
    _PATTERNS,
    _proof_from_json,
    check_proof,
    derives,
    match_axiom,
    proof_from_json,
    proof_to_json,
)
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
    Node,
    Not,
    Or,
    Parameter,
    PredAtom,
    PropAtom,
    Signature,
    Sup,
    SupkitError,
    Term,
    Variable,
    free_vars,
    parse,
    primitive_form,
    substitute,
    substitute_term,
    term_vars,
    to_text,
)

p0, p1, p2 = PropAtom("p0"), PropAtom("p1"), PropAtom("p2")


def proof(system, lines, hypotheses=(), **kw):
    return Proof(system=system, hypotheses=tuple(hypotheses),
                 lines=tuple(ProofLine(f, j) for f, j in lines), **kw)


# ---------------------------------------------------------------------------
# Axiom matching


def test_match_s1():
    binding = match_axiom(Implies(And(p0, p1), Sup(p0, p1)), "S1")
    assert binding == {"phi": p0, "psi": p1}
    assert match_axiom(Implies(And(p0, p1), Sup(p1, p0)), "S1") is None


def test_match_p_schemes_through_sugar():
    # sugar on the metavariable side is fine: the instance is compared
    # after definitional expansion
    phi = Or(p0, p1)
    assert match_axiom(Implies(phi, Implies(p2, phi)), "P1") is not None
    assert match_axiom(parse("(~p0 -> p1) -> (p2 -> (~p0 -> p1))"), "P1") is not None


def test_match_ui():
    inst = parse("(forall v. P(v)) -> P(c1)")
    binding = match_axiom(inst, "UI")
    assert binding == {"v": "v", "phi": parse("P(v)"), "psi": parse("P(c1)"),
                       "t": Constant("c1")}
    # the instantiating term must be closed
    assert match_axiom(parse("(forall v. P(v)) -> P(u)"), "UI") is None
    # vacuous instantiation is legal
    assert match_axiom(parse("(forall v. p0) -> p0"), "UI") is not None
    # mixed instantiation is not an instance
    assert match_axiom(parse("(forall v. R(v,v)) -> R(c1,c2)"), "UI") is None
    # a term whose variable the instance would capture is open, so rejected
    assert match_axiom(parse("(forall v. forall u. R(v,u)) -> forall u. R(u,u)"),
                       "UI") is None
    # a parameter is a closed term
    assert match_axiom(parse("(forall v. P(v)) -> P(@e0)"), "UI")["t"] == Parameter("e0")


def test_ui_rejects_open_sup_operands():
    # a table may choose differently on {P(@e),Q(@e)} and {P(c1),Q(c1)},
    # so the instance below fails in every class
    unsound = parse("(forall v. P(v) sup Q(v)) -> P(c1) sup Q(c1)")
    assert match_axiom(unsound, "UI") is None
    verdict = check_proof(proof("L0", [(unsound, Axiom("UI"))]))
    assert not verdict.ok and verdict.line == 1
    # v is bound again inside, so the sup's operands do not vary with it
    assert match_axiom(parse("(forall v. p0 -> exists v. P(v) sup Q(v)) -> "
                             "p0 -> exists v. P(v) sup Q(v)"), "UI") is not None
    # sup between sentences under the quantifier is still instantiable
    assert match_axiom(parse("(forall v. P(v) /\\ (P(c1) sup Q(c1))) -> "
                             "P(c2) /\\ (P(c1) sup Q(c1))"), "UI") is not None


def test_match_d_side_condition():
    good = parse("(forall v. (p0 -> Q(v))) -> (p0 -> forall v. Q(v))")
    assert match_axiom(good, "D") is not None
    bad = parse("(forall v. (Q(v) -> Q(v))) -> (Q(v) -> forall v. Q(v))")
    assert match_axiom(bad, "D") is None
    # v free under another quantifier of the antecedent still violates it
    bad = parse("(forall v. ((forall u. R(u,v)) -> Q(v))) -> "
                "((forall u. R(u,v)) -> forall v. Q(v))")
    assert match_axiom(bad, "D") is None
    # v bound again inside the antecedent does not
    good = parse("(forall v. ((forall v. P(v)) -> Q(v))) -> "
                 "((forall v. P(v)) -> forall v. Q(v))")
    assert match_axiom(good, "D") == {"v": "v", "phi": parse("forall v. P(v)"),
                                      "psi": parse("Q(v)")}


def test_match_equality_schemes():
    assert match_axiom(parse("forall v. v = v"), "I1") is not None
    assert match_axiom(parse("forall v. forall u. (v = u -> u = v)"), "I2") is not None
    assert match_axiom(
        parse("forall v. forall u. forall w. (v = u /\\ u = w -> v = w)"), "I3"
    ) is not None
    assert match_axiom(
        parse("forall v. forall u. (v = u -> g(v) = g(u))"), "I4"
    ) is not None
    assert match_axiom(
        parse("forall v. forall u. (v = u -> (P(v) -> P(u)))"), "I5"
    ) is not None
    assert match_axiom(
        parse("forall v. forall u. (v = u -> (P(v) -> P(v)))"), "I5"
    ) is None
    # each side condition rejects an instance of its pattern
    for text, scheme in [
        ("forall v. v = u", "I1"),
        ("forall v. forall v. (v = v -> v = v)", "I2"),
        ("forall v. forall u. forall v. (v = u /\\ u = v -> v = v)", "I3"),
        ("forall v. forall u. (v = u -> g(w) = g(w))", "I4"),
        ("forall v. forall v. (v = v -> g(v) = g(v))", "I4"),
        ("forall v. forall u. (v = u -> ((forall u. P(v)) -> (forall u. P(u))))", "I5"),
        ("forall v. forall v. (v = v -> (P(v) -> P(v)))", "I5"),
    ]:
        assert match_axiom(parse(text), scheme) is None, text


# ---------------------------------------------------------------------------
# The one scheme matcher against the hand-written matchers it replaced: a
# unifier for the eight propositional schemes and one function per
# first-order scheme, kept here as the reference.


def _ref_and(a, b):
    return Not(Implies(a, Not(b)))


def _ref_iff(a, b):
    return _ref_and(Implies(a, b), Implies(b, a))


_RA, _RB, _RC = MetaVar("phi"), MetaVar("psi"), MetaVar("sigma")

REF_PATTERNS = {
    "P1": Implies(_RA, Implies(_RB, _RA)),
    "P2": Implies(Implies(_RA, Implies(_RB, _RC)),
                  Implies(Implies(_RA, _RB), Implies(_RA, _RC))),
    "P3": Implies(Implies(Not(_RA), Not(_RB)),
                  Implies(Implies(Not(_RA), _RB), _RA)),
    "S1": Implies(_ref_and(_RA, _RB), Sup(_RA, _RB)),
    "S2": Implies(Sup(_RA, _RB), Implies(Not(_RA), _RB)),
    "S3": Implies(Sup(_RA, _RB), Sup(_RB, _RA)),
    "S4": Implies(Sup(Sup(_RA, _RB), _RC), Sup(_RA, Sup(_RB, _RC))),
    "S5": Implies(_ref_and(_RA, Not(_RB)),
                  _ref_iff(Sup(_RA, _RB), Sup(Not(_RA), Not(_RB)))),
}


def ref_unify(pattern, target, binding):
    if isinstance(pattern, MetaVar):
        bound = binding.get(pattern.name)
        if bound is None:
            binding[pattern.name] = target
            return True
        return bound == target
    if type(pattern) is not type(target):
        return False
    if isinstance(pattern, (PropAtom, PredAtom, Equality)):
        return pattern == target
    if isinstance(pattern, Not):
        return ref_unify(pattern.body, target.body, binding)
    if isinstance(pattern, (And, Or, Implies, Iff, Sup)):
        return (ref_unify(pattern.left, target.left, binding)
                and ref_unify(pattern.right, target.right, binding))
    if isinstance(pattern, (Forall, Exists)):
        return pattern.var == target.var and ref_unify(pattern.body, target.body, binding)
    return False


class _Mismatch(Exception):
    pass


def ref_infer_instantiation(body, var, target, bound=frozenset()):
    """Terms substituted for free ``var`` to turn ``body`` into ``target``;
    raises _Mismatch when no substitution does."""
    out = set()

    def walk_term(b, t, bound):
        if isinstance(b, Variable) and b.name == var and var not in bound:
            out.add(t)
            return
        if type(b) is not type(t):
            raise _Mismatch
        if isinstance(b, Variable):
            if b.name != t.name:
                raise _Mismatch
        elif isinstance(b, (PropAtom,)):
            pass
        elif isinstance(b, FuncApp):
            if b.name != t.name or len(b.args) != len(t.args):
                raise _Mismatch
            for x, y in zip(b.args, t.args):
                walk_term(x, y, bound)
        elif b != t:
            raise _Mismatch

    def walk(b, t, bound):
        if type(b) is not type(t):
            raise _Mismatch
        if isinstance(b, PropAtom):
            if b != t:
                raise _Mismatch
        elif isinstance(b, PredAtom):
            if b.name != t.name or len(b.args) != len(t.args):
                raise _Mismatch
            for x, y in zip(b.args, t.args):
                walk_term(x, y, bound)
        elif isinstance(b, Equality):
            walk_term(b.lhs, t.lhs, bound)
            walk_term(b.rhs, t.rhs, bound)
        elif isinstance(b, Not):
            walk(b.body, t.body, bound)
        elif isinstance(b, (And, Or, Implies, Iff, Sup)):
            walk(b.left, t.left, bound)
            walk(b.right, t.right, bound)
        elif isinstance(b, (Forall, Exists)):
            if b.var != t.var:
                raise _Mismatch
            walk(b.body, t.body, bound | {b.var})
        else:
            raise _Mismatch

    walk(body, target, bound)
    return out


def ref_match_ui(prim):
    if not isinstance(prim, Implies) or not isinstance(prim.left, Forall):
        return None
    var, body = prim.left.var, prim.left.body
    if _free_in_sup_operand(body, var):
        return None
    try:
        terms = ref_infer_instantiation(body, var, prim.right)
    except _Mismatch:
        return None
    if len(terms) > 1:
        return None
    if not terms:
        return {"phi": body, "var": var}
    term = terms.pop()
    if term_vars(term):
        return None
    return {"phi": body, "var": var, "t": term}


def ref_match_d(prim):
    if not isinstance(prim, Implies):
        return None
    left, right = prim.left, prim.right
    if not (isinstance(left, Forall) and isinstance(left.body, Implies)):
        return None
    if not (isinstance(right, Implies) and isinstance(right.right, Forall)):
        return None
    v = left.var
    a, b = left.body.left, left.body.right
    if right.left != a or right.right.var != v or right.right.body != b:
        return None
    if v in free_vars(a):
        return None
    return {"phi": a, "psi": b, "var": v}


def ref_match_i1(prim):
    if isinstance(prim, Forall) and prim.body == Equality(Variable(prim.var), Variable(prim.var)):
        return {"var": prim.var}
    return None


def ref_match_i2(prim):
    if not (isinstance(prim, Forall) and isinstance(prim.body, Forall)):
        return None
    v, u = prim.var, prim.body.var
    if v == u:
        return None
    want = Implies(Equality(Variable(v), Variable(u)), Equality(Variable(u), Variable(v)))
    return {"vars": (v, u)} if prim.body.body == want else None


def ref_match_i3(prim):
    if not (isinstance(prim, Forall) and isinstance(prim.body, Forall)
            and isinstance(prim.body.body, Forall)):
        return None
    v, u, w = prim.var, prim.body.var, prim.body.body.var
    if len({v, u, w}) != 3:
        return None
    want = Implies(
        _ref_and(Equality(Variable(v), Variable(u)), Equality(Variable(u), Variable(w))),
        Equality(Variable(v), Variable(w)),
    )
    return {"vars": (v, u, w)} if prim.body.body.body == want else None


def ref_match_i4(prim):
    if not (isinstance(prim, Forall) and isinstance(prim.body, Forall)):
        return None
    v, u = prim.var, prim.body.var
    inner = prim.body.body
    if v == u or not isinstance(inner, Implies):
        return None
    if inner.left != Equality(Variable(v), Variable(u)):
        return None
    if not isinstance(inner.right, Equality):
        return None
    s, s_sub = inner.right.lhs, inner.right.rhs
    if not term_vars(s) <= {v}:
        return None
    if substitute_term(s, {v: Variable(u)}) != s_sub:
        return None
    return {"vars": (v, u), "t": s}


def ref_match_i5(prim):
    if not (isinstance(prim, Forall) and isinstance(prim.body, Forall)):
        return None
    v, u = prim.var, prim.body.var
    inner = prim.body.body
    if v == u or not isinstance(inner, Implies):
        return None
    if inner.left != Equality(Variable(v), Variable(u)):
        return None
    if not isinstance(inner.right, Implies):
        return None
    f, f_sub = inner.right.left, inner.right.right
    try:
        if substitute(f, v, Variable(u)) != f_sub:
            return None
    except CaptureError:
        return None
    return {"vars": (v, u), "phi": f}


REF_MATCHERS = {
    "UI": ref_match_ui,
    "D": ref_match_d,
    "I1": ref_match_i1,
    "I2": ref_match_i2,
    "I3": ref_match_i3,
    "I4": ref_match_i4,
    "I5": ref_match_i5,
}


def ref_match_axiom(phi, scheme):
    prim = primitive_form(phi)
    if scheme in REF_PATTERNS:
        binding = {}
        return binding if ref_unify(REF_PATTERNS[scheme], prim, binding) else None
    return REF_MATCHERS[scheme](prim)


SCHEMES = tuple(REF_PATTERNS) + tuple(REF_MATCHERS)

_NAMES = ("v", "u", "w", "x")
_names = st.sampled_from(_NAMES)
_terms = st.recursive(
    st.one_of(_names.map(Variable),
              st.sampled_from((Constant("c1"), Constant("c2"), Parameter("e0")))),
    lambda sub: st.one_of(st.builds(lambda a: FuncApp("g", (a,)), sub),
                          st.builds(lambda a, b: FuncApp("f", (a, b)), sub, sub)),
    max_leaves=3)
_atoms = st.one_of(
    st.sampled_from((PropAtom("p0"), PropAtom("p1"))),
    _terms.map(lambda t: PredAtom("P", (t,))),
    st.builds(lambda a, b: PredAtom("R", (a, b)), _terms, _terms),
    st.builds(Equality, _terms, _terms),
)
# primitive forms only: both matchers see a formula's primitive form
_formulas = st.recursive(
    _atoms,
    lambda sub: st.one_of(st.builds(Not, sub), st.builds(Implies, sub, sub),
                          st.builds(Sup, sub, sub), st.builds(Forall, _names, sub)),
    max_leaves=4)


def _fill(pattern, binding):
    """The pattern with each metavariable replaced by its binding."""
    if isinstance(pattern, MetaVar):
        return binding[pattern.name]
    if isinstance(pattern, tuple):
        return tuple(_fill(x, binding) for x in pattern)
    if isinstance(pattern, Node):
        return type(pattern)(*_fill(pattern._astuple(), binding))
    return pattern


def _replace_free(x, var, term):
    """``x`` with every free ``var`` replaced by ``term``, capture or not."""
    if isinstance(x, Variable) and x.name == var:
        return term
    if isinstance(x, Forall) and x.var == var:
        return x
    if isinstance(x, tuple):
        return tuple(_replace_free(y, var, term) for y in x)
    if isinstance(x, Node):
        return type(x)(*_replace_free(x._astuple(), var, term))
    return x


def _places(x, path=()):
    """(path, node, name or metavariable) of every place in a node or
    pattern, the root included."""
    if isinstance(x, (Node, str, MetaVar)):
        yield path, x
    if isinstance(x, (Node, tuple)):
        for i, child in enumerate(x._astuple() if isinstance(x, Node) else x):
            yield from _places(child, path + (i,))


def _replace_at(x, path, new):
    if not path:
        return new
    fields = list(x._astuple() if isinstance(x, Node) else x)
    fields[path[0]] = _replace_at(fields[path[0]], path[1:], new)
    return type(x)(*fields) if isinstance(x, Node) else tuple(fields)


@st.composite
def _candidates(draw, scheme):
    """An instance of the scheme's pattern whose parts are drawn at random,
    with the dependent part built from the others where a side condition
    ties them (UI's instance, I4's term and I5's formula, captured or not);
    half the time one place of it is then replaced: a near-miss.  The bound
    variables are distinct half the time, as the equality schemes ask, and
    ``phi`` is often built so that a side condition on it fails."""
    pattern = _PATTERNS[scheme]
    kinds = {"phi": _formulas, "psi": _formulas, "sigma": _formulas,
             "s": _terms, "t": _terms}
    wanted = {x.name for _, x in _places(pattern) if isinstance(x, MetaVar)}
    if scheme == "UI":
        wanted.add("t")  # the term put into the instance
    b = dict(zip(("v", "u", "w"), draw(st.one_of(
        st.permutations(_NAMES), st.tuples(_names, _names, _names)))))
    b.update((name, draw(kinds[name])) for name in sorted(wanted & kinds.keys()))
    if "phi" in b:  # v free under a binder of u, or in a sup operand, more often
        pv = PredAtom("P", (Variable(b["v"]),))
        b["phi"] = draw(st.sampled_from(
            (b["phi"], Forall(b["u"], Implies(pv, b["phi"])), Sup(pv, b["phi"]))))
    if scheme == "UI":
        b["psi"] = _replace_free(b["phi"], b["v"], b["t"])
    elif scheme == "I4":
        b["t"] = _replace_free(b["s"], b["v"], Variable(b["u"]))
    elif scheme == "I5":
        b["psi"] = _replace_free(b["phi"], b["v"], Variable(b["u"]))
    phi = _fill(pattern, b)
    if draw(st.booleans()):
        path, old = draw(st.sampled_from(list(_places(phi))))
        kind = _names if isinstance(old, str) else _terms if isinstance(old, Term) else _formulas
        phi = _replace_at(phi, path, draw(kind.filter(lambda new: new != old)))
    return phi


@pytest.mark.parametrize("scheme", SCHEMES)
def test_match_axiom_accepts_what_the_hand_written_matchers_accept(scheme):
    seen = set()

    @settings(max_examples=50, deadline=None, database=None, derandomize=True)
    @given(_candidates(scheme))
    def agree(phi):
        rejected = ref_match_axiom(phi, scheme) is None
        assert (match_axiom(phi, scheme) is None) == rejected, to_text(phi)
        seen.add(rejected)

    agree()
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# Proof checking


def s1_proof(system="K0"):
    return proof(system, [
        (And(p0, p1), Hyp()),
        (Implies(And(p0, p1), Sup(p0, p1)), Axiom("S1")),
        (Sup(p0, p1), MP(1, 2)),
    ], hypotheses=[And(p0, p1)])


def test_three_line_s1_proof():
    assert check_proof(s1_proof()).ok


def test_mp_misalignment_diagnosed():
    bad = proof("K0", [
        (And(p0, p1), Hyp()),
        (Implies(And(p0, p1), Sup(p0, p1)), Axiom("S1")),
        (Sup(p0, p2), MP(1, 2)),
    ], hypotheses=[And(p0, p1)])
    verdict = check_proof(bad)
    assert not verdict.ok and verdict.line == 3 and "MP" in verdict.reason


def test_identity_chain():
    aa = Implies(p0, p0)
    t1 = Implies(p0, Implies(aa, p0))
    t3 = Implies(Implies(p0, aa), aa)
    lines = [
        (Implies(t1, t3), Axiom("P2")),
        (t1, Axiom("P1")),
        (t3, MP(2, 1)),
        (Implies(p0, aa), Axiom("P1")),
        (aa, MP(4, 3)),
    ]
    assert check_proof(proof("K0", lines)).ok


def sv_proof(system="K1"):
    return sv_double_negation(system, p0, p1)


def test_sv_with_certificate():
    assert check_proof(sv_proof()).ok


def test_sv_rejected_in_k0():
    verdict = check_proof(sv_proof(system="K0"))
    assert not verdict.ok and "SV not available in K0" in verdict.reason


def test_sv_certificate_must_be_hypothesis_free():
    cert = dn_iff_proof("K0", p0)
    tainted = Proof("K0", hypotheses=(p2,), lines=cert.lines)
    lines = [(line.formula, line.just) for line in cert.lines]
    lines.append((Iff(Sup(Not(Not(p0)), p1), Sup(p0, p1)), SV(len(cert.lines), tainted)))
    verdict = check_proof(proof("K1", lines))
    assert not verdict.ok and "hypotheses" in verdict.reason


def test_k_system_rejects_first_order_syntax():
    bad = proof("K0", [(parse("P(c1) -> P(c1)"), Axiom("P1"))])
    verdict = check_proof(bad)
    assert not verdict.ok and "propositional" in verdict.reason


def test_restricted_mode_default():
    unrestricted_formula = Sup(
        Forall("v", Sup(PredAtom("P", (Variable("v"),)), PredAtom("Q", (Variable("v"),)))),
        PropAtom("p0") if False else PredAtom("P", (Constant("c1"),)),
    )
    bad = proof("L0", [(unrestricted_formula, Hyp())], hypotheses=[unrestricted_formula])
    verdict = check_proof(bad)
    assert not verdict.ok and "restricted" in verdict.reason
    ok = proof("L0", [(unrestricted_formula, Hyp())],
               hypotheses=[unrestricted_formula], unrestricted=True)
    assert check_proof(ok).ok


def test_gr_eigenvariable_discipline():
    ui = parse("(forall v. P(v)) -> P(c1)")
    base = [
        (parse("forall v. P(v)"), Hyp()),
        (ui, Axiom("UI")),
        (parse("P(c1)"), MP(1, 2)),
        (parse("forall u. P(c1)"), GR(3, "u")),
    ]
    assert check_proof(proof("L0", base, hypotheses=[parse("forall v. P(v)")])).ok
    # open hypotheses need the explicit flag, and the variable must stay clear
    open_hyp = PredAtom("P", (Variable("v"),))
    lines = [(open_hyp, Hyp()), (Forall("v", open_hyp), GR(1, "v"))]
    verdict = check_proof(proof("L0", lines, hypotheses=[open_hyp]))
    assert not verdict.ok and "sentence" in verdict.reason
    verdict = check_proof(proof("L0", lines, hypotheses=[open_hyp],
                                allow_open_hypotheses=True))
    assert not verdict.ok and "occurs free" in verdict.reason
    lines_ok = [(open_hyp, Hyp()), (Forall("u", open_hyp), GR(1, "u"))]
    assert check_proof(proof("L0", lines_ok, hypotheses=[open_hyp],
                             allow_open_hypotheses=True)).ok


def test_monotonicity_across_systems():
    for stronger in ("K1", "K2", "K3"):
        assert check_proof(s1_proof(system=stronger)).ok
    for stronger in ("K2", "K3"):
        assert check_proof(sv_proof(system=stronger)).ok


def test_derives():
    premises = {Sup(p0, p1)}
    p = proof("K0", [
        (Sup(p0, p1), Hyp()),
        (Implies(Sup(p0, p1), Or(p0, p1)), Axiom("S2")),
        (Or(p0, p1), MP(1, 2)),
    ], hypotheses=[Sup(p0, p1)])
    assert derives(premises, Or(p0, p1), p)
    assert not derives(premises, And(p0, p1), p)
    assert not derives(set(), Or(p0, p1), p)  # hypothesis outside the premise set


def test_proof_json_roundtrip():
    p = sv_proof()
    data = proof_to_json(p)
    again = proof_from_json(data)
    assert check_proof(again).ok
    assert [to_text(l.formula) for l in again.lines] == [to_text(l.formula) for l in p.lines]


# sha256 of json.dumps(proof_to_json(p), sort_keys=True) for the corpus/*.json
# files that shipped these two proofs before they were generated
SHIPPED_SV_SHA256 = {
    "k1_sv_double_negation":
        "d6ffef195b90751bbd50b63f826c6139f45d6c3e68a21f175fa2e869a790cc20",
    "l1_sv_double_negation_fo":
        "286c3663c4bc663b37d7445e11702562d2225df7ae2b4a46ea407f4751aab2bd",
}


def test_generated_sv_proofs_equal_the_shipped_files():
    assert set(GENERATED) == set(SHIPPED_SV_SHA256)
    proofs = {entry.name: entry.proof for entry in corpus_entries()}
    for name, digest in SHIPPED_SV_SHA256.items():
        text = json.dumps(proof_to_json(proofs[name]), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


def test_corpus_files_are_the_loaded_entries():
    shipped = {path.name for path in (resources.files("supkit") / "corpus").iterdir()
               if path.name.endswith(".json")}
    assert shipped == {name + ".json" for name in ENTRY_NAMES if name not in GENERATED}


def test_sv_semantic_core():
    # regular tables respect equivalence through the superposition collapse
    oracle = TruthTableOracle()
    sigma, rho, tau = p0, Not(Not(p0)), p1
    for first in (sigma, tau):
        for second in (rho, tau):
            table = (ChoiceTable()
                     .with_entry(sigma, tau, first)
                     .with_entry(rho, tau, second))
            if not extendable(table, ClassSpec("reg", oracle)):
                continue
            left = collapse(table, Sup(sigma, tau))
            right = collapse(table, Sup(rho, tau))
            assert oracle.equivalent(left, right)


# ---------------------------------------------------------------------------
# One parse memo per load, against a plain parse of each text


def _texts_and_formulas(data, proof):
    """(text, loaded formula) of every hypothesis and line, certificates
    included."""
    yield from zip(data.get("hypotheses", []), proof.hypotheses)
    for entry, line in zip(data["lines"], proof.lines, strict=True):
        yield entry["formula"], line.formula
        if isinstance(line.just, SV):
            yield from _texts_and_formulas(entry["just"]["cert"], line.just.cert)


def _assert_load_matches_plain_parse(data, sig=None):
    proof = proof_from_json(data, sig)
    for text, phi in _texts_and_formulas(data, proof):
        plain = parse(text, sig)
        assert phi == plain and to_text(phi) == to_text(plain), text
    return proof


def test_memoised_load_matches_plain_parse_on_corpus_and_mutants():
    proofs = [e.proof for e in corpus_entries()] + [m.proof for m in mutant_entries()]
    for p in proofs:
        _assert_load_matches_plain_parse(proof_to_json(p))


def _substitute_in(data, pattern, replacement):
    """Uniform substitution in every formula text of a proof's JSON,
    certificates included."""
    if isinstance(data, dict):
        return {key: _substitute_in(value, pattern, replacement) for key, value in data.items()}
    if isinstance(data, list):
        return [_substitute_in(value, pattern, replacement) for value in data]
    if isinstance(data, str):
        return pattern.sub(lambda _: replacement, data)
    return data


@pytest.mark.parametrize("name, formula", [
    ("k1_sv_double_negation", "(p10 -> p11) sup ~p12"),
    ("k1_sv_double_negation", "p13 /\\ (p14 \\/ p13) -> p15"),
    ("l1_sv_double_negation_fo", "(forall v. R(v,c1)) /\\ Q(c2)"),
    ("l1_sv_double_negation_fo", "(exists v. R(c3,v)) -> P(c1) \\/ R(c1,c2)"),
])
def test_memoised_load_matches_plain_parse_on_sv_instances(name, formula):
    entries = {entry.name: entry.proof for entry in corpus_entries()}
    atom = re.compile(r"(?<![\w@])" + re.escape(GENERATED[name][1]) + r"(?!\w)")
    instance = _substitute_in(proof_to_json(entries[name]), atom, f"({formula})")
    assert formula in instance["lines"][0]["formula"]
    assert check_proof(_assert_load_matches_plain_parse(instance)).ok


def test_a_load_shares_nodes_across_lines_and_certificates():
    entries = {entry.name: entry.proof for entry in corpus_entries()}
    loaded = proof_from_json(proof_to_json(entries["k1_sv_double_negation"]))
    cert = loaded.lines[-1].just.cert
    assert all(a.formula is b.formula for a, b in zip(cert.lines, loaded.lines))


def _entries_in_load_order(data):
    """(the lines of its level, entry) of each line of a proof JSON, in the
    order a load parses their formulas: a certificate before its line."""
    for entry in data["lines"]:
        if entry["just"]["kind"] == "sv":
            yield from _entries_in_load_order(entry["just"]["cert"])
        yield data["lines"], entry


def test_an_mp_line_that_ends_its_implication_line_reads_no_token(monkeypatch):
    """The load remembers the text after an implication line's ``->``, so
    an MP line with that text is found whole.  Loading the K1 SV proof
    lexes 1,049 tokens, against 2,748 when only whole texts and spans in
    parentheses were remembered."""
    entries = {entry.name: entry.proof for entry in corpus_entries()}
    data = proof_to_json(entries["k1_sv_double_negation"])
    read, parsed = [], []
    lex, parse_text = syntax._Parser._lex, proofs.parse
    monkeypatch.setattr(syntax._Parser, "_lex", lambda self: read.append(1) or lex(self))

    def counted(text, sig=None, memo=None):
        before = len(read)
        phi = parse_text(text, sig, memo)
        parsed.append((text, len(read) - before))
        return phi

    monkeypatch.setattr(proofs, "parse", counted)
    assert check_proof(proof_from_json(data)).ok
    assert len(read) < 2748 // 2
    order = list(_entries_in_load_order(data))
    assert [text for text, _ in parsed] == [entry["formula"] for _, entry in order]
    rests = 0
    for (lines, entry), (text, tokens) in zip(order, parsed):
        if entry["just"]["kind"] == "mp":
            implication = lines[entry["just"]["from"][1] - 1]["formula"]
            if implication.endswith(" -> " + text):
                assert tokens == 0, text
                rests += 1
    assert rests == 138   # 69 in the proof, as many in its certificate


@pytest.mark.parametrize("name", ["k1_sv_double_negation", "l1_sv_double_negation_fo"])
def test_an_sv_certificate_adds_no_axiom_matches(monkeypatch, name):
    """One check matches each axiom line's formula once, and a loaded
    certificate's lines are the proof's own nodes: the SV proof takes as
    many matches as its certificate alone."""
    entries = {entry.name: entry.proof for entry in corpus_entries()}
    loaded = proof_from_json(proof_to_json(entries[name]))
    schemes = []

    def counted(phi, scheme):
        schemes.append(scheme)
        return match_axiom(phi, scheme)

    monkeypatch.setattr("supkit.proofs.match_axiom", counted)
    assert check_proof(loaded.lines[-1].just.cert).ok
    alone = len(schemes)
    schemes.clear()
    assert check_proof(loaded).ok
    assert len(schemes) == alone > 0


def _sv_case(system, hypotheses, shared, cert_only=(), unrestricted=False):
    """A proof in ``system`` whose lines are ``shared`` (formula, just), the
    hypothesis ``hypotheses[-1]`` and an SV line from it, with a
    certificate whose lines are ``cert_only`` (line number, formula, just)
    over ``shared``: its copies of the proof's own lines."""
    lines = [{"formula": f, "just": j} for f, j in shared]
    cert = json.loads(json.dumps(lines))
    for number, f, j in cert_only:
        cert[number - 1] = {"formula": f, "just": j}
    left, right = hypotheses[-1].split(" <-> ")
    base, atom = ("K0", "p1") if system[0] == "K" else ("L0", "P(c2)")
    lines += [{"formula": hypotheses[-1], "just": {"kind": "hyp"}},
              {"formula": f"({left} sup {atom}) <-> ({right} sup {atom})",
               "just": {"kind": "sv", "from": len(shared) + 1,
                        "cert": {"system": base, "lines": cert}}}]
    data = {"system": system, "hypotheses": hypotheses, "lines": lines}
    if unrestricted:
        data["unrestricted"] = True
    return data


_AX = {"P1": {"kind": "axiom", "scheme": "P1"}, "S4": {"kind": "axiom", "scheme": "S4"}}
_WIDE = "(forall v. P(v) sup Q(v)) sup P(c1)"   # not restricted
_CERT_CASES = {
    # S4 is a K2 axiom, not one of the certificate's K0
    "system": (_sv_case("K2", ["p0 <-> ~~p0"], [
        ("(p0 sup p1) sup p2 -> p0 sup (p1 sup p2)", _AX["S4"])]),
        3, "SV certificate invalid at its line 1: axiom S4 not available in K0"),
    # a certificate has no hypotheses
    "hypothesis": (_sv_case("K1", ["p0 <-> ~~p0"], [("p0 <-> ~~p0", {"kind": "hyp"})]),
                   3, "SV certificate invalid at its line 1: formula is not among "
                      "the hypotheses"),
    # line 3 is the proof's, but the line 1 it cites is not
    "citation": (_sv_case("K1", ["p0 <-> ~~p0"], [
        ("p1 -> p2 -> p1", _AX["P1"]),
        ("(p1 -> p2 -> p1) -> p0 -> p1 -> p2 -> p1", _AX["P1"]),
        ("p0 -> p1 -> p2 -> p1", {"kind": "mp", "from": [1, 2]})],
        [(1, "p2 -> p1 -> p2", _AX["P1"])]),
        5, "SV certificate invalid at its line 3: MP premises do not align with this line"),
    # the proof may leave the restricted syntax, its certificate may not
    "flag": (_sv_case("L1", ["P(c1) <-> ~~P(c1)"], [
        (f"({_WIDE}) -> P(c2) -> ({_WIDE})", _AX["P1"])], unrestricted=True),
        3, f"SV certificate invalid at its line 1: line is not a restricted formula: "
           f"{_WIDE} -> P(c2) -> {_WIDE}"),
}


@pytest.mark.parametrize("case", sorted(_CERT_CASES))
def test_a_certificate_line_is_taken_by_reference_only_where_its_check_would_accept(case):
    """A certificate line that copies the proof's own line is still judged
    in the certificate's system, from its own cited lines and under its own
    restricted-syntax flag."""
    data, line, reason = _CERT_CASES[case]
    assert check_proof(proof_from_json(data)) == ProofVerdict(False, line, reason)
    if case == "flag":   # as check-proof --unrestricted reads a restricted proof
        del data["unrestricted"]
        lifted = proof_from_json(data).replace(unrestricted=True)
        assert check_proof(lifted) == ProofVerdict(False, line, reason)


def test_loads_under_different_signatures_read_text_differently():
    text = "(P(c) -> P(c)) -> P(c)"
    data = {"system": "L0", "hypotheses": [text],
            "lines": [{"formula": text, "just": {"kind": "hyp"}}]}
    declared = Signature(constants={"c"}, predicates={"P": 1})
    undeclared = Signature(predicates={"P": 1})
    a = _assert_load_matches_plain_parse(data, declared)
    b = _assert_load_matches_plain_parse(data, undeclared)
    assert a.lines[0].formula.right == PredAtom("P", (Constant("c"),))
    assert b.lines[0].formula.right == PredAtom("P", (Variable("c"),))


# ---------------------------------------------------------------------------
# One node per distinct formula per load, and checks that do not depend on it


def _nodes(formulas):
    """Every formula node reachable from ``formulas``, by ``id``."""
    out, stack = {}, list(formulas)
    while stack:
        phi = stack.pop()
        if id(phi) not in out:
            out[id(phi)] = phi
            stack += [f for f in phi._astuple() if isinstance(f, Formula)]
    return out


# The formulas that the seed-7 proof-check workload substitutes for the SV
# proofs' atoms, with the distinct subformulas of each instance's load.
@pytest.mark.parametrize("name, formula, distinct", [
    ("k1_sv_double_negation", "p51 -> (p93 /\\ (p60 \\/ p29))", 185),
    ("l1_sv_double_negation_fo",
     "R(c1,c2) -> ((forall v. R(c3,v)) /\\ (P(c2) \\/ (exists v. R(v,c2))))", 187),
], ids=("k1", "l1"))
def test_a_load_builds_one_node_per_distinct_subformula(name, formula, distinct):
    entries = {entry.name: entry.proof for entry in corpus_entries()}
    atom = re.compile(r"(?<![\w@])" + re.escape(GENERATED[name][1]) + r"(?!\w)")
    instance = _substitute_in(proof_to_json(entries[name]), atom, f"({formula})")
    loaded = proof_from_json(instance)
    nodes = _nodes(phi for _, phi in _texts_and_formulas(instance, loaded))
    assert len(nodes) == len(set(nodes.values())) == distinct
    assert check_proof(loaded).ok


def _levels(data):
    """A proof JSON and every certificate in it."""
    yield data
    for entry in data["lines"]:
        if entry["just"]["kind"] == "sv":
            yield from _levels(entry["just"]["cert"])


def _mutant(data, kind, rng):
    """A copy of a proof JSON with one edit of ``kind`` at a random level,
    or None when no level offers one."""
    data = json.loads(json.dumps(data))
    if kind == "cut":
        sites = [e["just"] for level in _levels(data) for e in level["lines"]
                 if e["just"]["kind"] == "sv" and len(e["just"]["cert"]["lines"]) > 1]
    else:
        wanted = {"drop": None, "scheme": "axiom", "shift": "mp"}[kind]
        sites = [(level["lines"], i) for level in _levels(data)
                 for i, e in enumerate(level["lines"])
                 if wanted in (None, e["just"]["kind"]) and len(level["lines"]) > 1]
    if not sites:
        return None
    site = rng.choice(sites)
    if kind == "cut":
        k = rng.randrange(1, len(site["cert"]["lines"]))
        site["cert"]["lines"] = rng.choice((site["cert"]["lines"][k:],
                                            site["cert"]["lines"][:k]))
    elif kind == "drop":
        del site[0][site[1]]
    elif kind == "scheme":
        site[0][site[1]]["just"]["scheme"] = rng.choice(sorted(_PATTERNS))
    else:
        site[0][site[1]]["just"]["from"][rng.randrange(2)] += rng.choice((-1, 1))
    return data


def test_a_memoised_load_checks_as_a_plain_load_does():
    """``check_proof`` gives one verdict whether a proof's formulas are
    loaded through one shared memo, as one node per distinct formula, or
    each parsed on its own, on every corpus entry and mutant entry and on
    generated mutants of each: a line dropped, an axiom's scheme swapped,
    an MP reference shifted, a certificate cut."""
    rng = random.Random(18)
    cases = [proof_to_json(e.proof) for e in corpus_entries()]
    cases += [proof_to_json(m.proof) for m in mutant_entries()]
    kinds = ("drop", "scheme", "shift", "cut")
    rejected = dict.fromkeys(("as is",) + kinds, 0)
    for data in cases:
        variants = [("as is", data)] + [(kind, _mutant(data, kind, rng))
                                        for kind in kinds for _ in range(3)]
        for kind, variant in variants:
            if variant is None:
                continue
            shared = check_proof(proof_from_json(variant))
            assert shared == check_proof(_proof_from_json(variant, None, None)), kind
            rejected[kind] += not shared.ok
    assert rejected["as is"] == len(mutant_entries()), rejected
    assert all(rejected[kind] for kind in kinds), rejected


_SMALL = {"system": "K1", "hypotheses": ["p0", "p1"], "lines": [
    {"formula": "p0", "just": {"kind": "hyp"}},
    {"formula": "p0 -> p0", "just": {"kind": "sv", "from": 1, "cert": {
        "system": "K0", "lines": [
            {"formula": "p0 -> p1 -> p0", "just": {"kind": "axiom", "scheme": "P1"}},
            {"formula": "p0 -> p0", "just": {"kind": "mp", "from": [1, 1]}}]}}},
]}


def _edited(path, value):
    """A copy of ``_SMALL`` with the value at ``path`` (keys and indices)
    replaced, or deleted when ``value`` is None."""
    data = json.loads(json.dumps(_SMALL))
    target = data
    for key in path[:-1]:
        target = target[key]
    if value is None:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return data


_CERT = ("lines", 1, "just", "cert")


@pytest.mark.parametrize("path, value, message", [
    (("system",), None, "malformed proof JSON: 'system' must be a string"),
    (("lines", 1, "formula"), 5, "malformed proof JSON: line 2: 'formula' must be a string"),
    (("lines", 0), [], "malformed proof JSON: line 1: expected an object"),
    (("lines", 0, "just"), None, "malformed proof JSON: line 1: 'just' must be an object"),
    (("lines", 0, "just", "kind"), "lemma",
     "malformed proof JSON: line 1: unknown justification kind 'lemma'"),
    (("lines", 1, "just", "from"), "1", "malformed proof JSON: line 2: 'from' must be an integer"),
    (("lines", 0, "formula"), "p0 ->", "line 1: expected a formula, found '' (at position 5)"),
    (("hypotheses", 1), 5, "malformed proof JSON: hypothesis 2: a hypothesis must be a string"),
    (("hypotheses", 0), "(p0", "hypothesis 1: expected RPAR, found '' (at position 3)"),
    (_CERT + ("lines",), None, "malformed proof JSON: certificate of line 2: "
                               "'lines' must be a list"),
    (_CERT + ("lines", 0, "just", "scheme"), 7,
     "malformed proof JSON: certificate of line 2, line 1: 'scheme' must be a string"),
    (_CERT + ("lines", 1, "just", "from"), [1],
     "malformed proof JSON: certificate of line 2, line 2: an mp 'from' must be two "
     "line numbers"),
    (_CERT + ("lines", 1, "formula"), "p0 $ p0",
     "certificate of line 2, line 2: unexpected character '$' (at position 3)"),
])
def test_a_malformed_proof_names_its_place(path, value, message):
    with pytest.raises(SupkitError) as caught:
        proof_from_json(_edited(path, value))
    assert str(caught.value) == message
