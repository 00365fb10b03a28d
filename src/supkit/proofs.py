"""Hilbert-style proof checking for the systems K0-K3 (propositional) and
L0-L3 (first-order).

K0 holds the propositional basis P1-P3 plus the three superposition axioms
S1-S3 with modus ponens; K1 adds the salva-veritate rule SV, K2 the
associativity axiom S4, K3 the negation-swap axiom S5.  The L systems add
universal instantiation, quantifier distribution, the equality axioms and
the generalization rule.

Formulas are compared modulo the definitional expansions
a /\\ b := ~(a -> ~b), a \\/ b := ~a -> b, a <-> b := (a -> b) /\\ (b -> a)
and exists v := ~forall v~, because the propositional basis is complete
exactly for the ~/-> fragment.  Line displays keep whatever sugar the
author wrote.

By default L-system proofs must stay inside the restricted syntax (every
line classifies as restricted, and SV operands must be basic); the
``unrestricted`` flag lifts the line check for experimentation.
"""

from dataclasses import dataclass

from .syntax import (
    And,
    BinaryFormula,
    CaptureError,
    Equality,
    Exists,
    Forall,
    FuncApp,
    Iff,
    Implies,
    Not,
    Or,
    ParseError,
    PredAtom,
    PropAtom,
    Sup,
    SupkitError,
    SyntaxClass,
    Variable,
    classify,
    free_vars,
    is_classical,
    json_field,
    parse,
    primitive_form,
    substitute,
    substitute_term,
    term_vars,
    to_text,
)


@dataclass(frozen=True)
class System:
    name: str
    axioms: frozenset
    rules: frozenset
    first_order: bool


_PROP_AX = ("P1", "P2", "P3", "S1", "S2", "S3")
_FOL_AX = ("UI", "D", "I1", "I2", "I3", "I4", "I5")


def _system(name, extra_axioms, rules, first_order):
    base = _PROP_AX + (_FOL_AX if first_order else ())
    return System(name, frozenset(base + extra_axioms), frozenset(rules), first_order)


SYSTEMS = {
    "K0": _system("K0", (), ("MP",), False),
    "K1": _system("K1", (), ("MP", "SV"), False),
    "K2": _system("K2", ("S4",), ("MP", "SV"), False),
    "K3": _system("K3", ("S4", "S5"), ("MP", "SV"), False),
    "L0": _system("L0", (), ("MP", "GR"), True),
    "L1": _system("L1", (), ("MP", "GR", "SV"), True),
    "L2": _system("L2", ("S4",), ("MP", "GR", "SV"), True),
    "L3": _system("L3", ("S4", "S5"), ("MP", "GR", "SV"), True),
}

BASE_SYSTEM = {"K": "K0", "L": "L0"}


# ---------------------------------------------------------------------------
# Axiom scheme matching (on primitive forms)


@dataclass(frozen=True)
class MetaVar:
    name: str


def _and(a, b):
    return Not(Implies(a, Not(b)))


def _or(a, b):
    return Implies(Not(a), b)


def _iff(a, b):
    return _and(Implies(a, b), Implies(b, a))


_A, _B, _C = MetaVar("phi"), MetaVar("psi"), MetaVar("sigma")

_PATTERNS = {
    "P1": Implies(_A, Implies(_B, _A)),
    "P2": Implies(Implies(_A, Implies(_B, _C)),
                  Implies(Implies(_A, _B), Implies(_A, _C))),
    "P3": Implies(Implies(Not(_A), Not(_B)),
                  Implies(Implies(Not(_A), _B), _A)),
    "S1": Implies(_and(_A, _B), Sup(_A, _B)),
    "S2": Implies(Sup(_A, _B), _or(_A, _B)),
    "S3": Implies(Sup(_A, _B), Sup(_B, _A)),
    "S4": Implies(Sup(Sup(_A, _B), _C), Sup(_A, Sup(_B, _C))),
    "S5": Implies(_and(_A, Not(_B)), _iff(Sup(_A, _B), Sup(Not(_A), Not(_B)))),
}


def _unify(pattern, target, binding):
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
        return _unify(pattern.body, target.body, binding)
    if isinstance(pattern, (And, Or, Implies, Iff, Sup)):
        return (_unify(pattern.left, target.left, binding)
                and _unify(pattern.right, target.right, binding))
    if isinstance(pattern, (Forall, Exists)):
        return pattern.var == target.var and _unify(pattern.body, target.body, binding)
    return False


class _Mismatch(Exception):
    pass


def _infer_instantiation(body, var, target, bound=frozenset()):
    """Terms substituted for free ``var`` to turn ``body`` into ``target``.

    Returns the set of candidate terms (empty when ``var`` has no free
    occurrence and the sides agree); raises _Mismatch otherwise.
    """
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


def _match_ui(prim):
    if not isinstance(prim, Implies) or not isinstance(prim.left, Forall):
        return None
    var, body = prim.left.var, prim.left.body
    if _free_in_sup_operand(body, var):
        return None  # each instance of an open sup is a pair a table decides alone
    try:
        terms = _infer_instantiation(body, var, prim.right)
    except _Mismatch:
        return None
    if len(terms) > 1:
        return None
    if not terms:
        return {"phi": body, "var": var}  # vacuous: var not free in body
    term = terms.pop()
    if term_vars(term):
        return None  # instantiating term must be closed
    return {"phi": body, "var": var, "t": term}


def _free_in_sup_operand(phi, var):
    """Whether ``var`` occurs free in ``phi`` inside an operand of a sup."""
    if var not in free_vars(phi) or is_classical(phi):
        return False
    if isinstance(phi, Sup):
        return True
    if isinstance(phi, Not):
        return _free_in_sup_operand(phi.body, var)
    if isinstance(phi, (And, Or, Implies, Iff)):
        return (_free_in_sup_operand(phi.left, var)
                or _free_in_sup_operand(phi.right, var))
    return _free_in_sup_operand(phi.body, var)


def _match_d(prim):
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
        return None  # side condition: v not free in the antecedent
    return {"phi": a, "psi": b, "var": v}


def _match_i1(prim):
    if isinstance(prim, Forall) and prim.body == Equality(Variable(prim.var), Variable(prim.var)):
        return {"var": prim.var}
    return None


def _match_i2(prim):
    if not (isinstance(prim, Forall) and isinstance(prim.body, Forall)):
        return None
    v, u = prim.var, prim.body.var
    if v == u:
        return None
    want = Implies(Equality(Variable(v), Variable(u)), Equality(Variable(u), Variable(v)))
    return {"vars": (v, u)} if prim.body.body == want else None


def _match_i3(prim):
    if not (isinstance(prim, Forall) and isinstance(prim.body, Forall)
            and isinstance(prim.body.body, Forall)):
        return None
    v, u, w = prim.var, prim.body.var, prim.body.body.var
    if len({v, u, w}) != 3:
        return None
    want = Implies(
        _and(Equality(Variable(v), Variable(u)), Equality(Variable(u), Variable(w))),
        Equality(Variable(v), Variable(w)),
    )
    return {"vars": (v, u, w)} if prim.body.body.body == want else None


def _match_i4(prim):
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


def _match_i5(prim):
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


_CUSTOM_MATCHERS = {
    "UI": _match_ui,
    "D": _match_d,
    "I1": _match_i1,
    "I2": _match_i2,
    "I3": _match_i3,
    "I4": _match_i4,
    "I5": _match_i5,
}


def match_axiom(phi, scheme):
    """Metavariable bindings when ``phi`` instantiates the scheme (side
    conditions included); None when it does not."""
    prim = primitive_form(phi)
    if scheme in _PATTERNS:
        binding = {}
        if _unify(_PATTERNS[scheme], prim, binding):
            return binding
        return None
    if scheme in _CUSTOM_MATCHERS:
        return _CUSTOM_MATCHERS[scheme](prim)
    raise SupkitError(f"unknown axiom scheme {scheme!r}")


def _as_iff(prim):
    """Recover (left, right) from the primitive form of a biconditional."""
    if (isinstance(prim, Not) and isinstance(prim.body, Implies)
            and isinstance(prim.body.left, Implies)
            and isinstance(prim.body.right, Not)
            and isinstance(prim.body.right.body, Implies)):
        fwd, bwd = prim.body.left, prim.body.right.body
        if fwd.left == bwd.right and fwd.right == bwd.left:
            return fwd.left, fwd.right
    return None


# ---------------------------------------------------------------------------
# Proof objects


@dataclass(frozen=True)
class Hyp:
    kind = "hyp"


@dataclass(frozen=True)
class Axiom:
    scheme: str
    kind = "axiom"


@dataclass(frozen=True)
class MP:
    premise: int      # line numbers, 1-based
    implication: int
    kind = "mp"


@dataclass(frozen=True)
class GR:
    premise: int
    var: str
    kind = "gr"


@dataclass(frozen=True)
class SV:
    premise: int
    cert: object      # a Proof in the base system, no hypotheses
    kind = "sv"


@dataclass(frozen=True)
class ProofLine:
    formula: object
    just: object


@dataclass(frozen=True)
class Proof:
    system: str
    hypotheses: tuple = ()
    lines: tuple = ()
    unrestricted: bool = False
    allow_open_hypotheses: bool = False

    def conclusion(self):
        return self.lines[-1].formula if self.lines else None


@dataclass(frozen=True)
class ProofVerdict:
    ok: bool
    line: int = 0       # 1-based index of the first failing line
    reason: str = ""

    def __bool__(self):
        return self.ok


def _is_propositional(phi, known):
    """Whether ``phi`` is built from propositional atoms by connectives.
    ``known`` maps the ids of nodes decided before to their answers; a
    proof keeps its nodes alive while it is checked, so no id is reused."""
    answer = known.get(id(phi))
    if answer is None:
        if isinstance(phi, PropAtom):
            answer = True
        elif isinstance(phi, Not):
            answer = _is_propositional(phi.body, known)
        elif isinstance(phi, BinaryFormula):
            answer = (_is_propositional(phi.left, known)
                      and _is_propositional(phi.right, known))
        else:
            answer = False
        known[id(phi)] = answer
    return answer


def check_proof(proof):
    """Validate every line; returns ok or the first failing line + reason."""
    return _check_proof(proof, {})


def _check_proof(proof, propositional):
    """check_proof, sharing the ``propositional`` answers of _is_propositional
    with the certificates the proof embeds."""
    system = SYSTEMS.get(proof.system)
    if system is None:
        return ProofVerdict(False, 0, f"unknown system {proof.system!r}")
    if not proof.lines:
        return ProofVerdict(False, 0, "proof has no lines")
    hyp_prims = [primitive_form(h) for h in proof.hypotheses]
    prims = []
    for number, line in enumerate(proof.lines, start=1):
        reason = _check_line(system, proof, hyp_prims, prims, number, line, propositional)
        if reason is not None:
            return ProofVerdict(False, number, reason)
        prims.append(primitive_form(line.formula))
    return ProofVerdict(True)


def _check_line(system, proof, hyp_prims, prims, number, line, propositional):
    phi = line.formula
    just = line.just
    if not system.first_order and not _is_propositional(phi, propositional):
        return "first-order syntax in a propositional system"
    if system.first_order and not proof.unrestricted:
        if classify(phi) > SyntaxClass.RESTRICTED:
            return f"line is not a restricted formula: {to_text(phi)}"
    prim = primitive_form(phi)

    if isinstance(just, Hyp):
        if prim not in hyp_prims:
            return "formula is not among the hypotheses"
        return None

    if isinstance(just, Axiom):
        if just.scheme not in system.axioms:
            return f"axiom {just.scheme} not available in {system.name}"
        if match_axiom(phi, just.scheme) is None:
            return f"formula does not instantiate scheme {just.scheme}"
        return None

    if isinstance(just, MP):
        for idx in (just.premise, just.implication):
            if not 1 <= idx < number:
                return f"MP references line {idx}, not before line {number}"
        a = prims[just.premise - 1]
        b = prims[just.implication - 1]
        if b == Implies(a, prim):
            return None
        if a == Implies(b, prim):
            return None
        return "MP premises do not align with this line"

    if isinstance(just, GR):
        if "GR" not in system.rules:
            return f"GR not available in {system.name}"
        if not 1 <= just.premise < number:
            return f"GR references line {just.premise}, not before line {number}"
        if prim != Forall(just.var, prims[just.premise - 1]):
            return "GR conclusion is not the generalization of its premise"
        open_hyps = [h for h in proof.hypotheses if free_vars(h)]
        if open_hyps and not proof.allow_open_hypotheses:
            return "GR requires sentence hypotheses (or allow_open_hypotheses)"
        for h in open_hyps:
            if just.var in free_vars(h):
                return f"GR variable {just.var} occurs free in a hypothesis"
        return None

    if isinstance(just, SV):
        if "SV" not in system.rules:
            return f"SV not available in {system.name}"
        if not 1 <= just.premise < number:
            return f"SV references line {just.premise}, not before line {number}"
        conclusion = _as_iff(prim)
        if conclusion is None:
            return "SV conclusion is not a biconditional"
        left, right = conclusion
        if not (isinstance(left, Sup) and isinstance(right, Sup)):
            return "SV conclusion sides are not superpositions"
        if left.right != right.right:
            return "SV conclusion sides superpose different companions"
        sup_phi, sup_psi, sigma = left.left, right.left, left.right
        premise = _as_iff(prims[just.premise - 1])
        if premise != (sup_phi, sup_psi):
            return "SV premise line is not the matching biconditional"
        if not proof.unrestricted:
            for part in (sup_phi, sup_psi, sigma):
                if classify(part) > SyntaxClass.BASIC:
                    return f"SV operand is not basic: {to_text(part)}"
        cert = just.cert
        base = BASE_SYSTEM[system.name[0]]
        if not isinstance(cert, Proof):
            return "SV requires an embedded certificate proof"
        if cert.system != base:
            return f"SV certificate must be a {base} proof, got {cert.system}"
        if cert.hypotheses:
            return "SV certificate must not use hypotheses"
        sub = _check_proof(cert, propositional)
        if not sub.ok:
            return f"SV certificate invalid at its line {sub.line}: {sub.reason}"
        if _as_iff(primitive_form(cert.conclusion())) != (sup_phi, sup_psi):
            return "SV certificate does not prove the premise biconditional"
        return None

    return f"unknown justification {just!r}"


def derives(premises, conclusion, proof):
    """Whether the proof derives the conclusion from hypotheses within the
    premise set."""
    allowed = {primitive_form(s) for s in premises}
    if any(primitive_form(h) not in allowed for h in proof.hypotheses):
        return False
    if not check_proof(proof).ok:
        return False
    return primitive_form(proof.conclusion()) == primitive_form(conclusion)


# ---------------------------------------------------------------------------
# JSON wire format


def proof_to_json(proof):
    lines = []
    for line in proof.lines:
        just = line.just
        if isinstance(just, Hyp):
            j = {"kind": "hyp"}
        elif isinstance(just, Axiom):
            j = {"kind": "axiom", "scheme": just.scheme}
        elif isinstance(just, MP):
            j = {"kind": "mp", "from": [just.premise, just.implication]}
        elif isinstance(just, GR):
            j = {"kind": "gr", "from": just.premise, "var": just.var}
        elif isinstance(just, SV):
            j = {"kind": "sv", "from": just.premise, "cert": proof_to_json(just.cert)}
        else:
            raise SupkitError(f"unknown justification {just!r}")
        lines.append({"formula": to_text(line.formula), "just": j})
    out = {
        "system": proof.system,
        "hypotheses": [to_text(h) for h in proof.hypotheses],
        "lines": lines,
    }
    if proof.unrestricted:
        out["unrestricted"] = True
    if proof.allow_open_hypotheses:
        out["allow_open_hypotheses"] = True
    return out


def proof_from_json(data, sig=None):
    """The Proof in the JSON wire format; malformed input raises SupkitError,
    and a malformed formula a ParseError, each naming its place: ``line 3``,
    ``hypothesis 2`` or ``certificate of line 5, line 1``.  Each distinct
    formula text, whole or in parentheses, is parsed once per call."""
    return _proof_from_json(data, sig, {})


def _proof_from_json(data, sig, memo, where=None):
    """``where`` is the place of ``data`` when it is a certificate, such as
    ``certificate of line 5``."""

    def place(inner):
        return inner if where is None else f"{where}, {inner}"

    def field(value, key, kind, at, *default):
        source = "proof JSON" if at is None else f"proof JSON: {at}"
        return json_field(value, key, kind, source, *default)

    system = field(data, "system", str, where)
    hypotheses = list(enumerate(field(data, "hypotheses", list, where, []), start=1))
    for number, text in hypotheses:
        if not isinstance(text, str):
            raise SupkitError(f"malformed proof JSON: {place(f'hypothesis {number}')}: "
                              "a hypothesis must be a string")
    lines = []
    for number, entry in enumerate(field(data, "lines", list, where), start=1):
        at = place(f"line {number}")
        formula = field(entry, "formula", str, at)
        j = field(entry, "just", dict, at)
        kind = field(j, "kind", str, at)
        if kind == "hyp":
            just = Hyp()
        elif kind == "axiom":
            just = Axiom(field(j, "scheme", str, at))
        elif kind == "mp":
            refs = field(j, "from", list, at)
            if len(refs) != 2 or not all(type(r) is int for r in refs):
                raise SupkitError(f"malformed proof JSON: {at}: an mp 'from' must be "
                                  "two line numbers")
            just = MP(*refs)
        elif kind == "gr":
            just = GR(field(j, "from", int, at), field(j, "var", str, at))
        elif kind == "sv":
            premise = field(j, "from", int, at)
            cert = _proof_from_json(field(j, "cert", dict, at), sig, memo,
                                    place(f"certificate of line {number}"))
            just = SV(premise, cert)
        else:
            raise SupkitError(f"malformed proof JSON: {at}: unknown justification "
                              f"kind {kind!r}")
        lines.append(ProofLine(_parse_at(formula, sig, memo, at), just))
    return Proof(
        system=system,
        hypotheses=tuple(_parse_at(text, sig, memo, place(f"hypothesis {number}"))
                         for number, text in hypotheses),
        lines=tuple(lines),
        unrestricted=bool(data.get("unrestricted", False)),
        allow_open_hypotheses=bool(data.get("allow_open_hypotheses", False)),
    )


def _parse_at(text, sig, memo, where):
    try:
        return parse(text, sig, memo)
    except ParseError as exc:
        raise exc.within(where) from None
