"""Hilbert-style proof checking for the systems K0-K3 (propositional) and
L0-L3 (first-order).

K0 holds the propositional basis P1-P3 plus the three superposition axioms
S1-S3 with modus ponens; K1 adds the salva-veritate rule SV, K2 the
associativity axiom S4, K3 the negation-swap axiom S5.  The L systems add
universal instantiation, quantifier distribution, the equality axioms and
the generalization rule.

Every axiom scheme is one pattern over metavariables, which stand for
formulas, terms or bound variables' names, plus, for UI, D and I2-I5, a
side condition on what they stand for; a formula is an instance when one
unifier matches it to the pattern and the side condition holds.

Formulas are compared modulo the definitional expansions
a /\\ b := ~(a -> ~b), a \\/ b := ~a -> b, a <-> b := (a -> b) /\\ (b -> a)
and exists v := ~forall v~, because the propositional basis is complete
exactly for the ~/-> fragment.  Line displays keep whatever sugar the
author wrote.

By default L-system proofs must stay inside the restricted syntax (every
line classifies as restricted, and SV operands must be basic); the
``unrestricted`` flag lifts the line check for experimentation.
"""

from .syntax import (
    BinaryFormula,
    CaptureError,
    Equality,
    Forall,
    Implies,
    Node,
    Not,
    ParseError,
    Record,
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
    set_field,
    substitute,
    substitute_term,
    symbols,
    term_vars,
    to_text,
)


class System(Record):
    __slots__ = __match_args__ = ("name", "axioms", "rules", "first_order")

    def __init__(self, name, axioms, rules, first_order):
        self._init(name, axioms, rules, first_order)


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


class MetaVar(Record):
    """A scheme's placeholder: it stands for a formula, a term or a bound
    variable's name, whichever sits in its place in the instance."""

    __slots__ = __match_args__ = ("name",)

    def __init__(self, name):
        set_field(self, "name", name)


def _and(a, b):
    return Not(Implies(a, Not(b)))


def _or(a, b):
    return Implies(Not(a), b)


def _iff(a, b):
    return _and(Implies(a, b), Implies(b, a))


_A, _B, _C = MetaVar("phi"), MetaVar("psi"), MetaVar("sigma")
_V, _U, _W = MetaVar("v"), MetaVar("u"), MetaVar("w")
_S, _T = MetaVar("s"), MetaVar("t")


def _eq(a, b):
    return Equality(Variable(a), Variable(b))


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
    "UI": Implies(Forall(_V, _A), _B),
    "D": Implies(Forall(_V, Implies(_A, _B)), Implies(_A, Forall(_V, _B))),
    "I1": Forall(_V, _eq(_V, _V)),
    "I2": Forall(_V, Forall(_U, Implies(_eq(_V, _U), _eq(_U, _V)))),
    "I3": Forall(_V, Forall(_U, Forall(_W, Implies(_and(_eq(_V, _U), _eq(_U, _W)),
                                                   _eq(_V, _W))))),
    "I4": Forall(_V, Forall(_U, Implies(_eq(_V, _U), Equality(_S, _T)))),
    "I5": Forall(_V, Forall(_U, Implies(_eq(_V, _U), Implies(_A, _B)))),
}


def _unify(pattern, target, binding):
    """Whether ``target`` instantiates ``pattern``, binding each metavariable
    in ``binding`` to what it stands for; a walk over nodes, their field
    tuples and names alike."""
    if isinstance(pattern, MetaVar):
        bound = binding.get(pattern.name)
        if bound is None:
            binding[pattern.name] = target
            return True
        return bound == target
    if isinstance(pattern, Node):
        if type(pattern) is not type(target):
            return False
        pattern, target = pattern._astuple(), target._astuple()
    elif not (isinstance(pattern, tuple) and type(target) is tuple
              and len(pattern) == len(target)):
        return pattern == target
    for p, t in zip(pattern, target):
        if not _unify(p, t, binding):
            return False
    return True


def _ui_instance(b):
    """UI's side condition: ``psi`` is ``phi[v:=t]`` for one closed ``t``
    (bound as ``t``), or ``phi`` itself when ``v`` is not free in it."""
    if _free_in_sup_operand(b["phi"], b["v"]):
        return False  # each instance of an open sup is a pair a table decides alone
    # substitute replaces free occurrences only, and a MetaVar has no
    # variables to capture, so the unifier reads off the one term put there
    if not _unify(substitute(b["phi"], b["v"], _T), b["psi"], b):
        return False
    return "t" not in b or not term_vars(b["t"])  # the term must be closed


def _free_in_sup_operand(phi, var):
    """Whether ``var`` occurs free in ``phi`` inside an operand of a sup."""
    if var not in free_vars(phi) or is_classical(phi):
        return False
    if isinstance(phi, Sup):
        return True
    if isinstance(phi, Not):
        return _free_in_sup_operand(phi.body, var)
    if isinstance(phi, BinaryFormula):
        return (_free_in_sup_operand(phi.left, var)
                or _free_in_sup_operand(phi.right, var))
    return _free_in_sup_operand(phi.body, var)


def _i5_instance(b):
    """I5's side condition: ``psi`` is ``phi[v:=u]``, no ``u`` captured."""
    try:
        return b["v"] != b["u"] and substitute(b["phi"], b["v"], Variable(b["u"])) == b["psi"]
    except CaptureError:
        return False


# Each scheme's condition on a binding its pattern matched; it may bind more.
_SIDE_CONDITIONS = {
    "UI": _ui_instance,
    "D": lambda b: b["v"] not in free_vars(b["phi"]),
    "I2": lambda b: b["v"] != b["u"],
    "I3": lambda b: len({b["v"], b["u"], b["w"]}) == 3,
    "I4": lambda b: (b["v"] != b["u"] and term_vars(b["s"]) <= {b["v"]}
                     and b["t"] == substitute_term(b["s"], {b["v"]: Variable(b["u"])})),
    "I5": _i5_instance,
}


def match_axiom(phi, scheme):
    """Metavariable bindings when ``phi`` instantiates the scheme (side
    conditions included); None when it does not."""
    prim = primitive_form(phi)
    pattern = _PATTERNS.get(scheme)
    if pattern is None:
        raise SupkitError(f"unknown axiom scheme {scheme!r}")
    binding = {}
    if not _unify(pattern, prim, binding):
        return None
    side = _SIDE_CONDITIONS.get(scheme)
    if side is not None and not side(binding):
        return None
    return binding


_IFF = _iff(_A, _B)


def _as_iff(prim):
    """Recover (left, right) from the primitive form of a biconditional."""
    binding = {}
    if _unify(_IFF, prim, binding):
        return binding["phi"], binding["psi"]
    return None


# ---------------------------------------------------------------------------
# Proof objects


class Hyp(Record):
    __slots__ = __match_args__ = ()


class Axiom(Record):
    __slots__ = __match_args__ = ("scheme",)

    def __init__(self, scheme):
        set_field(self, "scheme", scheme)


class MP(Record):
    __slots__ = __match_args__ = ("premise", "implication")

    def __init__(self, premise, implication):
        set_field(self, "premise", premise)   # line numbers, 1-based
        set_field(self, "implication", implication)


class GR(Record):
    __slots__ = __match_args__ = ("premise", "var")

    def __init__(self, premise, var):
        set_field(self, "premise", premise)
        set_field(self, "var", var)


class SV(Record):
    __slots__ = __match_args__ = ("premise", "cert")

    def __init__(self, premise, cert):
        set_field(self, "premise", premise)
        set_field(self, "cert", cert)   # a Proof in the base system, no hypotheses


class ProofLine(Record):
    __slots__ = __match_args__ = ("formula", "just")

    def __init__(self, formula, just):
        set_field(self, "formula", formula)
        set_field(self, "just", just)


class Proof(Record):
    __slots__ = __match_args__ = ("system", "hypotheses", "lines", "unrestricted",
                                  "allow_open_hypotheses")

    def __init__(self, system, hypotheses=(), lines=(), unrestricted=False,
                 allow_open_hypotheses=False):
        self._init(system, hypotheses, lines, unrestricted, allow_open_hypotheses)

    def conclusion(self):
        return self.lines[-1].formula if self.lines else None


class ProofVerdict(Record):
    __slots__ = __match_args__ = ("ok", "line", "reason")

    def __init__(self, ok, line=0, reason=""):
        # line: 1-based index of the first failing line
        self._init(ok, line, reason)

    def __bool__(self):
        return self.ok


def check_proof(proof):
    """Validate every line; returns ok or the first failing line + reason."""
    return _check_proof(proof, {})


def _check_proof(proof, matched):
    """``check_proof``, with ``matched`` holding whether each axiom line's
    formula instantiates its scheme, by the formula's ``id`` and the
    scheme.  One dict serves a proof and its certificates, whose lines
    are mostly the proof's own formula nodes, so each is matched once.
    Every keyed formula is held by a line of the proof, so its ``id`` is
    not reused while the check runs."""
    system = SYSTEMS.get(proof.system)
    if system is None:
        return ProofVerdict(False, 0, f"unknown system {proof.system!r}")
    if not proof.lines:
        return ProofVerdict(False, 0, "proof has no lines")
    hyp_prims = [primitive_form(h) for h in proof.hypotheses]
    prims = []
    for number, line in enumerate(proof.lines, start=1):
        prim = primitive_form(line.formula)
        reason = _check_line(system, proof, hyp_prims, prims, number, line, prim, matched)
        if reason is not None:
            return ProofVerdict(False, number, reason)
        prims.append(prim)
    return ProofVerdict(True)


def _check_line(system, proof, hyp_prims, prims, number, line, prim, matched):
    """Why line ``number``, whose formula has primitive form ``prim``, does
    not follow, or None when it does."""
    phi = line.formula
    just = line.just
    if not system.first_order and symbols(phi).first_order:
        return "first-order syntax in a propositional system"
    if system.first_order and not proof.unrestricted:
        if classify(phi) > SyntaxClass.RESTRICTED:
            return f"line is not a restricted formula: {to_text(phi)}"

    if isinstance(just, Hyp):
        if prim not in hyp_prims:
            return "formula is not among the hypotheses"
        return None

    if isinstance(just, Axiom):
        if just.scheme not in system.axioms:
            return f"axiom {just.scheme} not available in {system.name}"
        key = id(phi), just.scheme
        if key not in matched:
            matched[key] = match_axiom(phi, just.scheme) is not None
        if not matched[key]:
            return f"formula does not instantiate scheme {just.scheme}"
        return None

    if isinstance(just, MP):
        for idx in (just.premise, just.implication):
            if not 1 <= idx < number:
                return f"MP references line {idx}, not before line {number}"
        a = prims[just.premise - 1]
        b = prims[just.implication - 1]
        if b == Implies(a, prim) or a == Implies(b, prim):
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
        sub = _check_proof(cert, matched)
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
    ``hypothesis 2`` or ``certificate of line 5, line 1``.  One memo serves
    the whole load (see ``syntax.parse``), so each distinct formula is one
    node and each distinct text, whole or in parentheses, is read once."""
    return _proof_from_json(data, sig, {})


def _proof_from_json(data, sig, memo, where=None):
    """``where`` is the place of ``data`` when it is a certificate, such as
    ``certificate of line 5``.  A place inside it is spelled out only for
    an error, as most loads have none."""

    def place(inner):
        return inner if where is None else f"{where}, {inner}"

    def field(value, key, kind, number=None, *default):
        """``json_field`` of line ``number``, or of the proof itself."""
        if type(value) is dict:
            got = value.get(key)
            if type(got) is kind:
                return got
        at = where if number is None else place(f"line {number}")
        return json_field(value, key, kind, "proof JSON" if at is None else f"proof JSON: {at}",
                          *default)

    def parsed(text, noun, number):
        try:
            return parse(text, sig, memo)
        except ParseError as exc:
            raise exc.within(place(f"{noun} {number}")) from None

    system = field(data, "system", str)
    hypotheses = list(enumerate(field(data, "hypotheses", list, None, []), start=1))
    for number, text in hypotheses:
        if not isinstance(text, str):
            raise SupkitError(f"malformed proof JSON: {place(f'hypothesis {number}')}: "
                              "a hypothesis must be a string")
    lines = []
    for number, entry in enumerate(field(data, "lines", list), start=1):
        formula = field(entry, "formula", str, number)
        j = field(entry, "just", dict, number)
        kind = field(j, "kind", str, number)
        if kind == "hyp":
            just = Hyp()
        elif kind == "axiom":
            just = Axiom(field(j, "scheme", str, number))
        elif kind == "mp":
            refs = field(j, "from", list, number)
            if len(refs) != 2 or not all(type(r) is int for r in refs):
                raise SupkitError(f"malformed proof JSON: {place(f'line {number}')}: an mp "
                                  "'from' must be two line numbers")
            just = MP(*refs)
        elif kind == "gr":
            just = GR(field(j, "from", int, number), field(j, "var", str, number))
        elif kind == "sv":
            premise = field(j, "from", int, number)
            cert = _proof_from_json(field(j, "cert", dict, number), sig, memo,
                                    place(f"certificate of line {number}"))
            just = SV(premise, cert)
        else:
            raise SupkitError(f"malformed proof JSON: {place(f'line {number}')}: unknown "
                              f"justification kind {kind!r}")
        lines.append(ProofLine(parsed(formula, "line", number), just))
    return Proof(
        system=system,
        hypotheses=tuple(parsed(text, "hypothesis", number) for number, text in hypotheses),
        lines=tuple(lines),
        unrestricted=field(data, "unrestricted", bool, None, False),
        allow_open_hypotheses=field(data, "allow_open_hypotheses", bool, None, False),
    )
