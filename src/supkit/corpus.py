"""Bundled Hilbert-proof corpus and deliberately broken variants.

The valid entries cover every axiom scheme and every inference rule of the
K/L systems, including salva-veritate lines backed by embedded
double-negation certificates.  Each entry answers to the table class of its
system (K0/L0 -> all, K1/L1 -> reg, K2/L2 -> regstar, K3/L3 -> dec) so the
test suite can cross-check every accepted proof against the
enumeration-based consequence checker.  The mutants are minimal edits the
checker must reject with a precise line diagnosis.

The two SV proofs are generated: their certificates come from the
deduction-theorem builder below, which compiles natural-deduction style
derivations into plain P1-P3/MP proofs of the base system.  Every other
entry is a JSON file under ``corpus/`` named after the entry.
"""

import json
from importlib import resources

from .proofs import (
    BASE_SYSTEM,
    MP,
    SV,
    Axiom,
    Hyp,
    Proof,
    ProofLine,
    proof_from_json,
)
from .syntax import (
    Iff,
    Implies,
    Not,
    PropAtom,
    Record,
    Sup,
    parse,
    primitive_form,
    to_text,
)

SYSTEM_CLASS = {
    "K0": "all", "L0": "all",
    "K1": "reg", "L1": "reg",
    "K2": "regstar", "L2": "regstar",
    "K3": "dec", "L3": "dec",
}

# The valid entries in order.  Each name is either generated, with the SV
# proof of GENERATED[name] = (system, alpha, other), or loaded from
# corpus/<name>.json.
ENTRY_NAMES = (
    "k0_s1_from_hyp",
    "k0_s2_from_hyp",
    "k0_s3_from_hyp",
    "k0_p1_instance",
    "k0_p2_instance",
    "k0_p3_instance",
    "k0_identity_chain",
    "k1_sv_double_negation",
    "k2_s4_instance",
    "k3_s5_instance",
    "l0_ui_instance",
    "l0_ui_mp_from_hyp",
    "l0_d_instance",
    "l0_i1_gr",
    "l0_i2_instance",
    "l0_i3_instance",
    "l0_i4_instance",
    "l0_i5_instance",
    "l1_sv_double_negation_fo",
    "l3_s5_fo_instance",
)

GENERATED = {
    "k1_sv_double_negation": ("K1", "p0", "p1"),
    "l1_sv_double_negation_fo": ("L1", "P(c1)", "Q(c1)"),
}


class CorpusEntry(Record):
    __slots__ = __match_args__ = ("name", "table_class", "proof")

    def __init__(self, name, table_class, proof):
        self._init(name, table_class, proof)


class MutantEntry(Record):
    __slots__ = __match_args__ = ("name", "proof", "expect_line", "expect_reason")

    def __init__(self, name, proof, expect_line, expect_reason):
        # expect_reason: substring of the diagnosis
        self._init(name, proof, expect_line, expect_reason)


# ---------------------------------------------------------------------------
# Deduction-theorem builder
#
# A derivation is a list of (formula, tag) items where the tag is one of
#
#     ("ax", scheme)        axiom instance
#     ("self",)             the hypothesis currently being discharged
#     ("outer",)            provided by an enclosing hypothesis context
#     ("mp", f1, f2)        modus ponens from the earlier items f1, f2 == f1->phi
#
# _discharge(h, items) performs the standard P1/P2/P3 compilation of a
# derivation under hypothesis h into one of implications, so nested contexts
# compile down to plain Hilbert proofs that check line by line.


def _key(phi):
    """The text of ``phi``'s primitive form, equal exactly when the primitive
    forms are.  Sets and dicts below are keyed by it: a string keeps its
    hash, where hashing a node walks its whole tree on every lookup."""
    return to_text(primitive_form(phi))


def _identity_items(a):
    """items proving a -> a from P1/P2."""
    aa = Implies(a, a)
    t1 = Implies(a, Implies(aa, a))
    t3 = Implies(Implies(a, aa), aa)
    t2 = Implies(t1, t3)
    t4 = Implies(a, aa)
    return [
        (t2, ("ax", "P2")),
        (t1, ("ax", "P1")),
        (t3, ("mp", t1, t2)),
        (t4, ("ax", "P1")),
        (aa, ("mp", t4, t3)),
    ]


def _discharge(hyp, items):
    """Compile items valid under ``hyp`` into items proving hyp -> phi.

    Items whose derivation never touched the hypothesis pass through
    unchanged and are lifted through P1 only where a dependent step needs
    them.
    """
    out = []
    depends = set()

    def lift(phi):
        step = Implies(phi, Implies(hyp, phi))
        out.append((step, ("ax", "P1")))
        out.append((Implies(hyp, phi), ("mp", phi, step)))

    for phi, tag in items:
        kind = tag[0]
        if kind == "self" or (kind == "outer" and phi == hyp):
            out.extend(_identity_items(hyp))
            depends.add(_key(phi))
        elif kind in ("ax", "outer"):
            out.append((phi, tag))
        else:
            _, f1, f2 = tag
            dep1 = _key(f1) in depends
            dep2 = _key(f2) in depends
            if not dep1 and not dep2:
                out.append((phi, tag))
                continue
            if not dep1:
                lift(f1)
            if not dep2:
                lift(f2)
            h_f1, h_f2, h_phi = Implies(hyp, f1), Implies(hyp, f2), Implies(hyp, phi)
            p2 = Implies(h_f2, Implies(h_f1, h_phi))
            out.append((p2, ("ax", "P2")))
            out.append((Implies(h_f1, h_phi), ("mp", h_f2, p2)))
            out.append((h_phi, ("mp", h_f1, Implies(h_f1, h_phi))))
            depends.add(_key(phi))
    return out


def _dn_elim_items(a):
    """items proving ~~a -> a."""
    h = Not(Not(a))
    na = Not(a)
    lift = Implies(h, Implies(na, h))
    p3 = Implies(Implies(na, h), Implies(Implies(na, na), a))
    inner = [
        (h, ("self",)),
        (lift, ("ax", "P1")),
        (Implies(na, h), ("mp", h, lift)),
        *_identity_items(na),
        (p3, ("ax", "P3")),
        (Implies(Implies(na, na), a), ("mp", Implies(na, h), p3)),
        (a, ("mp", Implies(na, na), Implies(Implies(na, na), a))),
    ]
    return _discharge(h, inner)


def _dn_intro_items(a):
    """items proving a -> ~~a."""
    nnn = Not(Not(Not(a)))
    nn = Not(Not(a))
    lift = Implies(a, Implies(nnn, a))
    p3 = Implies(Implies(nnn, Not(a)), Implies(Implies(nnn, a), nn))
    inner = [
        (a, ("self",)),
        *_dn_elim_items(Not(a)),
        (lift, ("ax", "P1")),
        (Implies(nnn, a), ("mp", a, lift)),
        (p3, ("ax", "P3")),
        (Implies(Implies(nnn, a), nn), ("mp", Implies(nnn, Not(a)), p3)),
        (nn, ("mp", Implies(nnn, a), Implies(Implies(nnn, a), nn))),
    ]
    return _discharge(a, inner)


def _conj_intro_items(a, b):
    """items proving a -> (b -> ~(a -> ~b)), the primitive conjunction."""
    x = Implies(a, Not(b))
    nnx = Not(Not(x))
    c3 = [
        (nnx, ("self",)),
        *_dn_elim_items(x),
        (x, ("mp", nnx, Implies(nnx, x))),
        (a, ("outer",)),
        (Not(b), ("mp", a, x)),
    ]
    part_nb = _discharge(nnx, c3)  # context {a,b}: ~~x -> ~b
    p1b = Implies(b, Implies(nnx, b))
    p3 = Implies(Implies(nnx, Not(b)), Implies(Implies(nnx, b), Not(x)))
    c2 = [
        (b, ("self",)),
        *part_nb,
        (p1b, ("ax", "P1")),
        (Implies(nnx, b), ("mp", b, p1b)),
        (p3, ("ax", "P3")),
        (Implies(Implies(nnx, b), Not(x)), ("mp", Implies(nnx, Not(b)), p3)),
        (Not(x), ("mp", Implies(nnx, b), Implies(Implies(nnx, b), Not(x)))),
    ]
    part_b = _discharge(b, c2)  # context {a}: b -> ~x
    c1 = [(a, ("self",)), *part_b]
    return _discharge(a, c1)


def _dn_iff_items(alpha):
    """items proving ~~alpha <-> alpha (final line carries the Iff sugar)."""
    fwd = Implies(Not(Not(alpha)), alpha)
    bwd = Implies(alpha, Not(Not(alpha)))
    conj = Implies(fwd, Implies(bwd, Not(Implies(fwd, Not(bwd)))))
    items = []
    items.extend(_dn_elim_items(alpha))
    items.extend(_dn_intro_items(alpha))
    items.extend(_conj_intro_items(fwd, bwd))
    items.append((Implies(bwd, Not(Implies(fwd, Not(bwd)))), ("mp", fwd, conj)))
    items.append((Iff(Not(Not(alpha)), alpha), ("mp", bwd, Implies(bwd, Not(Implies(fwd, Not(bwd)))))))
    return items


def _assemble(system, items):
    """Deduplicate fully discharged items by primitive form and resolve MP
    references into a checkable Proof."""
    lines = []
    index = {}
    for phi, tag in items:
        key = _key(phi)
        if key in index:
            continue
        if tag[0] == "ax":
            just = Axiom(tag[1])
        else:
            _, f1, f2 = tag
            just = MP(index[_key(f1)], index[_key(f2)])
        lines.append(ProofLine(phi, just))
        index[key] = len(lines)
    return Proof(system=system, lines=tuple(lines))


def dn_iff_proof(system, alpha):
    """A checkable proof of ~~alpha <-> alpha in the given MP-only system."""
    return _assemble(system, _dn_iff_items(alpha))


def sv_double_negation(system, alpha, other):
    """A proof of ~~alpha sup other <-> alpha sup other in a system with SV:
    the base-system proof of ~~alpha <-> alpha, then the SV line that cites
    it and carries it again as its certificate."""
    cert = dn_iff_proof(BASE_SYSTEM[system[0]], alpha)
    sv = ProofLine(Iff(Sup(Not(Not(alpha)), other), Sup(alpha, other)),
                   SV(len(cert.lines), cert))
    return Proof(system=system, lines=cert.lines + (sv,))


# ---------------------------------------------------------------------------
# Entries


def _load(name):
    path = resources.files("supkit") / "corpus" / f"{name}.json"
    return json.loads(path.read_text())


def corpus_entries():
    """The bundled valid proofs, in ENTRY_NAMES order."""
    out = []
    for name in ENTRY_NAMES:
        if name in GENERATED:
            system, alpha, other = GENERATED[name]
            proof = sv_double_negation(system, parse(alpha), parse(other))
        else:
            proof = proof_from_json(_load(name))
        out.append(CorpusEntry(name, SYSTEM_CLASS[proof.system], proof))
    return out


def _by_name(entries, name):
    return next(entry.proof for entry in entries if entry.name == name)


def _replace_line(proof, number, formula=None, just=None):
    lines = list(proof.lines)
    old = lines[number - 1]
    lines[number - 1] = ProofLine(
        formula if formula is not None else old.formula,
        just if just is not None else old.just,
    )
    return proof.replace(lines=tuple(lines))


def mutant_entries():
    """Broken variants of corpus proofs with their expected diagnoses."""
    entries = corpus_entries()
    sv_proof = _by_name(entries, "k1_sv_double_negation")
    sv_line = len(sv_proof.lines)
    mutants = []

    mutants.append(MutantEntry(
        "sv_line_submitted_in_k0",
        sv_proof.replace(system="K0"),
        sv_line, "SV not available in K0",
    ))

    mutants.append(MutantEntry(
        "mp_premises_misaligned",
        _replace_line(_by_name(entries, "k0_s1_from_hyp"), 3, just=MP(2, 2)),
        3, "MP premises do not align",
    ))

    mutants.append(MutantEntry(
        "s4_below_k2",
        _by_name(entries, "k2_s4_instance").replace(system="K1"),
        1, "axiom S4 not available in K1",
    ))

    mutants.append(MutantEntry(
        "s1_operands_swapped",
        _replace_line(_by_name(entries, "k0_s1_from_hyp"), 2,
                      formula=parse("p0 /\\ p1 -> p1 sup p0")),
        2, "does not instantiate scheme S1",
    ))

    mutants.append(MutantEntry(
        "ui_with_open_term",
        _replace_line(_by_name(entries, "l0_ui_instance"), 1,
                      formula=parse("(forall v. P(v)) -> P(u)")),
        1, "does not instantiate scheme UI",
    ))

    mutants.append(MutantEntry(
        "d_with_free_variable",
        _replace_line(_by_name(entries, "l0_d_instance"), 1,
                      formula=parse(
                          "(forall v. (Q(v) -> P(v))) -> (Q(v) -> forall v. P(v))")),
        1, "does not instantiate scheme D",
    ))

    old_just = sv_proof.lines[-1].just
    broken_cert = old_just.cert.replace(lines=old_just.cert.lines[1:])
    broken_cert_just = SV(old_just.premise, broken_cert)
    mutants.append(MutantEntry(
        "sv_certificate_truncated",
        _replace_line(sv_proof, sv_line, just=broken_cert_just),
        sv_line, "SV certificate invalid",
    ))

    unrestricted = Sup(
        parse("forall v. (P(v) sup Q(v))"),
        parse("R(c1,c1)"),
    )
    mutants.append(MutantEntry(
        "unrestricted_hypothesis_line",
        Proof("L0", hypotheses=(unrestricted,),
              lines=(ProofLine(unrestricted, Hyp()),)),
        1, "not a restricted formula",
    ))

    mutants.append(MutantEntry(
        "hypothesis_not_declared",
        _replace_line(_by_name(entries, "k0_s2_from_hyp"), 1,
                      formula=Sup(PropAtom("p0"), PropAtom("p2"))),
        1, "not among the hypotheses",
    ))

    return mutants
