import hashlib
import json
import re
from importlib import resources

import pytest

from supkit.choice import ChoiceTable, ClassSpec, TruthTableOracle, collapse, extendable
from supkit.corpus import (
    ENTRY_NAMES,
    GENERATED,
    corpus_entries,
    dn_iff_proof,
    mutant_entries,
    sv_double_negation,
)
from supkit.proofs import (
    GR,
    MP,
    SV,
    Axiom,
    Hyp,
    Proof,
    ProofLine,
    check_proof,
    derives,
    match_axiom,
    proof_from_json,
    proof_to_json,
)
from supkit.syntax import (
    And,
    Constant,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    PredAtom,
    PropAtom,
    Signature,
    Sup,
    Variable,
    parse,
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
    assert binding["t"] == Constant("c1")
    # the instantiating term must be closed
    assert match_axiom(parse("(forall v. P(v)) -> P(u)"), "UI") is None
    # vacuous instantiation is legal
    assert match_axiom(parse("(forall v. p0) -> p0"), "UI") is not None
    # mixed instantiation is not an instance
    assert match_axiom(parse("(forall v. R(v,v)) -> R(c1,c2)"), "UI") is None


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
