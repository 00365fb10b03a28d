"""Tests of the benchmark's own checks, on cases worked out by hand.

    python3 -m pytest bench/test_checks.py
"""

import itertools
import random

import pytest

import logic
import workloads


def P(x):
    return ("pred", "P", (x,))


def test_parser_precedence():
    assert logic.parse("p -> q -> r") == \
        ("imp", ("atom", "p"), ("imp", ("atom", "q"), ("atom", "r")))
    assert logic.parse("p sup q sup r") == \
        ("sup", ("sup", ("atom", "p"), ("atom", "q")), ("atom", "r"))
    assert logic.parse("~p sup q /\\ r") == \
        ("and", ("sup", ("not", ("atom", "p")), ("atom", "q")), ("atom", "r"))
    assert logic.parse("forall v. P(v) -> P(c1)", ["c1"]) == \
        ("forall", "v", ("imp", P(("var", "v")), P(("const", "c1"))))
    assert logic.parse("~(x = @e0)") == ("not", ("eq", ("var", "x"), ("param", "e0")))


def test_propositional_countermodel_of_double_negation():
    # p true, q false; the table picks ~~p from {~~p, q} and q from {p, q}:
    # the left side is true and the right side false.
    phi = logic.parse("(~~p sup q) <-> (p sup q)")
    table = logic.table_from_json({"entries": [
        {"pair": ["~~p", "q"], "choice": "~~p"},
        {"pair": ["p", "q"], "choice": "q"}]})
    model = {"p": True, "q": False}
    assert logic.eval_scs(model, table, phi) is False
    agreeing = logic.table_from_json({"entries": [
        {"pair": ["~~p", "q"], "choice": "~~p"},
        {"pair": ["p", "q"], "choice": "p"}]})
    assert logic.eval_scs(model, agreeing, phi) is True


def test_superposition_reads_the_picked_operand():
    table = logic.table_from_json({"entries": [{"pair": ["p", "q"], "choice": "q"}]})
    model = {"p": True, "q": False}
    assert logic.eval_scs(model, table, logic.parse("p sup q")) is False
    assert logic.eval_scs(model, table, logic.parse("q sup p")) is False
    assert logic.eval_scs(model, table, logic.parse("p /\\ q -> p sup q")) is True
    assert logic.eval_scs(model, table, logic.parse("p sup p")) is True


def test_quantifier_instantiates_parameters():
    # domain {e0, e1}, P = {e0}, Q = {e1}: picking Q at e0 and P at e1
    # makes every instance false; picking the true side makes each true.
    model = logic.structure_from_json(
        {"domain": ["e0", "e1"], "predicates": {"P": [["e0"]], "Q": [["e1"]]}})
    wrong = logic.table_from_json({"entries": [
        {"pair": ["P(@e0)", "Q(@e0)"], "choice": "Q(@e0)"},
        {"pair": ["P(@e1)", "Q(@e1)"], "choice": "P(@e1)"}]})
    right = logic.table_from_json({"entries": [
        {"pair": ["P(@e0)", "Q(@e0)"], "choice": "P(@e0)"},
        {"pair": ["P(@e1)", "Q(@e1)"], "choice": "Q(@e1)"}]})
    phi = logic.parse("exists v. P(v) sup Q(v)")
    assert logic.eval_scs(model, wrong, phi) is False
    assert logic.eval_scs(model, right, logic.parse("forall v. P(v) sup Q(v)")) is True


def test_constants_and_equality():
    model = logic.structure_from_json(
        {"domain": ["e0", "e1"], "constants": {"c1": "e1"}, "predicates": {"R": [["e1", "e0"]]}})
    assert logic.eval_classical(model, logic.parse("exists v. R(c1,v)", ["c1"]))
    assert not logic.eval_classical(model, logic.parse("R(c1,c1)", ["c1"]))
    guard = logic.parse(workloads.GUARD)
    assert not logic.eval_classical(model, guard)
    assert logic.eval_classical({"domain": ["a", "b", "c"], "constants": {},
                                 "predicates": {}}, guard)


def test_missing_entry_is_an_error():
    with pytest.raises(logic.LogicError):
        logic.eval_scs({"p": True, "q": True}, {}, logic.parse("p sup q"))


def structures(constants, predicates, max_domain):
    """Every structure over the given constants and (name, arity)
    predicates with domain size up to the bound."""
    for n in range(1, max_domain + 1):
        domain = [f"e{i}" for i in range(n)]
        keys = [(name, list(itertools.product(domain, repeat=arity)))
                for name, arity in predicates]
        for values in itertools.product(domain, repeat=len(constants)):
            for picks in itertools.product(
                    *[itertools.product((False, True), repeat=len(k)) for _, k in keys]):
                yield {
                    "domain": domain,
                    "constants": dict(zip(constants, values)),
                    "predicates": {name: {t for t, keep in zip(k, pick) if keep}
                                   for (name, k), pick in zip(keys, picks)},
                }


@pytest.mark.parametrize("texts, bound, count", [
    # R/2 and c1: 1*2^1 + 2*2^4 + 3*2^9
    (["forall v. R(v,c1)"], 3, 2 + 32 + 1536),
    # P/1, Q/1, c1: 1*4 + 2*16 + 3*64
    (["P(c1) sup Q(c1)"], 3, 4 + 32 + 192),
    # P/1, c1, c2: 1*2 + 4*4 + 9*8
    (["P(c1) -> P(c2)"], 3, 2 + 16 + 72),
    # P/1 alone, no constant: 2 + 4
    (["forall v. P(v)"], 2, 6),
    # five atoms: 2^5 valuations
    (["p0 sup p1 sup p2 sup p3 sup p4"], 3, 32),
])
def test_closed_form_count(texts, bound, count):
    formulas = [logic.parse(t, ["c1", "c2"]) for t in texts]
    assert logic.count_models(formulas, bound) == count


def test_closed_form_count_matches_enumeration():
    for constants, preds, bound in ((["c"], [("P", 1)], 3), (["a", "b"], [("R", 2)], 2),
                                    ([], [("P", 1), ("Q", 1)], 3)):
        listed = sum(1 for _ in structures(constants, preds, bound))
        assert listed == logic.count_structures(
            len(constants), [], [a for _, a in preds], bound)
    # a unary function on n elements has n^n tables
    assert logic.count_structures(0, [1], [], 2) == 1 + 4


def test_scheme_instances():
    s3 = logic.parse("forall v. (P(v) sup Q(v) -> Q(v) sup P(v))")
    instances = logic.closure_instances(s3, ("e0", "e1", "e2"))
    assert len(instances) == 3
    assert all(logic.match(logic.SCHEMES["S3"], i) for i in instances)
    assert logic.match(logic.SCHEMES["S3"], logic.parse("p sup q -> p sup q")) is None
    assert logic.is_chain_instance(
        logic.parse("(((p sup q) sup r) sup s) -> p sup (q sup (r sup s))"))
    assert not logic.is_chain_instance(
        logic.parse("((p sup q) sup r) -> p sup (r sup q)"))


def test_every_rung_is_an_instance_of_its_scheme():
    rng = random.Random(0)
    for rung in workloads.FO_ALL + workloads.FO_CLASSES:
        texts, constants = workloads.rename(rng, [rung.conclusion])
        phi = logic.parse(texts[0], constants)
        for inst in logic.closure_instances(phi, workloads.ELEMENTS):
            if rung.scheme == "CHAIN":
                assert logic.is_chain_instance(inst)
            elif rung.scheme:
                assert logic.match(logic.SCHEMES[rung.scheme], inst), rung.name


def test_renaming_keeps_name_order():
    rng = random.Random(1)
    texts, constants = workloads.rename(rng, ["{P}({c1}) sup {Q}({c2}) -> {p0} sup {p1}"])
    p, q = texts[0].split(" sup ")[0], texts[0].split(" sup ")[1]
    assert p[0] == "P" and q[0] == "Q" and constants == sorted(constants)
    atoms = texts[0].split("-> ")[1].split(" sup ")
    assert atoms == sorted(atoms) and all(len(a) == 3 for a in atoms)
