import json
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from supkit import cli, models, semantics
from supkit.choice import ChoiceTable
from supkit.cli import run
from supkit.corpus import corpus_entries, mutant_entries
from supkit.models import Valuation
from supkit.proofs import proof_to_json
from supkit.semantics import (
    SearchBudgetError,
    SearchSpace,
    check_consequence,
    class_spec_for,
    eval_scs,
)
from supkit.syntax import PropAtom, parse


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_roundtrip(capsys):
    code, out, _ = invoke(capsys, "parse", "--formula", "p0 \\/ p1 sup p2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["formula"] == "p0 \\/ p1 sup p2"
    assert data["class"] == "basic"


def test_parse_error_exit_2(capsys):
    code, _, err = invoke(capsys, "parse", "--formula", "p0 sup")
    assert code == 2 and "error" in err


def test_classify(capsys):
    code, out, _ = invoke(capsys, "classify", "--formula",
                          "forall v. P(v) sup Q(v)")
    assert code == 0 and out.strip() == "restricted"


def test_collapse_with_table_file(capsys, tmp_path):
    table = (ChoiceTable()
             .with_entry(PropAtom("p0"), PropAtom("p1"), PropAtom("p1")))
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table.to_json()))
    code, out, _ = invoke(capsys, "collapse", "--table", str(path),
                          "--formula", "~(p0 sup p1)")
    assert code == 0 and out.strip() == "~p1"


def test_eval_scs(capsys, tmp_path):
    table = (ChoiceTable()
             .with_entry(PropAtom("p0"), PropAtom("p1"), PropAtom("p0")))
    tpath = tmp_path / "table.json"
    tpath.write_text(json.dumps(table.to_json()))
    mpath = tmp_path / "model.json"
    mpath.write_text(json.dumps({"atoms": {"p0": 1, "p1": 0}}))
    code, out, _ = invoke(capsys, "eval", "--scs", "--model", str(mpath),
                          "--table", str(tpath), "--formula", "p0 sup p1")
    assert code == 0 and "true" in out


def test_taut_s4_asso_vs_all(capsys):
    s4 = "(p0 sup p1) sup p2 -> p0 sup (p1 sup p2)"
    code, out, _ = invoke(capsys, "taut", "--class", "asso", "--formula", s4)
    assert code == 0 and "valid" in out
    code, out, _ = invoke(capsys, "taut", "--class", "all", "--formula", s4,
                          "--json")
    assert code == 1
    data = json.loads(out)
    assert data["result"] == "countermodel" and data["verified"]


def test_countermodel_reverifies_through_eval(capsys, tmp_path):
    code, out, _ = invoke(capsys, "consequence", "--premises", "p0 \\/ p1",
                          "--conclusion", "p0 sup p1", "--json")
    assert code == 1
    data = json.loads(out)
    cm = data["countermodel"]
    table = ChoiceTable.from_json(cm["table"])
    valuation = Valuation.from_json(cm["valuation"])
    assert eval_scs(valuation, table, parse("p0 \\/ p1"))
    assert not eval_scs(valuation, table, parse("p0 sup p1"))
    # and through the eval subcommand itself
    tpath = tmp_path / "table.json"
    tpath.write_text(json.dumps(cm["table"]))
    mpath = tmp_path / "model.json"
    mpath.write_text(json.dumps(cm["valuation"]))
    code, out, _ = invoke(capsys, "eval", "--model", str(mpath), "--table",
                          str(tpath), "--formula", "p0 sup p1")
    assert code == 0 and "false" in out


def test_consequence_interpolation(capsys):
    code, out, _ = invoke(capsys, "consequence", "--premises", "p0 /\\ p1",
                          "--conclusion", "p0 sup p1")
    assert code == 0 and "valid" in out


def test_a_named_parameter_does_not_capture_a_quantifier_instance(capsys):
    # P(v) sup P(v) always picks P(v), so the left disjunct is valid
    code, _, _ = invoke(capsys, "taut", "--formula",
                        "((forall v. (P(v) sup P(v))) -> forall v. P(v))"
                        " \\/ (P(@e0) /\\ ~P(@e0))", "--max-domain", "2")
    assert code == 0


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_parameters_name_the_elements_of_the_searched_domains(capsys, jobs):
    """A parameter names its element: the space starts at the least domain
    that holds it and says so, and a parameter that names no element, or a
    bound that leaves its element out, is an input error."""
    code, out, _ = invoke(capsys, "taut", "--formula", "P(@e2) -> P(@e1)", "--json",
                          "--jobs", jobs)
    data = json.loads(out)
    assert code == 1 and data["space"]["min_domain"] == 3 and data["models_checked"] == 2
    assert data["countermodel"]["structure"]["constants"] == {}
    code, out, _ = invoke(capsys, "taut", "--formula", "P(@e0) -> P(@e0)", "--json",
                          "--jobs", jobs)
    assert code == 0 and "min_domain" not in json.loads(out)["space"]
    for argv, message in [
            (["--formula", "P(@foo) -> P(@foo)"],
             "error: parameter @foo names no domain element: the elements are e0, e1, ...\n"),
            (["--formula", "P(@e01) -> P(@e01)"],
             "error: parameter @e01 names no domain element: the elements are e0, e1, ...\n"),
            (["--formula", "P(@e2) -> P(@e2)", "--max-domain", "2"],
             "error: the domain bound 2 leaves out element e2, which a parameter names\n"),
            (["--formula", "P(@e4095) -> P(@e4095)", "--max-domain", "99999999999"],
             "error: the parameters need domain size 4096, whose structures have 8192 "
             "elements and digits, more than 4096\n")]:
        assert invoke(capsys, "taut", *argv, "--jobs", jobs) == (2, "", message)


def test_a_model_file_may_not_name_a_constant_as_a_parameter(capsys, tmp_path):
    """Countermodel files once carried constants such as ``@e0``; a
    parameter now names its element, so they are refused, not read anew."""
    model, table = tmp_path / "model.json", tmp_path / "table.json"
    model.write_text(json.dumps({"domain": ["e0", "e1"], "constants": {"@e0": "e1"},
                                 "predicates": {"P": [["e1"]]}}))
    table.write_text(json.dumps({"mode": "sentence", "entries": []}))
    code, _, err = invoke(capsys, "eval", "--model", str(model), "--table", str(table),
                          "--formula", "P(@e0)")
    assert code == 2 and "constant '@e0' is not an identifier" in err
    model.write_text(json.dumps({"domain": ["e0", "e1"], "predicates": {"P": [["e1"]]}}))
    assert invoke(capsys, "eval", "--model", str(model), "--table", str(table),
                  "--formula", "P(@e0)") == (0, "sentence-choice: false\n", "")


def test_jobs_flag_matches_serial(capsys):
    args = ("taut", "--class", "all", "--formula",
            "(forall v. P(v)) -> P(c1)", "--max-domain", "2")
    code1, out1, _ = invoke(capsys, *args)
    code2, out2, _ = invoke(capsys, *args, "--jobs", "2")
    assert code1 == code2 == 0
    assert "valid" in out1 and "valid" in out2


def test_jobs_json_identical_to_serial(capsys):
    # one valid and one refuted rung: verdict, countermodel and counts agree
    for formula in ("(forall v. P(v) sup Q(v)) -> exists v. (P(v) sup Q(v))",
                    "(forall v. P(v) sup Q(v)) -> forall v. P(v)"):
        args = ("taut", "--class", "all", "--formula", formula,
                "--max-domain", "2", "--json")
        outputs = set()
        for jobs in ("1", "2", "3"):
            code, out, _ = invoke(capsys, *args, "--jobs", jobs)
            outputs.add((code, out))
        assert len(outputs) == 1
        data = json.loads(outputs.pop()[1])
        assert data["tables_checked"] > 0


def test_jobs_keeps_the_budget():
    phi = parse("(forall v. (P(v) sup Q(v))) -> exists v. (P(v) sup Q(v))")
    spec = class_spec_for("all", [phi])
    space = SearchSpace.for_task([phi])
    for jobs in (1, 2, 3):
        with pytest.raises(SearchBudgetError):
            check_consequence([], phi, spec, space, jobs=jobs, budget=10)
    serial = check_consequence([], phi, spec, SearchSpace.for_task([phi], max_domain=2))
    for jobs in (2, 3):
        parallel = check_consequence([], phi, spec, SearchSpace.for_task([phi], max_domain=2),
                                     jobs=jobs,
                           budget=serial.tables_checked)
        assert parallel.to_json() == serial.to_json()
        with pytest.raises(SearchBudgetError):
            check_consequence([], phi, spec, SearchSpace.for_task([phi], max_domain=2),
                              jobs=jobs,
                    budget=serial.tables_checked - 1)


@pytest.mark.parametrize("formula", ["P(v)", "(forall v. P(v) sup Q(v)) sup P(c1)"])
def test_jobs_rejects_input_as_serial_does(capsys, formula):
    serial = invoke(capsys, "taut", "--formula", formula, "--jobs", "1")
    parallel = invoke(capsys, "taut", "--formula", formula, "--jobs", "2")
    assert serial[0] == 2 and serial[2].startswith("error: ")
    assert parallel == serial


_P1_LINE = {"formula": "p0 -> p1 -> p0", "just": {"kind": "axiom", "scheme": "P1"}}


# Oracles with more models of one size than they hold: ``R/2`` with the
# constants ``?@e0`` and ``?@e1`` at size 5 of bound 6, and 41 atoms.
_OVERSIZE = {
    "first-order": ("--formula", "forall v. (R(v,v) sup R(v,@e1))", "--max-domain", "2",
                    "--oracle-bound", "6"),
    "propositional": ("--formula", "(p0 sup p1) -> (p0 \\/ p1) \\/ "
                      + " \\/ ".join(f"p{i}" for i in range(2, 41))),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("case", sorted(_OVERSIZE))
def test_an_oracle_too_large_to_hold_is_refused(capsys, monkeypatch, case, jobs):
    """The oracle refuses the task (exit 2) before it builds a block of more
    models than its limit of 2^25: a spy fails the test rather than let one
    be allocated."""
    class Spy(models.Block):
        def __init__(self, layout, start, width):
            assert width <= 1 << 25, width
            super().__init__(layout, start, width)

    monkeypatch.setattr(models, "Block", Spy)
    code, out, err = invoke(capsys, "taut", "--class", "reg", "--jobs", jobs, *_OVERSIZE[case])
    assert (code, out) == (2, "")
    assert err.startswith("error: the equivalence oracle would hold ") and \
        f"more than its limit of {1 << 25} (2^25)" in err


@pytest.mark.parametrize("proof", [
    [],
    {"lines": [_P1_LINE]},
    {"system": "K0"},
    {"system": "K0", "lines": [{"just": {"kind": "hyp"}}]},
    {"system": "K0", "lines": [{"formula": "p0"}]},
    {"system": "K0", "lines": [_P1_LINE, {"formula": "p0", "just": {"kind": "mp"}}]},
    {"system": "K0", "lines": [_P1_LINE, {"formula": "p0",
                                          "just": {"kind": "mp", "from": [1]}}]},
    {"system": "K0", "lines": [_P1_LINE, {"formula": "p0",
                                          "just": {"kind": "mp", "from": ["a", "b"]}}]},
    {"system": "L0", "lines": [_P1_LINE, {"formula": "forall v. p0 -> p1 -> p0",
                                          "just": {"kind": "gr", "from": [1], "var": "v"}}]},
    {"system": "K1", "lines": [_P1_LINE, {"formula": "p0", "just": {
        "kind": "sv", "from": "1", "cert": {"system": "K0", "lines": [_P1_LINE]}}}]},
])
def test_check_proof_malformed_json_exit_2(capsys, tmp_path, proof):
    path = tmp_path / "proof.json"
    path.write_text(json.dumps(proof))
    code, out, err = invoke(capsys, "check-proof", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: malformed proof JSON") and "Traceback" not in err



def test_check_proof_refuses_a_hypothesis_nested_too_deeply_after_a_shallower_one(
        capsys, tmp_path):
    """The second hypothesis wraps the first in 60 more pairs of
    parentheses: found in the memo or not, it is nested too deeply."""
    inner = "(" * 461 + "p0 -> p1" + ")" * 461
    deeper = "(" * 60 + inner + ")" * 60
    path = tmp_path / "proof.json"
    path.write_text(json.dumps({"system": "K0", "hypotheses": [inner, deeper],
                                "lines": [{"formula": inner, "just": {"kind": "hyp"}}]}))
    code, out, err = invoke(capsys, "check-proof", str(path))
    _assert_input_error(code, out, err)
    assert err == "error: hypothesis 2: input nested too deeply\n"

def test_check_proof_roundtrip(capsys, tmp_path):
    from supkit.corpus import corpus_entries, mutant_entries
    entry = corpus_entries()[0]
    path = tmp_path / "proof.json"
    path.write_text(json.dumps(proof_to_json(entry.proof)))
    code, out, _ = invoke(capsys, "check-proof", str(path))
    assert code == 0 and "ok" in out
    mutant = mutant_entries()[0]
    path.write_text(json.dumps(proof_to_json(mutant.proof)))
    code, out, _ = invoke(capsys, "check-proof", str(path))
    assert code == 1 and f"line {mutant.expect_line}" in out


def test_check_proof_parse_error_names_its_line(capsys, tmp_path):
    from supkit.corpus import corpus_entries
    proof = next(e.proof for e in corpus_entries() if e.name == "k1_sv_double_negation")
    sv_line = len(proof.lines)
    bad = "(p0 -> p1) -> (P(c1) sup c1)"
    message = "expected EQ, found ')' (at position 27)"
    path = tmp_path / "proof.json"
    for where, expected in (("line", f"line 57: {message}"),
                            ("cert", f"certificate of line {sv_line}, line 41: {message}"),
                            ("hypothesis", f"hypothesis 1: {message}")):
        data = proof_to_json(proof)
        if where == "line":
            data["lines"][56]["formula"] = bad
        elif where == "cert":
            data["lines"][sv_line - 1]["just"]["cert"]["lines"][40]["formula"] = bad
        else:
            data["hypotheses"] = [bad]
        path.write_text(json.dumps(data))
        code, out, err = invoke(capsys, "check-proof", str(path), "--json")
        assert (code, out, err) == (2, "", f"error: {expected}\n")


@pytest.mark.parametrize("where, place", [
    ("line", "line 57"), ("cert", "certificate of line {sv}, line 41"),
    ("certificate", "certificate of line {sv}"), ("hypothesis", "hypothesis 2"),
], ids=("line", "certificate-line", "certificate", "hypothesis"))
def test_check_proof_malformed_json_names_its_place(capsys, tmp_path, where, place):
    from supkit.corpus import corpus_entries
    proof = next(e.proof for e in corpus_entries() if e.name == "k1_sv_double_negation")
    sv_line = len(proof.lines)
    data = proof_to_json(proof)
    cert = data["lines"][sv_line - 1]["just"]["cert"]
    bad_mp = {"kind": "mp", "from": [1]}
    if where == "line":
        data["lines"][56]["just"] = bad_mp
    elif where == "cert":
        cert["lines"][40]["just"] = bad_mp
    elif where == "certificate":
        cert["system"] = 5
    else:
        data["hypotheses"] = ["p0", 5]
    problem = {"certificate": "'system' must be a string",
               "hypothesis": "a hypothesis must be a string"}.get(
                   where, "an mp 'from' must be two line numbers")
    path = tmp_path / "proof.json"
    path.write_text(json.dumps(data))
    code, out, err = invoke(capsys, "check-proof", str(path), "--json")
    place = place.format(sv=sv_line)
    assert (code, out, err) == (2, "", f"error: malformed proof JSON: {place}: {problem}\n")


def test_demo_no_uniform(capsys):
    code, out, _ = invoke(capsys, "demo", "no-uniform", "--alpha", "P(v)")
    assert code == 0
    assert "contradiction established: True" in out


def test_demo_ui_failure_single_case(capsys):
    code, out, _ = invoke(capsys, "demo", "ui-failure", "--case", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data[0]["case"] == 1 and data[0]["verified"]


def test_demo_object_superposition(capsys):
    code, out, _ = invoke(capsys, "demo", "object-superposition")
    assert code == 0 and "dichotomy holds: True" in out


def test_demo_build_model(capsys, tmp_path):
    theory = {
        "markings": {"p0 sup p1": True, "p0": True, "p1": False},
    }
    path = tmp_path / "theory.json"
    path.write_text(json.dumps(theory))
    code, out, _ = invoke(capsys, "demo", "build-model", "--theory", str(path))
    assert code == 0 and "satisfies every marked sentence: true" in out
    bad = {"markings": {"p0 sup p1": True, "p0": False, "p1": False}}
    path.write_text(json.dumps(bad))
    code, out, _ = invoke(capsys, "demo", "build-model", "--theory", str(path))
    assert code == 1 and "a7" in out


def test_demo_interpolation_small(capsys):
    code, out, _ = invoke(capsys, "demo", "interpolation", "--samples", "5",
                          "--seed", "1", "--json")
    assert code == 0
    assert json.loads(out)["violations"] == 0


def test_oracle_bound_env(capsys):
    code, out, _ = invoke(capsys, "demo", "no-uniform", "--oracle-bound", "2")
    assert code == 0


def test_eval_fcs_formula_mode(capsys, tmp_path):
    table = {"mode": "formula",
             "entries": [{"pair": ["P(v)", "Q(v)"], "choice": "Q(v)"}]}
    tpath = tmp_path / "table.json"
    tpath.write_text(json.dumps(table))
    model = {"domain": ["e0"], "predicates": {"P": [], "Q": [["e0"]]}}
    mpath = tmp_path / "model.json"
    mpath.write_text(json.dumps(model))
    code, out, _ = invoke(capsys, "eval", "--fcs", "--model", str(mpath),
                          "--table", str(tpath), "--formula",
                          "forall v. P(v) sup Q(v)")
    assert code == 0 and "true" in out


def test_check_proof_unrestricted_flag(capsys, tmp_path):
    proof = {
        "system": "L0",
        "hypotheses": ["(forall v. P(v) sup Q(v)) sup P(c1)"],
        "lines": [{"formula": "(forall v. P(v) sup Q(v)) sup P(c1)",
                   "just": {"kind": "hyp"}}],
    }
    path = tmp_path / "proof.json"
    path.write_text(json.dumps(proof))
    code, out, _ = invoke(capsys, "check-proof", str(path))
    assert code == 1 and "restricted" in out
    code, out, _ = invoke(capsys, "check-proof", str(path), "--unrestricted")
    assert code == 0


# For each flag, an L0 proof that is rejected without it and accepted with it.
_FLAGGED = {
    "unrestricted": {"system": "L0", "hypotheses": ["(forall v. P(v) sup Q(v)) sup P(c1)"],
                     "lines": [{"formula": "(forall v. P(v) sup Q(v)) sup P(c1)",
                                "just": {"kind": "hyp"}}]},
    "allow_open_hypotheses": {"system": "L0", "hypotheses": ["P(v)"], "lines": [
        {"formula": "P(v)", "just": {"kind": "hyp"}},
        {"formula": "forall u. P(v)", "just": {"kind": "gr", "from": 1, "var": "u"}}]},
}


@pytest.mark.parametrize("flag", sorted(_FLAGGED))
def test_check_proof_flags_must_be_json_booleans(capsys, tmp_path, flag):
    from supkit.corpus import corpus_entries
    path = tmp_path / "proof.json"

    def check(data):
        path.write_text(json.dumps(data))
        return invoke(capsys, "check-proof", str(path), "--json")

    proof = _FLAGGED[flag]
    assert check(proof)[0] == check(proof | {flag: False})[0] == 1
    assert check(proof | {flag: True})[0] == 0
    for value in ("false", "true", 1, 0, None, []):
        assert check(proof | {flag: value}) == (
            2, "", f"error: malformed proof JSON: {flag!r} must be a boolean\n")
    sv_proof = next(e.proof for e in corpus_entries() if e.name == "k1_sv_double_negation")
    sv_line = len(sv_proof.lines)
    data = proof_to_json(sv_proof)
    cert = data["lines"][sv_line - 1]["just"]["cert"]
    for value in (True, False):
        cert[flag] = value
        assert check(data)[0] == 0
    cert[flag] = "false"
    assert check(data) == (2, "", f"error: malformed proof JSON: certificate of line "
                                  f"{sv_line}: {flag!r} must be a boolean\n")


def test_demo_build_model_reg(capsys, tmp_path):
    theory = {"markings": {"~~p0 sup p1": True, "p0 sup p1": True,
                           "~~p0": True, "p0": True, "p1": True}}
    path = tmp_path / "theory.json"
    path.write_text(json.dumps(theory))
    code, out, _ = invoke(capsys, "demo", "build-model", "--theory", str(path),
                          "--class", "reg")
    assert code == 0 and "regular: True" in out


@pytest.mark.parametrize("which", ["ui-failure", "ui-failure-general"])
def test_demo_ui_failure_reads_its_domain_bound(capsys, which):
    assert invoke(capsys, "demo", which, "--max-domain", "0") == \
        (2, "", "error: --max-domain must be a positive integer\n")
    code, out, err = invoke(capsys, "demo", which, "--max-domain", "1")
    assert (code, out) == (2, "") and err.startswith("error: (c) fails: ") and \
        err.endswith(" domain size <= 1\n")
    assert invoke(capsys, "demo", which, "--max-domain", "3") == invoke(capsys, "demo", which)


@pytest.mark.parametrize("alpha", ["P(v) /\\ Q(u)", "P(c1)"])
def test_demo_ui_failure_needs_one_free_variable(capsys, alpha):
    # the message of constructions.renamed, which the witness also runs
    assert invoke(capsys, "demo", "ui-failure", "--alpha", alpha) == \
        (2, "", "error: alpha must have exactly one free variable\n")


def test_demo_ui_failure_general_all_cases(capsys):
    code, out, _ = invoke(capsys, "demo", "ui-failure-general", "--json")
    assert code == 0
    data = json.loads(out)
    assert [d["case"] for d in data] == [1, 2, 3, 4]
    assert all(d["verified"] for d in data)


_GOOD_EVAL_FILES = {"model": {"domain": ["e0"], "constants": {"c1": "e0"}},
                    "table": {"entries": []}}


def _eval_with(tmp_path, files):
    argv = ["eval", "--formula", "P(c1)"]
    for name, data in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        argv += [f"--{name}", str(path)]
    return argv


def _assert_input_error(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_eval_accepts_well_formed_files(capsys, tmp_path):
    code, out, _ = invoke(capsys, *_eval_with(tmp_path, _GOOD_EVAL_FILES))
    assert code == 0 and out == "sentence-choice: false\n"


@pytest.mark.parametrize("bad", [
    {"model": {"domain_missing": 1}},
    {"model": [1]},
    {"model": None},
    {"model": 5},
    {"model": {"domain": [0]}},
    {"model": {"domain": ["e0"], "constants": {"c1": "e5"}}},
    {"model": {"domain": ["e0"], "constants": {"c1": "e0"}, "functions": {"g": {"e9": "e0"}}}},
    {"model": {"domain": ["e0"], "constants": {"c1": "e0"}, "functions": {"g": {"e0": "e9"}}}},
    {"model": {"domain": ["e0"], "constants": {"c1": "e0"}, "predicates": {"P": [["e9"]]}}},
    {"model": {"domain": ["e0"], "constants": {"c1": "e0"}, "predicates": {"P": ["e0"]}}},
    {"model": {"atoms": {"p0": "yes"}}},
    {"table": {"entries": [{"choice": "P(c1)"}]}},
    {"table": {"entries": [{"pair": ["P(c1)"], "choice": "P(c1)"}]}},
    {"table": {"entries": [{"pair": ["P(c1)", "Q(c1)"]}]}},
    {"table": {"mode": 3}},
    {"table": []},
    {"sig": {"constants": 5}},
    {"sig": {"predicates": ["P"]}},
    {"sig": {"functions": {"g": True}}},
    {"sig": "P"},
])
def test_malformed_model_table_or_signature_exit_2(capsys, tmp_path, bad):
    argv = _eval_with(tmp_path, _GOOD_EVAL_FILES | bad)
    _assert_input_error(*invoke(capsys, *argv))


@pytest.mark.parametrize("theory", [None, {"marks": {}}, {"markings": []},
                                    {"markings": {}, "signature": 5},
                                    {"markings": {"p0": "false"}}, {"markings": {"p0": [1]}},
                                    {"markings": {"p0": 1}}])
def test_demo_build_model_malformed_theory_exit_2(capsys, tmp_path, theory):
    argv = ["demo", "build-model"]
    if theory is not None:
        path = tmp_path / "theory.json"
        path.write_text(json.dumps(theory))
        argv += ["--theory", str(path)]
    _assert_input_error(*invoke(capsys, *argv))


@pytest.mark.parametrize("formula, model", [
    ("P(c1)", {"domain": ["a", "a"], "constants": {"c1": "a"}}),
    ("exists v. P(v)", {"domain": ["a", "b"], "predicates": {"P": [["a", "b"]]}}),
    ("exists v. P(v)", {"domain": ["a", "b"], "predicates": {"P": [["a"], ["a", "b"]]}}),
    ("exists v. g(v) = v", {"domain": ["a", "b"], "functions": {"g": {"a,b": "a"}}}),
    ("exists v. g(v) = v", {"domain": ["a", "b"],
                            "functions": {"g": {"a": "a", "b": "b", "a,b": "a"}}}),
], ids=["repeated-element", "predicate-arity", "mixed-predicate-tuples", "function-arity",
        "mixed-function-keys"])
def test_eval_refuses_a_model_read_two_ways(capsys, tmp_path, formula, model):
    """A model whose JSON can be read two ways is an input error: a domain
    that lists an element twice, a symbol interpreted with tuples of two
    lengths, or with another arity than the formula's."""
    files = {"model": model, "table": {"entries": []}}
    argv = _eval_with(tmp_path, files)
    argv[argv.index("--formula") + 1] = formula
    _assert_input_error(*invoke(capsys, *argv))


_NESTED = {
    "parentheses": lambda n: "(" * n + "p0" + ")" * n,
    "negations": lambda n: "~" * n + "p0",
    "conjuncts": lambda n: " /\\ ".join(["p0"] * n),
}


@pytest.mark.parametrize("shape, depth", [("parentheses", 100), ("negations", 300),
                                          ("conjuncts", 300)])
def test_deep_nesting_exit_2(capsys, shape, depth):
    code, out, _ = invoke(capsys, "parse", "--formula", _NESTED[shape](depth))
    assert code == 0 and out.endswith("class: classical\n")
    code, out, err = invoke(capsys, "parse", "--formula", _NESTED[shape](3000))
    _assert_input_error(code, out, err)
    assert err == "error: input nested too deeply\n"


def test_deep_negation_prints_and_round_trips(capsys):
    # the printer takes one call per level, so it reaches as deep as the
    # search does on the same formula; printing the parse gives the input
    formula = "~" * 400 + "P(c1)"
    code, out, _ = invoke(capsys, "parse", "--formula", formula)
    assert code == 0 and out == formula + "\nclass: classical\n"


def test_demo_interpolation_checks_samples(capsys):
    _assert_input_error(*invoke(capsys, "demo", "interpolation", "--samples", "-1"))
    code, out, _ = invoke(capsys, "demo", "interpolation", "--samples", "0", "--json")
    assert code == 0 and json.loads(out)["violations"] == 0


def test_demo_build_model_checks_max_domain(capsys, tmp_path):
    path = tmp_path / "theory.json"
    path.write_text(json.dumps({"markings": {"p0": True}}))
    argv = ["demo", "build-model", "--theory", str(path), "--max-domain"]
    _assert_input_error(*invoke(capsys, *argv, "0"))
    assert invoke(capsys, *argv, "1")[0] == 0


def test_demo_build_model_checks_the_fragment_at_max_domain(capsys, tmp_path):
    # two elements are needed: a rejection (exit 1) at bound 1, a model at 2
    path = tmp_path / "theory.json"
    path.write_text(json.dumps({"markings": {"exists v. exists u. ~(v = u)": True}}))
    argv = ["demo", "build-model", "--theory", str(path), "--max-domain"]
    assert invoke(capsys, *argv, "1") == (
        1, "fragment rejected (consistency): classical part has no model with "
           "domain size <= 1\n", "")
    code, out, _ = invoke(capsys, *argv, "1", "--json")
    assert code == 1 and json.loads(out) == {
        "ok": False, "case": "consistency",
        "reason": "classical part has no model with domain size <= 1"}
    code, out, _ = invoke(capsys, *argv, "2")
    assert code == 0 and "domain={e0,e1}" in out


class _InProcess:
    """Stands in for multiprocessing.Process: counts the workers started, and
    runs each one's body in this process when it is started."""

    def __init__(self, started, target, args, daemon):
        started.append(self)
        self.target, self.args = target, args

    def start(self):
        handler = signal.getsignal(signal.SIGINT)   # the body ignores SIGINT
        self.target(*self.args)
        signal.signal(signal.SIGINT, handler)

    def kill(self):
        pass

    def join(self):
        pass


@pytest.mark.parametrize("width, jobs, workers", [
    (semantics.BLOCK_WIDTH, 5000, 1), (1, 3, 2), (1, 5000, 9),
])
def test_jobs_start_no_more_workers_than_blocks(capsys, monkeypatch, width, jobs, workers):
    # P(c1) has 2 and 8 structures of sizes 1 and 2: 2 blocks, or 10 of one
    # model; this process scans the first share, a worker each other share
    monkeypatch.setattr(semantics, "BLOCK_WIDTH", width)
    started = []
    monkeypatch.setattr(multiprocessing, "Process",
                        lambda **kw: _InProcess(started, **kw))
    args = ("taut", "--formula", "P(c1) sup P(c1) -> P(c1)", "--max-domain", "2", "--json")
    serial = invoke(capsys, *args)
    assert invoke(capsys, *args, "--jobs", str(jobs)) == serial
    assert len(started) == workers
    assert json.loads(serial[1])["models_checked"] == 10


# One process, one parser: each call must print what a fresh process prints,
# with argparse errors between the calls, and see no option that an earlier
# call gave (the premises before a taut, --jobs, --case, --oracle-bound).
_SEQUENCE = (
    ["consequence", "--premises", "P(c1)", "--conclusion", "P(c1) sup Q(c1) -> P(c1)",
     "--jobs", "2", "--max-domain", "1", "--json"],
    ["taut", "--formula", "P(c1) sup Q(c1) -> P(c1)", "--max-domain", "1"],
    ["taut", "--nope"],
    ["demo", "ui-failure", "--case", "2", "--json"],
    ["demo", "ui-failure"],
    ["demo", "no-uniform", "--oracle-bound", "1", "--json"],
    ["classify"],
    ["demo", "no-uniform", "--json"],
    ["consequence", "--conclusion", "P(c1) -> P(c1)", "--class", "reg", "--json"],
    ["parse", "--formula", "P(c1) sup Q(c1)"],
)
_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _fresh_process(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-m", "supkit.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout


def test_an_oracle_block_keeps_no_digit_masks():
    """A block keeps one cache, of atoms' and sentences' masks, and builds a
    digit's mask each time it is asked for.  This run's oracle holds
    16,777,216 structures of size 4, so each mask takes 2 MiB: keeping
    every digit mask it built too, it peaked at about 113 MB, and it now
    peaks at about 70 MB (CPython 3.11, x86-64 Linux)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    argv = ["taut", "--formula", "forall v. ((~~R(v,c1) sup R(c1,v)) <-> (R(v,c1) sup R(c1,v)))",
            "--class", "dec", "--max-domain", "3", "--oracle-bound", "4", "--json"]
    child = subprocess.Popen([sys.executable, "-m", "supkit.cli", *argv], env=env,
                             stdout=subprocess.PIPE)
    out = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0 and json.loads(out)["result"] == "valid"
    assert usage.ru_maxrss < 92 * 1024, f"peak RSS {usage.ru_maxrss / 1024:.0f} MB"


def test_one_parser_serves_many_calls_as_fresh_processes_do(capsys):
    codes = []
    for argv in _SEQUENCE:
        try:
            code = run(list(argv))
        except SystemExit as exc:   # argparse rejects the command line
            code = exc.code
        out = capsys.readouterr().out
        assert (code, out) == _fresh_process(argv), argv
        codes.append(code)
    assert codes == [0, 1, 2, 0, 0, 2, 2, 0, 0, 0]
    for argv in _SEQUENCE:
        try:
            fresh = vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            continue
        assert vars(cli._parser().parse_args(argv)) == fresh, argv


def test_import_builds_no_parser():
    done = subprocess.run(
        [sys.executable, "-c",
         "import supkit.cli as c; print(c._parser.cache_info().currsize)"],
        env=dict(os.environ, PYTHONPATH=_SRC), capture_output=True, text=True, timeout=60)
    assert done.stdout == "0\n"


def test_import_loads_no_process_machinery(tmp_path):
    """A fresh import of the package and of what a search command runs loads
    no process pool, nor ``dataclasses`` and ``inspect``, nor the proof,
    construction and corpus modules; each exported name still resolves, and
    the commands that need those modules load them and keep their exit
    codes."""
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, supkit, supkit.semantics, supkit.cli;"
         " print(sorted({'multiprocessing', 'concurrent.futures'}"
         " & set(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=_SRC), capture_output=True, text=True, timeout=60)
    assert done.stdout == "[]\n"
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, supkit, supkit.semantics, supkit.cli;"
         " print(sorted({'dataclasses', 'inspect', 'supkit.proofs', 'supkit.constructions',"
         " 'supkit.corpus'} & set(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=_SRC), capture_output=True, text=True, timeout=60)
    assert done.stdout == "[]\n"
    done = subprocess.run(
        [sys.executable, "-c",
         "import supkit; print(len(supkit.__all__), sorted(set(supkit.__all__) - set(dir(supkit))));"
         " from supkit import *; print(sorted(set(supkit.__all__) - set(globals())));"
         " print(all(getattr(supkit, name) is globals()[name] for name in supkit.__all__))"],
        env=dict(os.environ, PYTHONPATH=_SRC), capture_output=True, text=True, timeout=60)
    assert done.stdout == "64 []\n[]\nTrue\n"
    accepted, rejected, theory = (tmp_path / name for name in ("ok.json", "bad.json", "t.json"))
    accepted.write_text(json.dumps(proof_to_json(corpus_entries()[-1].proof)))
    rejected.write_text(json.dumps(proof_to_json(mutant_entries()[0].proof)))
    theory.write_text(json.dumps({"markings": {"p0 sup p1": True, "p0": True, "p1": False}}))
    for argv, code in [
        (["check-proof", str(accepted)], 0),
        (["check-proof", str(rejected)], 1),
        (["demo", "ui-failure"], 0),
        (["demo", "ui-failure-general"], 0),
        (["demo", "no-uniform"], 0),
        (["demo", "object-superposition"], 0),
        (["demo", "build-model", "--theory", str(theory)], 0),
        (["demo", "build-model"], 2),
        (["demo", "interpolation", "--samples", "5"], 0),
    ]:
        assert _fresh_process(argv)[0] == code, argv
