"""The exit-code contract, fuzzed: 0 valid or accepted, 1 a countermodel or
a rejection with its payload, 2 input at fault, and never a traceback."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from supkit.cli import run

_TOKENS = ("P(", "Q(", "R(", "f(", "c1", "c2", "@e0", "@e1", "v", "u", ",", ")", "(",
           "p0", "p1", "~", "/\\", "\\/", "->", "<->", "sup", "=", "forall v.",
           "exists u.", " ", "!", "P(v)")
_SENTENCES = ("P(c1)", "p0 sup p1 -> p0 \\/ p1", "(p0 sup p1) sup p2 -> p0 sup (p1 sup p2)",
              "forall v. (P(v) sup Q(v) -> Q(v) sup P(v))", "exists v. v = c1",
              "(forall v. P(v) sup Q(v)) -> forall v. P(v)", "P(f(c1)) sup P(@e1)")

_formulas = st.one_of(st.sampled_from(_SENTENCES),
                      st.lists(st.sampled_from(_TOKENS), max_size=8).map("".join))
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 2), st.sampled_from(_TOKENS)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(
            ("mode", "entries", "pair", "choice", "domain", "constants", "functions",
             "predicates", "atoms", "system", "lines", "formula", "just", "kind", "scheme",
             "from", "p0", "c1", "P", "e0")), inner, max_size=4)),
    max_leaves=8)
_FILES = {"table": {"mode": "sentence", "entries": [{"pair": ["p0", "p1"], "choice": "p1"}]},
          "model": {"atoms": {"p0": 1, "p1": 0}},
          "proof": {"system": "K0", "lines": [
              {"formula": "p0 -> p1 -> p0", "just": {"kind": "axiom", "scheme": "P1"}}]}}
# mostly values that are accepted, so that most searches run
_OPTIONS = {
    "--class": st.sampled_from(("all", "reg", "asso", "regstar", "dec") * 3 + ("none",)),
    "--max-domain": st.sampled_from(("1", "2") * 3 + ("0", "-1")),
    "--oracle-bound": st.sampled_from(("1", "2") * 3 + ("0",)),
    "--jobs": st.integers(1, 3).map(str),
}


@st.composite
def _argv(draw, directory):
    """A command line over files that the draw writes into ``directory``."""
    command = draw(st.sampled_from(
        ("parse", "classify", "collapse", "eval", "taut", "consequence", "check-proof")))
    argv = [command]
    files = {"check-proof": ("proof",), "collapse": ("table",),
             "eval": ("model", "table")}.get(command, ())
    for name in files:
        path = os.path.join(directory, f"{name}.json")
        data = draw(st.one_of(st.just(_FILES[name]), _json))
        with open(path, "w") as handle:
            handle.write(json.dumps(data) if draw(st.booleans()) else json.dumps(data)[:-1])
        argv += [path] if command == "check-proof" else [f"--{name}", path]
    if command == "consequence":
        argv += ["--premises", draw(_formulas), "--conclusion", draw(_formulas)]
    elif command != "check-proof":
        argv += ["--formula", draw(_formulas)]
    if command in ("taut", "consequence"):
        for option, values in _OPTIONS.items():
            if draw(st.booleans()):
                argv += [option, draw(values)]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


def _run_and_check(argv):
    """Run one command line and assert the exit-code contract on it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:   # argparse rejects the command line
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    if code == 2:
        assert err.startswith(("error: ", "usage: ")), (argv, err)
    if code == 1 and argv[0] == "demo":
        # a demonstration whose claim fails over the searched bounds
        assert out, argv
        if "--json" in argv:
            payload = json.loads(out)
            rows = payload if isinstance(payload, list) else [payload]
            assert any(row.get(claim) is False for row in rows for claim in
                       ("ok", "verified", "contradiction", "dichotomy")), payload
            assert argv[1] != "interpolation" or payload["violations"] > 0
    elif code == 1:
        assert argv[0] in ("taut", "consequence", "check-proof"), argv
        if "--json" in argv:
            payload = json.loads(out)
            assert payload.get("result") == "countermodel" or payload.get("ok") is False
            assert "countermodel" in payload or "reason" in payload
        else:
            assert out.startswith(("countermodel found:", "rejected at line")), out


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_exit_codes_hold_their_contract(data):
    with tempfile.TemporaryDirectory() as directory:
        _run_and_check(data.draw(_argv(directory)))


_ALPHAS = ("P(v)", "R(v,c1)", "v = c3", "P(v) \\/ Q(c1)", "exists u. R(u,v)", "P(g(v))",
           "P(c1)", "P(v) /\\ Q(u)", "P(v) sup Q(v)")
_TERMS = ("c1", "c2", "c3", "@e0", "g(c1)") * 2 + ("v", "g(")
_THEORIES = (
    {"markings": {"p0 sup p1": True, "p0": True, "p1": False}},
    {"markings": {"p0 sup p1": True, "p0": False, "p1": False}},
    {"markings": {"~~p0 sup p1": True, "p0 sup p1": True, "~~p0": True, "p0": True,
                  "p1": True}},
    {"markings": {"~~P(c1) sup Q(c1)": True, "P(c1) sup Q(c1)": True, "~~P(c1)": True,
                  "P(c1)": True, "Q(c1)": True}},
    {"markings": {"forall v. P(v) sup Q(v)": True, "P(c1) sup Q(c1)": True}},
)
# mostly values that are accepted, so that most demonstrations run
_DEMO_OPTIONS = {
    "--case": st.sampled_from(("1", "2", "3", "4") * 2 + ("5",)),
    "--alpha": st.one_of(st.sampled_from(_ALPHAS), st.sampled_from(_ALPHAS), _formulas),
    "--t1": st.sampled_from(_TERMS),
    "--t2": st.sampled_from(_TERMS),
    "--max-domain": st.sampled_from(("1", "2") * 3 + ("0",)),
    "--oracle-bound": st.sampled_from(("1", "2") * 3 + ("0",)),
    "--samples": st.sampled_from(("0", "1", "2", "3") * 2 + ("-1",)),
    "--seed": st.integers(0, 3).map(str),
}
_DEMO_USES = {
    "no-uniform": ("--alpha", "--oracle-bound"),
    "object-superposition": ("--oracle-bound",),
    "build-model": ("--max-domain", "--oracle-bound"),
    "ui-failure": ("--case", "--alpha", "--t1", "--t2", "--max-domain"),
    "ui-failure-general": ("--case", "--max-domain"),
    "interpolation": ("--samples", "--seed"),
}


@st.composite
def _demo_argv(draw, directory):
    """A ``demo`` command line, with the options its demonstration reads and,
    for build-model, a theory file that the draw writes into ``directory``."""
    which = draw(st.sampled_from(("no-uniform", "object-superposition", "build-model",
                                  "ui-failure") * 3 + ("ui-failure-general", "interpolation")))
    argv = ["demo", which]
    if which == "interpolation":   # the one slow demonstration: keep it small
        argv += ["--samples", draw(_DEMO_OPTIONS["--samples"])]
    if which == "build-model":
        argv += ["--class", draw(st.sampled_from(("reg", "reg", "all")))]
        if draw(st.integers(0, 9)):
            path = os.path.join(directory, "theory.json")
            theory = draw(st.sampled_from(_THEORIES) if draw(st.integers(0, 3)) else _json)
            with open(path, "w") as handle:
                json.dump(theory, handle)
            argv += ["--theory", path]
    for option in _DEMO_USES[which]:
        if option not in argv and draw(st.booleans()):
            argv += [option, draw(_DEMO_OPTIONS[option])]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_demo_exit_codes_hold_their_contract(data):
    with tempfile.TemporaryDirectory() as directory:
        _run_and_check(data.draw(_demo_argv(directory)))


_JUSTS = st.sampled_from(({"kind": "hyp"}, {"kind": "axiom", "scheme": "P1"},
                          {"kind": "axiom", "scheme": "S3"}, {"kind": "axiom", "scheme": "UI"},
                          {"kind": "mp", "from": [1, 2]}, {"kind": "gr", "from": 1, "var": "v"},
                          {"kind": "sv", "from": 1}))


@st.composite
def _proof_files(draw):
    """Proofs of several lines whose formulas repeat drawn fragments, whole,
    in parentheses or with a parenthesis missing, so that a load's parse
    memo meets hits, misses and unmatched parentheses."""
    fragments = draw(st.lists(st.one_of(st.sampled_from(_SENTENCES), _formulas),
                              min_size=1, max_size=3))
    pieces = st.sampled_from(fragments * 2 + [f"({f})" for f in fragments]
                             + [f"(({f})" for f in fragments] + [f"{f})" for f in fragments])
    joints = st.sampled_from((" -> ", " sup ", " /\\ ", ""))
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        just = dict(draw(_JUSTS))
        if just.get("scheme") == "P1":   # accepted when both pieces parse
            first, second = draw(pieces), draw(pieces)
            formula = f"({first}) -> ({second}) -> ({first})"
        else:
            rest = draw(st.lists(st.tuples(joints, pieces), max_size=2))
            formula = draw(pieces) + "".join(joint + piece for joint, piece in rest)
        if just["kind"] == "sv":   # a certificate that repeats the lines so far
            just["cert"] = {"system": "K0", "lines": lines[:] or [
                {"formula": formula, "just": {"kind": "axiom", "scheme": "P1"}}]}
        lines.append({"formula": formula, "just": just})
    return {"system": draw(st.sampled_from(("K0", "K1", "L0", "L1"))),
            "hypotheses": draw(st.lists(pieces, max_size=2)), "lines": lines}


@settings(max_examples=60, deadline=None)
@given(_proof_files())
def test_check_proof_exit_codes_hold_on_repeated_fragments(proof):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "proof.json")
        with open(path, "w") as handle:
            json.dump(proof, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["check-proof", path, "--json"])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (proof, code)
    assert "Traceback" not in err, proof
    if code == 2:
        assert err.startswith("error: ") and out == "", (proof, err)
    else:
        payload = json.loads(out)
        assert payload["ok"] is (code == 0), payload
        assert code == 0 or "reason" in payload, payload
