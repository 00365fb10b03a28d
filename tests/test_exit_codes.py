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


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_exit_codes_hold_their_contract(data):
    with tempfile.TemporaryDirectory() as directory:
        argv = data.draw(_argv(directory))
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
    if code == 1:
        assert argv[0] in ("taut", "consequence", "check-proof"), argv
        if "--json" in argv:
            payload = json.loads(out)
            assert payload.get("result") == "countermodel" or payload.get("ok") is False
            assert "countermodel" in payload or "reason" in payload
        else:
            assert out.startswith(("countermodel found:", "rejected at line")), out
