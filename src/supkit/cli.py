"""Command-line interface: parsing, classification, collapsing, evaluation,
consequence/tautology checking, proof checking, and the demo suite.

Exit codes: 0 success or valid; 1 countermodel found or proof rejected;
2 usage or input errors, a formula nested too deeply included.  Verdict
reports always embed the searched space, so nothing claims more than what
was enumerated.  ``consequence`` and ``taut`` hand their search, ``--jobs``
included, to ``semantics.check_consequence``.

Importing this module loads what a search runs (``syntax``, ``models``,
``choice`` and ``semantics``); ``check-proof`` imports ``proofs``, and the
demos ``constructions`` or ``random``, when they run, so no command pays at
start-up for another's modules.
"""

import argparse
import functools
import itertools
import json
import sys

from .choice import (
    CLASS_NAMES,
    BoundedModelOracle,
    ChoiceTable,
    ClassSpec,
    collapse,
)
from .models import Structure, Valuation
from .semantics import (
    DEFAULT_DOMAIN_BOUND,
    DEFAULT_ORACLE_BOUND,
    SearchSpace,
    check_consequence,
    class_spec_for,
    eval_fcs,
    eval_scs,
)
from .syntax import (
    NESTED_TOO_DEEPLY,
    And,
    Constant,
    Iff,
    Implies,
    Not,
    Or,
    PropAtom,
    Signature,
    Sup,
    SupkitError,
    classify,
    json_field,
    parse,
    parse_term,
    to_text,
)

def _positive(value, name):
    if value < 1:
        raise SupkitError(f"{name} must be a positive integer")
    return value


def _oracle_bound(args):
    return _positive(args.oracle_bound, "--oracle-bound")


def _load_json(path):
    with open(path) as handle:
        return json.load(handle)


def _signature(args):
    if getattr(args, "sig", None):
        return Signature.from_json(_load_json(args.sig))
    return None  # parser falls back to the default signature


def _load_model(path):
    data = _load_json(path)
    if isinstance(data, dict) and "atoms" in data:
        return Valuation.from_json(data)
    return Structure.from_json(data)


def _emit(args, payload, text_lines):
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# Plain commands


def cmd_parse(args):
    phi = parse(args.formula, _signature(args))
    _emit(args, {"formula": to_text(phi), "class": str(classify(phi))},
          [to_text(phi), f"class: {classify(phi)}"])
    return 0


def cmd_classify(args):
    phi = parse(args.formula, _signature(args))
    _emit(args, {"class": str(classify(phi))}, [str(classify(phi))])
    return 0


def cmd_collapse(args):
    sig = _signature(args)
    table = ChoiceTable.from_json(_load_json(args.table), sig)
    phi = parse(args.formula, sig)
    result = collapse(table, phi)
    _emit(args, {"collapsed": to_text(result)}, [to_text(result)])
    return 0


def cmd_eval(args):
    sig = _signature(args)
    table = ChoiceTable.from_json(_load_json(args.table), sig)
    model = _load_model(args.model)
    phi = parse(args.formula, sig)
    if args.fcs:
        truth = eval_fcs(model, table, phi)
        relation = "formula-choice"
    else:
        truth = eval_scs(model, table, phi)
        relation = "sentence-choice"
    _emit(args, {"relation": relation, "truth": truth},
          [f"{relation}: {'true' if truth else 'false'}"])
    return 0


def _verdict_output(args, verdict):
    payload = verdict.to_json()
    payload["verified"] = verdict.verify()
    _emit(args, payload, _verdict_lines(verdict, payload["verified"]))
    return 0 if verdict.valid else 1


def _verdict_lines(verdict, verified):
    """The text output, built only as it is printed."""
    if verdict.valid:
        yield (f"valid over the searched space ({verdict.models_checked} models, "
               f"{verdict.tables_checked} tables)")
    else:
        yield "countermodel found:"
        yield "  " + verdict.countermodel.describe()
        yield f"  re-verified: {verified}"
    yield f"space: {json.dumps(verdict.space)}"


def cmd_consequence(args):
    sig = _signature(args)
    premises = [parse(text.strip(), sig)
                for text in args.premises.split(";") if text.strip()]
    conclusion = parse(args.conclusion, sig)
    formulas = premises + [conclusion]
    spec = class_spec_for(args.table_class, formulas, _oracle_bound(args))
    space = SearchSpace.for_task(
        formulas, max_domain=_positive(args.max_domain, "--max-domain"))
    verdict = check_consequence(premises, conclusion, spec, space,
                                jobs=_positive(args.jobs, "--jobs"))
    return _verdict_output(args, verdict)


def cmd_check_proof(args):
    from .proofs import check_proof, proof_from_json
    data = _load_json(args.proof)
    proof = proof_from_json(data, _signature(args))
    if args.unrestricted:
        proof = proof.replace(unrestricted=True)
    verdict = check_proof(proof)
    if verdict.ok:
        _emit(args, {"ok": True, "lines": len(proof.lines), "system": proof.system},
              [f"ok: {len(proof.lines)} lines check in {proof.system}"])
        return 0
    _emit(args, {"ok": False, "line": verdict.line, "reason": verdict.reason},
          [f"rejected at line {verdict.line}: {verdict.reason}"])
    return 1


# ---------------------------------------------------------------------------
# Demos


def demo_ui_failure(args):
    from . import constructions
    sig = _signature(args)
    alpha = parse(args.alpha, sig) if args.alpha else parse("v = c3", sig)
    t1, t2 = parse_term(args.t1, sig), parse_term(args.t2, sig)
    a1, a2 = constructions.renamed(alpha, "v1", "v2")
    max_domain = _positive(args.max_domain, "--max-domain")
    cases = [args.case] if args.case else [1, 2, 3, 4]
    rows = []
    for case in cases:
        table = constructions.ui_case_table(a1, a2, (t1, t2), case)
        witness = constructions.ui_failure_witness(alpha, t1, t2, table, max_domain)
        rows.append(witness)
    payload = [w.describe() | {"verified": w.verify()} for w in rows]
    lines = []
    for w, data in zip(rows, payload):
        lines.append(f"case {data['case']}: table [{w.table.describe()}]")
        lines.append(f"  holds:  forall-closure of {data['psi']}")
        lines.append(f"  fails:  {data['failing_instance']}")
        lines.append(f"  in:     {data['structure']}")
        lines.append(f"  verified by evaluation: {data['verified']}")
    _emit(args, payload, lines)
    return 0 if all(d["verified"] for d in payload) else 1


def demo_ui_failure_general(args):
    from . import constructions
    sig = Signature(predicates={"R": 2}, constants={"c1", "c2"})
    alpha, beta = parse("R(v1,v2)", sig), parse("R(v2,v1)", sig)
    t = (Constant("c1"), Constant("c2"))
    s = (Constant("c2"), Constant("c1"))
    max_domain = _positive(args.max_domain, "--max-domain")
    cases = [args.case] if args.case else [1, 2, 3, 4]
    payload, lines = [], []
    for case in cases:
        table = constructions.ui_case_table(alpha, beta, t, case)
        witness = constructions.ui_failure_general(alpha, beta, t, s, table, max_domain)
        data = witness.describe() | {"verified": witness.verify()}
        payload.append(data)
        lines.append(f"case {case}: fails {data['failing_instance']} "
                     f"(verified: {data['verified']})")
    _emit(args, payload, lines)
    return 0 if all(d["verified"] for d in payload) else 1


def demo_no_uniform(args):
    from . import constructions
    oracle = BoundedModelOracle(max_domain=_oracle_bound(args))
    alpha = parse(args.alpha or "P(v)")
    result = constructions.refute_uniformity(alpha, "v1", "v2", oracle)
    payload = result.describe()
    lines = [f"pair: {{{payload['pair'][0]}, {payload['pair'][1]}}}"]
    for branch in payload["branches"]:
        lines.append(f"assume choice {branch['assume']}: substitution gives "
                     f"{branch['after_swap']}, symmetry gives "
                     f"{branch['choice_on_swapped_pair']}; uniformity would need "
                     f"{branch['uniformity_requires']} -> {branch['holds']}")
    lines.append(f"no table satisfies the uniformity equation: "
                 f"{payload['exhaustive_over_tables']}")
    lines.append(f"contradiction established: {payload['contradiction']}")
    _emit(args, payload, lines)
    return 0 if result.contradiction() else 1


def demo_object_superposition(args):
    from . import constructions
    structure = Structure(domain=("a", "b"))
    report = constructions.object_superposition_report(
        structure, "a", "b", BoundedModelOracle(max_domain=_oracle_bound(args)))
    payload = report.describe()
    lines = [f"structure: {payload['structure']}"]
    for row in payload["tables"]:
        lines.append(f"  [{row['table']}] witnesses={row['witnesses']} "
                     f"unique={row['unique_witness']} regular={row['regular']}")
    lines.append(f"unique-witness tables: {payload['unique_count']}; "
                 f"regular tables: {payload['regular_count']}; "
                 f"dichotomy holds: {payload['dichotomy']}")
    _emit(args, payload, lines)
    return 0 if report.dichotomy_holds() else 1


def demo_build_model(args):
    from . import constructions
    if args.theory is None:
        raise SupkitError("build-model needs --theory")
    max_domain = _positive(args.max_domain, "--max-domain")
    data = _load_json(args.theory)
    markings = json_field(data, "markings", dict, "theory JSON")
    sig = Signature.from_json(data["signature"]) if "signature" in data else None
    markings = {parse(text, sig): json_field(markings, text, bool, "theory JSON")
                for text in markings}
    fragment = constructions.TheoryFragment.from_markings(markings, sig)
    spec = class_spec_for(args.table_class, fragment.sentences,
                          _oracle_bound(args) if args.table_class == "reg" else None)
    try:
        result = constructions.build_choice_from_theory(fragment, spec, max_domain)
    except constructions.FragmentError as exc:
        verdict = exc.verdict
        if verdict is None:
            raise
        _emit(args, {"ok": False, "case": verdict.case, "reason": verdict.reason},
              [f"fragment rejected ({verdict.case}): {verdict.reason}"])
        return 1
    payload = {"ok": True} | result.report
    lines = [f"model: {result.report['model']}",
             f"table: {result.table.describe() or '(empty)'}",
             "satisfies every marked sentence: true"]
    if "regular" in result.report:
        lines.append(f"regular: {result.report['regular']}")
    _emit(args, payload, lines)
    return 0


def _depth1_sentences():
    atoms = [PropAtom("p0"), PropAtom("p1")]
    out = list(atoms)
    out += [Not(a) for a in atoms]
    for left, right in itertools.product(atoms, repeat=2):
        for ctor in (And, Or, Implies, Iff, Sup):
            out.append(ctor(left, right))
    return out


def demo_interpolation(args):
    import random
    if args.samples < 0:
        raise SupkitError("--samples must be a non-negative integer")
    rng = random.Random(args.seed)
    sentences = _depth1_sentences()
    pairs = list(itertools.product(sentences, repeat=2))
    extra = [(rng.choice(sentences), Sup(rng.choice(sentences), rng.choice(sentences)))
             for _ in range(args.samples)]
    checked = violations = 0
    spec = ClassSpec("all")
    for phi, psi in pairs + extra:
        conj, sup, disj = And(phi, psi), Sup(phi, psi), Or(phi, psi)
        for premise, conclusion in ((conj, sup), (sup, disj)):   # laws S1 and S2
            verdict = check_consequence([premise], conclusion, spec)
            checked += verdict.tables_checked
            violations += not verdict.valid
    payload = {"pairs": len(pairs) + len(extra), "evaluations": checked,
               "violations": violations}
    lines = [f"interpolation sweep: {payload['pairs']} pairs, "
             f"{checked} leaf tables searched, "
             f"{violations} violations"]
    _emit(args, payload, lines)
    return 0 if violations == 0 else 1


DEMOS = {
    "ui-failure": demo_ui_failure,
    "ui-failure-general": demo_ui_failure_general,
    "no-uniform": demo_no_uniform,
    "object-superposition": demo_object_superposition,
    "build-model": demo_build_model,
    "interpolation": demo_interpolation,
}


def cmd_demo(args):
    return DEMOS[args.which](args)


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common(cmd):
    cmd.add_argument("--sig", help="signature JSON file")
    cmd.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="supkit",
        description="superposition logic toolkit: parse, evaluate, enumerate, check",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("parse", help="parse a formula and print its canonical form")
    cmd.add_argument("--formula", required=True)
    _add_common(cmd)
    cmd.set_defaults(func=cmd_parse)

    cmd = sub.add_parser("classify", help="classical/basic/restricted/unrestricted")
    cmd.add_argument("--formula", required=True)
    _add_common(cmd)
    cmd.set_defaults(func=cmd_classify)

    cmd = sub.add_parser("collapse", help="eliminate sup nodes through a table")
    cmd.add_argument("--table", required=True, help="choice table JSON file")
    cmd.add_argument("--formula", required=True)
    _add_common(cmd)
    cmd.set_defaults(func=cmd_collapse)

    cmd = sub.add_parser("eval", help="evaluate a sentence in (model, table)")
    group = cmd.add_mutually_exclusive_group()
    group.add_argument("--scs", action="store_true", default=True,
                       help="sentence-choice evaluation (default)")
    group.add_argument("--fcs", action="store_true", default=False,
                       help="formula-choice evaluation")
    cmd.add_argument("--model", required=True, help="structure or valuation JSON")
    cmd.add_argument("--table", required=True)
    cmd.add_argument("--formula", required=True)
    _add_common(cmd)
    cmd.set_defaults(func=cmd_eval)

    for name in ("consequence", "taut"):
        cmd = sub.add_parser(name, help=f"{name} over an enumerated space")
        cmd.add_argument("--class", dest="table_class", choices=CLASS_NAMES,
                         default="all")
        if name == "consequence":
            cmd.add_argument("--premises", default="",
                             help="semicolon-separated premise sentences")
            cmd.add_argument("--conclusion", required=True)
        else:
            cmd.add_argument("--formula", dest="conclusion", metavar="FORMULA",
                             required=True)
            cmd.set_defaults(premises="")
        cmd.add_argument("--max-domain", type=int, default=DEFAULT_DOMAIN_BOUND)
        cmd.add_argument("--oracle-bound", type=int, default=DEFAULT_ORACLE_BOUND)
        cmd.add_argument("--jobs", type=int, default=1,
                         help="cut the models into N equal shares: this process scans "
                              "the first, one more process each other share "
                              "(none when one share holds every block)")
        _add_common(cmd)
        cmd.set_defaults(func=cmd_consequence)

    cmd = sub.add_parser("check-proof", help="check a Hilbert proof JSON file")
    cmd.add_argument("proof", help="proof JSON file")
    cmd.add_argument("--unrestricted", action="store_true",
                     help="lift the restricted-syntax line discipline")
    _add_common(cmd)
    cmd.set_defaults(func=cmd_check_proof)

    cmd = sub.add_parser("demo", help="run one of the bundled demonstrations")
    cmd.add_argument("which", choices=sorted(DEMOS))
    cmd.add_argument("--case", type=int, choices=(1, 2, 3, 4))
    cmd.add_argument("--alpha", help="formula in one free variable")
    cmd.add_argument("--t1", default="c1")
    cmd.add_argument("--t2", default="c2")
    cmd.add_argument("--theory", help="theory fragment JSON (build-model)")
    cmd.add_argument("--class", dest="table_class", choices=("all", "reg"),
                     default="all")
    cmd.add_argument("--max-domain", type=int, default=DEFAULT_DOMAIN_BOUND)
    cmd.add_argument("--oracle-bound", type=int, default=DEFAULT_ORACLE_BOUND)
    cmd.add_argument("--seed", type=int, default=0)
    cmd.add_argument("--samples", type=int, default=50,
                     help="extra random deeper pairs for the interpolation sweep")
    _add_common(cmd)
    cmd.set_defaults(func=cmd_demo)

    return parser


@functools.cache
def _parser():
    """The parser, built by the first ``run`` and reused by the later ones
    (not at import, which stays cheap)."""
    return build_parser()


def run(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, SupkitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # a recursive walk over a formula that the parser accepted (printer,
        # evaluator, collapse) ran out of stack: the input is too deep
        print(f"error: {NESTED_TOO_DEEPLY}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
