"""Command-line interface: parsing, classification, collapsing, evaluation,
consequence/tautology checking, proof checking, and the demo suite.

Exit codes: 0 success or valid; 1 countermodel found or proof rejected;
2 usage or input errors, a formula nested too deeply included.  Verdict
reports always embed the searched space, so nothing claims more than what
was enumerated.  SUPKIT_ORACLE_BOUND
overrides the default equivalence-oracle domain bound.
"""

import argparse
import dataclasses
import functools
import itertools
import json
import os
import random
import sys

from . import constructions
from .choice import (
    CLASS_NAMES,
    BoundedModelOracle,
    ChoiceTable,
    ClassSpec,
    collapse,
    enumerate_tables,
)
from .models import Structure, Valuation, valuations_over
from .proofs import check_proof, proof_from_json
from .semantics import (
    DEFAULT_BUDGET,
    DEFAULT_DOMAIN_BOUND,
    DEFAULT_ORACLE_BOUND,
    SearchSpace,
    check_consequence,
    check_restricted_sentences,
    class_spec_for,
    eval_fcs,
    eval_scs,
    scan_models,
    verdict_of_scans,
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
    Variable,
    classify,
    free_vars,
    json_field,
    parse,
    parse_term,
    substitute,
    to_text,
)

def _positive(value, name):
    if value < 1:
        raise SupkitError(f"{name} must be a positive integer")
    return value


def _oracle_bound(args):
    env = os.environ.get("SUPKIT_ORACLE_BOUND")
    if getattr(args, "oracle_bound", None) is not None:
        return _positive(args.oracle_bound, "--oracle-bound")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise SupkitError("SUPKIT_ORACLE_BOUND must be a positive integer") from None
        return _positive(value, "SUPKIT_ORACLE_BOUND")
    return DEFAULT_ORACLE_BOUND


def _load_json(path):
    with open(path) as handle:
        return json.load(handle)


def _signature(args):
    if getattr(args, "sig", None):
        return Signature.from_json(_load_json(args.sig))
    return None  # parser falls back to the default signature


def _load_model(path, sig):
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
    model = _load_model(args.model, sig)
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
    lines = []
    if verdict.valid:
        lines.append(f"valid over the searched space "
                     f"({verdict.models_checked} models, "
                     f"{verdict.tables_checked} tables)")
    else:
        lines.append("countermodel found:")
        lines.append("  " + verdict.countermodel.describe())
        lines.append(f"  re-verified: {payload['verified']}")
    lines.append(f"space: {json.dumps(verdict.space)}")
    _emit(args, payload, lines)
    return 0 if verdict.valid else 1


def _search(premises, conclusion, spec, space, jobs, budget=DEFAULT_BUDGET):
    """The verdict of check_consequence, with the space's models cut into
    ``jobs`` equal shares (see ``shares``).  This process scans the first
    share's blocks and one worker process scans each other share's, so no
    process is started when one share holds every block.  The verdict, its
    counts and the budget are exactly those of the serial search: the scans
    are read in model order, and the workers still running once the verdict
    is settled are killed, as they are on every other way out."""
    if jobs <= 1:
        return check_consequence(premises, conclusion, spec, space=space,
                                 budget=budget)
    check_restricted_sentences(list(premises) + [conclusion])
    blocks = list(space.blocks())
    (first, stop), *rest = shares([width for _, _, width in blocks], jobs)
    task = (premises, conclusion, spec, budget)
    workers = []
    try:
        if rest:
            import multiprocessing   # only here: importing cli stays cheap
            for start, end in rest:
                receive, send = multiprocessing.Pipe(duplex=False)
                worker = multiprocessing.Process(
                    target=_scan_share, args=(send, space, blocks[start:end], *task),
                    daemon=True)
                worker.start()
                workers.append((worker, receive))
                send.close()
        scans = itertools.chain([scan_models(space, blocks[first:stop], *task)],
                                itertools.starmap(_received, workers))
        return verdict_of_scans(premises, conclusion, spec, space, scans, budget)
    finally:
        for worker, receive in workers:
            worker.kill()
            worker.join()
            receive.close()


def shares(widths, jobs):
    """Runs of consecutive blocks, given their widths in model order, as
    ``(first, stop)`` block numbers: block ``b`` joins run
    ``jobs * m_b // total``, where ``m_b`` is the number of its first model.
    So there are at most ``jobs`` runs, and each holds within one block
    width of ``total / jobs`` models."""
    total = sum(widths)
    runs, share, start = [], None, 0
    for b, width in enumerate(widths):
        if jobs * start // total != share:
            share = jobs * start // total
            runs.append([b, b])
        runs[-1][1] = b + 1
        start += width
    return [tuple(run) for run in runs]


def _scan_share(send, *scan):
    """A worker's body: sends ``(True, scan_models(...))``, or ``(False,
    exception)`` if it raised.  Interrupts are left to the caller, which
    kills its workers."""
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        result = True, scan_models(*scan)
    except Exception as exc:
        result = False, exc
    send.send(result)


def _received(worker, receive):
    """A worker's scan, or its exception raised again here."""
    try:
        ok, result = receive.recv()
    except EOFError:
        worker.join()
        raise SupkitError(f"a search worker ended without a result "
                          f"(exit code {worker.exitcode})") from None
    if not ok:
        raise result
    return result


def cmd_consequence(args):
    sig = _signature(args)
    premises = [parse(text.strip(), sig)
                for text in args.premises.split(";") if text.strip()]
    conclusion = parse(args.conclusion, sig)
    formulas = premises + [conclusion]
    spec = class_spec_for(args.table_class, formulas, _oracle_bound(args))
    space = SearchSpace.for_task(
        formulas, max_domain=_positive(args.max_domain, "--max-domain"))
    verdict = _search(premises, conclusion, spec, space,
                      _positive(args.jobs, "--jobs"))
    return _verdict_output(args, verdict)


def cmd_check_proof(args):
    data = _load_json(args.proof)
    proof = proof_from_json(data, _signature(args))
    if args.unrestricted:
        proof = dataclasses.replace(proof, unrestricted=True)
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
    sig = _signature(args)
    alpha = parse(args.alpha, sig) if args.alpha else parse("v = c3", sig)
    t1, t2 = parse_term(args.t1, sig), parse_term(args.t2, sig)
    fv = sorted(free_vars(alpha))
    if len(fv) != 1:
        raise SupkitError("--alpha must have exactly one free variable")
    a1 = substitute(alpha, fv[0], Variable("v1"))
    a2 = substitute(alpha, fv[0], Variable("v2"))
    cases = [args.case] if args.case else [1, 2, 3, 4]
    rows = []
    for case in cases:
        table = constructions.ui_case_table(a1, a2, (t1, t2), case)
        witness = constructions.ui_failure_witness(sig, alpha, t1, t2, table)
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
    sig = Signature(predicates={"R": 2}, constants={"c1", "c2"})
    alpha, beta = parse("R(v1,v2)", sig), parse("R(v2,v1)", sig)
    t = (Constant("c1"), Constant("c2"))
    s = (Constant("c2"), Constant("c1"))
    cases = [args.case] if args.case else [1, 2, 3, 4]
    payload, lines = [], []
    for case in cases:
        table = constructions.ui_case_table(alpha, beta, t, case)
        witness = constructions.ui_failure_general(alpha, beta, t, s, table)
        data = witness.describe() | {"verified": witness.verify()}
        payload.append(data)
        lines.append(f"case {case}: fails {data['failing_instance']} "
                     f"(verified: {data['verified']})")
    _emit(args, payload, lines)
    return 0 if all(d["verified"] for d in payload) else 1


def demo_no_uniform(args):
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
    if args.theory is None:
        raise SupkitError("build-model needs --theory")
    max_domain = _positive(args.max_domain, "--max-domain")
    data = _load_json(args.theory)
    markings = json_field(data, "markings", dict, "theory JSON")
    sig = Signature.from_json(data["signature"]) if "signature" in data else None
    markings = {parse(text, sig): bool(value) for text, value in markings.items()}
    fragment = constructions.TheoryFragment.from_markings(markings, sig)
    verdict = constructions.check_theory_fragment(fragment)
    if not verdict.ok:
        _emit(args, {"ok": False, "case": verdict.case, "reason": verdict.reason},
              [f"fragment rejected ({verdict.case}): {verdict.reason}"])
        return 1
    oracle = None
    if args.table_class == "reg":
        oracle = class_spec_for("reg", fragment.sentences, _oracle_bound(args)).oracle
    result = constructions.build_choice_from_theory(
        fragment, args.table_class, oracle, max_domain=max_domain)
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
    if args.samples < 0:
        raise SupkitError("--samples must be a non-negative integer")
    rng = random.Random(args.seed)
    sentences = _depth1_sentences()
    pairs = list(itertools.product(sentences, repeat=2))
    extra = []
    for _ in range(args.samples):
        extra.append((rng.choice(sentences), Sup(rng.choice(sentences),
                                                 rng.choice(sentences))))
    checked = violations = 0
    spec = ClassSpec("all")
    for phi, psi in pairs + extra:
        conj, sup, disj = And(phi, psi), Sup(phi, psi), Or(phi, psi)
        for valuation in valuations_over(("p0", "p1")):

            def task(table):
                return (eval_scs(valuation, table, conj),
                        eval_scs(valuation, table, sup),
                        eval_scs(valuation, table, disj))

            for _table, (a, b, c) in enumerate_tables(task, spec):
                checked += 1
                if (a and not b) or (b and not c):
                    violations += 1
    payload = {"pairs": len(pairs) + len(extra), "evaluations": checked,
               "violations": violations}
    lines = [f"interpolation sweep: {payload['pairs']} pairs, "
             f"{checked} (valuation, table) evaluations, "
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


def _add_common(cmd, sig=True, json_flag=True):
    if sig:
        cmd.add_argument("--sig", help="signature JSON file")
    if json_flag:
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
        cmd.add_argument("--oracle-bound", type=int, default=None)
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
    cmd.add_argument("--oracle-bound", type=int, default=None)
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
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SupkitError as exc:
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
