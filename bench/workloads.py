"""The benchmark's workloads: the rungs each round runs, the answer each
rung must get and why, and the checks made on the program's output.

Every rung is a template over the symbols P, Q, R, c1, c2 and p0..p4.  Each
time a rung runs, the seed renames those symbols (P -> P37, c1 -> c12, ...)
so that no sentence repeats within a run.  The renaming keeps each symbol's
first letter, gives every name the same length and keeps the order of
constants and atoms, so the program's canonical order of sentences and of
enumerated structures is the same for every seed: the search it makes is
the same, only the names differ.
"""

import dataclasses
import json
import re
import string
from dataclasses import dataclass

import logic

MAX_DOMAIN = 3
ORACLE_BOUND = 3
JOBS = 2
ELEMENTS = tuple(f"e{i}" for i in range(MAX_DOMAIN))

# Only domains of three elements satisfy it, so a refuted rung searches the
# one- and two-element structures before the countermodel at size three.
GUARD = "exists x. exists y. exists z. (~(x = y) /\\ ~(y = z) /\\ ~(x = z))"

# Classes in which each scheme is valid, from the paper's results: S1-S3
# hold for every table, S4 for the associative classes, S5 for dec, the
# double-negation law DN for the regular classes.  CHAIN is S4 iterated.
VALID_IN = {
    "S1": {"all", "reg", "asso", "regstar", "dec"},
    "S2": {"all", "reg", "asso", "regstar", "dec"},
    "S3": {"all", "reg", "asso", "regstar", "dec"},
    "S4": {"asso", "regstar", "dec"},
    "S5": {"dec"},
    "DN": {"reg", "regstar", "dec"},
    "CHAIN": {"asso", "regstar", "dec"},
}

R_PAIR = "(forall v. {R}(v,{c1}) sup {R}({c1},v)) -> exists v. ({R}(v,v) sup {R}({c1},{c1}))"
S1_R = "forall v. ({R}(v,{c1}) /\\ {R}({c1},v) -> {R}(v,{c1}) sup {R}({c1},v))"
S2_PQ = "forall v. ({P}(v) sup {Q}(v) -> {P}(v) \\/ {Q}(v))"
S3_PQ = "forall v. ({P}(v) sup {Q}(v) -> {Q}(v) sup {P}(v))"
S4_PQ = "({P}({c1}) sup {Q}({c1})) sup {P}({c2}) -> {P}({c1}) sup ({Q}({c1}) sup {P}({c2}))"
S5_PQ = "forall v. ({P}(v) /\\ ~{Q}(v) -> (({P}(v) sup {Q}(v)) <-> (~{P}(v) sup ~{Q}(v))))"
S5_R = ("forall v. ({R}(v,{c1}) /\\ ~{R}({c1},v) -> "
        "(({R}(v,{c1}) sup {R}({c1},v)) <-> (~{R}(v,{c1}) sup ~{R}({c1},v))))")
DN_PQ = "forall v. ((~~{P}(v) sup {Q}(v)) <-> ({P}(v) sup {Q}(v)))"
DN_R = "forall v. ((~~{R}(v,{c1}) sup {R}({c1},v)) <-> ({R}(v,{c1}) sup {R}({c1},v)))"
CHAIN = ("(((({p0} sup {p1}) sup {p2}) sup {p3}) sup {p4}) -> "
         "{p0} sup ({p1} sup ({p2} sup ({p3} sup {p4})))")

REFUTED_S4 = ("a table may pick Q(c1) from {P(c1),Q(c1)}, P(c2) from {Q(c1),P(c2)} and "
              "P(c1) from {P(c1),P(c2)}: the sides then read P(c2) and P(c1), which "
              "differ when c1 and c2 differ")


@dataclass(frozen=True)
class Rung:
    name: str
    conclusion: str
    table_class: str
    valid: bool
    scheme: str       # a key of VALID_IN, or "" when the reason is an argument
    reason: str
    premises: tuple = ()


def _rung(name, conclusion, table_class, scheme, reason, premises=()):
    """A rung; the rungs with premises are the guarded refuted ones."""
    valid = not premises
    if scheme and valid != (table_class in VALID_IN[scheme]):
        raise ValueError(f"rung {name}: expected verdict disagrees with {scheme}")
    return Rung(name, conclusion, table_class, valid, scheme, reason, premises)


FO_ALL = (
    _rung("r-pair-all", R_PAIR, "all", "",
          "at v = c1 both pairs hold R(c1,c1)'s truth, so the antecedent's "
          "instance makes the consequent's instance true, for every table"),
    _rung("r-pair-asso", R_PAIR, "asso", "", "as r-pair-all"),
    _rung("s1-r-all", S1_R, "all", "S1", "every instance is an S1 instance"),
    _rung("s2-pq-all", S2_PQ, "all", "S2", "every instance is an S2 instance"),
    _rung("s3-pq-all", S3_PQ, "all", "S3", "every instance is an S3 instance"),
    _rung("s4-pq-asso", S4_PQ, "asso", "S4", "S4 holds in associative classes"),
    _rung("chain-asso", CHAIN, "asso", "CHAIN", "S4 iterated: both sides pick the "
          "least of p0..p4 in the order an associative table is the min of"),
    _rung("s4-pq-all-guarded", S4_PQ, "all", "S4", REFUTED_S4, (GUARD,)),
)

FO_CLASSES = (
    _rung("s4-pq-regstar", S4_PQ, "regstar", "S4", "regstar tables are associative"),
    _rung("s4-pq-dec", S4_PQ, "dec", "S4", "dec tables are associative"),
    _rung("s5-pq-dec", S5_PQ, "dec", "S5", "every instance is an S5 instance"),
    _rung("dn-pq-reg", DN_PQ, "reg", "DN",
          "~~P(@e) and P(@e) are equivalent, so a regular table picks alike"),
    _rung("dn-pq-dec", DN_PQ, "dec", "DN", "dec tables are regular"),
    _rung("chain-regstar", CHAIN, "regstar", "CHAIN", "regstar tables are associative"),
    _rung("chain-dec", CHAIN, "dec", "CHAIN", "dec tables are associative"),
    _rung("s4-pq-reg-guarded", S4_PQ, "reg", "S4",
          "the three pairs are inequivalent, so regularity does not bind them: "
          + REFUTED_S4, (GUARD,)),
    _rung("s5-r-regstar-guarded", S5_R, "regstar", "S5",
          "a regstar table may pick R(@e,c1) from the left pair and ~R(@e,c1) from "
          "the right one; only dec's duality forbids it", (GUARD,)),
    _rung("dn-r-all-guarded", DN_R, "all", "DN",
          "a table of class all may pick ~~R(@e,c1) from one pair and R(c1,@e) "
          "from the other", (GUARD,)),
)


# ---------------------------------------------------------------------------
# Renaming


def _numbers(rng, count):
    return sorted(rng.sample(range(10, 100), count))


def rename(rng, templates):
    """Fill the templates' symbol slots with fresh names (see the module
    docstring for why the renaming keeps the program's search unchanged)."""
    slots = {field for text in templates
             for _, field, _, _ in string.Formatter().parse(text) if field}
    names = {}
    for letter in "PQR":
        if letter in slots:
            names[letter] = f"{letter}{rng.randrange(10, 100)}"
    for prefix, group in (("c", ("c1", "c2")), ("p", ("p0", "p1", "p2", "p3", "p4"))):
        used = [s for s in group if s in slots]
        names.update(zip(used, (f"{prefix}{n}" for n in _numbers(rng, len(used)))))
    return [text.format(**names) for text in templates], sorted(
        v for k, v in names.items() if k.startswith("c"))


def signature():
    """A signature declaring every name a renaming can produce."""
    return {
        "constants": [f"c{n}" for n in range(10, 100)],
        "predicates": {f"{letter}{n}": 2 if letter == "R" else 1
                       for letter in "PQR" for n in range(10, 100)},
    }


# ---------------------------------------------------------------------------
# Operations


@dataclass
class Op:
    """One call of the program: its command line, the answer it must give
    and the check of its JSON output."""

    label: str
    argv: list
    expect: str
    reason: str
    check: object          # (exit code, payload) -> list of problems
    files: dict = dataclasses.field(default_factory=dict)  # written before the call


def search_op(rung, rng, sig_path, jobs, used):
    """The call that runs a rung under a fresh renaming."""
    while True:
        texts, constants = rename(rng, list(rung.premises) + [rung.conclusion])
        if tuple(texts) not in used:
            used.add(tuple(texts))
            break
    *premises, conclusion = texts
    if premises:
        argv = ["consequence", "--premises", ";".join(premises), "--conclusion", conclusion]
    else:
        argv = ["taut", "--formula", conclusion]
    argv += ["--class", rung.table_class, "--max-domain", str(MAX_DOMAIN),
             "--oracle-bound", str(ORACLE_BOUND), "--sig", sig_path, "--json"]
    if jobs > 1:
        argv += ["--jobs", str(jobs)]
    parsed = [logic.parse(t, constants) for t in texts]

    def check(code, payload):
        return check_search(rung, parsed, constants, code, payload)

    expect = "valid" if rung.valid else "countermodel"
    return Op(rung.name, argv, expect, rung.reason, check)


# Keys of a verdict's space block that describe a complete search; any
# other key declares a reduction (such as symmetry), and the closed-form
# count then no longer applies.
PLAIN_SPACE_KEYS = {"kind", "atoms", "max_domain", "vocabulary", "class", "oracle"}


def check_search(rung, parsed, constants, code, payload):
    problems = []
    *premises, conclusion = parsed
    if rung.scheme:
        for inst in logic.closure_instances(conclusion, ELEMENTS):
            ok = (logic.is_chain_instance(inst) if rung.scheme == "CHAIN"
                  else logic.match(logic.SCHEMES[rung.scheme], inst) is not None)
            if not ok:
                problems.append(f"an instance is not a {rung.scheme} instance")
                break
    want = "valid" if rung.valid else "countermodel"
    if payload.get("result") != want or code != (0 if rung.valid else 1):
        return problems + [f"expected {want}, got {payload.get('result')} (exit {code})"]
    if rung.valid:
        if set(payload["space"]) <= PLAIN_SPACE_KEYS:
            expected = logic.count_models(parsed, MAX_DOMAIN)
            if payload["models_checked"] != expected:
                problems.append(f"models_checked {payload['models_checked']} != {expected}")
        return problems
    cm = payload["countermodel"]
    if "structure" in cm:
        model = logic.structure_from_json(cm["structure"])
    else:
        model = {k: bool(v) for k, v in cm["valuation"]["atoms"].items()}
    table = logic.table_from_json(cm["table"], constants)
    try:
        if not all(logic.eval_scs(model, table, p) for p in premises):
            problems.append("countermodel: a premise is false")
        if logic.eval_scs(model, table, conclusion):
            problems.append("countermodel: the conclusion is true")
    except (logic.LogicError, KeyError) as exc:
        problems.append(f"countermodel cannot be evaluated: {exc}")
    return problems


# ---------------------------------------------------------------------------
# Proof checking


SV_PROOFS = (("k1_sv_double_negation", "p0", "K0"),
             ("l1_sv_double_negation_fo", "P(c1)", "L0"))
# Pools of atoms of one size each, so that every seed substitutes formulas
# of the same size and shape class.
_K_ATOMS = ([f"p{n}" for n in range(10, 100)],) * 4
_L_ATOMS = (
    [f"(forall v. R({a}))" for a in ("v,c1", "v,c2", "c1,v", "c3,v")],
    [f"(exists v. R({a}))" for a in ("v,c2", "v,c3", "c2,v", "c1,v")],
    [f"{p}(c{i})" for p in "PQ" for i in (1, 2, 3)],
    [f"R(c{i},c{j})" for i in (1, 2, 3) for j in (1, 2, 3)],
)


def substitution_formula(rng, pools):
    """A classical sentence of fixed size: one atom from each pool, in a
    random order, joined by one each of /\\, \\/ and -> in a random order
    and a random nesting."""
    atoms = rng.sample([rng.choice(pool) for pool in pools], len(pools))
    ops = rng.sample(["/\\", "\\/", "->"], 3)

    def join(atoms, ops):
        if len(atoms) == 1:
            return atoms[0]
        k = rng.randrange(1, len(atoms))
        left, right = join(atoms[:k], ops[1:k]), join(atoms[k:], ops[k:])
        left = f"({left})" if k > 1 else left
        right = f"({right})" if len(atoms) - k > 1 else right
        return f"{left} {ops[0]} {right}"

    return join(atoms, ops)


def _substitute(data, pattern, replacement):
    """Uniform substitution in a proof's JSON, certificates included."""
    if isinstance(data, dict):
        return {k: _substitute(v, pattern, replacement) for k, v in data.items()}
    if isinstance(data, list):
        return [_substitute(v, pattern, replacement) for v in data]
    if isinstance(data, str):
        return pattern.sub(lambda _: replacement, data)
    return data


def proof_round(bases, rng, work_dir, used, file_numbers):
    """Per SV proof: one substitution instance, which must be accepted, and
    two mutants of it, which must be rejected at the SV line."""
    ops = []
    for name, atom, lowered in SV_PROOFS:
        base = bases[name]
        pattern = re.compile(r"(?<![\w@])" + re.escape(atom) + r"(?!\w)")
        pools = _K_ATOMS if atom == "p0" else _L_ATOMS
        while True:
            formula = substitution_formula(rng, pools)
            if (name, formula) not in used:
                used.add((name, formula))
                break
        instance = _substitute(base, pattern, f"({formula})")
        sv_line = next(i for i, line in enumerate(instance["lines"], 1)
                       if line["just"]["kind"] == "sv")
        system = instance["system"]
        cut = json.loads(json.dumps(instance))
        cert = cut["lines"][sv_line - 1]["just"]["cert"]
        cert["lines"] = cert["lines"][1:]
        cases = (
            ("instance", instance, None,
             "Hilbert proofs are closed under uniform substitution"),
            ("lowered", dict(instance, system=lowered), f"SV not available in {lowered}",
             f"{lowered} has no SV rule"),
            ("cut-cert", cut, "SV certificate invalid",
             "without its first line the certificate's MP references misalign"),
        )
        for kind, data, diagnosis, reason in cases:
            path = f"{work_dir}/proof-{next(file_numbers)}.json"
            ops.append(Op(
                f"{name}/{kind}", ["check-proof", path, "--json"],
                "accepted" if diagnosis is None else "rejected", reason,
                _proof_check(system, len(data["lines"]), sv_line, diagnosis),
                {path: json.dumps(data)},
            ))
    return ops


def _proof_check(system, lines, sv_line, diagnosis):
    def check(code, payload):
        if diagnosis is None:
            if code == 0 and payload == {"ok": True, "lines": lines, "system": system}:
                return []
            return [f"instance not accepted: exit {code}, {payload}"]
        if (code == 1 and payload.get("ok") is False and payload.get("line") == sv_line
                and diagnosis in payload.get("reason", "")):
            return []
        return [f"mutant: expected line {sv_line} '{diagnosis}', "
                f"got exit {code}, {payload}"]
    return check
