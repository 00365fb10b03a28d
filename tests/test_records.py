"""Records against the frozen dataclasses they replace.

Each reference below is the ``@dataclass(frozen=True)`` definition that a
record class of the package had before it became a slotted ``Record``:
its fields, defaults and ``__post_init__`` check.  On sampled field values
of every record class, the record and its reference must agree on
equality, hashing, the repr, a pickle round trip (through a pipe too, as
``--jobs`` workers send their results), ``replace`` and the error on
assigning or deleting a field.
"""

import dataclasses
import multiprocessing
import pickle
from dataclasses import dataclass, field
from types import SimpleNamespace

import pytest

from supkit import choice, constructions, corpus, models, proofs, semantics, syntax
from supkit.syntax import Record, SupkitError, parse

# ---------------------------------------------------------------------------
# References: the dataclass definitions the records replace


@dataclass(frozen=True)
class Signature:
    constants: frozenset = frozenset()
    functions: dict = None
    predicates: dict = None
    prop_atoms: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "constants", frozenset(self.constants))
        object.__setattr__(self, "functions", dict(self.functions or {}))
        object.__setattr__(self, "predicates", dict(self.predicates or {}))
        object.__setattr__(self, "prop_atoms", frozenset(self.prop_atoms))


@dataclass(frozen=True)
class ChoiceTable:
    mode: str = choice.SENTENCE_MODE
    entries: dict = field(default_factory=dict)
    formulas: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in (choice.SENTENCE_MODE, choice.FORMULA_MODE):
            raise choice.ChoiceDomainError(f"unknown table mode {self.mode!r}")


@dataclass(frozen=True)
class ClassSpec:
    name: str
    oracle: object = None

    def __post_init__(self):
        if self.name not in choice.CLASS_NAMES:
            raise SupkitError(f"unknown table class {self.name!r}")


@dataclass(frozen=True)
class Valuation:
    assignment: dict


@dataclass(frozen=True)
class Structure:
    domain: tuple
    constants: dict = field(default_factory=dict)
    functions: dict = field(default_factory=dict)
    predicates: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.domain:
            raise SupkitError("structure domain must be nonempty")


@dataclass(frozen=True)
class SearchSpace:
    vocabulary: object
    max_domain: int = semantics.DEFAULT_DOMAIN_BOUND


@dataclass(frozen=True)
class Countermodel:
    model: object
    table: ChoiceTable


@dataclass(frozen=True)
class Verdict:
    valid: bool
    premises: tuple
    conclusion: object
    space: dict
    countermodel: Countermodel = None
    models_checked: int = 0
    tables_checked: int = 0


@dataclass(frozen=True)
class System:
    name: str
    axioms: frozenset
    rules: frozenset
    first_order: bool


@dataclass(frozen=True)
class MetaVar:
    name: str


@dataclass(frozen=True)
class Hyp:
    pass


@dataclass(frozen=True)
class Axiom:
    scheme: str


@dataclass(frozen=True)
class MP:
    premise: int
    implication: int


@dataclass(frozen=True)
class GR:
    premise: int
    var: str


@dataclass(frozen=True)
class SV:
    premise: int
    cert: object


@dataclass(frozen=True)
class ProofLine:
    formula: object
    just: object


@dataclass(frozen=True)
class Proof:
    system: str
    hypotheses: tuple = ()
    lines: tuple = ()
    unrestricted: bool = False
    allow_open_hypotheses: bool = False


@dataclass(frozen=True)
class ProofVerdict:
    ok: bool
    line: int = 0
    reason: str = ""


@dataclass(frozen=True)
class UiWitness:
    structure: Structure
    table: ChoiceTable
    psi: object
    variables: tuple
    terms: tuple
    case_id: int


@dataclass(frozen=True)
class UniformityBranch:
    assumed_choice: object
    substituted: object
    symmetric_choice: object
    required_equivalence: tuple
    equivalence_holds: bool


@dataclass(frozen=True)
class UniformityRefutation:
    alpha1: object
    alpha2: object
    branches: tuple
    exhaustive: bool


@dataclass(frozen=True)
class TheoryFragment:
    sentences: tuple
    markers: dict
    signature: Signature = None


@dataclass(frozen=True)
class FragmentVerdict:
    ok: bool
    case: str = ""
    reason: str = ""
    witness: tuple = ()


@dataclass(frozen=True)
class BuildResult:
    model: object
    table: ChoiceTable
    report: dict


@dataclass(frozen=True)
class ObjectSuperpositionReport:
    structure: Structure
    element_a: str
    element_b: str
    rows: tuple


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    table_class: str
    proof: Proof


@dataclass(frozen=True)
class MutantEntry:
    name: str
    proof: Proof
    expect_line: int
    expect_reason: str


REFERENCES = [value for value in list(globals().values())
              if isinstance(value, type) and dataclasses.is_dataclass(value)]
REF = SimpleNamespace(**{cls.__name__: cls for cls in REFERENCES})
NEW = SimpleNamespace(**{cls.__name__: getattr(module, cls.__name__)
                         for cls in REFERENCES
                         for module in (syntax, choice, models, semantics, proofs,
                                        constructions, corpus)
                         if hasattr(module, cls.__name__)})


def test_every_record_class_has_a_reference():
    modules = (syntax, choice, models, semantics, proofs, constructions, corpus)
    records = {value.__name__ for module in modules for value in vars(module).values()
               if isinstance(value, type) and issubclass(value, Record)
               and value is not Record and value.__module__ == module.__name__}
    assert records == set(vars(NEW)) == set(vars(REF)) == set(SAMPLES)
    assert len(records) == 27
    for name in records:
        new, ref = _pair(name, 0)
        assert type(new).__match_args__ == type(ref).__match_args__, name
        assert not hasattr(new, "__dict__"), name


# ---------------------------------------------------------------------------
# Samples: each builds one record's positional fields from the classes in
# ``ns``, NEW or REF, so nested records are of the same side.

P0, P1 = parse("p0"), parse("p1")
PC, QC = parse("P(c1)"), parse("Q(c1) sup P(c1)")


STRUCTURE = (("e0", "e1"), {"c1": "e1"}, {"g": {("e0",): "e1", ("e1",): "e0"}},
             {"P": frozenset({("e0",)})})


def _structure(ns):
    return ns.Structure(*STRUCTURE)


def _table(ns):
    return ns.ChoiceTable("sentence", {("p0", "p1"): "p1"}, {"p0": P0, "p1": P1})


def _proof_fields(ns):
    cert = ns.Proof("K0", (), (ns.ProofLine(P0, ns.Axiom("P1")),))
    return ("K1", (P0,), (ns.ProofLine(P0, ns.Hyp()), ns.ProofLine(P1, ns.MP(1, 1)),
                          ns.ProofLine(P1, ns.SV(2, cert)), ns.ProofLine(PC, ns.GR(1, "v"))),
            True, False)


SAMPLES = {
    "Signature": [lambda ns: (), lambda ns: (frozenset({"c1"}), {"g": 1}, {"P": 1, "R": 2},
                                              frozenset({"p0"}))],
    "ChoiceTable": [lambda ns: (), lambda ns: ("formula",),
                    lambda ns: ("sentence", {("p0", "p1"): "p1"}, {"p0": P0, "p1": P1})],
    "ClassSpec": [lambda ns: ("all",), lambda ns: ("dec", "oracle"), lambda ns: ("reg", 3)],
    "Valuation": [lambda ns: ({},), lambda ns: ({"p0": True, "p1": False},)],
    "Structure": [lambda ns: (("e0",),), lambda ns: STRUCTURE],
    "SearchSpace": [lambda ns: (syntax.symbols(parse("p0 sup p1")),),
                    lambda ns: (syntax.symbols(PC), 2)],
    "Countermodel": [lambda ns: (ns.Valuation({"p0": False}), ns.ChoiceTable()),
                     lambda ns: (_structure(ns), _table(ns))],
    "Verdict": [lambda ns: (True, (), P0, {"kind": "propositional"}),
                lambda ns: (False, (P0,), P1, {"kind": "propositional", "class": "all"},
                            ns.Countermodel(ns.Valuation({"p0": True}), _table(ns)), 3, 4)],
    "System": [lambda ns: ("K0", frozenset({"P1"}), frozenset({"MP"}), False)],
    "MetaVar": [lambda ns: ("phi",), lambda ns: ("v",)],
    "Hyp": [lambda ns: ()],
    "Axiom": [lambda ns: ("P1",), lambda ns: ("UI",)],
    "MP": [lambda ns: (1, 2), lambda ns: (2, 1)],
    "GR": [lambda ns: (1, "v")],
    "SV": [lambda ns: (3, ns.Proof("K0"))],
    "ProofLine": [lambda ns: (P0, ns.Hyp()), lambda ns: (P1, ns.Axiom("P2"))],
    "Proof": [lambda ns: ("K0",), _proof_fields],
    "ProofVerdict": [lambda ns: (True,), lambda ns: (False, 3, "MP premises do not align")],
    "UiWitness": [lambda ns: (_structure(ns), _table(ns), PC, ("v",),
                              (syntax.Constant("c1"),), 2)],
    "UniformityBranch": [lambda ns: (P0, P1, P0, (P1, P0), False)],
    "UniformityRefutation": [lambda ns: (P0, P1, (ns.UniformityBranch(P0, P1, P0, (P1, P0),
                                                                      False),), True)],
    "TheoryFragment": [lambda ns: ((P0,), {"p0": True}),
                       lambda ns: ((PC, QC), {"P(c1)": True}, ns.Signature(frozenset({"c1"})))],
    "FragmentVerdict": [lambda ns: (True,), lambda ns: (False, "a7", "both out", (P0,))],
    "BuildResult": [lambda ns: (_structure(ns), _table(ns), {"model": "e0"})],
    "ObjectSuperpositionReport": [lambda ns: (_structure(ns), "e0", "e1",
                                              ((_table(ns), ("e0",), True, False),))],
    "CorpusEntry": [lambda ns: ("k0", "all", ns.Proof("K0"))],
    "MutantEntry": [lambda ns: ("m", ns.Proof(*_proof_fields(ns)), 2, "not among")],
}

CASES = [(name, k) for name, samples in SAMPLES.items() for k in range(len(samples))]


def _pair(name, k):
    """The record and its reference, built from one sample's fields."""
    return (getattr(NEW, name)(*SAMPLES[name][k](NEW)),
            getattr(REF, name)(*SAMPLES[name][k](REF)))


def _outcome(thunk):
    """What ``thunk()`` gives: its value, or its exception's type and text."""
    try:
        return "value", thunk()
    except Exception as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name, k", CASES)
def test_a_record_equals_hashes_and_prints_as_its_reference(name, k):
    new, ref = _pair(name, k)
    assert repr(new) == repr(ref)
    assert _outcome(lambda: hash(new)) == _outcome(lambda: hash(ref))
    again, ref_again = _pair(name, k)
    assert new == again and new is not again and ref == ref_again
    assert (new != again) is (ref != ref_again) is False
    assert new != ref and ref != new   # a record is not its reference
    for j in range(len(SAMPLES[name])):
        other, ref_other = _pair(name, j)
        assert (new == other) is (ref == ref_other), j


@pytest.mark.parametrize("name, k", CASES)
def test_a_record_pickles_back_to_itself(name, k):
    """The reference goes through the same round trip, as an unpickled set
    may iterate its members in another order than the one pickled."""
    new, ref = _pair(name, k)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(new, protocol))
        ref_back = pickle.loads(pickle.dumps(ref, protocol))
        assert type(back) is type(new) and back == new and repr(back) == repr(ref_back)


@pytest.mark.parametrize("name, k", CASES)
def test_a_record_replaces_and_refuses_assignment_as_its_reference(name, k):
    """``replace`` takes each field's value of every sample of the class, and
    a value that the field's check may refuse."""
    new, ref = _pair(name, k)
    for field_name in new.__match_args__:
        for j in range(len(SAMPLES[name])):
            other, ref_other = _pair(name, j)
            assert repr(new.replace(**{field_name: getattr(other, field_name)})) == \
                repr(dataclasses.replace(ref, **{field_name: getattr(ref_other, field_name)}))
        assert _outcome(lambda: repr(new.replace(**{field_name: 7}))) == \
            _outcome(lambda: repr(dataclasses.replace(ref, **{field_name: 7})))
    assert repr(new.replace()) == repr(dataclasses.replace(ref))
    assert _outcome(lambda: new.replace(nope=1))[0] == \
        _outcome(lambda: dataclasses.replace(ref, nope=1))[0] == "TypeError"
    for target in (*new.__match_args__, "nope"):
        for act in (lambda obj: setattr(obj, target, 1), lambda obj: delattr(obj, target)):
            with pytest.raises(AttributeError) as new_error:
                act(new)
            with pytest.raises(dataclasses.FrozenInstanceError) as ref_error:
                act(ref)
            assert str(new_error.value) == str(ref_error.value)
    assert repr(new) == repr(ref)


@pytest.mark.parametrize("name", ["Countermodel", "Verdict", "ClassSpec", "Valuation"])
def test_records_cross_a_pipe_as_workers_send_them(name):
    receive, send = multiprocessing.Pipe(duplex=False)
    try:
        for k in range(len(SAMPLES[name])):
            new, ref = _pair(name, k)
            send.send((True, (new, 5, 9)))
            assert receive.recv() == (True, (new, 5, 9))
    finally:
        send.close()
        receive.close()


def test_a_countermodel_from_a_worker_is_the_serial_one(monkeypatch):
    """A countermodel that a ``--jobs`` worker finds crosses the pipe whole:
    the verdict equals the serial one, record for record."""
    monkeypatch.setattr(semantics, "BLOCK_WIDTH", 1)
    from_workers = []
    received = semantics._received

    def spy(*worker):
        scan = received(*worker)
        from_workers.append(scan[0])
        return scan

    monkeypatch.setattr(semantics, "_received", spy)
    # refuted first by model 9 of 20, in the middle share of three
    phi = parse("(exists v. (P(v) /\\ Q(v))) -> forall v. (P(v) sup Q(v))")
    space = semantics.SearchSpace.for_task([phi], max_domain=2)
    spec = semantics.class_spec_for("all", [phi])
    serial = semantics.check_consequence([], phi, spec, space)
    split = semantics.check_consequence([], phi, spec, space, jobs=3)
    assert from_workers[-1] == split.countermodel == serial.countermodel
    assert split == serial and repr(split) == repr(serial)
    assert type(split.countermodel.model) is models.Structure and split.countermodel.table
