"""Cross-module invariants stated by the library's contracts."""

import ast
import json
from pathlib import Path

import pytest

import supkit
from supkit.choice import ChoiceTable, ClassSpec, choose, collapse, enumerate_tables
from supkit.cli import run
from supkit.models import Structure, Valuation, eval_classical
from supkit.semantics import SearchBudgetError, check_consequence, eval_fcs, eval_scs
from supkit.syntax import (
    And,
    Not,
    Or,
    PropAtom,
    Sup,
    parse,
    to_text,
)

p0, p1, p2 = PropAtom("p0"), PropAtom("p1"), PropAtom("p2")


def test_classical_sentences_agree_across_relations():
    m = Structure(domain=("a", "b"), constants={"c1": "a"},
                  predicates={"P": frozenset({("a",)})})
    alpha = parse("P(c1) /\\ ~(c1 = c1) \\/ P(c1)")
    tables = [ChoiceTable(), ChoiceTable().with_entry(
        parse("P(c1)"), parse("c1 = c1"), parse("P(c1)"))]
    for table in tables:
        formula_table = ChoiceTable(mode="formula", entries=table.entries,
                                    formulas=table.formulas)
        expected = eval_classical(m, alpha)
        assert eval_scs(m, table, alpha) == expected
        assert eval_fcs(m, formula_table, alpha) == expected


def test_scs_sup_definitional_equation():
    v = Valuation({"p0": True, "p1": False, "p2": True})
    conj, disj = And(p0, Not(p1)), Or(p1, p2)
    table = (ChoiceTable()
             .with_entry(p0, p1, p1)
             .with_entry(Not(p1), p2, p2)
             .with_entry(p1, p2, p1)
             .with_entry(conj, disj, disj))
    for phi, psi in (
            (Sup(p0, p1), p2),
            (conj, disj),
            (p0, p1),
    ):
        left = eval_scs(v, table, Sup(phi, psi))
        chosen = choose(table, collapse(table, phi), collapse(table, psi))
        assert left == eval_classical(v, chosen)


def test_structure_json_binary_function_roundtrip():
    m = Structure(
        domain=("e0", "e1"),
        constants={"c1": "e0"},
        functions={"h": {("e0", "e0"): "e1", ("e0", "e1"): "e0",
                         ("e1", "e0"): "e0", ("e1", "e1"): "e1"}},
        predicates={"P": frozenset({("e0",)})},
    )
    data = json.loads(json.dumps(m.to_json()))
    again = Structure.from_json(data)
    assert again.functions == m.functions
    assert again.predicates["P"] == m.predicates["P"]


def test_search_budget_is_reported():
    s4 = parse("(p0 sup p1) sup p2 -> p0 sup (p1 sup p2)")
    with pytest.raises(SearchBudgetError):
        check_consequence([], s4, ClassSpec("all"), budget=3)


def test_parallel_countermodel_matches_serial(capsys):
    args = ("taut", "--class", "all", "--formula",
            "(forall v. P(v) sup Q(v)) -> forall v. P(v)",
            "--max-domain", "2", "--json")
    code1 = run(list(args))
    out1 = capsys.readouterr().out
    code2 = run(list(args + ("--jobs", "3")))
    out2 = capsys.readouterr().out
    assert code1 == code2 == 1
    data1, data2 = json.loads(out1), json.loads(out2)
    assert data1["countermodel"] == data2["countermodel"]
    assert data1["verified"] and data2["verified"]


def test_enumeration_is_deterministic():
    phi = Sup(Sup(p0, p1), Sup(p1, p2))

    def task(table):
        return collapse(table, phi)

    first = [(sorted(t.entries.items()), to_text(r))
             for t, r in enumerate_tables(task, ClassSpec("all"))]
    second = [(sorted(t.entries.items()), to_text(r))
              for t, r in enumerate_tables(task, ClassSpec("all"))]
    assert first == second


def _unused_imports(source):
    """The names that a module's import statements bind and that nothing
    in the module reads: no name, no attribute's base, no ``__all__`` entry."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_module_imports_a_name_it_does_not_use():
    package = Path(supkit.__file__).parent
    unused = {path.name: _unused_imports(path.read_text())
              for path in sorted(package.glob("*.py"))}
    assert {name: found for name, found in unused.items() if found} == {}
    assert _unused_imports("import os\nfrom x import (a, b as c)\nc()\n") == \
        [(1, "os"), (2, "a")]


def _unused_parameters(source):
    """``(line, function, parameter)`` for each parameter that a function's
    body never reads.  Dunder methods keep their protocol's signature, a
    method's first parameter is its receiver, and a name that starts with
    ``_`` says it is unused on purpose, so these are not reported."""
    tree = ast.parse(source)
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                           for d in node.decorator_list)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        if name.startswith("__") and name.endswith("__"):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + [args.vararg]
                  + args.kwonlyargs + [args.kwarg] if a is not None]
        if id(node) in methods:
            params = params[1:]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for statement in body for n in ast.walk(statement)
                if isinstance(n, ast.Name)}
        found += [(node.lineno, name, p) for p in params
                  if not p.startswith("_") and p not in read]
    return sorted(found)


def test_no_function_takes_a_parameter_it_does_not_read():
    package = Path(supkit.__file__).parent
    unused = {path.name: _unused_parameters(path.read_text())
              for path in sorted(package.glob("*.py"))}
    assert {name: found for name, found in unused.items() if found} == {}
    assert _unused_parameters(
        "def f(a, b, _c, *d, e=1, **f):\n    return a + f['x']\n"
        "class K:\n    def m(self, x):\n        return 1\n"
        "    def __exit__(self, *exc):\n        pass\n"
        "g = lambda y, z: y\n") == \
        [(1, "f", "b"), (1, "f", "d"), (1, "f", "e"), (4, "m", "x"), (8, "<lambda>", "z")]


def _parameter_spellings(source):
    """``(line, owner)`` of each place a module spells a parameter: a use of
    ``PARAM_PREFIX`` or a string that starts with ``@``, such as a digit key
    named after a parameter.  ``owner`` is the top-level function or class
    around it, or None at module level, where the one allowed spelling is
    ``PARAM_PREFIX``'s own definition."""
    found = []
    for statement in ast.parse(source).body:
        if isinstance(statement, ast.Assign) and [ast.dump(t) for t in statement.targets] \
                == [ast.dump(ast.Name("PARAM_PREFIX", ast.Store()))]:
            continue
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and node.id == "PARAM_PREFIX" or \
                    isinstance(node, ast.alias) and node.name == "PARAM_PREFIX" or \
                    isinstance(node, ast.Constant) and isinstance(node.value, str) and \
                    node.value.startswith("@"):
                found.append((getattr(node, "lineno", statement.lineno),
                              getattr(statement, "name", None)))
    return found


def test_only_the_printer_and_the_parser_spell_parameters():
    """A parameter ``@e`` has one reading, the element ``e``: only
    ``syntax``'s printer (``to_text_term``) and parser (``_Parser``) know
    how it is spelled, so no model interprets a constant under a
    parameter's name."""
    package = Path(supkit.__file__).parent
    spelled = {path.name: _parameter_spellings(path.read_text())
               for path in sorted(package.glob("*.py"))}
    allowed = {"to_text_term", "_Parser"}
    assert {name: [(line, owner) for line, owner in found
                   if name != "syntax.py" or owner not in allowed]
            for name, found in spelled.items()} == dict.fromkeys(spelled, [])
    assert {owner for _, owner in spelled["syntax.py"]} == allowed
    assert _parameter_spellings('PARAM_PREFIX = "@"\ndef f(p):\n    return "@" + p\n') == \
        [(3, "f")]
