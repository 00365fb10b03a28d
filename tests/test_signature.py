"""The checks of a declared signature: each error names the first offending
name, in the order constants, functions, predicates, propositional atoms."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supkit.cli import run
from supkit.syntax import _IDENT, Signature, SupkitError


@pytest.mark.parametrize("kwargs, message", [
    ({"constants": ["c 1"]}, "illegal constant name 'c 1'"),
    ({"functions": {"1f": 1}}, "illegal function name '1f'"),
    ({"predicates": {"P": 1, "@e0": 1}}, "illegal predicate name '@e0'"),
    ({"prop_atoms": ["pé"]}, "illegal prop_atom name 'pé'"),
    ({"constants": [""]}, "illegal constant name ''"),
    ({"constants": ["a\n"]}, "illegal constant name 'a\\n'"),
    ({"constants": ["x"], "predicates": {"x": 1}},
     "name 'x' declared both as constant and predicate"),
    ({"functions": {"g": 1}, "prop_atoms": ["g"]},
     "name 'g' declared both as function and prop_atom"),
    ({"predicates": {"P": 1}, "functions": {"P": 2}},
     "name 'P' declared both as function and predicate"),
    ({"functions": {"f": "1"}}, "arity of 'f' must be a positive integer"),
    ({"functions": {"f": 1.0}}, "arity of 'f' must be a positive integer"),
    ({"predicates": {"P": True}}, "arity of 'P' must be a positive integer"),
    ({"predicates": {"P": 1, "Q": 0}}, "arity of 'Q' must be a positive integer"),
    ({"functions": {"f": -2}}, "arity of 'f' must be a positive integer"),
])
def test_each_fault_is_reported_with_its_name(kwargs, message):
    with pytest.raises(SupkitError) as info:
        Signature(**kwargs)
    assert str(info.value) == message


def test_a_name_fault_is_reported_before_an_arity_fault():
    with pytest.raises(SupkitError, match="^illegal prop_atom name 'p 1'$"):
        Signature(functions={"f": 0}, prop_atoms=["p 1"])


def test_a_bad_signature_file_exits_2(capsys, tmp_path):
    path = tmp_path / "sig.json"
    path.write_text(json.dumps({"constants": ["c1"], "predicates": {"c1": 1}}))
    assert run(["parse", "--formula", "P(c1)", "--sig", str(path)]) == 2
    assert "name 'c1' declared both as constant and predicate" in capsys.readouterr().err


@given(st.text(st.characters(codec="utf-8"), max_size=4))
def test_names_are_accepted_exactly_when_the_identifier_pattern_matches(name):
    try:
        Signature(constants=[name])
    except SupkitError:
        assert not _IDENT.match(name)
    else:
        assert _IDENT.match(name)
