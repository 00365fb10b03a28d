import ast
import re
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from supkit import syntax
from supkit.models import EvalError, vocabulary_of
from supkit.syntax import (
    MAX_NESTING,
    NESTED_TOO_DEEPLY,
    And,
    ArityError,
    CaptureError,
    Constant,
    Equality,
    Exists,
    Forall,
    FuncApp,
    Iff,
    Implies,
    Not,
    Or,
    Parameter,
    ParseError,
    PredAtom,
    PropAtom,
    Signature,
    Sup,
    SupkitError,
    Symbols,
    SyntaxClass,
    UnknownSymbolError,
    Variable,
    canonical_key,
    classify,
    free_vars,
    is_basic,
    is_classical,
    parse,
    parse_term,
    primitive_form,
    substitute,
    substitute_map,
    symbols,
    to_text,
)

SIG = Signature(
    constants={"c1", "c2", "c3"},
    functions={"g": 1},
    predicates={"P": 1, "Q": 1, "R": 2},
    prop_atoms={"p0", "p1", "p2"},
)


def P(v):
    return PredAtom("P", (Variable(v),))


def test_parse_prop_or():
    assert parse("p0 \\/ p1", SIG) == Or(PropAtom("p0"), PropAtom("p1"))


def test_parse_forall_sup():
    phi = parse("forall v. (P(v) sup Q(v))", SIG)
    assert phi == Forall("v", Sup(P("v"), PredAtom("Q", (Variable("v"),))))
    # quantifier body extends maximally right even without parentheses
    assert parse("forall v. P(v) sup Q(v)", SIG) == phi


def test_parse_ui_failure_shape():
    phi = parse("(v1 = t2 /\\ v2 = t1) -> (A(v1) sup A(v2))",
                Signature(predicates={"A": 1}))
    want = Implies(
        And(Equality(Variable("v1"), Variable("t2")),
            Equality(Variable("v2"), Variable("t1"))),
        Sup(PredAtom("A", (Variable("v1"),)), PredAtom("A", (Variable("v2"),))),
    )
    assert phi == want


def test_parse_bar_alias_and_precedence():
    assert parse("p0 | p1", SIG) == parse("p0 sup p1", SIG)
    # precedence: ~ > sup > /\ > \/ > -> > <->
    phi = parse("~p0 sup p1 /\\ p2 \\/ p0 -> p1 <-> p2", SIG)
    want = Iff(
        Implies(
            Or(And(Sup(Not(PropAtom("p0")), PropAtom("p1")), PropAtom("p2")),
               PropAtom("p0")),
            PropAtom("p1"),
        ),
        PropAtom("p2"),
    )
    assert phi == want


def test_parse_terms_and_params():
    assert parse_term("g(c1)", SIG) == FuncApp("g", (Constant("c1"),))
    assert parse_term("@e0", SIG) == Parameter("e0")
    assert parse("@e0 = c1", SIG) == Equality(Parameter("e0"), Constant("c1"))
    assert parse("v = u", SIG) == Equality(Variable("v"), Variable("u"))


def test_parse_errors():
    with pytest.raises(ArityError):
        parse("R(c1)", SIG)
    with pytest.raises(UnknownSymbolError):
        parse("h(c1) = c2", SIG)
    with pytest.raises(ParseError):
        parse("p0 sup", SIG)
    with pytest.raises(ParseError):
        parse("forall P. p0", SIG)
    with pytest.raises(ParseError) as err:
        parse("p0 $ p1", SIG)
    assert err.value.pos == 3


def test_signature_validation():
    with pytest.raises(SupkitError):
        Signature(constants={"c"}, predicates={"c": 1})
    with pytest.raises(SupkitError):
        Signature(constants={"@e"})
    with pytest.raises(SupkitError):
        Signature(functions={"f": 0})


def test_free_vars():
    assert free_vars(PropAtom("p0")) == frozenset()
    assert free_vars(Sup(P("v1"), P("v2"))) == {"v1", "v2"}
    assert free_vars(Forall("v", Sup(P("v"), PredAtom("Q", (Variable("v"),))))) == frozenset()
    assert free_vars(Parameter("e0") and Equality(Parameter("e0"), Parameter("e1"))) == frozenset()


def test_substitute():
    alpha = P("v")
    assert substitute(alpha, "v", Constant("c1")) == P("c1").__class__("P", (Constant("c1"),))
    closed = Forall("v", alpha)
    assert substitute(closed, "v", Constant("c1")) == closed
    # the swap substitution is simultaneous
    swapped = substitute_map(Sup(P("v1"), P("v2")),
                             {"v1": Variable("v2"), "v2": Variable("v1")})
    assert swapped == Sup(P("v2"), P("v1"))
    assert substitute(alpha, "v", Variable("v")) == alpha


def test_substitute_capture():
    phi = Forall("u", Implies(P("v"), P("u")))
    with pytest.raises(CaptureError):
        substitute(phi, "v", Variable("u"))
    # closed terms never capture
    assert substitute(phi, "v", Constant("c1")) == Forall(
        "u", Implies(PredAtom("P", (Constant("c1"),)), P("u"))
    )


def test_classify_examples():
    alpha, beta = P("v"), PredAtom("Q", (Variable("v"),))
    assert classify(Forall("v", Sup(alpha, beta))) is SyntaxClass.RESTRICTED
    gamma = Exists("u", PredAtom("Q", (Variable("u"),)))
    assert classify(Sup(Forall("v", Sup(alpha, beta)), gamma)) is SyntaxClass.UNRESTRICTED
    assert classify(And(PropAtom("p0"), Not(PropAtom("p1")))) is SyntaxClass.CLASSICAL
    # a classical quantified formula is basic, so sup may apply to it
    assert classify(Sup(Forall("v", alpha), PropAtom("p0"))) is SyntaxClass.BASIC


def test_classify_subformula_monotonicity():
    phi = Forall("v", Sup(P("v"), PredAtom("Q", (Variable("v"),))))
    assert classify(phi.body) <= SyntaxClass.BASIC
    assert classify(phi.body.left) is SyntaxClass.CLASSICAL


def test_canonical_keys():
    assert canonical_key(PropAtom("p0")) != canonical_key(PropAtom("p1"))


def test_primitive_form():
    a, b = PropAtom("p0"), PropAtom("p1")
    assert primitive_form(And(a, b)) == Not(Implies(a, Not(b)))
    assert primitive_form(Or(a, b)) == Implies(Not(a), b)
    assert primitive_form(Exists("v", P("v"))) == Not(Forall("v", Not(P("v"))))
    assert primitive_form(Sup(And(a, b), b)) == Sup(Not(Implies(a, Not(b))), b)


# ---------------------------------------------------------------------------
# Property tests

_names = st.sampled_from(["v", "u", "w"])


def _terms():
    base = st.one_of(
        st.builds(Variable, _names),
        st.sampled_from([Constant("c1"), Constant("c2"), Parameter("e0")]),
    )
    return st.recursive(
        base, lambda sub: st.builds(lambda t: FuncApp("g", (t,)), sub), max_leaves=3
    )


def _formulas(prop_atoms=True):
    atoms = st.one_of(
        st.sampled_from([PropAtom("p0"), PropAtom("p1")] if prop_atoms else [P("v")]),
        st.builds(lambda t: PredAtom("P", (t,)), _terms()),
        st.builds(PredAtom, st.just("R"), st.tuples(_terms(), _terms())),
        st.builds(Equality, _terms(), _terms()),
    )
    def extend(sub):
        return st.one_of(
            st.builds(Not, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Implies, sub, sub),
            st.builds(Iff, sub, sub),
            st.builds(Sup, sub, sub),
            st.builds(Forall, _names, sub),
            st.builds(Exists, _names, sub),
        )
    return st.recursive(atoms, extend, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_formulas())
def test_roundtrip_property(phi):
    assert parse(to_text(phi), SIG) == phi


@settings(max_examples=150, deadline=None)
@given(_formulas())
def test_print_parse_idempotent(phi):
    text = to_text(phi)
    assert to_text(parse(text, SIG)) == text


@settings(max_examples=200, deadline=None)
@given(_formulas())
def test_substitute_closed_term_removes_var(phi):
    fv = free_vars(phi)
    result = substitute(phi, "v", Constant("c1"))
    assert free_vars(result) == fv - {"v"}


@settings(max_examples=200, deadline=None)
@given(_formulas())
def test_classify_subformulas_property(phi):
    cls = classify(phi)
    for sub in _subformulas(phi):
        if cls is SyntaxClass.BASIC:
            assert classify(sub) <= SyntaxClass.BASIC
        if cls is SyntaxClass.RESTRICTED:
            assert classify(sub) <= SyntaxClass.RESTRICTED
    # predicate hierarchy is nested
    if is_classical(phi):
        assert is_basic(phi) and classify(phi) <= SyntaxClass.RESTRICTED
    if is_basic(phi):
        assert classify(phi) <= SyntaxClass.RESTRICTED


def _subformulas(phi):
    yield phi
    if isinstance(phi, Not):
        yield from _subformulas(phi.body)
    elif isinstance(phi, (And, Or, Implies, Iff, Sup)):
        yield from _subformulas(phi.left)
        yield from _subformulas(phi.right)
    elif isinstance(phi, (Forall, Exists)):
        yield from _subformulas(phi.body)


# ---------------------------------------------------------------------------
# Parse memo: a memoised parse against a plain one


def _outcome(text, memo=None):
    """The formula parsed from ``text``, or the class, message and position
    of the error it raises."""
    try:
        return parse(text, SIG, memo)
    except ParseError as exc:
        return type(exc), str(exc), exc.pos


@settings(max_examples=100, deadline=None)
@given(st.lists(_formulas(), min_size=1, max_size=4), st.data())
def test_memoised_parse_matches_plain_parse(parts, data):
    # texts that repeat the parts, whole, in parentheses or with one
    # parenthesis missing, so that one memo meets hits, misses and
    # unmatched parentheses
    texts = [to_text(part) for part in parts]
    pieces = st.sampled_from(texts + [f"({t})" for t in texts] + [f"(({t})" for t in texts]
                             + [f"{t})" for t in texts] + ["~", "$"])
    joints = st.sampled_from((" -> ", " /\\ ", " sup ", " <-> ", ""))
    memo = {}
    for _ in range(4):
        first = data.draw(pieces)
        rest = data.draw(st.lists(st.tuples(joints, pieces), max_size=3))
        text = first + "".join(joint + piece for joint, piece in rest)
        plain, memoised = _outcome(text), _outcome(text, memo)
        assert memoised == plain
        if isinstance(plain, tuple):
            assert text not in memo
        else:
            assert to_text(memoised) == to_text(plain)
            assert parse(text, SIG, memo) is memoised


# ---------------------------------------------------------------------------
# Parser: the precedence-climbing parser against the parser that had one
# method per binding level


def _balanced_pattern(depth):
    """The pattern of a text whose parentheses balance, nested at most
    ``depth`` deep.  Every repeated group starts with ``(`` and ``[^()]``
    matches no parenthesis, so a match is unique and backtracking stays
    bounded."""
    pattern = r"[^()]*"
    for _ in range(depth):
        pattern = rf"[^()]*(?:\({pattern}\)[^()]*)*"
    return pattern


# the longest prefix whose parentheses balance; a span nested deeper than 8
# is parsed rather than looked up, though the spans inside it are looked up
_BALANCED_RE = re.compile(_balanced_pattern(8))


class RefParser(syntax._Parser):
    """The parser before precedence climbing: ``iff`` down to ``sup`` each
    read one level, and ``neg`` and ``atom`` are as they were.  With a memo
    it finds a span's end by scanning for the ``)`` that closes it, as the
    parser did before it looked spans up by their first characters."""

    def _span(self, pos):
        """With a memo, the text between the ``(`` at ``pos`` and the ``)``
        that closes it; None without a memo, or when the parentheses after
        ``pos`` do not close or nest deeper than ``_BALANCED_RE`` follows."""
        if self.memo is None:
            return None
        end = _BALANCED_RE.match(self.text, pos + 1).end()
        if self.text.startswith(")", end):
            return self.text[pos + 1:end]
        return None

    def formula(self):
        return self.iff()

    def iff(self):
        left = self.implies()
        if self.tok[0] == "ARROW2":
            self.next()
            return Iff(left, self.iff())
        return left

    def implies(self):
        left = self.disj()
        if self.tok[0] == "ARROW":
            self.next()
            return Implies(left, self.implies())
        return left

    def disj(self):
        left = self.conj()
        while self.tok[0] == "OR":
            self.next()
            left = Or(left, self.conj())
        return left

    def conj(self):
        left = self.sup()
        while self.tok[0] == "AND":
            self.next()
            left = And(left, self.sup())
        return left

    def sup(self):
        left = self.neg()
        while self.tok[0] == "SUP":
            self.next()
            left = Sup(left, self.neg())
        return left

    def neg(self):
        if self.tok[0] == "NOT":
            self.next()
            return Not(self.neg())
        return self.atom()

    def atom(self):
        kind, value, pos = self.tok
        if kind == "LPAR":
            span = self._span(pos)
            if span is not None:
                phi = self.memo.get(span)
                if phi is not None:
                    self.end, self.after = pos + len(span) + 2, None
                    self.tok = self._lex()
                    return phi
            self.next()
            phi = self.formula()
            # a successful production reads balanced parentheses, so this
            # is the ``)`` that closes the span
            self.expect("RPAR")
            if span is not None:
                self.memo[span] = phi
            return phi
        if kind in ("FORALL", "EXISTS"):
            self.next()
            var_tok = self.expect("IDENT")
            var = var_tok[1]
            if not self._is_free_name(var):
                raise ParseError(f"cannot bind declared symbol {var!r}", var_tok[2])
            self.expect("DOT")
            body = self.formula()
            return (Forall if kind == "FORALL" else Exists)(var, body)
        if kind == "IDENT":
            if value in self.sig.predicates and self.ahead()[0] == "LPAR":
                self.next()
                args = self.args(value, self.sig.predicates[value], pos)
                return PredAtom(value, args)
            if self.sig.is_prop_atom(value) and self.ahead()[0] not in ("EQ", "LPAR"):
                self.next()
                return PropAtom(value)
            lhs = self.term()
            self.expect("EQ")
            return Equality(lhs, self.term())
        if kind == "PARAM":
            lhs = self.term()
            self.expect("EQ")
            return Equality(lhs, self.term())
        raise ParseError(f"expected a formula, found {value!r}", pos)


def _ref_outcome(text, memo=None):
    """``_outcome`` of the reference parser: ``parse`` and ``_parse_whole``
    as they were, over ``RefParser``."""
    try:
        phi = memo.get(text) if memo is not None else None
        if phi is None:
            try:
                parser = RefParser(text, SIG, memo)
                phi = parser.formula()
                kind, value, pos = parser.tok
                if kind != "EOF":
                    raise ParseError(f"trailing input {value!r}", pos)
            except RecursionError:
                raise syntax._unreadable(text) or ParseError(NESTED_TOO_DEEPLY) from None
            except ParseError as exc:
                raise syntax._unreadable(text) or exc from None
            if memo is not None:
                memo[text] = phi
        return phi
    except ParseError as exc:
        return type(exc), str(exc), exc.pos


def _assert_parsers_agree(texts):
    """Each text gives the same node, or the same error class, message and
    position, from both parsers, each with and without its own memo."""
    memo, ref_memo = {}, {}
    for text in texts:
        want = _ref_outcome(text)
        assert _outcome(text) == want, text
        assert _outcome(text, memo) == _ref_outcome(text, ref_memo) == want, text


_TOKENS = ("p0", "p1", "P", "R", "c1", "g", "v", "forall", "exists", "sup", "|", "~",
           "->", "<->", "\\/", "/\\", "(", "(", ")", ")", ",", ".", "=", "@e0", "$")


@settings(max_examples=400, deadline=None)
@given(st.lists(st.lists(st.sampled_from(_TOKENS), max_size=14), min_size=1, max_size=3),
       st.sampled_from((" ", "")))
def test_parser_matches_the_level_by_level_parser_on_token_strings(strings, joint):
    _assert_parsers_agree([joint.join(tokens) for tokens in strings])


def _loose_text(phi, rng):
    """``phi``'s text with each subformula in parentheses or not, at
    random, so that many texts group otherwise than their formula."""
    if isinstance(phi, syntax.ATOM_NODES):
        out = to_text(phi)
    elif isinstance(phi, Not):
        out = "~" + _loose_text(phi.body, rng)
    elif isinstance(phi, syntax.BinaryFormula):
        out = _loose_text(phi.left, rng) + syntax._INFIX[type(phi)][0] + \
            _loose_text(phi.right, rng)
    else:
        out = f"{syntax._QUANTIFIER_WORDS[type(phi)]} {phi.var}. {_loose_text(phi.body, rng)}"
    return f"({out})" if rng.random() < 0.5 else out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_formulas(), st.randoms(use_true_random=False)),
                min_size=1, max_size=3))
def test_parser_matches_the_level_by_level_parser_on_formulas(drawn):
    _assert_parsers_agree([_loose_text(phi, rng) for phi, rng in drawn])


def test_parser_groups_by_the_printers_levels():
    assert parse("p0 -> p1 -> p2 <-> p0 <-> p1", SIG) == Iff(
        Implies(PropAtom("p0"), Implies(PropAtom("p1"), PropAtom("p2"))),
        Iff(PropAtom("p0"), PropAtom("p1")))
    assert parse("~p0 sup p1 /\\ p2 sup p0 \\/ p1 /\\ p2", SIG) == Or(
        And(Sup(Not(PropAtom("p0")), PropAtom("p1")), Sup(PropAtom("p2"), PropAtom("p0"))),
        And(PropAtom("p1"), PropAtom("p2")))


# ---------------------------------------------------------------------------
# Symbols: the node fact against the walk that vocabulary_of made


def ref_vocabulary_of(formulas):
    """``models.vocabulary_of`` as it was: one walk over every formula."""
    atoms, consts, funcs, preds, params = set(), set(), set(), set(), set()
    fo_syntax = [False]

    def walk_term(t):
        if isinstance(t, Constant):
            consts.add(t.name)
        elif isinstance(t, Parameter):
            params.add(t.element)
        elif isinstance(t, FuncApp):
            funcs.add((t.name, len(t.args)))
            for a in t.args:
                walk_term(a)

    def walk(phi):
        if isinstance(phi, PropAtom):
            atoms.add(phi.name)
        elif isinstance(phi, PredAtom):
            fo_syntax[0] = True
            preds.add((phi.name, len(phi.args)))
            for a in phi.args:
                walk_term(a)
        elif isinstance(phi, Equality):
            fo_syntax[0] = True
            walk_term(phi.lhs)
            walk_term(phi.rhs)
        elif isinstance(phi, Not):
            walk(phi.body)
        elif isinstance(phi, (And, Or, Implies, Iff, Sup)):
            walk(phi.left)
            walk(phi.right)
        elif isinstance(phi, (Forall, Exists)):
            fo_syntax[0] = True
            walk(phi.body)

    for phi in formulas:
        walk(phi)
    if atoms and fo_syntax[0]:
        raise EvalError("vocabulary mixes propositional atoms with first-order symbols; "
                        "search spaces support one kind at a time")
    return Symbols(frozenset(atoms), frozenset(consts), frozenset(funcs), frozenset(preds),
                   frozenset(params), fo_syntax[0])


def ref_is_propositional(phi):
    """``proofs._is_propositional`` as it was, without its memo."""
    if isinstance(phi, PropAtom):
        return True
    if isinstance(phi, Not):
        return ref_is_propositional(phi.body)
    if isinstance(phi, syntax.BinaryFormula):
        return ref_is_propositional(phi.left) and ref_is_propositional(phi.right)
    return False


def _vocabulary_outcome(vocabulary, formulas):
    try:
        return vocabulary(formulas)
    except EvalError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_formulas(), _formulas(prop_atoms=False)), max_size=3))
def test_symbols_give_the_vocabulary_the_walk_gave(formulas):
    want = _vocabulary_outcome(ref_vocabulary_of, formulas)
    assert _vocabulary_outcome(vocabulary_of, formulas) == want
    # once more from the facts the first call stored, and one formula at a time
    assert _vocabulary_outcome(vocabulary_of, formulas) == want
    for phi in formulas:
        assert _vocabulary_outcome(vocabulary_of, [phi]) == \
            _vocabulary_outcome(ref_vocabulary_of, [phi])
        assert symbols(phi).first_order is not ref_is_propositional(phi)


@pytest.mark.parametrize("text", ["(p0 -> p1)) -> p0 $", "p0 sup $", "P((c1)) $",
                                  "(" * 3000 + "p0" + ")" * 3000 + " $"])
def test_unreadable_character_is_reported_before_grammar_errors(text):
    # the parser reads tokens as it goes, but reports such a character
    # wherever it is, as a lexer that ran over the whole text first would
    with pytest.raises(ParseError) as err:
        parse(text, SIG)
    assert str(err.value) == f"unexpected character '$' (at position {len(text) - 1})"


_PRIMED = ("(p0 -> p1) -> p0", "(P(c1) sup p1) /\\ p2", "(c1 = c2)")


@pytest.mark.parametrize("text", [
    "((p0 -> p1) -> p0",             # an unmatched (
    "(p0 -> p1)) -> p0",             # an unmatched )
    "(p0 -> p1) -> (p0 -> p1) )",    # a span parsed before, then junk
    "(p0 -> p1) -> (p0 -> p1) $",    # ... then a character no token starts
    "(p0 -> p1)) -> p0 $",           # a grammar error, then such a character
    "P((c1)) $",
    "(P(c1) sup p1) p2",
    "P((c1))",                       # a parenthesised term
    "(p0 -> p1) -> P((c1))",
    "(p0 -> p1) -> (c1 = c2",
    "(p0 -> p1) -> R(c1)",           # arity, after a hit
    "(p0 -> p1) -> (h(c1) = c2)",    # unknown symbol, after a hit
    "(" * 40 + "p0" + ")" * 39,
    "(" * 3000 + "p0" + ")" * 3000,
    "(" * 3000 + "p0" + ")" * 3000 + " $",
])
def test_memo_keeps_parse_errors(text):
    memo = {}
    for good in _PRIMED:
        parse(good, SIG, memo)
    plain, memoised = _outcome(text), _outcome(text, memo)
    assert isinstance(plain, tuple) and memoised == plain
    assert text not in memo


_JOINED = st.sampled_from((And, Or, Implies, Iff, Sup))


@settings(max_examples=100, deadline=None)
@given(st.lists(_formulas(), min_size=1, max_size=4), st.data())
def test_a_memo_makes_equal_subformulas_one_node(parts, data):
    # a batch of texts that join the parts, each subformula in parentheses
    # or not at random, so that one memo meets shared subformulas both in
    # spans it has seen and in text it must read
    rng = data.draw(st.randoms(use_true_random=False))
    memo, seen = {}, {}
    for _ in range(4):
        picked = data.draw(st.lists(st.sampled_from(parts), min_size=1, max_size=3))
        phi = picked[0]
        for part in picked[1:]:
            phi = data.draw(_JOINED)(phi, part)
        text = _loose_text(phi, rng)
        memoised = parse(text, SIG, memo)
        # the reference parser builds every node afresh, with no table
        assert memoised == parse(text, SIG) == _ref_outcome(text)
        for sub in _subformulas(memoised):
            assert seen.setdefault(sub, sub) is sub, to_text(sub)


# links of chains ``a -> b -> ...``; five of them make at least _HEAD characters
_LINKS = ("p0", "p1", "p2", "~p1", "P(c1)", "R(c1, g(v))", "(p2 sup p0)", "(c1 = v)")
_JOINTS = st.sampled_from((" /\\ ", " sup ", " -> ", " \\/ "))


@st.composite
def _head_sharing_texts(draw):
    """A batch of texts for one memo: two chains that share their first
    five links, each alone or joined to more, so that a span's head often
    matches a memo text that does not close where the span does (memo
    ``p0 -> p1 -> ...``, span ``(p0 -> p1 -> ... /\\ p2)``), nested up to 12
    deep, with a ``)`` missing now and then."""
    links = st.sampled_from(_LINKS)
    common = draw(st.lists(links, min_size=5, max_size=6))
    chains = [" -> ".join(common + draw(st.lists(links, max_size=3))) for _ in range(2)]
    assert all(len(chain) >= syntax._HEAD for chain in chains)
    pieces = st.sampled_from(chains + list(_LINKS))
    texts = []
    for _ in range(draw(st.integers(2, 6))):
        body = draw(pieces)
        for joint, piece in draw(st.lists(st.tuples(_JOINTS, pieces), max_size=2)):
            body += joint + (f"({piece})" if draw(st.booleans()) else piece)
        depth = draw(st.integers(0, 12))
        closing = max(depth - draw(st.sampled_from((0, 0, 0, 1))), 0)
        texts.append(draw(st.sampled_from(("", "~", "p2 sup ", "(p1) -> "))) + "(" * depth
                     + body + ")" * closing + draw(st.sampled_from(("", " /\\ p1", ")"))))
    return texts


@settings(max_examples=150, deadline=None)
@given(_head_sharing_texts())
def test_spans_found_by_their_heads_match_plain_and_scanning_parses(texts):
    # nodes, errors and positions equal the memo-free parse's and those of
    # the reference, which memoises by scanning for each span's end
    memo, ref_memo, seen = {}, {}, {}
    for text in texts:
        want = _outcome(text)
        assert _outcome(text, memo) == want == _ref_outcome(text, ref_memo), text
        if not isinstance(want, tuple):
            for sub in _subformulas(parse(text, SIG, memo)):
                assert seen.setdefault(sub, sub) is sub, to_text(sub)


# operands of chains whose rests one memo meets: quantifiers, whose body
# runs to the end of the text, negations, spans and atoms
_OPERANDS = ("p0", "~p1", "P(c1)", "R(c1, g(v))", "(p2 sup p0)", "(p1 -> p0 <-> p2)",
             "forall v. P(v)", "exists v. ~R(v, c1)", "~forall v. (P(v) sup Q(v))")
_CONNECTIVE_TEXTS = (" -> ", " <-> ", " \\/ ", " /\\ ", " sup ")


@st.composite
def _rest_sharing_texts(draw):
    """A batch of texts for one memo: a chain of operands joined by
    connectives of every binding strength, its rests after each of them,
    and each after a prefix that makes it a rest in turn, in any order and
    repeated; with trailing whitespace, or a ``)`` dropped, now and then."""
    parts = draw(st.lists(st.sampled_from(_OPERANDS), min_size=2, max_size=5))
    joints = draw(st.lists(st.sampled_from(_CONNECTIVE_TEXTS), min_size=len(parts) - 1,
                           max_size=len(parts) - 1))
    rests = [parts[-1]]
    for joint, part in zip(reversed(joints), reversed(parts[:-1])):
        rests.append(part + joint + rests[-1])
    prefixes = st.sampled_from(("",) * 4 + ("p2 -> ", "p1 sup ", "~p0 /\\ ", "p2 \\/ ",
                                            "(p0) <-> ", "forall u. p0 -> "))
    texts = []
    for rest in draw(st.lists(st.sampled_from(rests), min_size=2, max_size=8)):
        text = draw(prefixes) + rest + draw(st.sampled_from(("",) * 3 + (" ", " \n ")))
        closing = [i for i, char in enumerate(text) if char == ")"]
        if closing and draw(st.integers(0, 5)) == 0:
            i = draw(st.sampled_from(closing))
            text = text[:i] + text[i + 1:]
        texts.append(text)
    return texts


@settings(max_examples=150, deadline=None)
@given(_rest_sharing_texts())
@example(["p1 <-> p2", "p0 -> p1 <-> p2", "p1 -> p2", "p0 /\\ p1 -> p2"])
@example(["p0 -> p1 <-> p2", "p1 <-> p2", "p2 -> p1 <-> p2"])
@example(["p0 /\\ p1 -> p2", "p1 -> p2", "p2 /\\ p1 -> p2", "p0 sup p1 /\\ p2",
          "p1 /\\ p2", "p2 sup p1 /\\ p2", "p0 /\\ p1 \\/ p2", "p1 \\/ p2",
          "p2 /\\ p1 \\/ p2"])
@example(["forall v. P(v) -> Q(v)", "p0 -> forall v. P(v) -> Q(v)",
          "p0 sup forall v. P(v) -> Q(v)", "Q(v) ", "p1 -> Q(v) ", "p1 -> (Q(v) "])
def test_rests_after_connectives_match_plain_and_scanning_parses(texts):
    # a rest in the memo is taken whole only where the operand's parse
    # would read all of it: ``p1 <-> p2`` is not the right operand of
    # ``p0 -> p1 <-> p2``, nor ``p1 -> p2`` that of ``p0 /\ p1 -> p2``;
    # nodes, errors and positions equal the memo-free parse's and the
    # reference's, which remembers no rests
    memo, ref_memo, seen = {}, {}, {}
    for text in texts:
        want = _outcome(text)
        assert _outcome(text, memo) == want == _ref_outcome(text, ref_memo), text
        if not isinstance(want, tuple):
            for sub in _subformulas(parse(text, SIG, memo)):
                assert seen.setdefault(sub, sub) is sub, to_text(sub)


def test_memo_returns_repeated_spans_as_one_node(monkeypatch):
    memo = {}
    phi = parse("(p0 -> p1) -> ~(p0 -> p1)", SIG, memo)
    assert phi.left is phi.right.body
    assert parse("((p0 -> p1)) sup p2", SIG, memo).left is phi.left
    assert parse("(p0 -> p1) -> ~(p0 -> p1)", SIG, memo) is phi
    # a span is found at any depth: once seen, a span nested 30 deep is a
    # hit, and no token inside it is read again
    deep = "(" * 30 + "(p0 -> p1)" + ")" * 30
    assert parse(deep, SIG, memo) is phi.left
    text, read = "p2 -> " + deep, []
    lex = syntax._Parser._lex
    monkeypatch.setattr(syntax._Parser, "_lex", lambda self: read.append(lex(self)) or read[-1])
    assert parse(text, SIG, memo).right is phi.left
    assert [tok[2] for tok in read] == [0, 3, 6, len(text)]



def _nested(n, text):
    return "(" * n + text + ")" * n


def _under_frames(n, thunk):
    """``thunk()`` called ``n`` frames deeper than here."""
    return thunk() if n == 0 else _under_frames(n - 1, thunk)


def _same_outcomes(*runs):
    """Whether runs of ``_outcome`` over the same texts agree; ``==`` takes
    a few calls per level of formulas nested near the bound, so it is
    given room for them here, and only here."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 4 * MAX_NESTING)
    try:
        return all(run == runs[0] for run in runs)
    finally:
        sys.setrecursionlimit(limit)


def test_the_nesting_bound_holds_with_and_without_a_memo():
    """A text is accepted or refused alike with and without a memo, and
    whatever the caller's stack: near the bound, a span or a rest in the
    memo is read again.  ``p0 -> p1`` in 461 pairs of parentheses is
    parsed first; the same in 60 more pairs is too deep, as it is without
    a memo, and so is one more pair than the bound allows (498 in all).
    ``~`` 900 times before ``p0`` is a rest of each chain ``p1 -> p1 ->
    ...`` that ends in it: after 94 links it is taken from the memo, after
    95 to 98 it is read again and accepted, and 99 links are too many.  A
    chain of 997 links, each rest looked up and remembered, is accepted,
    and one of 998 is too deep."""
    inner = _nested(461, "p0 -> p1")
    negations = "~" * 900 + "p0"
    texts = [inner, _nested(60, inner), _nested(37, inner), _nested(38, inner),
             "p2 -> " + _nested(37, inner), "p2 -> " + _nested(38, inner),
             "~" * 61 + _nested(7, inner), "~" * 62 + _nested(7, inner),
             negations, "p1 -> " * 94 + negations, "p1 -> " * 95 + negations,
             "p1 -> " * 98 + negations, "p1 -> " * 99 + negations,
             "p2 -> " * 997 + "p0 -> p1", "p2 -> " * 998 + "p0 -> p1"]
    memo = {}
    outcomes = [_outcome(text, memo) for text in texts]
    assert _same_outcomes(outcomes, [_outcome(text) for text in texts],
                          [_under_frames(300, lambda: _outcome(text)) for text in texts])
    accepted = [not isinstance(outcome, tuple) for outcome in outcomes]
    assert accepted == [True, False, True, False, True, False, True, False,
                        True, True, True, True, False, True, False]
    assert outcomes[1] == outcomes[-1] == (ParseError, NESTED_TOO_DEEPLY, None)


_WRAPS = {"parentheses": lambda t: f"({t})", "negation": lambda t: "~" + t,
          "quantifier": lambda t: f"forall v. {t}", "implication": lambda t: f"p2 -> ({t})",
          "equality": lambda t: f"({t}) /\\ g(g(c1)) = c1"}


@settings(max_examples=60, deadline=None)
@given(st.integers(470, 497), st.lists(st.lists(st.sampled_from(sorted(_WRAPS)), max_size=20),
                                       min_size=2, max_size=4))
def test_memo_hits_near_the_nesting_bound_match_plain_parses(pairs, layers):
    """Texts that wrap the ones before them, around ``p0 -> p1`` in
    hundreds of parentheses, so that memo hits fall on both sides of the
    bound: each is accepted or refused alike with one memo and without."""
    texts, text = [], _nested(pairs, "p0 -> p1")
    for layer in layers:
        for wrap in layer:
            text = _WRAPS[wrap](text)
        texts.append(text)
    memo = {}
    assert [_outcome(text, memo) for text in texts] == [_outcome(text) for text in texts]

def test_memo_is_kept_per_signature():
    text = "(P(c) -> P(c)) -> P(c)"
    declared = Signature(constants={"c"}, predicates={"P": 1})
    undeclared = Signature(predicates={"P": 1})
    a, b = parse(text, declared, {}), parse(text, undeclared, {})
    assert a.right == PredAtom("P", (Constant("c"),))
    assert b.right == PredAtom("P", (Variable("c"),))


def test_patterns_need_no_python_newer_than_3_10():
    # pyproject asks for Python 3.10, whose re has no possessive repeats
    # and no atomic groups; the parse of each pattern shows them if present
    try:
        from re import _parser
    except ImportError:
        import sre_parse as _parser
    from supkit import syntax

    def opcodes(items):
        for item in items:
            if isinstance(item, _parser.SubPattern):
                yield from opcodes(item.data)
            elif isinstance(item, (tuple, list)):
                yield from opcodes(item)
            else:
                yield str(item)

    patterns = {name: v for name, v in vars(syntax).items() if isinstance(v, re.Pattern)}
    assert {"_TOKEN_RE", "_READABLE_RE"} <= patterns.keys()
    for pattern in patterns.values():
        used = set(opcodes(_parser.parse(pattern.pattern).data))
        assert not used & {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}, pattern.pattern


def test_sources_need_no_python_newer_than_3_10():
    # pyproject asks for Python 3.10: no source or test may use syntax
    # that 3.10 cannot parse, such as except* or type parameter lists
    root = Path(__file__).resolve().parent.parent
    files = sorted((root / "src" / "supkit").glob("*.py")) + sorted((root / "tests").glob("*.py"))
    assert len(files) >= 20
    for path in files:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
