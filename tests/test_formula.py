import random

import pytest
from hypothesis import given, settings, strategies as st

from clgames import formula as fm, verify
from clgames.formula import (Atom, Bang, Bot, ChoiceAll, ChoiceConj,
                             ChoiceDisj, ChoiceExists, Dollar, Elem,
                             Implies, Neg, ParConj, ParDisj, Sequent, Top,
                             Var)


def P(*args):
    return Atom("P", tuple(fm.term(a) for a in args))


def Q(*args):
    return Atom("Q", tuple(fm.term(a) for a in args))


class TestParsing:
    def test_choice_conjunction(self):
        assert fm.parse_formula("P & Q") == ChoiceConj((P(), Q()))

    def test_resource_implication(self):
        assert fm.parse_formula("!P -> P") == Implies(Bang(P()), P())

    def test_quantified_choice_disjunction(self):
        got = fm.parse_formula("@x.(P(x) + ~P(x))")
        assert got == ChoiceAll("x", ChoiceDisj((P("x"), Neg(P("x")))))

    def test_constants_and_dollar(self):
        assert fm.parse_formula("top") == Top()
        assert fm.parse_formula("bot") == Bot()
        assert fm.parse_formula("$") == Dollar()

    def test_variadic_collects_but_does_not_flatten(self):
        flat = fm.parse_formula("P /\\ Q /\\ P")
        assert isinstance(flat, ParConj) and len(flat.parts) == 3
        nested = fm.parse_formula("(P /\\ Q) /\\ P")
        assert isinstance(nested, ParConj) and len(nested.parts) == 2
        assert isinstance(nested.parts[0], ParConj)

    def test_implication_is_right_associative(self):
        f = fm.parse_formula("P -> Q -> P")
        assert f == Implies(P(), Implies(Q(), P()))

    def test_precedence(self):
        f = fm.parse_formula("P & Q -> P \\/ Q")
        assert isinstance(f, Implies)
        assert isinstance(f.left, ChoiceConj)
        assert isinstance(f.right, ParDisj)

    def test_mixed_same_level_needs_parens(self):
        with pytest.raises(fm.ParseError):
            fm.parse_formula("P /\\ Q & P")

    def test_arity_mismatch_rejected(self):
        with pytest.raises(fm.ParseError):
            fm.parse_formula("P(1) /\\ P(1,2)")

    def test_syntax_error_carries_position(self):
        with pytest.raises(fm.ParseError) as e:
            fm.parse_formula("P -> ")
        assert "position" in str(e.value)

    def test_lowercase_identifier_is_elementary(self):
        assert fm.parse_formula("p -> P") == Implies(Elem("p"), P())

    @pytest.mark.parametrize("text", ["R(0)", "R(01)", "R(\u0661)"])
    def test_constants_are_canonical_ascii_numerals(self, text):
        # [1-9][0-9]*, the syntax of `formula.term` and of moves
        with pytest.raises(fm.ParseError):
            fm.parse_formula(text)
        assert fm.parse_formula("R(10)").args == (fm.Const(10),)

    @pytest.mark.parametrize("text, pos", [
        ("\u00c9", 0), ("\u0420 -> P", 0), ("P\u00b2", 1)])
    def test_identifiers_are_ascii(self, text, pos):
        # a Cyrillic \u0420 would print like P and still be another letter
        with pytest.raises(fm.ParseError) as e:
            fm.parse_formula(text)
        assert e.value.pos == pos
        assert str(e.value) == \
            f"unexpected character {text[pos]!r} (at position {pos})"

    @pytest.mark.parametrize("text", ["\u00e9", "x\u00b2", "x\u0440"])
    def test_variables_are_ascii_identifiers(self, text):
        with pytest.raises(ValueError):
            fm.term(text)
        assert fm.term("x_1Y") == Var("x_1Y")


class TestFreeVars:
    def test_bound_occurrence(self):
        assert fm.free_vars(fm.parse_formula("@x.P(x)")) == frozenset()

    def test_free_occurrences(self):
        assert fm.free_vars(fm.parse_formula("P(x,y)")) == {"x", "y"}

    def test_mixed_occurrences(self):
        f = fm.parse_formula("!P(x) -> ?x.Q(x)")
        assert fm.free_vars(f) == {"x"}


class TestSubstitute:
    def test_basic(self):
        assert fm.substitute(P("x"), [("x", 5)]) == P(5)

    def test_bound_untouched(self):
        f = fm.parse_formula("@x.P(x)")
        assert fm.substitute(f, [("x", 5)]) == f

    def test_simultaneous(self):
        f = fm.parse_formula("P(x,y)")
        assert fm.substitute(f, [("x", "y"), ("y", "x")]) == P("y", "x")

    def test_duplicate_variable_rejected(self):
        with pytest.raises(ValueError):
            fm.substitute(P("x"), [("x", 1), ("x", 2)])

    def test_constant_substitution_removes_free_occurrence(self):
        f = fm.parse_formula("P(x) /\\ ?x.Q(x)")
        assert "x" not in fm.free_vars(fm.substitute(f, [("x", 3)]))


class TestFreeFor:
    def test_constants_always_free_for(self):
        assert fm.is_free_for(3, "x", P("x"))

    def test_capture_detected(self):
        f = ChoiceAll("y", P("x", "y"))
        assert not fm.is_free_for("y", "x", f)

    def test_different_binder_is_fine(self):
        f = ChoiceAll("z", P("x", "z"))
        assert fm.is_free_for("y", "x", f)

    def test_no_free_occurrence_is_fine(self):
        f = ChoiceAll("y", ChoiceAll("x", P("x", "y")))
        assert fm.is_free_for("y", "x", f)

    def test_capture_inside_a_compound_body(self):
        # the side condition of LeftChoiceAll and RightChoiceExists
        assert not fm.is_free_for("y", "x",
                                  fm.parse_formula("P(x) /\\ ?y.Q(x)"))
        assert fm.is_free_for("y", "x", fm.parse_formula("P(x) /\\ ?z.Q(x)"))


class TestVariadicGuards:
    @pytest.mark.parametrize("node, name", [
        (ParConj, "parallel conjunction"), (ParDisj, "parallel disjunction"),
        (ChoiceConj, "choice conjunction"), (ChoiceDisj, "choice disjunction")])
    def test_one_part_is_refused(self, node, name):
        with pytest.raises(ValueError, match=f"^{name} needs >= 2 parts$"):
            node((P(),))


class TestSequents:
    def test_empty_context(self):
        s = fm.parse_sequent("=> P")
        assert fm.sequent_to_formula(s) == P()

    def test_single_context(self):
        s = fm.parse_sequent("Q => P")
        assert fm.sequent_to_formula(s) == Implies(Bang(Q()), P())

    def test_two_member_context(self):
        s = fm.parse_sequent("P, Q => P")
        got = fm.sequent_to_formula(s)
        assert got == Implies(ParConj((Bang(P()), Bang(Q()))), P())

    @pytest.mark.parametrize("text", ["R => R(1)", "R(1), R(1,2) => P",
                                      "R(1) => @x.R(x, x)"])
    def test_one_arity_per_letter_across_the_sequent(self, text):
        # `!R -> R(1)` is refused as a formula; its sequent must be too
        with pytest.raises(fm.ParseError):
            fm.parse_sequent(text)

    def test_sublanguage_enforced(self):
        with pytest.raises(ValueError):
            Sequent((ParConj((P(), Q())),), P())

    def test_sublanguage_check(self):
        assert fm.is_int_formula(fm.parse_formula("!(P & Q) -> ?x.R(x)"))
        assert not fm.is_int_formula(fm.parse_formula("P -> Q"))
        assert not fm.is_int_formula(fm.parse_formula("~P"))
        assert fm.is_int_formula(Implies(Bang(P()), Q()))


# ---------------------------------------------------------------------------
# The regex tokenizer against the character loop it replaced, kept here as
# the reference.

_OLD_SYMBOLS = ["->", "/\\", "\\/", "=>", "(", ")", ",", ".", "~", "!", "@",
                "?", "&", "+", "$"]


def _old_tokenize(text: str):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        for sym in _OLD_SYMBOLS:
            if text.startswith(sym, i):
                toks.append((sym, sym, i))
                i += len(sym)
                break
        else:
            if "0" <= c <= "9":
                j = i
                while j < n and "0" <= text[j] <= "9":
                    j += 1
                toks.append(("INT", text[i:j], i))
                i = j
            elif c.isalpha():
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                toks.append(("IDENT", text[i:j], i))
                i = j
            else:
                raise fm.ParseError(f"unexpected character {c!r}", i)
    toks.append(("EOF", "", n))
    return toks


# every symbol whole, each of its characters alone, identifier and numeral
# characters, whitespace, and characters no token starts with
_PIECES = _OLD_SYMBOLS + list("-/\\=>") + list("PQxy_019") + \
    [" ", "\t", "\n", "\x0b"] + list("#*<]")


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except fm.ParseError as e:
        return ("error", e.pos, str(e))


def test_the_regex_tokenizer_agrees_with_the_character_loop():
    rng = random.Random(1919)
    errors = 0
    for _ in range(5000):
        text = "".join(rng.choice(_PIECES) for _ in range(rng.randrange(16)))
        got = _tokens_or_error(fm._tokenize, text)
        assert got == _tokens_or_error(_old_tokenize, text), repr(text)
        errors += got[0] == "error"
    assert 1000 < errors < 4000         # both outcomes are well exercised


# ---------------------------------------------------------------------------
# Property tests

_leaf = st.sampled_from([P(), Q(), Atom("R", (Var("x"),)), Dollar(), Top(),
                         Bot(), Elem("p")])


def _combine(children):
    unary = st.one_of(
        children.map(Neg),
        children.map(Bang),
        children.map(lambda f: ChoiceAll("x", f)),
        children.map(lambda f: ChoiceExists("y", f)),
    )
    binary = st.tuples(children, children).flatmap(
        lambda ab: st.sampled_from([
            ParConj(ab), ParDisj(ab), Implies(*ab),
            ChoiceConj(ab), ChoiceDisj(ab)]))
    return st.one_of(unary, binary)


formulas = st.recursive(_leaf, _combine, max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(formulas)
def test_render_parse_round_trip(f):
    g = fm.parse_formula(fm.render(f))
    assert g == f and hash(g) == hash(f)


def test_formula_hashes_tell_node_classes_apart():
    # the nodes in each group have the same fields
    for group in (["P /\\ Q", "P \\/ Q", "P & Q", "P + Q"], ["~P", "!P"],
                  ["@x.R(x)", "?x.R(x)"], ["top", "bot", "$"]):
        hashes = {hash(fm.parse_formula(text)) for text in group}
        assert len(hashes) == len(group), group
    shapes = verify._all_shapes(4)
    assert len({hash(f) for f in shapes}) == len(shapes) == 2850


@settings(max_examples=100, deadline=None)
@given(formulas)
def test_substituting_a_constant_eliminates_the_variable(f):
    g = fm.substitute(f, [("x", 7)])
    assert "x" not in fm.free_vars(g)


@settings(max_examples=100, deadline=None)
@given(formulas)
def test_free_vars_subset_of_all_vars(f):
    assert fm.free_vars(f) <= fm.all_vars(f)


# ---------------------------------------------------------------------------
# replace_at, which copies each node on the path in one recursion, against
# a rebuild of each node from its children

def _ref_replace_at(f, path, sub):
    """Rebuild each node along the path from its children."""
    if not path:
        return sub
    k, kids = path[0], list(fm.children(f))
    kids[k] = _ref_replace_at(kids[k], path[1:], sub)
    if isinstance(f, Implies):
        return Implies(*kids)
    if isinstance(f, (ChoiceAll, ChoiceExists)):
        return type(f)(f.var, kids[0])
    if isinstance(f, (Neg, Bang)):
        return type(f)(kids[0])
    return type(f)(tuple(kids))


def _nodes(f, path=()):
    """(path, subformula) for every node of f."""
    yield path, f
    for k, c in enumerate(fm.children(f)):
        yield from _nodes(c, path + (k,))


@settings(max_examples=100, deadline=None)
@given(formulas)
def test_replace_at_copies_the_path_as_a_rebuild_would(f):
    for path, g in _nodes(f):
        assert fm.replace_at(f, path, Dollar()) == \
            _ref_replace_at(f, path, Dollar())
        # one step past the last child (or into a leaf), or negative
        for k in (len(fm.children(g)), -1):
            with pytest.raises(IndexError):
                fm.replace_at(f, path + (k,), Top())
