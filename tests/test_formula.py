import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from clgames import formula as fm, strategies, verify
from clgames.cl2 import CL2Proof, CL2Step
from clgames.formula import (Atom, Bang, Bot, ChoiceAll, ChoiceConj,
                             ChoiceDisj, ChoiceExists, Dollar, Elem,
                             Implies, Neg, ParConj, ParDisj, Sequent, Top,
                             Var)
from clgames.intproof import ProofNode
from clgames.strategies import Expr


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
        with pytest.raises(ValueError, match=r"^not in the sublanguage: ~P$"):
            Sequent(context=(), succedent=Neg(P()))

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


# ---------------------------------------------------------------------------
# A node is the tuple of its class followed by its fields, and so are the
# value records built on the same base: sequents, proofs and strategy
# expressions

_FIELDS = {Atom: ("letter", "args"), Elem: ("name",), Top: (), Bot: (),
           Dollar: (), Neg: ("body",), Bang: ("body",), ParConj: ("parts",),
           ParDisj: ("parts",), ChoiceConj: ("parts",),
           ChoiceDisj: ("parts",), Implies: ("left", "right"),
           ChoiceAll: ("var", "body"), ChoiceExists: ("var", "body"),
           Var: ("name",), fm.Const: ("value",),
           Sequent: ("context", "succedent"),
           ProofNode: ("sequent", "rule", "children", "i", "t", "y", "pos"),
           CL2Step: ("formula", "rule", "premises", "path", "index",
                     "pos_path", "neg_path", "atom"),
           CL2Proof: ("steps",), Expr: ("kind", "payload", "children")}

# one node of every class and its repr: `Class(field=value, ...)`, and
# a term's name or value; a record's repr is the one its dataclass printed
_REPRS = [
    (Atom("R", (Var("x"), fm.Const(3))), "Atom(letter='R', args=(x, 3))"),
    (Atom("P"), "Atom(letter='P', args=())"),
    (Elem("p"), "Elem(name='p')"),
    (Top(), "Top()"), (Bot(), "Bot()"), (Dollar(), "Dollar()"),
    (Neg(P()), "Neg(body=Atom(letter='P', args=()))"),
    (Bang(Elem("q")), "Bang(body=Elem(name='q'))"),
    (ParConj((P(), Top())),
     "ParConj(parts=(Atom(letter='P', args=()), Top()))"),
    (ParDisj((Bot(), Dollar(), P())),
     "ParDisj(parts=(Bot(), Dollar(), Atom(letter='P', args=())))"),
    (ChoiceConj((P(), Q())), "ChoiceConj(parts=(Atom(letter='P', args=()),"
                             " Atom(letter='Q', args=())))"),
    (ChoiceDisj((Top(), Top())), "ChoiceDisj(parts=(Top(), Top()))"),
    (Implies(Bang(P()), Q(7)), "Implies(left=Bang(body=Atom(letter='P',"
                               " args=())), right=Atom(letter='Q', args=(7,)))"),
    (ChoiceAll("x", P("x")), "ChoiceAll(var='x', body=Atom(letter='P',"
                             " args=(x,)))"),
    (ChoiceExists("y", Neg(Q("y", 2))), "ChoiceExists(var='y', body=Neg("
                                        "body=Atom(letter='Q', args=(y, 2))))"),
    (Var("x"), "x"), (fm.Const(12), "12"),
    (Sequent((P(),), P()), "Sequent(context=(Atom(letter='P', args=()),),"
                           " succedent=Atom(letter='P', args=()))"),
    (ProofNode(Sequent((P(), Q(2)), P()), "Exchange",
               (ProofNode(Sequent((Q(2), P()), P()), "Weakening"),), pos=0),
     "ProofNode(sequent=Sequent(context=(Atom(letter='P', args=()),"
     " Atom(letter='Q', args=(2,))), succedent=Atom(letter='P', args=())),"
     " rule='Exchange', children=(ProofNode(sequent=Sequent(context=("
     "Atom(letter='Q', args=(2,)), Atom(letter='P', args=())),"
     " succedent=Atom(letter='P', args=())), rule='Weakening', children=(),"
     " i=0, t='', y='', pos=-1),), i=0, t='', y='', pos=0)"),
    (CL2Step(Implies(P(), P()), "c", (1,), pos_path=(0,), neg_path=(1,),
             atom="p"),
     "CL2Step(formula=Implies(left=Atom(letter='P', args=()),"
     " right=Atom(letter='P', args=())), rule='c', premises=(1,), path=(),"
     " index=0, pos_path=(0,), neg_path=(1,), atom='p')"),
    (CL2Proof((CL2Step(Top(), "a"),)),
     "CL2Proof(steps=(CL2Step(formula=Top(), rule='a', premises=(), path=(),"
     " index=0, pos_path=(), neg_path=(), atom=''),))"),
    (Expr("mp", children=(strategies.reg("l5"), Expr("cl2", "P -> P"))),
     "Expr(kind='mp', payload='', children=(Expr(kind='reg', payload='l5',"
     " children=()), Expr(kind='cl2', payload='P -> P', children=())))"),
]
_NODES = [node for node, _ in _REPRS]


def _fields_of(node) -> tuple:
    return tuple(getattr(node, name) for name in _FIELDS[type(node)])


def test_the_sample_has_every_node_class():
    assert {type(node) for node in _NODES} == set(_FIELDS)


@pytest.mark.parametrize("node, text", _REPRS, ids=[t for _, t in _REPRS])
def test_repr_names_every_field(node, text):
    assert repr(node) == text


def test_classes_with_equal_fields_give_unequal_nodes():
    parts = (P(), Q("x"))
    for group in ([ParConj(parts), ParDisj(parts), ChoiceConj(parts),
                   ChoiceDisj(parts)], [Neg(P()), Bang(P())],
                  [ChoiceAll("x", P("x")), ChoiceExists("x", P("x"))],
                  [Top(), Bot(), Dollar()], [Var("x"), Elem("x")],
                  [Neg(Top()), CL2Proof(Top())],
                  [Implies((), P()), Sequent((), P())]):
        assert len({_fields_of(node) for node in group}) == 1
        for a in group:
            for b in group:
                assert (a == b) is (a is b) and (a != b) is (a is not b)


@pytest.mark.parametrize("node", _NODES, ids=repr)
def test_a_node_hashes_as_its_class_and_fields(node):
    fields = _fields_of(node)
    assert tuple(node) == (type(node), *fields)
    assert hash(node) == hash((type(node), *fields))
    assert node != fields and fields != node
    assert node == type(node)(*fields)
    assert node == type(node)(**dict(zip(_FIELDS[type(node)], fields)))


@pytest.mark.parametrize("node", _NODES + [fm.parse_formula(
    "@x.(P(x,3) /\\ ~Q) -> !R + $ + top + q")], ids=repr)
def test_copies_and_pickles_are_equal_nodes_of_the_same_class(node):
    copies = [copy.copy(node), copy.deepcopy(node)] + [
        pickle.loads(pickle.dumps(node, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert twin == node and type(twin) is type(node)
        assert repr(twin) == repr(node) and hash(twin) == hash(node)


@pytest.mark.parametrize("node", _NODES, ids=repr)
def test_a_node_is_immutable(node):
    for name in _FIELDS[type(node)] + ("extra",):
        with pytest.raises(AttributeError):
            setattr(node, name, Top())
    assert node == copy.deepcopy(node)


@pytest.mark.parametrize("node, name", [
    (ParConj, "parallel conjunction"), (ParDisj, "parallel disjunction"),
    (ChoiceConj, "choice conjunction"), (ChoiceDisj, "choice disjunction")])
def test_fewer_than_two_parts_keep_their_messages(node, name):
    for parts in ((), (P(),)):
        with pytest.raises(ValueError, match=f"^{name} needs >= 2 parts$"):
            node(parts)
        with pytest.raises(ValueError, match=f"^{name} needs >= 2 parts$"):
            node(parts=parts)


def test_an_expression_built_twice_is_one_prototype():
    first = strategies._prototype(strategies.reg("l5"))
    size = strategies._prototype.cache_info().currsize
    assert strategies._prototype(Expr("reg", "l5")) is first
    assert strategies._prototype.cache_info().currsize == size
