import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from clgames import epm, formula as fm, games, oracle, verify
from clgames.formula import Atom, Bang
from clgames.games import (B, FiniteGame, GameRef, IllegalPositionError,
                           Interpretation, Labmove, MoveStatus, T, Valuation,
                           advance, branch_view, candidate_moves,
                           classify_move, enumerate_grounded_atoms,
                           game_state, grounded_atom_index, labmoves,
                           legal_moves, load_interpretation, position_legal,
                           prelegal_and_tree, random_interpretation,
                           split_bang_move, successors, tree_leaves, winner)
from clgames.strategies import build_strategy
from wholerun import negate_run, project, subrun_upto


def interp_ab():
    a1 = FiniteGame(T, {(B, "a"): FiniteGame(B, {(T, "b"): FiniteGame(T)})})
    a2 = FiniteGame(B, {(B, "c"): FiniteGame(T)})
    return Interpretation({"A1/0": lambda _: a1, "A2/0": lambda _: a2})


def ref(text, itp=None, val=None):
    return GameRef(fm.parse_formula(text), itp or interp_ab(),
                   val or Valuation())


def same_game(a, b, depth: int) -> bool:
    """States `a` and `b` have the same outcome and the same legal moves
    on every run of up to `depth` moves."""
    if a.outcome() is not b.outcome():
        return False
    if depth == 0:
        return True
    for p in (T, B):
        moves = legal_moves(a, p)
        if moves != legal_moves(b, p) or not all(
                same_game(a.step(p, m), b.step(p, m), depth - 1)
                for m in moves):
            return False
    return True


class TestClassifyMove:
    def test_choice_conjunction_is_resolved_by_the_environment(self):
        g = ref("A1 & A2")
        assert classify_move(g, (), Labmove(B, "1")) is MoveStatus.LEGAL
        assert classify_move(g, (), Labmove(T, "1")) is MoveStatus.ILLEGAL

    def test_recurrence_replication_only_at_leaves(self):
        g = ref("!A1")
        assert classify_move(g, (), Labmove(B, ":")) is MoveStatus.LEGAL
        assert classify_move(g, (), Labmove(B, "0:")) is MoveStatus.ILLEGAL

    def test_parallel_index_bound(self):
        g = ref("A1 /\\ A2")
        assert classify_move(g, (), Labmove(T, "3.a")) is MoveStatus.ILLEGAL

    def test_illegal_position_rejected(self):
        g = ref("A1 & A2")
        with pytest.raises(IllegalPositionError):
            classify_move(g, labmoves(("T", "1")), Labmove(B, "1"))

    def test_reserved_symbol_always_illegal(self):
        g = ref("A1")
        assert classify_move(g, (), Labmove(B, "♠")) is MoveStatus.ILLEGAL


class TestNumerals:
    """Only ASCII numerals [1-9][0-9]* choose; other Unicode digits are
    ordinary illegal moves, in the engine and in the oracle alike."""

    CASES = [("top & bot", "²"), ("A1 & A2", "١"), ("A1 /\\ A2", "١.x"),
             ("A1 & A2", "01"), ("A1 /\\ A2", "²."), ("A1 & A2", " 1")]

    def test_non_ascii_digits_are_illegal(self):
        for text, mv in self.CASES:
            g = ref(text)
            lm = Labmove(B, mv)
            assert classify_move(g, (), lm) is MoveStatus.ILLEGAL, (text, mv)
            assert winner(g, (lm,)) is T
            assert oracle.oracle_run(g.formula, g.interp, g.valuation,
                                     (lm,)) == (False, T)

    def test_ascii_numerals_still_choose(self):
        g = ref("A1 /\\ A2")
        assert classify_move(g, (), Labmove(B, "1.a")) is MoveStatus.LEGAL
        assert classify_move(ref("A1 & A2"), (), Labmove(B, "2")) \
            is MoveStatus.LEGAL


class TestCandidateMoves:
    def test_illegal_position_raises_with_no_raw_candidates(self):
        # top has no candidate moves at all, legal or not
        with pytest.raises(IllegalPositionError):
            candidate_moves(ref("top"), labmoves(("T", "x")), B)

    def test_illegal_position_raises_with_raw_candidates(self):
        with pytest.raises(IllegalPositionError):
            candidate_moves(ref("A1 & A2"), labmoves(("T", "1")), B)

    def test_legal_moves_are_sorted(self):
        g = ref("!A1")
        assert candidate_moves(g, (), B) == [".a", ":"]
        assert candidate_moves(g, labmoves(("B", ":")), B) == \
            [".a", "0.a", "0:", "1.a", "1:"]

    def test_recurrence_node_move_offered_by_one_leaf_only(self):
        # leaf 0 has chosen 1 and its atom offers "7", above the cap;
        # leaf 1 has not chosen yet, so "7" is a legal choice there too
        a = FiniteGame(T, {(B, "7"): FiniteGame(B)})
        g = ref("!@x.A", Interpretation({"A/0": lambda _: a}))
        run = labmoves(("B", ":"), ("B", "0.1"))
        assert candidate_moves(g, run, B) == \
            [".7", "0.7", "0:", "1.1", "1.2", "1.3", "1:"]
        assert candidate_moves(g, run, T) == []

    def test_moves_with_the_reserved_symbol_are_never_listed(self):
        a = FiniteGame(T, {(B, "a"): FiniteGame(B), (B, "x♠"): FiniteGame(B)})
        itp = Interpretation({"A/0": lambda _: a})
        assert candidate_moves(ref("A", itp), (), B) == ["a"]
        assert candidate_moves(ref("!A /\\ A", itp), (), B) == \
            ["1..a", "1.:", "2.a"]

    def test_structural_moves_under_a_recurrence(self):
        g = ref("!(A1 & A2)")
        run = labmoves(("B", ":"), ("B", "0.1"))
        assert candidate_moves(g, run, B, structural_only=True) == \
            ["0:", "1.1", "1.2", "1:"]
        assert candidate_moves(g, run, B) == \
            ["0.a", "0:", "1.1", "1.2", "1:"]

    def test_listing_a_choice_builds_no_component(self, monkeypatch):
        # the quantifier's body is one large block; only stepping a choice
        # instantiates its plan
        g = ref("@x.(" + TEN + ")")
        state = game_state(g)
        calls = []
        call = games._BlockPlan.__call__
        monkeypatch.setattr(games._BlockPlan, "__call__",
                            lambda plan, itp, val: calls.append(plan)
                            or call(plan, itp, val))
        assert legal_moves(state, B) == [
            str(i) for i in range(1, games.CHOICE_CAP + 1)]
        assert calls == []
        assert state.step(B, "7") is not None and len(calls) == 1

    def test_malformed_recurrence_moves_are_illegal_to_both_judges(self):
        g = ref("!A1")
        for mv in (":x", "0:1", "::", "2:", "01.a"):
            for p in (B, T):
                run = labmoves((p.value, mv))
                assert not position_legal(g, run), mv
                assert oracle.oracle_run(g.formula, g.interp, g.valuation,
                                         run) == (False, p.opponent), mv


class TestWinner:
    def test_unresolved_machine_choice_loses(self):
        assert winner(ref("A1 + A2"), ()) is B

    def test_unresolved_environment_choice_wins(self):
        assert winner(ref("A1 & A2"), ()) is T

    def test_top_and_bot(self):
        assert winner(ref("top"), ()) is T
        assert winner(ref("bot"), ()) is B

    def test_mirrored_implication_run(self):
        g = ref("A1 -> A1")
        run = labmoves(("B", "2.a"), ("T", "1.a"))
        ok, w = oracle.oracle_run(g.formula, g.interp, g.valuation, run)
        assert ok and w is T
        assert winner(g, run) is T

    def test_offender_loses(self):
        g = ref("A1 & A2")
        run = labmoves(("B", "1"), ("B", "zzz"))
        assert winner(g, run) is T
        run2 = labmoves(("T", "9"),)
        assert winner(g, run2) is B


class TestPrefixation:
    def test_resolved_choice_is_the_component(self):
        # the state after a choice of A_i plays as A_i's own game
        itp = interp_ab()
        for text, chooser in (("A1 & A2", B), ("A1 + A2", T)):
            root = ref(text, itp).root()
            for i in (1, 2):
                chosen = advance(root, Labmove(chooser, str(i)))
                assert same_game(chosen, ref(f"A{i}", itp).root(), 3)


class TestRunUtilities:
    def test_project_strips_the_prefix(self):
        run = labmoves(("B", "2.a"), ("T", "1.b"))
        assert project(run, "1.") == labmoves(("T", "b"))
        assert project((), "1.") == ()

    def test_project_is_a_raw_string_prefix(self):
        assert project(labmoves(("T", "10.x")), "1") == labmoves(("T", "0.x"))

    def test_negate_run(self):
        assert negate_run(labmoves(("T", "a"))) == labmoves(("B", "a"))
        assert negate_run(()) == ()

    def test_prelegal_and_tree(self):
        ok, t = prelegal_and_tree(())
        assert ok and t == frozenset({""})
        ok, t = prelegal_and_tree(labmoves(("B", ":")))
        assert ok and t == frozenset({"", "0", "1"})
        ok, t = prelegal_and_tree(labmoves(("B", ":"), ("B", "00:")))
        assert not ok and t == frozenset({"", "0", "1"})

    def test_branch_view(self):
        g = labmoves(("T", ".a1"), ("B", ":"), ("B", "1.a2"), ("T", "0.a3"),
                     ("B", "1:"), ("T", "10.a4"))
        assert subrun_upto(g, "101000") == labmoves(
            ("T", "a1"), ("B", "a2"), ("T", "a4"))
        assert subrun_upto(labmoves(("B", ":")), "0") == ()
        assert subrun_upto(g, "") == labmoves(("T", "a1"))
        parsed = [(lm.player, split_bang_move(lm.move)) for lm in g]
        for u in ("101000", "0", "1", ""):
            assert branch_view(parsed, u) == list(subrun_upto(g, u))


class TestUniversalProblem:
    def test_every_positive_numeral_is_a_legal_choice(self):
        itp = Interpretation({"P/0": lambda _: FiniteGame(T),
                              "Q/1": lambda _: FiniteGame(B)})
        g = GameRef(fm.parse_formula("$"), itp)
        for m in ("1", "2", "7", "30"):
            assert classify_move(g, (), Labmove(B, m)) is MoveStatus.LEGAL
        assert classify_move(g, (), Labmove(T, "1")) is MoveStatus.ILLEGAL
        assert classify_move(g, (), Labmove(B, "0")) is MoveStatus.ILLEGAL

    def test_listing_stops_at_a_finite_signature_supply(self):
        # the base and one conjunct per 0-ary letter, and no more than
        # the cap of 3
        assert games.CHOICE_CAP == 3

        def dollar(*letters):
            itp = Interpretation({k: lambda _: FiniteGame(T)
                                  for k in letters})
            return game_state(GameRef(fm.parse_formula("$"), itp))
        state = dollar("P/0")
        assert legal_moves(state, B) == ["1", "2"]
        assert state.step(B, "2") is not None
        assert state.step(B, "3") is None
        state = dollar("P/0", "Q/0", "S/0")
        assert legal_moves(state, B) == ["1", "2", "3"]
        assert state.step(B, "4") is not None
        assert state.step(B, "5") is None
        assert legal_moves(dollar("P/0", "R/1"), B) == ["1", "2", "3"]

    def test_unresolved_choice_wins_for_the_machine(self):
        itp = Interpretation({"P/0": lambda _: FiniteGame(B)})
        assert winner(GameRef(fm.parse_formula("$"), itp), ()) is T

    def test_first_conjunct_is_the_base(self):
        base = FiniteGame(B, {(B, "z"): FiniteGame(T)})
        itp = Interpretation({"P/0": lambda _: FiniteGame(T)}, base)
        g = GameRef(fm.parse_formula("$"), itp)
        chosen = advance(g.root(), Labmove(B, "1"))
        direct = GameRef(Atom("Z"), Interpretation({"Z/0": lambda _: base}))
        assert same_game(chosen, direct.root(), 3)

    def test_finite_signature_exhausts(self):
        itp = Interpretation({"P/0": lambda _: FiniteGame(T)})
        g = GameRef(fm.parse_formula("$"), itp)
        assert classify_move(g, (), Labmove(B, "2")) is MoveStatus.LEGAL
        assert classify_move(g, (), Labmove(B, "3")) is MoveStatus.ILLEGAL


class TestEnumeration:
    def test_single_nullary_letter(self):
        sig = (("P", 0),)
        assert enumerate_grounded_atoms(sig, 1) == ("P", ())

    def test_unary_stream(self):
        sig = (("Q", 1),)
        assert enumerate_grounded_atoms(sig, 1) == ("Q", (1,))
        assert enumerate_grounded_atoms(sig, 2) == ("Q", (2,))

    def test_diagonal_interleaving(self):
        sig = (("P", 0), ("Q", 1))
        atoms = [enumerate_grounded_atoms(sig, k) for k in range(1, 5)]
        assert atoms[0] == ("P", ())
        assert atoms[1:] == [("Q", (1,)), ("Q", (2,)), ("Q", (3,))]

    def test_bijection(self):
        sig = (("P", 0), ("Q", 2), ("R", 1))
        seen = set()
        for k in range(1, 40):
            atom = enumerate_grounded_atoms(sig, k)
            assert atom not in seen
            seen.add(atom)
            assert grounded_atom_index(sig, *atom) == k

    def test_index_starts_at_one(self):
        with pytest.raises(ValueError):
            enumerate_grounded_atoms((("P", 0),), 0)

    @pytest.mark.parametrize("sig", [
        (("S", 2), ("P", 0), ("R", 1), ("Q", 0)),
        (("P", 0), ("Q", 0), ("R", 0)),
        (("S", 3),),
    ])
    def test_closed_form_matches_the_round_robin(self, sig):
        atoms = list(itertools.islice(_round_robin(sig), 2000))
        for k in range(1, 2001):
            if k > len(atoms):
                with pytest.raises(IndexError):
                    enumerate_grounded_atoms(sig, k)
                continue
            assert enumerate_grounded_atoms(sig, k) == atoms[k - 1]
            assert grounded_atom_index(sig, *atoms[k - 1]) == k

    def test_far_atoms_rank_and_unrank_directly(self):
        sig = (("P", 0), ("R", 1), ("S", 2))
        assert grounded_atom_index(sig, "S", (40, 40)) == 6243
        assert enumerate_grounded_atoms(sig, 6243) == ("S", (40, 40))
        k = 10 ** 30
        assert grounded_atom_index(sig, *enumerate_grounded_atoms(sig, k)) == k

    @pytest.mark.parametrize("name, args", [
        ("T", (1,)), ("R", (0,)), ("R", (1, 1)), ("S", (2, -1)), ("P", (1,))])
    def test_atoms_outside_the_signature_have_no_index(self, name, args):
        with pytest.raises(ValueError):
            grounded_atom_index((("P", 0), ("R", 1), ("S", 2)), name, args)

    def test_a_far_dollar_conjunct_is_a_legal_choice(self):
        itp = random_interpretation(1, (("P", 0), ("R", 1)), 2)
        g = GameRef(fm.parse_formula("$"), itp)
        lm = Labmove(B, "1000000000")
        assert classify_move(g, (), lm) is MoveStatus.LEGAL


def _round_robin(sig):
    """The enumeration restated naively: round 0 lists every letter with
    its first tuple, each later round each positive-arity letter's next
    tuple, tuples in (sum, lex) order."""
    def tuples(arity):
        for total in itertools.count(arity):
            yield from (t for t in itertools.product(range(1, total + 1),
                                                     repeat=arity)
                        if sum(t) == total)

    letters = sorted(set(sig))
    streams = {lt: tuples(lt[1]) for lt in letters if lt[1] > 0}
    for lt in letters:
        yield lt[0], next(streams[lt]) if lt in streams else ()
    while streams:
        for lt, stream in streams.items():
            yield lt[0], next(stream)


class TestInterpretationFiles:
    def test_load_guarded_letter(self):
        spec = {
            "letters": {
                "Q/1": {
                    "params": ["x1"],
                    "game": {
                        "cases": [{"when": {"x1": 1}, "winner": "T"}],
                        "default": {"winner": "B",
                                    "moves": {"T:go": {"winner": "T"}}},
                    },
                }
            },
            "dollar_base": {"winner": "T"},
        }
        itp = load_interpretation(spec)
        assert itp.letter_game("Q", (1,)).winner is T
        g2 = itp.letter_game("Q", (2,))
        assert g2.winner is B and (T, "go") in g2.moves

    @pytest.mark.parametrize("key", [
        "\u0420/0", "7 x/1", "P/01", "P/", "/0", "p/0", "top/0", "P/-1",
        "P/1/2", "P /0", "P/0 ", "P/\u0661", "P\u00b2/0", "P"])
    def test_letter_keys_use_the_formula_grammar(self, key):
        # a key no formula can name was kept, and play then failed with
        # "letter P/0 not interpreted"
        spec = {"letters": {key: {"game": {"winner": "T"}}}}
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            load_interpretation(spec)

    def test_letter_keys_that_formulas_name_load(self):
        itp = load_interpretation({"letters": {
            k: {"game": {"winner": "T"}} for k in ("P/0", "R_2x/1", "Ab9/10")}})
        assert itp.signature == (("Ab9", 10), ("P", 0), ("R_2x", 1))

    def test_a_letter_lists_at_most_its_arity_of_parameters(self):
        # zip dropped the parameters past the arity
        game = {"cases": [{"when": {"y": 1}, "winner": "B"}],
                "default": {"winner": "T"}}
        with pytest.raises(ValueError, match="'R/1'"):
            load_interpretation({"letters": {
                "R/1": {"params": ["x", "y"], "game": game}}})
        itp = load_interpretation({"letters": {
            "R/2": {"params": ["x"], "game": game}}})
        assert itp.letter_game("R", (1, 1)).winner is T


# ---------------------------------------------------------------------------
# Structural properties

def _random_runs(g, rng, count, length):
    for _ in range(count):
        run = []
        for _ in range(length):
            player = rng.choice((T, B))
            options = candidate_moves(g, tuple(run), player)
            if not options:
                break
            run.append(Labmove(player, rng.choice(options)))
        yield tuple(run)


def test_prefix_closure_of_legal_positions():
    rng = random.Random(0)
    for seed in range(6):
        itp = random_interpretation(seed, (("P", 0), ("Q", 1)), 2)
        g = GameRef(fm.parse_formula("!(P & Q(1)) -> (P \\/ Q(2))"), itp)
        for run in _random_runs(g, rng, 12, 5):
            assert position_legal(g, run)
            for k in range(len(run)):
                assert position_legal(g, run[:k])


def test_negation_duality():
    rng = random.Random(1)
    itp = random_interpretation(3, (("P", 0),), 3)
    g = GameRef(fm.parse_formula("P"), itp)
    ng = GameRef(fm.parse_formula("~P"), itp)
    for run in _random_runs(g, rng, 20, 3):
        assert winner(ng, negate_run(run)) is winner(g, run).opponent


def test_recurrence_winner_uses_all_complete_branches():
    itp = interp_ab()
    g = GameRef(Bang(fm.parse_formula("A1")), itp)
    run = labmoves(("B", ":"), ("B", "0.a"))
    # branch 0 of A1 is at <B a>, lost for the machine; branch 1 is fine
    assert winner(g, run) is B
    run2 = labmoves(("B", ":"), ("B", "0.a"), ("T", "0.b"))
    assert winner(g, run2) is T
    # four leaves; only the one grown last is lost
    run4 = labmoves(("B", ":"), ("B", "0:"), ("B", "1:"), ("B", "11.a"))
    assert winner(g, run4) is B
    assert winner(g, run4 + labmoves(("T", "11.b"))) is T
    ok, tree = prelegal_and_tree(run2)
    assert ok
    for leaf in tree_leaves(tree):
        assert position_legal(GameRef(fm.parse_formula("A1"), itp),
                              subrun_upto(run2, leaf))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("TB"),
                          st.text(alphabet="ab01.:", max_size=4)),
                max_size=6))
def test_negate_run_is_an_involution(pairs):
    run = labmoves(*pairs)
    assert negate_run(negate_run(run)) == run


# ---------------------------------------------------------------------------
# Routing inside blocks of parallel connectives and negations

def interp_abr():
    """interp_ab plus R(x), which is A1's game for odd x and A2's for even."""
    itp = interp_ab()
    a1, a2 = itp.letter_game("A1", ()), itp.letter_game("A2", ())
    return Interpretation({**itp.letters,
                           "R/1": lambda args: a1 if args[0] % 2 else a2})


TEN = " /\\ ".join(["A1"] * 10)

# (formula, [(run, whether the oracle finds the whole run legal), ...])
ROUTING = [
    ("~(A1 -> A2)", [
        ((("B", "1.a"), ("T", "1.b"), ("T", "2.c")), True),
        ((("B", "1.a"), ("T", "2.c")), True),
        ((("T", "1.a"),), False),
        ((("B", "2.c"),), False),
        ((("B", "3.a"),), False),
        ((("B", "1"),), False),
    ]),
    ("(A1 /\\ ~A2) & A1", [
        ((("B", "1"), ("B", "1.a"), ("T", "2.c")), True),
        ((("B", "2"), ("B", "a"), ("T", "b")), True),
        ((("B", "1"), ("B", "2.c")), False),
        ((("B", "1"), ("B", "1.1.a")), False),
        ((("T", "1"),), False),
    ]),
    ("@x.(R(x) -> ~A1)", [
        ((("B", "2"), ("T", "1.c"), ("T", "2.a"), ("B", "2.b")), True),
        ((("B", "1"), ("T", "1.a"), ("B", "1.b")), True),
        ((("B", "2"), ("B", "1.c")), False),
        ((("B", "0"),), False),
    ]),
    ("!(A1 -> A2)", [
        ((("B", ".2.c"),), True),
        ((("B", ":"), ("T", "0.1.a"), ("B", "1.2.c"), ("B", "0.1.b")), True),
        ((("B", ".1.a"),), False),
        ((("B", ":"), ("B", "1.3.c")), False),
        ((("T", ":"),), False),
    ]),
    ("~A1", [
        ((("T", "a"), ("B", "b")), True),
        ((("B", "a"),), False),
        ((("T", "1.a"),), False),
    ]),
    ("~~$", [
        ((("B", "1"),), True),
        ((("B", "2"), ("B", "a"), ("T", "b")), True),
        ((("T", "1"),), False),
        ((("B", "0"),), False),
        ((("B", "01"),), False),
    ]),
    (TEN, [
        ((("B", "10.a"), ("T", "10.b"), ("B", "1.a")), True),
        ((("B", "1.0a"),), False),
        ((("B", "01.a"),), False),
        ((("B", "11.a"),), False),
        ((("B", "10.a"), ("B", "0.a")), False),
    ]),
]


@pytest.mark.parametrize("text,runs", ROUTING,
                         ids=[text for text, _ in ROUTING])
def test_block_routing_agrees_with_the_oracle(text, runs):
    """On every prefix of each listed run, position_legal and winner give
    the oracle's verdict, every move successors lists is legal with the
    oracle's winner, and the run's next move is listed when it is legal."""
    g = ref(text, interp_abr())
    for pairs, legal_run in runs:
        run = labmoves(*pairs)
        assert oracle.oracle_run(g.formula, g.interp, g.valuation,
                                 run)[0] is legal_run
        for n in range(len(run) + 1):
            legal, won = oracle.oracle_run(g.formula, g.interp, g.valuation,
                                           run[:n])
            assert position_legal(g, run[:n]) is legal
            assert winner(g, run[:n]) is won
            if not legal:
                break
            state = game_state(g, run[:n])
            listed = {p: successors(state, p) for p in (T, B)}
            for p, moves in listed.items():
                for m, nxt in moves:
                    assert oracle.oracle_run(
                        g.formula, g.interp, g.valuation,
                        run[:n] + (Labmove(p, m),)) == (True, nxt.outcome())
            if n < len(run) and oracle.oracle_run(
                    g.formula, g.interp, g.valuation, run[:n + 1])[0]:
                assert run[n].move in [m for m, _ in listed[run[n].player]]


def test_states_and_layouts_are_slotted():
    """Game roots live as long as their games, so no state or layout
    carries a per-instance __dict__."""
    g = ref("!(~A1 /\\ (A2 & $))")
    bang = game_state(g)
    block = bang.branches[""]
    instances = [bang, block, block.layout, *block.leaves]
    kinds = {type(obj) for obj in instances}
    # a slotted dataclass is a new class, and the class it replaced may
    # still be listed as a subclass, so each is looked up by its name
    states = {getattr(games, c.__name__) for c in games.State.__subclasses__()}
    assert states | {games._Layout} == kinds
    for obj in instances:
        assert "__slots__" in type(obj).__dict__, type(obj)
        assert not hasattr(obj, "__dict__"), type(obj)


def test_run_records_are_slotted():
    """A play keeps its labmoves and a benchmark keeps every transcript, so
    no run record carries a per-instance __dict__ either."""
    g = ref("A1 -> A1")
    t = epm.simulate(build_strategy("ccs"), epm.RandomEnv(1), g)
    assert t.run
    for obj in (g, g.valuation, t.run[0], t):
        assert "__slots__" in type(obj).__dict__, type(obj)
        assert not hasattr(obj, "__dict__"), type(obj)


# ---------------------------------------------------------------------------
# Random letter games: built directly, equal to the materialized formula

def _random_game_formula(rng, depth):
    """The formula whose game `random_structural_game` builds, drawn with
    the same random numbers in the same order."""
    if depth <= 0 or rng.random() < 0.25:
        return fm.Top() if rng.random() < 0.5 else fm.Bot()
    kind = rng.choice(["cc", "cd", "pc", "pd", "neg"])
    if kind == "neg":
        return fm.Neg(_random_game_formula(rng, depth - 1))
    a = _random_game_formula(rng, depth - 1)
    b = _random_game_formula(rng, depth - 1)
    return {"cc": fm.ChoiceConj, "cd": fm.ChoiceDisj,
            "pc": fm.ParConj, "pd": fm.ParDisj}[kind]((a, b))


def _materialize(f, max_len):
    """The reference: the explicit tree of `f`'s game, runs cut after
    `max_len` moves, listed and stepped through the stepping evaluator."""
    def build(state, depth):
        node = FiniteGame(state.outcome())
        if depth < max_len:
            for player in (B, T):
                for m, nxt in successors(state, player):
                    node.moves[(player, m)] = build(nxt, depth + 1)
        return node
    return build(GameRef(f, Interpretation({})).root(), 0)


def _shape(g):
    """A tree as nested tuples, children in insertion order."""
    return g.winner, tuple((key, _shape(sub)) for key, sub in g.moves.items())


def _nodes(g):
    yield g
    for sub in g.moves.values():
        yield from _nodes(sub)


def _longest(g):
    return 1 + max(map(_longest, g.moves.values())) if g.moves else 0


@pytest.mark.parametrize("depth,seeds", [(1, 1000), (2, 1000), (3, 1000),
                                         (4, 200), (5, 100)])
def test_letter_games_equal_the_materialized_formula(depth, seeds):
    cut = 0
    for seed in range(seeds):
        want_rng, got_rng = (random.Random(f"{seed}/{depth}") for _ in "ab")
        f = _random_game_formula(want_rng, depth)
        want = _materialize(f, depth + 1)
        got = games.random_structural_game(got_rng, depth)
        assert _shape(got) == _shape(want), seed
        assert all(node is games.ELEMENTARY_WIN
                   or node is games.ELEMENTARY_LOSS for node in _nodes(got) if not node.moves), seed
        assert got_rng.random() == want_rng.random(), seed
        cut += _longest(_materialize(f, depth + 2)) > depth + 1
    # a formula of depth d has runs of at most 2 ** (d - 1) moves, so from
    # depth 4 on some games are cut after depth + 1 moves
    assert (cut > 0) is (depth >= 4)


def test_letter_games_step_no_state(monkeypatch):
    """Building a letter game compiles no plan and steps no state."""
    def refuse(*args):
        raise AssertionError("a letter game went through the evaluator")
    monkeypatch.setattr(games, "initial_state", refuse)
    monkeypatch.setattr(games, "_plan", refuse)
    monkeypatch.setattr(games, "successors", refuse)
    itp = random_interpretation(5, (("P", 0), ("R", 1)), 3)
    trees = [itp.letter_game("P", ()), *(itp.letter_game("R", (k,))
                                         for k in range(1, 40))]
    assert any(tree.moves for tree in trees)
    # with no base given, $ starts from the shared leaf won by the machine
    assert itp.dollar_base is games.ELEMENTARY_WIN
    assert Interpretation({}).dollar_base is games.ELEMENTARY_WIN


# ---------------------------------------------------------------------------
# Listing a recurrence's moves, against a scan of every node over every leaf

def _scan_bang_moves(state, player, structural):
    """`_BangState.moves_of` as first written: the set of all prefixes of all
    leaves, and for each prefix a scan of every leaf for those under it."""
    branches = state.branches
    out = [u + ":" for u in branches] if player is B else []
    own = {u: s.moves_of(player, structural) for u, s in branches.items()}
    for w in {u[:k] for u in branches for k in range(len(u) + 1)}:
        under = [u for u in branches if u.startswith(w)]
        for m in {m for u in under for m in own[u]}:
            if all(m in own[u] or branches[u].step(player, m) is not None
                   for u in under):
                out.append(f"{w}.{m}")
    return out


def _bang_states(state):
    """Every recurrence state inside `state`, `state` included."""
    if isinstance(state, games._BangState):
        yield state
        for branch in state.branches.values():
            yield from _bang_states(branch)
    elif isinstance(state, games._BlockState):
        for leaf in state.leaves:
            yield from _bang_states(leaf)


def test_bang_listing_matches_the_scan_of_every_node():
    formulas = [fm.parse_formula(text)
                for _, text, _ in verify.named_strategy_games()]
    formulas += [f for f in verify._all_shapes(4) if "!" in fm.render(f)]
    listings = below_root = 0
    for idx, f in enumerate(formulas):
        for seed in range(4):
            game = verify.random_game(f, seed=seed,
                                      valuation=Valuation({"y": 2}))
            rng = random.Random(f"{idx}/{seed}")
            state = game.root()
            # a move elsewhere leaves a recurrence's state as it was
            compared = {}
            for _ in range(10):
                for bang in _bang_states(state):
                    if id(bang) in compared:
                        continue
                    compared[id(bang)] = bang
                    for player, structural in itertools.product(
                            (T, B), (False, True)):
                        got = bang.moves_of(player, structural)
                        assert len(set(got)) == len(got), got
                        assert sorted(got) == sorted(_scan_bang_moves(
                            bang, player, structural)), fm.render(f)
                        listings += 1
                        below_root += any(m[0] in "01" for m in got
                                          if not m.endswith(":"))
                player = rng.choice((T, B))
                moves = legal_moves(state, player)
                if moves:
                    state = state.step(player, rng.choice(moves))
    assert listings > 50_000 and below_root > 1_000


# ---------------------------------------------------------------------------
# One plan per run of games of one formula object

@pytest.fixture
def compiled(monkeypatch):
    """The formulas `games._plan` compiles from `initial_state`, in order;
    the components a compile recurses into are not counted."""
    seen, depth, plan = [], [0], games._plan

    def counting(f):
        if not depth[0]:
            seen.append(f)
        depth[0] += 1
        try:
            return plan(f)
        finally:
            depth[0] -= 1
    monkeypatch.setattr(games, "_plan", counting)
    monkeypatch.setattr(games, "_last_plan", (None, None))
    return seen


def test_games_of_one_formula_object_compile_once(compiled):
    f = fm.parse_formula("!(P & Q) -> !P")
    for seed in (1, 2):
        verify.random_game(f, seed=seed).root()
    assert compiled == [f]
    # an equal formula is another object, and compiles again
    g = fm.parse_formula("!(P & Q) -> !P")
    verify.random_game(g, seed=1).root()
    assert len(compiled) == 2 and compiled[1] is g


def test_alternating_formulas_each_compile_and_keep_their_games(compiled):
    a = fm.parse_formula("!(P & Q) -> !P")
    b = fm.parse_formula("@x.R(x) -> !R(2) /\\ ~Q")
    itp = random_interpretation(4, (("P", 0), ("Q", 0), ("R", 1)), 2)
    roots = [(f, GameRef(f, itp).root()) for f in (a, b, a)]
    assert [id(f) for f in compiled] == [id(a), id(b), id(a)]
    for f, root in roots:
        assert same_game(root, games._plan(f)(itp, Valuation()), 3)


def test_criterion_3_compiles_each_named_game_once(compiled):
    report = verify.verify_named(plays_total=5, exhaustive_depth=1)
    assert report.passed, report.failures
    assert len(compiled) == report.counters["strategies"] == 39
