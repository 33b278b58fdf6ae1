"""Differential test: the stepping evaluator against the whole-run oracle.

Hypothesis generates formulas of up to seven nodes, nested recurrences and
universal problems included, and runs of up to eight labmoves that mix
legal candidate moves with corrupted ones.  On every prefix the engine's
`position_legal`, `classify_move` and `winner` must agree with
`oracle.oracle_run`, and every move `candidate_moves` offers must be legal
according to the oracle.  This extends criterion 6 (every shape of size
<= 4, runs of four labmoves) to larger formulas and longer runs.  Random
runs rarely grow wide recurrence trees, so a second case starts every run
with three replications inside one `!`.

On every legal prefix `legal_moves` and `successors` must also equal a
reference that lists moves the slow way: a bounded candidate set of either
player's moves, each stepped from the state and kept if legal.

Random draws meet a malformed move where it matters only now and then, so
a third, deterministic case tries every corrupted move under every route
of every shape of size <= 3, at the root and after each first move.

The oracle judges a run in one pass; a seeded case compares it with the
bisecting reference in `wholerun.py`.  Its independence is pinned too: it
may read only formula node classes and data types from the engine.
"""

import ast
import random
from pathlib import Path
from typing import get_args

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from clgames import formula as fm, games, oracle, verify
from clgames.formula import (Atom, Bang, Bot, ChoiceAll, ChoiceConj,
                             ChoiceDisj, ChoiceExists, Dollar, Elem, Implies,
                             Neg, ParConj, ParDisj, Top)
from clgames.games import (B, GameRef, IllegalPositionError, Labmove,
                           MoveStatus, T, Valuation, advance, candidate_moves,
                           classify_move, game_state, legal_moves,
                           position_legal, random_interpretation, successors,
                           winner)
from wholerun import bisecting_oracle_run

LEAVES = [Atom("P"), Atom("Q"), Atom("R", (fm.Var("x"),)), Dollar(), Top(),
          Bot()]
UNARY = [Neg, Bang, lambda f: ChoiceAll("x", f),
         lambda f: ChoiceExists("x", f)]
BINARY = [lambda a, b: ParConj((a, b)), lambda a, b: ParDisj((a, b)),
          Implies, lambda a, b: ChoiceConj((a, b)),
          lambda a, b: ChoiceDisj((a, b))]
# malformed numerals, indices and recurrence addresses, non-ASCII digits
# and the reserved symbol
CORRUPT = ["0", "3.x", "1.", ":", "junk", "1..1", "2.9", "0:", ".1", "♠",
           "²", "١", "١.x", "01", "1:", "10.", "00:", ":x", "0:1", "::", "2:",
           "01.a"]


def _formula(draw, size: int):
    """A formula of at most `size` nodes."""
    if size < 2 or draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(LEAVES))
    if size < 3 or draw(st.booleans()):
        return draw(st.sampled_from(UNARY))(_formula(draw, size - 1))
    left = draw(st.integers(1, size - 2))
    return draw(st.sampled_from(BINARY))(_formula(draw, left),
                                         _formula(draw, size - 1 - left))


@st.composite
def cases(draw):
    f = _formula(draw, 7)
    seed = draw(st.integers(0, 2 ** 16))
    itp = random_interpretation(seed, verify._signature_for(f), 2)
    return GameRef(f, itp, Valuation())


def _oracle(game, run):
    return oracle.oracle_run(game.formula, game.interp, game.valuation,
                             tuple(run))


def _agree(game, run) -> bool:
    """The engine's legality and winner of `run` equal the oracle's, and
    after a legal run `successors` equals the reference; returns its
    legality."""
    legal, won = _oracle(game, run)
    assert position_legal(game, tuple(run)) is legal
    assert winner(game, tuple(run)) is won
    if legal:
        _same_successors(game_state(game, tuple(run)))
    return legal


def _raw_candidates(state, structural: bool) -> list[str]:
    """Moves of either player that may be legal at `state`: an atom's own
    moves, each block leaf's candidates under the leaf's route, every
    component of a finite choice and every numeral up to the cap at a choice
    of a constant or of a conjunct of $, and at each recurrence node every
    move some leaf under it may make."""
    if isinstance(state, games.FiniteGame):
        return [] if structural else [m for _, m in state.moves]
    if isinstance(state, games._BlockState):
        return [route + m for (route, _), leaf in zip(state.layout.routes,
                                                      state.leaves)
                for m in _raw_candidates(leaf, structural)]
    if isinstance(state, games._ChoiceState):
        n = games.CHOICE_CAP if state.capped else state.options
        return [str(i) for i in range(1, n + 1)]
    out = [u + ":" for u in state.branches]
    for u, leaf in state.branches.items():
        inner = _raw_candidates(leaf, structural)
        for k in range(len(u) + 1):
            out.extend(f"{u[:k]}.{m}" for m in inner)
    return out


def _reference_successors(state, player, structural):
    out = []
    for m in sorted(set(_raw_candidates(state, structural))):
        nxt = advance(state, Labmove(player, m))
        if nxt is not None:
            out.append((m, nxt))
    return out


def _same_successors(state) -> None:
    """`legal_moves` and `successors` list exactly the reference's moves, in
    its order, and each successor has the reference's outcome."""
    for player in (T, B):
        for structural in (False, True):
            got = successors(state, player, structural)
            want = _reference_successors(state, player, structural)
            assert legal_moves(state, player, structural) == [
                m for m, _ in want], (player, structural)
            assert [m for m, _ in got] == [m for m, _ in want], (
                player, structural)
            assert [s.outcome() for _, s in got] == [
                s.outcome() for _, s in want], (player, structural)


def _extend(game, data, run: list, n: int) -> None:
    """Append n drawn labmoves to `run`, checking every prefix."""
    for _ in range(n):
        legal = _agree(game, run)
        player = data.draw(st.sampled_from((T, B)))
        if legal:
            options = {p: candidate_moves(game, tuple(run), p) for p in (T, B)}
            for p, moves in options.items():
                for mv in moves:
                    assert _oracle(game, run + [Labmove(p, mv)])[0], (p, mv)
        else:
            with pytest.raises(IllegalPositionError):
                candidate_moves(game, tuple(run), player)
            options = {T: [], B: []}
        # mostly the player's own candidates, with replications favoured so
        # that recurrence trees grow wide; else the opponent's candidates,
        # which are often illegal for this player, or a corrupted move
        source = data.draw(st.sampled_from(
            ("rep", player, player, player.opponent, None)))
        if source == "rep":
            pool = [m for m in options[player] if m.endswith(":")]
        else:
            pool = options[source] if source else CORRUPT
        mv = data.draw(st.sampled_from(pool or options[player] or CORRUPT))
        lm = Labmove(player, mv)
        if legal:
            status = classify_move(game, tuple(run), lm)
            assert (status is MoveStatus.LEGAL) is _oracle(game, run + [lm])[0]
        run.append(lm)
    _agree(game, run)


@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(game=cases(), data=st.data())
def test_stepping_evaluator_agrees_with_the_whole_run_oracle(game, data):
    _extend(game, data, [], data.draw(st.integers(0, 8)))


def _routes(move: str) -> set[str]:
    """The prefixes of `move` that end in a dot: the routes it passes."""
    return {move[:k + 1] for k, c in enumerate(move) if c == "."}


def test_every_corrupt_move_under_every_route_agrees_with_the_oracle():
    """Deterministic, so that each grammar edge meets the positions where
    it matters in every run: for every shape of size <= 3, at the root and
    after each listed first move, every corrupted move under every route
    prefix of a listed move, for both players."""
    for idx, f in enumerate(verify._all_shapes(3)):
        itp = random_interpretation(idx, verify._signature_for(f), 2)
        game = GameRef(f, itp, Valuation())
        root = game.root()
        firsts = [Labmove(p, m) for p in (T, B) for m in legal_moves(root, p)]
        for run in [[]] + [[lm] for lm in firsts]:
            state = advance(root, run[0]) if run else root
            routes = {""}.union(*(_routes(m) for p in (T, B)
                                  for m in legal_moves(state, p)))
            for route in sorted(routes):
                for edge in CORRUPT:
                    for p in (T, B):
                        lm = Labmove(p, route + edge)
                        nxt = advance(state, lm)
                        legal, won = _oracle(game, run + [lm])
                        assert (nxt is not None) is legal, (f, run, lm)
                        assert nxt is None or nxt.outcome() is won, (f, run, lm)


# Where a recurrence sits: its wrapper, the prefix of its moves and the
# player who replicates it (the environment in !F, the machine in ~!F and
# in an antecedent).
WRAPPERS = [(lambda b: b, "", B),
            (Neg, "", T),
            (lambda b: ParConj((Atom("P"), b)), "2.", B),
            (lambda b: Implies(b, Atom("Q")), "1.", T)]


@st.composite
def recurrences(draw):
    wrap, prefix, player = draw(st.sampled_from(WRAPPERS))
    f = wrap(Bang(_formula(draw, 5)))
    seed = draw(st.integers(0, 2 ** 16))
    itp = random_interpretation(seed, verify._signature_for(f), 2)
    return GameRef(f, itp, Valuation()), prefix, player


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=recurrences(), data=st.data())
def test_wide_recurrence_trees_agree_with_the_whole_run_oracle(case, data):
    """Three replications inside one `!` first, so that its outcome ranges
    over four or more leaves, then legal moves at single leaves, so that
    the leaves' outcomes differ, then drawn moves as above."""
    game, prefix, player = case
    run: list = []
    leaves = [""]
    for _ in range(3):
        assert _agree(game, run)
        w = data.draw(st.sampled_from(leaves))
        leaves.remove(w)
        leaves += [w + "0", w + "1"]
        run.append(Labmove(player, f"{prefix}{w}:"))
    for _ in range(data.draw(st.integers(1, 4))):
        assert _agree(game, run)
        u = data.draw(st.sampled_from(leaves))
        mover = data.draw(st.sampled_from((T, B)))
        pool = [m for m in candidate_moves(game, tuple(run), mover)
                if m.startswith(f"{prefix}{u}.")]
        if pool:
            run.append(Labmove(mover, data.draw(st.sampled_from(pool))))
    _extend(game, data, run, data.draw(st.integers(0, 6)))


def _seeded_run(rng, root, moves: list, n: int) -> None:
    """Append n labmoves to `moves`, each a move the engine lists at the
    last legal position (for either player), or else a corrupted move under
    a route of one."""
    state = root
    for lm in moves:
        state = advance(state, lm) or state
    for _ in range(n):
        player = rng.choice((T, B))
        listed = {p: legal_moves(state, p) for p in (T, B)}
        pool = listed[rng.choice((player, player, player.opponent))]
        if pool and rng.random() < 0.7:
            mv = rng.choice(pool)
        else:
            routes = {""}.union(*(_routes(m) for p in (T, B)
                                  for m in listed[p]))
            mv = rng.choice(sorted(routes)) + rng.choice(CORRUPT)
        lm = Labmove(player, mv)
        moves.append(lm)
        state = advance(state, lm) or state


def _same_as_bisecting(game, run) -> None:
    for k in range(len(run) + 1):
        args = (game.formula, game.interp, game.valuation, tuple(run[:k]))
        assert oracle.oracle_run(*args) == bisecting_oracle_run(*args), (
            fm.render(game.formula), run[:k])


def test_one_pass_oracle_agrees_with_the_bisecting_reference():
    """The one-pass oracle gives the reference's (legal, winner) on every
    prefix of a seeded run of six labmoves in each shape of size <= 4, and
    of runs that replicate a `!` three times first."""
    for idx, f in enumerate(verify._all_shapes(4)):
        game = GameRef(f, random_interpretation(
            idx, verify._signature_for(f), 2), Valuation())
        run: list = []
        _seeded_run(random.Random(idx), game.root(), run, 6)
        _same_as_bisecting(game, run)
    for idx, body in enumerate(verify._all_shapes(3)):
        for wrap, prefix, player in WRAPPERS:
            f = wrap(Bang(body))
            game = GameRef(f, random_interpretation(
                idx, verify._signature_for(f), 2), Valuation())
            rng = random.Random(idx)
            run, leaves = [], [""]
            for _ in range(3):
                w = rng.choice(leaves)
                leaves.remove(w)
                leaves += [w + "0", w + "1"]
                run.append(Labmove(player, f"{prefix}{w}:"))
            _seeded_run(rng, game.root(), run, 4)
            _same_as_bisecting(game, run)


def test_the_oracle_refuses_what_has_no_game():
    itp = random_interpretation(0, verify._signature_for(Atom("P")), 2)
    with pytest.raises(ValueError, match="elementary atoms"):
        oracle.oracle_run(ParConj((Atom("P"), Elem("p"))), itp, Valuation(),
                          ())
    with pytest.raises(TypeError, match="unknown formula node"):
        oracle.oracle_run(fm.Var("x"), itp, Valuation(), ())


# What the oracle may import from the engine: formula node classes (and
# their union `Formula`) and the data types of games, never the evaluator's
# steps or move grammar (`advance`, `State`, `split_bang_move`, `_numeral`).
ORACLE_IMPORTS = {
    "formula": {c.__name__ for c in get_args(fm.Formula)} | {"Formula"},
    "games": {"B", "T", "Player", "Run", "SPADE", "Interpretation",
              "Valuation"}}


def test_the_oracle_imports_no_engine_code():
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    seen = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert {a.name for a in node.names} <= {"re"}, ast.dump(node)
        elif isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
            if node.level == 0:
                assert node.module in {"__future__", "re", "typing"}, (
                    node.module)
                continue
            assert node.level == 1 and node.module in ORACLE_IMPORTS, (
                node.module, names)
            assert names <= ORACLE_IMPORTS[node.module], (
                node.module, names - ORACLE_IMPORTS[node.module])
            seen.add(node.module)
    assert seen == {"formula", "games"}
