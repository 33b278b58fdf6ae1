"""Independent adjudication path: whole-run structural judgement.

Where the engine's evaluator (`games.State`) steps a decomposed game state
one labmove at a time, this oracle judges a finished run at once, in one
pass: each connective splits the run into its components' runs, checks the
split is well formed, and combines the components' verdicts into a winner
or, on an illegal run, the position of the first illegal labmove.  It
shares no move grammar with the engine: it parses numerals and recurrence
moves with its own patterns, builds its own branch trees, and reads from
`games` only the data types (interpretations, valuations, letter games).
Agreement between the two over random formulas, interpretations and runs is
the evaluator's main correctness evidence.

Inside the recursion a run is a sequence of (position, player, move)
triples: each labmove keeps its position in the whole run, and its player
as the whole run labels it.  Negation and antecedents swap the roles by
flipping a flag instead of relabelling the run: under the flag a subgame's
own player T is the whole run's B, and the subgame's winner is reported in
the whole run's labels.
"""

from __future__ import annotations

import re
from typing import Optional

from .formula import (Atom, Bang, Bot, ChoiceAll, ChoiceConj, ChoiceDisj,
                      ChoiceExists, Dollar, Elem, Formula, Implies, Neg,
                      ParConj, ParDisj, Top)
from .games import B, Interpretation, Player, Run, SPADE, T, Valuation

_NUMERAL = re.compile(r"[1-9][0-9]*")
_REPLICATION = re.compile(r"([01]*):")
_NODE_MOVE = re.compile(r"([01]*)\.(.*)", re.DOTALL)

_OPPONENT = {T: B, B: T}
# the whole run's player for each of a subgame's own players, unflipped and
# flipped (the mapping is its own inverse)
_SIDES = ({T: T, B: B}, _OPPONENT)

Tagged = list[tuple[int, Player, str]]
# the winner of a legal run, or the position of its first illegal labmove
Verdict = Player | int


def oracle_run(f: Formula, itp: Interpretation, val: Valuation, run: Run):
    """Judge the whole run.

    Returns (legal, winner): on an illegal run the mover of the first
    illegal labmove loses.  A move that contains ♠ is illegal everywhere,
    so the judged run stops before the first one, and that move is the
    first offender unless an earlier one is.
    """
    tagged: Tagged = []
    for k, (player, move) in enumerate(run):
        if SPADE in move:
            break
        tagged.append((k, player, move))
    verdict = _judge(f, itp, val, tagged, False)
    if type(verdict) is not int:
        if len(tagged) == len(run):
            return True, verdict
        verdict = len(tagged)
    return False, _OPPONENT[run[verdict][0]]


def _numeral(s: str) -> Optional[int]:
    """The value of a canonical ASCII numeral, else None."""
    return int(s) if _NUMERAL.fullmatch(s) else None


def _walk(game, run: Tagged, side: dict) -> Verdict:
    """The verdict on `run` in an explicit game tree."""
    for k, p, m in run:
        game = game.moves.get((side[p], m))
        if game is None:
            return k
    return side[game.winner]


def _judge(f: Formula, itp: Interpretation, val: Valuation, run: Tagged,
           flip: bool) -> Verdict:
    """The verdict on `run` in the game of `f`, its players swapped if
    `flip`."""
    side = _SIDES[flip]
    cls = type(f)
    if cls is Atom:
        return _walk(itp.letter_game(
            f.letter, tuple(map(val.term, f.args))), run, side)
    if cls is Neg:
        return _judge(f.body, itp, val, run, not flip)
    if cls is ParConj or cls is ParDisj or cls is Implies:
        # A -> B is ~A \/ B: the antecedent is played with the roles swapped
        if cls is Implies:
            parts, flips = (f.left, f.right), (not flip, flip)
        else:
            parts, flips = f.parts, (flip,) * len(f.parts)
        projs, offender = _split_parallel(run, len(parts))
        # /\ is won unless a component is lost; \/ is lost unless a
        # component is won
        verdict = unit = side[T] if cls is ParConj else side[B]
        for c, p, c_flip in zip(parts, projs, flips):
            o = _judge(c, itp, val, p, c_flip)
            if type(o) is int:
                offender = o if offender is None else min(offender, o)
            elif o is not unit:
                verdict = o
        return verdict if offender is None else offender
    if cls is ChoiceConj or cls is ChoiceDisj:
        chooser = side[B] if cls is ChoiceConj else side[T]
        if not run:
            return _OPPONENT[chooser]
        k, player, move = run[0]
        i = _numeral(move)
        if player is not chooser or i is None or i > len(f.parts):
            return k
        return _judge(f.parts[i - 1], itp, val, run[1:], flip)
    if cls is ChoiceAll or cls is ChoiceExists:
        chooser = side[B] if cls is ChoiceAll else side[T]
        if not run:
            return _OPPONENT[chooser]
        k, player, move = run[0]
        c = _numeral(move)
        if player is not chooser or c is None:
            return k
        return _judge(f.body, itp, val.override(f.var, c), run[1:], flip)
    if cls is Bang:
        subruns, offender = _branch_subruns(run, side[B])
        verdict = unit = side[T]
        for sub in subruns:
            o = _judge(f.body, itp, val, sub, flip)
            if type(o) is int:
                offender = o if offender is None else min(offender, o)
            elif o is not unit:
                verdict = o
        return verdict if offender is None else offender
    if cls is Dollar:
        if not run:
            return side[T]
        k, player, move = run[0]
        m = _numeral(move)
        if player is not side[B] or m is None:
            return k
        component = itp.dollar_component(m)
        return _walk(component, run[1:], side) if component is not None else k
    if cls is Top or cls is Bot:
        if run:
            return run[0][0]
        return side[T] if cls is Top else side[B]
    if cls is Elem:
        raise ValueError("elementary atoms have no game semantics")
    raise TypeError(f"unknown formula node {f!r}")


def _split_parallel(run: Tagged, n: int) -> tuple[list[Tagged], Optional[int]]:
    """The components' runs of a parallel run over n components, and the
    position of the first move that addresses no component (None if every
    move does): a move "i.alpha" is alpha in the i-th.  The components'
    runs stop before that move."""
    projs: list[Tagged] = [[] for _ in range(n)]
    for k, p, m in run:
        head, dot, rest = m.partition(".")
        i = _numeral(head) if dot else None
        if i is None or i > n:
            return projs, k
        projs[i - 1].append((k, p, rest))
    return projs, None


def _branch_subruns(run: Tagged, replicator: Player
                    ) -> tuple[list[Tagged], Optional[int]]:
    """The run of each leaf of a recurrence run's branch tree, and the
    position of the first move that is not prelegal (None if every move
    is); the leaves' runs stop before that move.

    The tree starts as the root ""; the replicator's "w:" at a leaf w adds
    w0 and w1.  A move "w.alpha" needs w to be a node of the tree so far and
    is alpha in the run of every leaf that extends w."""
    tree = {""}
    node_moves = []
    offender = None
    for k, p, m in run:
        rep = _REPLICATION.fullmatch(m)
        if rep is not None:
            w = rep[1]
            if p is replicator and w in tree and w + "0" not in tree:
                tree.update((w + "0", w + "1"))
                continue
        else:
            node = _NODE_MOVE.fullmatch(m)
            if node is not None and node[1] in tree:
                node_moves.append((node[1], k, p, node[2]))
                continue
        offender = k
        break
    return [[(k, p, alpha) for w, k, p, alpha in node_moves
             if leaf.startswith(w)]
            for leaf in sorted(tree) if leaf + "0" not in tree], offender
