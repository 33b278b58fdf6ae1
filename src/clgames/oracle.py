"""Independent adjudication path: whole-run structural judgement.

Where the engine's evaluator (`games.State`) steps a decomposed game state
one labmove at a time, this oracle judges a finished run at once: each
connective splits the run into its components' runs, checks the split is
well formed, and combines the components' verdicts.  It shares no move
grammar with the engine: it parses numerals and recurrence moves with its
own patterns, builds its own branch trees, and reads from `games` only the
data types (interpretations, valuations, letter games).  Agreement between
the two over random formulas, interpretations and runs is the evaluator's
main correctness evidence.

Inside the recursion a run is a tuple of (player, move) pairs, the keys of
a letter game's moves: the caller's labmoves, and plain pairs for the
components' runs.
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

Pairs = tuple[tuple[Player, str], ...]


def oracle_run(f: Formula, itp: Interpretation, val: Valuation, run: Run):
    """Judge the whole run.

    Returns (legal, winner): on an illegal run the mover of the first
    illegal labmove loses.  A move that contains ♠ is illegal everywhere,
    so only the run before the first one is judged.  Legality is
    prefix-closed, so the first illegal labmove is found by bisecting over
    prefixes.
    """
    run = tuple(run)
    spade = next((k for k, (_, m) in enumerate(run) if SPADE in m), len(run))
    verdict = _judge(f, itp, val, run[:spade])
    if verdict is not None and spade == len(run):
        return True, verdict
    # lengths of a legal and an illegal prefix
    legal, illegal = (spade, spade + 1) if verdict is not None else (0, spade)
    while illegal - legal > 1:
        mid = (legal + illegal) // 2
        if _judge(f, itp, val, run[:mid]) is None:
            illegal = mid
        else:
            legal = mid
    return False, _OPPONENT[run[illegal - 1][0]]


def _numeral(s: str) -> Optional[int]:
    """The value of a canonical ASCII numeral, else None."""
    return int(s) if _NUMERAL.fullmatch(s) else None


def _walk(game, run: Pairs) -> Optional[Player]:
    """The winner of `run` in an explicit game tree, or None if illegal."""
    for pair in run:
        game = game.moves.get(pair)
        if game is None:
            return None
    return game.winner


def _judge(f: Formula, itp: Interpretation, val: Valuation,
           run: Pairs) -> Optional[Player]:
    """The winner of `run` in the game of `f`, or None if `run` is illegal."""
    cls = type(f)
    if cls is Atom:
        return _walk(itp.letter_game(
            f.letter, tuple(val.term(t) for t in f.args)), run)
    if cls is Neg:
        inner = _judge(f.body, itp, val, _negate(run))
        return _OPPONENT[inner] if inner is not None else None
    if cls is ParConj or cls is ParDisj:
        projs = _split_parallel(run, len(f.parts))
        if projs is None:
            return None
        # /\ is won unless a component is lost; \/ is lost unless a
        # component is won
        verdict = unit = T if cls is ParConj else B
        for c, p in zip(f.parts, projs):
            o = _judge(c, itp, val, p)
            if o is None:
                return None
            if o is not unit:
                verdict = o
        return verdict
    if cls is Implies:
        # ~A \/ B: won when the antecedent, played with the roles swapped,
        # is lost, or the consequent is won
        projs = _split_parallel(run, 2)
        if projs is None:
            return None
        left = _judge(f.left, itp, val, _negate(projs[0]))
        if left is None:
            return None
        right = _judge(f.right, itp, val, projs[1])
        if right is None:
            return None
        return T if left is B or right is T else B
    if cls is ChoiceConj or cls is ChoiceDisj:
        chooser = B if cls is ChoiceConj else T
        if not run:
            return _OPPONENT[chooser]
        player, move = run[0]
        i = _numeral(move)
        if player is not chooser or i is None or i > len(f.parts):
            return None
        return _judge(f.parts[i - 1], itp, val, run[1:])
    if cls is ChoiceAll or cls is ChoiceExists:
        chooser = B if cls is ChoiceAll else T
        if not run:
            return _OPPONENT[chooser]
        player, move = run[0]
        c = _numeral(move)
        if player is not chooser or c is None:
            return None
        return _judge(f.body, itp, val.override(f.var, c), run[1:])
    if cls is Bang:
        subruns = _branch_subruns(run)
        if subruns is None:
            return None
        verdict = T
        for sub in subruns:
            o = _judge(f.body, itp, val, sub)
            if o is None:
                return None
            if o is B:
                verdict = B
        return verdict
    if cls is Dollar:
        if not run:
            return T
        player, move = run[0]
        m = _numeral(move)
        if player is not B or m is None:
            return None
        component = itp.dollar_component(m)
        return _walk(component, run[1:]) if component is not None else None
    if cls is Top or cls is Bot:
        if run:
            return None
        return T if cls is Top else B
    if cls is Elem:
        raise ValueError("elementary atoms have no game semantics")
    raise TypeError(f"unknown formula node {f!r}")


def _negate(run: Pairs) -> Pairs:
    return tuple((_OPPONENT[p], m) for p, m in run)


def _split_parallel(run: Pairs, n: int) -> Optional[list[Pairs]]:
    """The components' runs of a parallel run over n components: a move
    "i.alpha" is alpha in the i-th; None if a move addresses no
    component."""
    projs: list[list] = [[] for _ in range(n)]
    for p, m in run:
        head, dot, rest = m.partition(".")
        i = _numeral(head) if dot else None
        if i is None or i > n:
            return None
        projs[i - 1].append((p, rest))
    return [tuple(p) for p in projs]


def _branch_subruns(run: Pairs) -> Optional[list[Pairs]]:
    """The run of each leaf of a recurrence run's branch tree, or None if
    the run is not prelegal.

    The tree starts as the root ""; the environment's "w:" at a leaf w adds
    w0 and w1.  A move "w.alpha" needs w to be a node of the tree so far and
    is alpha in the run of every leaf that extends w."""
    tree = {""}
    node_moves = []
    for p, m in run:
        rep = _REPLICATION.fullmatch(m)
        if rep is not None:
            w = rep[1]
            if p is not B or w not in tree or w + "0" in tree:
                return None
            tree.update((w + "0", w + "1"))
            continue
        node = _NODE_MOVE.fullmatch(m)
        if node is None or node[1] not in tree:
            return None
        node_moves.append((node[1], p, node[2]))
    return [tuple((p, alpha) for w, p, alpha in node_moves
                  if leaf.startswith(w))
            for leaf in sorted(tree) if leaf + "0" not in tree]
