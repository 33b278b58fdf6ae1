"""Whole-run views of a run, for the tests' reference checkers.

The engine steps a game state one labmove at a time and never needs these;
the tests state some invariants on whole runs instead, as the paper does.
`bisecting_oracle_run` is the reference the one-pass oracle is compared
against.
"""

import re

from clgames.formula import (Atom, Bang, Bot, ChoiceAll, ChoiceConj,
                             ChoiceDisj, ChoiceExists, Dollar, Elem, Implies,
                             Neg, ParConj, ParDisj, Top)
from clgames.games import B, Labmove, SPADE, T


def negate_run(run):
    """The run with every label swapped."""
    return tuple(Labmove(lm.player.opponent, lm.move) for lm in run)


def project(run, prefix: str):
    """The labmoves whose move starts with `prefix`, with it stripped."""
    return tuple(Labmove(lm.player, lm.move[len(prefix):])
                 for lm in run if lm.move.startswith(prefix))


def subrun_upto(run, u: str):
    """The single-branch view of a recurrence run along bit string u: the
    (player, alpha) of each move "w.alpha" with w an initial segment of u."""
    out = []
    for lm in run:
        w, dot, alpha = lm.move.partition(".")
        if dot and set(w) <= {"0", "1"} and u.startswith(w):
            out.append(Labmove(lm.player, alpha))
    return tuple(out)


# ---------------------------------------------------------------------------
# The whole-run oracle as it was before it judged a run in one pass: it
# relabels the run at every negation and antecedent, and finds the first
# illegal labmove by judging prefixes again, bisecting over their lengths.

_NUMERAL = re.compile(r"[1-9][0-9]*")
_REPLICATION = re.compile(r"([01]*):")
_NODE_MOVE = re.compile(r"([01]*)\.(.*)", re.DOTALL)

_OPPONENT = {T: B, B: T}


def bisecting_oracle_run(f, itp, val, run):
    """(legal, winner) of the whole run, as `oracle.oracle_run`."""
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


def _numeral(s):
    return int(s) if _NUMERAL.fullmatch(s) else None


def _walk(game, run):
    for pair in run:
        game = game.moves.get(pair)
        if game is None:
            return None
    return game.winner


def _judge(f, itp, val, run):
    """The winner of `run` in the game of `f`, or None if it is illegal."""
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
        verdict = unit = T if cls is ParConj else B
        for c, p in zip(f.parts, projs):
            o = _judge(c, itp, val, p)
            if o is None:
                return None
            if o is not unit:
                verdict = o
        return verdict
    if cls is Implies:
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


def _negate(run):
    return tuple((_OPPONENT[p], m) for p, m in run)


def _split_parallel(run, n):
    projs = [[] for _ in range(n)]
    for p, m in run:
        head, dot, rest = m.partition(".")
        i = _numeral(head) if dot else None
        if i is None or i > n:
            return None
        projs[i - 1].append((p, rest))
    return [tuple(p) for p in projs]


def _branch_subruns(run):
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
