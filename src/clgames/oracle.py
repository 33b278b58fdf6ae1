"""Independent adjudication path: whole-run structural judgement.

Where the engine's evaluator (`games.State`) steps a decomposed game state
one labmove at a time, this oracle judges a finished run at once: each
connective splits the run into its components' runs, checks the split is
well formed, and combines the components' verdicts.  The two share only the
move grammar (`_numeral`, `split_bang_move`) and the recurrence helpers that
the tree-of-trees checks in `verify` also use; agreement between them over
random formulas, interpretations and runs is the evaluator's main
correctness evidence.
"""

from __future__ import annotations

from typing import Optional

from .formula import (Atom, Bang, Bot, ChoiceAll, ChoiceConj, ChoiceDisj,
                      ChoiceExists, Dollar, Elem, Formula, Implies, Neg,
                      ParConj, ParDisj, Top)
from .games import (B, Interpretation, Labmove, Player, Run, SPADE, T,
                    Valuation, _numeral, negate_run, prelegal_and_tree,
                    subrun_upto, tree_leaves)


def oracle_run(f: Formula, itp: Interpretation, val: Valuation, run: Run):
    """Judge the whole run.

    Returns (legal, winner): on an illegal run the mover of the first
    illegal labmove loses.  Legality is prefix-closed, so that labmove is
    found by bisecting over prefixes.
    """
    verdict = _judge_run(f, itp, val, run)
    if verdict is not None:
        return True, verdict
    legal, illegal = 0, len(run)       # lengths of a legal and an illegal prefix
    while illegal - legal > 1:
        mid = (legal + illegal) // 2
        if _judge_run(f, itp, val, run[:mid]) is None:
            illegal = mid
        else:
            legal = mid
    return False, run[illegal - 1].player.opponent


def _judge_run(f: Formula, itp: Interpretation, val: Valuation,
               run: Run) -> Optional[Player]:
    if any(SPADE in lm.move for lm in run):
        return None
    return _judge(f, itp, val, tuple(run))


def _judge(f: Formula, itp: Interpretation, val: Valuation,
           run: Run) -> Optional[Player]:
    """The winner of `run` in the game of `f`, or None if `run` is illegal."""
    if isinstance(f, Atom):
        game = itp.letter_game(f.letter, tuple(val.term(t) for t in f.args))
        node = game.walk(run)
        return node.winner if node is not None else None
    if isinstance(f, (Top, Bot)):
        if run:
            return None
        return T if isinstance(f, Top) else B
    if isinstance(f, Dollar):
        if not run:
            return T
        first = run[0]
        m = _numeral(first.move)
        if first.player is not B or m is None:
            return None
        component = itp.dollar_component(m)
        node = component.walk(run[1:]) if component is not None else None
        return node.winner if node is not None else None
    if isinstance(f, Neg):
        inner = _judge(f.body, itp, val, negate_run(run))
        return inner.opponent if inner is not None else None
    if isinstance(f, (ParConj, ParDisj, Implies)):
        comps = _components(f)
        projs = _split_parallel(run, len(comps))
        if projs is None:
            return None
        # /\ is won unless a component is lost; \/ and -> are lost unless
        # a component is won
        verdict = unit = T if isinstance(f, ParConj) else B
        for c, p in zip(comps, projs):
            o = _judge(c, itp, val, p)
            if o is None:
                return None
            if o is not unit:
                verdict = o
        return verdict
    if isinstance(f, (ChoiceConj, ChoiceDisj)):
        chooser = B if isinstance(f, ChoiceConj) else T
        if not run:
            return chooser.opponent
        first = run[0]
        i = _numeral(first.move)
        if first.player is not chooser or i is None or i > len(f.parts):
            return None
        return _judge(f.parts[i - 1], itp, val, run[1:])
    if isinstance(f, (ChoiceAll, ChoiceExists)):
        chooser = B if isinstance(f, ChoiceAll) else T
        if not run:
            return chooser.opponent
        first = run[0]
        c = _numeral(first.move)
        if first.player is not chooser or c is None:
            return None
        return _judge(f.body, itp, val.override(f.var, c), run[1:])
    if isinstance(f, Bang):
        ok, tree = prelegal_and_tree(run)
        if not ok:
            return None
        verdict = T
        for w in tree_leaves(tree):
            o = _judge(f.body, itp, val, subrun_upto(run, w))
            if o is None:
                return None
            if o is B:
                verdict = B
        return verdict
    if isinstance(f, Elem):
        raise ValueError("elementary atoms have no game semantics")
    raise TypeError(f"unknown formula node {f!r}")


def _components(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, Implies):
        return (Neg(f.left), f.right)
    return f.parts


def _split_parallel(run: Run, n: int) -> Optional[list[Run]]:
    projs: list[list[Labmove]] = [[] for _ in range(n)]
    for lm in run:
        head, dot, rest = lm.move.partition(".")
        i = _numeral(head) if dot else None
        if i is None or i > n:
            return None
        projs[i - 1].append(Labmove(lm.player, rest))
    return [tuple(p) for p in projs]
