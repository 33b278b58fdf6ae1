"""Whole-run views of a run, for the tests' reference checkers.

The engine steps a game state one labmove at a time and never needs these;
the tests state some invariants on whole runs instead, as the paper does.
"""

from clgames.games import Labmove


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
