"""Batch verification suites: the repository's acceptance machinery.

Each suite returns a Report with per-check counters; the CLI prints them
and exits nonzero on failure.  The same functions back the test suite, so
the command line and pytest agree on what "passing" means.
"""

from __future__ import annotations

import functools
import itertools
import random
import time

from . import cl2, formula as fm, intproof, oracle
from .epm import (BudgetExceeded, RandomEnv, ScriptEnv, Strategy, simulate,
                  wins_against_all)
from .formula import (Atom, Bang, Bot, ChoiceAll, ChoiceConj, ChoiceDisj,
                      ChoiceExists, Dollar, Formula, Implies, Neg, ParConj,
                      ParDisj, Top, conj_impl, par_conj)
from .games import (B, FiniteGame, GameRef, Labmove, Run, T, Valuation,
                    advance, branch_tree, branch_view, labmoves, legal_moves,
                    position_legal, prelegal_and_tree, random_interpretation,
                    split_bang_move, successors, tree_leaves, winner)
from .strategies import (Expr, blue_content, build_strategy,
                         colored_contents, colored_tree_leaves, content,
                         is_colored_tree, yellow_content)


class Report:
    __slots__ = ("name", "counters", "failures", "seconds")

    def __init__(self, name: str):
        self.name = name
        self.counters: dict = {}
        self.failures: list = []
        self.seconds = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def count(self, key: str, inc: int = 1):
        self.counters[key] = self.counters.get(key, 0) + inc

    def fail(self, message: str):
        self.failures.append(message)

    def require(self, cond: bool, message: str):
        if not cond:
            self.fail(message)

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = [f"[{status}] {self.name} ({self.seconds:.1f}s)"]
        for k in sorted(self.counters):
            parts.append(f"    {k}: {self.counters[k]}")
        for f in self.failures[:10]:
            parts.append(f"    !! {f}")
        if len(self.failures) > 10:
            parts.append(f"    !! ... and {len(self.failures) - 10} more")
        return "\n".join(parts)


def _timed(fn):
    def wrapper(*args, **kwargs) -> Report:
        t0 = time.time()
        report = fn(*args, **kwargs)
        report.seconds = time.time() - t0
        return report
    return wrapper


# ---------------------------------------------------------------------------
# Propositional schema instances

def _schema_names():
    return "abcdefghij"


def schema_instance(name: str, n: int = 2, i: int = 1, r: int = 1,
                    s: int = 1, w: int = 0, u: int = 0) -> Formula | None:
    """One instance of the ten uniformly-valid schemata; None when the
    parameter choice degenerates to an empty formula."""
    rs = [Atom(f"R{j + 1}") for j in range(r)]
    ss = [Atom(f"S{j + 1}") for j in range(s)]
    ws = [Atom(f"W{j + 1}") for j in range(w)]
    us = [Atom(f"U{j + 1}") for j in range(u)]
    p, q, t = Atom("P"), Atom("Q"), Atom("T")
    sn = [Atom(f"S{j + 1}") for j in range(n)]
    if name == "a":
        return Implies(conj_impl(rs + [p, q] + ss, t),
                       conj_impl(rs + [q, p] + ss, t))
    if name == "b":
        return Implies(conj_impl(rs, t), conj_impl(rs + [p], t))
    if name == "c":
        pairs = [Implies(rs[j], ss[j]) for j in range(min(r, s))]
        left = ws + rs[:len(pairs)] + us
        right = ws + ss[:len(pairs)] + us
        if not right:
            return None
        inner = conj_impl(left, par_conj(right))
        return conj_impl(pairs, inner)
    if name == "d":
        return Implies(conj_impl(rs + [p], q), conj_impl(rs, Implies(p, q)))
    if name == "e":
        return Implies(par_conj([Implies(p, Implies(q, t)), conj_impl(rs, q)]),
                       Implies(p, conj_impl(rs, t)))
    if name == "f":
        return Implies(par_conj([Implies(p, conj_impl(rs, q)),
                                 conj_impl(ss + [q], t)]),
                       conj_impl(ss + rs + [p], t))
    if name == "g":
        return Implies(par_conj([Implies(p, q), Implies(q, t)]),
                       Implies(p, t))
    if name == "h":
        return Implies(par_conj([conj_impl(rs, sk) for sk in sn]),
                       conj_impl(rs, ChoiceConj(tuple(sn))))
    if name == "i":
        return Implies(par_conj([conj_impl(rs + [sk], t) for sk in sn]),
                       conj_impl(rs + [ChoiceDisj(tuple(sn))], t))
    if name == "j":
        return Implies(conj_impl(rs, sn[i - 1]),
                       conj_impl(rs, ChoiceDisj(tuple(sn))))
    raise ValueError(f"unknown schema {name!r}")


def schema_instances():
    """All (label, formula) pairs over the acceptance parameter grid."""
    out = []
    for name in _schema_names():
        if name in ("a", "f"):
            for r, s in itertools.product(range(3), repeat=2):
                out.append((f"{name}[r={r},s={s}]",
                            schema_instance(name, r=r, s=s)))
        elif name in ("b", "d", "e"):
            for r in range(3):
                out.append((f"{name}[r={r}]", schema_instance(name, r=r)))
        elif name == "c":
            for w, r, u in itertools.product(range(3), repeat=3):
                f = schema_instance(name, r=r, s=r, w=w, u=u)
                if f is not None:
                    out.append((f"c[w={w},r={r},u={u}]", f))
        elif name == "g":
            out.append(("g", schema_instance(name)))
        elif name in ("h", "i"):
            for r, n in itertools.product(range(3), (2, 3)):
                out.append((f"{name}[r={r},n={n}]",
                            schema_instance(name, n=n, r=r)))
        elif name == "j":
            for r, n in itertools.product(range(3), (2, 3)):
                for i in range(1, n + 1):
                    out.append((f"j[r={r},n={n},i={i}]",
                                schema_instance(name, n=n, i=i, r=r)))
    return out


# ---------------------------------------------------------------------------
# Shared play helpers

def _signature_for(f: Formula):
    return tuple(sorted(fm.letters_of(f)))


def random_game(f: Formula, seed: int, depth: int = 3,
                dollar_base: FiniteGame | None = None,
                valuation: Valuation | None = None) -> GameRef:
    sig = _signature_for(f)
    itp = random_interpretation(seed, sig, depth, dollar_base)
    return GameRef(f, itp, valuation or Valuation())


def play_random(strategy_expr_or_id, game: GameRef, seed: int,
                max_moves: int = 5, grant_hook=None):
    """One seeded random play; `grant_hook(strategy, game)`, if given,
    builds the play's `on_grant` callback from the fresh strategy."""
    strat = _fresh_strategy(strategy_expr_or_id)
    env = RandomEnv(seed, max_moves=max_moves)
    on_grant = grant_hook(strat, game) if grant_hook else None
    return simulate(strat, env, game, budget=3000, on_grant=on_grant)


def _fresh_strategy(spec) -> Strategy:
    """A new strategy for an `Expr` or a registry strategy id."""
    if isinstance(spec, Expr):
        return spec.strategy()
    return build_strategy(spec)


def batch_random_plays(report: Report, label: str, spec, plays,
                       max_moves: int = 5, grant_hook=None):
    """Play `spec` once per seed of each (game, seeds) pair in `plays`,
    counting plays; the first lost play fails the report and ends the
    batch."""
    for k, (game, seeds) in enumerate(plays):
        for s in seeds:
            t = play_random(spec, game, seed=s, max_moves=max_moves,
                            grant_hook=grant_hook)
            report.count("plays")
            if t.verdict is not T:
                report.fail(f"{label}: lost (interp {k}, seed {s}):"
                            f" run {list(t.run)}")
                return


def exhaustive_check(report: Report, label: str, spec, formula: Formula,
                     depth: int = 2, seeds: tuple[int, ...] = (5, 6, 7),
                     valuation: Valuation | None = None):
    for seed in seeds:
        game = random_game(formula, seed=seed, depth=2, valuation=valuation)
        strat = _fresh_strategy(spec)
        try:
            result = wins_against_all(strat, game, depth=depth)
        except BudgetExceeded as e:
            report.fail(f"{label}: exhaustive search gave no verdict (seed"
                        f" {seed}): {e}")
            return
        report.count("exhaustive-leaves", result.leaves)
        if not result.won_all:
            report.fail(f"{label}: exhaustive adversary win failed (seed"
                        f" {seed}): run {list(result.counterexample.run)}")
            return


# ---------------------------------------------------------------------------
# Criterion 1: propositional decision procedure reproduces the worked proofs

@_timed
def verify_cl2_examples() -> Report:
    r = Report("cl2-examples")
    f = fm.parse_formula("(P -> Q) /\\ (Q -> S) -> (P -> S)")
    proof = cl2.prove(f)
    r.require(proof is not None, "composition formula should be provable")
    if proof:
        rules = [st.rule for st in proof.steps]
        r.counters["composition-steps"] = len(rules)
        r.require(len(rules) == 4, f"expected 4 steps, got {len(rules)}")
        r.require(rules.count("a") == 1 and rules.count("c") == 3,
                  f"expected one stable step and three channel steps: {rules}")
        ok, why = cl2.check_proof(proof)
        r.require(ok, f"checker rejected proof: {why}")
        round_trip = cl2.proof_from_text(cl2.proof_to_text(proof))
        ok2, why2 = cl2.check_proof(round_trip)
        r.require(ok2, f"text round-trip broke the proof: {why2}")
    for m in (1, 2):
        for label, name, kwargs in (("h", "h", {"n": 2, "r": m}),
                                    ("j", "j", {"n": 2, "i": 1, "r": m})):
            inst = schema_instance(name, **kwargs)
            p = cl2.prove(inst)
            r.require(p is not None, f"schema {label} (m={m}) unprovable")
            if p:
                ok, why = cl2.check_proof(p)
                r.require(ok, f"schema {label} (m={m}) proof invalid: {why}")
                r.count("schema-proofs")
    bad = fm.parse_formula("P -> P /\\ P")
    r.require(cl2.prove(bad) is None,
              "duplication formula must be refuted by exhaustive search")
    r.count("refuted")
    return r


# ---------------------------------------------------------------------------
# Criterion 2: schema coverage with adversarial play

@_timed
def verify_schemata(interps: int = 5, plays_per: int = 50,
                    exhaustive_depth: int = 3) -> Report:
    r = Report("cl2-schemata")
    for label, inst in schema_instances():
        expr = Expr("cl2", fm.render(inst))
        try:
            # building the prototype proves the instance, and ProofMachine
            # checks the proof and that its conclusion is general-base
            expr.strategy()
        except (ValueError, cl2.SearchBudgetExceeded) as e:
            r.fail(f"{label}: {e}")
            continue
        r.count("instances")
        exhaustive_check(r, label, expr, inst, depth=exhaustive_depth)
        plays = [(random_game(inst, seed=1000 + 7 * k),
                  range(31 * k, 31 * k + plays_per)) for k in range(interps)]
        batch_random_plays(r, label, expr, plays)
        if not r.passed:
            break
    return r


# ---------------------------------------------------------------------------
# Criterion 3: named strategies win their schema games, and the
# tree-of-trees machine keeps its invariants at every grant

def named_strategy_games() -> list[tuple[str, str, str]]:
    """(strategy id, game formula, kind) where kind 'l5' marks the
    tree-of-trees runs that carry live invariant checking."""
    games: list[tuple[str, str, str]] = [
        ("ccs", "P -> P", ""),
        ("ccs", "(P & Q) -> (P & Q)", ""),
        ("l6a", "!P -> P", ""),
        ("l6a", "!(P & Q) -> (P & Q)", ""),
        ("l4", "!(P -> Q) -> (!P -> !Q)", ""),
        ("l4a[n=1]", "!P -> !P", ""),
        ("l4a[n=2]", "!P /\\ !Q -> !(P /\\ Q)", ""),
        ("l4a[n=3]", "!P /\\ !Q /\\ !S -> !(P /\\ Q /\\ S)", ""),
        ("l6c", "!P -> !P /\\ !P", ""),
        ("l11a[i=1,n=2]", "!(P & Q) -> !P", ""),
        ("l11a[i=2,n=2]", "!(P & Q) -> !Q", ""),
        ("l11a[i=2,n=3]", "!(P & Q & S) -> !Q", ""),
        ("l11b[t=3]", "!@x.R(x) -> !R(3)", ""),
        ("l11b[t=y]", "!@x.R(x) -> !R(y)", ""),
        ("l11c[n=2]", "!(P + Q) -> !P + !Q", ""),
        ("l11d", "!?x.R(x) -> ?x.!R(x)", ""),
        ("oct5a", "@x.(R(x) -> S(x)) -> (@x.R(x) -> @x.S(x))", ""),
        ("oct5b[t=3]", "R(3) -> ?x.R(x)", ""),
        ("oct5b[t=y]", "R(y) -> ?x.R(x)", ""),
        ("oct5c", "P -> @x.P", ""),
        ("oct5d[n=0]", "@x.(R(x) -> S(x)) -> (?x.R(x) -> ?x.S(x))", ""),
        ("oct5d[n=1]", "@x.(A(x) /\\ R(x) -> S(x)) -> "
                       "(@x.A(x) /\\ ?x.R(x) -> ?x.S(x))", ""),
        ("oct99", "@y.R(y) -> @x.R(x)", ""),
        ("oct99", "?x.R(x) -> ?y.R(y)", ""),
        ("exists_drop", "?x.P -> P", ""),
        ("l5", "!P -> !!P", "l5"),
        ("l5", "!(P & Q) -> !!(P & Q)", "l5"),
    ]
    for k in _l6b_examples():
        games.append((f"l6b[K={k}]", f"!$ -> ({k})", ""))
    return games


def _l6b_examples() -> list[str]:
    return ["$", "P", "R(2)", "R(x)", "P & Q", "P + Q", "!P -> P",
            "!$ -> P", "@x.R(x)", "?x.R(x)", "P & (Q + $)",
            "!(P & Q) -> Q"]


def _l5_checker(r: Report, sid: str, strat: Strategy, game: GameRef):
    """A grant hook checking the invariants of one tree-of-trees play."""
    def on_grant(run: Run):
        r.count("l5-invariant-points")
        for e in check_l5_invariants(run, strat.machine.tree, game):
            r.fail(f"{sid}: invariant violated: {e}")
    return on_grant


@_timed
def verify_named(plays_total: int = 500, exhaustive_depth: int = 3) -> Report:
    r = Report("named-strategies")
    val = Valuation({"y": 2})
    plays_per = max(1, plays_total // 5)
    for sid, game_text, kind in named_strategy_games():
        f = fm.parse_formula(game_text)
        plays = [(random_game(f, seed=2000 + 11 * k, valuation=val),
                  range(41 * k, 41 * k + plays_per)) for k in range(5)]
        hook = functools.partial(_l5_checker, r, sid) if kind == "l5" else None
        batch_random_plays(r, f"{sid} on {game_text}", sid, plays,
                           grant_hook=hook)
        exhaustive_check(r, sid, sid, f, depth=exhaustive_depth, valuation=val)
        r.count("strategies")
        if not r.passed:
            break
    return r


# ---------------------------------------------------------------------------
# Criterion 4: colored-tree invariants

def _colored_strings(max_len: int):
    alphabet = [("0", "b"), ("1", "b"), ("0", "y"), ("1", "y")]
    for length in range(max_len + 1):
        for tup in itertools.product(alphabet, repeat=length):
            yield tup


def _prefixes(v):
    return [v[:k] for k in range(len(v) + 1)]


def _pair_embeddable(wv, uv) -> bool:
    """Can {w, u} live in one colored tree?  The prefix closure must be
    content-injective with color-consistent siblings."""
    closure = set(_prefixes(wv)) | set(_prefixes(uv))
    by_content = {}
    for v in closure:
        c = content(v)
        if by_content.setdefault(c, v) != v:
            return False
    for v in closure:
        for b0, b1 in (("b", "y"), ("y", "b")):
            if v + (("0", b0),) in closure and v + (("1", b1),) in closure:
                return False
    return True


@_timed
def verify_lemma10(max_len: int = 4) -> Report:
    r = Report("colored-trees")
    # pair-level exhaustiveness: every branch pair of every colored tree
    # with branches this short arises as an embeddable pair
    strings = list(_colored_strings(max_len))
    for wv in strings:
        for uv in strings:
            if not _pair_embeddable(wv, uv):
                continue
            r.count("pairs")
            if _breaks_branch_order(wv, uv):
                r.fail(f"branch-order violation: {wv} vs {uv}")
    # plus literal enumeration of all colored trees of depth <= 3
    for tree in _all_colored_trees(3):
        r.count("trees")
        if not is_colored_tree(frozenset(tree)):
            r.fail(f"generated a non-tree: {tree}")
            continue
        branches = sorted(tree, key=content)
        for wv in branches:
            for uv in branches:
                if _breaks_branch_order(wv, uv):
                    r.fail(f"branch-order violation in tree: {wv} vs {uv}")
    return r


def _breaks_branch_order(wv, uv) -> bool:
    """Do both contents of `uv` extend those of `wv` while `uv` itself does
    not extend `wv`?"""
    return (blue_content(uv).startswith(blue_content(wv))
            and yellow_content(uv).startswith(yellow_content(wv))
            and not _is_prefix_tuple(wv, uv))


def _is_prefix_tuple(wv, uv) -> bool:
    return len(wv) <= len(uv) and uv[:len(wv)] == wv


def _all_colored_trees(max_depth: int):
    """Every colored tree whose branches have length <= max_depth."""
    def grow(depth: int):
        yield [()]                       # the single-leaf tree rooted here
        if depth == 0:
            return
        for color in ("b", "y"):
            for left in grow(depth - 1):
                for right in grow(depth - 1):
                    tree = [()]
                    tree += [(("0", color),) + v for v in left]
                    tree += [(("1", color),) + v for v in right]
                    yield tree
    yield from grow(max_depth)


def check_l5_invariants(run: Run, tree, game: GameRef) -> list[str]:
    """The iteration invariants of the tree-of-trees machine.

    At each permission point: the record is a colored tree; the antecedent
    position is prelegal with its branch tree equal to the record's
    contents; the consequent and all its branch views are prelegal; record
    leaves biject with (outer, inner) leaf pairs via blue/yellow contents
    (the leaves of a colored tree have distinct pairs, so it is enough that
    every leaf's pair is a leaf pair and every leaf pair is some leaf's);
    matched single-branch views agree; and the whole position is legal.
    Errors are listed in that order.

    The run is read once: each move is parsed a single time into its side
    of the implication, and every branch tree and branch view is derived
    from the parsed moves with `branch_tree` and `branch_view`.
    """
    t = frozenset(tree)
    if not is_colored_tree(t):
        return [f"record is not a colored tree: {sorted(t)}"]
    cols = colored_contents(t)
    # (player, parsed recurrence move) on each side; the antecedent is
    # played with the labels swapped, and a consequent move at a node
    # carries its payload parsed too, for the branch views' inner trees
    ante, cons = [], []
    for player, mv in run:
        if mv.startswith("1."):
            ante.append((player.opponent, split_bang_move(mv[2:])))
        elif mv.startswith("2."):
            p = split_bang_move(mv[2:])
            if p is not None and p[0] == "node":
                p = ("node", p[1], split_bang_move(p[2]))
            cons.append((player, p))
    errs = []
    ok_phi, tree_phi = branch_tree(ante)
    if not ok_phi:
        errs.append("antecedent position not prelegal")
    if tree_phi != {c for c, _, _ in cols.values()}:
        errs.append("antecedent tree differs from record contents")
    ok_psi, tree_psi = branch_tree(cons)
    if not ok_psi:
        errs.append("consequent position not prelegal")
    psi_leaves = tree_leaves(tree_psi)
    views = {x: branch_view(cons, x) for x in psi_leaves}
    inner_leaves = {}
    for x in psi_leaves:
        ok_sub, tree_sub = branch_tree(views[x])
        if not ok_sub:
            errs.append(f"consequent branch view {x!r} not prelegal")
        inner_leaves[x] = tree_leaves(tree_sub)
    record_leaves = colored_tree_leaves({v: c for v, (c, _, _)
                                         in cols.items()})
    pairs = set()
    for z in record_leaves:
        _, bx, yx = cols[z]
        if bx not in inner_leaves:
            errs.append(f"blue content {bx!r} is not an outer leaf")
            continue
        if yx not in inner_leaves[bx]:
            errs.append(f"yellow content {yx!r} is not an inner leaf of {bx!r}")
            continue
        pairs.add((bx, yx))
    for x in psi_leaves:
        for y in inner_leaves[x]:
            if (x, y) not in pairs:
                errs.append(f"no record leaf for pair {(x, y)}")
    for z in record_leaves:
        c, bx, yx = cols[z]
        view = views[bx] if bx in views else branch_view(cons, bx)
        if branch_view(ante, c) != branch_view(view, yx):
            errs.append(f"branch views differ at {c!r}")
    if not position_legal(game, run):
        errs.append("position illegal")
    return errs


# ---------------------------------------------------------------------------
# Criterion 5: compiled derivations win end to end

DOLLAR_BASES = (
    FiniteGame(T),
    FiniteGame(B),
    FiniteGame(T, {(B, "1"): FiniteGame(B), (B, "2"): FiniteGame(T)}),
)


@_timed
def verify_corpus(interps: int = 10, plays_per: int = 100,
                  exhaustive_depth: int = 3) -> Report:
    r = Report("corpus")
    corpus = intproof.curated_theorem_corpus()
    rules = frozenset()
    for _, proof in corpus:
        rules |= proof.rules_used()
    r.counters["rules-covered"] = len(rules)
    r.require(len(rules) == 15, f"rule coverage {len(rules)} != 15")
    r.counters["derivations"] = len(corpus)
    val = Valuation({"y": 2})
    for name, proof in corpus:
        ok, why = intproof.check_proof(proof)
        if not ok:
            r.fail(f"{name}: {why}")
            continue
        expr = intproof.compile_proof(proof)
        f = fm.sequent_to_formula(proof.sequent)
        # seeded random plays across interpretations
        plays = [(random_game(f, seed=3000 + 13 * k, valuation=val),
                  range(97 * k, 97 * k + plays_per)) for k in range(interps)]
        batch_random_plays(r, name, expr, plays, max_moves=4)
        if not r.passed:
            break
        exhaustive_check(r, name, expr, f, depth=exhaustive_depth,
                         valuation=val)
        # interpretation blindness: identical traces on fixed scripts
        script = _structural_script(random_game(f, seed=1, valuation=val))
        traces = []
        for k in range(3):
            game = random_game(f, seed=7777 + k, valuation=val)
            t = simulate(expr.strategy(), ScriptEnv(script), game, budget=2000)
            traces.append(tuple(t.run))
            r.require(t.verdict is T, f"{name}: lost scripted play {k}")
        r.require(len(set(traces)) == 1,
                  f"{name}: traces differ across interpretations")
        r.count("blindness-probes")
        # universal-problem base insensitivity, one pair per base
        bases = [(random_game(f, seed=4242, dollar_base=base, valuation=val),
                  range(555, 565)) for base in DOLLAR_BASES]
        batch_random_plays(r, f"{name} with alternate bases", expr, bases,
                           max_moves=4)
        r.count("compiled")
    return r


def _structural_script(game: GameRef) -> list:
    """A deterministic interpretation-independent environment script: up to
    four seeded structural environment moves in a row, then "stop"."""
    state = game.root()
    rng = random.Random(99)
    directives = []
    for _ in range(4):
        options = successors(state, B, structural_only=True)
        if not options:
            break
        mv, state = rng.choice(options)
        directives.append(("move", mv))
    directives.append("stop")
    return directives


# ---------------------------------------------------------------------------
# Criterion 6: the engine's stepping evaluator agrees with the oracle, which
# judges whole runs by structural recursion (an independent implementation)

def _all_shapes(max_size: int) -> list[Formula]:
    leaves = [Atom("P"), Atom("Q"), Atom("R", (fm.Var("x"),)), Dollar(),
              Top(), Bot()]
    by_size: dict[int, list[Formula]] = {1: list(leaves)}
    for size in range(2, max_size + 1):
        items: list[Formula] = []
        for sub in by_size[size - 1]:
            items.append(Neg(sub))
            items.append(Bang(sub))
            items.append(ChoiceAll("x", sub))
            items.append(ChoiceExists("x", sub))
        for lsize in range(1, size - 1):
            rsize = size - 1 - lsize
            for a in by_size[lsize]:
                for b in by_size[rsize]:
                    items.append(ParConj((a, b)))
                    items.append(ParDisj((a, b)))
                    items.append(Implies(a, b))
                    items.append(ChoiceConj((a, b)))
                    items.append(ChoiceDisj((a, b)))
        by_size[size] = items
    out = []
    for size in range(1, max_size + 1):
        out.extend(by_size[size])
    return out


@_timed
def verify_oracle(max_size: int = 4, runs_per: int = 3,
                  min_cases: int = 1000) -> Report:
    r = Report("oracle-equivalence")
    shapes = _all_shapes(max_size)
    r.counters["shapes"] = len(shapes)
    for idx, f in enumerate(shapes):
        sig = _signature_for(f)
        itp = random_interpretation(idx, sig, 2)
        val = Valuation()
        game = GameRef(f, itp, val)
        rng = random.Random(idx)
        for j in range(runs_per):
            run: list[Labmove] = []
            # the evaluator's state after `run`, None once the oracle
            # rejects a prefix
            state = game.root()
            for _ in range(4):             # four labmoves a run
                player = rng.choice((T, B))
                options = [] if state is None else legal_moves(state, player)
                corrupt = rng.random() < 0.25 or not options
                if corrupt:
                    mv = rng.choice(["0", "3.x", "1.", ":", "junk",
                                     "1..1", "2.9", ":x", "0:1", "::", "2:",
                                     "01.a", "01"])
                else:
                    mv = rng.choice(options)
                lm = Labmove(player, mv)
                if state is not None:
                    nxt = advance(state, lm)
                    oracle_ok, _ = oracle.oracle_run(
                        f, itp, val, tuple(run) + (lm,))
                    if (nxt is not None) != oracle_ok:
                        r.fail(f"classification mismatch on {fm.render(f)}"
                               f" run {run + [lm]}")
                    state = nxt if oracle_ok else None
                run.append(lm)
            ev_winner = winner(game, tuple(run))
            _, or_winner = oracle.oracle_run(f, itp, val, tuple(run))
            r.count("cases")
            if ev_winner is not or_winner:
                r.fail(f"winner mismatch on {fm.render(f)} run {run}:"
                       f" evaluator {ev_winner.value},"
                       f" oracle {or_winner.value}")
        if not r.passed:
            break
    r.require(r.counters.get("cases", 0) >= min_cases,
              f"only {r.counters.get('cases', 0)} cases")
    return r


# ---------------------------------------------------------------------------
# Criterion 7: worked micro-examples

@_timed
def verify_micro() -> Report:
    r = Report("micro-examples")

    # single-branch view of a recurrence run
    g = labmoves(("T", ".a1"), ("B", ":"), ("B", "1.a2"), ("T", "0.a3"),
                 ("B", "1:"), ("T", "10.a4"))
    got = branch_view([(lm.player, split_bang_move(lm.move)) for lm in g],
                      "101000")
    want = [(T, "a1"), (B, "a2"), (T, "a4")]
    r.require(got == want, f"branch view mismatch: {got}")
    r.count("checks")

    # tree growth under replication
    ok0, t0 = prelegal_and_tree(())
    r.require(ok0 and t0 == frozenset({""}), "empty position tree")
    ok1, t1 = prelegal_and_tree(labmoves(("B", ":")))
    r.require(ok1 and t1 == frozenset({"", "0", "1"}), "root replication tree")
    ok2, t2 = prelegal_and_tree(labmoves(("B", ":"), ("B", "00:")))
    r.require(not ok2 and t2 == frozenset({"", "0", "1"}),
              "replication at a non-leaf must be rejected")
    r.count("checks", 3)

    # colored contents
    v = (("1", "b"), ("0", "y"), ("0", "y"), ("0", "b"), ("1", "y"))
    r.require(content(v) == "10001" and blue_content(v) == "10"
              and yellow_content(v) == "001", "colored contents")
    r.count("checks")

    # a resolved choice is its component: the environment's choice of A_i
    # in A1 & A2 leads to the root of A_i's letter game
    for i in (1, 2):
        sig = (("A1", 0), ("A2", 0))
        itp = random_interpretation(3, sig, 2)
        big = GameRef(ChoiceConj((Atom("A1"), Atom("A2"))), itp)
        chosen = advance(big.root(), Labmove(B, str(i)))
        direct = GameRef(Atom(f"A{i}"), itp).root()
        r.require(chosen is direct, f"choice resolution identity at {i}")
        r.count("checks")
    return r


# ---------------------------------------------------------------------------

SUITES = {
    "cl2-examples": verify_cl2_examples,
    "cl2-schemata": verify_schemata,
    "named": verify_named,
    "lemma10": verify_lemma10,
    "corpus": verify_corpus,
    "oracle": verify_oracle,
    "micro": verify_micro,
}


def run_suite(name: str, **kwargs) -> Report:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    return SUITES[name](**kwargs)
