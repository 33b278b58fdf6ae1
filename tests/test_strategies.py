import random

import pytest

from clgames import formula as fm
from clgames.epm import (PlayContext, RandomEnv, ScriptEnv, Strategy,
                         simulate, wins_against_all)
from clgames.games import (B, FiniteGame, GameRef, Interpretation, Labmove,
                           T, Valuation, labmoves, position_legal,
                           prelegal_and_tree, random_interpretation,
                           tree_leaves)
from clgames.strategies import (AllClosureMachine, BangClosureMachine,
                                CcsMachine, Expr, L5Machine, Machine,
                                MpMachine, blue_content, build_machine,
                                build_strategy, colored_tree_leaves, content,
                                is_colored_tree, parse_strategy_id,
                                transitivity_machine, yellow_content)
from clgames.verify import (_all_colored_trees, check_l5_invariants,
                            named_strategy_games, random_game)
from wholerun import negate_run, project, subrun_upto

CTX = PlayContext(Valuation({"y": 4}), (("P", 0), ("Q", 0), ("R", 1)))


def feed(machine: Machine, *moves: str, ctx: PlayContext = CTX):
    """Start a machine and return [initial burst, burst per env move...]."""
    bursts = [machine.start(ctx)]
    for m in moves:
        bursts.append(machine.on_env(m))
    return bursts


class TestMirrors:
    def test_ccs_mirrors_both_ways(self):
        m = build_machine("ccs")
        assert feed(m, "2.a", "1.x", "2.y") == [[], ["1.a"], ["2.x"], ["1.y"]]

    def test_ccs_ignores_unrecognized(self):
        m = build_machine("ccs")
        assert feed(m, "junk") == [[], []]

    def test_l6a_tags_antecedent_moves_with_the_root_branch(self):
        m = build_machine("l6a")
        assert feed(m, "2.m", "1..n") == [[], ["1..m"], ["2.n"]]

    def test_l4_replication_case(self):
        m = build_machine("l4")
        assert feed(m, "2.2.:")[1] == ["1.:", "2.1.:"]
        assert feed(build_machine("l4"), "2.2.w:".replace("w", "0"))[1] == \
            ["1.0:", "2.1.0:"]

    def test_l4_component_transpositions(self):
        m = build_machine("l4")
        assert m.on_env("2.2.0.a") == ["1.0.2.a"]
        assert m.on_env("1.0.2.a") == ["2.2.0.a"]
        assert m.on_env("2.1.0.a") == ["1.0.1.a"]
        assert m.on_env("1.0.1.a") == ["2.1.0.a"]

    def test_l4a_broadcast_and_transpose(self):
        m = build_machine("l4a[n=2]")
        assert m.on_env("2.:") == ["1.1.:", "1.2.:"]
        assert m.on_env("2.0.2.a") == ["1.2.0.a"]
        assert m.on_env("1.1.0.a") == ["2.0.1.a"]

    def test_l4a_unary_degenerates_to_mirroring(self):
        m = build_machine("l4a[n=1]")
        assert m.on_env("2.:") == ["1.:"]
        assert m.on_env("2.0.a") == ["1.0.a"]

    def test_l6c_replicates_then_routes(self):
        m = build_machine("l6c")
        assert m.start(CTX) == ["1.:"]
        assert m.on_env("2.1..a") == ["1.0.a"]
        assert m.on_env("2.2..a") == ["1.1.a"]
        assert m.on_env("1.0.a") == ["2.1..a"]
        assert m.on_env("1..a") == ["2.1..a", "2.2..a"]


class TestChoiceShufflers:
    def test_l11a_resolves_then_copies(self):
        m = build_machine("l11a[i=2,n=3]")
        assert m.start(CTX) == ["1..2"]
        assert m.on_env("2.w.a".replace("w", "0")) == ["1.0.a"]

    def test_l11b_reads_the_valuation(self):
        assert build_machine("l11b[t=3]").start(CTX) == ["1..3"]
        assert build_machine("l11b[t=y]").start(CTX) == ["1..4"]

    def test_l11c_answers_the_environments_pick(self):
        m = build_machine("l11c[n=2]")
        assert m.start(CTX) == []
        assert m.on_env("1..2") == ["2.2"]
        assert m.on_env("2.m") == ["1.m"]

    def test_l11d_repeats_the_constant(self):
        m = build_machine("l11d")
        assert feed(m, "1..7")[1] == ["2.7"]

    def test_oct5a_repeats_the_constant_twice(self):
        m = build_machine("oct5a")
        assert feed(m, "2.2.5")[1] == ["1.5", "2.1.5"]

    def test_oct5b_moves_first(self):
        assert build_machine("oct5b[t=4]").start(CTX) == ["2.4"]
        assert build_machine("oct5b[t=y]").start(CTX) == ["2.4"]

    def test_oct5c_buffers_and_replays(self):
        m = build_machine("oct5c")
        assert feed(m, "1.a", "1.b", "2.9")[1:] == [[], [], ["2.a", "2.b"]]
        assert m.on_env("2.x") == ["1.x"]       # copy-cat afterwards

    def test_oct5d_fans_the_constant_out(self):
        m = build_machine("oct5d[n=1]")
        assert feed(m, "2.1.2.5")[1] == ["2.2.5", "1.5", "2.1.1.5"]
        m0 = build_machine("oct5d[n=0]")
        assert feed(m0, "2.1.5")[1] == ["2.2.5", "1.5"]

    def test_exists_drop_replays_into_the_antecedent(self):
        m = build_machine("exists_drop")
        assert feed(m, "2.a", "1.7")[1:] == [[], ["1.a"]]

    @pytest.mark.parametrize("sid", ["l11a[i=3,n=2]", "l11a[i=1,n=1]",
                                     "l11c[n=1]", "oct5d[n=-1]"])
    def test_bad_parameters_are_rejected(self, sid):
        with pytest.raises(ValueError):
            build_machine(sid)

    def test_oct5c_keeps_holding_past_a_non_numeral(self):
        m = build_machine("oct5c")
        assert feed(m, "1.a", "2.x", "1.b", "2.9")[1:] == \
            [[], [], [], ["2.a", "2.b"]]
        assert m.on_env("1.c") == ["2.c"]

    def test_exists_drop_drops_a_non_numeral(self):
        m = build_machine("exists_drop")
        assert feed(m, "2.a", "1.x", "1.7")[1:] == [[], [], ["1.a"]]
        assert m.on_env("1.x") == ["2.x"]

    @pytest.mark.parametrize("sid", ["oct99", "l4a[n=1]"])
    def test_plain_copy_cats_mirror_both_ways(self, sid):
        m = build_machine(sid)
        assert feed(m, "2.a", "1.x", "2.0.y") == \
            [[], ["1.a"], ["2.x"], ["1.0.y"]]


class TestL6b:
    def test_dollar_behaves_as_the_root_copy_cat(self):
        m = build_machine("l6b[K=$]")
        assert m.start(CTX) == []
        assert m.on_env("2.m") == ["1..m"]

    def test_atom_picks_its_enumeration_conjunct(self):
        # signature (P,0),(Q,0),(R,1): atoms P, Q, R(1), R(2), ...
        m = build_machine("l6b[K=Q]")
        assert m.start(CTX) == ["1..3"]
        m2 = build_machine("l6b[K=R(2)]")
        assert m2.start(CTX) == ["1..5"]
        m3 = build_machine("l6b[K=R(y)]")     # y valued 4 by the context
        assert m3.start(CTX) == ["1..7"]

    def test_choice_disjunction_picks_the_first_component(self):
        m = build_machine("l6b[K=P + Q]")
        assert m.start(CTX) == ["2.1", "1..2"]

    def test_choice_conjunction_waits(self):
        m = build_machine("l6b[K=P & Q]")
        assert m.start(CTX) == []
        assert m.on_env("2.2") == ["1..3"]

    def test_quantifiers(self):
        m = build_machine("l6b[K=?x.R(x)]")
        assert m.start(CTX) == ["2.1", "1..4"]   # witnesses 1; R(1) is atom 4
        m2 = build_machine("l6b[K=@x.R(x)]")
        assert m2.start(CTX) == []
        assert m2.on_env("2.2") == ["1..5"]      # R(2) is atom 5

    def test_rejects_non_sublanguage(self):
        with pytest.raises(ValueError):
            build_machine("l6b[K=~P]")


class TestColoredTrees:
    def test_colored_contents(self):
        v = (("1", "b"), ("0", "y"), ("0", "y"), ("0", "b"), ("1", "y"))
        assert content(v) == "10001"
        assert blue_content(v) == "10"
        assert yellow_content(v) == "001"

    def test_tree_conditions(self):
        assert is_colored_tree(frozenset({()}))
        good = frozenset({(), (("0", "b"),), (("1", "b"),)})
        assert is_colored_tree(good)
        mixed = frozenset({(), (("0", "b"),), (("1", "y"),)})
        assert not is_colored_tree(mixed)
        not_injective = frozenset({(), (("0", "b"),), (("1", "b"),),
                                   (("0", "y"),)})
        assert not is_colored_tree(not_injective)
        # contents form a tree, but 1y0b and 1y1b have no parent 1y
        b0, b1, y0, y1 = ("0", "b"), ("1", "b"), ("0", "y"), ("1", "y")
        assert not is_colored_tree(frozenset(
            {(), (b0,), (b1,), (b0, y0), (b0, y1), (y1, b0), (y1, b1)}))

    def test_leaves_have_distinct_blue_and_yellow_contents(self):
        trees = 0
        for tree in _all_colored_trees(3):
            t = frozenset(tree)
            assert is_colored_tree(t)
            leaves = colored_tree_leaves({v: content(v) for v in t})
            pairs = {(blue_content(v), yellow_content(v)) for v in leaves}
            assert len(pairs) == len(leaves), tree
            trees += 1
        assert trees == 723

    def test_leaves_sorted_by_content(self):
        t = frozenset({(), (("0", "b"),), (("1", "b"),)})
        leaves = colored_tree_leaves({v: content(v) for v in t})
        assert [content(v) for v in leaves] == ["0", "1"]


class TestL5:
    def test_outer_replication_splits_blue(self):
        m = L5Machine()
        assert feed(m, "2.:")[1] == ["1.:"]
        assert sorted(content(v) for v in colored_tree_leaves(
            {v: content(v) for v in m.tree})) == ["0", "1"]
        assert all(v[-1][1] == "b" for v in m.tree if v)

    def test_inner_replication_splits_yellow(self):
        m = L5Machine()
        m.start(CTX)
        assert m.on_env("2..:") == ["1.:"]
        assert all(v[-1][1] == "y" for v in m.tree if v)

    def test_consequent_move_copies_to_matching_leaves(self):
        m = L5Machine()
        m.start(CTX)
        m.on_env("2.:")
        assert m.on_env("2.0..a") == ["1.0.a"]
        assert m.on_env("2...b") == ["1.0.b", "1.1.b"]

    def test_antecedent_move_translates_to_branch_pairs(self):
        m = L5Machine()
        m.start(CTX)
        m.on_env("2.:")
        assert m.on_env("1.0.a") == ["2.0..a"]
        assert m.on_env("1..c") == ["2.0..c", "2.1..c"]


class TestCombinators:
    def test_mp_routes_between_parts_and_the_composer(self):
        class Responder(Machine):
            def on_env(self, move):
                return ["b"] if move == "a" else []
        comp = MpMachine([Responder()], CcsMachine())
        assert feed(comp, "a")[1] == ["b"]

    def test_mp_shape_mismatch_is_loud(self):
        class BadComposer(Machine):
            def on_env(self, move):
                return ["zzz"]          # no component prefix
        comp = MpMachine([CcsMachine()], BadComposer())
        with pytest.raises(RuntimeError):
            feed(comp, "a")
        with pytest.raises(ValueError, match="no parts"):
            MpMachine([], CcsMachine())

    def test_transitivity_of_two_copy_cats_is_a_copy_cat(self):
        m = transitivity_machine(CcsMachine(), CcsMachine())
        bursts = feed(m, "2.a", "1.x")
        assert bursts[1] == ["1.a"] and bursts[2] == ["2.x"]

    def test_transitivity_chain_stress(self):
        m = transitivity_machine(
            transitivity_machine(CcsMachine(), CcsMachine()),
            transitivity_machine(CcsMachine(), CcsMachine()))
        itp = random_interpretation(9, (("P", 0),), 3)
        g = GameRef(fm.parse_formula("P -> P"), itp)
        for seed in range(40):
            t = simulate(Strategy(m).clone(), RandomEnv(seed), g)
            assert t.verdict is T
        res = wins_against_all(Strategy(m), g, depth=2)
        assert res.won_all

    def test_bang_closure_single_branch_prefixes_the_root(self):
        class Responder(Machine):
            def on_env(self, move):
                return ["b"] if move == "a" else []
        m = BangClosureMachine(Responder())
        assert feed(m, ".a")[1] == [".b"]

    def test_bang_closure_replication_duplicates_state(self):
        class Echo(Machine):
            def __init__(self):
                self.seen = 0

            def on_env(self, move):
                self.seen += 1
                return [f"r{self.seen}"]
        m = BangClosureMachine(Echo())
        m.start(CTX)
        m.on_env(".x")                          # seen=1 at the root copy
        m.on_env(":")                           # split
        assert sorted(m.copies) == ["0", "1"]
        assert m.copies["0"].seen == 1 and m.copies["1"].seen == 1
        out = m.on_env("0.x")
        assert out == ["0.r2"]
        assert m.copies["1"].seen == 1          # untouched sibling

    def test_bang_closure_broadcasts_node_moves(self):
        class Echo(Machine):
            def on_env(self, move):
                return ["k"]
        m = BangClosureMachine(Echo())
        m.start(CTX)
        m.on_env(":")
        assert m.on_env(".x") == ["0.k", "1.k"]

    def test_bang_closure_wins_recurrence_of_a_won_game(self):
        class Responder(Machine):
            def on_env(self, move):
                return ["b"] if move == "a" else []
        a = FiniteGame(T, {(B, "a"): FiniteGame(B, {(T, "b"): FiniteGame(T)})})
        itp = Interpretation({"A/0": lambda _: a})
        g = GameRef(fm.parse_formula("!A"), itp)
        res = wins_against_all(Strategy(BangClosureMachine(Responder())), g,
                               depth=2)
        assert res.won_all

    def test_all_closure_runs_the_inner_machine_at_the_chosen_constant(self):
        inners = []

        class Probe(Machine):
            def start(self, ctx):
                inners.append(ctx.valuation.var("x"))
                return []
        m = AllClosureMachine(Probe(), "x")
        feed(m, "5")
        assert inners == [5]

    def test_all_closure_wins_when_the_environment_never_chooses(self):
        itp = random_interpretation(2, (("R", 1),), 2)
        g = GameRef(fm.parse_formula("@x.R(x)"), itp)
        t = simulate(Strategy(AllClosureMachine(Machine(), "x")),
                     ScriptEnv(["stop"]), g)
        assert t.verdict is T


class TestLoopInvariants:
    def test_root_copy_cat_keeps_the_runs_dual(self):
        # at every permission point of the !A -> A copy-cat: the antecedent
        # moves all sit at the root branch, and the root-branch view is the
        # label-dual of the consequent run
        itp = random_interpretation(6, (("A", 0),), 3)
        g = GameRef(fm.parse_formula("!A -> A"), itp)
        failures = []

        def on_grant(run):
            ante = project(run, "1.")
            if not all(lm.move.startswith(".") for lm in ante):
                failures.append(("prefix", run))
            if project(run, "1..") != negate_run(project(run, "2.")):
                failures.append(("dual", run))

        for seed in range(25):
            t = simulate(build_strategy("l6a"), RandomEnv(seed), g,
                         on_grant=on_grant)
            assert t.verdict is T
        assert not failures

    def test_l5_invariant_checker_detects_tampering(self):
        from clgames.verify import check_l5_invariants

        itp = random_interpretation(6, (("P", 0),), 3)
        g = GameRef(fm.parse_formula("!P -> !!P"), itp)
        m = L5Machine()
        strat = Strategy(m)
        env = ScriptEnv([("move", "2.:"), "stop"])
        t = simulate(strat, env, g)
        assert t.verdict is T
        assert check_l5_invariants(t.run, m.tree, g) == []
        # drop a leaf from the record: the bijection clauses must fire
        broken = set(m.tree)
        broken.discard((("0", "b"),))
        assert check_l5_invariants(t.run, broken, g)


def reference_l5_invariants(run, tree, game) -> list[str]:
    """The invariant clauses of `verify.check_l5_invariants`, stated on
    whole runs: each clause derives its runs again with `project`,
    `negate_run`, `prelegal_and_tree` and `subrun_upto`."""
    errs = []
    t = frozenset(tree)
    if not is_colored_tree(t):
        return [f"record is not a colored tree: {sorted(t)}"]
    phi = negate_run(project(run, "1."))
    psi = project(run, "2.")
    ok_phi, tree_phi = prelegal_and_tree(phi)
    if not ok_phi:
        errs.append("antecedent position not prelegal")
    if tree_phi != frozenset(content(v) for v in t):
        errs.append("antecedent tree differs from record contents")
    ok_psi, tree_psi = prelegal_and_tree(psi)
    if not ok_psi:
        errs.append("consequent position not prelegal")
    psi_leaves = tree_leaves(tree_psi)
    inner_trees = {}
    for x in psi_leaves:
        sub = subrun_upto(psi, x)
        ok_sub, tree_sub = prelegal_and_tree(sub)
        if not ok_sub:
            errs.append(f"consequent branch view {x!r} not prelegal")
        inner_trees[x] = tree_leaves(tree_sub)
    record_leaves = colored_tree_leaves({v: content(v) for v in t})
    pair_to_leaf = {}
    for z in record_leaves:
        bx, yx = blue_content(z), yellow_content(z)
        if bx not in psi_leaves:
            errs.append(f"blue content {bx!r} is not an outer leaf")
            continue
        if yx not in inner_trees.get(bx, []):
            errs.append(f"yellow content {yx!r} is not an inner leaf of {bx!r}")
            continue
        pair_to_leaf[(bx, yx)] = z
    for x in psi_leaves:
        for y in inner_trees[x]:
            if (x, y) not in pair_to_leaf:
                errs.append(f"no record leaf for pair {(x, y)}")
    for z in record_leaves:
        lhs = subrun_upto(phi, content(z))
        rhs = subrun_upto(subrun_upto(psi, blue_content(z)), yellow_content(z))
        if lhs != rhs:
            errs.append(f"branch views differ at {content(z)!r}")
    if not position_legal(game, run):
        errs.append("position illegal")
    return errs


def _tamper_record(rng, tree):
    t = set(tree)
    op = rng.randrange(4)
    v = rng.choice(sorted(t))
    if op == 0 and v:
        t.discard(v)                                  # drop a string
    elif op == 1:
        col = rng.choice("by")                        # split a string
        t |= {v + (("0", col),), v + (("1", col),)}
    elif op == 2 and v:
        t.discard(v)                                  # recolor its last edge
        bit, col = v[-1]
        t.add(v[:-1] + ((bit, "y" if col == "b" else "b"),))
    else:
        t.add(tuple((rng.choice("01"), rng.choice("by"))
                    for _ in range(rng.randrange(1, 4))))
    return t


def _tamper_run(rng, run):
    run = list(run)
    op = rng.randrange(5)
    k = rng.randrange(len(run)) if run else 0
    if op == 0 and run:
        del run[k]                                    # drop a move
    elif op == 1 and run:
        lm = run[k]                                   # flip its mover
        run[k] = Labmove(lm.player.opponent, lm.move)
    elif op == 2 and run:
        run.insert(k, run[k])                         # repeat a move
    elif op == 3 and run:
        lm = run[k]                                   # flip a node bit
        i = rng.randrange(len(lm.move))
        c = {"0": "1", "1": "0"}.get(lm.move[i], lm.move[i])
        run[k] = Labmove(lm.player, lm.move[:i] + c + lm.move[i + 1:])
    else:
        run.append(Labmove(rng.choice((B, T)), rng.choice(
            ("1.:", "2.:", "2.0.:", "1.0.1.1", "2..1.2", "2...1.2", "3.x",
             "1.01", "2.0.1.1.2"))))
    return tuple(run)


class TestL5Checker:
    """`verify.check_l5_invariants` reads the run once; the whole-run
    statement of its clauses is `reference_l5_invariants`."""

    def test_agrees_with_the_whole_run_statement(self):
        rng = random.Random(14)
        val = Valuation({"y": 2})
        games = [(sid, text) for sid, text, kind in named_strategy_games()
                 if kind == "l5"]
        assert len(games) == 2
        grants = tampered = faulty = 0
        for sid, text in games:
            f = fm.parse_formula(text)
            for k in range(3):
                game = random_game(f, seed=2000 + 11 * k, valuation=val)
                for seed in range(8):
                    strat = build_strategy(sid)

                    def on_grant(run):
                        nonlocal grants, tampered, faulty
                        tree = strat.machine.tree
                        grants += 1
                        assert check_l5_invariants(run, tree, game) == \
                            reference_l5_invariants(run, tree, game) == []
                        for _ in range(3):
                            cases = [(_tamper_record(rng, tree), run),
                                     (tree, _tamper_run(rng, run))]
                            for t, r in cases:
                                want = reference_l5_invariants(r, t, game)
                                assert check_l5_invariants(r, t, game) == want
                                tampered += 1
                                faulty += bool(want)

                    t = simulate(strat, RandomEnv(41 * k + seed, max_moves=5),
                                 game, budget=3000, on_grant=on_grant)
                    assert t.verdict is T
        assert grants > 100 and faulty > tampered // 2

    def _base(self):
        """A won play of `!P -> !!P`: an outer and an inner replication,
        then an antecedent move copied to the consequent."""
        itp = random_interpretation(6, (("P", 0),), 3)
        g = GameRef(fm.parse_formula("!P -> !!P"), itp)
        m = L5Machine()
        env = ScriptEnv([("move", "2.:"), ("move", "2.0.:"),
                         ("move", "1.01.1.2"), "stop"])
        t = simulate(Strategy(m), env, g)
        assert t.verdict is T
        assert [lm.move for lm in t.run] == [
            "2.:", "1.:", "2.0.:", "1.0:", "1.01.1.2", "2.0.1.1.2"]
        return g, t.run, frozenset(m.tree)

    def _check(self, run, tree, game, want):
        assert check_l5_invariants(run, tree, game) == want
        assert reference_l5_invariants(run, tree, game) == want

    def test_untampered_play_keeps_every_invariant(self):
        g, run, tree = self._base()
        self._check(run, tree, g, [])

    def test_record_that_is_not_a_colored_tree(self):
        g, run, tree = self._base()
        bad = tree | {(("0", "y"),)}              # content "0" twice
        self._check(run, bad, g,
                    [f"record is not a colored tree: {sorted(bad)}"])

    def test_antecedent_not_prelegal(self):
        g, run, tree = self._base()
        # the environment replicates in the antecedent, the machine's side
        self._check(run + labmoves(("B", "1.1:")), tree, g,
                    ["antecedent position not prelegal", "position illegal"])

    def test_antecedent_tree_differs_from_the_record(self):
        g, run, tree = self._base()
        # the machine's answer to the inner replication is missing
        self._check(run[:3], tree, g,
                    ["antecedent tree differs from record contents"])

    def test_consequent_not_prelegal(self):
        g, run, tree = self._base()
        # the machine replicates in the consequent, the environment's side
        self._check(run + labmoves(("T", "2.1:")), tree, g,
                    ["consequent position not prelegal", "position illegal"])

    def test_consequent_branch_view_not_prelegal(self):
        g, run, tree = self._base()
        # outer branch 1 has no inner node 0
        self._check(run + labmoves(("B", "2.1.0.1.2")), tree, g,
                    ["consequent branch view '1' not prelegal",
                     "position illegal"])

    def test_blue_content_not_an_outer_leaf(self):
        g, run, tree = self._base()
        b = ("1", "b")
        self._check(run, tree | {(b, ("0", "b")), (b, ("1", "b"))}, g,
                    ["antecedent tree differs from record contents",
                     "blue content '10' is not an outer leaf",
                     "blue content '11' is not an outer leaf",
                     "no record leaf for pair ('1', '')"])

    def test_yellow_content_not_an_inner_leaf(self):
        g, run, tree = self._base()
        b = ("1", "b")
        self._check(run, tree | {(b, ("0", "y")), (b, ("1", "y"))}, g,
                    ["antecedent tree differs from record contents",
                     "yellow content '0' is not an inner leaf of '1'",
                     "yellow content '1' is not an inner leaf of '1'",
                     "no record leaf for pair ('1', '')"])

    def test_duplicated_leaf_pair(self):
        g, run, _ = self._base()
        # contents form a tree and 01 and 10 both read blue 0 and yellow 1,
        # but the strings do not: 1y0b and 1y1b have no parent 1y.  In a
        # colored tree, blue and yellow contents determine the leaf, so a
        # duplicated leaf pair is caught as a record that is no tree.
        b0, b1, y0, y1 = ("0", "b"), ("1", "b"), ("0", "y"), ("1", "y")
        tree = {(), (b0,), (b1,), (b0, y0), (b0, y1), (y1, b0), (y1, b1)}
        self._check(run, tree, g,
                    [f"record is not a colored tree: {sorted(tree)}"])

    def test_branch_views_differ(self):
        g, run, tree = self._base()
        # the copy lands at inner branch 0 instead of 1
        moved = run[:-1] + (Labmove(T, "2.0.0.1.2"),)
        self._check(moved, tree, g, ["branch views differ at '00'",
                                     "branch views differ at '01'"])

    def test_position_illegal(self):
        g, run, tree = self._base()
        # a well-formed exchange of a move P does not have
        self._check(run + labmoves(("B", "2.1..9"), ("T", "1.1.9")), tree, g,
                    ["position illegal"])


class TestRegistry:
    def test_parse_ids(self):
        assert parse_strategy_id("ccs") == ("ccs", {})
        assert parse_strategy_id("l11a[i=2,n=3]") == ("l11a",
                                                      {"i": "2", "n": "3"})
        assert parse_strategy_id("l6b[K=R(1,2)]")[1] == {"K": "R(1,2)"}
        # an empty argument, as after a trailing comma, is skipped
        assert parse_strategy_id("l4a[n=2,]") == ("l4a", {"n": "2"})

    def test_unknown_expression_kind_rejected(self):
        with pytest.raises(ValueError,
                           match="^unknown expression kind 'nosuch'$"):
            Expr("nosuch").build()

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            build_machine("nope")

    def test_registry_builds_fresh_state(self):
        a = build_strategy("l6c")
        b = build_strategy("l6c")
        assert a.machine is not b.machine
