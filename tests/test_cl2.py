import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from clgames import cl2, formula as fm, strategies, verify
from clgames.cl2 import (CL2Step, ProofMachine, check_proof, elementarization,
                         proof_from_text, proof_to_text, prove,
                         solution_machine)
from clgames.epm import (Machine, PlayContext, RandomEnv, Strategy, simulate,
                         wins_against_all)
from clgames.formula import (Atom, Bot, ChoiceConj, ChoiceDisj, Elem, Implies,
                             Neg, ParConj, ParDisj, Top)
from clgames.games import GameRef, T, Valuation, random_interpretation
from clgames.strategies import CcsMachine, Expr


def F(text):
    return fm.parse_formula(text)


class TestPolarity:
    def test_negation_flips(self):
        assert cl2._Scan(F("~P")).atoms == [((0,), "P", False)]

    def test_implication_antecedent_counts_as_a_negation(self):
        scan = cl2._Scan(F("(P & Q) -> S"))
        assert [(p, pos) for p, _, pos in scan.choices] == [((0,), False)]
        assert scan.atoms == [((1,), "S", True)]

    def test_buried_under_a_choice(self):
        f = F("Q + (P /\\ S)")
        scan = cl2._Scan(f)
        # only the choice itself is on the surface; P at (1, 0) is buried
        assert scan.choices == [((), f, True)]
        assert scan.atoms == []


class TestElementarization:
    def test_choices_become_constants(self):
        assert elementarization(F("P & Q")) == Top()
        assert elementarization(F("P + Q")) == Bot()

    def test_general_atoms_become_their_pessimistic_value(self):
        got = elementarization(F("(P -> Q) /\\ (Q -> S) -> (P -> S)"))
        # the machine is assumed to lose every unresolved general atom:
        # positive occurrences go to bot, negative to top
        assert got == F("(bot -> top) /\\ (bot -> top) -> (top -> bot)")

    def test_elementary_formula_is_its_own_elementarization(self):
        f = F("(p -> q) /\\ (q -> s) -> (p -> s)")
        assert elementarization(f) == f

    def test_idempotence(self):
        for text in ("P & Q", "(P -> Q) -> (P + S)", "p \\/ ~P"):
            once = elementarization(F(text))
            assert elementarization(once) == once


class TestStability:
    def test_elementary_tautology_is_stable(self):
        assert cl2._Scan(F("(p -> q) /\\ (q -> s) -> (p -> s)")).stable()
        assert cl2._Scan(F("p \\/ ~p")).stable()

    def test_duplication_is_unstable(self):
        assert not cl2._Scan(F("P -> P /\\ P")).stable()

    def test_the_composition_formula_is_unstable(self):
        f = F("(P -> Q) /\\ (Q -> S) -> (P -> S)")
        assert not cl2._Scan(f).stable()


class TestRules:
    def test_a_premises_cover_environment_choices(self):
        f = F("(P & Q) -> S")        # negative surface choice conjunction
        assert list(cl2._Scan(f).premises(env=True)) == []
        f2 = F("S -> (P & Q)")       # positive: two premises
        prems = list(cl2._Scan(f2).premises(env=True))
        assert [fm.render(h) for _, _, h in prems] == ["S -> P", "S -> Q"]

    def test_b_options_cover_machine_choices(self):
        f = F("(P & Q) -> S")
        opts = list(cl2._Scan(f).premises(env=False))
        assert [fm.render(h) for _, _, h in opts] == ["P -> S", "Q -> S"]

    def test_c_options_pair_opposite_polarities(self):
        f = F("P -> P")
        opts = list(cl2._Scan(f).c_options())
        assert len(opts) == 1
        ppos, pneg, name, h = opts[0]
        assert name == "p"
        assert fm.render(h) == "p -> p"
        positive = {path: pos for path, _, pos in cl2._Scan(f).atoms}
        assert positive[ppos] is True
        assert positive[pneg] is False


class TestProve:
    def test_composition_proof_has_the_expected_shape(self):
        proof = prove(F("(P -> Q) /\\ (Q -> S) -> (P -> S)"))
        rules = [s.rule for s in proof.steps]
        assert sorted(rules) == ["a", "c", "c", "c"]
        ok, why = check_proof(proof)
        assert ok, why

    def test_choice_introduction(self):
        proof = prove(F("(P -> Q) -> (P -> Q + S)"))
        assert proof is not None
        assert any(s.rule == "b" for s in proof.steps)

    def test_unprovable(self):
        assert prove(F("P -> P /\\ P")) is None
        assert prove(F("P")) is None
        assert prove(F("P + ~P")) is None      # machine cannot choose blindly

    def test_provable_excluded_middle_parallel(self):
        assert prove(F("P \\/ ~P")) is not None

    def test_every_returned_proof_checks(self):
        for text in ("P -> P", "P /\\ Q -> Q /\\ P",
                     "(P & Q) -> (Q + P)",
                     "(P -> Q) /\\ (Q -> S) -> (P -> S)"):
            proof = prove(F(text))
            assert proof is not None, text
            ok, why = check_proof(proof)
            assert ok, (text, why)


class TestChecker:
    def test_reused_atom_is_rejected(self):
        proof = prove(F("(P -> Q) /\\ (Q -> S) -> (P -> S)"))
        # corrupt: replace a channel step's fresh atom by one already in use
        steps = list(proof.steps)
        for k, s in enumerate(steps):
            if s.rule == "c":
                prem = steps[s.premises[0]].formula
                used = sorted(cl2._Scan(s.formula).names)
                if used:
                    bad = CL2Step(s.formula, "c", s.premises,
                                  pos_path=s.pos_path, neg_path=s.neg_path,
                                  atom=used[0])
                    steps[k] = bad
                    ok, why = check_proof(cl2.CL2Proof(tuple(steps)))
                    assert not ok
                    return
        pytest.fail("no corruptible step found")

    def test_out_of_range_choice_index(self):
        f = F("(P & Q) -> P")
        h = F("P -> P")
        proof = cl2.CL2Proof((
            prove(h).steps + ()))
        good = prove(f)
        assert good is not None
        for k, s in enumerate(good.steps):
            if s.rule == "b":
                steps = list(good.steps)
                steps[k] = CL2Step(s.formula, "b", s.premises, path=s.path,
                                   index=99)
                ok, why = check_proof(cl2.CL2Proof(tuple(steps)))
                assert not ok and "index" in why
                return
        pytest.fail("expected a machine-choice step")

    def test_bad_choice_path_is_an_invalid_step(self):
        proof = prove(F("P -> P"))
        bad = CL2Step(F("P & Q -> P"), "b", (len(proof.steps) - 1,),
                      path=(7,), index=1)
        ok, why = check_proof(cl2.CL2Proof(proof.steps + (bad,)))
        assert not ok
        assert why == (f"step {len(proof.steps) + 1}: no machine choice at "
                       "path 7, index 1")

    @pytest.mark.parametrize("pos, neg, why", [
        # The ids keep the names the cases were generated with when the
        # messages were "bad path ... in ...".
        pytest.param((1,), (0, 3), "no positive and negative surface "
                     "occurrence of one general atom at paths 1,0.3",
                     id="pos0-neg0-bad path (0, 3) in P"),
        pytest.param((-1,), (0,), "no positive and negative surface "
                     "occurrence of one general atom at paths -1,0",
                     id="pos1-neg1-bad path (-1,) in P -> P"),
    ])
    def test_bad_channel_path_is_an_invalid_step(self, pos, neg, why):
        proof = prove(F("P -> P"))
        bad = CL2Step(F("P -> P"), "c", (0,), pos_path=pos, neg_path=neg,
                      atom="q")
        ok, got = check_proof(cl2.CL2Proof(proof.steps + (bad,)))
        assert (ok, got) == (False, f"step {len(proof.steps) + 1}: {why}")

    @pytest.mark.parametrize("text, pos, neg, where", [
        ("~P \\/ ~P \\/ top", (0, 0), (1, 0), "0.0,1.0"),
        ("P \\/ P \\/ top", (0,), (1,), "0,1"),
    ])
    def test_a_channel_needs_one_positive_and_one_negative(self, text, pos,
                                                          neg, where):
        # the cited premise is the replacement, and is stable
        f = F(text)
        h = fm.replace_at(fm.replace_at(f, pos, Elem("p")), neg, Elem("p"))
        proof = cl2.CL2Proof((
            CL2Step(h, "a", ()),
            CL2Step(f, "c", (0,), pos_path=pos, neg_path=neg, atom="p")))
        assert check_proof(proof) == (
            False, "step 2: no positive and negative surface occurrence of "
            f"one general atom at paths {where}")

    def test_premise_reference_before_the_first_step(self):
        # -1 would index from the end: the later step p \/ ~p, which is
        # exactly the replacement the (b) step needs
        proof = cl2.CL2Proof((
            CL2Step(F("(p \\/ ~p) + Q"), "b", (-1,), path=(), index=1),
            CL2Step(F("p \\/ ~p"), "a", ())))
        assert check_proof(proof) == (
            False, "step 1: premise reference out of range")

    def test_text_round_trip(self):
        proof = prove(F("(P & Q) -> (Q + P)"))
        text = proof_to_text(proof)
        again = proof_from_text(text)
        ok, why = check_proof(again)
        assert ok, why
        assert again.conclusion == proof.conclusion
        # blank and comment lines are not steps, so they shift no number
        assert proof_from_text("# a proof\n\n" + text.replace(
            "\n", "\n\n# next\n")) == again

    def test_empty_proof_is_rejected(self):
        assert check_proof(cl2.CL2Proof(())) == (False, "empty proof")

    def test_premises_are_matched_by_structure_not_rendering(self):
        # rule (c) turns atom TOP into elementary top, which renders like
        # the constant top, so the two premises both render `top -> top`
        f = F("(TOP -> TOP) & (top -> top)")
        proof = prove(f)
        assert check_proof(proof) == (True, "")
        # f has an elementary atom, so ProofMachine refuses it; the
        # checker's pass compiles it all the same
        instructions, why = cl2._compile(proof)
        assert why == ""
        _, root = instructions[-1]
        cited = {move: proof.steps[j].formula for move, j in root}
        assert cited == {str(i): h
                         for _, i, h in cl2._Scan(f).premises(env=True)}
        elem = Implies(Elem("top"), Elem("top"))
        assert cited["2"] == Implies(Top(), Top()) != elem
        # the elementary step cited for the constant premise
        old = cl2.CL2Proof((
            CL2Step(elem, "a", ()),
            CL2Step(F("TOP -> TOP"), "c", (0,), pos_path=(1,),
                    neg_path=(0,), atom="top"),
            CL2Step(f, "a", (0, 1))))
        assert check_proof(old) == (False, "step 3: premise set mismatch")


class TestExtraction:
    def test_identity_extract_plays_copy_cat(self):
        machine = solution_machine(F("P -> P"))
        itp = random_interpretation(4, (("P", 0),), 3)
        g = GameRef(F("P -> P"), itp)
        for seed in range(25):
            t1 = simulate(Strategy(solution_machine(F("P -> P"))),
                          RandomEnv(seed), g)
            t2 = simulate(Strategy(CcsMachine()), RandomEnv(seed), g)
            assert t1.run == t2.run
            assert t1.verdict is T

    def test_machine_choice_step_fires_proactively(self):
        machine = solution_machine(F("(P -> Q) -> (P -> Q + S)"))
        moves = machine.start(PlayContext(Valuation(), ()))
        assert "2.2.1" in moves      # resolves the consequent disjunction

    def test_extraction_requires_general_base(self):
        proof = prove(F("p -> p"))
        with pytest.raises(ValueError):
            ProofMachine(proof)

    def test_extracted_strategy_wins_exhaustively(self):
        f = F("(P & Q) -> (Q + P)")
        itp = random_interpretation(8, (("P", 0), ("Q", 0)), 2)
        g = GameRef(f, itp)
        res = wins_against_all(Strategy(solution_machine(f)), g, depth=2)
        assert res.won_all

    def test_stable_step_follows_the_premise_each_choice_produces(self):
        # the cited premises may come in any order: each environment
        # choice leads to the cited step whose formula it produces
        f = F("(P -> P) & (Q /\\ P -> P)")
        proof = prove(f)
        root = proof.steps[-1]
        assert len(root.premises) == 2
        swapped = cl2.CL2Proof(proof.steps[:-1] + (
            replace(root, premises=root.premises[::-1]),))
        assert check_proof(swapped) == (True, "")
        itp = random_interpretation(3, (("P", 0), ("Q", 0)), 2)
        res = wins_against_all(Strategy(ProofMachine(swapped)),
                               GameRef(f, itp), depth=3)
        assert res.won_all

    def test_channels_catch_up_on_buffered_moves(self):
        # environment moves inside atom components before resolving the
        # choice; the late channels must replay them
        f = F("(P -> S1) /\\ (P -> S2) -> (P -> S1 & S2)")
        itp = random_interpretation(12, (("P", 0), ("S1", 0), ("S2", 0)), 3)
        g = GameRef(f, itp)
        res = wins_against_all(Strategy(solution_machine(f)), g, depth=2)
        assert res.won_all


# ---------------------------------------------------------------------------
# A proof machine's instructions against a per-step walk of its proof: each
# step's move strings read off its formula along its recorded paths.

def _walked_prefix(f, path):
    out = []
    g = f
    for k in path:
        if isinstance(g, (ParConj, ParDisj, Implies)):
            out.append(f"{k + 1}.")
        g = fm.children(g)[k]
    return "".join(out)


def _walked(proof, step):
    f = step.formula
    if step.rule == "b":
        return ("b", _walked_prefix(f, step.path) + str(step.index),
                step.premises[0])
    if step.rule == "c":
        return ("c", (_walked_prefix(f, step.pos_path),
                      _walked_prefix(f, step.neg_path)), step.premises[0])
    return ("a", tuple((_walked_prefix(f, path) + str(i),
                        next(j for j in step.premises
                             if proof.steps[j].formula == h))
                       for path, i, h in _ref_choices(f, env=True)))


def _proof_machines(m):
    """Every ProofMachine in a machine tree."""
    found, todo = [], [m]
    while todo:
        m = todo.pop()
        if isinstance(m, ProofMachine):
            found.append(m)
        for v in vars(m).values():
            items = v if isinstance(v, list) else [v]
            todo.extend(x for x in items if isinstance(x, Machine))
    return found


# the proofs `strategies` embeds: composition, and the two halves of L6b's
# resource implication
EMBEDDED = ["(P -> Q) /\\ (Q -> S) -> P -> S",
            "(R -> S) -> R /\\ P -> S",
            "(R /\\ P -> S) -> R -> P -> S"]


def test_instructions_match_the_per_step_walk():
    texts = [fm.render(inst) for _, inst in verify.schema_instances()]
    assert len(texts) == 81
    for text in texts + EMBEDDED:
        proof = prove(F(text))
        machine = strategies._prototype(Expr("cl2", text))
        assert machine.instructions == tuple(_walked(proof, step)
                                             for step in proof.steps), text
    # the embedded machines are forks of those prototypes
    l6b = strategies.L6bMachine(F("!$ -> $"))
    l6b.start(PlayContext(Valuation(), ()))
    embedded = _proof_machines(l6b) + \
        _proof_machines(strategies.transitivity_machine(CcsMachine(),
                                                        CcsMachine()))
    assert len(embedded) == 4
    shared = {id(strategies._prototype(Expr("cl2", t)).instructions)
              for t in EMBEDDED}
    assert {id(m.instructions) for m in embedded} == shared


def test_strategy_construction_repeats_no_work(monkeypatch):
    # over the schema instances: one call of prove scans each formula it
    # searches once, and check_proof scans each step once and derives one
    # premise per rule (b) step, the cited choice's; building the proof
    # machine does that work and no more
    scanned, derived = [], []
    real_replace_at = fm.replace_at
    depth = [0]

    class CountingScan(cl2._Scan):
        def __init__(self, f):
            scanned.append(f)
            super().__init__(f)

    def replace_at(f, path, sub):       # records the outermost calls only
        if not depth[0]:
            derived.append(f)
        depth[0] += 1
        try:
            return real_replace_at(f, path, sub)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(cl2, "_Scan", CountingScan)
    monkeypatch.setattr(fm, "replace_at", replace_at)
    b_steps = 0
    for label, inst in verify.schema_instances():
        scanned.clear()
        proof = prove(inst)
        assert len(scanned) == len(set(scanned)), label
        assert {s.formula for s in proof.steps} <= set(scanned), label
        scanned.clear()
        derived.clear()
        assert check_proof(proof) == (True, "")
        assert len(scanned) == len(proof.steps), label
        for step in proof.steps:
            if step.rule == "b":
                b_steps += 1
                assert sum(f is step.formula for f in derived) == 1, label
        checked = scanned[:], derived[:]
        scanned.clear()
        derived.clear()
        ProofMachine(proof)
        assert (scanned, derived) == checked, label
    assert b_steps > 0


# ---------------------------------------------------------------------------
# Differential property: the one-walk scan against the rules' definitions,
# restated directly: every occurrence in preorder, filtered per rule, and
# stability as the elementarization evaluated under every assignment.

def _occurrences(f):
    """All (path, subformula, positive?, surface?) in preorder."""
    out = []

    def walk(g, path, pos, surface):
        out.append((path, g, pos, surface))
        for k, c in enumerate(fm.children(g)):
            flip = isinstance(g, Neg) or (isinstance(g, Implies) and k == 0)
            walk(c, path + (k,), pos != flip,
                 surface and not isinstance(g, (ChoiceConj, ChoiceDisj)))

    walk(f, (), True, True)
    return out


def _names(f):
    return {g.name for _, g, _, _ in _occurrences(f) if isinstance(g, Elem)}


def _classical(f, env):
    if isinstance(f, (Top, Bot)):
        return isinstance(f, Top)
    if isinstance(f, Elem):
        return env[f.name]
    if isinstance(f, Neg):
        return not _classical(f.body, env)
    if isinstance(f, Implies):
        return not _classical(f.left, env) or _classical(f.right, env)
    if isinstance(f, ParConj):
        return all(_classical(p, env) for p in f.parts)
    return any(_classical(p, env) for p in f.parts)


def _ref_stable(f):
    e = elementarization(f)
    names = sorted(_names(e))
    return all(_classical(e, dict(zip(names, values)))
               for values in itertools.product((False, True), repeat=len(names)))


def _ref_choices(f, env):
    out = []
    for path, g, pos, surface in _occurrences(f):
        if surface and ((isinstance(g, ChoiceConj) and pos == env)
                        or (isinstance(g, ChoiceDisj) and pos != env)):
            out += [(path, i, fm.replace_at(f, path, part))
                    for i, part in enumerate(g.parts, start=1)]
    return out


def _ref_c(f):
    occ = {True: {}, False: {}}
    for path, g, pos, surface in _occurrences(f):
        if surface and isinstance(g, Atom):
            occ[pos].setdefault(g.letter, []).append(path)
    out = []
    for letter in sorted(set(occ[True]) & set(occ[False])):
        name, k, used = letter.lower(), 2, _names(f)
        while name in used:
            name, k = f"{letter.lower()}_{k}", k + 1
        for ppos in occ[True][letter]:
            for pneg in occ[False][letter]:
                h = fm.replace_at(f, ppos, Elem(name))
                out.append((ppos, pneg, name, fm.replace_at(h, pneg, Elem(name))))
    return out


# general atoms weigh double; letters repeat, and `p` is the fresh name
# rule (c) would first pick for P
CL2_LEAVES = [Atom("P"), Atom("Q"), Atom("P"), Atom("Q"), Elem("p"), Elem("q"),
              Top(), Bot()]
CL2_FANOUT = [ParConj, ParDisj, ChoiceConj, ChoiceDisj]


def _cl2_formula(draw, size: int):
    """A propositional-fragment formula of at most `size` nodes."""
    if size < 2 or draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(CL2_LEAVES))
    if size < 3 or draw(st.integers(0, 4)) == 0:
        return Neg(_cl2_formula(draw, size - 1))
    arity = draw(st.integers(2, min(3, size - 1)))
    cuts = sorted(draw(st.lists(st.integers(1, size - 2), min_size=arity - 1,
                                max_size=arity - 1, unique=True)))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [size - 1])]
    parts = tuple(_cl2_formula(draw, n) for n in sizes)
    kind = draw(st.sampled_from(CL2_FANOUT + [Implies] * (arity == 2)))
    return kind(*parts) if kind is Implies else kind(parts)


@st.composite
def cl2_formulas(draw):
    return _cl2_formula(draw, 12)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cl2_formulas())
def test_the_scan_agrees_with_the_per_rule_walks(f):
    scan = cl2._Scan(f)
    a, b = list(scan.premises(env=True)), list(scan.premises(env=False))
    c = list(scan.c_options())
    assert a == _ref_choices(f, env=True)
    assert b == _ref_choices(f, env=False)
    assert c == _ref_c(f)
    # rule (c) premises bring fresh elementary names to the surface
    for h in [f] + [opt[-1] for opt in a + b + c]:
        assert cl2._Scan(h).stable() == _ref_stable(h), fm.render(h)
    proof = prove(f, max_nodes=5000)
    if proof is not None:
        assert check_proof(proof) == (True, "")


# ---------------------------------------------------------------------------
# Differential property: the checker, which reads each step's scan, against
# the checker it replaced, which walked each cited path twice: once for the
# node there and once more for its polarity and surface.

def _ref_subformula_at(f, path):
    g = f
    for k in path:
        kids = fm.children(g)
        if not 0 <= k < len(kids):
            raise ValueError(f"bad path {path} in {fm.render(f)}")
        g = kids[k]
    return g


def _ref_polarity_and_surface(f, path):
    neg = 0
    surface = True
    g = f
    for k in path:
        if isinstance(g, Neg):
            neg += 1
        elif isinstance(g, Implies) and k == 0:
            neg += 1
        elif isinstance(g, (ChoiceConj, ChoiceDisj)):
            surface = False
        g = fm.children(g)[k]
    return ("positive" if neg % 2 == 0 else "negative",
            "surface" if surface else "buried")


def _ref_check_proof(proof):
    if not proof.steps:
        return False, "empty proof"
    for idx, step in enumerate(proof.steps):
        if any(j >= idx for j in step.premises):
            return False, f"step {idx}: forward premise reference"
        f = step.formula
        try:
            scan = cl2._Scan(f)
        except ValueError as e:
            return False, f"step {idx}: {e}"
        if step.rule == "a":
            if not scan.stable():
                return False, f"step {idx}: not stable"
            want = {h for _, _, h in scan.premises(env=True)}
            have = {proof.steps[j].formula for j in step.premises}
            if want != have:
                return False, f"step {idx}: premise set mismatch"
        elif step.rule == "b":
            if len(step.premises) != 1:
                return False, f"step {idx}: needs one premise"
            try:
                g = _ref_subformula_at(f, step.path)
            except ValueError as e:
                return False, f"step {idx}: {e}"
            pol, surf = _ref_polarity_and_surface(f, step.path)
            ok = (isinstance(g, ChoiceConj) and pol == "negative") or \
                 (isinstance(g, ChoiceDisj) and pol == "positive")
            if not ok or surf != "surface":
                return False, f"step {idx}: bad choice occurrence"
            if not 1 <= step.index <= len(g.parts):
                return False, f"step {idx}: choice index out of range"
            h = fm.replace_at(f, step.path, g.parts[step.index - 1])
            if h != proof.steps[step.premises[0]].formula:
                return False, f"step {idx}: premise does not match replacement"
        elif step.rule == "c":
            if len(step.premises) != 1:
                return False, f"step {idx}: needs one premise"
            try:
                gp = _ref_subformula_at(f, step.pos_path)
                gn = _ref_subformula_at(f, step.neg_path)
            except ValueError as e:
                return False, f"step {idx}: {e}"
            if not (isinstance(gp, Atom) and isinstance(gn, Atom)
                    and gp.letter == gn.letter):
                return False, f"step {idx}: occurrences are not one general atom"
            pp, sp = _ref_polarity_and_surface(f, step.pos_path)
            pn, sn = _ref_polarity_and_surface(f, step.neg_path)
            if (pp, pn) != ("positive", "negative"):
                return False, f"step {idx}: matched occurrences must have opposite polarities"
            if (sp, sn) != ("surface", "surface"):
                return False, f"step {idx}: occurrences must be surface"
            if step.atom in scan.names:
                return False, f"step {idx}: atom {step.atom} already occurs"
            h = fm.replace_at(f, step.pos_path, Elem(step.atom))
            h = fm.replace_at(h, step.neg_path, Elem(step.atom))
            if h != proof.steps[step.premises[0]].formula:
                return False, f"step {idx}: premise does not match replacement"
        else:
            return False, f"step {idx}: unknown rule {step.rule!r}"
    return True, ""


# paths that leave every formula, or go through a leaf, or run negative
PATHS = [(), (0,), (1,), (2,), (0, 0), (0, 1), (1, 0), (1, 1), (0, 1, 0),
         (1, 0, 1), (7,), (-1,), (0, 3), (0, -1)]


def _mutate(rng, proof):
    """One random edit of one step of the proof.  Added premise numbers
    stay at 0 or above: a negative one read from the end in the replaced
    checker (see test_premise_reference_before_the_first_step)."""
    steps = list(proof.steps)
    k = rng.randrange(len(steps))
    s = steps[k]
    own = s.pos_path, s.neg_path, s.path
    paths = PATHS + [p for p in own if p] + [p + (0,) for p in own] + \
        [p[:-1] for p in own if p]
    kind = rng.randrange(8)
    if kind == 0:
        s = replace(s, path=rng.choice(paths))
    elif kind == 1:
        side = rng.choice(["pos_path", "neg_path"])
        s = replace(s, **{side: rng.choice(paths)})
    elif kind == 2:
        s = replace(s, index=rng.randrange(5))
    elif kind == 3:
        names = sorted(cl2._Scan(s.formula).names) + ["p", "q", "z", "p_2"]
        s = replace(s, atom=rng.choice(names))
    elif kind == 4:
        s = replace(s, pos_path=s.neg_path, neg_path=s.pos_path)
    elif kind == 5 and s.premises:
        prem = list(s.premises)
        del prem[rng.randrange(len(prem))]
        s = replace(s, premises=tuple(prem))
    elif kind == 6:
        prem = list(s.premises)
        prem.insert(rng.randrange(len(prem) + 1), rng.randrange(len(steps)))
        s = replace(s, premises=tuple(prem))
    else:
        s = replace(s, rule=rng.choice("abcd"))
    steps[k] = s
    return cl2.CL2Proof(tuple(steps))


def test_the_checker_agrees_with_the_per_path_walks():
    proofs = [prove(inst) for _, inst in verify.schema_instances()]
    assert len(proofs) == 81
    for proof in proofs:
        assert check_proof(proof) == _ref_check_proof(proof) == (True, "")
    rng = random.Random(20061)
    rejected = 0
    for n in range(6000):
        proof = _mutate(rng, proofs[n % len(proofs)])
        ok = check_proof(proof)[0]
        assert ok == _ref_check_proof(proof)[0], proof_to_text(proof)
        rejected += not ok
    # most edits break the proof; the rest change nothing it checks
    assert 3000 < rejected < 6000
