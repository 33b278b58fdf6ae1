"""Build once, fork per play.

Every strategy is built once per process into a prototype and each play
gets a `Machine.fork()` of it.  A fork that shared mutable state with the
prototype would let one play change the next, so each test here plays one
fork to the end first and then checks a second fork against a machine built
from scratch.
"""

import functools

import pytest

from clgames import cl2, formula as fm, intproof, strategies, verify
from clgames.cl2 import CL2Proof, ProofMachine
from clgames.epm import (Machine, PlayContext, RandomEnv, ScriptEnv, Strategy,
                         simulate)
from clgames.formula import Bang
from clgames.games import T, Valuation
from clgames.strategies import (BangClosureMachine, Expr, bang, build_strategy,
                                reg)


def replace(record, **changes):
    """`record` rebuilt from its fields, with those in `changes` replaced."""
    fields = dict(zip(record._fields, record[1:]))
    return type(record)(**(fields | changes))


VAL = Valuation({"y": 2})


def _fresh(expr: Expr) -> Strategy:
    """A strategy built with no prototype in the cache, not even for the
    sub-expressions."""
    strategies._prototype.cache_clear()
    return Strategy(expr.build())


def _cases() -> list[tuple[str, Expr, fm.Formula]]:
    out = [(f"named:{sid}", reg(sid), fm.parse_formula(text))
           for sid, text, _ in verify.named_strategy_games()]
    out += [(f"corpus:{name}", intproof.compile_proof(proof),
             fm.sequent_to_formula(proof.sequent))
            for name, proof in intproof.curated_theorem_corpus()]
    out += [(f"schema:{label}", Expr("cl2", fm.render(inst)), inst)
            for label, inst in verify.schema_instances()]
    return out


@functools.cache
def _plays() -> list:
    """(label, fork A, its transcript, fork B's transcript, fresh
    transcript) for every named strategy, corpus derivation and schema
    instance, each played with one seed."""
    out = []
    for k, (label, expr, f) in enumerate(_cases()):
        game = verify.random_game(f, seed=500 + k, valuation=VAL)
        a = expr.strategy()
        ta = simulate(a, RandomEnv(k, max_moves=6), game)
        tb = simulate(expr.strategy(), RandomEnv(k, max_moves=6), game)
        tf = simulate(_fresh(expr), RandomEnv(k, max_moves=6), game)
        out.append((label, a, ta, tb, tf))
    return out


def _key(t) -> tuple:
    return (t.run, t.verdict, t.steps, t.grants, t.halted_reason,
            t.diagnostic)


def test_a_played_fork_leaves_the_prototype_as_built():
    plays = _plays()
    assert len(plays) == 39 + 16 + 81
    for label, _, ta, tb, tf in plays:
        assert _key(tb) == _key(tf), label
        assert _key(ta) == _key(tb), label


# What a machine may share with its forks: values no play can change.
_IMMUTABLE = (str, int, float, type(None), fm.Formula, fm.Term, CL2Proof,
              PlayContext)


def _immutable(v) -> bool:
    if isinstance(v, _IMMUTABLE):
        return True
    if isinstance(v, (tuple, frozenset)):
        return all(_immutable(x) for x in v)
    return False


def _production_machines() -> set[type]:
    out, todo = set(), [Machine]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__.startswith("clgames.") and \
                not cls.__name__.startswith("_"):
            out.add(cls)
    return out


def test_machine_state_is_forkable():
    """Every attribute of every machine reachable after the plays is
    immutable, a Machine, or a list, dict or set of those: exactly what
    `Machine.fork` copies correctly."""
    seen: set[type] = set()
    todo = [a.machine for _, a, _, _, _ in _plays()]
    while todo:
        m = todo.pop()
        seen.add(type(m))
        for name, v in vars(m).items():
            where = f"{type(m).__name__}.{name}"
            if isinstance(v, Machine):
                todo.append(v)
                continue
            items = (list(v.values()) if isinstance(v, dict)
                     else list(v) if isinstance(v, (list, set)) else [v])
            for x in items:
                if isinstance(x, Machine):
                    todo.append(x)
                else:
                    assert _immutable(x), (where, x)
    assert _production_machines() - {Machine} <= seen


def test_fork_copies_containers_and_forks_nested_machines():
    inner = build_strategy("l5").machine
    outer = BangClosureMachine(inner)
    twin = outer.fork()
    assert twin.copies is not outer.copies
    assert twin.copies[""] is not inner
    assert twin.copies[""].tree == inner.tree
    assert twin.copies[""].tree is not inner.tree
    twin.copies[""].tree.add((("0", "b"),))
    assert inner.tree == {()}


def test_forking_a_prototype_checks_and_builds_nothing(monkeypatch):
    """A fork copies state: it checks no proof and runs no `__init__`."""
    _, inst = verify.schema_instances()[0]
    proof = dict(intproof.curated_theorem_corpus())["impl-elim"]
    protos = [strategies._prototype(Expr("cl2", fm.render(inst))),
              strategies._prototype(intproof.compile_proof(proof))]
    strategy = Strategy(protos[1])
    calls = []
    monkeypatch.setattr(cl2, "check_proof",
                        lambda *args: calls.append("check_proof"))
    for cls in _production_machines() | {Strategy}:
        if "__init__" in vars(cls):
            monkeypatch.setattr(cls, "__init__",
                                lambda self, *args, **kwargs:
                                calls.append(type(self)))
    for _ in range(50):
        for proto in protos:
            proto.fork()
        strategy.clone()
    assert calls == []


def test_a_fork_shares_instructions_but_not_play_state():
    expr = strategies.mp([reg("ccs"), reg("ccs")],
                         Expr("cl2", "(P -> Q) /\\ (Q -> S) -> P -> S"))
    proto = strategies._prototype(expr)
    twin = proto.fork()
    assert isinstance(twin.c, ProofMachine)
    assert twin.c.instructions is proto.c.instructions
    for name in ("channels", "log", "waits"):
        assert getattr(twin.c, name) is not getattr(proto.c, name), name
    twin.start(PlayContext(VAL))
    assert twin.c.channels
    assert (proto.c.channels, proto.c.log, proto.c.waits) == ([], [], [])


def test_a_failing_build_is_not_cached():
    for _ in range(2):
        with pytest.raises(ValueError):
            build_strategy("l4a[n=0]")


def test_a_corrupted_proof_is_rejected_before_and_after_caching():
    text = "(P -> Q) /\\ (Q -> S) -> P -> S"
    proof = cl2.prove(fm.parse_formula(text))
    # the last step opens its channel under the wrong elementary atom
    bad = CL2Proof(proof.steps[:-1] + (
        replace(proof.steps[-1], atom="r"),))
    assert not cl2.check_proof(bad)[0]
    with pytest.raises(ValueError, match="invalid proof"):
        ProofMachine(bad)
    strategies._cl2(text)                  # the same conclusion, cached
    with pytest.raises(ValueError, match="invalid proof"):
        ProofMachine(bad)


def test_bang_closure_forks_its_copy_on_each_replication():
    """`!` over a corpus strategy that resolves a choice and then delegates:
    after three replications at the root, the environment resolves the
    choice differently on each of the four branches, and each branch's
    copy must answer on its own.  A played fork and a fresh build must
    replay the script identically."""
    proof = dict(intproof.curated_theorem_corpus())["disj-swap"]
    expr = bang(intproof.compile_proof(proof))
    f = Bang(fm.sequent_to_formula(proof.sequent))
    assert fm.render(f) == "!(!(P + Q) -> Q + P)"
    game = verify.random_game(f, seed=11, valuation=VAL)
    script = [("move", m) for m in
              (":", "0:", "1:", "00.1..1", "01.1..2", "10.1..2", "11.1..1")]
    a = expr.strategy()
    ta = simulate(a, ScriptEnv(script), game)
    assert sorted(a.machine.copies) == ["00", "01", "10", "11"]
    replays = [simulate(s, ScriptEnv(script), game)
               for s in (expr.strategy(), _fresh(expr))]
    assert _key(replays[0]) == _key(replays[1]) == _key(ta)
    assert ta.verdict is T
    assert [lm.move for lm in ta.run if lm.player is T] == \
        ["00.2.2", "01.2.1", "10.2.1", "11.2.2"]
