import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from clgames import cl2, intproof
from clgames.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


class TestCheckFormula:
    def test_ok(self, capsys):
        code, out = run_cli(capsys, "check-formula", "!P -> P")
        assert code == 0
        assert "ok: !P -> P" in out
        assert "sublanguage member: True" in out

    def test_parse_error_exit_code(self, capsys):
        code = main(["check-formula", "P ->"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("parse error: ")


class TestProve:
    def test_provable_prints_steps(self, capsys):
        code, out = run_cli(capsys, "prove-cl2",
                            "(P -> Q) /\\ (Q -> S) -> (P -> S)")
        assert code == 0
        assert "rule=a" in out and out.count("rule=c") == 3

    def test_unprovable_exit_code(self, capsys):
        code, out = run_cli(capsys, "prove-cl2", "P -> P /\\ P")
        assert code == 1
        assert "not provable" in out

    def test_search_out_of_nodes_is_an_error(self, capsys, monkeypatch):
        # exit 1 would claim the formula is refuted; the search has no answer
        monkeypatch.setattr(cl2.prove, "__defaults__", (3,))
        code = main(["prove-cl2", "(P & Q) -> (P & Q)"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: proof search gave up after 3 nodes\n"


class TestProofFiles:
    def test_check_and_compile_an_emitted_proof(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "corpus", "--emit-dir", str(tmp_path))
        assert code == 0
        path = tmp_path / "conj-left.json"
        assert path.exists()
        code, out = run_cli(capsys, "check-proof", "int", str(path))
        assert code == 0 and "valid" in out
        code, out = run_cli(capsys, "compile", "--proof", str(path))
        assert code == 0
        assert "strategy:" in out and "l11a" in out

    def test_invalid_proof_detected(self, capsys, tmp_path):
        bad = {"sequent": "P => Q", "rule": "Identity"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out = run_cli(capsys, "check-proof", "int", str(path))
        assert code == 1 and "invalid" in out

    def test_a_bad_term_is_an_invalid_proof(self, capsys, tmp_path):
        # constants start at 1 and are written without leading zeros
        for t in ("0", "01", "\u0661", "Q"):
            proof = {"sequent": "@x.P => P", "rule": "LeftChoiceAll", "t": t,
                     "premises": [{"sequent": "P => P", "rule": "Identity"}]}
            path = tmp_path / "bad-term.json"
            path.write_text(json.dumps(proof))
            code, out = run_cli(capsys, "check-proof", "int", str(path))
            assert code == 1, t
            assert f"invalid: LeftChoiceAll at @x.P => P: not a term: {t!r}" \
                in out

    def test_cl2_proof_check(self, capsys, tmp_path):
        # the second proof's last step chooses at the root: path=e
        for text, step in (("(P & Q) -> (Q + P)", "rule=b"),
                           ("(P -> P) + Q", "rule=b ; premises=[2] ; path=e")):
            code, out = run_cli(capsys, "prove-cl2", text)
            assert code == 0 and step in out
            path = tmp_path / "p.cl2"
            path.write_text(out)
            code, out = run_cli(capsys, "check-proof", "cl2", str(path))
            assert code == 0 and "valid" in out

    def test_empty_cl2_proof_is_invalid(self, capsys, tmp_path):
        path = tmp_path / "empty.cl2"
        path.write_text("")
        code, out = run_cli(capsys, "check-proof", "cl2", str(path))
        assert code == 1 and "invalid: empty proof" in out


    def test_cl2_proof_with_a_bad_path_is_invalid(self, capsys, tmp_path):
        path = tmp_path / "bad-path.cl2"
        path.write_text("1. p -> p ; rule=a ; premises=[]\n"
                        "2. P -> P ; rule=c ; premises=[1] ; path=1,0 ; "
                        "atom=p\n"
                        "3. P & Q -> P ; rule=b ; premises=[2] ; path=7 ; "
                        "i=1\n")
        code, out = run_cli(capsys, "check-proof", "cl2", str(path))
        assert code == 1
        assert "invalid: step 3: no machine choice at path 7, index 1" in out

    def test_cl2_wrong_premise_after_the_first_step_is_invalid(
            self, capsys, tmp_path):
        # the proof `prove-cl2` gives for (P & Q) -> (Q + P), but step 4
        # cites step 2 where its replacement is step 3; steps 1-3 check
        path = tmp_path / "wrong-premise.cl2"
        path.write_text("1. p -> p ; rule=a ; premises=[]\n"
                        "2. P -> P ; rule=c ; premises=[1] ; path=1,0 ; "
                        "atom=p\n"
                        "3. P -> Q + P ; rule=b ; premises=[2] ; path=1 ; "
                        "i=2\n"
                        "4. P & Q -> Q + P ; rule=b ; premises=[2] ; "
                        "path=0 ; i=1\n")
        code, out = run_cli(capsys, "check-proof", "cl2", str(path))
        assert code == 1
        assert out == "invalid: step 4: premise does not match replacement\n"

    def test_cl2_forward_premise_is_invalid(self, capsys, tmp_path):
        # a premise must be an earlier step
        path = tmp_path / "forward.cl2"
        path.write_text("1. P & Q ; rule=a ; premises=[2]\n"
                        "2. P ; rule=a ; premises=[]\n")
        code, out = run_cli(capsys, "check-proof", "cl2", str(path))
        assert code == 1
        assert "invalid: step 1: premise reference out of range" in out


class TestPlay:
    def test_scripted_play_transcript(self, capsys, tmp_path):
        script = tmp_path / "s.txt"
        script.write_text("move 2.a\nstop\n")
        interp = tmp_path / "i.json"
        interp.write_text(json.dumps({
            "letters": {"P/0": {"params": [], "game": {
                "winner": "T", "moves": {"B:a": {"winner": "B"}}}}},
            "dollar_base": {"winner": "T"},
        }))
        out_file = tmp_path / "t.txt"
        code, out = run_cli(capsys, "play", "--game", "P -> P",
                            "--strategy", "ccs",
                            "--env", f"script:{script}",
                            "--interp", str(interp),
                            "--seed", "1",
                            "--transcript", str(out_file))
        assert code == 0
        assert "B 2.a" in out and "T 1.a" in out
        assert "verdict: T" in out
        assert out_file.read_text().startswith("#game P -> P")

    def test_random_play_wins(self, capsys):
        code, out = run_cli(capsys, "play", "--game", "!P -> P",
                            "--strategy", "l6a", "--env", "random",
                            "--seed", "1")
        assert code == 0
        assert "verdict: T" in out

    def test_seed_reproducibility(self, capsys):
        _, out1 = run_cli(capsys, "play", "--game", "!P -> P",
                          "--strategy", "l6a", "--env", "random",
                          "--seed", "9")
        _, out2 = run_cli(capsys, "play", "--game", "!P -> P",
                          "--strategy", "l6a", "--env", "random",
                          "--seed", "9")
        assert out1 == out2

    def test_exhaustive_mode(self, capsys):
        code, out = run_cli(capsys, "play", "--game", "P -> P",
                            "--strategy", "ccs", "--env", "exhaustive:2",
                            "--seed", "3")
        assert code == 0
        assert "T in every branch" in out

    def test_exhaustive_search_out_of_leaves_is_an_error(self, capsys):
        # exit 1 would claim a counterexample; the search has no verdict
        code = main(["play", "--game", "!(P & Q) -> !(P & Q)",
                     "--strategy", "ccs", "--env", "exhaustive:8"])
        captured = capsys.readouterr()
        assert code == 2 and "counterexample" not in captured.out
        assert captured.err == \
            "error: exhaustive search exceeded 100000 leaves\n"

    def test_compiled_proof_play(self, capsys, tmp_path):
        proof = [p for n, p in intproof.curated_theorem_corpus()
                 if n == "impl-intro"][0]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(intproof.proof_to_json(proof)))
        code, out = run_cli(capsys, "play", "--game", "!P -> P",
                            "--proof", str(path), "--env", "random",
                            "--seed", "2")
        assert code == 0 and "verdict: T" in out

    @staticmethod
    def _partial_play(capsys, tmp_path, env_moves):
        """Play R(1) & R(2) under an interpretation with no game for R(2),
        the environment making `env_moves`."""
        interp = tmp_path / "i.json"
        interp.write_text(json.dumps({"letters": {"R/1": {
            "params": ["x1"],
            "game": {"cases": [{"when": {"x1": 1}, "winner": "T"}]}}}}))
        script = tmp_path / "s.txt"
        script.write_text("".join(f"move {m}\n" for m in env_moves))
        code = main(["play", "--game", "R(1) & R(2)", "--strategy", "ccs",
                     "--env", f"script:{script}", "--interp", str(interp)])
        return code, capsys.readouterr()

    def test_partial_interpretation_is_an_error(self, capsys, tmp_path):
        # R(2) has no game: the environment's choice of it is no env fault
        code, captured = self._partial_play(capsys, tmp_path, ["2"])
        assert code == 2 and "verdict" not in captured.out
        assert "no game for R(2)" in captured.err

    def test_a_component_never_chosen_needs_no_game(self, capsys, tmp_path):
        # only the chosen component's game is built
        code, captured = self._partial_play(capsys, tmp_path, ["1"])
        assert code == 0 and "verdict: T" in captured.out
        assert "no game" not in captured.err

    def test_valuation_is_shown(self, capsys):
        code, out = run_cli(capsys, "play", "--game", "R(x) -> R(x)",
                            "--val", "x=3,default=2", "--env", "silent")
        assert code == 0
        assert "#valuation default=2 x=3\n" in out
        # an empty chunk is skipped
        code, out = run_cli(capsys, "play", "--game", "R(x) -> R(y)",
                            "--val", "x=3,,y=2", "--env", "silent")
        assert code == 0
        assert "#valuation default=1 x=3 y=2\n" in out

    def test_unknown_strategy_is_a_usage_error(self, capsys):
        code, _ = run_cli(capsys, "play", "--game", "P -> P",
                          "--strategy", "bogus", "--env", "silent")
        assert code == 2


class TestHumanEnv:
    def test_rejects_illegal_moves_with_a_reason(self, capsys, monkeypatch):
        from clgames.cli import HumanEnv
        from clgames import formula as fm
        from clgames.games import GameRef, game_state, random_interpretation

        itp = random_interpretation(1, (("P", 0), ("Q", 0)), 2)
        g = GameRef(fm.parse_formula("P & Q"), itp)
        answers = iter(["7", "1"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
        env = HumanEnv()
        mv = env.on_permission(game_state(g), ())
        out = capsys.readouterr().out
        assert mv == "1"
        assert "illegal move '7'" in out
        assert "legal moves include" in out

    @staticmethod
    def _human_play(capsys, monkeypatch, answer):
        """Play `ccs` on P -> P against `--env human`, `answer` standing in
        for `input`."""
        monkeypatch.setattr("builtins.input", answer)
        code = main(["play", "--game", "P -> P", "--env", "human"])
        return code, capsys.readouterr().out

    def test_end_of_input_ends_the_play(self, capsys, monkeypatch):
        def eof(prompt=""):
            raise EOFError
        code, out = self._human_play(capsys, monkeypatch, eof)
        assert code == 0
        assert "(or 'pass' to end the play, 'quit' to exit)" in out
        assert "reason=quiescent steps=1 grants=1" in out
        assert out.endswith("verdict: T (quiescent)\n")

    def test_quit_exits_at_once(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as exc:
            self._human_play(capsys, monkeypatch, lambda prompt="": "quit")
        assert exc.value.code == 0
        assert "verdict" not in capsys.readouterr().out

    def test_pass_declines_the_grant(self, capsys, monkeypatch):
        from clgames.cli import HumanEnv
        from clgames import formula as fm
        from clgames.games import GameRef, game_state, random_interpretation

        itp = random_interpretation(1, (("P", 0),), 2)
        g = GameRef(fm.parse_formula("P"), itp)
        monkeypatch.setattr("builtins.input", lambda prompt="": "pass")
        assert HumanEnv().on_permission(game_state(g), ()) is None


class TestVerifyCommand:
    def test_micro_suite(self, capsys):
        code, out = run_cli(capsys, "verify", "micro")
        assert code == 0
        assert "[PASS] micro-examples" in out

    def test_fast_micro_suite(self, capsys):
        code, out = run_cli(capsys, "verify", "micro", "--fast")
        assert code == 0
        assert "[PASS] micro-examples" in out

    def test_env_seed_default(self, capsys, monkeypatch):
        # CL_SEED seeds the interpretation as well as the environment
        play = ("play", "--game", "P -> P", "--strategy", "ccs", "--env",
                "random")
        _, given = run_cli(capsys, *play, "--seed", "5")
        monkeypatch.setenv("CL_SEED", "5")
        code, out = run_cli(capsys, *play)
        assert code == 0
        assert out == given
        assert "T 1.1" in out


# ---------------------------------------------------------------------------
# Malformed input files: every answer is an exit code, never a traceback

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=6),
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text(max_size=6), kids, max_size=3)),
    max_leaves=8)

# Near-valid shapes, mostly well formed, so that the fuzzer reaches past
# the first key lookup: `often(x)` draws from x three times in four, and
# from `other` (arbitrary JSON by default) otherwise.
def often(strategy, other=JSON):
    return st.tuples(st.integers(0, 3), strategy, other).map(
        lambda t: t[2] if t[0] == 3 else t[1])


PROOF_NODE = often(st.recursive(
    st.fixed_dictionaries({
        "sequent": often(st.sampled_from(["P => P", "P, Q => P", "=> P"])),
        "rule": often(st.sampled_from(intproof.RULES))}, optional={
        "i": often(st.integers(-2, 4)),
        "t": st.sampled_from(["1", "x", "f("]) | JSON,
        "y": often(st.sampled_from(["x", "y", ""])),
        "pos": often(st.integers(-2, 4))}),
    lambda kids: st.fixed_dictionaries(
        {"sequent": st.sampled_from(["P => P", "P => P & Q", "=> P -> P"]),
         "rule": st.sampled_from(intproof.RULES),
         "premises": often(st.lists(kids, max_size=2))}),
    max_leaves=4))

GAME_NODE = often(st.recursive(
    st.fixed_dictionaries({"winner": often(st.sampled_from(["T", "B"]))}),
    lambda kids: st.fixed_dictionaries(
        {"winner": st.sampled_from(["T", "B"])}, optional={
            "moves": often(st.dictionaries(
                st.sampled_from(["B:a", "B:a", "T:a", "B:1", "a"]), kids,
                max_size=2)),
            "cases": often(st.lists(st.fixed_dictionaries(
                {"winner": st.just("T")}, optional={"when": often(
                    st.dictionaries(st.sampled_from(["x1", "x"]), JSON,
                                    max_size=2))}),
                max_size=2)),
            "default": kids}),
    max_leaves=4))

INTERPRETATION = often(st.fixed_dictionaries({
    "letters": often(st.dictionaries(
        st.sampled_from(["P/0", "P/0", "P/0", "R/1", "P", "P/x"]),
        often(st.fixed_dictionaries({"game": GAME_NODE}, optional={
            "params": often(st.lists(st.sampled_from(["x1", "x"]),
                                     max_size=2))})),
        min_size=1, max_size=2))}, optional={"dollar_base": GAME_NODE}))

CL2_LINE = often(st.builds(
    "{}. {}; rule={}; premises=[{}]{}".format,
    often(st.just("N"), st.sampled_from(["0", "2", "01", "x", ""])),
    st.sampled_from(["P -> P", "p -> p", "P", "(P"]),
    st.sampled_from(["a", "b", "c", "d"]),
    st.sampled_from(["", "1", "9", "0", "-5", "x"]),
    st.sampled_from(["", "; path=", "; path=1; i=9", "; path=x,",
                     "; path=1,0; atom=p", "; path=0; i=1"])),
    st.text(max_size=12))
SCRIPT_LINE = often(st.one_of(
    st.builds("move {}".format, st.sampled_from(["2.a", "1.a", "2.", "♠"])
              | st.text(max_size=4)),
    st.sampled_from(["pass", "stop", "# c", ""])), st.text(max_size=12))


def _numbered(lines: list[str]) -> str:
    """Number each line drawn as "N. ..." by its position, as proof text
    must be."""
    return "\n".join(f"{k}{line[1:]}" if line.startswith("N.") else line
                     for k, line in enumerate(lines, start=1))


CL2_TEXT = st.lists(CL2_LINE, max_size=5).map(_numbered)
SCRIPT_TEXT = st.lists(SCRIPT_LINE, max_size=5).map("\n".join)


def _exit_status(args) -> tuple[int, str]:
    """main's exit status, as the interpreter would report it, and what it
    wrote to stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    except SystemExit as e:               # argparse, or a message to exit 1
        code = e.code if isinstance(e.code, int) else 1
    assert "Traceback" not in out.getvalue() + err.getvalue()
    return code, err.getvalue()


def _exit_code(args) -> int:
    return _exit_status(args)[0]


def _fuzz(text: str, *commands: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command in commands:
            argv = [a.replace("FILE", path) for a in command.split()]
            assert _exit_code(argv) in (0, 1, 2), command


FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


class TestMalformedInput:
    @FUZZ
    @given(INTERPRETATION)
    def test_interpretation_json(self, obj):
        _fuzz(json.dumps(obj),
              "play --game P->P --strategy ccs --interp FILE --env random",
              "play --game !$->$ --strategy ccs --interp FILE --env random")

    @FUZZ
    @given(PROOF_NODE)
    def test_proof_json(self, obj):
        _fuzz(json.dumps(obj), "check-proof int FILE", "compile --proof FILE",
              "play --game P->P --proof FILE --env silent")

    @FUZZ
    @given(CL2_TEXT)
    def test_cl2_proof_text(self, text):
        _fuzz(text, "check-proof cl2 FILE")

    @FUZZ
    @given(SCRIPT_TEXT)
    def test_env_script(self, text):
        _fuzz(text, "play --game P->P --strategy ccs --env script:FILE")

    def test_malformed_files_exit_2(self, tmp_path):
        # the first four raised TypeError; the last letter game is built
        # only when the environment chooses it, so it is checked at load
        node = ("sequent, rule and y are strings, premises a list, i and pos"
                " ints")
        key = "is not NAME/ARITY"
        for text, args, message in (
                ('{"sequent": 5, "rule": "Identity"}', "check-proof int FILE",
                 f"error: malformed proof node {{'sequent': 5, 'rule':"
                 f" 'Identity'}}: {node}"),
                ("[1, 2]", "compile --proof FILE",
                 f"error: malformed proof node [1, 2]: {node}"),
                ('{"sequent": "P => P", "rule": "Identity", "premises": 3}',
                 "compile --proof FILE", "'premises': 3}: " + node),
                ('{"letters": {"P/0": {"game": 7}}}',
                 "play --game P->P --interp FILE --env random",
                 "error: malformed game node 7"),
                ('{"letters": {"P/0": {"game": {"winner": "T"}},'
                 ' "Q/0": {"game": {"winner": "T", "moves": {"B:a": 1}}}}}',
                 "play --game P&Q --interp FILE --env exhaustive:2",
                 "error: malformed game node 1"),
                ('{"letters": {"P/0": {"game": {"cases": 7}}}}',
                 "play --game P->P --interp FILE --env random",
                 "error: malformed guard table {'cases': 7}"),
                # letter keys are NAME/ARITY as formulas name letters, with
                # at most ARITY parameters
                ('{"letters": {"\u0420/0": {"game": {"winner": "T"}},'
                 ' "7 x/1": {"game": {"winner": "T"}}}}',
                 "play --game P->P --strategy ccs --interp FILE --env random",
                 f"error: letter key '\u0420/0' {key}"),
                ('{"letters": {"P/01": {"game": {"winner": "T"}}}}',
                 "play --game P->P --strategy ccs --interp FILE --env random",
                 f"error: letter key 'P/01' {key}"),
                ('{"letters": {"P/0": {"params": ["x"],'
                 ' "game": {"winner": "T"}}}}',
                 "play --game P->P --strategy ccs --interp FILE --env random",
                 "error: letter 'P/0' needs a 'game' and a list of at most 0"
                 " parameter names"),
                # premise numbers start at 1; 0 and -5 would index the
                # steps from the end
                ("1. (p \\/ ~p) + Q ; rule=b ; premises=[0] ; path=e ; i=1\n"
                 "2. p \\/ ~p ; rule=a ; premises=[]\n",
                 "check-proof cl2 FILE",
                 "error: premise numbers start at 1: '1. "),
                ("1. p -> p ; rule=a ; premises=[]\n"
                 "2. P -> P ; rule=c ; premises=[-5] ; path=1,0 ; atom=p\n",
                 "check-proof cl2 FILE",
                 "error: premise numbers start at 1: '2. "),
                # proof-text step numbers must be the line positions
                ("2. p -> p ; rule=a ; premises=[]\n"
                 "1. P -> P ; rule=c ; premises=[1] ; path=1,0 ; atom=p\n",
                 "check-proof cl2 FILE", "error: step 1 is numbered '2'"),
                ("x. p -> p ; rule=a ; premises=[]\n", "check-proof cl2 FILE",
                 "error: step 1 is numbered 'x'"),
                # a missing or non-numeral field names its step and field
                ("1. P -> P ; rule=b ; premises=[]\n", "check-proof cl2 FILE",
                 "error: step 1: rule=b needs path="),
                ("1. P -> P ; rule=b ; premises=[] ; path=e\n",
                 "check-proof cl2 FILE", "error: step 1: rule=b needs i="),
                ("1. p -> p ; rule=a ; premises=[]\n"
                 "2. P -> P ; rule=c ; premises=[1] ; path=1,0\n",
                 "check-proof cl2 FILE", "error: step 2: rule=c needs atom="),
                ("1. p -> p ; rule=a ; premises=[x]\n", "check-proof cl2 FILE",
                 "error: step 1: premises= holds 'x', not a number"),
                ("1. P -> P ; rule=b ; premises=[] ; path=e ; i=x\n",
                 "check-proof cl2 FILE", "error: step 1: i= holds 'x', not"),
                ("1. P -> P ; rule=b ; premises=[] ; path=1.x ; i=1\n",
                 "check-proof cl2 FILE", "error: step 1: path= holds 'x', not"),
                ("1. p -> p ; rule=a ; premises=[]\n"
                 "2. p -> p ; rule=a ; premises=[+1]\n", "check-proof cl2 FILE",
                 "error: step 2: premises= holds '+1', not a number"),
                ("1. P -> P ; rule=b ; premises=[] ; path=e ; i=\u0661\n",
                 "check-proof cl2 FILE",
                 "error: step 1: i= holds '\u0661', not a number"),
                ("1. P -> P ; rule=b ; premises=[] ; path=e ; i=1_0\n",
                 "check-proof cl2 FILE",
                 "error: step 1: i= holds '1_0', not a number"),
                # a repeated field, or one the step's rule does not read
                ("1. p -> p ; rule=a ; premises=[] ; bogus=1 ; rule=a\n",
                 "check-proof cl2 FILE",
                 "error: step 1: rule= is given twice"),
                ("1. p -> p ; rule=a ; premises=[] ; premises=[5]\n",
                 "check-proof cl2 FILE",
                 "error: step 1: premises= is given twice"),
                ("1. p -> p ; rule=a ; premises=[] ; bogus=1\n",
                 "check-proof cl2 FILE",
                 "error: step 1: rule=a takes no bogus="),
                ("1. p -> p ; rule=a ; premis=[1]\n", "check-proof cl2 FILE",
                 "error: step 1: rule=a takes no premis="),
                ("1. P -> P ; rule=b ; premises=[] ; path=e ; i=1 ; atom=p\n",
                 "check-proof cl2 FILE",
                 "error: step 1: rule=b takes no atom="),
                ("1. p -> p ; rule=a ; premises=[]\n"
                 "2. P -> P ; rule=c ; premises=[1] ; path=1,0 ; atom=p ;"
                 " i=7\n", "check-proof cl2 FILE",
                 "error: step 2: rule=c takes no i="),
                # valuation values are numerals, keys variables or default
                ("", "play --game P->P --val x=0 --env silent",
                 "error: valuation value '0' is not a numeral 1, 2, ..."),
                ("", "play --game P->P --val x=01 --env silent",
                 "error: valuation value '01' is not"),
                ("", "play --game P->P --val x=\u0661 --env silent",
                 "error: valuation value '\u0661' is not"),
                ("", "play --game P->P --val x=+3 --env silent",
                 "error: valuation value '+3' is not"),
                ("", "play --game P->P --val default=-1 --env silent",
                 "error: valuation value '-1' is not"),
                ("", "play --game P->P --val X=3 --env silent",
                 "error: valuation key 'X' is not a variable"),
                ("", "play --game P->P --val 3=3 --env silent",
                 "error: valuation key '3' is not a variable"),
                ("", "check-formula R(01)",
                 "parse error: constants are numerals 1, 2, ..., got '01'"),
                ("", "check-formula R(\u0661)",
                 "parse error: unexpected character '\u0661'"),
                # identifiers are ASCII
                ("", "check-formula \u00c9",
                 "parse error: unexpected character '\u00c9'"),
                ("", "check-formula \u0420->P",
                 "parse error: unexpected character '\u0420'"),
                ("", "check-formula P\u00b2",
                 "parse error: unexpected character '\u00b2'"),
                # environment specs
                ("", "play --game P --env bogus",
                 "error: unknown environment 'bogus'"),
                ("", "play --game P --env exhaustive:x",
                 "error: bad search depth in 'exhaustive:x'"),
                # a KeyError's message prints without Python's quoting
                ("", "play --game P->P --strategy nosuch",
                 "error: unknown strategy 'nosuch'; known: ['ccs',"),
                # guards on outside input
                ("", "play --game p",
                 "error: elementary atoms have no game semantics"),
                ("", "play --game P --budget 0", "error: budget must be >= 1"),
                ("", "prove-cl2 !P",
                 "error: not a propositional-fragment formula: !P"),
                ("", "play --game P->P --strategy l4a[n=2",
                 "error: bad strategy id 'l4a[n=2'"),
                ("", "play --game P->P --strategy l4a[n]",
                 "error: bad strategy argument 'n'"),
                ("", "check-formula @X.P",
                 "parse error: quantified variable must be lowercase"),
                ("", "check-formula P(X)",
                 "parse error: expected a term, got 'X'"),
                ('{"sequent": "P", "rule": "Identity"}', "check-proof int FILE",
                 "parse error: a sequent needs '=>'")):
            path = tmp_path / "input"
            path.write_text(text)
            code, err = _exit_status(args.replace("FILE", str(path)).split())
            assert code == 2, args
            assert message in err, (args, err)
