import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
import time

import pytest

import wsmc
from wsmc import cli, compilers
from wsmc.model import load_model, region_to_text
from wsmc.oracle import MAX_EXPLORED, OracleError
from wsmc.regions import RegionError

from conftest import BAD_RULES, FIXTURE_COMMANDS, fixture_argv, model_path


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_validate_ok(capsys):
    code, out = run_cli(capsys, "validate", model_path("abp.lcs"))
    assert code == 0 and out == "ok\n"


def test_validate_reports_deadlock(tmp_path, capsys):
    bad = tmp_path / "bad.lcs"
    bad.write_text("alphabet: a\nchannels: c\nlocations: p q\n"
                   "rule p -> q : c!a\nrule q -> p : c?a\n")
    code, out = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert "q" in out and "deadlock" in out


def test_validate_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.lcs"
    bad.write_text("alphabet: a\nwhatever\n")
    code = cli.main(["validate", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "bad.lcs:2" in err


def test_duplicate_alphabet_symbol_exits_2_with_one_line(tmp_path, capsys):
    bad = tmp_path / "bad.lcs"
    bad.write_text("alphabet: a a\nchannels: c\nlocations: p\n"
                   "rule p -> p : nop\n")
    code = cli.main(["validate", str(bad)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: %s:1: duplicate symbol 'a' at position 12\n" % bad


@pytest.mark.parametrize("name", ["all", "pre"])
def test_region_named_after_an_operator_exits_2(tmp_path, capsys, name):
    bad = tmp_path / "bad.lcs"
    bad.write_text("alphabet: a b\nchannels: c\nlocations: p q\n"
                   "region %s = (p; a)\nrule p -> q : nop\n" % name)
    code = cli.main(["eval", str(bad), "-f", "all"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: %s:4: region name %r is reserved at position 7\n"
                            % (bad, name))


# the kind of an unreadable name -> the error at its first character
# that no name may hold
UNREADABLE = {"symbol": "expected a symbol name, found '*'",
              "channel": "expected '->'",  # the token that "-" may begin
              "location": "expected a location name, found '.'",
              "region": "expected '=', found '+'"}


@pytest.mark.parametrize("lines, lineno, kind, name", [
    (["alphabet: x* y", "channels: c", "locations: p"], 1, "symbol", "x*"),
    (["alphabet: a", "channels: c-1", "locations: p"], 2, "channel", "c-1"),
    (["alphabet: a", "channels: c", "locations: p[A] q.1[B]"], 3, "location",
     "q.1"),
    (["alphabet: a", "channels: c", "locations: p", "region G+H = (p; a)"], 4,
     "region", "G+H"),
])
def test_unreadable_model_name_exits_2_with_one_line(tmp_path, capsys, lines,
                                                     lineno, kind, name):
    bad = tmp_path / "bad.lcs"
    bad.write_text("\n".join(lines) + "\n")
    code = cli.main(["validate", str(bad)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    line = lines[lineno - 1]
    position = line.index(name) + re.search(r"\W", name).start()
    assert captured.err == "error: %s:%d: %s at position %d\n" % (
        bad, lineno, UNREADABLE[kind], position)


@pytest.mark.parametrize("rule, message", BAD_RULES)
def test_bad_rule_exits_2_with_one_line_naming_its_line(tmp_path, capsys, rule,
                                                         message):
    bad = tmp_path / "bad.lcs"
    bad.write_text("alphabet: a\nchannels: c\nlocations: p\nrule %s\n"
                   "rule p -> p : nop\n" % rule)
    code = cli.main(["validate", str(bad)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: %s:4: %s\n" % (bad, message)


@pytest.mark.parametrize("argv, name", [
    (["validate"], "bad.lcs"),
    (["eval", model_path("abp.lcs"), "-F"], "bad.mu"),
])
def test_non_utf8_file_exits_2_with_one_line(tmp_path, capsys, argv, name):
    bad = tmp_path / name
    bad.write_bytes(b"alphabet: a\xff\n")
    code = cli.main(argv + [str(bad)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: %s: not UTF-8 text (byte 11)\n" % bad


DEEP = 3000


@pytest.mark.parametrize("argv", [
    ["eval", "abp.lcs", "-f", "!" * DEEP + "GOAL"],
    ["check", "abp.lcs", "prestar", "--target",
     "(s0w0; %sm0%s; ())" % ("(" * DEEP, ")" * DEEP)],
    ["check", "abp.lcs", "ctl", "--formula", "!" * DEEP + "GOAL"],
], ids=["eval-formula", "region-text", "ctl-formula"])
def test_deeply_nested_input_exits_2_with_one_line(capsys, argv):
    code = cli.main(fixture_argv(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: input is nested too deeply\n"


def test_region_error_exits_2(monkeypatch, capsys):
    def fail(path):
        raise RegionError("broken %s" % path)
    monkeypatch.setattr(cli, "load_model", fail)
    code = cli.main(["validate", "m.lcs"])
    assert code == 2
    assert capsys.readouterr().err == "error: broken m.lcs\n"


@pytest.mark.parametrize("target, message", [
    ("+", "empty region atom, found '+' at position 0"),
    ("", "empty region expression (the empty region is written {}) at position 0"),
    ("(s0w0; m0; ()) + + GOAL", "empty region atom, found '+' at position 17"),
    ("(s0w0; ; )", "expected an expression, found ';' at position 7"),
    ("(s0w0; a@; )", "unexpected character '@' at position 8"),
])
def test_empty_region_target_exits_2_with_one_line(capsys, target, message):
    code = cli.main(["check", model_path("abp.lcs"), "prestar", "--target", target])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: %s\n" % message


def test_every_error_class_is_a_wsmc_error():
    errors = {}
    for info in pkgutil.iter_modules(wsmc.__path__):
        module = importlib.import_module("wsmc." + info.name)
        for name, obj in inspect.getmembers(module, inspect.isclass):
            if issubclass(obj, Exception) and obj.__module__.startswith("wsmc."):
                errors[name] = obj
    assert {"AutomatonError", "RegexError", "RegionError", "ModelError", "TermError",
            "CompileError", "EvaluationError", "OracleError", "CliError"} <= set(errors)
    for name, cls in errors.items():
        assert issubclass(cls, wsmc.WsmcError), name


def test_oracle_error_exits_2(monkeypatch, capsys):
    def fail(*args):
        raise OracleError("cap exceeded")
    monkeypatch.setattr(cli.oracle, "bounded_reach", fail)
    code = cli.main(["oracle", "reach", model_path("token_game.lcs"),
                     "--from", "a0 : ", "--target", "GOAL"])
    assert code == 2
    assert capsys.readouterr().err == "error: cap exceeded\n"


def test_oracle_refuses_long_channel_words(capsys):
    # 40 alternating symbols have hundreds of millions of distinct subwords
    word = " ".join(["t", "n"] * 20)
    code = cli.main(["oracle", "reach", model_path("token_game.lcs"),
                     "--from", "a0 : " + word, "--target", "GOAL"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and "cap of 16" in captured.err


def test_oracle_reach_expands_no_configuration_at_its_depth(capsys):
    # 16 symbols are within the cap; every successor of s0w0 sends a 17th
    start = "s0w0 : " + " ".join(["m0"] * 16) + ", "
    argv = ["oracle", "reach", model_path("abp.lcs"), "--from", start,
            "--target", "{}", "--depth"]
    assert run_cli(capsys, *argv, "0") == (0, "unknown\n")
    assert cli.main(argv + ["1"]) == 2
    assert capsys.readouterr().err == (
        "error: a successor of s0w0 holds 17 channel symbols, over the cap of 16\n")


def test_an_oracle_search_past_its_cap_exits_2_with_one_line_at_once(capsys):
    # 4 180 configurations one lossy step from b0; their successors hold more
    argv = ["oracle", "reach", model_path("token_game.lcs"), "--from",
            "b0 : t n t n t n t n t n t n t n t", "--target", "{}", "--depth"]
    assert run_cli(capsys, *argv, "1") == (0, "unknown\n")
    start = time.monotonic()
    assert cli.main(argv + ["2"]) == 2
    assert time.monotonic() - start < 1
    assert capsys.readouterr() == ("", "error: the search from b0 reaches more than the "
                                       "cap of %d configurations\n" % MAX_EXPLORED)


@pytest.mark.parametrize("search", ["reach", "game"])
def test_oracle_refuses_negative_depth(capsys, search):
    code = cli.main(["oracle", search, model_path("token_game.lcs"),
                     "--from", "a0 : t", "--target", "GOAL", "--depth=-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: search depth must be nonnegative, got -1\n"


def test_oracle_game_refuses_an_unowned_location_at_every_depth(tmp_path, capsys):
    unowned = tmp_path / "unowned.lcs"
    unowned.write_text("alphabet: a\nlocations: s[B] u w[A]\n"
                       "rule s -> u : nop\nrule u -> w : nop\nrule w -> w : nop\n")
    for depth in range(5):
        code = cli.main(["oracle", "game", str(unowned), "--from", "s",
                         "--target", "(w)", "--depth", str(depth)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: location u has no owner")


def test_eval_unguarded_exits_2(capsys):
    code = cli.main(["eval", model_path("flags.lcs"), "-f", "mu X. X"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unguarded binder" in err and "X" in err


@pytest.mark.parametrize("formula, message", [
    ("GOAL(", "expected a formula, found end of formula at position 5"),
    ("up", "expected '(', found end of formula at position 2"),
    ("mu X", "expected '.', found end of formula at position 4"),
    ("(GOAL", "expected ')', found end of formula at position 5"),
])
def test_formula_ending_early_exits_2_naming_its_end(capsys, formula, message):
    code = cli.main(["eval", model_path("token_game.lcs"), "-f", formula])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: %s\n" % message


@pytest.mark.parametrize("formula, message", [
    ("GOAL GOAL", "unexpected 'GOAL' at position 5"),
    ("GOAL &", "expected a formula, found end of formula at position 6"),
    ("E(GOAL U", "expected a formula, found end of formula at position 8"),
    ("E(GOAL U GOAL", "expected ')' closing E(_ U _), found end of formula at position 13"),
    ("E GOAL", "expected '(' after E, found 'GOAL' at position 2"),
    ("E(GOAL)", "expected 'U' in E(_ U _), found ')' at position 6"),
    ("!(GOAL", "expected ')', found end of formula at position 6"),
    ("GOAL & )", "expected a formula, found ')' at position 7"),
    ("E(GOAL U @)", "unexpected character '@' at position 9"),
    ("", "empty formula at position 0"),
    ("   ", "empty formula at position 3"),
    ("AG GOAL", "'AG' is outside the supported fragment (atoms, !, &, EX, E(_ U _)) "
                "at position 0"),
    ("U", "'U' is outside the supported fragment (atoms, !, &, EX, E(_ U _)) "
          "at position 0"),
    ("AF GOAL", "refusing forall-eventually: inevitability (every run reaches "
                "the target): the satisfying set is not effectively computable "
                "for lossy channel systems"),
])
def test_ctl_syntax_errors_exit_2_naming_their_position(capsys, formula, message):
    code = cli.main(["check", model_path("abp.lcs"), "ctl", "--formula", formula])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: %s\n" % message


def test_complemented_fixpoint_prints_the_complement_of_prestar(capsys):
    model = load_model(model_path("abp.lcs"))
    prestar, _ = compilers.compile_pre_star(
        model, model.named_regions["GOAL"]).run()
    code, out = run_cli(capsys, "eval", model_path("abp.lcs"),
                        "-f", "!mu X. GOAL | pre(up(X))")
    assert code == 0
    assert out.splitlines()[0] == region_to_text(
        model.space.complement(prestar), model)


def test_eval_prints_region_and_sizes(capsys):
    code, out = run_cli(capsys, "eval", model_path("flags.lcs"),
                        "-f", "mu X. GOAL | pre(up(X))")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "(p) + (q) + (r) + (s)"
    assert lines[1].startswith("sizes:")


def test_eval_formula_file_and_out(tmp_path, capsys):
    formula = tmp_path / "f.mu"
    formula.write_text("mu X. GOAL | pre(up(X))\n")
    out_file = tmp_path / "region.txt"
    code, out = run_cli(capsys, "eval", model_path("flags.lcs"),
                        "-F", str(formula), "--out", str(out_file))
    assert code == 0
    assert out_file.read_text() == "(p) + (q) + (r) + (s)\n"


def test_eval_open_formula_rejected(capsys):
    code = cli.main(["eval", model_path("flags.lcs"), "-f", "up(Z)"])
    assert code == 2
    assert "Z" in capsys.readouterr().err


def test_check_member_yes_no(capsys):
    base = ["check", model_path("token_game.lcs"), "game-reach",
            "--player", "B", "--target", "GOAL"]
    code, out = run_cli(capsys, *base, "--member", "b1 : t")
    assert (code, out) == (0, "yes\n")
    code, out = run_cli(capsys, *base, "--member", "a0 : ")
    assert (code, out) == (1, "no\n")


def test_check_member_word_error_points_into_the_configuration(capsys):
    code = cli.main(["check", model_path("token_game.lcs"), "prestar",
                     "--target", "GOAL", "--member", "a0 : tt n q"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: symbol 'q' not in alphabet at position 10\n")


def test_check_member_matches_bounded_oracle(capsys):
    # criterion: prestar membership agrees with explicit bounded search
    code, out = run_cli(capsys, "oracle", "reach", model_path("token_game.lcs"),
                        "--from", "a1 : t", "--target", "GOAL", "--depth", "4")
    assert code == 0 and out.strip() == "reachable"
    code, out = run_cli(capsys, "check", model_path("token_game.lcs"),
                        "prestar", "--target", "GOAL", "--member", "a1 : t")
    assert (code, out) == (0, "yes\n")


def test_check_refusals_exit_2(capsys):
    for prop in ("forall-eventually", "exists-recurrent", "asym-reach-A"):
        code = cli.main(["check", model_path("token_game.lcs"), prop,
                         "--target", "GOAL"])
        err = capsys.readouterr().err
        assert code == 2
        assert "refusing %s" % prop in err


def test_check_game_on_non_game_model_exits_2(capsys):
    code = cli.main(["check", model_path("abp.lcs"), "game-reach",
                     "--player", "A", "--target", "GOAL"])
    assert code == 2


def test_check_json_output(capsys):
    code, out = run_cli(capsys, "check", model_path("token_game.lcs"),
                        "game-reach", "--player", "B", "--target", "GOAL",
                        "--member", "b1 : t", "--json")
    assert code == 0
    assert json.loads(out) == {"verdict": "yes", "region": None}
    code, out = run_cli(capsys, "check", model_path("flags.lcs"), "ctl",
                        "--formula", "EX GOAL", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["region"] == "(q) + (s)"


def test_properties_are_the_readme_table():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as handle:
        table = handle.read().split("Properties for `check`:", 1)[1].split("\n\n")[1]
    rows = [line.split(" | ")[0] for line in table.splitlines()[2:]]
    names = [name for row in rows for name in re.findall(r"`([^`]+)`", row)]
    assert sorted(cli.PROPERTIES) == sorted(names)
    assert len(names) == len(set(names)) == 16


def test_missing_required_argument(capsys):
    code = cli.main(["check", model_path("flags.lcs"), "prestar"])
    assert code == 2
    assert "target" in capsys.readouterr().err


def run_fixture(command, seed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    return subprocess.run(
        [sys.executable, "-m", "wsmc.cli"] + fixture_argv(command),
        capture_output=True, env=env)


@pytest.mark.parametrize("command", FIXTURE_COMMANDS,
                         ids=lambda c: " ".join(c)[:50])
def test_fixture_outputs_are_deterministic(command):
    first = run_fixture(command, "0")
    second = run_fixture(command, "31337")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode


@pytest.mark.parametrize("argv, message", [
    (["check", "abp.lcs", "prestar", "--target", "-x"],
     "argument --target: expected one argument"),
    (["eval", "abp.lcs", "-f", "GOAL", "--max-iter", "0"],
     "argument --max-iter: expected an integer of at least 1, got '0'"),
    (["eval", "abp.lcs", "-f", "GOAL", "--max-iter", "-1"],
     "argument --max-iter: expected an integer of at least 1, got '-1'"),
    (["check", "abp.lcs", "prestar", "--target", "GOAL", "--max-iter=-1"],
     "argument --max-iter: expected an integer of at least 1, got '-1'"),
    (["eval", "abp.lcs", "--formula="], "empty formula at position 0"),
    (["eval", "abp.lcs", "--formula=  "], "empty formula at position 2"),
    (["eval", "abp.lcs", "-f", "GOAL", "--max-iter", "\u00b2"],
     "argument --max-iter: expected an integer of at least 1, got '\u00b2'"),
])
def test_malformed_argv_exits_2_with_one_line(capsys, argv, message):
    code = cli.main(fixture_argv(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: %s\n" % message
