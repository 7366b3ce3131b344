"""Every syntax names the place of its errors the same way.

Formulas, CTL, regexes, region text (`--target`, `--cond`, a model's
`region` and `guard`), configurations (`--member`, `--from`) and every
line of a model file all read through the one token cursor,
`terms.Cursor`.  A parse or name error ends with "at position N", N
counting in the text the user typed (in a model file: in the line,
after `file:line:`).  The text at N begins with the token the message
names, or N is the text's length.
"""

import contextlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsmc import WsmcError, cli, compilers, terms
from wsmc.model import ModelError, load_model, parse_config, parse_model, parse_region_text
from wsmc.regexes import RegexError, compile_regex
from wsmc.regions import Config

from conftest import model_path
import test_fuzz
from test_cli import DEEP

ABP = model_path("abp.lcs")
# a model file whose fifth line is the line under test
HEAD = "alphabet: a b\nchannels: c d\nlocations: p q\nregion G = (p; a*; ())\n"
NO_CHANNELS = "alphabet: a\nlocations: p q\n"


def cli_error(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 2
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    return err.getvalue()[len("error: "):-1]


def model_line_error(line):
    with pytest.raises(WsmcError) as info:
        parse_model(HEAD + line + "\n", name="m.lcs")
    message = str(info.value)
    assert message.startswith("m.lcs:5: ")
    return message[len("m.lcs:5: "):]


def declaration_error(line):
    """The error of line, a declaration read in place of HEAD's line of
    its keyword."""
    lines = HEAD.splitlines()
    at = [head.split(":")[0] for head in lines].index(line.split()[0].rstrip(":"))
    lines[at] = line
    with pytest.raises(WsmcError) as info:
        parse_model("\n".join(lines) + "\n", name="m.lcs")
    message, prefix = str(info.value), "m.lcs:%d: " % (at + 1)
    assert message.startswith(prefix)
    return message[len(prefix):]


def raised(parse, text):
    with pytest.raises(WsmcError) as info:
        parse(text)
    return str(info.value)


# syntax -> the message of the error that the text typed there gives
SYNTAXES = {
    "formula": lambda text: raised(
        lambda t: terms.parse_term(t, load_model(ABP).algebra()), text),
    "ctl": lambda text: raised(lambda t: compilers.compile_ctl(load_model(ABP), t), text),
    "regex": lambda text: raised(lambda t: compile_regex(t, load_model(ABP).alphabet),
                                 text),
    "--target": lambda text: cli_error(["check", ABP, "prestar", "--target", text]),
    "--cond": lambda text: cli_error(["check", ABP, "release", "--target", "CLEAN0",
                                      "--cond", text]),
    "--member": lambda text: cli_error(["check", ABP, "prestar", "--target", "GOAL",
                                        "--member", text]),
    "--from": lambda text: cli_error(["oracle", "reach", ABP, "--from", text,
                                      "--target", "GOAL", "--depth", "1"]),
    "config without channels": lambda text: raised(
        lambda t: parse_config(t, parse_model(NO_CHANNELS)), text),
    "declaration": declaration_error,
    "line": model_line_error,
    "region": model_line_error,
    "guard": model_line_error,
    "rule": model_line_error,
}

# (syntax, text, message, the token at the position or None for the end);
# a character that only begins a token, like "{" of "{}", is named by
# that token
TABLE = [
    ("formula", "GOAL | (FOO", "unknown identifier 'FOO' at position 8", "FOO"),
    ("formula", "mu (X", "expected a variable after 'mu', found '(' at position 3", "("),
    ("formula", "GOAL &", "expected a formula, found end of formula at position 6", None),
    ("formula", "  ", "empty formula at position 2", None),
    ("ctl", "E(GOAL U NOPE)", "unknown region atom 'NOPE' at position 9", "NOPE"),
    ("ctl", "E GOAL", "expected '(' after E, found 'GOAL' at position 2", "GOAL"),
    ("ctl", "!(GOAL", "expected ')', found end of formula at position 6", None),
    ("ctl", "", "empty formula at position 0", None),
    ("ctl", "E(GOAL U AG GOAL)", "'AG' is outside the supported fragment "
                                 "(atoms, !, &, EX, E(_ U _)) at position 9", "AG"),
    ("regex", "m0 (a0|", "expected an expression, found end of input at position 7", None),
    ("regex", "m0 x", "symbol 'x' not in alphabet at position 3", "x"),
    ("regex", "m0 )", "unexpected ')' at position 3", ")"),
    ("regex", "m0 {", "expected '{}' at position 3", "{"),
    ("--target", "(s0w0; a@; )", "unexpected character '@' at position 8", "@"),
    ("--target", "(s0w0; ; ())", "expected an expression, found ';' at position 7", ";"),
    ("--target", "(s0w0; m0 m0x; ())", "symbol 'x' not in alphabet at position 12", "x"),
    ("--target", "GOAL + + GOAL", "empty region atom, found '+' at position 7", "+"),
    ("--target", "(nowhere; m0; ())", "unknown location 'nowhere' at position 1", "nowhere"),
    ("--target", "GOAL + NOPE", "unknown named region 'NOPE' at position 7", "NOPE"),
    ("--target", "(s0w0; m0)", "expected ';', found ')' at position 9", ")"),
    ("--target", "(s0w0; m0; (); a0)", "expected ')', found ';' at position 13", ";"),
    ("--target", "(s0w0; (m0; ())", "expected ')', found ';' at position 10", ";"),
    ("--target", "(s0w0; m0; ()", "expected ')', found end of input at position 13", None),
    ("--target", "", "empty region expression (the empty region is written {}) "
                     "at position 0", None),
    ("--target", "(s0w0; m0, a0; ())", "expected ';' or ')', found ',' at position 9", ","),
    ("--target", "{} + GOAL", "unexpected '+' at position 3", "+"),
    ("--target", "(s0w0; m0; ()) GOAL", "unexpected 'GOAL' at position 15", "GOAL"),
    ("--cond", "GOAL +", "empty region atom, found end of input at position 6", None),
    ("--cond", "(s0w0; m0 -> a0; ())", "expected ';' or ')', found '->' at position 10",
     "->"),
    ("--member", "s0w0 : m0, a0, a1", "expected 2 channel words, found ',' at position 13",
     ","),
    ("--member", "s0w0 : m0 x", "symbol 'x' not in alphabet at position 10", "x"),
    ("--member", "nowhere : m0", "unknown location 'nowhere' at position 0", "nowhere"),
    ("--member", "s0w0 ; m0", "unexpected ';' at position 5", ";"),
    ("--from", "s0w0 : m0 m0q", "symbol 'q' not in alphabet at position 12", "q"),
    ("--from", "s0w0 : m0 (", "unexpected '(' at position 10", "("),
    ("config without channels", "p : , , ,",
     "expected 0 channel words, found ',' at position 4", ","),
    ("config without channels", "p : a", "expected 0 channel words, found ':' at position 2",
     ":"),
    ("declaration", "alphabet: a a", "duplicate symbol 'a' at position 12", "a"),
    ("declaration", "alphabet: x* y", "expected a symbol name, found '*' at position 11",
     "*"),
    ("declaration", "alphabet:", "expected a symbol name, found end of input at position 9",
     None),
    ("declaration", "channels: c c", "duplicate channel 'c' at position 12", "c"),
    ("declaration", "channels: c-1", "expected '->' at position 11", "-"),
    ("declaration", "locations: p q p", "duplicate location 'p' at position 15", "p"),
    ("declaration", "locations: p q.1", "expected a location name, found '.' at position 14",
     "."),
    ("declaration", "locations: p[C] q", "owner must be A or B, got 'C' at position 13", "C"),
    ("declaration", "locations: p[A q", "expected ']', found 'q' at position 15", "q"),
    ("declaration", "locations p q", "expected ':', found 'p' at position 10", "p"),
    ("line", "alphabet: b", "duplicate alphabet declaration (first declared on line 1) "
                            "at position 0", "alphabet"),
    ("line", "  channels: e", "duplicate channels declaration (first declared on line 2) "
                              "at position 2", "channels"),
    ("line", "locations: r q", "duplicate location 'q' at position 13", "q"),
    ("line", "regions H = {}", "unrecognized line, found 'regions' at position 0",
     "regions"),
    ("line", "  -> q", "unrecognized line, found '->' at position 2", "->"),
    ("region", "region pre = {}", "region name 'pre' is reserved at position 7", "pre"),
    ("region", "region G = {}", "duplicate region 'G' (first declared on line 4) "
                                "at position 7", "G"),
    ("region", "region H+K = {}", "expected '=', found '+' at position 8", "+"),
    ("region", "region H", "expected '=', found end of input at position 8", None),
    ("region", "region = {}", "expected a region name, found '=' at position 7", "="),
    ("region", "region H = (p; a*; b", "expected ')', found end of input at position 20",
     None),
    ("region", "region H = (p; a*; b) + K", "unknown named region 'K' at position 24", "K"),
    ("guard", "rule p -> q : c!a guard (p; a@; ())",
     "unexpected character '@' at position 29", "@"),
    ("guard", "rule p -> q : nop guard (r; (); ())", "unknown location 'r' at position 25",
     "r"),
    ("rule", "rule p -> q -> p : nop", "expected ':', found '->' at position 12", "->"),
    ("rule", "rule p q : nop", "expected '->', found 'q' at position 7", "q"),
    ("rule", "rule p -> q : e!a", "rule channel 'e' not declared at position 14", "e"),
    ("rule", "rule p -> q : c!x", "rule symbol 'x' not in alphabet at position 16", "x"),
    ("rule", "rule p -> q : c a",
     "expected 'nop' or a channel operation, found 'c' at position 14", "c"),
    ("rule", "rule p -> r : nop", "rule endpoint 'r' is not a location at position 10", "r"),
    ("rule", "  rule p -> q : c?a b", "unexpected 'b' at position 20", "b"),
    ("rule", "rule p -> q : nop guard", "empty region expression (the empty region is "
                                        "written {}) at position 23", None),
]


@pytest.mark.parametrize("syntax, text, message, token", TABLE,
                         ids=["%s %r" % (row[0], row[1]) for row in TABLE])
def test_every_syntax_names_the_position_of_its_errors(syntax, text, message, token):
    assert SYNTAXES[syntax](text) == message
    position = int(re.search(r" at position (\d+)$", message).group(1))
    if token is None:
        assert position == len(text)
    else:
        assert text[position:].startswith(token)


def test_the_table_covers_every_syntax():
    assert {row[0] for row in TABLE} == set(SYNTAXES)


@pytest.mark.parametrize("parse, text, error", [
    (lambda t: terms.parse_term(t, {}), "up(" * 250 + "all" + ")" * 250, terms.TermError),
    (lambda t: terms.parse_term(t, {}), "(" * DEEP + "all" + ")" * DEEP, terms.TermError),
    (lambda t: compile_regex(t, load_model(ABP).alphabet), "(" * DEEP + "m0" + ")" * DEEP,
     RegexError),
    (lambda t: parse_region_text(t, load_model(ABP)),
     "(s0w0; %sm0%s; ())" % ("(" * DEEP, ")" * DEEP), ModelError),
    (compilers.parse_ctl, "!" * DEEP + "GOAL", compilers.CtlError),
], ids=["formula-up", "formula", "regex", "region-text", "ctl"])
def test_every_parser_refuses_input_nested_too_deeply_with_its_own_error(parse, text,
                                                                         error):
    with pytest.raises(WsmcError) as info:
        parse(text)
    assert type(info.value) is error and str(info.value) == "input is nested too deeply"


@pytest.mark.parametrize("text", ["p", "p :", "p : "])
def test_a_configuration_without_channels_may_end_after_its_colon(text):
    assert parse_config(text, parse_model(NO_CHANNELS)) == Config("p", ())


def rule_line(n_channels):
    return test_fuzz.mostly(test_fuzz.rule(n_channels),
                            test_fuzz.junk.map(lambda text: "rule p -> " + text))


def fuzz_model_text(n_channels):
    return "\n".join([
        "alphabet: a b", "channels: " + " ".join(test_fuzz.CHANNELS[:n_channels]),
        "locations: p q r", "region GOAL = (p%s)" % ("; a*" * n_channels),
        "region SAFE = GOAL", "rule p -> q : nop"]) + "\n"


def declaration_line(n_channels):
    """A line after the fuzzing model's declarations: locations, new or
    not, with owners well formed or not; a region's head; a second
    alphabet or channels line; or junk after a keyword."""
    location = st.tuples(st.sampled_from(["s", "t", "p", "s.1", "t-1", ""]),
                         st.sampled_from(["", "[A]", " [ B ]", "[C]", "[A", "[]"]))
    head = st.tuples(st.sampled_from(["H", "K", "GOAL", "pre", "", "H+K"]),
                     st.sampled_from(["=", " = ", "", ":"]))
    return st.one_of(
        st.lists(location.map("".join), max_size=3).map(
            lambda names: "locations: " + " ".join(names)),
        st.tuples(head, test_fuzz.region(n_channels)).map(
            lambda t: "region %s%s%s" % (t[0][0], t[0][1], t[1])),
        st.tuples(st.sampled_from(["alphabet", "channels", "locations", "region",
                                   "regions", ""]), test_fuzz.junk).map(" ".join))


def read_model_line(line, model, n_channels):
    try:
        parse_model(fuzz_model_text(n_channels) + line + "\n", name="m.lcs")
    except WsmcError as exc:
        raise WsmcError(re.sub(r"^m\.lcs:7: ", "", str(exc)))


# syntax -> (strategy of text over n channels, reader of the text over
# the fuzzing model with n channels, whether every error must end with a
# position: formulas also refuse a bound variable under an odd number of
# complements, and CTL forall-eventually goals, as a whole)
CORPUS = {
    "formula": (lambda n: test_fuzz.formula,
                lambda text, model, n: terms.parse_term(text, model.algebra()), False),
    "ctl": (lambda n: test_fuzz.ctl,
            lambda text, model, n: compilers.compile_ctl(model, text), False),
    "regex": (lambda n: test_fuzz.mostly(test_fuzz.regex, test_fuzz.junk),
              lambda text, model, n: compile_regex(text, model.alphabet), True),
    "region": (test_fuzz.region, lambda text, model, n: parse_region_text(text, model),
               True),
    "config": (test_fuzz.config, lambda text, model, n: parse_config(text, model), True),
    "rule": (rule_line, read_model_line, True),
    "declaration": (declaration_line, read_model_line, True),
}


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(st.data())
def test_every_error_position_lies_within_its_text(data):
    n_channels = data.draw(st.sampled_from([0, 1, 2]), label="channels")
    syntax = data.draw(st.sampled_from(sorted(CORPUS)), label="syntax")
    strategy, read, positioned = CORPUS[syntax]
    text = data.draw(strategy(n_channels), label="text")
    try:
        read(text, parse_model(fuzz_model_text(n_channels)), n_channels)
    except WsmcError as exc:
        message = str(exc)
    else:
        return
    match = re.search(r" at position (\d+)$", message)
    if positioned:
        assert match, message
    if match:
        assert 0 <= int(match.group(1)) <= len(text), message
