"""Fuzzing of the command line: argv, model text, region text, formulas.

Whatever the input, `wsmc` must exit with 0, 1 or 2, never with a
traceback, and an exit code of 2 comes with exactly one line on stderr.
One test draws argv from loose tokens, so most inputs stop at the
argument parser; the other keeps the shape the argument parser accepts,
so every input reaches the program's own parsers.  Inputs are mostly well formed, so
that evaluation, checking and the oracles run too; one in ten parts is
malformed.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wsmc import cli

LOCATIONS = ["p", "q", "r"]
CHANNELS = ["c", "d"]

junk = st.text(alphabet="abpqrcd .()|*+?~{};:!&#-> \t", max_size=12)


def mostly(good, bad):
    """`good`, except for one draw in ten, which is `bad`."""
    return st.integers(0, 9).flatmap(lambda i: bad if i == 7 else good)


regex = st.recursive(
    st.sampled_from(["a", "b", ".", "()", "{}", ".*"]),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda t: "%s %s" % t),
        st.tuples(inner, inner).map(lambda t: "(%s|%s)" % t),
        inner.map(lambda s: "(%s)*" % s),
        inner.map(lambda s: "~(%s)" % s)),
    max_leaves=4)


def region(n_channels, names=("GOAL", "SAFE")):
    """Region text over the model's channels; `names` are the named
    regions already declared."""
    atom = st.tuples(st.sampled_from(LOCATIONS),
                     st.lists(regex, min_size=n_channels, max_size=n_channels)).map(
        lambda t: "(%s)" % "; ".join([t[0]] + t[1]))
    return mostly(
        st.one_of(st.lists(atom, min_size=1, max_size=3).map(" + ".join),
                  st.sampled_from(("{}",) + names)),
        st.one_of(junk, st.sampled_from(["pre", "NONE", "(p", "p)", "(z)",
                                         "(p; a; a; a)", "(p; (a)"])))


# owners alternate A, B, A; these rules keep every location live and
# the game alternating, so the model passes validation
OWNERS = {"p": "A", "q": "B", "r": "A"}
BASE_RULES = ["rule p -> q : nop", "rule q -> r : nop", "rule r -> q : nop"]
ALTERNATING = [(s, t) for s in LOCATIONS for t in LOCATIONS if OWNERS[s] != OWNERS[t]]


def rule(n_channels):
    ops = ["nop"] + ["%s%s%s" % (c, op, s) for c in CHANNELS[:n_channels]
                     for op in "!?" for s in "ab"]
    return st.tuples(st.sampled_from(ALTERNATING), st.sampled_from(ops),
                     st.one_of(st.none(), region(n_channels))).map(
        lambda t: "rule %s -> %s : %s%s" % (
            t[0][0], t[0][1], t[1], "" if t[2] is None else " guard " + t[2]))


BAD_LINES = ["alphabet: a a", "alphabet: a #", "channels: c c", "locations: p p",
             "region pre = {}", "region GOAL = {}", "locations: p[C]", "rule p q",
             "rule z -> p : nop", "rule p -> q : c!x", "rule p -> q : e?a"]


@st.composite
def model_text(draw, n_channels):
    owned = draw(st.booleans())
    lines = [
        "alphabet: a b",
        "channels: " + " ".join(CHANNELS[:n_channels]),
        "locations: " + " ".join("%s[%s]" % (loc, OWNERS[loc]) if owned else loc
                                 for loc in LOCATIONS),
        "region GOAL = " + draw(region(n_channels, names=())),
        "region SAFE = " + draw(region(n_channels, names=("GOAL",))),
    ]
    lines += BASE_RULES + draw(st.lists(rule(n_channels), max_size=3))
    if draw(mostly(st.just(False), st.just(True))):
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = draw(st.one_of(st.sampled_from(BAD_LINES), junk))
    return "\n".join(lines) + "\n"


formula = mostly(
    st.recursive(
        st.sampled_from(["GOAL", "SAFE", "all", "empty", "confA", "X", "Y"]),
        lambda inner: st.one_of(
            st.tuples(st.sampled_from(["pre", "wpre", "post", "prep", "up", "down",
                                       "kup", "kdown", "!"]),
                      inner).map(lambda t: "%s(%s)" % t),
            st.tuples(st.sampled_from(["mu X.", "nu Y."]), inner).map(
                lambda t: "%s %s" % t),
            st.tuples(inner, st.sampled_from(["|", "&"]), inner).map(
                lambda t: "(%s %s %s)" % t)),
        max_leaves=5),
    junk)

ctl = mostly(
    st.recursive(
        st.sampled_from(["GOAL", "SAFE", "all", "empty"]),
        lambda inner: st.one_of(
            st.tuples(st.sampled_from(["!", "EX ", "AF ", "EG "]), inner).map(
                lambda t: "%s(%s)" % t),
            st.tuples(inner, inner).map(lambda t: "(%s) & (%s)" % t),
            st.tuples(inner, inner).map(lambda t: "E((%s) U (%s))" % t)),
        max_leaves=4),
    junk)

word = mostly(st.lists(st.sampled_from(["a", "b", "ab"]), max_size=4),
              st.lists(st.sampled_from(["a", "b", "x"]), max_size=24)).map(" ".join)


def config(n_channels):
    return mostly(
        st.tuples(st.sampled_from(LOCATIONS),
                  st.lists(word, min_size=n_channels, max_size=n_channels)).map(
            lambda t: "%s : %s" % (t[0], ", ".join(t[1]))),
        junk)


small_int = st.integers(min_value=-1, max_value=3).map(str)
player = st.sampled_from(["A", "B"])


def option(name, values):
    """No option, or `name=value`, which the argument parser takes even
    when the value starts with a dash."""
    return st.one_of(st.just([]), values.map(lambda v: ["%s=%s" % (name, v)]))


@st.composite
def argv(draw, path, n_channels):
    command = draw(st.sampled_from(["check", "check", "eval", "reach", "game",
                                    "validate"]))
    if command == "validate":
        return ["validate", path]
    if command == "eval":
        return (["eval", path, "--formula=" + draw(formula)]
                + draw(option("--max-iter", small_int))
                + draw(st.sampled_from([[], ["--stats"], ["--json", "--stats"]])))
    if command == "check":
        prop = draw(st.sampled_from(sorted(cli.PROPERTIES)))
        args = ["check", path, prop, "--target=" + draw(region(n_channels))]
        for name, values in (("--cond", region(n_channels)), ("--player", player),
                             ("--formula", ctl), ("--member", config(n_channels)),
                             ("--max-iter", small_int)):
            args += draw(option(name, values))
        return args + draw(st.sampled_from([[], ["--json"]]))
    args = ["oracle", command, path, "--from=" + draw(config(n_channels)),
            "--target=" + draw(region(n_channels)), "--depth=" + draw(small_int)]
    if command == "game":
        args += ["--player=" + draw(player)]
    return args


def run(argv_list):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv_list)
    return code, out.getvalue(), err.getvalue()


def check_exit(code, out, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err


# argv tokens in any order; MODEL stands for a bundled model
ARGV_TOKENS = ["validate", "eval", "check", "oracle", "reach", "game", "prestar",
               "game-reach", "MODEL", "--target", "--cond", "--player", "--formula",
               "-f", "-F", "--member", "--max-iter", "--depth", "--from", "--json",
               "--stats", "-x", "--bogus", "A", "C", "GOAL", "a0 :", "0", "-1", "2"]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.lists(st.sampled_from(ARGV_TOKENS), max_size=7))
def test_any_argv_exits_0_1_or_2_with_one_error_line(tokens):
    model = os.path.join(os.path.dirname(__file__), os.pardir, "models",
                         "token_game.lcs")
    check_exit(*run([model if t == "MODEL" else t for t in tokens]))


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_cli_exits_0_1_or_2_with_one_error_line(data):
    n_channels = data.draw(st.sampled_from([1, 0, 2]), label="channels")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.lcs")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(data.draw(model_text(n_channels), label="model"))
        if data.draw(mostly(st.just(False), st.just(True)), label="missing"):
            os.remove(path)
        check_exit(*run(data.draw(argv(path, n_channels), label="argv")))
