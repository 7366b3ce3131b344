import os
import random

import pytest

from wsmc import automata, oracle
from wsmc.automata import Alphabet, Nfa

MODELS = os.path.join(os.path.dirname(__file__), os.pardir, "models")

# each subword closure and kernel with the oracle's membership predicate
CLOSURE_ORACLES = ((automata.up_closure, oracle.in_up_closure),
                   (automata.down_closure, oracle.in_down_closure),
                   (automata.up_kernel, oracle.in_up_kernel),
                   (automata.down_kernel, oracle.in_down_kernel))


def model_path(name):
    return os.path.abspath(os.path.join(MODELS, name))


def random_nfa(rng, alphabet, max_states=6):
    """A random NFA with epsilon transitions and random accepting set."""
    n = rng.randint(1, max_states)
    symbols = list(alphabet.symbols) + [None]
    transitions = []
    for _ in range(rng.randint(0, 3 * n)):
        transitions.append((rng.randrange(n), rng.choice(symbols), rng.randrange(n)))
    accepting = frozenset(s for s in range(n) if rng.random() < 0.4)
    return Nfa(alphabet, n, frozenset([0]), accepting, tuple(transitions))


def random_model(rng, max_locations=4, max_channels=2, max_rules=6,
                 with_guards=True, game=False, alphabet=None):
    """A random (possibly guarded) channel-system model."""
    from wsmc.model import GlcsModel, Rule, SEND, RECV, INTERNAL

    alphabet = alphabet or Alphabet(("a", "b"))
    n_loc = rng.randint(2, max_locations)
    locations = tuple("q%d" % i for i in range(n_loc))
    owners = {loc: ("A" if i % 2 == 0 else "B") if game else None
              for i, loc in enumerate(locations)}
    channels = tuple("c%d" % i
                     for i in range(rng.randint(min(1, max_channels),
                                                max_channels)))
    model = GlcsModel(alphabet, channels, locations, owners, ())
    def pick_target(src):
        if not game:
            return rng.choice(locations)
        other = [loc for loc in locations if owners[loc] != owners[src]]
        return rng.choice(other)

    rules = []
    if game:
        # keep the model validator happy: alternation plus no deadlocks
        for src in locations:
            rules.append(Rule(src, pick_target(src), INTERNAL))
    for _ in range(rng.randint(1, max_rules)):
        src = rng.choice(locations)
        tgt = pick_target(src)
        kind = rng.choice((SEND, RECV, INTERNAL)) if channels else INTERNAL
        guard = None
        if with_guards and rng.random() < 0.3:
            guard = random_region_for(rng, model)
        if kind == INTERNAL:
            rules.append(Rule(src, tgt, kind, guard=guard))
        else:
            rules.append(Rule(src, tgt, kind, rng.choice(channels),
                              rng.choice(alphabet.symbols), guard))
    return GlcsModel(alphabet, channels, locations, owners, tuple(rules))


def random_region_for(rng, model, n_summands=2):
    region = model.space.empty()
    for _ in range(rng.randint(0, n_summands)):
        loc = rng.choice(model.locations)
        langs = tuple(random_nfa(rng, model.alphabet, 3)
                      for _ in model.channels)
        region = model.space.union(region, model.space.atom(loc, langs))
    return region


def config_region(space, config):
    """The region of the one configuration config."""
    langs = tuple(Nfa.word(space.signature.alphabet, w) for w in config.contents)
    return space.atom(config.location, langs)


# malformed rules of a model with alphabet a, channel c and location p,
# and the error each one gives on a line "rule <rule>"; a name missing
# before a token reads as '', at the token
BAD_RULES = [
    ("p -> q : c!a", "rule endpoint 'q' is not a location at position 10"),
    ("p -> p : d!a", "rule channel 'd' not declared at position 14"),
    ("p -> p : c!b", "rule symbol 'b' not in alphabet at position 16"),
    ("p -> p : c!", "rule symbol '' not in alphabet at position 16"),
    ("p -> p : !a", "rule channel '' not declared at position 14"),
]


# canonical CLI invocations over the bundled models; byte-identical
# output across runs is part of the contract
FIXTURE_COMMANDS = [
    ["validate", "abp.lcs"],
    ["validate", "token_game.lcs"],
    ["validate", "flags.lcs"],
    ["eval", "abp.lcs", "-f", "mu X. GOAL | pre(up(X))", "--stats"],
    ["eval", "flags.lcs", "-f", "nu X. SAFE & wpre(kdown(X))"],
    ["check", "abp.lcs", "prestar", "--target", "GOAL"],
    ["check", "abp.lcs", "release", "--target", "CLEAN0", "--cond", "GOAL"],
    ["check", "abp4.lcs", "prestar", "--target", "GOAL"],
    ["check", "token_game.lcs", "game-reach", "--player", "B",
     "--target", "GOAL"],
    ["check", "token_game.lcs", "game-inv", "--player", "A",
     "--target", "TOKENS", "--json"],
    ["check", "token_game.lcs", "game-buchi", "--player", "B",
     "--target", "GOAL"],
    ["check", "token_game.lcs", "game-persist", "--player", "A",
     "--target", "TOKENS"],
    ["check", "token_game.lcs", "asym-reach-B", "--target", "GOAL"],
    ["check", "token_game.lcs", "prob-reach-1", "--player", "A",
     "--target", "GOAL"],
    ["check", "token_game.lcs", "prob-inv-pos", "--player", "A",
     "--target", "TOKENS"],
    # relay-2 of perfbench/gen.py: a probabilistic goal on a model with channels
    ["check", "relay2.lcs", "prob-reach-1", "--player", "A", "--target", "GOAL"],
    ["check", "flags.lcs", "ctl", "--formula", "E(SAFE U GOAL)"],
    ["eval", "token_game.lcs", "-f", "nu Y. mu X. GOAL | (confA & prep(up(X) & "
     "kdown(Y))) | (confB & wprep(up(X) & kdown(Y)))", "--stats"],
    ["check", "token_game.lcs", "game-reach", "--player", "B",
     "--target", "GOAL", "--member", "b1 : t"],
    ["oracle", "reach", "token_game.lcs", "--from", "a0 : ",
     "--target", "GOAL", "--depth", "5"],
    ["oracle", "game", "token_game.lcs", "--from", "b1 : t",
     "--target", "GOAL", "--player", "B", "--depth", "5"],
    # a real safety verdict: no run from the initial configuration reaches
    # BAD, but a stale ack lets the sender run ahead
    ["check", "abp3_safe.lcs", "prestar", "--target", "BAD", "--member", "s0w0 : ,"],
    ["check", "abp3_safe.lcs", "prestar", "--target", "BAD", "--member", "s0w0 : , a0"],
    # post edits channel blocks: append and behead on the only channel,
    # then append on the first of two
    ["eval", "token_game.lcs", "-f", "postp(TOKENS)"],
    ["eval", "abp.lcs", "-f", "postp(postp(CLEAN0))"],
]


def fixture_argv(command):
    argv = list(command)
    for i, part in enumerate(argv):
        if part.endswith(".lcs"):
            argv[i] = model_path(part)
    return argv


@pytest.fixture
def ab():
    return Alphabet(("a", "b"))


@pytest.fixture
def rng():
    return random.Random(20260825)
