"""Deterministic model-text generators for the benchmark workloads.

Every generator returns plain text in the wsmc model format; the engine
under test only ever sees that text.  All randomness comes from a
`random.Random` seeded by the caller, so one seed gives the same bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class Query:
    """One verification question about one generated model.

    `prop` names a property as the `wsmc check` command does.  `target`
    and `cond` are region texts; `target_complement`, when set, is the
    complement of `target` written out by the generator, so oracle
    checks of dual goals never rely on the region algebra under test.
    `golden` names the checked-in answer region, if there is one.
    """

    qid: str
    model_text: str
    prop: str
    target: str
    player: Optional[str] = None
    cond: Optional[str] = None
    target_complement: Optional[str] = None
    members: Tuple[str, ...] = ()
    golden: Optional[str] = None


# -- ABP-n --------------------------------------------------------------

def abp_text(n: int) -> str:
    """Alternating-bit protocol generalised to n sequence numbers.

    The sender s<i> retransmits m<i> on channel c until it reads ack a<i>
    on channel d, then moves to s<i+1 mod n>; other acks are discarded.
    The receiver waits in w<j>, accepts any m<k> into x<k>, and from x<k>
    acknowledges with a<k> and waits for k+1.  2n^2 locations and
    2n^2(n+1) + n^3 + n^2 rules.
    """
    ms = ["m%d" % i for i in range(n)]
    acks = ["a%d" % i for i in range(n)]
    recv_states = [r for j in range(n) for r in ("w%d" % j, "x%d" % j)]
    locs = ["s%d%s" % (i, r) for i in range(n) for r in recv_states]
    lines = ["# ABP-%d: alternating-bit protocol with %d sequence numbers" % (n, n),
             "alphabet: %s" % " ".join(ms + acks),
             "channels: c d",
             "locations: %s" % " ".join(locs)]
    for i in range(n):
        nxt = (i + 1) % n
        for r in recv_states:
            lines.append("rule s%d%s -> s%d%s : c!m%d" % (i, r, i, r, i))
            lines.append("rule s%d%s -> s%d%s : d?a%d" % (i, r, nxt, r, i))
            for j in range(n):
                if j != i:
                    lines.append("rule s%d%s -> s%d%s : d?a%d" % (i, r, i, r, j))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lines.append("rule s%dw%d -> s%dx%d : c?m%d" % (i, j, i, k, k))
            lines.append("rule s%dx%d -> s%dw%d : d!a%d" % (i, j, i, (j + 1) % n, j))
    lines.append("region GOAL = (s%dw%d; (); ())" % (n - 1, n - 1))
    return "\n".join(lines) + "\n"


def abp_locations(n: int) -> List[str]:
    return ["s%d%s%d" % (i, kind, j) for i in range(n) for j in range(n)
            for kind in ("w", "x")]


# -- relay-k ------------------------------------------------------------

def relay_text(k: int) -> str:
    """Two-player relay arena with k stages.

    A (locations a<i>) pushes the stage token t<i> or noise n onto
    channel c, or reads the receipt r<i> from channel d to move on to
    stage i+1 mod k.  B (locations b<i>) consumes tokens or noise,
    passes, or issues the receipt r<i> while t<i> heads channel c.
    """
    tokens = ["t%d" % i for i in range(k)]
    receipts = ["r%d" % i for i in range(k)]
    locs = []
    for i in range(k):
        locs += ["a%d[A]" % i, "b%d[B]" % i]
    lines = ["# relay-%d: two-player relay arena with %d stages" % (k, k),
             "alphabet: %s n %s" % (" ".join(tokens), " ".join(receipts)),
             "channels: c d",
             "locations: %s" % " ".join(locs)]
    for i in range(k):
        nxt = (i + 1) % k
        lines += ["rule a%d -> b%d : c!t%d" % (i, i, i),
                  "rule a%d -> b%d : c!n" % (i, i),
                  "rule a%d -> b%d : d?r%d" % (i, nxt, i),
                  "rule b%d -> a%d : c?t%d" % (i, i, i),
                  "rule b%d -> a%d : c?n" % (i, i),
                  "rule b%d -> a%d : nop" % (i, i),
                  "rule b%d -> a%d : d!r%d guard (b%d; t%d .*; .*)"
                  % (i, i, i, i, i)]
    clean = "(%s)*" % "|".join(tokens + receipts)
    lines.append("region GOAL = (a%d; .*; .*)" % (k - 1))
    lines.append("region SAFE = %s"
                 % " + ".join("(%s; %s; .*)" % (loc.split("[")[0], clean)
                              for loc in locs))
    lines.append("region NOISY = %s"
                 % " + ".join("(%s; .* n .*; .*)" % loc.split("[")[0]
                              for loc in locs))
    return "\n".join(lines) + "\n"


def relay_locations(k: int) -> List[str]:
    return [loc for i in range(k) for loc in ("a%d" % i, "b%d" % i)]


# -- seeded configurations ------------------------------------------------

def random_configs(rng: random.Random, locations: List[str], symbols: List[str],
                   n_channels: int, count: int, max_len: int = 3) -> Tuple[str, ...]:
    """`count` configuration texts "loc : w1, w2" with short words."""
    out = []
    for _ in range(count):
        words = []
        for _ in range(n_channels):
            length = rng.randint(0, max_len)
            words.append(" ".join(rng.choice(symbols) for _ in range(length)))
        out.append("%s : %s" % (rng.choice(locations), ", ".join(words)))
    return tuple(out)


def abp_queries(seed: int, sizes=(2, 3), members: int = 8) -> List[Query]:
    rng = random.Random("abp-%d" % seed)
    out = []
    for n in sizes:
        symbols = ["m%d" % i for i in range(n)] + ["a%d" % i for i in range(n)]
        out.append(Query("abp-%d/prestar" % n, abp_text(n), "prestar", "GOAL",
                         members=random_configs(rng, abp_locations(n), symbols,
                                                2, members),
                         golden="abp-%d-prestar" % n))
    return out


RELAY_GOALS = (("game-buchi", "B", "GOAL"),
               ("game-persist", "A", "SAFE"),
               ("prob-reach-1", "A", "GOAL"),
               ("prob-inv-pos", "A", "SAFE"))


def relay_queries(seed: int, sizes=(2, 3), members: int = 6) -> List[Query]:
    rng = random.Random("relay-%d" % seed)
    out = []
    for k in sizes:
        text = relay_text(k)
        symbols = ["t%d" % i for i in range(k)] + ["n"] + ["r%d" % i for i in range(k)]
        goal_complement = " + ".join("(%s; .*; .*)" % loc for loc in relay_locations(k)
                                     if loc != "a%d" % (k - 1))
        for prop, player, target in RELAY_GOALS:
            out.append(Query(
                "relay-%d/%s" % (k, prop), text, prop, target, player=player,
                target_complement="NOISY" if target == "SAFE" else goal_complement,
                members=random_configs(rng, relay_locations(k), symbols, 2, members),
                golden="relay-%d-%s" % (k, prop)))
    return out


# -- random-mix -----------------------------------------------------------

GAME_PROPS = ("game-reach", "game-inv", "game-buchi", "game-persist",
              "asym-reach-B", "prob-reach-1", "prob-inv-pos")
PLAIN_PROPS = ("prestar", "release", "ctl")
# goals whose oracle check needs the complement of the target
DUAL_PROPS = ("game-inv", "game-persist", "prob-inv-pos")


def _random_regex(rng: random.Random, symbols: List[str], depth: int = 2) -> str:
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(symbols + ["."])
    if roll < 0.5:
        return "(%s)*" % _random_regex(rng, symbols, depth - 1)
    if roll < 0.75:
        return "%s %s" % (_random_regex(rng, symbols, depth - 1),
                          _random_regex(rng, symbols, depth - 1))
    return "(%s|%s)" % (_random_regex(rng, symbols, depth - 1),
                        _random_regex(rng, symbols, depth - 1))


def _free_product(rng: random.Random, symbols: List[str]) -> Tuple[str, str]:
    """A per-channel language X* for a random symbol subset X, and its
    complement "some symbol outside X occurs"."""
    kept = [s for s in symbols if rng.random() < 0.6]
    dropped = [s for s in symbols if s not in kept]
    lang = "(%s)*" % "|".join(kept) if kept else "()"
    if not dropped:
        return lang, "{}"
    return lang, ".* (%s) .*" % "|".join(dropped)


def _closed_target(rng, locations, symbols, n_channels) -> Tuple[str, str]:
    """A target region whose complement the generator can write down:
    a set S of locations, each with channels restricted to X_i*."""
    chosen = [loc for loc in locations if rng.random() < 0.5] or [locations[0]]
    atoms, comp = [], []
    for loc in locations:
        if loc not in chosen:
            comp.append("(%s)" % "; ".join([loc] + [".*"] * n_channels))
            continue
        langs = [_free_product(rng, symbols) for _ in range(n_channels)]
        atoms.append("(%s)" % "; ".join([loc] + [lang for lang, _ in langs]))
        for i, (_, neg) in enumerate(langs):
            if neg != "{}":
                fields = [".*"] * n_channels
                fields[i] = neg
                comp.append("(%s)" % "; ".join([loc] + fields))
    return " + ".join(atoms), " + ".join(comp) if comp else "{}"


def _random_target(rng, locations, symbols, n_channels) -> str:
    atoms = []
    for _ in range(rng.randint(1, 2)):
        fields = [rng.choice(locations)]
        fields += [_random_regex(rng, symbols) for _ in range(n_channels)]
        atoms.append("(%s)" % "; ".join(fields))
    return " + ".join(atoms)


def random_model_text(rng: random.Random, game: bool,
                      n_channels: int) -> Tuple[str, dict]:
    """A small random model: 2-4 locations, at most 6 rules, about 30 %
    of rules guarded.  Every location gets one unguarded
    non-receiving rule, so no configuration deadlocks; game models
    alternate owners along every rule."""
    n_loc = rng.randint(2, 4)
    locations = ["q%d" % i for i in range(n_loc)]
    owners = {loc: "AB"[i % 2] for i, loc in enumerate(locations)}
    channels = ["c%d" % i for i in range(n_channels)]
    symbols = ["a", "b", "e"][:rng.randint(2, 3)]

    def target_of(src):
        if not game:
            return rng.choice(locations)
        return rng.choice([loc for loc in locations if owners[loc] != owners[src]])

    def op(kinds):
        kind = rng.choice(kinds) if channels else "nop"
        if kind == "nop":
            return "nop"
        return "%s%s%s" % (rng.choice(channels), "!" if kind == "send" else "?",
                           rng.choice(symbols))

    rules = []
    for src in locations:
        rules.append("rule %s -> %s : %s" % (src, target_of(src), op(("nop", "send"))))
    for _ in range(rng.randint(0, 6 - n_loc)):
        src = rng.choice(locations)
        line = "rule %s -> %s : %s" % (src, target_of(src),
                                       op(("nop", "send", "recv", "recv")))
        if rng.random() < 0.3:
            fields = [src] + [_random_regex(rng, symbols) for _ in channels]
            line += " guard (%s)" % "; ".join(fields)
        rules.append(line)
    decl = " ".join("%s[%s]" % (loc, owners[loc]) if game else loc for loc in locations)
    lines = ["alphabet: %s" % " ".join(symbols)]
    if channels:
        lines.append("channels: %s" % " ".join(channels))
    lines.append("locations: %s" % decl)
    lines += rules
    info = {"locations": locations, "symbols": symbols, "n_channels": n_channels}
    return "\n".join(lines) + "\n", info


def random_mix_queries(seed: int, count: int = 150) -> List[Query]:
    """Games, channel counts (0-2) and properties follow a fixed rotation,
    so every seed asks the same mix of questions; the seed draws the
    models, regions and configurations."""
    rng = random.Random("random-mix-%d" % seed)
    out = []
    for idx in range(count):
        game = idx % 2 == 1
        nch = (idx // 2) % 3
        text, info = random_model_text(rng, game, nch)
        locs, syms = info["locations"], info["symbols"]
        props = GAME_PROPS + PLAIN_PROPS if game else PLAIN_PROPS
        if nch > 1:
            # the perfect-step term of asym-reach-B can take tens of seconds
            # on two channels (29 s on one three-location model), far outside
            # this workload
            props = tuple(p for p in props if p != "asym-reach-B")
        prop = props[(idx // 6) % len(props)]
        player = rng.choice("AB") if prop.startswith(("game-", "prob-")) else None
        if prop == "asym-reach-B":
            player = "B"
        comp = None
        if prop in DUAL_PROPS:
            target, comp = _closed_target(rng, locs, syms, nch)
        else:
            target = _random_target(rng, locs, syms, nch)
        cond = None
        if prop in ("release", "ctl"):
            cond = _random_target(rng, locs, syms, nch)
        if prop == "ctl":
            # E(P U Q) over two named regions declared in the model text
            text += "region P = %s\nregion Q = %s\n" % (cond, target)
        out.append(Query("mix-%03d/%s" % (idx, prop), text, prop, target,
                         player=player, cond=cond, target_complement=comp,
                         members=random_configs(rng, locs, syms, nch, 1, max_len=2)))
    return out


WORKLOADS = {
    "abp-prestar": abp_queries,
    "relay-games": relay_queries,
    "random-mix": random_mix_queries,
}


def workload_queries(name: str, seed: int) -> List[Query]:
    if name not in WORKLOADS:
        raise KeyError("unknown workload %r" % (name,))
    return WORKLOADS[name](seed)
