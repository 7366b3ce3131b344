"""Deliberately naive reference implementations used by the tests.

Everything here recomputes definitions by direct enumeration or search,
running automata, words and steps itself, so a disagreement points at
the engine.  It shares only its inputs: a model's rules and owners, and
a region read as `Region.summands` (products of channel languages, from
`regions._decompose`).  Both bounded searches read one layered
exploration that expands exactly `depth` steps.  Never imported by the
engine modules.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Optional, Set

from .automata import EPSILON, Alphabet, Nfa, Word
from .errors import WsmcError
from .model import GlcsModel, RECV, SEND
from .regions import Config, Region
from . import terms

MAX_LEN_CAP = 8
MAX_LOSSY_SYMBOLS = 16
MAX_EXPLORED = 5000  # configurations one bounded search may reach


class OracleError(WsmcError):
    pass


# -- plain NFA simulation ----------------------------------------------

def _eps_close(nfa: Nfa, states: Set[int]) -> FrozenSet[int]:
    out = set(states)
    changed = True
    while changed:
        changed = False
        for (p, a, q) in nfa.transitions:
            if a is EPSILON and p in out and q not in out:
                out.add(q)
                changed = True
    return frozenset(out)


def _sym_step(nfa: Nfa, states: FrozenSet[int], sym: str) -> FrozenSet[int]:
    out = set()
    for (p, a, q) in nfa.transitions:
        if a == sym and p in states:
            out.add(q)
    return _eps_close(nfa, out)


def nfa_accepts(nfa: Nfa, word: Word) -> bool:
    states = _eps_close(nfa, set(nfa.initial))
    for sym in word:
        states = _sym_step(nfa, states, sym)
    return bool(states & nfa.accepting)


def enum_words(alphabet: Alphabet, max_len: int) -> List[Word]:
    if max_len > MAX_LEN_CAP:
        raise OracleError("word length bound %d exceeds the cap of %d"
                          % (max_len, MAX_LEN_CAP))
    out: List[Word] = []
    for n in range(max_len + 1):
        out.extend(itertools.product(alphabet.symbols, repeat=n))
    return out


def language_slice(nfa: Nfa, max_len: int) -> Set[Word]:
    return {w for w in enum_words(nfa.alphabet, max_len) if nfa_accepts(nfa, w)}


# -- the subword order -------------------------------------------------

def is_subword(u: Word, v: Word) -> bool:
    it = iter(v)
    return all(sym in it for sym in u)


def subwords(w: Word) -> Set[Word]:
    out = {()}
    for sym in w:
        out |= {prefix + (sym,) for prefix in out}
    return out


def _superword_search(nfa: Nfa, w: Word, want_accepting: bool) -> bool:
    """Is there a superword of w whose NFA run status matches?

    Breadth-first search over pairs (position in w, active state set):
    either consume the next letter of w or insert an arbitrary letter.
    """
    start = (0, _eps_close(nfa, set(nfa.initial)))
    seen = {start}
    queue = [start]
    while queue:
        (i, states) = queue.pop(0)
        if i == len(w) and bool(states & nfa.accepting) == want_accepting:
            return True
        moves = []
        if i < len(w):
            moves.append((i + 1, _sym_step(nfa, states, w[i])))
        for sym in nfa.alphabet.symbols:
            moves.append((i, _sym_step(nfa, states, sym)))
        for node in moves:
            if node not in seen:
                seen.add(node)
                queue.append(node)
    return False


def in_up_closure(nfa: Nfa, w: Word) -> bool:
    return any(nfa_accepts(nfa, u) for u in subwords(w))


def in_down_closure(nfa: Nfa, w: Word) -> bool:
    return _superword_search(nfa, w, want_accepting=True)


def in_up_kernel(nfa: Nfa, w: Word) -> bool:
    return not _superword_search(nfa, w, want_accepting=False)


def in_down_kernel(nfa: Nfa, w: Word) -> bool:
    return all(nfa_accepts(nfa, u) for u in subwords(w))


# -- word operations on explicit sets -----------------------------------

def _interleavings(u: Word, v: Word) -> Set[Word]:
    if not u:
        return {v}
    if not v:
        return {u}
    first = {(u[0],) + rest for rest in _interleavings(u[1:], v)}
    second = {(v[0],) + rest for rest in _interleavings(u, v[1:])}
    return first | second


def concat(a: Set[Word], b: Set[Word], max_len: int) -> Set[Word]:
    """The words uv of length at most max_len, u in a and v in b."""
    return {u + v for u in a for v in b if len(u) + len(v) <= max_len}


def star(a: Set[Word], max_len: int) -> Set[Word]:
    """The concatenations of words of a, up to length max_len."""
    out = {()}
    frontier = {()}
    while frontier:
        frontier = concat(frontier, a, max_len) - out
        out |= frontier
    return out


def shuffle(a: Set[Word], b: Set[Word], max_len: int) -> Set[Word]:
    """The interleavings of u in a and v in b, up to length max_len."""
    out = set()
    for u in a:
        for v in b:
            if len(u) + len(v) <= max_len:
                out |= _interleavings(u, v)
    return out


def left_residual(a: Set[Word], b: Set[Word]) -> Set[Word]:
    """{v | u in a, uv in b}."""
    return {w[len(u):] for u in a for w in b if w[:len(u)] == u}


def right_residual(a: Set[Word], b: Set[Word]) -> Set[Word]:
    """{u | v in b, uv in a}."""
    return {w[:len(w) - len(v)] for v in b for w in a
            if len(w) >= len(v) and w[len(w) - len(v):] == v}


# -- region membership without the region algebra -----------------------

def region_member(region: Region, config: Config) -> bool:
    for p in region.summands:
        if p.location != config.location:
            continue
        if all(nfa_accepts(lang, w)
               for lang, w in zip(p.channel_langs, config.contents)):
            return True
    return False


# -- explicit steps ------------------------------------------------------

def perfect_successors(model: GlcsModel, config: Config) -> List[Config]:
    out = []
    for rule in model.rules:
        if rule.source != config.location:
            continue
        if rule.guard is not None and not region_member(rule.guard, config):
            continue
        contents = list(config.contents)
        if rule.kind == SEND:
            i = model.channels.index(rule.channel)
            contents[i] = contents[i] + (rule.symbol,)
        elif rule.kind == RECV:
            i = model.channels.index(rule.channel)
            if not contents[i] or contents[i][0] != rule.symbol:
                continue
            contents[i] = contents[i][1:]
        out.append(Config(rule.target, tuple(contents)))
    return out


def lossy_successors(model: GlcsModel, config: Config) -> Set[Config]:
    """Every subword combination of every perfect successor; refused when
    a successor's channels hold more than MAX_LOSSY_SYMBOLS symbols, since
    a word's distinct subwords grow exponentially with its length."""
    out = set()
    for succ in perfect_successors(model, config):
        total = sum(len(w) for w in succ.contents)
        if total > MAX_LOSSY_SYMBOLS:
            raise OracleError("a successor of %s holds %d channel symbols, over "
                              "the cap of %d" % (config.location, total,
                                                 MAX_LOSSY_SYMBOLS))
        channel_subs = [sorted(subwords(w)) for w in succ.contents]
        for combo in itertools.product(*channel_subs) if channel_subs else [()]:
            out.add(Config(succ.location, tuple(combo)))
    return out


def _check_depth(depth: int):
    if depth < 0:
        raise OracleError("search depth must be nonnegative, got %d" % depth)


def _layers(model: GlcsModel, start: Config, depth: int,
            succ: Dict[Config, Set[Config]]):
    """The configurations first reached in 0, 1, ..., depth lossy steps,
    one layer at a time.  A layer is yielded before it is expanded, each
    of its configurations keyed in succ to its successors; the layer at
    `depth` is never expanded.  Refused once the search reaches more than
    MAX_EXPLORED configurations, since a layer can grow exponentially."""
    layer, seen = {start}, {start}
    for _ in range(depth):
        yield layer
        expanded, layer = layer, set()
        for c in expanded:
            succ[c] = lossy_successors(model, c)
            layer |= succ[c] - seen
            if len(seen) + len(layer) > MAX_EXPLORED:
                raise OracleError("the search from %s reaches more than the cap of "
                                  "%d configurations" % (start.location, MAX_EXPLORED))
        seen |= layer
        if not layer:
            return
    yield layer


def bounded_reach(model: GlcsModel, start: Config, target: Region,
                  depth: int) -> str:
    """BFS over at most `depth` lossy steps; "reachable" is definitive,
    "unknown" is not."""
    _check_depth(depth)
    for layer in _layers(model, start, depth, {}):
        if any(region_member(target, c) for c in layer):
            return "reachable"
    return "unknown"


def bounded_game(model: GlcsModel, start: Config, target: Region,
                 reacher: str = "A", depth: int = 8) -> str:
    """Reachability game verdict from the reacher's attractor of the target.

    Explores the lossy-step arena up to `depth`, then grows the winning
    set from the target: a reacher configuration joins when one successor
    wins, an avoider one when every successor wins (so a stuck avoider
    loses, as under wpre).  If the exploration closed (every configuration
    it saw was expanded) the attractor grows to convergence and a start
    outside it is the avoider's; otherwise it grows for `depth` rounds
    and anything but a reacher win is "unknown".
    """
    _check_depth(depth)
    for loc in model.locations:
        if model.owners.get(loc) is None:
            raise OracleError("location %s has no owner, so the game has no "
                              "player to move there" % loc)
    avoider = "B" if reacher == "A" else "A"
    succ: Dict[Config, Set[Config]] = {}
    seen = set().union(*_layers(model, start, depth, succ))
    closed = len(succ) == len(seen)
    winning = {c for c in seen if region_member(target, c)}

    def joins(c: Config) -> bool:
        if model.owners[c.location] == reacher:
            return bool(succ[c] & winning)
        return succ[c] <= winning

    for _ in itertools.count() if closed else range(depth):
        joining = {c for c in succ if c not in winning and joins(c)}
        if not joining:
            break
        winning |= joining
    if start in winning:
        return "win_%s" % reacher
    return "win_%s" % avoider if closed else "unknown"


# -- explicit-state model checking for zero-channel models ---------------

def finite_mc(model: GlcsModel, term: terms.Term,
              env: Optional[Dict[str, FrozenSet[str]]] = None,
              consts: Optional[Dict[str, FrozenSet[str]]] = None) -> FrozenSet[str]:
    """Knaster-Tarski evaluation over the finite powerset of locations.

    Only for models without channels, where all four closure and kernel
    operators are the identity and the lattice is finite, so arbitrary
    (even unguarded) fixpoints converge by plain iteration.
    """
    if model.channels:
        raise OracleError("finite_mc needs a zero-channel model")
    locations = frozenset(model.locations)
    edges = [(p, q.location) for p in locations
             for q in perfect_successors(model, Config(p, ()))]

    def pre(s):
        return frozenset(p for (p, q) in edges if q in s)

    def post(s):
        return frozenset(q for (p, q) in edges if p in s)

    def wpre(s):
        return locations - pre(locations - s)

    def const(region):
        return frozenset(p.location for p in region.summands)

    operators = {
        "empty": lambda: frozenset(),
        "all": lambda: locations,
        "pre": pre, "prep": pre,
        "post": post, "postp": post,
        "wpre": wpre, "wprep": wpre,
        "confA": lambda: frozenset(model.player_locations("A")),
        "confB": lambda: frozenset(model.player_locations("B")),
    }
    for owner in ("A", "B"):  # an owner's step, such as preA, is confA & pre
        conf = operators["conf" + owner]()
        for step in ("pre", "prep", "wpre", "wprep"):
            operators[step + owner] = lambda s, f=operators[step], conf=conf: conf & f(s)
    for name, region in model.named_regions.items():
        operators[name] = (lambda region=region: const(region))
    for name, locs in (consts or {}).items():
        operators[name] = (lambda locs=frozenset(locs): locs)

    def ev(node, env):
        kind = node.kind
        if kind == "var":
            return env[node.name]
        if kind in terms.BINDERS:
            current = frozenset() if kind == "mu" else locations
            for _ in range(2 ** len(locations) + 2):
                inner = dict(env)
                inner[node.name] = current
                nxt = ev(node.args[0], inner)
                if nxt == current:
                    return current
                current = nxt
            raise OracleError("fixpoint iteration did not converge")
        args = [ev(a, env) for a in node.args]
        if kind == "opapp":
            if node.name in operators:
                return operators[node.name](*args)
            raise OracleError("unknown operator %r" % (node.name,))
        if kind == "union":
            return args[0] | args[1]
        if kind == "intersection":
            return args[0] & args[1]
        if kind == "not":
            return locations - args[0]
        return args[0]  # up, down, kup, kdown: the identity without channels

    return ev(term, dict(env or {}))
