"""Regions: regular sets of location-tagged tuples of channel words.

A region denotes a subset of Conf = locations x (words)^channels.  Per
location, the tuples (w1, ..., wc) of the region are encoded as the
words w1 # w2 # ... # wc over the message alphabet plus the separator #,
and the region keeps the canonical form of that language (see
automata.canonicalize).  Equal regions are therefore equal values and print
identically.  The encoding's layout is known here alone: a step of a
channel system edits one channel's block of it (RegionSpace.edit).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

from . import automata
from .automata import EPSILON, Alphabet, Nfa, Word
from .errors import WsmcError

SEPARATOR = "#"  # fresh symbol between the channel blocks of an encoding


class RegionError(WsmcError):
    pass


@dataclass(frozen=True)
class Signature:
    """Typing context for regions: alphabet, channel order, locations."""

    alphabet: Alphabet
    channels: Tuple[str, ...]
    locations: Tuple[str, ...]

    def __post_init__(self):
        if SEPARATOR in self.alphabet:
            raise RegionError("alphabet symbol %r is the channel separator of "
                              "region encodings" % (SEPARATOR,))


@dataclass(frozen=True)
class Product:
    location: str
    channel_langs: Tuple[Nfa, ...]


Row = Tuple[Nfa, ...]  # one language per channel


@dataclass(frozen=True)
class Region:
    """Per location with a nonempty slice, in signature order, the
    canonical form of the slice's encoding L1#...#Lc.
    The encodings accept only words with exactly c - 1 separators."""

    signature: Signature
    slices: Tuple[Tuple[str, Nfa], ...]

    @cached_property
    def summands(self) -> Tuple[Product, ...]:
        """The region as a sum of products: per location, the
        Myhill-Nerode decomposition of its encoding DFA (see _decompose)."""
        return tuple(Product(loc, row) for loc, enc in self.slices
                     for row in _decompose(self.signature, enc))


@dataclass(frozen=True)
class Config:
    """One concrete configuration: location plus one word per channel."""

    location: str
    contents: Tuple[Word, ...]


class RegionSpace:
    """The effective region algebra for one model signature.  Every
    operation works location by location on the interned encodings.
    Unions, intersections, complements, closures and block edits of
    encodings are memoized per space, keyed on the operation and its
    operand encodings; a complement is stored both ways.  The memo is
    never evicted.  It keys on the operands, which are interned and
    small, so what it computes is minimized with automata.minimize,
    which keeps no NFA it minimized."""

    def __init__(self, signature: Signature):
        self.signature = signature
        self._ext_alphabet = signature.alphabet.extend(SEPARATOR)
        self._memo: Dict[tuple, Nfa] = {}
        sigma_star = Nfa.universal(signature.alphabet)
        # every well-formed word: the full slice of a location
        self._all = automata.minimize(self._join([sigma_star] * len(signature.channels)))

    def _join(self, langs) -> Nfa:
        """An NFA of L1 # L2 # ... # Lc over the extended alphabet."""
        trans, ends, n = [], [0], 1
        for i, lang in enumerate(langs):
            link = SEPARATOR if i else EPSILON
            trans.extend((p, link, q + n) for p in ends for q in lang.initial)
            trans.extend((p + n, x, q + n) for (p, x, q) in lang.transitions)
            ends = [q + n for q in lang.accepting]
            n += lang.n_states
        return Nfa.derived(self._ext_alphabet, n, frozenset([0]), frozenset(ends),
                           tuple(trans))

    def _region(self, encodings: Dict[str, Nfa]) -> Region:
        """The region of interned encodings per location; empty ones drop out."""
        return Region(self.signature, tuple(
            (loc, encodings[loc]) for loc in self.signature.locations
            if loc in encodings and encodings[loc].accepting))

    def _slices(self, a: Region) -> Dict[str, Nfa]:
        if a.signature is not self.signature and a.signature != self.signature:
            raise RegionError("region of another signature")
        return dict(a.slices)

    # -- constructors ---------------------------------------------------

    def empty(self) -> Region:
        return Region(self.signature, ())

    def full(self) -> Region:
        return self.location_region(self.signature.locations)

    def atom(self, loc: str, langs: Tuple[Nfa, ...]) -> Region:
        if loc not in self.signature.locations:
            raise RegionError("unknown location %r" % (loc,))
        if len(langs) != len(self.signature.channels):
            raise RegionError("expected %d channel languages, got %d"
                              % (len(self.signature.channels), len(langs)))
        if any(lang.alphabet != self.signature.alphabet for lang in langs):
            raise RegionError("channel language over another alphabet")
        enc = automata.minimize(self._join(map(automata.canonicalize, langs)))
        return self._region({loc: enc})

    def location_region(self, locs) -> Region:
        return Region(self.signature, tuple((q, self._all)
                                            for q in self.signature.locations
                                            if q in locs))

    def config_region(self, config: Config) -> Region:
        langs = tuple(Nfa.word(self.signature.alphabet, w) for w in config.contents)
        return self.atom(config.location, langs)

    # -- boolean operations ---------------------------------------------

    def union(self, *regions: Region) -> Region:
        """The union of any number of regions, one minimization per
        location where they differ."""
        parts: Dict[str, set] = {}
        for r in regions:
            for loc, enc in self._slices(r).items():
                parts.setdefault(loc, set()).add(enc)
        return self._region({
            loc: next(iter(encs)) if len(encs) == 1 else self._apply(
                frozenset(encs), lambda encs=encs: automata.minimize(
                    functools.reduce(automata.union, encs)))
            for loc, encs in parts.items()})

    def intersection(self, a: Region, b: Region) -> Region:
        other = self._slices(b)
        return self._region({
            loc: x if x is other[loc] else self._apply(
                ("&", frozenset((x, other[loc]))),
                lambda x=x, y=other[loc]: automata.intersection(x, y))
            for loc, x in self._slices(a).items() if loc in other})

    def complement(self, a: Region) -> Region:
        """Per location, the well-formed encodings the slice lacks."""
        slices = self._slices(a)
        return self._region({loc: self._complement(slices[loc]) if loc in slices
                             else self._all for loc in self.signature.locations})

    def _complement(self, enc: Nfa) -> Nfa:
        other = self._apply(("~", enc), lambda: automata.difference(self._all, enc))
        self._memo[("~", other)] = enc
        return other

    def _apply(self, key, compute) -> Nfa:
        """The interned encoding that compute() returns, memoized on key."""
        enc = self._memo.get(key)
        if enc is None:
            enc = self._memo[key] = compute()
        return enc

    def difference(self, a: Region, b: Region) -> Region:
        return self.intersection(a, self.complement(b))

    # -- closures and kernels -------------------------------------------

    def _map_encodings(self, a: Region, name: str, extra) -> Region:
        """Add extra(enc) to the transitions of every encoding, memoized
        under name; without channels there is no block to close."""
        if not self.signature.channels:
            return self.normalize(a)
        return self._region({
            loc: self._apply((name, enc), lambda enc=enc: automata.minimize(Nfa.derived(
                self._ext_alphabet, enc.n_states, enc.initial, enc.accepting,
                enc.transitions + extra(enc))))
            for loc, enc in self._slices(a).items()})

    def up_closure(self, a: Region) -> Region:
        """Superwords in every block: a self-loop on every message symbol
        at every state; separators stay fixed."""
        symbols = self.signature.alphabet.symbols
        return self._map_encodings(a, "up", lambda enc: tuple(
            (q, x, q) for q in range(enc.n_states) for x in symbols))

    def down_closure(self, a: Region) -> Region:
        """Subwords in every block: an epsilon move beside every message
        move; separators stay fixed."""
        return self._map_encodings(a, "down", lambda enc: tuple(
            (p, EPSILON, q) for (p, x, q) in enc.transitions if x != SEPARATOR))

    def up_kernel(self, a: Region) -> Region:
        return self.complement(self.down_closure(self.complement(a)))

    def down_kernel(self, a: Region) -> Region:
        return self.complement(self.up_closure(self.complement(a)))

    # -- channel-block edits --------------------------------------------

    def edit(self, a: Region, source: str, target: str, kind: Optional[str],
             channel: Optional[str] = None, symbol: Optional[str] = None) -> Region:
        """The region at target of a's slice at source, with channel's
        block edited by symbol as kind says: "prepend" it, "behead" (drop
        a leading one), "append" it or "curtail" (drop a trailing one), or
        kept if kind is None.  Memoized per (kind, channel, symbol, slice),
        so rules with the same edit share one result per slice."""
        enc = self._slices(a).get(source)
        if enc is None:
            return self.empty()
        if kind is not None:
            enc = self._apply((kind, channel, symbol, enc), lambda: automata.minimize(
                self._edit(enc, kind, channel, symbol)))
        return self._region({target: enc})

    def _edit(self, enc: Nfa, kind: str, channel: str, symbol: str) -> Nfa:
        """An NFA of enc with channel's block i edited by symbol m (see edit).

        On enc, a minimal DFA, each live state lies in one block: the
        number of separators read to reach it.  Entering at the initial
        state counts as a separator move from START in block -1, and
        accepting as one to END in block c, so every block starts and
        ends at separator moves.  The dead state stays dead.
        """
        table, symbols, n = enc.table, enc.alphabet.symbols, enc.n_states
        sep, m = len(symbols) - 1, enc.alphabet.index(symbol)
        i, START, END = self.signature.channels.index(channel), -1, -2
        block, stack = {START: -1, END: len(self.signature.channels), 0: 0}, [0]
        while stack:
            p = stack.pop()
            for x, t in enumerate(table[p]):
                if t not in block:
                    block[t] = block[p] + (x == sep)
                    stack.append(t)
        moves = [(p, x, t) for p in range(n) for x, t in enumerate(table[p][:sep])]
        seps = {p: row[sep] for p, row in enumerate(table)}
        seps.update((p, END) for p in enc.accepting)  # their separators are dead
        seps[START] = 0
        before = dict(seps)
        for p in [p for p in before if block[p] == i - (kind in ("prepend", "behead"))]:
            if kind == "prepend":  # separator moves into block i
                moves.append((n, m, seps[p]))
                seps[p], n = n, n + 1
            elif kind == "behead":
                seps[p] = table[seps[p]][m]
            elif kind == "append":  # separator moves out of block i
                moves.append((p, m, n))
                seps[n], n = seps.pop(p), n + 1
            else:
                seps[p] = before[table[p][m]]
        trans = [(p, symbols[x], t) for (p, x, t) in moves]
        trans.extend((p, symbols[sep], t) for p, t in seps.items() if p >= 0 <= t)
        return Nfa.derived(enc.alphabet, n, frozenset([seps[START]]),
                           frozenset(p for p, t in seps.items() if t == END),
                           tuple(trans))

    # -- decisions ------------------------------------------------------

    def is_empty(self, a: Region) -> bool:
        return not self._slices(a)

    def member(self, config: Config, a: Region) -> bool:
        """Run w1 # ... # wc on the location's encoding DFA."""
        if len(config.contents) != len(self.signature.channels):
            raise RegionError("config channel count mismatch")
        enc = self._slices(a).get(config.location)
        if enc is None or any(SEPARATOR in w for w in config.contents):
            return False
        return enc.accepts(sum(((SEPARATOR,) + tuple(w) for w in config.contents), ())[1:])

    def equal(self, a: Region, b: Region) -> bool:
        return self._slices(a) == self._slices(b)

    def subset(self, a: Region, b: Region) -> bool:
        other = self._slices(b)
        return all(loc in other and (x is other[loc] or automata.subset(x, other[loc]))
                   for loc, x in self._slices(a).items())

    def is_universal(self, a: Region) -> bool:
        return self.equal(a, self.full())

    def normalize(self, a: Region) -> Region:
        """Every region is in normal form already."""
        self._slices(a)
        return a


@functools.cache
def _decompose(signature: Signature, enc: Nfa) -> Tuple[Row, ...]:
    """Rows of the products whose encodings enc accepts, in an order
    that depends only on the languages; computed once per encoding.

    From a state s where channel i's block starts, every state t entered
    by a separator gives the rows ({u : s -u#-> t}, *rest) for each row
    rest decomposed at t; the last channel's language is
    {u : s -u-> accepting}.  On a minimal DFA distinct states have
    distinct residuals, so the products are determined by the language
    alone.
    """
    table = enc.table
    sep = len(signature.alphabet.symbols)
    last = len(signature.channels) - 1

    def reach(s):
        seen = {s}
        stack = [s]
        while stack:
            for t in table[stack.pop()][:sep]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    def channel(s, states, final):
        order = [s] + sorted(states - {s})
        ids = {q: i for i, q in enumerate(order)}
        sub = [[ids[t] for t in table[q][:sep]] for q in order]
        return automata.minimal_dfa(signature.alphabet, sub, {ids[q] for q in final})

    @functools.cache
    def rows_from(s, i):
        states = reach(s)
        if i == last:
            final = states.intersection(enc.accepting)
            return [(channel(s, states, final),)] if final else []
        out = []
        for t in sorted({table[q][sep] for q in states}):
            rest = rows_from(t, i + 1)
            if rest:
                head = channel(s, states, [q for q in states if table[q][sep] == t])
                out.extend((head,) + row for row in rest)
        return out

    rows = rows_from(0, 0) if last >= 0 else [()] if 0 in enc.accepting else []
    return tuple(sorted(rows, key=_row_order))


def _row_order(row: Row):
    """A total order on rows of interned languages that depends only on
    the languages."""
    return tuple((d.n_states, d.table, tuple(sorted(d.accepting))) for d in row)
