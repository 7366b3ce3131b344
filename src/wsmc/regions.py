"""Regions: regular sets of location-tagged tuples of channel words.

A region denotes a subset of Conf = locations x (words)^channels.  Per
location, the tuples (w1, ..., wc) of the region are encoded as the
words w1 # w2 # ... # wc over the message alphabet plus the separator #,
and the region keeps the canonical form of that language (see
automata.canonicalize).  Equal regions are therefore equal values and print
identically.  The encoding's layout is known here alone: a step of a
channel system edits one channel's block of it (RegionSpace.edit).

Signature, Product, Region and Config are values (values.Value): equal
fields make equal objects, and objects of different classes are never
equal.  A Region hashes on its slices alone and caches its encodings and
summands on first use.
"""

from __future__ import annotations

import functools
from functools import cached_property
from typing import Dict, Optional, Tuple

from . import automata
from .automata import Alphabet, Nfa, Word
from .errors import WsmcError
from .values import Value

SEPARATOR = "#"  # fresh symbol between the channel blocks of an encoding


class RegionError(WsmcError):
    pass


class Signature(Value):
    """Typing context for regions: alphabet, channel order, locations."""

    __slots__ = _fields = ("alphabet", "channels", "locations")

    def __init__(self, alphabet: Alphabet, channels: Tuple[str, ...],
                 locations: Tuple[str, ...]):
        if SEPARATOR in alphabet:
            raise RegionError("alphabet symbol %r is the channel separator of "
                              "region encodings" % (SEPARATOR,))
        self.alphabet = alphabet
        self.channels = channels
        self.locations = locations


class Product(Value):
    __slots__ = _fields = ("location", "channel_langs")

    def __init__(self, location: str, channel_langs: Tuple[Nfa, ...]):
        self.location = location
        self.channel_langs = channel_langs


Row = Tuple[Nfa, ...]  # one language per channel


class Region(Value):
    """Per location with a nonempty slice, in signature order, the
    canonical form of the slice's encoding L1#...#Lc.
    The encodings accept only words with exactly c - 1 separators."""

    _fields = ("signature", "slices")  # no slots: cached_property needs a dict

    def __init__(self, signature: Signature, slices: Tuple[Tuple[str, Nfa], ...]):
        self.signature = signature
        self.slices = slices

    def __hash__(self):
        # equal regions have equal slices; an Nfa hashes by identity
        return hash(self.slices)

    @cached_property
    def encodings(self) -> Dict[str, Nfa]:
        """The slices as a map from location to encoding, built once; it
        is shared, so never modify it."""
        return dict(self.slices)

    @cached_property
    def summands(self) -> Tuple[Product, ...]:
        """The region as a sum of products: per location, the
        Myhill-Nerode decomposition of its encoding DFA (see _decompose)."""
        return tuple(Product(loc, row) for loc, enc in self.slices
                     for row in _decompose(self.signature, enc))


class Config(Value):
    """One concrete configuration: location plus one word per channel."""

    __slots__ = _fields = ("location", "contents")

    def __init__(self, location: str, contents: Tuple[Word, ...]):
        self.location = location
        self.contents = contents


class RegionSpace:
    """The effective region algebra for one model signature.  Every
    operation works location by location on the interned encodings.
    Atoms, unions, intersections, complements, closures and block edits
    of encodings are memoized per space, keyed on the operation and its
    operand encodings (an atom's are its canonical channel languages, so
    a pattern repeated at several locations is encoded once).
    Complements, closures and intersections of whole regions are
    memoized too, under their own tags and keyed on the operands' slices
    (an intersection on their unordered pair), so that one repeated on
    an equal region costs one lookup.  On a miss, a complement is stored
    both ways, and a closure also as the closure of itself.  The memo is
    never evicted.  It keys on the operands, which are interned and
    small.  No operation builds an NFA.  Unions, intersections and
    complements are product walks over the operands' DFAs
    (automata.union_all, intersection, difference); both closures run a
    subset construction off the slice's table (automata.up_closure and
    down_closure, given the message symbols); atoms and block edits
    write tables (see _join and _edit)."""

    def __init__(self, signature: Signature):
        self.signature = signature
        self._ext_alphabet = signature.alphabet.extend(SEPARATOR)
        self._memo: Dict[tuple, object] = {}  # values: encodings or regions
        # every well-formed word: the full slice of a location
        self._all = self._join([automata.canonicalize(Nfa.universal(
            signature.alphabet))] * len(signature.channels))

    def _join(self, langs) -> Nfa:
        """The canonical form of L1 # L2 # ... # Lc for canonical channel
        DFAs Li: their tables end to end from state 1.  A state that
        accepts in Li moves on # to the start of Li+1; every other # move
        goes to the dead state 0.  Without channels, the start state
        accepts the empty tuple alone."""
        rows, ends = [(0,) * len(self._ext_alphabet.symbols)], {1}
        for k, lang in enumerate(langs, 1):
            n = len(rows)
            after = n + lang.n_states if k < len(langs) else 0
            rows.extend(tuple(t + n for t in row) + (after if q in lang.accepting else 0,)
                        for q, row in enumerate(lang.table))
            ends = {q + n for q in lang.accepting}
        if not langs:
            rows.append(rows[0])
        return automata.minimal_dfa(self._ext_alphabet, rows, ends, 1)

    def _region(self, encodings: Dict[str, Nfa]) -> Region:
        """The region of interned encodings per location; empty ones drop out."""
        return Region(self.signature, tuple(
            (loc, encodings[loc]) for loc in self.signature.locations
            if loc in encodings and encodings[loc].accepting))

    def _check(self, a: Region) -> Region:
        """a, once its signature is checked."""
        if a.signature is not self.signature and a.signature != self.signature:
            raise RegionError("region of another signature")
        return a

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
        langs = tuple(map(automata.canonicalize, langs))
        return self._region({loc: self._apply(
            ("atom", langs), lambda: self._join(langs))})

    def location_region(self, locs) -> Region:
        return Region(self.signature, tuple((q, self._all)
                                            for q in self.signature.locations
                                            if q in locs))

    # -- boolean operations ---------------------------------------------

    def union(self, *regions: Region) -> Region:
        """The union of any number of regions: per location where they
        differ, one product walk over the distinct encodings, memoized
        on their set.  The full slice absorbs the others without a walk
        or a memo entry."""
        return self.union_of(pair for r in regions for pair in self._check(r).slices)

    def union_of(self, slices) -> Region:
        """The union of (location, nonempty interned encoding) pairs."""
        parts: Dict[str, set] = {}
        for loc, enc in slices:
            parts.setdefault(loc, set()).add(enc)
        return self._region({
            loc: self._all if self._all in encs
            else next(iter(encs)) if len(encs) == 1
            else self._apply(frozenset(encs), lambda encs=encs: automata.union_all(encs))
            for loc, encs in parts.items()})

    def intersection(self, a: Region, b: Region) -> Region:
        return self._apply(("region &", frozenset((self._check(a).slices,
                                                   self._check(b).slices))),
                           lambda: self._intersection(a, b))

    def _intersection(self, a: Region, b: Region) -> Region:
        """Per location of both, a product walk, unless a slice is the
        other one or the full slice, which meets a slice in that slice."""
        other = b.encodings
        return self._region({
            loc: other[loc] if x is self._all else x if other[loc] in (x, self._all)
            else self._apply(("&", frozenset((x, other[loc]))),
                             lambda x=x, y=other[loc]: automata.intersection(x, y))
            for loc, x in a.slices if loc in other})

    def complement(self, a: Region) -> Region:
        """Per location, the well-formed encodings the slice lacks."""
        def compute():
            slices = a.encodings
            return self._region({loc: self._complement(slices[loc]) if loc in slices
                                 else self._all for loc in self.signature.locations})

        return self._apply(("region ~", self._check(a).slices), compute,
                           lambda other: (("region ~", other.slices), a))

    def _complement(self, enc: Nfa) -> Nfa:
        return self._apply(("~", enc), lambda: automata.difference(self._all, enc),
                           lambda other: (("~", other), enc))

    def _apply(self, key, compute, implied=None):
        """The interned encoding or the region that compute() returns,
        memoized on key.  On a miss, implied(value) gives one more
        (key, value) entry that the result implies, such as the way back
        of a complement."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = compute()
            if implied is not None:
                other_key, other = implied(value)
                self._memo[other_key] = other
        return value

    def difference(self, a: Region, b: Region) -> Region:
        return self.intersection(a, self.complement(b))

    # -- closures and kernels -------------------------------------------

    def _map_encodings(self, a: Region, name: str, closure) -> Region:
        """closure(enc, message symbols) of every encoding, memoized under
        name; without channels there is no block to close."""
        if not self.signature.channels:
            return self.normalize(a)
        symbols = self.signature.alphabet.symbols

        def close(enc):  # a closure is idempotent
            return self._apply((name, enc), lambda: closure(enc, symbols),
                               lambda closed: ((name, closed), closed))

        # a closure of a nonempty slice is nonempty
        tag = "region " + name
        return self._apply((tag, self._check(a).slices), lambda: Region(
            self.signature, tuple((loc, close(enc)) for loc, enc in a.slices)),
            lambda closed: ((tag, closed.slices), closed))

    def up_closure(self, a: Region) -> Region:
        """Superwords in every block: separators stay fixed."""
        return self._map_encodings(a, "up", automata.up_closure)

    def down_closure(self, a: Region) -> Region:
        """Subwords in every block: separators stay fixed."""
        return self._map_encodings(a, "down", automata.down_closure)

    def up_kernel(self, a: Region) -> Region:
        return self.complement(self.down_closure(self.complement(a)))

    def down_kernel(self, a: Region) -> Region:
        return self.complement(self.up_closure(self.complement(a)))

    # -- channel-block edits --------------------------------------------

    def edit(self, a: Region, source: str, target: str, kind: Optional[str],
             channel: Optional[str] = None, symbol: Optional[str] = None) -> Region:
        """The region at target of a's slice at source, edited (see edited)."""
        enc = self._check(a).encodings.get(source)
        return self._region({} if enc is None else {
            target: self.edited(enc, kind, channel, symbol)})

    def edited(self, enc: Nfa, kind: Optional[str], channel: Optional[str] = None,
               symbol: Optional[str] = None) -> Nfa:
        """The slice encoding enc with channel's block edited by symbol as
        kind says: "prepend" it, "behead" (drop a leading one), "append"
        it or "curtail" (drop a trailing one), or kept if kind is None.
        Memoized per (kind, channel, symbol, slice), so rules with the
        same edit share one result per slice."""
        if kind is None:
            return enc
        return self._apply((kind, channel, symbol, enc),
                           lambda: self._edit(enc, kind, channel, symbol))

    def _blocks(self, enc: Nfa):
        """enc's dead state and the live states of each of its blocks (see
        _edit), memoized per slice under its own tag."""
        def compute():  # a block's states read no separator from its entries
            dead, sep = automata.dead_state(enc), len(self.signature.alphabet.symbols)
            blocks, entries = [], [0]
            for _ in self.signature.channels:
                blocks.append(automata.reachable(
                    entries, lambda q: enc.table[q][:sep]) - {dead})
                entries = {enc.table[p][sep] for p in blocks[-1]} - {dead}
            return dead, blocks
        return self._apply(("blocks", enc), compute)

    def _edit(self, enc: Nfa, kind: str, channel: str, symbol: str) -> Nfa:
        """The canonical form of enc with channel's block i edited by
        symbol m (see edited).

        On enc, a minimal DFA, each live state lies in one block: the
        number of separators read to reach it.  Entering at the initial
        state counts as a separator move from START in block -1, and
        accepting as one to END in block c.  behead and curtail redirect
        the separator moves out of block i - 1 and i (a curtail that
        redirects none gives enc back); append moves each state p of
        block i on m to an added copy of its m successor, which takes p's
        separator move, and p loses its own.  Their tables go to
        minimal_dfa.  prepend moves each separator move into a state t of
        block i to a state t' with the one move m to t, or to a rejecting
        state of block i with that row.  This table is minimal, so it is
        only renumbered: a state of block i or later keeps its language
        and one of an earlier block maps it through an injective f (it
        inserts m after a fixed separator); t' has the language m.L(t),
        which only a state of block i with t''s row has too; states of
        different blocks read different numbers of separators.
        """
        table, n, accepting = enc.table, enc.n_states, enc.accepting
        sep, m = len(enc.alphabet.symbols) - 1, enc.alphabet.index(symbol)
        i, START, END = self.signature.channels.index(channel), -1, -2
        dead, blocks = self._blocks(enc)
        seps = {p: END if p in accepting else row[sep] for p, row in enumerate(table)}
        seps[START] = 0
        if kind == "curtail" and all(seps[p] == seps[table[p][m]] for p in blocks[i]):
            return enc
        before, rows = dict(seps), list(table)
        if kind == "append":  # a state of block i moves on m to its added copy
            added = {p: n + k for k, p in enumerate(blocks[i])}
            rows = [row[:m] + (added.get(p, row[m]),) + row[m + 1:]
                    for p, row in enumerate(rows)]
        same_row = ({table[q]: q for q in blocks[i] if q not in accepting}
                    if kind == "prepend" else None)
        into = blocks[i - 1] if i else [START]  # their separator moves enter block i
        for p in into if kind in ("prepend", "behead") else blocks[i]:
            if kind == "prepend" and before[p] != dead:  # p moves to t' (see above)
                row = (dead,) * m + (before[p],) + (dead,) * (sep - m)
                seps[p] = same_row.setdefault(row, len(rows))
                if seps[p] == len(rows):
                    seps[len(rows)] = dead
                    rows.append(row)
            elif kind == "append":  # the copy of p's m successor takes p's separator
                seps[p], seps[added[p]] = dead, before[p]
                rows.append(rows[table[p][m]])
            elif kind == "behead":
                seps[p] = table[seps[p]][m]
            elif kind == "curtail":
                seps[p] = before[table[p][m]]
        rows = [row[:sep] + (dead if seps[p] == END else seps[p],)
                for p, row in enumerate(rows)]
        return (automata.renumbered if kind == "prepend" else automata.minimal_dfa)(
            enc.alphabet, rows, {p for p, t in seps.items() if t == END}, seps[START])

    # -- decisions ------------------------------------------------------

    def is_empty(self, a: Region) -> bool:
        return not self._check(a).slices

    def member(self, config: Config, a: Region) -> bool:
        """Run w1 # ... # wc on the location's encoding DFA."""
        if len(config.contents) != len(self.signature.channels):
            raise RegionError("config channel count mismatch")
        enc = self._check(a).encodings.get(config.location)
        if enc is None or any(SEPARATOR in w for w in config.contents):
            return False
        return enc.accepts(sum(((SEPARATOR,) + tuple(w) for w in config.contents), ())[1:])

    def equal(self, a: Region, b: Region) -> bool:
        return self._check(a).slices == self._check(b).slices

    def subset(self, a: Region, b: Region) -> bool:
        other = self._check(b).encodings
        return all(loc in other and (x is other[loc] or automata.subset(x, other[loc]))
                   for loc, x in self._check(a).slices)

    def is_universal(self, a: Region) -> bool:
        return self.equal(a, self.full())

    def normalize(self, a: Region) -> Region:
        """Every region is in normal form already."""
        return self._check(a)


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

    def channel(s, states, final):
        order = [s] + sorted(states - {s})
        ids = {q: i for i, q in enumerate(order)}
        sub = [[ids[t] for t in table[q][:sep]] for q in order]
        return automata.minimal_dfa(signature.alphabet, sub, {ids[q] for q in final})

    @functools.cache
    def rows_from(s, i):
        states = automata.reachable([s], lambda q: table[q][:sep])
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
