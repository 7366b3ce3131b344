"""Regions: finite sums of location-tagged products of channel languages.

A region denotes a subset of Conf = locations x (words)^channels.  All
operations are pure and return regions in a normal form that depends
only on the denoted set, so equal regions print identically.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from . import automata
from .automata import Alphabet, CanonicalDfa, Nfa, Word
from .errors import WsmcError

SEPARATOR = "#"  # fresh symbol for the per-location equality encoding


class RegionError(WsmcError):
    pass


@dataclass(frozen=True)
class Signature:
    """Typing context for regions: alphabet, channel order, locations."""

    alphabet: Alphabet
    channels: Tuple[str, ...]
    locations: Tuple[str, ...]

    def check_location(self, loc: str):
        if loc not in self.locations:
            raise RegionError("unknown location %r" % (loc,))


@dataclass(frozen=True)
class Product:
    location: str
    channel_langs: Tuple[Nfa, ...]


Row = Tuple[Nfa, ...]  # one language per channel


@dataclass(frozen=True)
class Region:
    summands: Tuple[Product, ...]


@dataclass(frozen=True)
class Config:
    """One concrete configuration: location plus one word per channel."""

    location: str
    contents: Tuple[Word, ...]


class _RowSet:
    """The normal form of one location's set of rows: the rows in order,
    the minimal encoding DFA of their union (None for a set first met as
    a complement, whose own complement is known), and the complement's
    _RowSet once asked for."""

    __slots__ = ("rows", "dfa", "complement")

    def __init__(self, rows: Tuple[Row, ...], dfa: Optional[CanonicalDfa]):
        self.rows = rows
        self.dfa = dfa
        self.complement: Optional[_RowSet] = None


class RegionSpace:
    """The effective region algebra for one model signature.

    Every result is in normal form (see normalize).  Normal forms are
    memoized per space, keyed on a location's set of rows of channel
    languages; the key leaves out the location, since the normal rows do
    not depend on it.  Each entry keeps its encoding DFA and complement.
    The memo is never evicted.
    """

    def __init__(self, signature: Signature):
        self.signature = signature
        self._sigma_star = automata.canonical_nfa(Nfa.universal(signature.alphabet))
        self._ext_alphabet = signature.alphabet.extend(SEPARATOR)
        self._normal: Dict[FrozenSet[Row], _RowSet] = {}

    # -- constructors ---------------------------------------------------

    def empty(self) -> Region:
        return Region(())

    def full(self) -> Region:
        return Region(tuple(self._full_product(q) for q in self.signature.locations))

    def _full_product(self, loc: str) -> Product:
        n = len(self.signature.channels)
        return Product(loc, tuple(self._sigma_star for _ in range(n)))

    def atom(self, loc: str, langs: Tuple[Nfa, ...]) -> Region:
        self.signature.check_location(loc)
        if len(langs) != len(self.signature.channels):
            raise RegionError("expected %d channel languages, got %d"
                              % (len(self.signature.channels), len(langs)))
        return Region((Product(loc, tuple(langs)),))

    def location_region(self, locs) -> Region:
        return Region(tuple(self._full_product(q)
                            for q in self.signature.locations if q in locs))

    def config_region(self, config: Config) -> Region:
        langs = tuple(Nfa.word(self.signature.alphabet, w) for w in config.contents)
        return self.atom(config.location, langs)

    # -- boolean operations ---------------------------------------------

    def _check(self, r: Region):
        n = len(self.signature.channels)
        for p in r.summands:
            self.signature.check_location(p.location)
            if len(p.channel_langs) != n:
                raise RegionError("summand channel count mismatch")

    def union(self, a: Region, b: Region) -> Region:
        self._check(a)
        self._check(b)
        return self.normalize(Region(a.summands + b.summands))

    def meet(self, a: Region, b: Region) -> Region:
        """The intersection of a and b, summand by summand, not normalized."""
        self._check(a)
        self._check(b)
        return Region(tuple(
            Product(p.location, tuple(automata.intersection(x, y)
                                      for x, y in zip(p.channel_langs, q.channel_langs)))
            for p in a.summands for q in b.summands if p.location == q.location))

    def intersection(self, a: Region, b: Region) -> Region:
        return self.normalize(self.meet(a, b))

    def complement(self, a: Region) -> Region:
        """Per location: flip the accepting states of the encoding DFA and
        decompose (a location without summands has an empty encoding, so
        it becomes a full product).  Memoized both ways per row set."""
        self._check(a)
        rows = self._rows_by_location(a)
        return Region(tuple(
            Product(loc, row) for loc in self.signature.locations
            for row in self._complement(self._row_set(rows.get(loc, ()))).rows))

    def _complement(self, entry: _RowSet) -> _RowSet:
        if entry.complement is None:
            dfa = entry.dfa
            flipped = set(range(dfa.n_states)).difference(dfa.accepting)
            other = self._remember(self._decompose(dfa, flipped), None)
            entry.complement, other.complement = other, entry
        return entry.complement

    def difference(self, a: Region, b: Region) -> Region:
        return self.intersection(a, self.complement(b))

    # -- closures and kernels -------------------------------------------

    def _map_components(self, a: Region, fn) -> Region:
        out = tuple(Product(p.location, tuple(fn(lang) for lang in p.channel_langs))
                    for p in a.summands)
        return self.normalize(Region(out))

    def up_closure(self, a: Region) -> Region:
        return self._map_components(a, automata.up_closure)

    def down_closure(self, a: Region) -> Region:
        return self._map_components(a, automata.down_closure)

    def up_kernel(self, a: Region) -> Region:
        return self.complement(self.down_closure(self.complement(a)))

    def down_kernel(self, a: Region) -> Region:
        return self.complement(self.up_closure(self.complement(a)))

    # -- decisions ------------------------------------------------------

    def is_empty(self, a: Region) -> bool:
        self._check(a)
        return all(any(automata.is_empty(lang) for lang in p.channel_langs)
                   for p in a.summands)

    def member(self, config: Config, a: Region) -> bool:
        self._check(a)
        if len(config.contents) != len(self.signature.channels):
            raise RegionError("config channel count mismatch")
        for p in a.summands:
            if p.location != config.location:
                continue
            if all(lang.accepts(w) for lang, w in zip(p.channel_langs, config.contents)):
                return True
        return False

    def equal(self, a: Region, b: Region) -> bool:
        return self.normalize(a) == self.normalize(b)

    def subset(self, a: Region, b: Region) -> bool:
        return self.union(a, b) == self.normalize(b)

    def is_universal(self, a: Region) -> bool:
        return self.equal(a, self.full())

    # -- normal form ----------------------------------------------------

    def normalize(self, a: Region) -> Region:
        """The normal form of a: equal regions normalize to equal values.

        Per location, the summands are the Myhill-Nerode decomposition
        (see _decompose) of the minimal DFA of the location's encoding,
        with components interned and summands in a fixed order.
        """
        self._check(a)
        rows = self._rows_by_location(a)
        return Region(tuple(Product(loc, row)
                            for loc in self.signature.locations if loc in rows
                            for row in self._row_set(rows[loc]).rows))

    def _rows_by_location(self, a: Region) -> Dict[str, List[Row]]:
        rows: Dict[str, List[Row]] = {}
        for p in a.summands:
            rows.setdefault(p.location, []).append(p.channel_langs)
        return rows

    def _row_set(self, rows) -> _RowSet:
        """The memo entry of the normal form of a set of rows."""
        entry = self._normal.get(frozenset(rows))
        if entry is None:
            key = frozenset(tuple(automata.canonical_nfa(lang) for lang in row)
                            for row in rows)
            entry = self._normal.get(key)
            if entry is None:
                dfa = self._encoding(key)
                entry = self._normal[key] = self._remember(
                    self._decompose(dfa, dfa.accepting), dfa)
        return entry

    def _remember(self, rows: List[Row], dfa: Optional[CanonicalDfa]) -> _RowSet:
        """Order normal-form rows and memoize them as their own normal form."""
        rows = tuple(sorted(rows, key=_row_order))
        return self._normal.setdefault(frozenset(rows), _RowSet(rows, dfa))

    def _encoding(self, rows) -> CanonicalDfa:
        """Minimal DFA, over the separator-extended alphabet, of the union
        of L1 # L2 # ... # Lc over the rows (L1, ..., Lc).

        The channel languages never contain the separator, so a word
        with exactly c - 1 separators encodes one configuration.
        """
        n = 0
        initial, accepting, trans = [], [], []
        for row in rows:
            ends = None
            for lang in row:
                starts = [q + n for q in lang.initial]
                if ends is None:
                    initial.extend(starts)
                else:
                    trans.extend((p, SEPARATOR, q) for p in ends for q in starts)
                # states that can only loop without accepting are dead
                moving = {p for (p, _, q) in lang.transitions if p != q}
                trans.extend((p + n, x, q + n) for (p, x, q) in lang.transitions
                             if q in moving or q in lang.accepting)
                ends = [q + n for q in lang.accepting]
                n += lang.n_states
            if ends is None:  # no channels: the encoding is the empty word
                initial.append(n)
                ends = [n]
                n += 1
            accepting.extend(ends)
        return automata.minimize(Nfa(self._ext_alphabet, n, frozenset(initial),
                                     frozenset(accepting), tuple(trans)))

    def _decompose(self, dfa: CanonicalDfa, accepting) -> List[Row]:
        """Rows of the products whose encodings dfa accepts with the given
        accepting states.

        From a state s where channel i's block starts, every state t
        entered by a separator gives the rows ({u : s -u#-> t}, *rest)
        for each row rest decomposed at t; the last channel's language
        is {u : s -u-> accepting}.  On a minimal DFA distinct states have
        distinct residuals, so the products are determined by the
        language alone.  Only words with exactly c - 1 separators are
        read, so a DFA whose accepting states were flipped decomposes
        into the complement.
        """
        table = dfa.transitions
        sep = len(self.signature.alphabet.symbols)
        last = len(self.signature.channels) - 1

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
            return automata.intern(automata.minimal_dfa(
                self.signature.alphabet, sub, {ids[q] for q in final}))

        @functools.cache
        def rows_from(s, i):
            states = reach(s)
            if i == last:
                final = states.intersection(accepting)
                return [(channel(s, states, final),)] if final else []
            out = []
            for t in sorted({table[q][sep] for q in states}):
                rest = rows_from(t, i + 1)
                if rest:
                    head = channel(s, states, [q for q in states if table[q][sep] == t])
                    out.extend((head,) + row for row in rest)
            return out

        if last < 0:
            return [()] if 0 in accepting else []
        return rows_from(0, 0)


def _row_order(row: Row):
    """A total order on rows of interned languages that depends only on
    the languages."""
    return tuple((d.n_states, d.transitions, d.accepting)
                 for d in map(automata.canonicalize, row))
