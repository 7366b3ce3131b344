"""Finite-automaton engine over a fixed message alphabet.

This is the word-level region algebra: NFAs with epsilon transitions,
the usual boolean and rational operations, subword closures/kernels,
and a canonical form: one interned Nfa per language, its minimal DFA
with its table, memoized so that each distinct NFA is minimized once
per process.  The binary boolean operations, the residuals and the
decisions run on the operands' canonical forms; only the rational
constructions and the closures build NFAs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .errors import WsmcError

Word = Tuple[str, ...]

EPSILON = None  # transition label for epsilon moves


class AutomatonError(WsmcError):
    pass


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of message symbols.

    The order is significant: canonical DFA state numbering follows it.
    """

    symbols: Tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise AutomatonError("alphabet must be nonempty")
        if len(set(self.symbols)) != len(self.symbols):
            raise AutomatonError("alphabet symbols must be distinct")

    def __contains__(self, sym: str) -> bool:
        return sym in self.symbols

    def index(self, sym: str) -> int:
        return self.symbols.index(sym)

    def extend(self, extra: str) -> "Alphabet":
        return Alphabet(self.symbols + (extra,))


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic finite automaton with epsilon transitions.

    States are dense indices 0..n_states-1.  Transitions are triples
    (src, symbol-or-None, dst); None is epsilon.  A canonical form (see
    canonicalize) also keeps its table[state][symbol index] -> state,
    which takes no part in equality or hashing; other Nfas have None.
    """

    alphabet: Alphabet
    n_states: int
    initial: frozenset
    accepting: frozenset
    transitions: Tuple[Tuple[int, Optional[str], int], ...]
    table: Optional[Tuple[Tuple[int, ...], ...]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for (p, a, q) in self.transitions:
            if a is not EPSILON and a not in self.alphabet:
                raise AutomatonError("transition symbol %r not in alphabet" % (a,))
            if not (0 <= p < self.n_states and 0 <= q < self.n_states):
                raise AutomatonError("transition endpoint out of range")

    @classmethod
    def derived(cls, alphabet: Alphabet, n_states: int, initial: frozenset,
                accepting: frozenset, transitions, table=None) -> "Nfa":
        """An Nfa built from automata that are already valid, so it is
        not checked again."""
        nfa = object.__new__(cls)
        nfa.__dict__.update(alphabet=alphabet, n_states=n_states, initial=initial,
                            accepting=accepting, transitions=transitions, table=table)
        return nfa

    # Intern-table keys are hashed on every lookup: hash the fields once.
    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.alphabet, self.n_states, self.initial, self.accepting,
                     self.transitions))

    # -- convenience constructors -------------------------------------

    @staticmethod
    def empty(alphabet: Alphabet) -> "Nfa":
        return Nfa(alphabet, 1, frozenset([0]), frozenset(), ())

    @staticmethod
    def epsilon(alphabet: Alphabet) -> "Nfa":
        return Nfa(alphabet, 1, frozenset([0]), frozenset([0]), ())

    @staticmethod
    def universal(alphabet: Alphabet) -> "Nfa":
        trans = tuple((0, a, 0) for a in alphabet.symbols)
        return Nfa(alphabet, 1, frozenset([0]), frozenset([0]), trans)

    @staticmethod
    def symbol(alphabet: Alphabet, sym: str) -> "Nfa":
        if sym not in alphabet:
            raise AutomatonError("symbol %r not in alphabet" % (sym,))
        return Nfa(alphabet, 2, frozenset([0]), frozenset([1]), ((0, sym, 1),))

    @staticmethod
    def word(alphabet: Alphabet, w: Sequence[str]) -> "Nfa":
        trans = []
        for i, sym in enumerate(w):
            if sym not in alphabet:
                raise AutomatonError("symbol %r not in alphabet" % (sym,))
            trans.append((i, sym, i + 1))
        n = len(w) + 1
        return Nfa(alphabet, n, frozenset([0]), frozenset([n - 1]), tuple(trans))

    @staticmethod
    def finite(alphabet: Alphabet, words: Iterable[Sequence[str]]) -> "Nfa":
        result = Nfa.empty(alphabet)
        for w in words:
            result = union(result, Nfa.word(alphabet, w))
        return result

    # -- basic queries -------------------------------------------------

    def accepts(self, w: Sequence[str]) -> bool:
        """Run w on the canonical form; a symbol outside the alphabet rejects."""
        if not all(sym in self.alphabet for sym in w):
            return False
        dfa, state = canonicalize(self), 0
        for sym in w:
            state = dfa.table[state][self.alphabet.index(sym)]
        return state in dfa.accepting


def _check_same_alphabet(a: Nfa, b: Nfa):
    if a.alphabet != b.alphabet:
        raise AutomatonError("alphabet mismatch")


def _shift(nfa: Nfa, offset: int):
    return [(p + offset, a, q + offset) for (p, a, q) in nfa.transitions]


# -- boolean operations ------------------------------------------------

def union(a: Nfa, b: Nfa) -> Nfa:
    _check_same_alphabet(a, b)
    off = a.n_states
    trans = list(a.transitions) + _shift(b, off)
    return Nfa.derived(a.alphabet, a.n_states + b.n_states,
                       a.initial | frozenset(q + off for q in b.initial),
                       a.accepting | frozenset(q + off for q in b.accepting),
                       tuple(trans))


def intersection(a: Nfa, b: Nfa) -> Nfa:
    return _product(a, b, lambda x, y: x and y)


def complement(a: Nfa) -> Nfa:
    """Swapping the accepting states of a complete minimal DFA keeps it
    minimal and keeps its numbering: the result is canonical as it is."""
    dfa = canonicalize(a)
    rejecting = frozenset(range(dfa.n_states)) - dfa.accepting
    return _intern(dfa.alphabet, dfa.table, rejecting)


def difference(a: Nfa, b: Nfa) -> Nfa:
    return _product(a, b, lambda x, y: x and not y)


def _pairs(a: Nfa, b: Nfa):
    """The canonical forms of a and b, the state pairs of their product
    reachable from (0, 0) in breadth-first order, and the product's
    transition table over the indices of those pairs."""
    _check_same_alphabet(a, b)
    da, db = canonicalize(a), canonicalize(b)
    ids = {(0, 0): 0}
    pairs, table = [(0, 0)], []
    for p, q in pairs:
        row = []
        for pair in zip(da.table[p], db.table[q]):
            if pair not in ids:
                ids[pair] = len(pairs)
                pairs.append(pair)
            row.append(ids[pair])
        table.append(row)
    return da, db, pairs, table


def _product(a: Nfa, b: Nfa, keep) -> Nfa:
    """The canonical form of the product of a and b accepting the
    pairs (p, q) for which keep(p accepts in a, q accepts in b) holds:
    the product is complete and deterministic, so it needs no subset
    construction."""
    da, db, pairs, table = _pairs(a, b)
    accepting = {i for i, (p, q) in enumerate(pairs)
                 if keep(p in da.accepting, q in db.accepting)}
    return minimal_dfa(a.alphabet, table, accepting)


# -- rational operations -----------------------------------------------

def concat(a: Nfa, b: Nfa) -> Nfa:
    _check_same_alphabet(a, b)
    off = a.n_states
    trans = list(a.transitions) + _shift(b, off)
    for p in sorted(a.accepting):
        for q in sorted(b.initial):
            trans.append((p, EPSILON, q + off))
    return Nfa.derived(a.alphabet, a.n_states + b.n_states, a.initial,
                       frozenset(q + off for q in b.accepting), tuple(trans))


def star(a: Nfa) -> Nfa:
    hub = a.n_states
    trans = list(a.transitions)
    for q in sorted(a.initial):
        trans.append((hub, EPSILON, q))
    for q in sorted(a.accepting):
        trans.append((q, EPSILON, hub))
    return Nfa.derived(a.alphabet, a.n_states + 1, frozenset([hub]),
                       frozenset([hub]), tuple(trans))


def reverse(a: Nfa) -> Nfa:
    trans = tuple((q, x, p) for (p, x, q) in a.transitions)
    return Nfa.derived(a.alphabet, a.n_states, a.accepting, a.initial, trans)


def shuffle(a: Nfa, b: Nfa) -> Nfa:
    """All interleavings of one word of a with one word of b."""
    _check_same_alphabet(a, b)
    nb = b.n_states

    def pid(p, q):
        return p * nb + q

    trans = []
    for (p, x, p2) in a.transitions:
        for q in range(nb):
            trans.append((pid(p, q), x, pid(p2, q)))
    for (q, x, q2) in b.transitions:
        for p in range(a.n_states):
            trans.append((pid(p, q), x, pid(p, q2)))
    initial = frozenset(pid(p, q) for p in a.initial for q in b.initial)
    accepting = frozenset(pid(p, q) for p in a.accepting for q in b.accepting)
    return Nfa.derived(a.alphabet, a.n_states * nb, initial, accepting, tuple(trans))


def left_residual(a: Nfa, b: Nfa) -> Nfa:
    """{v | exists u in L(a), uv in L(b)}: b's canonical form started from
    the states it reaches on the words of a."""
    da, db, pairs, _ = _pairs(a, b)
    return Nfa.derived(b.alphabet, db.n_states,
                       frozenset(q for p, q in pairs if p in da.accepting),
                       db.accepting, db.transitions)


def right_residual(a: Nfa, b: Nfa) -> Nfa:
    """{u | exists v in L(b), uv in L(a)}: the mirror of left_residual."""
    return reverse(left_residual(reverse(b), reverse(a)))


# -- subword closures and kernels --------------------------------------

def up_closure(a: Nfa) -> Nfa:
    """Superwords under the scattered-subword order: self-loop every symbol."""
    loops = tuple((q, sym, q) for q in range(a.n_states) for sym in a.alphabet.symbols)
    return Nfa.derived(a.alphabet, a.n_states, a.initial, a.accepting,
                       a.transitions + loops)


def down_closure(a: Nfa) -> Nfa:
    """Subwords: every symbol transition also becomes an epsilon move."""
    skips = tuple((p, EPSILON, q) for (p, x, q) in a.transitions if x is not EPSILON)
    return Nfa.derived(a.alphabet, a.n_states, a.initial, a.accepting,
                       a.transitions + skips)


def up_kernel(a: Nfa) -> Nfa:
    """Largest upward-closed language inside L(a)."""
    return complement(down_closure(complement(a)))


def down_kernel(a: Nfa) -> Nfa:
    """Largest downward-closed language inside L(a)."""
    return complement(up_closure(complement(a)))


# -- decisions ---------------------------------------------------------

def is_empty(a: Nfa) -> bool:
    return not canonicalize(a).accepting


def is_universal(a: Nfa) -> bool:
    dfa = canonicalize(a)
    return len(dfa.accepting) == dfa.n_states


def equal(a: Nfa, b: Nfa) -> bool:
    _check_same_alphabet(a, b)
    return canonicalize(a) is canonicalize(b)


def subset(a: Nfa, b: Nfa) -> bool:
    """No reachable product state accepts in a and rejects in b."""
    da, db, pairs, _ = _pairs(a, b)
    return all(p not in da.accepting or q in db.accepting for p, q in pairs)


# -- determinization, minimization, canonical form ---------------------

def _determinize(a: Nfa):
    """Subset construction; returns (transition table, accepting set).

    The result is complete (the empty subset is the dead state) and its
    state order follows breadth-first discovery in alphabet order, which
    keeps everything downstream deterministic.  The epsilon closure of
    every single-state move is computed once, before the construction,
    so a subset of one state takes its row of moves as it is.
    """
    syms = a.alphabet.symbols
    index = {sym: i for i, sym in enumerate(syms)}
    eps = [[] for _ in range(a.n_states)]
    succ = [[[] for _ in syms] for _ in range(a.n_states)]
    for (p, x, q) in a.transitions:
        if x is EPSILON:
            eps[p].append(q)
        else:
            succ[p][index[x]].append(q)
    moves = [[frozenset(targets) for targets in row] for row in succ]
    start = frozenset(a.initial)
    if any(eps):
        closure = []
        for q in range(a.n_states):
            seen = {q}
            stack = [q]
            while stack:
                for r in eps[stack.pop()]:
                    if r not in seen:
                        seen.add(r)
                        stack.append(r)
            closure.append(frozenset(seen))
        moves = [[frozenset().union(*[closure[r] for r in targets]) for targets in row]
                 for row in moves]
        start = frozenset().union(*[closure[q] for q in start])
    ids = {start: 0}
    order = [start]
    table = []
    accepting = set()
    for i, subset_state in enumerate(order):
        if subset_state & a.accepting:
            accepting.add(i)
        if len(subset_state) == 1:
            targets = moves[next(iter(subset_state))]
        else:
            members = [moves[q] for q in subset_state]
            targets = [frozenset().union(*[m[k] for m in members])
                       for k in range(len(syms))]
        row = []
        for tgt in targets:
            if tgt not in ids:
                ids[tgt] = len(order)
                order.append(tgt)
            row.append(ids[tgt])
        table.append(tuple(row))
    return table, accepting


# Per-process tables, never evicted: the canonical form of every input
# NFA seen (an interned value is its own), and the one interned value
# per language, keyed on (alphabet, table, accepting).
_CANONICAL: Dict[Nfa, Nfa] = {}
_INTERNED: Dict[tuple, Nfa] = {}


def canonicalize(a: Nfa) -> Nfa:
    """The canonical form of a, memoized on the (structural) value of a:
    its complete minimal DFA, with initial state 0 and states numbered
    by breadth-first discovery in alphabet order, as the one interned
    Nfa of its language."""
    nfa = _CANONICAL.get(a)
    if nfa is None:
        nfa = _CANONICAL[a] = minimize(a)
    return nfa


canonical_nfa = canonicalize  # the name the package exports


def _intern(alphabet: Alphabet, table, accepting: frozenset) -> Nfa:
    key = (alphabet, table, accepting)
    nfa = _INTERNED.get(key)
    if nfa is None:
        trans = tuple((p, alphabet.symbols[i], q) for p, row in enumerate(table)
                      for i, q in enumerate(row))
        nfa = _INTERNED[key] = Nfa.derived(alphabet, len(table), frozenset([0]),
                                           accepting, trans, table)
        _CANONICAL[nfa] = nfa
    return nfa


def minimize(a: Nfa) -> Nfa:
    """The canonical form of a, without memoizing a: subset construction,
    then minimal_dfa."""
    return minimal_dfa(a.alphabet, *_determinize(a))


def minimal_dfa(alphabet: Alphabet, table: Sequence[Sequence[int]],
                accepting) -> Nfa:
    """The canonical form of the complete DFA with initial state 0 and
    table[state][symbol index] -> state: Moore refinement, breadth-first
    renumbering."""
    n = len(table)
    k = len(alphabet.symbols)

    # Moore partition refinement with deterministic block numbering.
    block = [1 if q in accepting else 0 for q in range(n)]
    while True:
        signatures = {}
        new_block = [0] * n
        for q in range(n):
            sig = (block[q],) + tuple([block[t] for t in table[q]])
            if sig not in signatures:
                signatures[sig] = len(signatures)
            new_block[q] = signatures[sig]
        if new_block == block:
            break
        block = new_block
    n_blocks = len(set(block))
    rep = {}
    for q in range(n):
        rep.setdefault(block[q], q)
    min_table = {}
    for b, q in rep.items():
        min_table[b] = tuple(block[table[q][i]] for i in range(k))
    min_accepting = set(block[q] for q in accepting)

    # BFS renumbering from the initial block in alphabet order.
    start = block[0]
    renum = {start: 0}
    order = [start]
    i = 0
    while i < len(order):
        b = order[i]
        for t in min_table[b]:
            if t not in renum:
                renum[t] = len(order)
                order.append(t)
        i += 1
    final_table = tuple(tuple(renum[t] for t in min_table[b]) for b in order)
    final_accepting = frozenset(renum[b] for b in min_accepting if b in renum)
    return _intern(alphabet, final_table, final_accepting)
