"""Approximant iteration for guarded fixpoint terms.

The evaluator is generic over an "algebra binding": any value domain
with boolean operations, the four closure/kernel operators, decidable
equality, and a table of extra named monotonic operators.  Least
fixpoints iterate upward from the empty value until two successive
approximants are equal; greatest fixpoints iterate downward from the
full value.  On guarded terms this always terminates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from . import automata, terms
from .automata import Alphabet, Nfa
from .errors import WsmcError
from .terms import Term


class EvaluationError(WsmcError):
    pass


class UnguardedTermError(EvaluationError):
    def __init__(self, offenders):
        names = sorted(set(name for name, _ in offenders))
        super().__init__("unguarded binder%s: %s"
                         % ("s" if len(names) > 1 else "", ", ".join(names)))
        self.offenders = offenders


class IterationCapError(EvaluationError):
    def __init__(self, binder, cap, stats):
        super().__init__("binder %r exceeded the iteration cap of %d" % (binder, cap))
        self.binder = binder
        self.stats = stats


class AlgebraBinding:
    """Value domain plus named operators; subclasses fill in the methods.

    `operators` maps a name to an (arity, implementation) pair and must
    contain the nullary "empty" and "all".
    """

    def __init__(self):
        self.operators = {
            "empty": (0, lambda: self.bottom()),
            "all": (0, lambda: self.top()),
        }

    def add_operator(self, name, arity, fn):
        self.operators[name] = (arity, fn)

    def arities(self) -> Dict[str, int]:
        return {name: arity for name, (arity, _) in self.operators.items()}

    def apply(self, name, args):
        if name not in self.operators:
            raise EvaluationError("unknown operator %r" % (name,))
        arity, fn = self.operators[name]
        if arity != len(args):
            raise EvaluationError("operator %r expects %d arguments, got %d"
                                  % (name, arity, len(args)))
        return fn(*args)

    # value-domain interface
    def bottom(self): raise NotImplementedError
    def top(self): raise NotImplementedError
    def union(self, a, b): raise NotImplementedError
    def intersection(self, a, b): raise NotImplementedError
    def complement(self, a): raise NotImplementedError
    def up_closure(self, a): raise NotImplementedError
    def down_closure(self, a): raise NotImplementedError
    def up_kernel(self, a): raise NotImplementedError
    def down_kernel(self, a): raise NotImplementedError
    def equal(self, a, b) -> bool: raise NotImplementedError
    def subset(self, a, b) -> bool: raise NotImplementedError
    def is_empty(self, a) -> bool: raise NotImplementedError
    def is_universal(self, a) -> bool: raise NotImplementedError
    def member(self, element, a) -> bool: raise NotImplementedError
    def normalize(self, a): return a
    def size(self, a) -> int: return 0


class WordAlgebra(AlgebraBinding):
    """The algebra of regular languages over one alphabet.

    Ships the rational operators (concatenation, star, reverse, shuffle,
    left/right residuals) plus any named constant languages.
    """

    def __init__(self, alphabet: Alphabet, constants: Optional[Dict[str, Nfa]] = None):
        super().__init__()
        self.alphabet = alphabet
        self.add_operator("concat", 2, automata.concat)
        self.add_operator("star", 1, automata.star)
        self.add_operator("reverse", 1, automata.reverse)
        self.add_operator("shuffle", 2, automata.shuffle)
        self.add_operator("lres", 2, automata.left_residual)
        self.add_operator("rres", 2, automata.right_residual)
        for name, lang in (constants or {}).items():
            self.add_operator(name, 0, lambda lang=lang: lang)

    def bottom(self): return Nfa.empty(self.alphabet)
    def top(self): return Nfa.universal(self.alphabet)
    def union(self, a, b): return automata.union(a, b)
    def intersection(self, a, b): return automata.intersection(a, b)
    def complement(self, a): return automata.complement(a)
    def up_closure(self, a): return automata.up_closure(a)
    def down_closure(self, a): return automata.down_closure(a)
    def up_kernel(self, a): return automata.up_kernel(a)
    def down_kernel(self, a): return automata.down_kernel(a)
    def equal(self, a, b): return automata.equal(a, b)
    def subset(self, a, b): return automata.subset(a, b)
    def is_empty(self, a): return automata.is_empty(a)
    def is_universal(self, a): return automata.is_universal(a)
    def member(self, element, a): return a.accepts(element)
    def normalize(self, a): return automata.canonical_nfa(a)
    def size(self, a): return a.n_states


@dataclass
class Limits:
    """Evaluation limits.

    Without `max_iter`, unguarded terms are refused up front (set
    `require_guarded=False` to run them anyway, e.g. on finite domains).
    `check_chain` asserts the monotone approximant chain each step.
    """

    max_iter: Optional[int] = None
    require_guarded: bool = True
    check_chain: bool = True


@dataclass
class EvalStats:
    iterations: Dict[str, List[int]] = field(default_factory=dict)
    max_value_size: int = 0
    wall_time: float = 0.0

    def record(self, binder: str, count: int):
        self.iterations.setdefault(binder, []).append(count)

    def observe(self, size: int):
        if size > self.max_value_size:
            self.max_value_size = size


def evaluate(t: Term, env, algebra: AlgebraBinding, limits: Optional[Limits] = None):
    """Evaluate a term to a value of the algebra; returns (value, stats)."""
    limits = limits or Limits()
    offenders = terms.check_guarded(t)
    if offenders and limits.require_guarded and limits.max_iter is None:
        raise UnguardedTermError(offenders)
    stats = EvalStats()
    start = time.monotonic()
    value = _eval(t, dict(env or {}), algebra, limits, stats)
    stats.wall_time = time.monotonic() - start
    return value, stats


def _eval(t, env, algebra, limits, stats):
    if isinstance(t, terms.Var):
        if t.name not in env:
            raise EvaluationError("unknown free variable %r" % (t.name,))
        return env[t.name]
    if isinstance(t, terms.OpApp):
        args = [_eval(a, env, algebra, limits, stats) for a in t.args]
        return _note(algebra.apply(t.op, args), algebra, stats)
    if isinstance(t, terms.Union):
        return _note(algebra.union(_eval(t.left, env, algebra, limits, stats),
                                   _eval(t.right, env, algebra, limits, stats)),
                     algebra, stats)
    if isinstance(t, terms.Intersection):
        return _note(algebra.intersection(_eval(t.left, env, algebra, limits, stats),
                                          _eval(t.right, env, algebra, limits, stats)),
                     algebra, stats)
    if isinstance(t, terms.Not):
        return _note(algebra.complement(_eval(t.child, env, algebra, limits, stats)),
                     algebra, stats)
    if isinstance(t, terms.Up):
        return _note(algebra.up_closure(_eval(t.child, env, algebra, limits, stats)),
                     algebra, stats)
    if isinstance(t, terms.Down):
        return _note(algebra.down_closure(_eval(t.child, env, algebra, limits, stats)),
                     algebra, stats)
    if isinstance(t, terms.Kup):
        return _note(algebra.up_kernel(_eval(t.child, env, algebra, limits, stats)),
                     algebra, stats)
    if isinstance(t, terms.Kdown):
        return _note(algebra.down_kernel(_eval(t.child, env, algebra, limits, stats)),
                     algebra, stats)
    if isinstance(t, (terms.Mu, terms.Nu)):
        return _fixpoint(t, env, algebra, limits, stats)
    raise EvaluationError("unknown term node %r" % (t,))


def _note(value, algebra, stats):
    value = algebra.normalize(value)
    stats.observe(algebra.size(value))
    return value


def _fixpoint(t, env, algebra, limits, stats):
    ascending = isinstance(t, terms.Mu)
    value = algebra.normalize(algebra.bottom() if ascending else algebra.top())
    count = 0
    inner = dict(env)
    while True:
        inner[t.var] = value
        nxt = _eval(t.body, inner, algebra, limits, stats)
        count += 1
        if limits.check_chain:
            lo, hi = (value, nxt) if ascending else (nxt, value)
            if not algebra.subset(lo, hi):
                raise EvaluationError(
                    "approximant chain for %r is not monotone" % (t.var,))
        if algebra.equal(nxt, value):
            stats.record(t.var, count)
            return value
        value = nxt
        if limits.max_iter is not None and count >= limits.max_iter:
            stats.record(t.var, count)
            raise IterationCapError(t.var, limits.max_iter, stats)

