"""Approximant iteration for guarded fixpoint terms.

The evaluator is generic over an "algebra binding": a value space with
boolean operations, the four closure/kernel operators and decidable
inclusion and equality, plus a table of named monotonic operators.  Term
nodes apply the space's operations directly; only named operators, the
chain and convergence checks and value sizes go through the binding.  Least
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
    """A value space plus named operators, as the engine sees them.

    `space` supplies the values and the lattice operations: `empty`,
    `full`, `union`, `intersection`, `complement`, `up_closure`,
    `down_closure`, `up_kernel`, `down_kernel`, `normalize`, `subset`
    and `equal`.  `operators` maps a name to an (arity, implementation)
    pair; it starts with the nullary "empty" and "all".
    """

    def __init__(self, space):
        self.space = space
        self.operators = {"empty": (0, space.empty), "all": (0, space.full)}

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

    # the engine's two checks: the monotone chain and convergence
    def subset(self, a, b) -> bool:
        return self.space.subset(a, b)

    def equal(self, a, b) -> bool:
        return self.space.equal(a, b)

    def size(self, a) -> int:
        return 0


class LanguageSpace:
    """The regular languages over one alphabet, as a value space."""

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet

    def empty(self): return Nfa.empty(self.alphabet)
    def full(self): return Nfa.universal(self.alphabet)
    union = staticmethod(automata.union)
    intersection = staticmethod(automata.intersection)
    complement = staticmethod(automata.complement)
    up_closure = staticmethod(automata.up_closure)
    down_closure = staticmethod(automata.down_closure)
    up_kernel = staticmethod(automata.up_kernel)
    down_kernel = staticmethod(automata.down_kernel)
    normalize = staticmethod(automata.canonicalize)
    subset = staticmethod(automata.subset)
    equal = staticmethod(automata.equal)


class WordAlgebra(AlgebraBinding):
    """The algebra of regular languages over one alphabet.

    Ships the rational operators (concatenation, star, reverse, shuffle,
    left/right residuals) plus any named constant languages.
    """

    def __init__(self, alphabet: Alphabet, constants: Optional[Dict[str, Nfa]] = None):
        super().__init__(LanguageSpace(alphabet))
        self.add_operator("concat", 2, automata.concat)
        self.add_operator("star", 1, automata.star)
        self.add_operator("reverse", 1, automata.reverse)
        self.add_operator("shuffle", 2, automata.shuffle)
        self.add_operator("lres", 2, automata.left_residual)
        self.add_operator("rres", 2, automata.right_residual)
        for name, lang in (constants or {}).items():
            self.add_operator(name, 0, lambda lang=lang: lang)

    def size(self, a): return a.n_states


@dataclass
class Limits:
    """Evaluation limits.

    Without `max_iter`, unguarded terms are refused up front; a binder
    that has not converged after `max_iter` iterations raises
    IterationCapError.  Every step checks that the approximant chain
    is monotone.
    """

    max_iter: Optional[int] = None


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
    if offenders and limits.max_iter is None:
        raise UnguardedTermError(offenders)
    stats = EvalStats()
    start = time.monotonic()
    value = _eval(t, dict(env or {}), algebra, limits, stats)
    stats.wall_time = time.monotonic() - start
    return value, stats


# term node -> the value-space method applied to its children's values
_SPACE_METHODS = {
    terms.Union: "union", terms.Intersection: "intersection",
    terms.Not: "complement", terms.Up: "up_closure", terms.Down: "down_closure",
    terms.Kup: "up_kernel", terms.Kdown: "down_kernel",
}


def _eval(t, env, algebra, limits, stats):
    if isinstance(t, terms.Var):
        if t.name not in env:
            raise EvaluationError("unknown free variable %r" % (t.name,))
        return env[t.name]
    if isinstance(t, (terms.Mu, terms.Nu)):
        return _fixpoint(t, env, algebra, limits, stats)
    # terms.children rejects any node type it does not know
    args = [_eval(child, env, algebra, limits, stats) for child in terms.children(t)]
    if isinstance(t, terms.OpApp):
        return _note(algebra.apply(t.op, args), algebra, stats)
    return _note(getattr(algebra.space, _SPACE_METHODS[type(t)])(*args), algebra, stats)


def _note(value, algebra, stats):
    value = algebra.space.normalize(value)
    stats.observe(algebra.size(value))
    return value


def _fixpoint(t, env, algebra, limits, stats):
    ascending = isinstance(t, terms.Mu)
    space = algebra.space
    value = space.normalize(space.empty() if ascending else space.full())
    count = 0
    inner = dict(env)
    while True:
        inner[t.var] = value
        nxt = _eval(t.body, inner, algebra, limits, stats)
        count += 1
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
