"""Approximant iteration for guarded fixpoint terms.

The evaluator is generic over an "algebra binding": a value space with
boolean operations, the four closure/kernel operators and decidable
inclusion and equality, plus a table of named monotonic operators.  Term
nodes apply the space's operations directly; only named operators, the
chain and convergence checks and value sizes go through the binding.  Least
fixpoints iterate upward from the empty value until two successive
approximants are equal; greatest fixpoints iterate downward from the
full value.  On guarded terms this always terminates.

Within one evaluate call, each subterm is evaluated once per binding of
its free variables.  A node that is not a variable and contains no
binder (Term.nested) keeps its value in a cache keyed on the node and
the values of its free variables (Term.free).  Terms compare by
structure, so equal subterms built as separate objects share an entry.
So a closed subterm is computed once per call, and a subterm that occurs
twice, or that does not mention an inner binder's variable, once per
binding.  Binders and the nodes that contain them are never served from
the cache, so every binder iteration runs, is chain-checked and is
counted in EvalStats as without it.  The cache is dropped when evaluate
returns.
"""

from __future__ import annotations

import time
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
    and `equal`; its values must be hashable, as the engine keys its
    subterm cache on them.  `operators` maps a name to an (arity,
    implementation) pair; it starts with the nullary "empty" and "all".
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
            raise EvaluationError("operator %r expects %s, got %d" % (
                name, terms.count(arity, "argument", "arguments"), len(args)))
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


class Limits:
    """Evaluation limits.

    Without `max_iter`, unguarded terms are refused up front; a binder
    that has not converged after `max_iter` iterations raises
    IterationCapError.  Every step checks that the approximant chain
    is monotone.
    """

    __slots__ = ("max_iter",)

    def __init__(self, max_iter: Optional[int] = None):
        self.max_iter = max_iter


class EvalStats:
    __slots__ = ("iterations", "max_value_size", "wall_time")

    def __init__(self, iterations: Optional[Dict[str, List[int]]] = None,
                 max_value_size: int = 0, wall_time: float = 0.0):
        self.iterations = {} if iterations is None else iterations
        self.max_value_size = max_value_size
        self.wall_time = wall_time

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
    value = _Evaluation(algebra, limits, stats).eval(t, dict(env or {}))
    stats.wall_time = time.monotonic() - start
    return value, stats


# term kind -> the value-space method applied to its children's values
_SPACE_METHODS = {
    "union": "union", "intersection": "intersection", "not": "complement",
    "up": "up_closure", "down": "down_closure", "kup": "up_kernel",
    "kdown": "down_kernel",
}

class _Evaluation:
    """One evaluate call: its subterm cache (see the module docstring)."""

    def __init__(self, algebra: AlgebraBinding, limits: Limits, stats: EvalStats):
        self.algebra, self.limits, self.stats = algebra, limits, stats
        self.cache: Dict[tuple, object] = {}

    def eval(self, t: Term, env):
        if t.nested or t.kind == "var":
            return self._compute(t, env)
        try:
            key = (t,) + tuple([env[name] for name in t.free])
        except KeyError:  # an unbound free variable: _compute reports it
            return self._compute(t, env)
        value = self.cache.get(key)
        if value is None:
            value = self.cache[key] = self._compute(t, env)
        return value

    def _compute(self, t: Term, env):
        if t.kind == "var":
            if t.name not in env:
                raise EvaluationError("unknown free variable %r" % (t.name,))
            return env[t.name]
        if t.kind in terms.BINDERS:
            return self._fixpoint(t, env)
        args = [self.eval(child, env) for child in t.args]
        algebra = self.algebra
        if t.kind == "opapp":
            value = algebra.apply(t.name, args)
        else:  # Term admits no kind that _SPACE_METHODS lacks
            value = getattr(algebra.space, _SPACE_METHODS[t.kind])(*args)
        value = algebra.space.normalize(value)
        self.stats.observe(algebra.size(value))
        return value

    def _fixpoint(self, t, env):
        ascending = t.kind == "mu"
        algebra, stats = self.algebra, self.stats
        space = algebra.space
        value = space.normalize(space.empty() if ascending else space.full())
        count = 0
        inner = dict(env)
        while True:
            inner[t.name] = value
            nxt = self.eval(t.args[0], inner)
            count += 1
            lo, hi = (value, nxt) if ascending else (nxt, value)
            if not algebra.subset(lo, hi):
                raise EvaluationError(
                    "approximant chain for %r is not monotone" % (t.name,))
            if algebra.equal(nxt, value):
                stats.record(t.name, count)
                return value
            value = nxt
            if self.limits.max_iter is not None and count >= self.limits.max_iter:
                stats.record(t.name, count)
                raise IterationCapError(t.name, self.limits.max_iter, stats)
