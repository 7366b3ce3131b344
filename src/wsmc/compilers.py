"""Compilers from verification questions into guarded fixpoint terms.

Each compiler binds its target regions as nullary constants of a fresh
algebra of the model and builds the corresponding term; a CTL formula is
parsed straight into its term, whose atoms name regions directly.  Goals
whose answer set is known not to be effectively computable are refused
outright.
Dual goals (invariants, persistence, positive-probability) evaluate the
opposing player's term and complement once at top level, which keeps
every binder guarded and every bound variable complement-free.
"""

from __future__ import annotations

import itertools
from typing import Optional

from . import terms
from .engine import Limits, evaluate
from .errors import WsmcError
from .model import ConfigAlgebra, GlcsModel
from .regions import Region
from .terms import Intersection, Kdown, Mu, Not, Nu, OpApp, Term, Union, Up, Var


class CompileError(WsmcError):
    pass


class NonEffectiveGoalError(CompileError):
    """The requested set exists but cannot be computed; never approximate."""


_REFUSALS = {
    "forall-eventually":
        "inevitability (every run reaches the target): the satisfying set "
        "is not effectively computable for lossy channel systems",
    "exists-recurrent":
        "existential repeated reachability: membership is undecidable for "
        "lossy channel systems",
    "asym-reach-A":
        "asymmetric reachability for the perfect-stepping player: the "
        "winning region is not effectively computable",
}


def refuse_noneffective(goal: str):
    if goal not in _REFUSALS:
        raise CompileError("unknown non-effective goal %r" % (goal,))
    raise NonEffectiveGoalError("refusing %s: %s" % (goal, _REFUSALS[goal]))


class CompiledProperty:
    """A guarded term plus the algebra it is bound to.

    When `negate` is set the winning/satisfying set is the complement of
    the term's value (the term itself stays guarded).
    """

    __slots__ = ("name", "term", "algebra", "negate")

    def __init__(self, name: str, term: Term, algebra: ConfigAlgebra,
                 negate: bool = False):
        self.name = name
        self.term = term
        self.algebra = algebra
        self.negate = negate

    def run(self, limits: Optional[Limits] = None):
        value, stats = evaluate(self.term, {}, self.algebra, limits)
        if self.negate:
            value = self.algebra.space.complement(value)
        return value, stats


def _other(player: str) -> str:
    if player not in ("A", "B"):
        raise CompileError("player must be A or B, got %r" % (player,))
    return "B" if player == "A" else "A"


def _conf(player: str) -> Term:
    return OpApp("confA" if player == "A" else "confB")


def _require_game(model: GlcsModel):
    if not model.game_mode:
        raise CompileError("game properties need an owner-partitioned model")
    report = model.validate()
    if report:
        raise CompileError("model fails validation: " + "; ".join(report))


def _compile(name: str, model: GlcsModel, build, *targets: Region,
             negate: bool = False) -> CompiledProperty:
    """Bind the targets as constants of a fresh algebra of the model and
    build the property's term over them."""
    algebra = model.algebra()
    constants = [OpApp(algebra.bind_constant(target)) for target in targets]
    return CompiledProperty(name, build(*constants), algebra, negate)


def _player_goal(name: str, model: GlcsModel, build, player: str,
                 target: Region, dual: bool) -> CompiledProperty:
    """`build(player, V)` for the player, or for a dual goal the
    complement of the opponent's term on the complemented target."""
    if dual:
        player = _other(player)
        target = model.space.complement(target)
    return _compile(name, model, lambda v: build(player, v), target,
                    negate=dual)


# -- temporal properties ------------------------------------------------

def compile_pre_star(model: GlcsModel, target: Region) -> CompiledProperty:
    """Configurations from which the target is reachable:
    mu X. V | pre(up(X))."""
    return _compile("prestar", model, lambda v: Mu("X", Union(
        v, OpApp("pre", (Up(Var("X")),)))), target)


def compile_forall_release(model: GlcsModel, hold: Region,
                           release: Region) -> CompiledProperty:
    """All runs keep `hold` until `release` (possibly forever):
    nu X. V2 & (wpre(kdown(X)) | V1)."""
    return _compile("release", model, lambda v1, v2: Nu("X", Intersection(
        v2, Union(OpApp("wpre", (Kdown(Var("X")),)), v1))), release, hold)


# -- the existential CTL fragment ---------------------------------------

class CtlError(CompileError):
    pass


def parse_ctl(text: str) -> Term:
    """A formula over region atoms with !, &, EX and E(_ U _), parsed
    straight into its guarded term: an atom is a nullary operator, ! is
    complement, & intersection, EX is pre, and E(p U q) is the least
    fixpoint mu X. q | (p & pre(up(X))), binding X0, X1, ... with inner
    untils first.  Errors give the position of the token they stop at,
    as formulas do."""
    if not text.strip():
        raise CtlError("empty formula")
    tokens = terms.tokenize(text, terms.CTL_PUNCTUATION, terms.error_at_position(CtlError))
    fresh = itertools.count()

    def expect(i, value, what):  # the index past tokens[i], which must be value
        if tokens[i][1] != value:
            raise CtlError("expected %s, %s" % (what, terms.found(tokens[i])))
        return i + 1

    def conjunction(i):
        left, i = unary(i)
        while tokens[i][1] == "&":
            right, i = unary(i + 1)
            left = Intersection(left, right)
        return left, i

    def unary(i):
        kind, tok, _ = tokens[i]
        if tok in ("!", "EX"):
            child, i = unary(i + 1)
            return Not(child) if tok == "!" else OpApp("pre", (child,)), i
        if tok == "E":
            hold, i = conjunction(expect(i + 1, "(", "'(' after E"))
            goal, i = conjunction(expect(i, "U", "'U' in E(_ U _)"))
            i = expect(i, ")", "')' closing E(_ U _)")
            var = "X%d" % next(fresh)
            return Mu(var, Union(goal, Intersection(
                hold, OpApp("pre", (Up(Var(var)),))))), i
        if tok == "(":
            inner, i = conjunction(i + 1)
            return inner, expect(i, ")", "')'")
        if tok in terms.CTL_KEYWORDS:  # the rest: A, AF, AG, EF, EG and U
            if tok == "AF":
                refuse_noneffective("forall-eventually")
            raise CtlError("%r is outside the supported fragment "
                           "(atoms, !, &, EX, E(_ U _))" % (tok,))
        if kind != "ident":
            raise CtlError("expected a formula, %s" % terms.found(tokens[i]))
        return OpApp(tok), i + 1

    term, i = conjunction(0)
    if tokens[i][0] is not None:
        raise CtlError("unexpected %r at position %d" % tokens[i][1:])
    return term


def compile_ctl(model: GlcsModel, text: str) -> CompiledProperty:
    """The formula's guarded term, once each of its atoms, in text order,
    is `all`, `empty` or a named region of the model."""
    term = parse_ctl(text)
    # once the text parses, every identifier but a keyword is an atom
    known = {*terms.CTL_KEYWORDS, "all", "empty", *model.named_regions}
    for kind, name, _ in terms.tokenize(text, terms.CTL_PUNCTUATION,
                                        terms.error_at_position(CtlError)):
        if kind == "ident" and name not in known:
            raise CtlError("unknown region atom %r" % (name,))
    return CompiledProperty("ctl", term, model.algebra())


def eval_ctl(model: GlcsModel, text: str,
             limits: Optional[Limits] = None) -> Region:
    return compile_ctl(model, text).run(limits)[0]


# -- turn-based games ---------------------------------------------------

def _reach_term(player: str, target: Term,
                opponent_step: str = "wpre") -> Term:
    """The alternation-simplified reachability term:
    mu X. V | (confP & pre(up X)) | (confQ & wpre(V | pre(up X)))."""
    advance = OpApp("pre", (Up(Var("X")),))
    return Mu("X", Union(
        Union(target, Intersection(_conf(player), advance)),
        Intersection(_conf(_other(player)),
                     OpApp(opponent_step, (Union(target, advance),)))))


def _buchi_term(player: str, target: Term) -> Term:
    """nu Y. reach(player, V & (phiP(Y) | phiQ(Y))) where the phis keep
    the play inside configurations from which Y survives one round."""
    phi_p = Intersection(
        _conf(player),
        OpApp("pre", (Up(OpApp("wpre", (Kdown(Var("Y")),))),)))
    phi_q = Intersection(_conf(_other(player)),
                         OpApp("wpre", (Kdown(Var("Y")),)))
    goal = Intersection(target, Union(phi_p, phi_q))
    return Nu("Y", _reach_term(player, goal))


# goal: (property name, term of the player or opponent, dual); staying in
# V forever (eventually forever) is the complement of the opponent
# reaching (repeatedly reaching) the complement of V
_GAME_GOALS = {"reach": ("game-reach", _reach_term, False),
               "invariant": ("game-inv", _reach_term, True),
               "buchi": ("game-buchi", _buchi_term, False),
               "persistence": ("game-persist", _buchi_term, True)}


def compile_game(goal: str, model: GlcsModel, player: str,
                 target: Region) -> CompiledProperty:
    if goal not in _GAME_GOALS:
        raise CompileError("unknown game goal %r" % (goal,))
    _require_game(model)
    name, build, dual = _GAME_GOALS[goal]
    return _player_goal(name, model, build, player, target, dual)


# -- asymmetric games (only player B controls losses) -------------------

def compile_asym_game(goal: str, model: GlcsModel, player: str,
                      target: Region) -> CompiledProperty:
    """B's reachability, mu X. V | (confB & pre(up X)) | (confA &
    wprep(V | pre(up X))), or A's invariant as its dual; the other two
    goals are refused."""
    if goal not in ("reach", "invariant"):
        raise CompileError("unknown asymmetric goal %r" % (goal,))
    dual = goal == "invariant"
    if player == ("B" if dual else "A"):
        # B's invariant is the dual of the refused goal, equally non-effective
        refuse_noneffective("asym-reach-A")
    _require_game(model)
    return _player_goal("asym-inv-A" if dual else "asym-reach-B", model,
                        lambda p, v: _reach_term(p, v, "wprep"),
                        "A" if dual else "B", target, dual)


# -- qualitative probabilistic games ------------------------------------

def _prob_reach_term(player: str, target: Term) -> Term:
    """nu Y. mu X. V | (confP & prep(up X & kdown Y))
                    | (confQ & wprep(up X & kdown Y))."""
    retry = Intersection(Up(Var("X")), Kdown(Var("Y")))
    body = Union(
        Union(target, Intersection(_conf(player), OpApp("prep", (retry,)))),
        Intersection(_conf(_other(player)), OpApp("wprep", (retry,))))
    return Nu("Y", Mu("X", body))


def _prob_invariant_term(player: str, target: Term) -> Term:
    """nu X. V & ((confP & prep(kdown X)) | (confQ & wpre(kdown X)))."""
    body = Intersection(target, Union(
        Intersection(_conf(player), OpApp("prep", (Kdown(Var("X")),))),
        Intersection(_conf(_other(player)), OpApp("wpre", (Kdown(Var("X")),)))))
    return Nu("X", body)


# the >0 goals come from determinacy: they are complements of the
# opponent's almost-sure goal on the complemented target
_PROB_GOALS = {"reach_eq1": ("prob-reach-1", _prob_reach_term, False),
               "invariant_eq1": ("prob-inv-1", _prob_invariant_term, False),
               "reach_pos": ("prob-reach-pos", _prob_invariant_term, True),
               "invariant_pos": ("prob-inv-pos", _prob_reach_term, True)}


def compile_prob_game(goal: str, model: GlcsModel, player: str,
                      target: Region) -> CompiledProperty:
    """Almost-sure and positive-probability reachability/invariance."""
    _require_game(model)
    if goal not in _PROB_GOALS:
        raise CompileError("unknown probabilistic goal %r" % (goal,))
    name, build, dual = _PROB_GOALS[goal]
    return _player_goal(name, model, build, player, target, dual)
