"""Compilers from verification questions into guarded fixpoint terms.

Each compiler binds its target regions as nullary constants of a fresh
algebra of the model and builds the corresponding term; the formula
parser, with CTL's prefix rules added, reads a CTL formula straight into
its term, whose atoms name regions directly.  Goals
whose answer set is known not to be effectively computable are refused
outright.
Dual goals (invariants, persistence, positive-probability) evaluate the
opposing player's term and complement once at top level, which keeps
every binder guarded and every bound variable complement-free.

Game terms step through the owners' operators: preP is confP & pre, and
likewise for prep, wpre and wprep.  _require_game admits only models
where every location has an owner and every rule alternates owners, so
a step from Q's locations reads its argument at P's locations alone,
where pre(R) and preP(R) agree, and one from P's reads it at Q's alone.
So the player's advance preP(up X) also stands in for pre(up X) in the
opponent's argument, and the opponent's wpreQ(kdown Y) for wpre(kdown Y)
under Buchi's preP, with every approximant unchanged.
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


REFUSALS = {
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
    if goal not in REFUSALS:
        raise CompileError("unknown non-effective goal %r" % (goal,))
    raise NonEffectiveGoalError("refusing %s: %s" % (goal, REFUSALS[goal]))


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


class _CtlParser(terms.Parser):
    """CTL's prefix rules over the formula parser, which supplies
    parentheses, &, the end-of-input check and their messages: an atom
    is a nullary operator, recorded with its position, ! is complement,
    EX is pre, and E(p U q) is the least fixpoint
    mu X. q | (p & pre(up(X))), binding X0, X1, ... with inner untils
    first."""

    def __init__(self, text: str):
        super().__init__(text, terms.CTL_PUNCTUATION, CtlError, {})
        self.fresh = itertools.count()
        self.atoms = []  # (name, position) in text order

    def unary(self, scope):
        kind, value, pos = self.peek()
        if kind not in ("ident", "!"):
            return self.atom(scope)  # a parenthesis or an error
        self.pos += 1
        if value in ("!", "EX"):
            child = self.unary(scope)
            return Not(child) if value == "!" else OpApp("pre", (child,))
        if value == "E":
            self.expect("(", "'(' after E")
            hold = self.conjunction(scope)
            self.expect("U", "'U' in E(_ U _)")
            goal = self.conjunction(scope)
            self.expect(")", "')' closing E(_ U _)")
            var = "X%d" % next(self.fresh)
            return Mu(var, Union(goal, Intersection(
                hold, OpApp("pre", (Up(Var(var)),)))))
        if value == "AF":
            refuse_noneffective("forall-eventually")
        if value in terms.CTL_KEYWORDS:  # the rest: A, AG, EF, EG and U
            raise self.error("%r is outside the supported fragment "
                             "(atoms, !, &, EX, E(_ U _))" % (value,), pos)
        self.atoms.append((value, pos))
        return OpApp(value)


def parse_ctl(text: str) -> Term:
    """A formula over region atoms with !, &, EX and E(_ U _), parsed
    straight into its guarded term by the formula parser with CTL's
    prefix rules (_CtlParser).  Errors give the position of the token
    they stop at, as formulas do."""
    return _CtlParser(text).parse()


def compile_ctl(model: GlcsModel, text: str) -> CompiledProperty:
    """The formula's guarded term, once each of its atoms, in text order,
    is `all`, `empty` or a named region of the model."""
    parser = _CtlParser(text)
    term = parser.parse()
    known = {"all", "empty", *model.named_regions}
    for name, pos in parser.atoms:
        if name not in known:
            raise parser.error("unknown region atom %r" % (name,), pos)
    return CompiledProperty("ctl", term, model.algebra())


def eval_ctl(model: GlcsModel, text: str,
             limits: Optional[Limits] = None) -> Region:
    return compile_ctl(model, text).run(limits)[0]


# -- turn-based games ---------------------------------------------------

def _reach_term(player: str, target: Term,
                opponent_step: str = "wpre") -> Term:
    """The alternation-simplified reachability term, with the advance
    shared (see the module docstring):
    mu X. V | preP(up X) | wpreQ(V | preP(up X))."""
    advance = Union(target, OpApp("pre" + player, (Up(Var("X")),)))
    return Mu("X", Union(advance, OpApp(opponent_step + _other(player), (advance,))))


def _buchi_term(player: str, target: Term) -> Term:
    """nu Y. reach(player, V & (phiP | phiQ)), where phiQ = wpreQ(kdown Y)
    and phiP = preP(up phiQ) keep the play inside configurations from
    which Y survives one round."""
    phi_q = OpApp("wpre" + _other(player), (Kdown(Var("Y")),))
    phi_p = OpApp("pre" + player, (Up(phi_q),))
    return Nu("Y", _reach_term(player, Intersection(target, Union(phi_p, phi_q))))


# goal: (property name, term of the player or opponent, dual); staying in
# V forever (eventually forever) is the complement of the opponent
# reaching (repeatedly reaching) the complement of V
GAME_GOALS = {"reach": ("game-reach", _reach_term, False),
              "invariant": ("game-inv", _reach_term, True),
              "buchi": ("game-buchi", _buchi_term, False),
              "persistence": ("game-persist", _buchi_term, True)}


def compile_game(goal: str, model: GlcsModel, player: str,
                 target: Region) -> CompiledProperty:
    if goal not in GAME_GOALS:
        raise CompileError("unknown game goal %r" % (goal,))
    _require_game(model)
    name, build, dual = GAME_GOALS[goal]
    return _player_goal(name, model, build, player, target, dual)


# -- asymmetric games (only player B controls losses) -------------------

def compile_asym_game(goal: str, model: GlcsModel, player: str,
                      target: Region) -> CompiledProperty:
    """B's reachability, mu X. V | preB(up X) | wprepA(V | preB(up X)),
    or A's invariant as its dual; the other two goals are refused."""
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
    """nu Y. mu X. V | prepP(up X & kdown Y) | wprepQ(up X & kdown Y)."""
    retry = (Intersection(Up(Var("X")), Kdown(Var("Y"))),)
    return Nu("Y", Mu("X", Union(Union(target, OpApp("prep" + player, retry)),
                                 OpApp("wprep" + _other(player), retry))))


def _prob_invariant_term(player: str, target: Term) -> Term:
    """nu X. V & (prepP(kdown X) | wpreQ(kdown X))."""
    stay = (Kdown(Var("X")),)
    return Nu("X", Intersection(target, Union(OpApp("prep" + player, stay),
                                              OpApp("wpre" + _other(player), stay))))


# the >0 goals come from determinacy: they are complements of the
# opponent's almost-sure goal on the complemented target
PROB_GOALS = {"reach_eq1": ("prob-reach-1", _prob_reach_term, False),
              "invariant_eq1": ("prob-inv-1", _prob_invariant_term, False),
              "reach_pos": ("prob-reach-pos", _prob_invariant_term, True),
              "invariant_pos": ("prob-inv-pos", _prob_reach_term, True)}


def compile_prob_game(goal: str, model: GlcsModel, player: str,
                      target: Region) -> CompiledProperty:
    """Almost-sure and positive-probability reachability/invariance."""
    _require_game(model)
    if goal not in PROB_GOALS:
        raise CompileError("unknown probabilistic goal %r" % (goal,))
    name, build, dual = PROB_GOALS[goal]
    return _player_goal(name, model, build, player, target, dual)
