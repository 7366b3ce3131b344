"""Channel-system models with regular guards and their step operators.

A model is a finite set of locations (optionally owned by player A or
B), FIFO channels over a message alphabet, and transition rules that
send, receive, or do nothing, each optionally guarded by a region
evaluated on the pre-step configuration.  Message losses shrink channel
contents to arbitrary subwords after each perfect step.  A perfect step
through a rule is a block edit of a region's slice (RegionSpace.edit),
which the model's region space memoizes.  The union of a region's
perfect-step predecessors through every rule (GlcsModel.pre_perf), which
every pre and wpre ends in, edits each target slice once per group of
unguarded rules with the same target and edit (_grouped), and is
memoized per model on the region's slices; new rules start a new memo.

A lossy pre steps only upward-closed slices L, where the steps of rules
between two locations nest: a receive gives a subset of L, a nop L, a
send a superset, and a guard only shrinks a step.  So the lossy pre
skips the rules an unguarded rule between the same locations covers
(_uncovered); perfect steps keep every rule.
"""

from __future__ import annotations

import functools
import re
from typing import Dict, List, Optional, Tuple

from . import automata, regexes, terms
from .automata import Alphabet, AutomatonError, Nfa, Word
from .engine import AlgebraBinding
from .errors import WsmcError
from .regions import Config, Region, RegionSpace, Signature
from .values import Value

SEND, RECV, INTERNAL = "send", "recv", "internal"
PERFECT, LOSSY = "perfect", "lossy"

# the built-in operators of a model's algebra: name -> (arity, function
# of the model and the arguments); pre/wpre/post step lossily, their
# "p" forms perfectly, and confA/confB are the owners' locations
STEP_OPERATORS = {
    "pre": (1, lambda m, r: m.pre(r, LOSSY)),
    "prep": (1, lambda m, r: m.pre(r, PERFECT)),
    "wpre": (1, lambda m, r: m.wpre(r, LOSSY)),
    "wprep": (1, lambda m, r: m.wpre(r, PERFECT)),
    "post": (1, lambda m, r: m.post(r, LOSSY)),
    "postp": (1, lambda m, r: m.post(r, PERFECT)),
    "confA": (0, lambda m: m.space.location_region(m.player_locations("A"))),
    "confB": (0, lambda m: m.space.location_region(m.player_locations("B"))),
}

# names a formula already gives a meaning to, so no region may take them
RESERVED_NAMES = terms.KEYWORDS | terms.CTL_KEYWORDS | set(STEP_OPERATORS)


class ModelError(WsmcError):
    pass


class Rule(Value):
    __slots__ = _fields = ("source", "target", "kind", "channel", "symbol", "guard")

    def __init__(self, source: str, target: str, kind: str,
                 channel: Optional[str] = None, symbol: Optional[str] = None,
                 guard: Optional[Region] = None):
        self.source = source
        self.target = target
        self.kind = kind  # send | recv | internal
        self.channel = channel
        self.symbol = symbol
        self.guard = guard

    def describe(self) -> str:
        if self.kind == SEND:
            op = "%s!%s" % (self.channel, self.symbol)
        elif self.kind == RECV:
            op = "%s?%s" % (self.channel, self.symbol)
        else:
            op = "nop"
        return "%s -> %s : %s" % (self.source, self.target, op)


class GlcsModel:
    def __init__(self, alphabet: Alphabet, channels: Tuple[str, ...],
                 locations: Tuple[str, ...], owners: Dict[str, Optional[str]],
                 rules: Tuple[Rule, ...],
                 named_regions: Optional[Dict[str, Region]] = None):
        # the declaration rules of parse_model, so region text reads back
        _identifiers("symbol", alphabet.symbols)
        for owner in owners.values():
            _owner(owner)
        self.signature = Signature(alphabet, _identifiers("channel", channels),
                                   _identifiers("location", locations))
        self.space = RegionSpace(self.signature)
        self.owners = dict(owners)
        self.named_regions = dict(named_regions or {})
        self._set_rules(rules)

    def _set_rules(self, rules: Tuple[Rule, ...]):
        """Check and install the rules."""
        self.rules = tuple(map(self._check_rule, rules))
        self._lossy_rules = _uncovered(self.rules)
        self._steps = {PERFECT: _grouped(self.rules), LOSSY: _grouped(self._lossy_rules)}
        self._pre_perf: Dict[tuple, Region] = {}

    def _check_rule(self, rule: Rule) -> Rule:
        """rule, once its names and guard are checked against the model."""
        for loc in (rule.source, rule.target):
            if loc not in self.locations:
                raise ModelError("rule endpoint %r is not a location" % (loc,))
        if rule.kind in (SEND, RECV):
            if rule.channel not in self.channels:
                raise ModelError("rule channel %r not declared" % (rule.channel,))
            if rule.symbol not in self.alphabet:
                raise ModelError("rule symbol %r not in alphabet" % (rule.symbol,))
        if rule.guard is not None and rule.guard.signature != self.signature:
            raise ModelError("rule %s: guard of another signature" % rule.describe())
        return rule

    @property
    def alphabet(self) -> Alphabet:
        return self.signature.alphabet

    @property
    def channels(self) -> Tuple[str, ...]:
        return self.signature.channels

    @property
    def locations(self) -> Tuple[str, ...]:
        return self.signature.locations

    @property
    def game_mode(self) -> bool:
        return any(owner is not None for owner in self.owners.values())

    def player_locations(self, player: str) -> Tuple[str, ...]:
        return tuple(q for q in self.locations if self.owners.get(q) == player)

    # -- structural validation ------------------------------------------

    def validate(self) -> List[str]:
        """Check the no-deadlock restriction and, in game mode, strict
        alternation of ownership along every rule."""
        report = []
        for loc in self.locations:
            outgoing = [r for r in self.rules if r.source == loc]
            if not any(r.kind != RECV for r in outgoing):
                report.append(
                    "location %s has no outgoing non-receiving rule (deadlock risk)"
                    % loc)
        if self.game_mode:
            unowned = [q for q in self.locations if self.owners.get(q) is None]
            for q in unowned:
                report.append("location %s has no owner in a game-mode model" % q)
            for r in self.rules:
                src, tgt = self.owners.get(r.source), self.owners.get(r.target)
                if src is not None and tgt is not None and src == tgt:
                    report.append("rule %s does not alternate players"
                                  % r.describe())
        return report

    # -- symbolic step operators ----------------------------------------

    def pre_perf_rule(self, rule: Rule, region: Region) -> Region:
        """Weakest perfect-step predecessor through one rule: the slice at
        the rule's target with the rule's channel block edited (a receive
        prepends its symbol, a send drops it from the end), met with the
        guard."""
        step = self.space.edit(region, rule.target, rule.source, _PRE_EDIT.get(rule.kind),
                               rule.channel, rule.symbol)
        return step if rule.guard is None else self.space.intersection(rule.guard, step)

    def pre_perf(self, region: Region) -> Region:
        """Union over the rules into the locations of region.  Memoized
        on the region's slices, since nested binders and later queries
        step equal approximants again; new rules start a new memo."""
        return self._pre_perf_through(self._steps[PERFECT], region)

    def _pre_perf_through(self, steps, region: Region) -> Region:
        """pre_perf of region as the union of steps (see _grouped), which
        must give the same region: the edit of a group once, into each of
        its sources, and the guarded rules through pre_perf_rule."""
        key = self.space.normalize(region).slices
        step = self._pre_perf.get(key)
        if step is None:
            (groups, guarded), slices = steps, []
            for target, enc in region.slices:
                for edit, sources in groups.get(target, {}).items():
                    stepped = self.space.edited(enc, *edit)
                    if stepped.accepting:
                        slices += [(source, stepped) for source in sources]
            for rule in guarded:
                slices += self.pre_perf_rule(rule, region).slices
            step = self._pre_perf[key] = self.space.union_of(slices)
        return step

    def pre(self, region: Region, mode: str = LOSSY) -> Region:
        """Predecessors: the perfect ones of region or, when lossy, of its
        upward closure, to which covered rules add nothing."""
        if _lossy(mode):
            return self._pre_perf_through(self._steps[LOSSY],
                                          self.space.up_closure(region))
        return self.pre_perf(region)

    def wpre(self, region: Region, mode: str = LOSSY) -> Region:
        return self.space.complement(self.pre(self.space.complement(region), mode))

    def post_perf_rule(self, rule: Rule, region: Region) -> Region:
        """Strongest perfect-step successor through one rule: the slice at
        the rule's source met with the guard, with the rule's channel
        block edited (a send appends its symbol, a receive drops it from
        the start)."""
        if rule.guard is not None:
            region = self.space.intersection(rule.guard, region)
        return self.space.edit(region, rule.source, rule.target,
                               {SEND: "append", RECV: "behead"}.get(rule.kind),
                               rule.channel, rule.symbol)

    def post_perf(self, region: Region) -> Region:
        """Union over the rules out of the locations of region."""
        locs = self.space.normalize(region).encodings
        return self.space.union(*[self.post_perf_rule(rule, region)
                                  for rule in self.rules if rule.source in locs])

    def post(self, region: Region, mode: str = LOSSY) -> Region:
        """Successors: the perfect ones of region, closed downward when
        lossy."""
        lossy = _lossy(mode)
        step = self.post_perf(region)
        return self.space.down_closure(step) if lossy else step

    # -- the configuration algebra for the fixpoint engine ---------------

    def algebra(self) -> "ConfigAlgebra":
        return ConfigAlgebra(self)


class ConfigAlgebra(AlgebraBinding):
    """Region algebra of one model: the operator table over `model.space`.

    Operator names: those of STEP_OPERATORS, plus the model's named
    regions and any constants bound by a compiler.
    """

    def __init__(self, model: GlcsModel):
        super().__init__(model.space)
        self.model = model
        for name, (arity, fn) in STEP_OPERATORS.items():
            self.add_operator(name, arity, functools.partial(fn, model))
        for name, region in model.named_regions.items():
            self.add_operator(_region_name(name), 0, lambda region=region: region)
        self._fresh = 0
        self.constants: Dict[str, Region] = {}

    def bind_constant(self, region: Region) -> str:
        name = "_V%d" % self._fresh
        self._fresh += 1
        self.add_operator(name, 0, lambda region=region: region)
        self.constants[name] = region
        return name

    def size(self, a):
        """States of the minimal encoding DFAs, summed over locations."""
        return sum(enc.n_states for _, enc in a.slices)


# -- text formats ------------------------------------------------------

def parse_word(text: str, alphabet: Alphabet, offset: int = 0) -> Word:
    """A channel word: whitespace-separated symbols, each token split
    greedily into alphabet symbols (so "ab" over {a,b} is the word ab).
    offset is the position of text in its input, which errors report."""
    out = []
    for token in re.finditer(r"\S+", text):
        out.extend(regexes._split_symbols(token.group(), alphabet,
                                          offset + token.start()))
    return tuple(out)


def parse_config(text: str, model: GlcsModel) -> Config:
    """Config text: "location : word, word, ..." with one word per channel."""
    loc, _, rest = text.partition(":")
    parts, offset = rest.split(","), len(loc) + 1  # where the next part starts
    loc = loc.strip()
    if loc not in model.locations:
        raise ModelError("unknown location %r" % (loc,))
    if len(model.channels) == 0 and all(not p.strip() for p in parts):
        parts = []
    while len(parts) < len(model.channels):
        parts.append("")
    if len(parts) != len(model.channels):
        raise ModelError("expected %d channel words, got %d"
                         % (len(model.channels), len(parts)))
    words = []
    for part in parts:
        words.append(parse_word(part, model.alphabet, offset))
        offset += len(part) + 1
    return Config(loc, tuple(words))


def parse_region_text(text: str, model: GlcsModel) -> Region:
    """Region expressions: "{}" or atoms "(loc; regex; ...)" joined by "+";
    a bare identifier references a named region of the model."""
    text = text.strip()
    if not text:
        raise ModelError("empty region expression (the empty region is written {})")
    if text == "{}":
        return model.space.empty()
    return model.space.union(*[_parse_region_atom(atom, model)
                               for atom in _split_region_atoms(text)])


def _split_region_atoms(text: str) -> List[str]:
    atoms = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ModelError("unbalanced parentheses in region expression")
        if ch == "+" and depth == 0:
            atoms.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ModelError("unbalanced parentheses in region expression")
    atoms.append("".join(current))
    atoms = [a.strip() for a in atoms]
    if not all(atoms):
        raise ModelError("empty region atom in %r" % (text,))
    return atoms


def _parse_region_atom(atom: str, model: GlcsModel) -> Region:
    if not atom.startswith("("):
        if atom in model.named_regions:
            return model.named_regions[atom]
        raise ModelError("unknown named region %r" % (atom,))
    if not atom.endswith(")"):
        raise ModelError("malformed region atom %r" % (atom,))
    fields = atom[1:-1].split(";")
    loc = fields[0].strip()
    if loc not in model.locations:
        raise ModelError("unknown location %r" % (loc,))
    patterns = [f.strip() for f in fields[1:]]
    if len(patterns) != len(model.channels):
        raise ModelError("region atom %r needs %d channel languages"
                         % (atom, len(model.channels)))
    return model.space.atom(loc, tuple(_channel_language(p, model.alphabet)
                                       for p in patterns))


@functools.lru_cache(maxsize=None)
def _channel_language(pattern: str, alphabet: Alphabet) -> Nfa:
    """The canonical form of a channel pattern, compiled once per process:
    models repeat their patterns across regions and guards."""
    return automata.canonicalize(regexes.compile_regex(pattern, alphabet))


def region_to_text(region: Region, model: GlcsModel) -> str:
    """Sum of products (see Region.summands) with per-channel minimal-DFA
    regexes."""
    if not region.summands:
        return "{}"
    atoms = []
    for p in region.summands:
        fields = [p.location] + [regexes.nfa_to_regex(lang) for lang in p.channel_langs]
        atoms.append("(%s)" % "; ".join(fields))
    return " + ".join(atoms)


def _identifier(kind: str, name: str) -> str:
    """A declared name must read back as one token of the formula,
    region and regex syntaxes: letters, digits and `_`."""
    if not name or not all(ch.isalnum() or ch == "_" for ch in name):
        raise ModelError("%s name %r must consist of letters, digits and '_'"
                         % (kind, name))
    return name


def _identifiers(kind: str, names, earlier=()) -> Tuple[str, ...]:
    """Declared names: identifiers, none of them twice or in earlier."""
    names = tuple(_identifier(kind, name) for name in names)
    for i, name in enumerate(names):
        if name in earlier or name in names[:i]:
            raise ModelError("duplicate %s %r" % (kind, name))
    return names


_RANK = {RECV: 0, INTERNAL: 1, SEND: 2}  # steps of an upward-closed slice by size
_PRE_EDIT = {RECV: "prepend", SEND: "curtail"}  # see pre_perf_rule


def _uncovered(rules: Tuple[Rule, ...]) -> Tuple[Rule, ...]:
    """rules without those covered by an unguarded rule between the same
    locations: one of higher _RANK, or the same one without a guard."""
    top: Dict[Tuple[str, str], int] = {}
    unguarded = set()
    for rule in rules:
        if rule.guard is None:
            key = (rule.source, rule.target)
            top[key] = max(top.get(key, 0), _RANK[rule.kind])
            unguarded.add(rule)
    return tuple(rule for rule in rules
                 if top.get((rule.source, rule.target), 0) <= _RANK[rule.kind]
                 and (rule.guard is None
                      or Rule(rule.source, rule.target, rule.kind, rule.channel,
                              rule.symbol) not in unguarded))


def _grouped(rules: Tuple[Rule, ...]):
    """The unguarded rules grouped as {target: {edit: sources}}, each
    source once and in rule order, and the guarded rules, which step
    through pre_perf_rule: perfbench's tracer counts its calls."""
    groups: Dict[str, dict] = {}
    for rule in rules:
        if rule.guard is None:
            edit = (_PRE_EDIT.get(rule.kind), rule.channel, rule.symbol)
            groups.setdefault(rule.target, {}).setdefault(edit, {})[rule.source] = None
    return groups, tuple(rule for rule in rules if rule.guard is not None)


def _lossy(mode: str) -> bool:
    if mode not in (LOSSY, PERFECT):
        raise ModelError("unknown step mode %r" % (mode,))
    return mode == LOSSY


def _owner(owner: Optional[str]):
    if owner not in ("A", "B", None):
        raise ModelError("owner must be A or B, got %r" % owner)


def _region_name(name: str) -> str:
    """A region name must be an identifier that a formula gives no other
    meaning."""
    if _identifier("region", name) in RESERVED_NAMES:
        raise ModelError("region name %r is reserved" % (name,))
    return name


def parse_model(text: str, name: str = "<model>") -> GlcsModel:
    """Line-oriented model files; see the bundled models for examples."""
    alphabet = None
    channels: Tuple[str, ...] = ()
    locations: List[str] = []
    owners: Dict[str, Optional[str]] = {}
    pending_regions: List[Tuple[int, str, str]] = []
    pending_rules: List[Tuple[int, str]] = []
    first_line: Dict[str, int] = {}  # of the alphabet and the channels line

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, _, rest = line.partition(":")
        try:
            if keyword in ("alphabet", "channels") and (
                    first_line.setdefault(keyword, lineno) != lineno):
                raise ModelError("duplicate %s declaration (first declared on "
                                 "line %d)" % (keyword, first_line[keyword]))
            if keyword == "alphabet":
                alphabet = Alphabet(tuple(_identifier("symbol", sym)
                                          for sym in rest.split()))
            elif keyword == "channels":
                channels = _identifiers("channel", rest.split())
            elif keyword == "locations":
                for item in rest.split():
                    loc, owner = item, None
                    if item.endswith("]") and "[" in item:
                        loc, _, owner = item[:-1].partition("[")
                    _owner(owner)
                    _identifiers("location", [loc], owners)
                    locations.append(loc)
                    owners[loc] = owner
            elif line.startswith("region "):
                name_part, eq, expr = line[len("region "):].partition("=")
                if not eq:
                    raise ModelError("region needs 'name = expression'")
                rname = _region_name(name_part.strip())
                for first, earlier, _ in pending_regions:
                    if earlier == rname:
                        raise ModelError("duplicate region %r (first declared on "
                                         "line %d)" % (rname, first))
                pending_regions.append((lineno, rname, expr.strip()))
            elif line.startswith("rule "):
                pending_rules.append((lineno, line[len("rule "):]))
            else:
                raise ModelError("unrecognized line")
        except (ModelError, AutomatonError) as exc:
            raise ModelError("%s:%d: %s" % (name, lineno, exc))

    if alphabet is None:
        raise ModelError("%s: missing alphabet declaration" % name)
    if not locations:
        raise ModelError("%s: missing locations declaration" % name)

    model = GlcsModel(alphabet, channels, tuple(locations), owners, ())
    for lineno, rname, expr in pending_regions:
        try:
            model.named_regions[rname] = parse_region_text(expr, model)
        except (ModelError, regexes.RegexError) as exc:
            raise ModelError("%s:%d: %s" % (name, lineno, exc))
    rules = []
    for lineno, body in pending_rules:
        try:
            rules.append(model._check_rule(_parse_rule(body, model)))
        except (ModelError, regexes.RegexError) as exc:
            raise ModelError("%s:%d: %s" % (name, lineno, exc))
    # one model, so the regions normalized while parsing stay in its memo
    model._set_rules(tuple(rules))
    return model


def _parse_rule(body: str, model: GlcsModel) -> Rule:
    head, _, opspec = body.partition(":")
    src, arrow, tgt = head.partition("->")
    if not arrow:
        raise ModelError("rule needs 'src -> tgt : op'")
    src, tgt = src.strip(), tgt.strip()
    opspec = opspec.strip()
    guard = None
    if " guard " in opspec:
        opspec, _, guard_text = opspec.partition(" guard ")
        opspec = opspec.strip()
        guard = parse_region_text(guard_text.strip(), model)
    if opspec == "nop":
        return Rule(src, tgt, INTERNAL, guard=guard)
    for sep, kind in (("!", SEND), ("?", RECV)):
        if sep in opspec:
            chan, _, sym = opspec.partition(sep)
            return Rule(src, tgt, kind, chan.strip(), sym.strip(), guard)
    raise ModelError("unrecognized rule operation %r" % (opspec,))


def load_model(path: str) -> GlcsModel:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ModelError("%s: not UTF-8 text (byte %d)" % (path, exc.start)) from None
    return parse_model(text, name=path)
