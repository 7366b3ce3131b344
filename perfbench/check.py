"""Answer checks that do not trust the code under test.

Region texts (goldens and the engine's rendered output) are matched
with Python's `re` after translating each channel regex here, so a
region is never compared through `RegionSpace.equal` or re-parsed by
wsmc.  Computed regions are probed with `oracle.region_member`, and
membership verdicts are held against the bounded explicit-state oracles
wherever those are definitive.  Nothing here runs inside a timed span.
"""

from __future__ import annotations

import itertools
import re
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Word = Tuple[str, ...]
Config = Tuple[str, Tuple[Word, ...]]

# configurations enumerated per region comparison, at most
ENUM_BUDGET = 40000


class CheckError(Exception):
    pass


# -- model headers --------------------------------------------------------

class ModelInfo:
    """Alphabet, channels, locations and region declarations of a model
    text, read line by line without wsmc."""

    def __init__(self, text: str):
        self.symbols: List[str] = []
        self.channels: List[str] = []
        self.locations: List[str] = []
        self.regions: Dict[str, str] = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if line.startswith("alphabet:"):
                self.symbols = line[len("alphabet:"):].split()
            elif line.startswith("channels:"):
                self.channels = line[len("channels:"):].split()
            elif line.startswith("locations:"):
                self.locations = [item.split("[")[0]
                                  for item in line[len("locations:"):].split()]
            elif line.startswith("region "):
                name, _, expr = line[len("region "):].partition("=")
                self.regions[name.strip()] = expr.strip()
        self._chars = {s: chr(0xE000 + i) for i, s in enumerate(self.symbols)}

    def encode(self, word: Word) -> str:
        return "".join(self._chars[s] for s in word)

    def words(self, max_len: int) -> List[Word]:
        return [w for n in range(max_len + 1)
                for w in itertools.product(self.symbols, repeat=n)]

    def configs(self, max_len: int) -> List[Config]:
        per_channel = self.words(max_len)
        return [(loc, contents) for loc in self.locations
                for contents in itertools.product(per_channel,
                                                  repeat=len(self.channels))]

    def enum_bound(self, budget: int = ENUM_BUDGET) -> int:
        """Largest word length whose configuration count fits the budget."""
        bound = 0
        while bound < 6:
            words = sum(len(self.symbols) ** n for n in range(bound + 2))
            if len(self.locations) * words ** len(self.channels) > budget:
                break
            bound += 1
        return bound


# -- regex translation -----------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\(\s*\))|(\{\})|([|*+?().])|([A-Za-z0-9_]+)|(\S))")


def _split_symbols(ident: str, symbols: Sequence[str]) -> List[str]:
    if ident in symbols:
        return [ident]
    out, i = [], 0
    while i < len(ident):
        best = max((s for s in symbols if ident.startswith(s, i)), key=len,
                   default=None)
        if best is None:
            raise CheckError("symbol %r not in alphabet" % ident[i:])
        out.append(best)
        i += len(best)
    return out


def regex_to_re(pattern: str, info: ModelInfo) -> str:
    """Python regex over the encoded alphabet for one channel pattern."""
    out = []
    any_symbol = "[%s]" % "".join(info._chars[s] for s in info.symbols)
    pos = 0
    pattern = pattern.strip()
    while pos < len(pattern):
        m = _TOKEN.match(pattern, pos)
        if m is None:
            break
        pos = m.end()
        eps, empty, op, ident, bad = m.groups()
        if eps:
            out.append("(?:)")
        elif empty:
            out.append("(?!)")
        elif op == "(":
            out.append("(?:")
        elif op == ".":
            out.append(any_symbol)
        elif op:
            out.append(op)
        elif ident:
            # postfix operators bind to the last symbol of an identifier
            out.append("".join(info._chars[s] for s in _split_symbols(ident, info.symbols)))
        elif bad is not None:
            raise CheckError("unsupported regex syntax %r in %r" % (bad, pattern))
    return "".join(out)


def _split_atoms(text: str) -> List[str]:
    atoms, depth, cur = [], 0, []
    for ch in text:
        depth += ch == "("
        depth -= ch == ")"
        if ch == "+" and depth == 0:
            atoms.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    atoms.append("".join(cur).strip())
    return [a for a in atoms if a]


class TextRegion:
    """A region text as a membership predicate, independent of wsmc."""

    def __init__(self, text: str, info: ModelInfo):
        self.info = info
        self.atoms: Dict[str, List[List[re.Pattern]]] = {}
        self._add(text, seen=())

    def _add(self, text: str, seen):
        text = text.strip()
        if text == "{}":
            return
        for atom in _split_atoms(text):
            if not atom.startswith("("):
                if atom not in self.info.regions or atom in seen:
                    raise CheckError("unknown region name %r" % atom)
                self._add(self.info.regions[atom], seen + (atom,))
                continue
            fields = [f.strip() for f in atom[1:-1].split(";")]
            if len(fields) != 1 + len(self.info.channels):
                raise CheckError("bad region atom %r" % atom)
            compiled = [re.compile(regex_to_re(f, self.info)) for f in fields[1:]]
            self.atoms.setdefault(fields[0], []).append(compiled)

    def __contains__(self, config: Config) -> bool:
        loc, contents = config
        encoded = [self.info.encode(w) for w in contents]
        return any(all(rx.fullmatch(w) for rx, w in zip(product, encoded))
                   for product in self.atoms.get(loc, ()))

    def locations(self) -> frozenset:
        return frozenset(loc for loc, products in self.atoms.items()
                         if any(all(rx.pattern != "(?!)" for rx in p) for p in products))


def parse_config_text(text: str, info: ModelInfo) -> Config:
    loc, _, rest = text.partition(":")
    parts = rest.split(",") if info.channels else []
    words = tuple(tuple(_split_symbols_all(p, info.symbols)) for p in parts)
    return loc.strip(), words


def _split_symbols_all(text: str, symbols) -> List[str]:
    out = []
    for token in text.split():
        out.extend(_split_symbols(token, symbols))
    return out


# -- region comparisons ----------------------------------------------------

def compare_regions(configs: Iterable[Config],
                    sides: Dict[str, Callable[[Config], bool]]) -> List[str]:
    """Every side must give the same verdict on every configuration;
    returns the first disagreement, if any, as a message."""
    names = sorted(sides)
    for config in configs:
        verdicts = {name: bool(sides[name](config)) for name in names}
        if len(set(verdicts.values())) > 1:
            return ["region sides disagree at %s: %s" % (_show(config), verdicts)]
    return []


def _show(config: Config) -> str:
    loc, contents = config
    return "%s : %s" % (loc, ", ".join(" ".join(w) for w in contents))


# -- explicit searches built on the oracle's lossy steps ------------------

def explicit_reach(oracle, model, start, goal: Callable, stay: Callable,
                   depth: int, max_configs: int = 20000) -> Optional[bool]:
    """True if a lossy path inside `stay` reaches `goal` within `depth`
    steps; None when the search is inconclusive."""
    frontier, seen = [start], {start}
    for _ in range(depth + 1):
        nxt = []
        for c in frontier:
            if goal(c):
                return True
            if not stay(c):
                continue
            for succ in oracle.lossy_successors(model, c):
                if succ not in seen:
                    seen.add(succ)
                    nxt.append(succ)
        if not nxt:
            return False
        if len(seen) > max_configs:
            return None
        frontier = nxt
    return None
