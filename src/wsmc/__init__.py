"""Symbolic verification of lossy channel systems.

The package evaluates guarded fixpoint terms over regular regions of
channel-system configurations and compiles temporal, game, and
qualitative-probabilistic goals into such terms.
"""

from .automata import Alphabet, Nfa, canonical_nfa
from .engine import AlgebraBinding, EvalStats, Limits, WordAlgebra, evaluate
from .errors import WsmcError
from .model import GlcsModel, load_model, parse_model, parse_region_text, region_to_text
from .regexes import compile_regex, nfa_to_regex
from .regions import Config, Product, Region, RegionSpace, Signature
from .terms import parse_term, term_to_text

__all__ = [
    "Alphabet", "Nfa", "canonical_nfa",
    "AlgebraBinding", "EvalStats", "Limits", "WordAlgebra", "evaluate",
    "WsmcError",
    "GlcsModel", "load_model", "parse_model", "parse_region_text", "region_to_text",
    "compile_regex", "nfa_to_regex",
    "Config", "Product", "Region", "RegionSpace", "Signature",
    "parse_term", "term_to_text",
]
