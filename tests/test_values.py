"""The package's records are plain classes: value classes compare and
hash by their fields, and importing the package generates no code."""

import os
import subprocess
import sys

import pytest

import wsmc
from wsmc.automata import Alphabet, Nfa
from wsmc.compilers import CompiledProperty
from wsmc.engine import EvalStats, Limits
from wsmc.model import SEND, Rule
from wsmc.regions import Config, Product, Region, Signature
from wsmc.terms import Term

AB = Alphabet(("a", "b"))
A = Nfa.symbol(AB, "a")

# each builds a new object equal to the last one it built
VALUES = {
    "Alphabet": lambda: Alphabet(("a", "b")),
    "Signature": lambda: Signature(Alphabet(("a", "b")), ("c",), ("p", "q")),
    "Product": lambda: Product("p", (A,)),
    "Region": lambda: Region(Signature(AB, ("c",), ("p",)), (("p", A),)),
    "Config": lambda: Config("p", (("a", "b"),)),
    "Rule": lambda: Rule("p", "q", SEND, "c", "a"),
    "Term": lambda: Term("mu", "X", (Term("var", "X"),)),
}


@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES.keys())
def test_equal_fields_make_equal_values_that_hash_alike(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert repr(a) == repr(b)


def test_values_differ_in_any_field_and_across_classes():
    assert Config("p", (("a",),)) != Config("p", (("b",),))
    assert Config("p", (("a",),)) != Config("q", (("a",),))
    assert Rule("p", "q", SEND, "c", "a") != Rule("p", "q", SEND, "c", "b")
    assert Term("var", "X") != Term("var", "Y")
    # a Product never equals a Config, whatever its fields
    assert Product("p", (("a",),)) != Config("p", (("a",),))
    assert Config("p", (("a",),)) != Product("p", (("a",),))
    assert Config("p", ()) != ("p", ())


def test_records_keep_their_constructors():
    assert Limits().max_iter is None
    assert Limits(max_iter=3).max_iter == Limits(3).max_iter == 3
    stats, other = EvalStats(), EvalStats()
    stats.record("X", 2)
    stats.observe(5)
    assert stats.iterations == {"X": [2]} and other.iterations == {}
    assert (other.max_value_size, other.wall_time) == (0, 0.0)
    prop = CompiledProperty("p", Term("var", "X"), None)
    assert prop.negate is False


def test_importing_the_package_loads_no_dataclasses():
    src = os.path.dirname(os.path.dirname(os.path.abspath(wsmc.__file__)))
    code = "import sys, wsmc, wsmc.compilers, wsmc.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "False\n")
