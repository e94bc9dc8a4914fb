"""Field scalars of an algebra's constants stay at the boundary.

An algebra holds only its integer form (``int_table``, ``int_unit``,
``scale``); ``Algebra.table`` and ``Algebra.unit`` compute field scalars
from it on each call, for output and for callers outside the package.
Every ``src/twistlab/*.py`` is parsed, not imported: no module but
algebra.py reads an attribute named ``table`` or ``unit``, and inside
algebra.py only the boundary functions do.  The slots of an algebra hold
no Fraction.
"""

import ast
import random
from fractions import Fraction
from pathlib import Path

from twistlab.fields import GF, QQ
from twistlab.algebra import Algebra, change_of_basis, standard_algebra

from test_algebra import random_basis_change

SRC = Path(__file__).resolve().parent.parent / "src" / "twistlab"

# where algebra.py may turn the integer form into field scalars
BOUNDARY = {"to_doc", "unit_element"}


def scalar_reads(tree) -> list:
    """(line, enclosing function or None) of every load of an attribute
    named table or unit."""
    out = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Attribute) and node.attr in ("table", "unit")
                and isinstance(node.ctx, ast.Load)):
            out.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return out


def test_only_the_boundary_reads_table_or_unit():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    boundary_reads = 0
    for path in files:
        reads = scalar_reads(ast.parse(path.read_text(), filename=str(path)))
        if path.name != "algebra.py":
            assert reads == [], f"{path.name} reads field scalars at {reads}"
            continue
        stray = [(line, fn) for line, fn in reads if fn not in BOUNDARY]
        assert stray == [], f"algebra.py reads field scalars at {stray}"
        boundary_reads = len(reads)
    # to_doc reads both, unit_element the unit
    assert boundary_reads == 3


def fractions_in(value) -> int:
    if isinstance(value, Fraction):
        return 1
    if isinstance(value, (list, tuple)):
        return sum(map(fractions_in, value))
    return 0


def test_algebra_slots_hold_no_fraction():
    tree = ast.parse((SRC / "algebra.py").read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "Algebra")
    slots = next(ast.literal_eval(node.value) for node in cls.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["__slots__"])
    assert slots == Algebra.__slots__
    assert not {"table", "unit"} & set(slots)
    # over Q with denominators in the constants, from each constructor
    rng = random.Random(5)
    alg = standard_algebra("a_q", QQ, q="-3/2")
    cases = [alg, change_of_basis(alg, random_basis_change(QQ, 4, rng)),
             Algebra.from_doc(alg.to_doc()), standard_algebra("k_n", GF(5), n=2)]
    for case in cases:
        assert fractions_in(case.table) or case.field.characteristic
        for name in slots:
            assert fractions_in(getattr(case, name)) == 0, (case, name)
