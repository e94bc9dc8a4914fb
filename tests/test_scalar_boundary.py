"""Field scalars of an algebra's constants and of a matrix stay at the
boundary.

An algebra holds only its integer form (``int_table``, ``int_unit``,
``scale``); ``Algebra.table`` and ``Algebra.unit`` compute field scalars
from it on each call, for output and for callers outside the package.
Every ``src/twistlab/*.py`` is parsed, not imported: no module but
algebra.py reads an attribute named ``table`` or ``unit``, and inside
algebra.py only the boundary functions do.  The slots of an algebra hold
no Fraction.

A matrix likewise holds ``ints`` and one ``scale``, and ``Matrix.data``
makes fresh lists of field scalars on each call.  So no module in
``src/`` scales a ``.data`` read back to integers (it reads ``ints`` and
``scale``), and no file in ``src/`` or ``tests/`` assigns into
``.data[...]``, a write that would be lost.  The slots of a matrix hold
no Fraction.
"""

import ast
import importlib
import random
import time
from fractions import Fraction
from pathlib import Path

import twistlab
from twistlab.fields import GF, QQ, Field
from twistlab.algebra import Algebra, change_of_basis, standard_algebra
from twistlab.duplicates import duplicate_to_twisting_map, roundtrip_datum
from twistlab.linalg import Matrix
from twistlab.quivers import standard_quiver, truncated_path_algebra
from twistlab.twisting import TwistFamilyDescriptor, family_member

from test_algebra import random_basis_change

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "twistlab"

# where algebra.py may turn the integer form into field scalars
BOUNDARY = {"to_doc"}


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
    # to_doc reads both
    assert boundary_reads == 2


def fractions_in(value) -> int:
    if isinstance(value, Fraction):
        return 1
    if isinstance(value, (list, tuple)):
        return sum(map(fractions_in, value))
    return 0


def class_slots(path: Path, name: str) -> tuple:
    """The ``__slots__`` literal of the class name in the file at path."""
    tree = ast.parse(path.read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == name)
    return next(ast.literal_eval(node.value) for node in cls.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["__slots__"])


def test_algebra_slots_hold_no_fraction():
    slots = class_slots(SRC / "algebra.py", "Algebra")
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


def test_matrix_slots_hold_no_fraction():
    slots = class_slots(SRC / "linalg.py", "Matrix")
    assert slots == Matrix.__slots__ == ("field", "rows", "cols", "ints", "scale")
    # over Q with denominators in the entries, from each constructor and
    # each function that makes a matrix
    rng = random.Random(11)
    m = random_basis_change(QQ, 3, rng)
    z2 = standard_algebra("group_algebra_z2", QQ)
    cases = [m, Matrix.from_rows(QQ, [["1/3", "2"]]),
             family_member(TwistFamilyDescriptor("line_char_ne_2", "3/4"), z2, z2).matrix,
             duplicate_to_twisting_map(roundtrip_datum(QQ, "1/2", "-3/2")).matrix]
    for case in cases:
        assert fractions_in(case.data), case
        for name in slots:
            assert fractions_in(getattr(case, name)) == 0, (case, name)


def test_matrix_is_a_record_of_its_integer_form():
    # build, rank, read a column or the entries, compare: callers work on
    # ints and scale, so a dense operation that nothing in src/ calls does
    # not come back unnoticed; __hash__ is the None that __eq__ leaves
    assert set(vars(Matrix)) == {
        "__module__", "__doc__", "__slots__", "__hash__",
        "field", "rows", "cols", "ints", "scale",
        "__init__", "_from_integer_form", "from_rows", "data", "col", "rank",
        "__eq__", "__repr__",
    }


def test_field_and_element_hold_no_arithmetic():
    # a field parses and prints scalars and an element is its list of
    # coordinates: sums and products are Python's own on ints and
    # Fractions, made canonical by Field.scalar, and products in an
    # algebra go through Algebra.multiply_coords
    assert set(vars(Field)) == {
        "__module__", "__doc__", "__slots__", "__hash__",
        "characteristic", "zero", "one",
        "__init__", "name", "__eq__", "__repr__", "scalar", "scalar_to_str",
    }
    for field in (QQ, GF(5)):
        e = standard_algebra("k_n", field, n=3).basis_element(1)
        assert type(e) is list and e == [field.zero, field.one, field.zero]
    assert not hasattr(twistlab, "multiply")
    assert "multiply" not in twistlab.__all__


def test_element_wrappers_are_gone():
    # nothing in src/, the CLI, the demos or the benchmark read them: an
    # element is its coordinate list, echelon bases come from
    # rref_scalars of integer_echelon rows, and radical powers from the
    # radical chain's rows
    modules = [twistlab] + [importlib.import_module(f"twistlab.{path.stem}")
                            for path in sorted(SRC.glob("*.py"))
                            if path.stem != "__init__"]
    assert len(modules) >= 11
    for module in modules:
        for name in ("Element", "echelon_basis", "radical_powers"):
            assert not hasattr(module, name), (module.__name__, name)
    assert "Element" not in twistlab.__all__
    for name in ("element", "unit_element"):
        assert not hasattr(Algebra, name), name


def test_to_doc_reads_the_scalars_once():
    # each read of table makes all d^3 scalars again, so reading it per
    # entry took seconds at dim 16
    alg = truncated_path_algebra(standard_quiver("crown(8)"), QQ)
    assert alg.dim == 16
    start = time.perf_counter()
    doc = alg.to_doc()
    assert time.perf_counter() - start < 0.5
    back = Algebra.from_doc(doc)
    assert (back.int_table, back.int_unit, back.scale) == (
        alg.int_table, alg.int_unit, alg.scale)
    assert back.to_doc() == doc


def called_name(node) -> str:
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def scaled_data_reads(tree) -> list:
    """Line of every ``scale_to_integers`` call with a ``.data`` read in
    its arguments."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and called_name(node) == "scale_to_integers"
            and any(isinstance(sub, ast.Attribute) and sub.attr == "data"
                    for arg in node.args + [k.value for k in node.keywords]
                    for sub in ast.walk(arg))]


def assigned(target):
    """The single targets of an assignment target, through tuples."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from assigned(elt)
    elif isinstance(target, ast.Starred):
        yield from assigned(target.value)
    else:
        yield target


def data_writes(tree) -> list:
    """Line of every assignment into a subscript of an attribute named
    data, such as ``m.data[i][j] = x``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For)):
            targets = [node.target]
        else:
            continue
        for target in (t for top in targets for t in assigned(top)):
            base = target
            while isinstance(base, ast.Subscript):
                base = base.value
            if (base is not target and isinstance(base, ast.Attribute)
                    and base.attr == "data"):
                out.append(target.lineno)
    return out


def test_the_matrix_checks_find_what_they_look_for():
    writes = ast.parse("m.data[0][1] = 2\nx, m.data[0] = 1, [2]\n"
                       "m.data[0][0] += 1\ndata[0][0] = 1\ny = m.data[0][0]\n"
                       "z[m.data[0][0]] = 1\n")
    assert data_writes(writes) == [1, 2, 3]
    calls = ast.parse("scale_to_integers(m.data, p)\nlinalg.scale_to_integers([a.data], p)\n"
                      "scale_to_integers(data, p)\nscale_to_integers(m.ints, p)\n")
    assert scaled_data_reads(calls) == [1, 2]


def test_no_module_rescales_a_matrix():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    for path in files:
        lines = scaled_data_reads(ast.parse(path.read_text(), filename=str(path)))
        assert lines == [], f"{path.name} scales a .data read at {lines}"


def test_nothing_assigns_into_matrix_data():
    files = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(files) >= 25
    for path in files:
        lines = data_writes(ast.parse(path.read_text(), filename=str(path)))
        assert lines == [], f"{path.name} assigns into .data at {lines}"
    # each read of data is a fresh copy, so such a write is lost
    m = Matrix.from_rows(QQ, [[1, 0], [0, 1]])
    rows = m.data
    rows[0][1] = QQ.one
    assert m.data == [[1, 0], [0, 1]] and m == Matrix.from_rows(QQ, [[1, 0], [0, 1]])
