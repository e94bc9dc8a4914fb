"""Finite-dimensional associative unital algebras by structure constants.

An algebra holds its constants once, as an integer form:
``int_table[i][j][k]`` and ``int_unit`` are D times the coefficient of e_k
in e_i * e_j and D times the unit, for one scale D (``scale``), the lcm of
the denominators over Q; over F_p they are residues and D = 1.  The form
is unique, so equal constants are equal forms.  Invariant computations
(center, Jacobson radical, separability) are the data the classification
of the 4-dimensional twisted products rests on.

Everything reads the integer form: the axiom check, base change, algebra
maps, the trace form, the center, the radical's powers and the Hochschild
coboundaries.  Each such quantity is a sum of products of a fixed number
k of constants, so the integer sum is D^k times the true one: a rank, a
kernel and d^2 = 0 are unchanged, an equality holds once each side is
multiplied by the scales it lacks, and a transported constant is
recovered by one exact division.  The inner loops make no Fraction.
Field scalars appear at the boundaries only: ``Algebra(field, labels,
table, unit)`` converts scalar input once (``from_doc`` goes through it),
and ``table``, ``unit``, ``multiply_coords`` and ``Element`` compute them
from the integer form on each call.  Internal constructors hand an
integer form over whole (``Algebra._from_integer_form``).
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import gcd
from operator import mul

from .fields import Field, field_from_name
from .linalg import (
    Matrix,
    _first_slot,
    _pack,
    _slot_test,
    _slot_width,
    integer_echelon,
    integer_inverse,
    integer_kernel,
    rref_scalars,
    scale_to_integers,
    sparse_rank,
)


class CriterionInapplicable(Exception):
    """The trace-form radical criterion could not be certified."""


class Algebra:
    """An algebra by its integer form: constants ``int_table`` / ``scale``
    and unit ``int_unit`` / ``scale`` (see the module docstring)."""

    __slots__ = ("field", "dim", "basis_labels", "int_table", "int_unit", "scale")

    def __init__(self, field: Field, basis_labels, table, unit, check=False):
        """The algebra of scalar input (ints, Fractions or strings),
        converted once; a ValueError names an entry with no image in the
        field."""
        d = len(basis_labels)
        if len(unit) != d or len(table) != d or any(
            len(plane) != d or any(len(cell) != d for cell in plane)
            for plane in table
        ):
            raise ValueError("table/unit shape does not match the basis")
        try:
            table = [[[field.scalar(x) for x in cell] for cell in plane]
                     for plane in table]
            unit = [field.scalar(x) for x in unit]
        except ZeroDivisionError:
            raise ValueError(_no_image(field, table, unit)) from None
        ints, scale = scale_to_integers([table, unit], field.characteristic)
        self._fill(field, basis_labels, *ints, scale, check)

    @classmethod
    def _from_integer_form(cls, field: Field, basis_labels, int_table,
                           int_unit, scale: int, check=True) -> "Algebra":
        """The algebra with constants int_table / scale and unit
        int_unit / scale, for any integers and a positive scale (1 over
        F_p), brought to the unique form: reduced mod p over F_p, divided
        over Q by the gcd of the scale and all the integers, which leaves
        the lcm of the denominators."""
        p = field.characteristic
        if p:
            int_table = [[[x % p for x in cell] for cell in plane] for plane in int_table]
            int_unit = [x % p for x in int_unit]
        else:
            g = gcd(scale, *int_unit, *(x for plane in int_table
                                        for cell in plane for x in cell))
            int_table = [[[x // g for x in cell] for cell in plane] for plane in int_table]
            int_unit = [x // g for x in int_unit]
            scale //= g
        a = cls.__new__(cls)
        a._fill(field, basis_labels, int_table, int_unit, scale, check)
        return a

    def _fill(self, field, basis_labels, int_table, int_unit, scale, check) -> None:
        self.field, self.dim = field, len(basis_labels)
        self.basis_labels = [str(s) for s in basis_labels]
        self.int_table, self.int_unit, self.scale = int_table, int_unit, scale
        if check:
            report = verify_axioms(self)
            if not (report["associative"] and report["unital"]):
                raise ValueError(f"algebra axioms fail: {report['failing_indices']}")

    def __repr__(self) -> str:
        return f"Algebra({self.field.name}, dim {self.dim}: {', '.join(self.basis_labels)})"

    @property
    def table(self) -> list:
        """The structure constants as field scalars, made on each call."""
        return [[_field_scalars(self.field, cell, self.scale) for cell in plane]
                for plane in self.int_table]

    @property
    def unit(self) -> list:
        """The unit as field scalars, made on each call."""
        return _field_scalars(self.field, self.int_unit, self.scale)

    def element(self, coords) -> "Element":
        return Element(self, [self.field.scalar(x) for x in coords])

    def basis_element(self, i: int) -> "Element":
        coords = [self.field.zero] * self.dim
        coords[i] = self.field.one
        return Element(self, coords)

    def unit_element(self) -> "Element":
        return Element(self, self.unit)

    def multiply_coords(self, x: list, y: list) -> list:
        """x * y on coordinates given and returned as field scalars: x and
        y times one common scale s are integers, and their ``_product`` on
        the integer table is divided once by s^2 D."""
        (xs, ys), s = scale_to_integers([list(x), list(y)], self.field.characteristic)
        return _field_scalars(self.field, _product(self.int_table, xs, ys),
                              s * s * self.scale)

    # serialization

    def to_doc(self) -> dict:
        f = self.field
        d = self.dim
        return {
            "field": f.name,
            "dim": d,
            "basis": list(self.basis_labels),
            "unit": [f.scalar_to_str(x) for x in self.unit],
            "table": [
                [[f.scalar_to_str(self.table[i][j][k]) for k in range(d)] for j in range(d)]
                for i in range(d)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), separators=(",", ":"))

    @classmethod
    def from_doc(cls, doc: dict) -> "Algebra":
        scalar = (int, str)
        require_fields(doc, {"field": str, "dim": int, "basis": [scalar],
                             "table": [[[scalar]]], "unit": [scalar]}, "algebra")
        field = field_from_name(doc["field"])
        alg = cls(field, doc["basis"], doc["table"], doc["unit"], check=True)
        if alg.dim != doc["dim"]:
            raise ValueError("declared dim does not match the basis")
        return alg

    @classmethod
    def from_json(cls, text: str) -> "Algebra":
        return cls.from_doc(json.loads(text))


def require_fields(doc, shapes: dict, what: str) -> None:
    """A ValueError unless doc is a JSON object holding every key of shapes
    with a value of its shape: a type or tuple of types (bool is not an
    int here), or [shape] for an array of values of that shape."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} JSON must be an object, not {type(doc).__name__}")
    for k, shape in shapes.items():
        if k not in doc:
            raise ValueError(f"{what} JSON lacks the key {k!r}")
        if not _has_shape(doc[k], shape):
            raise ValueError(f"{what} JSON {k!r} must be {_shape_name(shape)}")


def _has_shape(value, shape) -> bool:
    if isinstance(shape, list):
        return isinstance(value, list) and all(_has_shape(x, shape[0]) for x in value)
    return isinstance(value, shape) and not isinstance(value, bool)


_NOUNS = {int: ("an integer", "integers"), str: ("a string", "strings")}


def _shape_name(shape, plural: bool = False) -> str:
    if isinstance(shape, list):
        return ("arrays of " if plural else "an array of ") + _shape_name(shape[0], True)
    kinds = shape if isinstance(shape, tuple) else (shape,)
    return " or ".join(_NOUNS[k][plural] for k in kinds)


class Element:
    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: Algebra, coords: list):
        self.algebra = algebra
        self.coords = coords

    def __mul__(self, other: "Element") -> "Element":
        return multiply(self, other)

    def __add__(self, other: "Element") -> "Element":
        _check_same_algebra(self, other)
        f = self.algebra.field
        return Element(self.algebra, [f.add(x, y) for x, y in zip(self.coords, other.coords)])

    def __sub__(self, other: "Element") -> "Element":
        _check_same_algebra(self, other)
        f = self.algebra.field
        return Element(self.algebra, [f.sub(x, y) for x, y in zip(self.coords, other.coords)])

    def scale(self, c) -> "Element":
        f = self.algebra.field
        c = f.scalar(c)
        return Element(self.algebra, [f.mul(c, x) for x in self.coords])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and other.algebra is self.algebra
            and other.coords == self.coords
        )

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __repr__(self) -> str:
        f = self.algebra.field
        terms = [
            f"{f.scalar_to_str(c)}*{lbl}"
            for c, lbl in zip(self.coords, self.algebra.basis_labels)
            if c
        ]
        return " + ".join(terms) if terms else "0"


def _check_same_algebra(a: Element, b: Element) -> None:
    if a.algebra is not b.algebra:
        raise ValueError("elements from different algebras")


def multiply(a: Element, b: Element) -> Element:
    _check_same_algebra(a, b)
    return Element(a.algebra, a.algebra.multiply_coords(a.coords, b.coords))


def _no_image(field: Field, table, unit) -> str:
    """Names the first entry of table, then of unit, with no image in the
    field (a zero denominator, or one divisible by p)."""
    entries = [(f"table[{i}][{j}][{k}]", x) for i, plane in enumerate(table)
               for j, cell in enumerate(plane) for k, x in enumerate(cell)]
    for where, x in entries + [(f"unit[{k}]", x) for k, x in enumerate(unit)]:
        try:
            field.scalar(x)
        except ZeroDivisionError:
            return f"{where} = {x!r} has no image in {field.name}"


def _field_scalars(field: Field, ints: list, scale: int) -> list:
    """ints / scale as field scalars: Fractions over Q, residues over F_p
    (where the scale is 1)."""
    p = field.characteristic
    return [x % p for x in ints] if p else [Fraction(x, scale) for x in ints]


def _product(c: list, x: list, y: list) -> list:
    """The sum of x_i y_j c[i][j] for integer coordinates x, y and an
    integer table c, unreduced."""
    out = [0] * len(c)
    for xi, plane in zip(x, c):
        if xi:
            for yj, cell in zip(y, plane):
                if yj:
                    k = xi * yj
                    out = [o + k * v for o, v in zip(out, cell)]
    return out


def _differ(lhs: list, rhs: list, p: int) -> bool:
    """Whether two coordinate lists differ: exactly over Q, mod p over F_p
    (equal lists need no reduction)."""
    if p and lhs != rhs:
        return any((x - y) % p for x, y in zip(lhs, rhs))
    return lhs != rhs


def is_algebra_map(m: Matrix, a: Algebra, b: Algebra) -> bool:
    """Whether m, column j the image of a's j-th basis vector in b's
    coordinates, is a unital algebra map a -> b: m(1) = 1 and
    m(e_i e_j) = m(e_i) m(e_j) for every pair of basis vectors.

    On integers: M = D_M m (``scale_to_integers``), and the integer forms
    C_a, U_a of a (scale D_a) and C_b, U_b of b (scale D_b).  Cleared of
    their denominators, the conditions read D_b M U_a = D_M D_a U_b and
    D_M D_b M C_a[i][j] = D_a sum over (k, l) of M[k][i] M[l][j] C_b[k][l],
    compared exactly over Q and mod p over F_p.
    """
    if (m.rows, m.cols) != (b.dim, a.dim):
        raise ValueError(f"an algebra map needs a {b.dim}x{a.dim} matrix")
    p = a.field.characteristic
    ints, dm = scale_to_integers(m.data, p)
    cols = list(zip(*ints))
    if _differ([b.scale * x for x in _combine(a.int_unit, cols, b.dim)],
               [dm * a.scale * x for x in b.int_unit], p):
        return False
    left = dm * b.scale
    return not any(
        _differ([left * x for x in _combine(a.int_table[i][j], cols, b.dim)],
                [a.scale * x for x in _product(b.int_table, cols[i], cols[j])], p)
        for i, j in itertools.product(range(a.dim), repeat=2))


def is_isomorphism(p: Matrix, a: Algebra, b: Algebra) -> bool:
    """True iff column j of p, read as the image of a's j-th basis vector
    in b's coordinates, defines an algebra isomorphism a -> b."""
    if a.field != b.field or p.field != a.field:
        raise ValueError("field mismatch")
    if a.dim != b.dim or p.rows != a.dim or p.cols != a.dim:
        raise ValueError("need a square matrix matching both dimensions")
    return p.rank() == a.dim and is_algebra_map(p, a, b)


def verify_axioms(a: Algebra) -> dict:
    """Exhaustive associativity and unit scan; first failing indices listed.

    On the integer table c, one (i, j) block at a time in lexicographic
    order: all (e_i e_j) e_k and e_i (e_j e_k) at once, each block packed
    into one integer with slot (k, l) at bit w (k d + l) (Kronecker
    substitution, ``linalg._pack``).  The left side is the sum of
    c[i][j][m] times the row c[m] packed flat; the right side the sum over
    m of the column (c[j][k][m])_k, packed at stride d w, times the row
    c[i][m].

    A slot of left - right is below B in absolute value: B = 2 d M^2 over
    Q, M the largest |integer| of the table, unit and scale D, and
    B = d (p - 1)^2 over F_p, where the constants are residues.
    ``linalg._slot_width`` takes w from B, and ``linalg._slot_test``
    tests all d^2 slots of the difference at once, for zero over Q and for
    multiples of p over F_p; only a failing block is read slot by slot
    (``linalg._first_slot``).
    The report is the first failing (i, j, k, l); the unit scan packs all
    u e_j and e_j u likewise against D^2 e_j, the first failing j giving
    (j,).  Each block takes O(d^2) slots.
    """
    d = a.dim
    p = a.field.characteristic
    c, u, scale = a.int_table, a.int_unit, a.scale
    if p:
        bound = d * (p - 1) ** 2
    else:
        top = max(itertools.chain((abs(x) for plane in c for cell in plane
                                   for x in cell), map(abs, u), [scale]))
        bound = 2 * d * top * top
    w = _slot_width(bound, p)
    zero = _slot_test(bound, p, w, d * d)
    rows = [[_pack(cell, w) for cell in plane] for plane in c]
    flat = [_pack(plane, d * w) for plane in rows]
    cols = [[_pack([cell[m] for cell in plane], d * w) for m in range(d)]
            for plane in c]
    failing = None
    for i, j in itertools.product(range(d), repeat=2):
        diff = (sum(x * f for x, f in zip(c[i][j], flat) if x)
                - sum(map(mul, cols[j], rows[i])))
        if not zero(diff):
            failing = (i, j) + divmod(_first_slot(diff, w, p), d)
            break
    # slot (j, l): D^2 delta_jl, (u e_j)_l, (e_j u)_l
    want = _pack([scale * scale * (k == l) for k in range(d) for l in range(d)], w)
    left = sum(x * f for x, f in zip(u, flat) if x)
    right = _pack([sum(map(mul, u, plane)) for plane in rows], d * w)
    bad = [_first_slot(x, w, p) for x in (left - want, right - want)
           if not zero(x)]
    unit_failing = (min(bad) // d,) if bad else None
    return {
        "associative": failing is None,
        "unital": unit_failing is None,
        "failing_indices": failing or unit_failing,
    }


def center(a: Algebra) -> list:
    """Echelon basis of {x : x*e_i = e_i*x for all i}: the kernel of the
    integer ``commutator_rows``."""
    return rref_scalars(a.field, integer_kernel(
        commutator_rows(a.int_table), a.dim, a.field.characteristic))


def commutator_rows(c: list) -> list:
    """Rows of x -> (x e_i - e_i x)_i from a table c: row (i, n) holds the
    e_n coordinate of e_m e_i - e_i e_m at column m."""
    d = len(c)
    return [[c[m][i][n] - c[i][m][n] for m in range(d)]
            for i in range(d) for n in range(d)]


def trace_form_gram(c: list) -> list:
    """Rows of the trace form T(e_i, e_j) = trace(L_{e_i e_j}) from an
    integer table c; scaling c by D scales every entry by D^2."""
    d = len(c)
    traces = [sum(c[m][l][l] for l in range(d)) for m in range(d)]
    return [[sum(x * t for x, t in zip(c[i][j], traces)) for j in range(d)]
            for i in range(d)]


def integer_rank(rows: list, p: int) -> int:
    """Exact rank of integer rows over Q (p = 0) or mod p."""
    return sparse_rank([dict(enumerate(row)) for row in rows], p)


def _is_ideal(a: Algebra, rows: list) -> bool:
    """Whether the independent integer rows span a two-sided ideal of a:
    one rank of them and each e_i v (from c[i]) and v e_i (from column i
    of c), c the integer table."""
    c = a.int_table
    d = a.dim
    prods = [[sum(x * side[m][n] for m, x in terms) for n in range(d)]
             for terms in ([(m, x) for m, x in enumerate(v) if x] for v in rows)
             for pair in zip(c, zip(*c)) for side in pair]
    return integer_rank(rows + prods, a.field.characteristic) == len(rows)


def _span_product(a: Algebra, rows1: list, rows2: list) -> list:
    """``integer_echelon`` rows of the span of all x y, x in rows1, y in
    rows2 (integer rows), from the integer table: the products are
    trilinear, so scaling the table or either family scales every one
    alike and the span is unchanged."""
    c = a.int_table
    return integer_echelon([_product(c, x, y) for x in rows1 for y in rows2],
                           a.field.characteristic)


def jacobson_radical(a: Algebra) -> list:
    """Echelon basis of the Jacobson radical.

    Candidate = radical of the trace form T(x,y) = trace(L_{xy}).  The
    candidate always contains the radical (nilpotent ideals have trace-free
    left multiplications); when the candidate is itself verified to be a
    nilpotent ideal the two coincide, in every characteristic.  If that
    verification fails outside the trace criterion's validity range
    (char 0 or char > dim), the computation refuses to guess.
    """
    chain = _radical_chain(a)
    return rref_scalars(a.field, chain[0]) if chain else []


def radical_powers(a: Algebra) -> list:
    """[J, J^2, ...], echelon bases down to the last nonzero power; [] when
    J = 0."""
    return [rref_scalars(a.field, rows) for rows in _radical_chain(a)]


def radical_power_dims(a: Algebra) -> list:
    """[dim J, dim J^2, ...] down to the first zero; [] when J = 0."""
    chain = _radical_chain(a)
    return [len(rows) for rows in chain] + [0] if chain else []


def _radical_chain(a: Algebra) -> list:
    """[J, J^2, ...] as ``integer_echelon`` rows down to the last nonzero
    power; [] when J = 0.  The candidate J is the kernel of the integer
    trace form; the chain that proves it nilpotent is the one returned."""
    char = a.field.characteristic
    candidate = integer_kernel(trace_form_gram(a.int_table), a.dim, char)
    if not candidate:
        return []
    if _is_ideal(a, candidate):
        powers = [candidate]
        for _ in range(a.dim):
            power = _span_product(a, powers[-1], candidate)
            if not power:
                return powers
            powers.append(power)
    if char == 0 or char > a.dim:
        raise AssertionError("trace criterion inconsistency in its validity range")
    raise CriterionInapplicable(
        f"criterion-inapplicable: char {char} <= dim {a.dim} and the trace-form "
        "radical is not a nilpotent ideal"
    )


def is_commutative(a: Algebra) -> bool:
    return all(a.int_table[i][j] == a.int_table[j][i]
               for i in range(a.dim) for j in range(a.dim))


def is_separable(a: Algebra) -> bool:
    """Nondegeneracy of the trace form T(x,y) = trace(L_{xy}).

    Caveat: the criterion can report false negatives when char(k) divides
    the matrix size of a simple block; no desk-scale case here hits that.
    """
    return integer_rank(trace_form_gram(a.int_table), a.field.characteristic) == a.dim


def change_of_basis(a: Algebra, p: Matrix, labels=None) -> Algebra:
    """Transport the structure constants: column j of p is the new basis
    vector b_j written in the old coordinates.

    With Q = p^-1 the new constants are
    T[i][j][n] = sum over x, y of p[x][i] p[y][j] (Q c[x][y])[n],
    on the integer table, P = D_P p and Q times D_Q (``integer_inverse``).
    Q is applied to each nonzero cell c[x][y] first; then two passes
    contract with P (x, then y), each summing flat d^2 rows over the
    nonzero entries of a column of P.  The result, with scale
    D_Q D D_P, goes to ``Algebra._from_integer_form`` (one gcd over Q) and
    through ``verify_axioms``.
    """
    d = a.dim
    if labels is None:
        labels = [f"b{i}" for i in range(d)]
    if len(labels) != d:
        raise ValueError(f"change of basis needs {d} labels, got {len(labels)}")
    if p.field != a.field:
        raise ValueError("field mismatch")
    if p.rows != d or p.cols != d:
        raise ValueError("change of basis must be square of the algebra dimension")
    char = a.field.characteristic
    pm, pscale = scale_to_integers(p.data, char)
    inverse = integer_inverse(pm, char)
    if inverse is None:
        raise ValueError("change of basis matrix is singular")
    qm, qscale = inverse
    pcols = list(zip(*pm))
    qcols = list(zip(*qm))
    # moved[x], flat over (y, n): Q c[x][y], e_x e_y in the new coordinates
    moved = [[v for cell in plane for v in _combine(cell, qcols, d)]
             for plane in a.int_table]
    # left[i], flat over (y, n): b_i e_y; regrouped by y, flat over (i, n)
    left = [_combine(pcols[i], moved, d * d) for i in range(d)]
    by_y = [[v for row in left for v in row[y * d:(y + 1) * d]] for y in range(d)]
    # prods[j], flat over (i, n): b_i b_j
    prods = [_combine(pcols[j], by_y, d * d) for j in range(d)]
    unit = [pscale * pscale * v for v in _combine(a.int_unit, qcols, d)]
    table = [[prods[j][i * d:(i + 1) * d] for j in range(d)] for i in range(d)]
    return Algebra._from_integer_form(a.field, labels, table, unit,
                                      qscale * a.scale * pscale)


def _combine(coeffs, rows, width: int) -> list:
    """The sum of x * rows[m] over the nonzero x = coeffs[m], as a list of
    ``width`` integers."""
    out = [0] * width
    for x, row in zip(coeffs, rows):
        if x:
            out = [s + x * y for s, y in zip(out, row)]
    return out


def standard_algebra(name: str, field: Field, n: int = None, q=None) -> Algebra:
    """Fixed reference presentations used throughout, as integer forms.

    k_n(n): product of n copies of k, orthogonal idempotent basis.
    group_algebra_z2: basis (1, a) with a^2 = 1.
    matrix2: 2x2 matrix units (e11, e12, e21, e22).
    a_q(q): basis (1, a, b, ab), relations a^2 = b^2 = 1, ab + ba = q.
    truncated_roundtrip: basis (e, f, x, y), radical-square-zero table.
    qtilde_path_algebra: three vertices, one arrow; basis (e0, e1, e2, g).
    """
    # the nonzero constants (i, j, k), each 1: e_i e_j = e_k
    if name == "k_n":
        if n is None or n < 1:
            raise ValueError("k_n requires n >= 1")
        labels, unit = [f"e{i}" for i in range(n)], [1] * n
        ones = [(i, i, i) for i in range(n)]
    elif name == "group_algebra_z2":
        labels, unit = ["1", "a"], [1, 0]
        ones = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    elif name == "matrix2":
        # e_ij e_jl = e_il, with e_ij at index 2 i + j (i, j from 0)
        labels, unit = ["e11", "e12", "e21", "e22"], [1, 0, 0, 1]
        ones = [(2 * i + j, 2 * j + l, 2 * i + l)
                for i in range(2) for j in range(2) for l in range(2)]
    elif name == "a_q":
        if q is None:
            raise ValueError("a_q requires the parameter q")
        # q = n / s; basis order (1, a, b, ab); ba rewritten as q*1 - ab
        qv = field.scalar(q)
        n, s = qv.numerator, qv.denominator
        table = [
            [[s, 0, 0, 0], [0, s, 0, 0], [0, 0, s, 0], [0, 0, 0, s]],
            [[0, s, 0, 0], [s, 0, 0, 0], [0, 0, 0, s], [0, 0, s, 0]],
            [[0, 0, s, 0], [n, 0, 0, -s], [s, 0, 0, 0], [0, -s, n, 0]],
            [[0, 0, 0, s], [0, n, -s, 0], [0, s, 0, 0], [-s, 0, 0, n]],
        ]
        return Algebra._from_integer_form(field, ["1", "a", "b", "ab"], table,
                                          [s, 0, 0, 0], s)
    elif name == "truncated_roundtrip":
        labels, unit = ["e", "f", "x", "y"], [1, 1, 0, 0]
        ones = [(0, 0, 0), (0, 3, 3), (1, 1, 1), (1, 2, 2), (2, 0, 2), (3, 1, 3)]
    elif name == "qtilde_path_algebra":
        # g is the arrow from vertex 1 to vertex 2: e1*g = g = g*e2
        labels, unit = ["e0", "e1", "e2", "g"], [1, 1, 1, 0]
        ones = [(0, 0, 0), (1, 1, 1), (2, 2, 2), (1, 3, 3), (3, 2, 3)]
    else:
        raise ValueError(f"unknown standard algebra {name!r}")
    d = len(labels)
    table = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i, j, k in ones:
        table[i][j][k] = 1
    return Algebra._from_integer_form(field, labels, table, unit, 1)
