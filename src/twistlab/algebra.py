"""Finite-dimensional associative unital algebras by structure constants.

``table[i][j][k]`` is the coefficient of e_k in e_i * e_j.  Invariant
computations (center, Jacobson radical, separability) are the data the
classification of the 4-dimensional twisted products rests on.

Every algebra carries one integer form of its constants, made once at
construction: ``int_table`` and ``int_unit`` are ``table`` and ``unit``
times one scale D (``scale_to_integers``: the lcm of their denominators
over Q).  Over F_p the constants are already residues: D = 1, and
``int_table`` and ``int_unit`` are ``table`` and ``unit`` themselves, not
a copy.  Every scan over the whole table (the axiom check, base change,
the trace form, the center's commutator rows, the radical's powers, the
Hochschild coboundaries) reads these.  Each such quantity is a sum of
products of a fixed number k of constants, so the integer sum is D^k
times the true one: an equality, a rank, a kernel and d^2 = 0 are
unchanged, and a transported constant is recovered by one exact
division.  The inner loops make no Fraction.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

from .fields import Field, field_from_name
from .linalg import Matrix, echelon_basis, scale_to_integers, sparse_rank


class CriterionInapplicable(Exception):
    """The trace-form radical criterion could not be certified."""


class Algebra:
    """An algebra by structure constants; ``table`` and ``unit`` are not
    mutated after construction, so the integer form made from them here
    (``int_table``, ``int_unit``, ``scale``) stays valid."""

    __slots__ = ("field", "dim", "basis_labels", "table", "unit",
                 "int_table", "int_unit", "scale")

    def __init__(self, field: Field, basis_labels, table, unit, check=False):
        self.field = field
        self.dim = len(basis_labels)
        self.basis_labels = [str(s) for s in basis_labels]
        d = self.dim
        if len(unit) != d or len(table) != d or any(
            len(plane) != d or any(len(cell) != d for cell in plane)
            for plane in table
        ):
            raise ValueError("table/unit shape does not match the basis")
        self.table = [[[field.scalar(x) for x in cell] for cell in plane]
                      for plane in table]
        self.unit = [field.scalar(x) for x in unit]
        if field.characteristic:
            self.int_table, self.int_unit, self.scale = self.table, self.unit, 1
        else:
            (self.int_table, self.int_unit), self.scale = scale_to_integers(
                [self.table, self.unit], 0)
        if check:
            report = verify_axioms(self)
            if not (report["associative"] and report["unital"]):
                raise ValueError(f"algebra axioms fail: {report['failing_indices']}")

    def __repr__(self) -> str:
        return f"Algebra({self.field.name}, dim {self.dim}: {', '.join(self.basis_labels)})"

    def element(self, coords) -> "Element":
        return Element(self, [self.field.scalar(x) for x in coords])

    def basis_element(self, i: int) -> "Element":
        coords = [self.field.zero] * self.dim
        coords[i] = self.field.one
        return Element(self, coords)

    def unit_element(self) -> "Element":
        return Element(self, list(self.unit))

    def multiply_coords(self, x: list, y: list) -> list:
        f = self.field
        p = f.characteristic
        out = [f.zero] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            ti = self.table[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = xi * yj
                row = ti[j]
                for k in range(self.dim):
                    if row[k]:
                        out[k] = out[k] + c * row[k]
        if p:
            out = [v % p for v in out]
        return out

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


def is_algebra_map(m: Matrix, a: Algebra, b: Algebra) -> bool:
    """Whether m, column j the image of a's j-th basis vector in b's
    coordinates, is a unital algebra map a -> b: m(1) = 1 and
    m(e_i e_j) = m(e_i) m(e_j) for every pair of basis vectors."""
    if m.apply(a.unit) != b.unit:
        return False
    cols = [m.col(j) for j in range(a.dim)]
    return all(m.apply(a.table[i][j]) == b.multiply_coords(cols[i], cols[j])
               for i in range(a.dim) for j in range(a.dim))


def verify_axioms(a: Algebra) -> dict:
    """Exhaustive associativity and unit scan; first failing indices listed.

    On the integer table, for each (i, j, k) in lexicographic order the
    two coordinate rows of (e_i e_j) e_k and e_i (e_j e_k) are summed over
    the nonzero constants only and compared (mod p over F_p); the first
    differing l gives the failing (i, j, k, l).  u e_j and e_j u are
    compared with D^2 e_j; the first failing j gives (j,).
    """
    d = a.dim
    p = a.field.characteristic
    c, u, scale = a.int_table, a.int_unit, a.scale
    nonzero = [[[(m, x) for m, x in enumerate(cell) if x] for cell in plane]
               for plane in c]
    failing = None
    for i, j, k in itertools.product(range(d), repeat=3):
        lhs = [0] * d
        for m, x in nonzero[i][j]:
            lhs = [s + x * y for s, y in zip(lhs, c[m][k])]
        rhs = [0] * d
        for m, x in nonzero[j][k]:
            rhs = [s + x * y for s, y in zip(rhs, c[i][m])]
        if p:
            lhs = [s % p for s in lhs]
            rhs = [s % p for s in rhs]
        if lhs != rhs:
            failing = (i, j, k, next(l for l in range(d) if lhs[l] != rhs[l]))
            break
    unit_failing = None
    unit_terms = [(i, x) for i, x in enumerate(u) if x]
    for j in range(d):
        want = [scale * scale if m == j else 0 for m in range(d)]
        left = [0] * d
        right = [0] * d
        for i, x in unit_terms:
            left = [s + x * y for s, y in zip(left, c[i][j])]
            right = [s + x * y for s, y in zip(right, c[j][i])]
        if p:
            left = [s % p for s in left]
            right = [s % p for s in right]
        if left != want or right != want:
            unit_failing = (j,)
            break
    return {
        "associative": failing is None,
        "unital": unit_failing is None,
        "failing_indices": failing or unit_failing,
    }


def center(a: Algebra) -> list:
    """Echelon basis of {x : x*e_i = e_i*x for all i}: the kernel of the
    integer ``commutator_rows``."""
    return Matrix(a.field, a.dim * a.dim, a.dim,
                  commutator_rows(a.int_table)).kernel_basis()


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


def _is_ideal(a: Algebra, basis: list) -> bool:
    """Whether the independent rows ``basis`` span a two-sided ideal of a:
    one rank of them and each e_i v (from c[i]) and v e_i (from column i
    of c), c the integer table."""
    p = a.field.characteristic
    rows, _ = scale_to_integers(basis, p)
    c = a.int_table
    d = a.dim
    prods = [[sum(x * side[m][n] for m, x in terms) for n in range(d)]
             for terms in ([(m, x) for m, x in enumerate(v) if x] for v in rows)
             for pair in zip(c, zip(*c)) for side in pair]
    return integer_rank(rows + prods, p) == len(rows)


def _span_product(a: Algebra, basis1: list, basis2: list) -> list:
    """Echelon basis of the span of all x y, x in basis1, y in basis2, from
    the integer table c.  Each basis is scaled to integers on its own: the
    products are trilinear, so every one is scaled alike and the span is
    unchanged."""
    p = a.field.characteristic
    c = a.int_table
    rows1, _ = scale_to_integers(basis1, p)
    rows2, _ = scale_to_integers(basis2, p)
    terms2 = [[(j, y) for j, y in enumerate(row) if y] for row in rows2]
    prods = []
    for x in rows1:
        for terms in terms2:
            out = [0] * len(c)
            for i, xi in enumerate(x):
                if xi:
                    for j, y in terms:
                        out = [o + xi * y * v for o, v in zip(out, c[i][j])]
            prods.append(out)
    return echelon_basis(a.field, prods)


def jacobson_radical(a: Algebra) -> list:
    """Echelon basis of the Jacobson radical.

    Candidate = radical of the trace form T(x,y) = trace(L_{xy}).  The
    candidate always contains the radical (nilpotent ideals have trace-free
    left multiplications); when the candidate is itself verified to be a
    nilpotent ideal the two coincide, in every characteristic.  If that
    verification fails outside the trace criterion's validity range
    (char 0 or char > dim), the computation refuses to guess.
    """
    powers = radical_powers(a)
    return powers[0] if powers else []


def radical_powers(a: Algebra) -> list:
    """[J, J^2, ...], echelon bases down to the last nonzero power; [] when
    J = 0.  The candidate J is the kernel of the integer trace form; the
    chain that proves it nilpotent is the one returned."""
    candidate = Matrix(a.field, a.dim, a.dim,
                       trace_form_gram(a.int_table)).kernel_basis()
    if not candidate:
        return []
    char = a.field.characteristic
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


def radical_power_dims(a: Algebra) -> list:
    """[dim J, dim J^2, ...] down to the first zero; [] when J = 0."""
    powers = radical_powers(a)
    return [len(j) for j in powers] + [0] if powers else []


def is_commutative(a: Algebra) -> bool:
    return all(
        a.table[i][j] == a.table[j][i] for i in range(a.dim) for j in range(a.dim)
    )


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
    T[i][j][n] = sum over x, y, m of p[x][i] p[y][j] c[x][y][m] Q[n][m],
    summed on the integer table and on p and Q scaled by their own D_p,
    then divided by D_p^3 times the table's scale.  The result is built
    with check=True: every transported table goes through
    ``verify_axioms`` again.
    """
    if p.rows != a.dim or p.cols != a.dim:
        raise ValueError("change of basis must be square of the algebra dimension")
    pinv = p.inverse()
    if pinv is None:
        raise ValueError("change of basis matrix is singular")
    d = a.dim
    char = a.field.characteristic
    (pm, qm), scale = scale_to_integers([p.data, pinv.data], char)
    c = a.int_table
    pcols = [[row[i] for row in pm] for i in range(d)]
    denom = scale ** 3 * a.scale
    table = []
    for i in range(d):
        # left[y]: coordinates of b_i * e_y
        left = [[sum(x * c[k][y][m] for k, x in enumerate(pcols[i]))
                 for m in range(d)] for y in range(d)]
        row = []
        for j in range(d):
            prod = [sum(x * left[k][m] for k, x in enumerate(pcols[j]))
                    for m in range(d)]
            new = [sum(q * v for q, v in zip(qrow, prod)) for qrow in qm]
            row.append([v % char for v in new] if char
                       else [Fraction(v, denom) for v in new])
        table.append(row)
    unit = pinv.apply(a.unit)
    if labels is None:
        labels = [f"b{i}" for i in range(d)]
    return Algebra(a.field, labels, table, unit, check=True)


def standard_algebra(name: str, field: Field, n: int = None, q=None) -> Algebra:
    """Fixed reference presentations used throughout.

    k_n(n): product of n copies of k, orthogonal idempotent basis.
    group_algebra_z2: basis (1, a) with a^2 = 1.
    matrix2: 2x2 matrix units (e11, e12, e21, e22).
    a_q(q): basis (1, a, b, ab), relations a^2 = b^2 = 1, ab + ba = q.
    truncated_roundtrip: basis (e, f, x, y), radical-square-zero table.
    qtilde_path_algebra: three vertices, one arrow; basis (e0, e1, e2, g).
    """
    f = field
    if name == "k_n":
        if n is None or n < 1:
            raise ValueError("k_n requires n >= 1")
        labels = [f"e{i}" for i in range(n)]
        table = [
            [[f.one if i == j == k else f.zero for k in range(n)] for j in range(n)]
            for i in range(n)
        ]
        return Algebra(f, labels, table, [f.one] * n, check=True)
    if name == "group_algebra_z2":
        return Algebra(
            f,
            ["1", "a"],
            [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
            [1, 0],
            check=True,
        )
    if name == "matrix2":
        labels = ["e11", "e12", "e21", "e22"]
        idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
        table = [[[f.zero] * 4 for _ in range(4)] for _ in range(4)]
        for (i, j), r in idx.items():
            for (k, l), c in idx.items():
                if j == k:
                    table[r][c][idx[(i, l)]] = f.one
        return Algebra(f, labels, table, [1, 0, 0, 1], check=True)
    if name == "a_q":
        if q is None:
            raise ValueError("a_q requires the parameter q")
        qv = f.scalar(q)
        z, o = f.zero, f.one
        m = f.neg(f.one)
        # basis order (1, a, b, ab); ba rewritten as q*1 - ab
        table = [
            [[o, z, z, z], [z, o, z, z], [z, z, o, z], [z, z, z, o]],
            [[z, o, z, z], [o, z, z, z], [z, z, z, o], [z, z, o, z]],
            [[z, z, o, z], [qv, z, z, m], [o, z, z, z], [z, m, qv, z]],
            [[z, z, z, o], [z, qv, m, z], [z, o, z, z], [m, z, z, qv]],
        ]
        return Algebra(f, ["1", "a", "b", "ab"], table, [1, 0, 0, 0], check=True)
    if name == "truncated_roundtrip":
        labels = ["e", "f", "x", "y"]
        table = [[[f.zero] * 4 for _ in range(4)] for _ in range(4)]
        nonzero = {("e", "e"): "e", ("e", "y"): "y", ("f", "f"): "f",
                   ("f", "x"): "x", ("x", "e"): "x", ("y", "f"): "y"}
        pos = {lbl: i for i, lbl in enumerate(labels)}
        for (li, lj), lk in nonzero.items():
            table[pos[li]][pos[lj]][pos[lk]] = f.one
        return Algebra(f, labels, table, [1, 1, 0, 0], check=True)
    if name == "qtilde_path_algebra":
        labels = ["e0", "e1", "e2", "g"]
        table = [[[f.zero] * 4 for _ in range(4)] for _ in range(4)]
        for i in range(3):
            table[i][i][i] = f.one
        # g is the arrow from vertex 1 to vertex 2: e1*g = g = g*e2
        table[1][3][3] = f.one
        table[3][2][3] = f.one
        return Algebra(f, labels, table, [1, 1, 1, 0], check=True)
    raise ValueError(f"unknown standard algebra {name!r}")
