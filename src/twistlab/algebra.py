"""Finite-dimensional associative unital algebras by structure constants.

An algebra holds its constants once, as an integer form:
``int_table[i][j][k]`` and ``int_unit`` are D times the coefficient of e_k
in e_i * e_j and D times the unit, for one scale D (``scale``), the lcm of
the denominators over Q; over F_p they are residues and D = 1.  The form
is unique, so equal constants are equal forms.  Invariant computations
(center, Jacobson radical, separability) are the data the classification
of the 4-dimensional twisted products rests on; ``split_idempotents``
reads orthogonal idempotents off the table.

Everything reads the integer form: the axiom check, base change, algebra
maps, the trace form, the center, the radical's powers and the Hochschild
coboundaries.  Each such quantity is a sum of products of a fixed number
k of constants, so the integer sum is D^k times the true one: a rank, a
kernel and d^2 = 0 are unchanged, an equality holds once each side is
multiplied by the scales it lacks, and a transported constant is
recovered by one exact division.  A matrix (a base change, an algebra
map) enters by its own integer form, ``Matrix.ints`` over
``Matrix.scale``, likewise.  The inner loops make no Fraction.
Field scalars appear at the boundaries only: ``Algebra(field, labels,
table, unit)`` converts scalar input once (``from_doc`` goes through it),
and ``table``, ``unit`` and ``multiply_coords`` compute them from the
integer form on each call.  An element is its list of coordinates as
field scalars (``basis_element``).  Internal constructors hand an
integer form over whole (``Algebra._from_integer_form``).
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import isqrt
from operator import mul

from .fields import Field, field_from_name
from .linalg import (
    Matrix,
    _field_scalars,
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
    unique_form,
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
        F_p), brought to the unique form (``linalg.unique_form``): reduced
        mod p over F_p, divided over Q by the gcd of the scale and all the
        integers, which leaves the lcm of the denominators."""
        (int_table, int_unit), scale = unique_form(
            [int_table, int_unit], scale, field.characteristic)
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

    def basis_element(self, i: int) -> list:
        """The coordinates of e_i as field scalars, for i in 0..dim-1."""
        if not 0 <= i < self.dim:
            raise ValueError(f"basis index {i} is outside 0..{self.dim - 1} "
                             f"for an algebra of dim {self.dim}")
        return [self.field.scalar(int(k == i)) for k in range(self.dim)]

    def multiply_coords(self, x: list, y: list) -> list:
        """x * y on coordinates given and returned as field scalars: x and
        y times one common scale s are integers, and their ``_product`` on
        the integer table is divided once by s^2 D."""
        for v in (x, y):
            if len(v) != self.dim:
                raise ValueError(f"{len(v)} coordinates for an algebra of dim {self.dim}")
        (xs, ys), s = scale_to_integers([list(x), list(y)], self.field.characteristic)
        return _field_scalars(self.field, _product(self.int_table, xs, ys),
                              s * s * self.scale)

    # serialization

    def to_doc(self) -> dict:
        text = self.field.scalar_to_str
        return {
            "field": self.field.name,
            "dim": self.dim,
            "basis": list(self.basis_labels),
            "unit": [text(x) for x in self.unit],
            "table": [[[text(x) for x in cell] for cell in plane]
                      for plane in self.table],
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

    On integers: the integer forms M of m (scale D_M), C_a, U_a of a
    (scale D_a) and C_b, U_b of b (scale D_b).  Cleared of
    their denominators, the conditions read D_b M U_a = D_M D_a U_b and
    D_M D_b M C_a[i][j] = D_a sum over (k, l) of M[k][i] M[l][j] C_b[k][l],
    compared exactly over Q and mod p over F_p.
    """
    if m.field != a.field or a.field != b.field:
        raise ValueError("field mismatch")
    if (m.rows, m.cols) != (b.dim, a.dim):
        raise ValueError(f"an algebra map needs a {b.dim}x{a.dim} matrix")
    p = a.field.characteristic
    dm = m.scale
    cols = list(zip(*m.ints))
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


def is_separable(a: Algebra) -> bool:
    """Nondegeneracy of the trace form T(x,y) = trace(L_{xy}).

    Caveat: the criterion can report false negatives when char(k) divides
    the matrix size of a simple block.  ``matrix2`` over GF(2) is one:
    M_2(F_2) is separable, but every L_{xy} has trace 2 tr(xy) = 0, so
    the answer is False (and ``radical_power_dims`` refuses it).
    """
    return integer_rank(trace_form_gram(a.int_table), a.field.characteristic) == a.dim


def change_of_basis(a: Algebra, p: Matrix, labels=None) -> Algebra:
    """Transport the structure constants: column j of p is the new basis
    vector b_j written in the old coordinates.

    With Q = p^-1 the new constants are
    T[i][j][n] = sum over x, y of p[x][i] p[y][j] (Q c[x][y])[n],
    on the integer table, P = D_P p (p's integer form) and Q times D_Q
    (``integer_inverse``).
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
    pm, pscale = p.ints, p.scale
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


def split_idempotents(a: Algebra) -> list:
    """Complete orthogonal idempotents read off the integer table, as
    coordinate lists of field scalars; [unit] when none is found.

    Orthogonal basis idempotents that sum to the unit and hold every basis
    vector in a block e_u A e_v (k_n, matrix2, path algebras) are returned
    from O(d^3) table reads and no product.  Otherwise each basis vector b
    with b^2 = alpha + beta b, two distinct roots l1, l2 in the field
    (``_two_roots``) and b b' = b' b for every b' taken so far, of which
    the set is made, splits each e of the set into e f and e (1 - f),
    f = (b - l2) / (l1 - l2).  One product checks f f = f exactly.  Each
    e is a polynomial in the b' taken, so f commutes with it, and then
    the e f and e (1 - f) are idempotent, pairwise orthogonal and sum to
    the unit.  The split is kept when it adds an idempotent.
    """
    d, c, u, s = a.dim, a.int_table, a.int_unit, a.scale
    p, scalar = a.field.characteristic, a.field.scalar
    one = [[s * (k == i) for k in range(d)] for i in range(d)]
    picked = [i for i in range(d) if c[i][i] == one[i]]
    if len(picked) > 1 and u == [s * (i in picked) for i in range(d)] and all(
            c[i][j] == [0] * d for i in picked for j in picked if i != j) and all(
            any(c[i][x] == one[x] for i in picked)
            and any(c[x][i] == one[x] for i in picked) for x in range(d)):
        return [a.basis_element(i) for i in picked]
    unit = _field_scalars(a.field, u, s)
    found, taken = [unit], []
    for b, sq in enumerate(c[i][i] for i in range(d)):
        k0 = next((k for k in range(d) if k != b and u[k]), None)
        if k0 is None or any(c[b][t] != c[t][b] for t in taken) or _differ(
                [x * u[k0] for k, x in enumerate(sq) if k != b],
                [x * sq[k0] for k, x in enumerate(u) if k != b], p):
            continue
        # alpha and beta read off the coordinates k0 and b of b^2
        roots = _two_roots(scalar(Fraction(sq[k0], u[k0])), scalar(
            Fraction(sq[b] * u[k0] - sq[k0] * u[b], s * u[k0])), p)
        if roots is None:
            continue
        l1, l2 = roots
        inv = pow(l1 - l2, -1, p) if p else 1 / (l1 - l2)
        f = [scalar(((k == b) - l2 * y) * inv) for k, y in enumerate(unit)]
        (fs,), t = scale_to_integers([f], p)
        if _differ(_product(c, fs, fs), [t * s * v for v in fs], p):
            continue
        refined = []
        for e in found:
            eb = a.multiply_coords(e, a.basis_element(b))
            ef = [scalar((x - l2 * y) * inv) for x, y in zip(eb, e)]
            refined += [x for x in (ef, [scalar(y - z) for y, z in zip(e, ef)]) if any(x)]
        if len(refined) > len(found):
            found, taken = refined, taken + [b]
    return found


def _two_roots(alpha, beta, p: int):
    """The two distinct roots of x^2 - beta x - alpha in Q (p = 0) or F_p,
    or None: (beta, 0) when alpha = 0, else (beta +- r) / 2 for r a
    nonzero square root of beta^2 + 4 alpha (by ``isqrt`` over Q and
    ``_sqrt_mod`` over F_p, p odd; over F_2 only alpha = 0 has two)."""
    if not alpha or p == 2:
        return (beta, 0) if beta and not alpha else None
    disc = beta * beta + 4 * alpha
    if p:
        r = _sqrt_mod(disc % p, p)
        half = (p + 1) // 2
        return ((beta + r) * half % p, (beta - r) * half % p) if r else None
    r = Fraction(isqrt(max(disc.numerator, 0)), isqrt(disc.denominator))
    return ((beta + r) / 2, (beta - r) / 2) if r and r * r == disc else None


def _sqrt_mod(n: int, p: int):
    """A square root of the residue n modulo the odd prime p, or None when
    there is none (Tonelli-Shanks, with the least non-residue z)."""
    if pow(n, (p - 1) // 2, p) != 1:
        return None if n else 0
    q, m = p - 1, 0
    while q % 2 == 0:
        q, m = q // 2, m + 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    cz, t, r = pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i = next(i for i in range(1, m) if pow(t, 1 << i, p) == 1)
        b = pow(cz, 1 << (m - i - 1), p)
        m, cz, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _combine(coeffs, rows, width: int) -> list:
    """The sum of x * rows[m] over the nonzero x = coeffs[m], as a list of
    ``width`` values, unreduced: integers, or `census_search.Poly` values
    in the census scan.  Only nonzero entries of the rows are multiplied."""
    out = [0] * width
    for x, row in zip(coeffs, rows):
        if x:
            for k, y in enumerate(row):
                if y:
                    out[k] += x * y
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
