"""Exact linear algebra on one elimination kernel.

``sparse_echelon`` is the only elimination: sparse integer rows (residues
over F_p), each new row reduced at its largest coordinate only, for as
long as that coordinate is the pivot of a row kept so far, and then kept
with it as pivot. Every cochain rank (``sparse_rank``) is one pass of it.
``integer_echelon`` adds the back-substitution and returns the reduced
echelon form as integer rows; the structural computations (ranks,
kernels, inverses, radicals, base changes) work on those rows.  A dense
``Matrix`` is a record of one integer form, like an algebra: integer rows
``ints`` and one ``scale``, converted once from scalar input.  Its rank
works on that form, and every other module reads ``ints`` and ``scale``
rather than re-scaling the matrix; field scalars are made only for
results (``data``, ``col``, ``rref_scalars``).  The
reduced echelon form of a span is unique, so kernel bases are
byte-stable across runs.

The exact d^2 = 0 check ``sparse_compose_zero`` is one sparse product:
it forms a product only where an inner entry meets an outer one, and
reads its entries as given (F_p cochain columns hold signed residues,
``hochschild._signed``).  ``algebra.verify_axioms`` tests a dense table
with the packing toolkit: a vector becomes one integer by Kronecker
substitution (``_pack``), ``_slot_width`` takes the slot width from a
bound on the slots, and ``_slot_test`` tests all of them at once, so its
inner loops are big-integer sums.

``p`` is the characteristic throughout: 0 for Q, a prime for F_p.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import not_

from .fields import Field


class Matrix:
    """A matrix over Q or F_p as its integer form: entry (i, j) is
    ``ints[i][j] / scale``, the scale the lcm of the denominators over Q
    and 1 over F_p, where the integers are residues.  The form is unique,
    so equal matrices are equal forms.  It holds no arithmetic: callers
    read ``ints`` and ``scale`` and work on the integers."""

    __slots__ = ("field", "rows", "cols", "ints", "scale")

    def __init__(self, field: Field, rows: int, cols: int, entries=None):
        """The matrix of scalar input (ints, Fractions or strings),
        converted once; the zero matrix when entries is None."""
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix shape")
        if entries is None:
            entries = [[0] * cols for _ in range(rows)]
        data = [[field.scalar(x) for x in row] for row in entries]
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("entries do not match the stated shape")
        self.field, self.rows, self.cols = field, rows, cols
        self.ints, self.scale = scale_to_integers(data, field.characteristic)

    @classmethod
    def _from_integer_form(cls, field: Field, rows: int, cols: int, ints,
                           scale: int) -> "Matrix":
        """The matrix ints / scale, for any integer rows and a positive
        scale (1 over F_p), brought to the unique form (``unique_form``)."""
        m = cls.__new__(cls)
        m.field, m.rows, m.cols = field, rows, cols
        m.ints, m.scale = unique_form(ints, scale, field.characteristic)
        return m

    @property
    def data(self) -> list:
        """The entries as field scalars, made on each call."""
        return [_field_scalars(self.field, row, self.scale) for row in self.ints]

    @classmethod
    def from_rows(cls, field: Field, rows: list) -> "Matrix":
        return cls(field, len(rows), len(rows[0]) if rows else 0, rows)

    def col(self, j: int) -> list:
        return _field_scalars(self.field, [row[j] for row in self.ints], self.scale)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and all(
            getattr(other, k) == getattr(self, k) for k in self.__slots__)

    def __repr__(self) -> str:
        return f"Matrix({self.field.name}, {self.rows}x{self.cols})"

    def rank(self) -> int:
        return len(integer_echelon(self.ints, self.field.characteristic))


def _leading(row: list) -> int:
    return next(i for i, x in enumerate(row) if x)


def _field_scalars(field: Field, ints: list, scale: int) -> list:
    """ints / scale as field scalars: Fractions over Q, residues over F_p
    (where the scale is 1)."""
    p = field.characteristic
    return [x % p for x in ints] if p else [Fraction(x, scale) for x in ints]


def scale_to_integers(values: list, p: int) -> tuple:
    """(ints, D): scalars in nested lists as integers of the same shape.

    Over F_p (p > 0) the entries become residues and D = 1.  Over Q every
    entry v becomes the integer v * D, where D is the lcm of the
    denominators: the one scale that clears them all.
    """
    scale = 1 if p else lcm(*{v.denominator for v in _leaves(values)})
    return _scaled(values, p, scale), scale


def unique_form(values: list, scale: int, p: int) -> tuple:
    """(ints, D): integers in nested lists over a positive scale (1 over
    F_p), brought to the unique form of the same scalars: residues over
    F_p; over Q the integers and the scale divided by their gcd, which
    leaves D the lcm of the denominators."""
    if p:
        return _scaled(values, p, 1), 1
    g = gcd(scale, *_leaves(values))
    return _divided(values, g), scale // g


def _leaves(values: list):
    for v in values:
        if isinstance(v, list):
            yield from _leaves(v)
        else:
            yield v


def _scaled(values: list, p: int, scale: int) -> list:
    return [_scaled(v, p, scale) if isinstance(v, list) else v % p if p
            else v.numerator * (scale // v.denominator) for v in values]


def _divided(values: list, g: int) -> list:
    return [_divided(v, g) if isinstance(v, list) else v // g for v in values]


def rref_scalars(field: Field, rows: list) -> list:
    """Field scalars of ``integer_echelon`` rows: each divided by its
    leading entry over Q; over F_p that entry is already 1."""
    if field.characteristic:
        return rows
    out = []
    for row in rows:
        lead = row[_leading(row)]
        out.append([Fraction(x, lead) for x in row])
    return out


def integer_echelon(rows: list, p: int) -> list:
    """Reduced echelon form of the span of integer rows (residues over
    F_p), as integer rows by ascending leading column: each is the RREF
    row times its leading entry (1 over F_p; over Q the row is primitive
    and its leading entry positive), so the rows depend on the span alone.

    Coordinate j is numbered n - 1 - j, so that the pivot ``sparse_echelon``
    picks is the leading column.  Back-substitution takes the kept rows by
    ascending pivot and clears each at the other pivots it holds, largest
    first, with rows already cleared, so no pivot moves.
    """
    top = len(rows[0]) - 1 if rows else 0
    pivots = sparse_echelon(
        [{top - j: x for j, x in enumerate(row) if x} for row in rows], p)
    for k in sorted(pivots):
        row = pivots[k]
        for j in sorted((j for j in row if j != k and j in pivots), reverse=True):
            _eliminate(row, pivots[j], j, p)
    out = []
    for k in sorted(pivots, reverse=True):
        vec = [0] * (top + 1)
        for c, x in pivots[k].items():
            vec[top - c] = x
        g = 1 if p else (gcd(*vec) if vec[top - k] > 0 else -gcd(*vec))
        out.append([x // g for x in vec] if g != 1 else vec)
    return out


def integer_kernel(rows: list, width: int, p: int) -> list:
    """``integer_echelon`` rows spanning the right null space of integer
    rows of the given width: free column f gives L e_f minus, at each
    leading column c, L r[f] / r[c], L the lcm of the leading entries."""
    red = integer_echelon(rows, p)
    leads = [_leading(row) for row in red]
    scale = lcm(*(row[c] for row, c in zip(red, leads)))
    basis = []
    for free in sorted(set(range(width)) - set(leads)):
        v = [0] * width
        v[free] = scale
        for row, c in zip(red, leads):
            v[c] = -row[free] * (scale // row[c])
        basis.append(v)
    return integer_echelon(basis, p)


def integer_inverse(rows: list, p: int):
    """(Q, D) with Q / D the inverse of the square integer matrix rows,
    or None when it is singular: [rows | I] reduces to [L | L rows^-1], L
    the diagonal of leading entries, D = lcm(L); over F_p D = 1."""
    n = len(rows)
    red = integer_echelon([row + [int(i == j) for j in range(n)]
                           for i, row in enumerate(rows)], p)
    if [_leading(row) for row in red] != list(range(n)):
        return None
    den = lcm(*(row[i] for i, row in enumerate(red)))
    return [[x * (den // row[i]) for x in row[n:]] for i, row in enumerate(red)], den


# the elimination kernel


def sparse_echelon(vectors: list, p: int = 0) -> dict:
    """Pivot rows {pivot: row} spanning a family of sparse vectors over Q
    (p = 0) or F_p.

    Each vector is a dict {coordinate: int}.  Over Q the entries must be
    integers (scale each vector beforehand; scaling does not change the
    span).  Standard column reduction (Edelsbrunner-Letscher-Zomorodian
    2002): while the largest coordinate of a vector is the pivot of a kept
    row, that row clears it; a vector left nonzero is kept with its
    largest coordinate as pivot.  Only the leading entry is reduced, so a
    kept row may be nonzero at smaller pivots; rows with distinct largest
    coordinates are triangular all the same, and the pivot set is that of
    full reduction.  Over Q a kept row is gcd-reduced, which keeps the
    integers small on the incidence-like matrices this is used for, and
    its sign is whatever ``_eliminate`` left (it never rescales a row by
    -1 alone); over F_p it is scaled to pivot 1.
    """
    pivots = {}
    for vec in vectors:
        if not p:
            v = dict(vec) if all(vec.values()) else {
                k: x for k, x in vec.items() if x}
        else:
            v = {}
            for k, x in vec.items():
                x %= p
                if x:
                    v[k] = x
        while v:
            # max coordinate: cochain scatter puts near-unique high row
            # indices in each column, so these pivots rarely collide and
            # the elimination stays sparse
            lead = max(v)
            piv = pivots.get(lead)
            if piv is None:
                if p:
                    inv = pow(v[lead], -1, p)
                    if inv != 1:
                        v = {k: (x * inv) % p for k, x in v.items()}
                pivots[lead] = v
                break
            _eliminate(v, piv, lead, p)
    return pivots


def _eliminate(v: dict, piv: dict, k: int, p: int) -> None:
    """Clear coordinate k of v, in place, with the row piv (nonzero at k).

    Over F_p piv[k] is 1.  Over Q, with g = gcd(piv[k], v[k]), v becomes
    (piv[k] / g) v - (v[k] / g) piv, divided by the gcd of its entries.
    When piv[k] / g is negative, both coefficients change sign instead,
    which negates the result: the span is the same, and no pass over v
    rescales it by -1 (fraction-free elimination spends no pass that
    does not clear an entry; Bareiss 1968).
    """
    if p:
        c = v[k]
        for j, x in piv.items():
            y = (v.get(j, 0) - c * x) % p
            if y:
                v[j] = y
            else:
                v.pop(j, None)
        return
    a, b = piv[k], v[k]
    g = gcd(a, b) if a > 0 else -gcd(a, b)
    ca, cb = a // g, b // g
    if ca != 1:
        for j in v:
            v[j] *= ca
    for j, x in piv.items():
        y = v.get(j, 0) - cb * x
        if y:
            v[j] = y
        else:
            v.pop(j, None)
    if v:
        g = 0
        for x in v.values():
            g = gcd(g, x)
            if g == 1:
                break
        if g > 1:
            for j in v:
                v[j] //= g


def sparse_rank(vectors: list, p: int = 0) -> int:
    """Rank of a family of sparse vectors over Q (p = 0) or F_p."""
    return len(sparse_echelon(vectors, p))


def sparse_compose_zero(outer: list, inner: list, p: int = 0) -> bool:
    """Whether outer∘inner = 0 for sparse column families, exactly.

    ``inner[j]`` is the j-th column of the first map as {row: int}; the
    rows of ``inner`` index the columns of ``outer``.  Column j of the
    composite is one dict of partial sums over the rows of the outer
    columns that inner[j] meets, so the work is one product per pair of
    entries that meet.  Each sum must be 0 over Q and a multiple of p over
    F_p, where entries are read as given, so any representatives give the
    same answer.  The check returns before any product when no inner
    entry meets a nonzero outer column (the block shape of the
    parallel-paths complex).
    """
    if not any(map(outer.__getitem__, chain.from_iterable(inner))):
        return True
    acc = {}
    get = acc.get
    for col in inner:
        for r, x in col.items():
            for rr, v in outer[r].items():
                acc[rr] = get(rr, 0) + x * v
        if any(map(p.__rmod__, acc.values()) if p else acc.values()):
            return False
        acc.clear()
    return True


# Kronecker packing: a vector as one integer, entry n in the w-bit slot n


def _pack(values, w: int) -> int:
    """The sum of values[n] * 2^(w n): values as slots of w bits."""
    out = 0
    for x in reversed(values):
        out = (out << w) + x
    return out


def _slot_width(bound: int, p: int) -> int:
    """The least slot width w for ``_slot_test`` on slots at most bound in
    absolute value: 2^w > bound over Q (p = 0), 2^w > bound + p M over
    F_p, M the least power of two above bound // p."""
    if p:
        bound += p << (bound // p).bit_length()
    return bound.bit_length()


def _slot_test(bound: int, p: int, w: int, count: int):
    """A test of whether all count slots of an integer packed at the width
    w = ``_slot_width(bound, p)`` vanish over Q (p = 0) or are multiples
    of p over F_p, when every slot is at most bound in absolute value.

    Both rest on one fact: if sum_n x_n 2^(w n) = 0 and every
    |x_n| < 2^w, every x_n is 0 (the lowest nonzero x_n would be a nonzero
    multiple of 2^w).  Over Q, 2^w > bound, so the integer is 0 exactly
    when its slots are.  Over F_p, M is the least power of two above
    bound // p and 2^w > bound + p M.  If every slot s_n is p t_n, then
    |t_n| <= bound // p < M, so p divides the integer and X = it / p +
    M sum_n 2^(w n) has the w-bit digits t_n + M, all below 2M.
    Conversely, if p divides it and X has count w-bit digits x_n, all
    below 2M (one AND with a mask, which also rejects any X outside
    [0, 2^(w count))), the integer is sum_n p (x_n - M) 2^(w n), and the
    differences s_n - p (x_n - M), below bound + p M < 2^w in absolute
    value, are all 0.  As p M > bound, also 2^(w - 1) > bound, which
    ``_first_slot`` needs to read a slot back.
    """
    if not p:
        return not_
    m = 1 << (bound // p).bit_length()
    ones = ((1 << (w * count)) - 1) // ((1 << w) - 1)
    offset, outside = m * ones, ~((2 * m - 1) * ones)

    def zero(x: int) -> bool:
        q, rem = divmod(x, p)
        return not rem and not (q + offset) & outside

    return zero


def _first_slot(packed: int, w: int, p: int):
    """Index of the first slot of a packed integer that ``_slot_test``'s
    zero rejects, or None: nonzero over Q, where the lowest set bit lies
    in it; not a multiple of p over F_p, where the slots are read back,
    signed, from the lowest up."""
    if not p:
        return ((packed & -packed).bit_length() - 1) // w if packed else None
    low, sign = (1 << w) - 1, 1 << (w - 1)
    n = 0
    while packed:
        slot = packed & low
        if slot & sign:
            slot -= 1 << w
        if slot % p:
            return n
        packed = (packed - slot) >> w
        n += 1
    return None
