"""Exact linear algebra on one elimination kernel.

``sparse_echelon`` is the only elimination: sparse integer rows (residues
over F_p), each new row reduced at its largest coordinate only, for as
long as that coordinate is the pivot of a row kept so far, and then kept
with it as pivot. Every cochain rank (``sparse_rank``) is one pass of it.
``integer_echelon`` adds the back-substitution and returns the reduced
echelon form as integer rows; the structural computations (ranks,
kernels, inverses, radicals, base changes) work on those rows, and the
dense ``Matrix`` methods and ``echelon_basis`` are thin wrappers that make
Fractions only for their result. The reduced echelon form of a span is
unique, so kernel bases are byte-stable across runs.

The exact d^2 = 0 check ``sparse_compose_zero`` and ``algebra.verify_axioms``
share one packing toolkit: a vector becomes one integer by Kronecker
substitution (``_pack``), ``_slot_width`` takes the slot width from a
bound on the slots, and ``_slot_test`` tests all of them at once, so the
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
    """Immutable-by-convention dense matrix over Q or F_p."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix shape")
        self.field = field
        self.rows = rows
        self.cols = cols
        if entries is None:
            z = field.zero
            self.data = [[z] * cols for _ in range(rows)]
        else:
            data = [[field.scalar(x) for x in row] for row in entries]
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("entries do not match the stated shape")
            self.data = data

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        m = cls(field, n, n)
        for i in range(n):
            m.data[i][i] = field.one
        return m

    @classmethod
    def from_rows(cls, field: Field, rows: list) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        return cls(field, nrows, ncols, rows)

    @classmethod
    def column_vector(cls, field: Field, entries: list) -> "Matrix":
        return cls(field, len(entries), 1, [[x] for x in entries])

    def col(self, j: int) -> list:
        return [self.data[i][j] for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.rows == self.rows
            and other.cols == self.cols
            and other.data == self.data
        )

    def __repr__(self) -> str:
        return f"Matrix({self.field.name}, {self.rows}x{self.cols})"

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        f = self.field
        out = Matrix(f, self.rows, self.cols)
        for i in range(self.rows):
            out.data[i] = [f.add(x, y) for x, y in zip(self.data[i], other.data[i])]
        return out

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        f = self.field
        out = Matrix(f, self.rows, self.cols)
        for i in range(self.rows):
            out.data[i] = [f.sub(x, y) for x, y in zip(self.data[i], other.data[i])]
        return out

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.cols} vs {other.rows}")
        f = self.field
        p = f.characteristic
        out = Matrix(f, self.rows, other.cols)
        bdata = other.data
        for i in range(self.rows):
            arow = self.data[i]
            orow = out.data[i]
            for k in range(self.cols):
                a = arow[k]
                if not a:
                    continue
                brow = bdata[k]
                for j in range(other.cols):
                    b = brow[j]
                    if b:
                        orow[j] = orow[j] + a * b
            if p:
                out.data[i] = [x % p for x in orow]
        return out

    def apply(self, vec: list) -> list:
        """Matrix times column vector (a plain list of scalars)."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        f = self.field
        p = f.characteristic
        out = []
        for i in range(self.rows):
            acc = f.zero
            row = self.data[i]
            for j, v in enumerate(vec):
                if v:
                    acc = acc + row[j] * v
            out.append(acc % p if p else acc)
        return out

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    # elimination, all through ``integer_echelon``

    def rank(self) -> int:
        p = self.field.characteristic
        return len(integer_echelon(scale_to_integers(self.data, p)[0], p))

    def kernel_basis(self) -> list:
        """Echelon-normalized basis of the right null space."""
        p = self.field.characteristic
        rows, _ = scale_to_integers(self.data, p)
        return rref_scalars(self.field, integer_kernel(rows, self.cols, p))

    def inverse(self):
        """Inverse matrix, or None when singular."""
        if self.rows != self.cols:
            return None
        p = self.field.characteristic
        ints, scale = scale_to_integers(self.data, p)
        inv = integer_inverse(ints, p)
        if inv is None:
            return None
        rows, den = inv
        out = Matrix(self.field, self.rows, self.cols)
        out.data = rows if p else [[Fraction(x * scale, den) for x in row]
                                   for row in rows]
        return out

    def kron(self, other: "Matrix") -> "Matrix":
        """Tensor product: out[(i*rb+k),(j*cb+l)] = self[i,j]*other[k,l]."""
        if self.field != other.field:
            raise ValueError("field mismatch")
        f = self.field
        out = Matrix(f, self.rows * other.rows, self.cols * other.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                a = self.data[i][j]
                if not a:
                    continue
                for k in range(other.rows):
                    orow = out.data[i * other.rows + k]
                    brow = other.data[k]
                    for l in range(other.cols):
                        if brow[l]:
                            orow[j * other.cols + l] = f.mul(a, brow[l])
        return out


def _leading(row: list) -> int:
    return next(i for i, x in enumerate(row) if x)


def scale_to_integers(values: list, p: int) -> tuple:
    """(ints, D): scalars in nested lists as integers of the same shape.

    Over F_p (p > 0) the entries become residues and D = 1.  Over Q every
    entry v becomes the integer v * D, where D is the lcm of the
    denominators: the one scale that clears them all.
    """
    denominators = set()
    if not p:
        _collect_denominators(values, denominators)
    scale = lcm(*denominators)
    return _scaled(values, p, scale), scale


def _collect_denominators(values: list, out: set) -> None:
    for v in values:
        if isinstance(v, list):
            _collect_denominators(v, out)
        else:
            out.add(v.denominator)


def _scaled(values: list, p: int, scale: int) -> list:
    return [_scaled(v, p, scale) if isinstance(v, list) else v % p if p
            else v.numerator * (scale // v.denominator) for v in values]


def echelon_basis(field: Field, vectors: list) -> list:
    """Reduced echelon normal form of the span of the given vectors.

    Returns the nonzero RREF rows, the canonical basis of the subspace:
    ``integer_echelon`` on the vectors scaled to integers (which does not
    move the span), each row divided by its leading entry.
    """
    p = field.characteristic
    return rref_scalars(field, integer_echelon(scale_to_integers(vectors, p)[0], p))


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
    row times its leading entry (1 over F_p; over Q the row is primitive).

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
        g = 1 if p else gcd(*vec)
        out.append([x // g for x in vec] if g > 1 else vec)
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
    integers small on the incidence-like matrices this is used for; over
    F_p it is scaled to pivot 1.
    """
    pivots = {}
    for vec in vectors:
        if not p:
            v = {k: x for k, x in vec.items() if x}
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

    Over F_p piv[k] is 1.  Over Q v is scaled by piv[k] / gcd before the
    subtraction and divided by the gcd of its entries after it.
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
    g = gcd(a, b)
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
    rows of ``inner`` index the columns of ``outer``.  Over F_p each entry
    is read as the integer in (-p/2, p/2] of its residue class.

    Kronecker substitution: row r of ``inner`` becomes one integer
    I[r] = sum_j inner[j][r] 2^(w j), so that R[rr] = sum_r outer[r][rr] I[r]
    holds entry (rr, j) of the composite in slot j.  That entry is at most
    B = (largest sum of |entries| of an inner column) times (largest
    |entry| of ``outer``) in absolute value, and B is at most (longest
    inner column) max|inner| max|outer|; w is ``_slot_width(B, p)``, and
    ``_slot_test`` tests all slots of R[rr] at once (see there for why it
    is exact).  No slot is read in Python.

    The R[rr] hold w bits for each inner column and each outer row.  So
    that they never take more bytes than the columns being checked (their
    dicts, and an integer key per entry), the inner columns are taken in
    blocks of at most that many; on the bar complex of the alpha = 2
    product a second block first appears at the pair (d^5, d^6).  Each
    I[r] is freed once it is consumed.  The check returns before packing
    anything when no inner entry meets a nonzero outer column (the block
    shape of the parallel-paths complex).
    """
    if not any(outer[r] for col in inner for r in col):
        return True
    seen = set(chain.from_iterable(map(dict.values, inner)))
    used = set(chain.from_iterable(map(dict.values, outer)))
    if p:
        half = p // 2
        lift = {x: x % p - p if x % p > half else x % p for x in seen | used}
    else:
        lift = {x: x for x in seen | used}
    size = {x: abs(y) for x, y in lift.items()}.__getitem__
    bound = (max(sum(map(size, col.values())) for col in inner)
             * max(map(size, used)))
    if not bound:
        return True
    w = _slot_width(bound, p)
    rows = 1 + max(chain.from_iterable(outer))
    # bytes held by the dicts and, at most, by one integer key per entry
    entries = sum(map(len, inner)) + sum(map(len, outer))
    held = (sum(map(dict.__sizeof__, inner)) + sum(map(dict.__sizeof__, outer))
            + entries * rows.__sizeof__())
    step = max(1, min(len(inner), 8 * held // (rows * w)))
    zero = _slot_test(bound, p, w, step)
    for start in range(0, len(inner), step):
        packed = {}
        for j, col in enumerate(inner[start:start + step]):
            shift = w * j
            for r, x in col.items():
                packed[r] = packed.get(r, 0) + (lift[x] << shift)
        acc = {}
        while packed:
            r, x = packed.popitem()
            # the hottest loop: over Q it skips the (identity) lift
            if p:
                for rr, v in outer[r].items():
                    acc[rr] = acc.get(rr, 0) + lift[v] * x
            else:
                for rr, v in outer[r].items():
                    acc[rr] = acc.get(rr, 0) + v * x
        if not all(map(zero, acc.values())):
            return False
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
