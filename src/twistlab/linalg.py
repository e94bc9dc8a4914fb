"""Exact linear algebra on one elimination kernel.

``sparse_echelon`` is the only elimination: sparse integer rows (residues
over F_p), each new row reduced against the pivot rows kept so far and
kept with its largest coordinate as pivot. Every cochain rank
(``sparse_rank``) is one pass of it. The dense ``Matrix`` serves the
small structural computations (ranks, kernels, inverses, base changes)
through ``echelon_basis``, which numbers coordinates from the right so
that the largest-coordinate pivot is each row's leading column; a second
pass over the kept rows is the back-substitution. The reduced echelon
form of a span is unique, so kernel bases are byte-stable across runs.

``p`` is the characteristic throughout: 0 for Q, a prime for F_p.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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

    # elimination, all through ``echelon_basis``

    def rank(self) -> int:
        return len(echelon_basis(self.field, self.data))

    def kernel_basis(self) -> list:
        """Echelon-normalized basis of the right null space."""
        f = self.field
        red = echelon_basis(f, self.data)
        pivots = [_leading(row) for row in red]
        pivot_set = set(pivots)
        basis = []
        for fc in range(self.cols):
            if fc in pivot_set:
                continue
            v = [f.zero] * self.cols
            v[fc] = f.one
            for row, pc in zip(red, pivots):
                v[pc] = f.neg(row[fc])
            basis.append(v)
        return echelon_basis(f, basis)

    def inverse(self):
        """Inverse matrix, or None when singular."""
        if self.rows != self.cols:
            return None
        f = self.field
        n = self.rows
        red = echelon_basis(f, [
            row + [f.one if j == i else f.zero for j in range(n)]
            for i, row in enumerate(self.data)
        ])
        if [_leading(row) for row in red] != list(range(n)):
            return None
        out = Matrix(f, n, n)
        out.data = [row[n:] for row in red]
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

    Returns the nonzero RREF rows, the canonical basis of the subspace.
    Each vector becomes a sparse integer row (over Q scaled by the lcm of
    its own denominators, which does not move the span), with coordinate
    j numbered n - 1 - j so that the pivot ``sparse_echelon`` picks is the
    row's leading column. A second ``sparse_echelon`` over the kept rows,
    the last pivot first, clears each pivot from the rows above it (every
    kept row is zero left of its pivot, so no pivot moves); then each row
    is divided by its pivot, which over F_p is already 1.
    """
    p = field.characteristic
    top = len(vectors[0]) - 1 if vectors else 0
    rows = []
    for v in vectors:
        row = {top - j: x for j, x in enumerate(v) if x}
        if not p:
            den = lcm(*(x.denominator for x in row.values()))
            row = {k: x.numerator * (den // x.denominator) for k, x in row.items()}
        rows.append(row)
    rows = sparse_echelon(rows, p)
    rows = sparse_echelon([rows[k] for k in sorted(rows)], p)
    out = []
    for k in sorted(rows, reverse=True):
        row, piv = rows[k], rows[k][k]
        vec = [field.zero] * (top + 1)
        for c, x in row.items():
            vec[top - c] = x if p else Fraction(x, piv)
        out.append(vec)
    return out


# the elimination kernel


def sparse_echelon(vectors: list, p: int = 0) -> dict:
    """Pivot rows {pivot: row} spanning a family of sparse vectors over Q
    (p = 0) or F_p.

    Each vector is a dict {coordinate: int}.  Over Q the entries must be
    integers (scale each vector beforehand; scaling does not change the
    span).  Insertion-style elimination: each vector is reduced against
    the rows kept so far and, if nonzero, kept with its largest coordinate
    as pivot.  Over Q a kept row is gcd-reduced, which keeps the integers
    small on the incidence-like matrices this is used for; over F_p it is
    scaled to pivot 1.  Each kept row is zero at every earlier pivot.
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
            hit = None
            for k in v:
                if k in pivots:
                    hit = k
                    break
            if hit is None:
                break
            piv = pivots[hit]
            if not p:
                a, b = piv[hit], v[hit]
                g = gcd(a, b)
                ca, cb = a // g, b // g
                if ca != 1:
                    for k in v:
                        v[k] *= ca
                for k, x in piv.items():
                    y = v.get(k, 0) - cb * x
                    if y:
                        v[k] = y
                    else:
                        v.pop(k, None)
                if v:
                    g = 0
                    for x in v.values():
                        g = gcd(g, x)
                        if g == 1:
                            break
                    if g > 1:
                        for k in v:
                            v[k] //= g
            else:
                c = v[hit]
                for k, x in piv.items():
                    y = (v.get(k, 0) - c * x) % p
                    if y:
                        v[k] = y
                    else:
                        v.pop(k, None)
        if v:
            # max coordinate: cochain scatter puts near-unique high row
            # indices in each column, so these pivots rarely collide and
            # the elimination stays sparse
            pivot = max(v)
            if p:
                inv = pow(v[pivot], -1, p)
                if inv != 1:
                    v = {k: (x * inv) % p for k, x in v.items()}
            pivots[pivot] = v
    return pivots


def sparse_rank(vectors: list, p: int = 0) -> int:
    """Rank of a family of sparse vectors over Q (p = 0) or F_p."""
    return len(sparse_echelon(vectors, p))


def sparse_compose_zero(outer: list, inner: list, p: int = 0) -> bool:
    """Whether outer∘inner = 0 for sparse column families.

    ``inner[j]`` is the j-th column of the first map as {row: int}; the
    rows of ``inner`` index the columns of ``outer``.
    """
    for col in inner:
        acc = {}
        for r, v in col.items():
            for rr, vv in outer[r].items():
                acc[rr] = acc.get(rr, 0) + v * vv
        for x in acc.values():
            if (x % p if p else x):
                return False
    return True
