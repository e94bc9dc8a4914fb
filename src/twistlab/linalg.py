"""Exact linear algebra with deterministic elimination.

Dense ``Matrix`` serves the small structural computations (kernels,
inverses, base changes). Pivot choice is fixed (first nonzero column,
topmost row) so reduced echelon forms, and hence kernel bases, are
byte-stable across runs. Every cochain complex goes through the sparse
integer kernel below (``sparse_rank``, ``sparse_compose_zero``) instead.
"""

from __future__ import annotations

from math import gcd

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
    def zero(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls(field, rows, cols)

    @classmethod
    def from_rows(cls, field: Field, rows: list) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        return cls(field, nrows, ncols, rows)

    @classmethod
    def column_vector(cls, field: Field, entries: list) -> "Matrix":
        return cls(field, len(entries), 1, [[x] for x in entries])

    def entry(self, i: int, j: int):
        return self.data[i][j]

    def row(self, i: int) -> list:
        return list(self.data[i])

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

    def is_zero(self) -> bool:
        return all(not x for row in self.data for x in row)

    def transpose(self) -> "Matrix":
        out = Matrix(self.field, self.cols, self.rows)
        for i in range(self.rows):
            for j in range(self.cols):
                out.data[j][i] = self.data[i][j]
        return out

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

    def scale(self, c) -> "Matrix":
        f = self.field
        c = f.scalar(c)
        out = Matrix(f, self.rows, self.cols)
        for i in range(self.rows):
            out.data[i] = [f.mul(c, x) for x in self.data[i]]
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

    # elimination

    def rref(self) -> tuple:
        """Reduced row echelon form and the list of pivot columns."""
        f = self.field
        m = [row[:] for row in self.data]
        pivots = []
        r = 0
        for c in range(self.cols):
            if r == self.rows:
                break
            prow = None
            for i in range(r, self.rows):
                if m[i][c]:
                    prow = i
                    break
            if prow is None:
                continue
            m[r], m[prow] = m[prow], m[r]
            if m[r][c] != f.one:
                inv = f.inv(m[r][c])
                m[r] = [f.mul(inv, x) for x in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c]:
                    t = m[i][c]
                    m[i] = [f.sub(x, f.mul(t, y)) for x, y in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
        out = Matrix(f, self.rows, self.cols)
        out.data = m
        return out, pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> list:
        """Echelon-normalized basis of the right null space."""
        f = self.field
        red, pivots = self.rref()
        pivot_set = set(pivots)
        basis = []
        for fc in range(self.cols):
            if fc in pivot_set:
                continue
            v = [f.zero] * self.cols
            v[fc] = f.one
            for i, pc in enumerate(pivots):
                v[pc] = f.neg(red.data[i][fc])
            basis.append(v)
        return echelon_basis(f, basis)

    def solve(self, b: list):
        """One solution of self * x = b, or None when inconsistent."""
        if len(b) != self.rows:
            raise ValueError("right-hand side length mismatch")
        f = self.field
        aug = Matrix(
            f,
            self.rows,
            self.cols + 1,
            [row + [bv] for row, bv in zip(self.data, b)],
        )
        red, pivots = aug.rref()
        if self.cols in pivots:
            return None
        x = [f.zero] * self.cols
        for i, pc in enumerate(pivots):
            x[pc] = red.data[i][self.cols]
        return x

    def inverse(self):
        """Inverse matrix, or None when singular."""
        if self.rows != self.cols:
            return None
        f = self.field
        n = self.rows
        aug = Matrix(f, n, 2 * n)
        for i in range(n):
            aug.data[i] = self.data[i][:] + [
                f.one if j == i else f.zero for j in range(n)
            ]
        red, pivots = aug.rref()
        if pivots[:n] != list(range(n)):
            return None
        out = Matrix(f, n, n)
        for i in range(n):
            out.data[i] = red.data[i][n:]
        return out

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

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


def echelon_basis(field: Field, vectors: list) -> list:
    """Reduced echelon normal form of the span of the given vectors.

    Returns the nonzero RREF rows; the canonical basis of the subspace.
    """
    vecs = [v for v in vectors if any(v)]
    if not vecs:
        return []
    red, pivots = Matrix.from_rows(field, vecs).rref()
    return [red.data[i] for i in range(len(pivots))]


def coords_in_echelon_basis(field: Field, basis: list, v: list):
    """Coordinates of v in an echelon-normalized basis, or None if outside.

    Each basis vector's coefficient is read off at its pivot position,
    then the remainder is checked to be zero.
    """
    if not basis:
        return None if any(v) else []
    w = list(v)
    coords = []
    for b in basis:
        pivot = next(i for i, x in enumerate(b) if x)
        c = w[pivot]
        coords.append(c)
        if c:
            w = [field.sub(x, field.mul(c, y)) for x, y in zip(w, b)]
    if any(w):
        return None
    return coords


# sparse exact kernel for cochain complexes


def sparse_rank(vectors: list, p: int | None = None) -> int:
    """Rank of a family of sparse vectors over Q (p=None) or F_p.

    Each vector is a dict {coordinate: int}.  Over Q the entries must be
    integers (scale each vector beforehand; scaling does not change the
    rank).  Insertion-style elimination with gcd-reduced pivot rows keeps
    the integers small on the incidence-like matrices this is used for.
    """
    pivots = {}
    rnk = 0
    for vec in vectors:
        if p is None:
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
            if p is None:
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
            if p is not None:
                inv = pow(v[pivot], -1, p)
                if inv != 1:
                    v = {k: (x * inv) % p for k, x in v.items()}
            pivots[pivot] = v
            rnk += 1
    return rnk


def sparse_compose_zero(outer: list, inner: list, p: int | None = None) -> bool:
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
            if (x % p if p is not None else x):
                return False
    return True
