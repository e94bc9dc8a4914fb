"""Exact linear algebra: frozen examples plus randomized cross-checks."""

import copy
import gc
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from twistlab.fields import (
    GF,
    PRIME_BOUND,
    QQ,
    Field,
    field_from_name,
)
from twistlab.linalg import (
    Matrix,
    echelon_basis,
    scale_to_integers,
    sparse_compose_zero,
    sparse_echelon,
    sparse_rank,
)


def gauss_jordan_rref(m: Matrix) -> tuple:
    """Reference: reduced row echelon form (rows) and pivot columns by
    Gauss-Jordan on the field's own scalars; first nonzero column, topmost
    row."""
    f = m.field
    rows = [row[:] for row in m.data]
    pivots = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        prow = next((i for i in range(r, m.rows) if rows[i][c]), None)
        if prow is None:
            continue
        rows[r], rows[prow] = rows[prow], rows[r]
        if rows[r][c] != f.one:
            inv = f.inv(rows[r][c])
            rows[r] = [f.mul(inv, x) for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c]:
                t = rows[i][c]
                rows[i] = [f.sub(x, f.mul(t, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def reference_sparse_echelon(vectors: list, p: int = 0) -> dict:
    """Reference: full reduction. Each vector is cleared at every pivot it
    holds, in dict order, until it holds none, and kept with its largest
    coordinate as pivot; each kept row is zero at every earlier pivot."""
    pivots = {}
    for vec in vectors:
        v = {k: x % p if p else x for k, x in vec.items()}
        v = {k: x for k, x in v.items() if x}
        while v:
            hit = next((k for k in v if k in pivots), None)
            if hit is None:
                break
            piv = pivots[hit]
            if not p:
                a, b = piv[hit], v[hit]
                g = gcd(a, b)
                ca, cb = a // g, b // g
                v = {k: ca * x for k, x in v.items()}
                for k, x in piv.items():
                    v[k] = v.get(k, 0) - cb * x
                v = {k: x for k, x in v.items() if x}
                g = 0
                for x in v.values():
                    g = gcd(g, x)
                if g > 1:
                    v = {k: x // g for k, x in v.items()}
            else:
                c = v[hit]
                for k, x in piv.items():
                    v[k] = (v.get(k, 0) - c * x) % p
                v = {k: x for k, x in v.items() if x}
        if v:
            pivot = max(v)
            if p:
                inv = pow(v[pivot], -1, p)
                v = {k: (x * inv) % p for k, x in v.items()}
            pivots[pivot] = v
    return pivots


def reference_echelon_basis(field, vectors: list) -> list:
    vecs = [[field.scalar(x) for x in v] for v in vectors if any(v)]
    if not vecs:
        return []
    rows, pivots = gauss_jordan_rref(Matrix.from_rows(field, vecs))
    return rows[: len(pivots)]


def reference_kernel_basis(m: Matrix) -> list:
    f = m.field
    rows, pivots = gauss_jordan_rref(m)
    basis = []
    for fc in range(m.cols):
        if fc in pivots:
            continue
        v = [f.zero] * m.cols
        v[fc] = f.one
        for i, pc in enumerate(pivots):
            v[pc] = f.neg(rows[i][fc])
        basis.append(v)
    return reference_echelon_basis(f, basis)


def reference_inverse(m: Matrix):
    f = m.field
    n = m.rows
    aug = Matrix(f, n, 2 * n, [row + [f.one if j == i else f.zero
                                      for j in range(n)]
                               for i, row in enumerate(m.data)])
    rows, pivots = gauss_jordan_rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in rows]


def test_field_descriptors():
    assert QQ.characteristic == 0 and QQ.name == "Q"
    assert GF(5).name == "F5"
    assert field_from_name("F7") == GF(7)
    assert field_from_name("Q") == QQ
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(1 << 17)
    # 65521 is the largest prime below PRIME_BOUND, 65537 the next one
    assert PRIME_BOUND == 65536
    assert Field(65521).characteristic == 65521
    with pytest.raises(ValueError):
        Field(65537)
    with pytest.raises(ValueError):
        field_from_name("R")


def test_scalar_canonical_form():
    assert QQ.scalar("3/6") == Fraction(1, 2)
    assert QQ.scalar_to_str(Fraction(-3, 4)) == "-3/4"
    assert QQ.scalar_to_str(Fraction(5)) == "5"
    f5 = GF(5)
    assert f5.scalar(-1) == 4
    assert f5.scalar(Fraction(1, 2)) == 3  # 2*3 = 6 = 1
    assert f5.scalar_to_str(f5.scalar(7)) == "2"
    assert f5.scalar("3") == 3
    with pytest.raises(ZeroDivisionError):
        f5.scalar(Fraction(1, 5))


def test_field_arithmetic():
    f7 = GF(7)
    assert f7.add(5, 4) == 2
    assert f7.mul(3, 5) == 1
    assert f7.inv(3) == 5
    assert f7.neg(2) == 5
    with pytest.raises(ZeroDivisionError):
        f7.inv(0)


def test_enumerate_field_elements():
    assert GF(2).elements() == [0, 1]
    assert GF(5).elements() == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        QQ.elements()


def test_rank_examples():
    assert Matrix.identity(QQ, 2).rank() == 2
    assert Matrix(GF(5), 3, 4).rank() == 0
    # twisting-map matrix of tau(b(x)a) = 2(1(x)1) - (a(x)b): columns are the
    # images of 1(x)1, 1(x)a, b(x)1, b(x)a in the e_k(x)e_l ordering.
    t = Matrix(QQ, 4, 4, [[1, 0, 0, 2], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]])
    assert t.rank() == 4


def test_kernel_examples():
    assert Matrix.identity(QQ, 3).kernel_basis() == []
    assert len(Matrix(QQ, 2, 3).kernel_basis()) == 3
    # the rank-one coboundary sending 1 -> 1 - t and t -> t - 1
    d = Matrix(QQ, 2, 2, [[1, -1], [-1, 1]])
    basis = d.kernel_basis()
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == v[1] != 0


def test_kernel_rank_nullity_randomized():
    rng = random.Random(7)
    for field in (QQ, GF(5)):
        for _ in range(40):
            r = rng.randrange(0, 5)
            c = rng.randrange(0, 5)
            m = Matrix(field, r, c, [[rng.randrange(-3, 4) for _ in range(c)] for _ in range(r)])
            ker = m.kernel_basis()
            assert m.rank() + len(ker) == c
            for v in ker:
                assert all(not x for x in m.apply(v))


def test_kernel_basis_deterministic_under_row_shuffle():
    rng = random.Random(21)
    rows = [[rng.randrange(-2, 3) for _ in range(5)] for _ in range(4)]
    m = Matrix.from_rows(QQ, rows)
    base = m.kernel_basis()
    for _ in range(5):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert Matrix.from_rows(QQ, shuffled).kernel_basis() == base


def test_kron_examples():
    i2 = Matrix.identity(QQ, 2)
    assert i2.kron(i2) == Matrix.identity(QQ, 4)
    a = Matrix(QQ, 2, 3)
    b = Matrix(QQ, 4, 5)
    k = a.kron(b)
    assert (k.rows, k.cols) == (8, 15)
    swap = Matrix(QQ, 2, 2, [[0, 1], [1, 0]])
    s2 = swap.kron(swap)
    expected = Matrix(QQ, 4, 4)
    for i, j in ((0, 3), (1, 2), (2, 1), (3, 0)):
        expected.data[i][j] = QQ.one
    assert s2 == expected
    with pytest.raises(ValueError):
        Matrix.identity(QQ, 2).kron(Matrix.identity(GF(3), 2))


def test_kron_rank_multiplicative():
    rng = random.Random(11)
    for _ in range(15):
        a = Matrix(QQ, 2, 3, [[rng.randrange(-2, 3) for _ in range(3)] for _ in range(2)])
        b = Matrix(QQ, 3, 2, [[rng.randrange(-2, 3) for _ in range(2)] for _ in range(3)])
        assert a.kron(b).rank() == a.rank() * b.rank()


def _det_by_expansion(m: Matrix):
    """Cofactor-free determinant oracle: sum over permutations."""
    f = m.field
    n = m.rows
    total = f.zero
    for perm in itertools.permutations(range(n)):
        sign = 1
        p = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if p[i] > p[j]:
                    sign = -sign
        term = f.one if sign > 0 else f.neg(f.one)
        for i in range(n):
            term = f.mul(term, m.data[i][perm[i]])
        total = f.add(total, term)
    return total


def test_elimination_matches_determinant_over_prime_field():
    f3 = GF(3)
    rng = random.Random(5)
    for n in (1, 2, 3, 4):
        for _ in range(25):
            m = Matrix(f3, n, n, [[rng.randrange(3) for _ in range(n)] for _ in range(n)])
            det = _det_by_expansion(m)
            assert (m.rank() == n) == bool(det)


def test_matrix_product_and_inverse():
    m = Matrix(QQ, 2, 2, [[1, 2], [3, 4]])
    inv = m.inverse()
    assert inv is not None
    assert m * inv == Matrix.identity(QQ, 2)
    assert Matrix(QQ, 2, 2, [[1, 2], [2, 4]]).inverse() is None
    f5 = GF(5)
    a = Matrix(f5, 2, 3, [[1, 2, 3], [4, 0, 1]])
    v = a.apply([1, 1, 1])
    assert v == [1, 0]


def test_echelon_basis_and_coords():
    basis = echelon_basis(QQ, [[0, 2, 4], [1, 1, 1], [1, 3, 5]])
    assert basis == [
        [Fraction(1), Fraction(0), Fraction(-1)],
        [Fraction(0), Fraction(1), Fraction(2)],
    ]


def test_sparse_rank_matches_dense():
    rng = random.Random(13)
    for p in (0, 5):
        field = GF(p) if p else QQ
        for _ in range(30):
            r, c = rng.randrange(1, 7), rng.randrange(1, 7)
            rows = [[rng.randrange(-2, 3) if rng.random() < 0.5 else 0 for _ in range(c)] for _ in range(r)]
            dense = Matrix(field, r, c, rows)
            sparse = [
                {j: x for j, x in enumerate(row) if x}
                for row in rows
            ]
            assert sparse_rank(sparse, p) == len(gauss_jordan_rref(dense)[1])


KERNEL_FIELDS = (QQ, GF(2), GF(3), GF(7))


def _sparse_family(rng, p: int, width: int) -> list:
    """Sparse integer vectors with the cases elimination has to get right:
    zero vectors (empty, or holding explicit zeros), repeated vectors,
    sums of earlier vectors, entries that are not reduced residues, and
    over Q entries of 30 digits."""
    family = []
    for _ in range(rng.randint(0, 14)):
        draw = rng.random()
        if draw < 0.1:
            family.append({} if rng.random() < 0.5 else {rng.randrange(width): 0})
        elif draw < 0.25 and family:
            family.append(dict(rng.choice(family)))
        elif draw < 0.4 and len(family) >= 2:
            u, w = rng.sample(family, 2)
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            family.append({k: s * u.get(k, 0) + t * w.get(k, 0)
                           for k in set(u) | set(w)})
        else:
            big = not p and rng.random() < 0.3
            family.append({
                k: rng.randint(-10**30, 10**30) if big else rng.randint(-9, 9)
                for k in rng.sample(range(width), rng.randint(1, width))
            })
    return family


def reference_pivots(family: list, p: int) -> dict:
    """The pivot rows of full reduction, once sparse_echelon is checked to
    keep the same pivot set, each kept row led by its pivot (1 over F_p),
    and to leave its input unchanged."""
    before = copy.deepcopy(family)
    got = sparse_echelon(family, p)
    want = reference_sparse_echelon(family, p)
    assert family == before
    assert sorted(got) == sorted(want)
    for pivot, row in got.items():
        assert max(row) == pivot and all(row.values())
        assert not p or row[pivot] == 1
    return want


def test_sparse_echelon_matches_full_reduction():
    rng = random.Random(53)
    for field in KERNEL_FIELDS:
        p = field.characteristic
        for trial in range(120):
            width = rng.randint(1, 12)
            family = _sparse_family(rng, p, width)
            reference_pivots(family, p)
            dense = [[field.scalar(v.get(width - 1 - j, 0)) for j in range(width)]
                     for v in family]
            assert echelon_basis(field, dense) == reference_echelon_basis(field, dense), (
                field.name, family)


def _corpus_scalar(field, rng):
    p = field.characteristic
    if p:
        return rng.randrange(p) if rng.random() < 0.7 else 0
    return Fraction(rng.randint(-4, 4), rng.randint(1, 5))


def _corpus(field, rng):
    """Shapes where elimination has edges: no rows, no columns, zero,
    wide, tall, square, rank-deficient products and repeated rows."""
    def rand(r, c):
        return [[_corpus_scalar(field, rng) for _ in range(c)] for _ in range(r)]

    def low_rank(r, c):
        k = rng.randrange(1, min(r, c) + 1)
        left = Matrix(field, r, k, rand(r, k))
        right = Matrix(field, k, c, rand(k, c))
        return (left * right).data

    shapes = [Matrix(field, 0, 4), Matrix(field, 3, 0), Matrix(field, 3, 4)]
    for _ in range(6):
        r, c = rng.randrange(1, 4), rng.randrange(4, 8)
        rows = rand(r, c)
        for data in (rand(r, c), rand(c, r), rand(r + 1, r + 1),
                     low_rank(c, r + 2), low_rank(r + 2, r + 2),
                     [rng.choice(rows) for _ in range(r + 2)]):
            shapes.append(Matrix.from_rows(field, data))
    return shapes


def test_exact_kernel_matches_gauss_jordan_reference():
    rng = random.Random(29)
    for field in (QQ, GF(2), GF(3), GF(13), GF(65521)):
        deficient = square_singular = 0
        for m in _corpus(field, rng):
            r, c = m.rows, m.cols
            red, pivots = gauss_jordan_rref(m)
            assert echelon_basis(field, m.data) == red[: len(pivots)], (field, m.data)
            assert m.rank() == len(pivots)
            assert m.kernel_basis() == reference_kernel_basis(m)
            deficient += len(pivots) < min(r, c)
            if r == c:
                want = reference_inverse(m)
                got = m.inverse()
                assert (None if got is None else got.data) == want
                square_singular += want is None
        assert deficient >= 6 and square_singular >= 3, field


def test_sparse_compose_zero():
    # inner maps e0 -> r0 + r1; outer kills r0 + r1
    inner = [{0: 1, 1: 1}]
    outer = [{0: 1}, {0: -1}]
    assert sparse_compose_zero(outer, inner)
    outer_bad = [{0: 1}, {0: 1}]
    assert not sparse_compose_zero(outer_bad, inner)
    assert sparse_compose_zero(outer_bad, inner, p=2)


def test_recursive_helpers_leave_no_cyclic_garbage():
    # a self-referencing recursive closure is a reference cycle that lives
    # until the next collection; with gc disabled none may be left behind
    from twistlab.algebra import standard_algebra
    from twistlab.census_search import census_equations, common_zeros
    from twistlab.quivers import Quiver, has_oriented_cycle, standard_quiver

    z2 = standard_algebra("group_algebra_z2", GF(5))
    _, nvars, equations = census_equations(z2, z2)
    cyclic = standard_quiver("roundtrip")
    acyclic = Quiver(3, [(0, 1), (1, 2), (0, 2)])
    calls = [
        lambda: scale_to_integers([[Fraction(1, 2), Fraction(3)], [Fraction(-2, 3)]], 0),
        lambda: scale_to_integers([[1, 7], [12]], 5),
        lambda: common_zeros(equations, nvars, 5),
        lambda: has_oriented_cycle(cyclic),
        lambda: has_oriented_cycle(acyclic),
    ]
    for i, call in enumerate(calls):
        gc.collect()
        gc.disable()
        try:
            call()
            assert gc.collect() == 0, i
        finally:
            gc.enable()
