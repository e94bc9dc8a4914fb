"""Exact linear algebra: frozen examples plus randomized cross-checks."""

import copy
import gc
import itertools
import math
import random
from fractions import Fraction
from math import gcd

import pytest

import twistlab.linalg as linalg
from twistlab.algebra import change_of_basis, standard_algebra
from twistlab.fields import (
    GF,
    PRIME_BOUND,
    QQ,
    Field,
    field_from_name,
)
from twistlab.hochschild import bar_coboundary_columns
from twistlab.linalg import (
    Matrix,
    echelon_basis,
    integer_echelon,
    integer_inverse,
    integer_kernel,
    rref_scalars,
    scale_to_integers,
    sparse_compose_zero,
    sparse_echelon,
    sparse_rank,
)
from twistlab.twisting import (
    TwistFamilyDescriptor,
    census_rows,
    family_member,
    twisted_product,
)

from test_hochschild import random_invertible


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
    # a tag is accepted only as the field's own name spells it
    assert field_from_name("F2") == GF(2)
    assert field_from_name("F65521") == GF(65521)
    for tag in ("F0", "F007"):
        with pytest.raises(ValueError, match=repr(tag)):
            field_from_name(tag)
    with pytest.raises(ValueError):
        field_from_name("F65537")


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


def _wide_corpus(field, rng):
    """The corpus plus square matrices, each invertible (upper triangular
    with a nonzero diagonal, rows shuffled) and then singular (its first
    row repeated); over Q their entries have 30-digit numerators or
    denominators."""
    p = field.characteristic

    def entry(big):
        if p:
            return rng.randrange(p)
        huge = rng.randint(10**29, 10**30) * rng.choice((-1, 1))
        if big == "numerator":
            return Fraction(huge, rng.randint(1, 9))
        return Fraction(rng.randint(1, 4), huge)

    shapes = _corpus(field, rng)
    for n in (2, 3, 4, 5):
        for big in ("numerator", "denominator"):
            rows = [[entry(big) if j >= i else 0 for j in range(n)]
                    for i in range(n)]
            for i in range(n):
                rows[i][i] = rows[i][i] or 1
            rng.shuffle(rows)
            shapes.append(Matrix.from_rows(field, rows))
            shapes.append(Matrix.from_rows(field, rows[:-1] + [rows[0]]))
    return shapes


def test_integer_core_matches_gauss_jordan_reference():
    # integer_echelon, integer_kernel and integer_inverse on the integer
    # form of each matrix, and the Fraction wrappers on the matrix itself
    rng = random.Random(31)
    for field in (QQ, GF(2), GF(3), GF(13), GF(65521)):
        p = field.characteristic
        singular = inverted = 0
        for m in _wide_corpus(field, rng):
            ints, scale = scale_to_integers(m.data, p)
            red, pivots = gauss_jordan_rref(m)
            rows = integer_echelon(ints, p)
            assert rref_scalars(field, rows) == red[: len(pivots)], (field, m.data)
            for row in rows:
                lead = next(x for x in row if x)
                assert lead == 1 if p else gcd(*row) == 1
                assert not p or all(0 <= x < p for x in row)
            assert echelon_basis(field, m.data) == red[: len(pivots)]
            assert m.rank() == len(pivots)
            want = reference_kernel_basis(m)
            assert rref_scalars(field, integer_kernel(ints, m.cols, p)) == want
            assert m.kernel_basis() == want
            if m.rows != m.cols:
                continue
            want = reference_inverse(m)
            got = integer_inverse(ints, p)
            assert (got is None) == (want is None)
            assert (None if m.inverse() is None else m.inverse().data) == want
            if want is None:
                singular += 1
                continue
            inverted += 1
            q, den = got
            # q / den is the inverse of the integer matrix ints = scale * m
            assert [[field.scalar(Fraction(x * scale, den)) for x in row]
                    for row in q] == want
            if p:
                assert den == 1 and all(0 <= x < p for row in q for x in row)
            else:
                assert den == math.lcm(*(Fraction(x, den).denominator
                                         for row in q for x in row))
        assert singular >= 3 and inverted >= 3, field


def test_sparse_compose_zero():
    # inner maps e0 -> r0 + r1; outer kills r0 + r1
    inner = [{0: 1, 1: 1}]
    outer = [{0: 1}, {0: -1}]
    assert sparse_compose_zero(outer, inner)
    outer_bad = [{0: 1}, {0: 1}]
    assert not sparse_compose_zero(outer_bad, inner)
    assert sparse_compose_zero(outer_bad, inner, p=2)


def reference_compose_zero(outer: list, inner: list, p: int = 0) -> bool:
    """Reference: every composite column as a dict of partial sums, each
    entry tested for zero (mod p over F_p)."""
    for col in inner:
        acc = {}
        for r, v in col.items():
            for rr, vv in outer[r].items():
                acc[rr] = acc.get(rr, 0) + v * vv
        for x in acc.values():
            if (x % p if p else x):
                return False
    return True


def _compose_products(field, rng):
    """A seeded sample of census products (over Q the isolated members and
    the line family at alpha = 2, 3), each with a transport to a random
    basis: over F_p its residues do not lift to an associative integer
    table."""
    maps = [row["map"] for row in census_rows(field) if row["map"] is not None]
    if not field.characteristic:
        z2 = standard_algebra("group_algebra_z2", field)
        maps += [family_member(TwistFamilyDescriptor("line_char_ne_2", alpha),
                               z2, z2) for alpha in (2, 3)]
    out = []
    for t in rng.sample(maps, min(4, len(maps))):
        prod = twisted_product(t)
        out += [prod, change_of_basis(prod, random_invertible(rng, field, 4))]
    return out


def _planted(columns: list, rows: int, p: int, rng) -> list:
    """A copy of sparse columns with one entry of one column changed."""
    out = list(columns)
    j = rng.randrange(len(out))
    col = dict(out[j])
    r = rng.choice(list(col)) if col and rng.random() < 0.5 else rng.randrange(rows)
    x = col.get(r, 0) + rng.choice((-2, -1, 1, 2, 3))
    x = x % p if p else x
    if x:
        col[r] = x
    else:
        col.pop(r, None)
    out[j] = col
    return out


def test_sparse_compose_zero_matches_reference_on_bar_columns():
    # every consecutive pair of bar coboundaries of census products and
    # their transports, and the same pairs with one planted change in an
    # inner or an outer column
    rng = random.Random(83)
    checked = caught = 0
    for field in (QQ, GF(3), GF(5), GF(7), GF(101)):
        p = field.characteristic
        for alg in _compose_products(field, rng):
            deltas = [bar_coboundary_columns(alg, n) for n in range(4)]
            for n in range(3):
                outer, inner = deltas[n + 1], deltas[n]
                assert sparse_compose_zero(outer, inner, p)
                assert reference_compose_zero(outer, inner, p)
                rows = alg.dim * (alg.dim - 1) ** (n + 2)
                for pair in ((outer, _planted(inner, len(outer), p, rng)),
                             (_planted(outer, rows, p, rng), inner)):
                    want = reference_compose_zero(*pair, p)
                    assert sparse_compose_zero(*pair, p) == want, (field, n)
                    checked += 1
                    caught += not want
    assert checked == 240 and caught > 200


def test_sparse_compose_zero_matches_reference_in_blocks(monkeypatch):
    # where the packed rows would outgrow the columns (a transport over Q
    # at degree 5, a product over GF(7) at degree 6) the check runs in
    # blocks of inner columns; a planted change in the first or the last
    # block is found as by the reference
    steps = []

    def spy(bound, p, w, count):
        steps.append(count)
        return slot_test(bound, p, w, count)

    slot_test = linalg._slot_test
    monkeypatch.setattr(linalg, "_slot_test", spy)
    rng = random.Random(97)
    for field, pick, n in ((QQ, 1, 4), (GF(7), 0, 5)):
        p = field.characteristic
        alg = _compose_products(field, rng)[pick]
        inner, outer = (bar_coboundary_columns(alg, k) for k in (n, n + 1))
        steps.clear()
        assert sparse_compose_zero(outer, inner, p)
        assert steps[0] < len(inner), field
        for j in (0, len(inner) - 1):
            planted = list(inner)
            col = dict(planted[j])
            r = next(iter(col))
            col[r] = (col[r] + 1) % p if p else col[r] + 1
            planted[j] = col
            assert not reference_compose_zero(outer, planted, p)
            assert not sparse_compose_zero(outer, planted, p)


def test_sparse_compose_zero_edges():
    for p in (0, 2, 3, 7):
        # an empty inner family, and every column empty (the rsz Q_1 block)
        assert sparse_compose_zero([{0: 1}], [], p)
        assert sparse_compose_zero([], [], p)
        assert sparse_compose_zero([{0: 1}], [{}, {}, {}], p)
        assert sparse_compose_zero([{}, {}], [{0: 1}, {}], p)
        # every inner entry on an empty outer column
        assert sparse_compose_zero([{}, {}, {3: 1}], [{0: 1, 1: 2}, {1: 5}], p)
    # a slot at +-B = 16 (inner column sum 4, outer entry 4) next to a
    # slot -+1: a width one bit narrower reads 16 - 2^4 = 0
    outer = [{0: 4}, {0: 4}, {0: -1}]
    for sign in (1, -1):
        inner = [{0: 2 * sign, 1: 2 * sign}, {2: sign}]
        assert not sparse_compose_zero(outer, inner)
        assert not reference_compose_zero(outer, inner)
    # an outer row near 10^6 makes every inner column a block of its own:
    # a nonzero composite in the last block only is still found
    outer = [{10**6: 1}, {10**6: -1}, {0: 1}]
    inner = [{0: 1, 1: 1}] * 5
    for p in (0, 3):
        assert sparse_compose_zero(outer, inner, p)
        assert not sparse_compose_zero(outer, inner + [{0: 1, 1: 1, 2: 1}], p)
    # over F_p, entries lifted to (-p/2, p/2], unreduced integers included
    for p in (3, 5, 7):
        rng = random.Random(p)
        for _ in range(200):
            inner = [{r: rng.randrange(-2 * p, 2 * p) for r in
                      rng.sample(range(3), rng.randint(0, 3))} for _ in range(3)]
            outer = [{rr: rng.randrange(-2 * p, 2 * p) for rr in
                      rng.sample(range(2), rng.randint(0, 2))} for _ in range(3)]
            assert (sparse_compose_zero(outer, inner, p)
                    == reference_compose_zero(outer, inner, p))
    # GF(3) with one-entry columns: B = 1, so p M = 3 and not B sets the
    # width; every slot of the composite is 0 or +-1, and each of these
    # pairs of two and three columns has a nonzero one, which is caught
    # (a width of 1 bit reads the slots -1, -1 as -3, a multiple of 3)
    singles = [{r: x} for r in range(2) for x in (1, 2)]
    for outer in itertools.product(singles, repeat=2):
        for inner in itertools.product(singles, repeat=3):
            assert not reference_compose_zero(list(outer), list(inner), 3)
            assert not sparse_compose_zero(list(outer), list(inner), 3)


def test_sparse_compose_zero_returns_before_packing(monkeypatch):
    # no inner entry meets a nonzero outer column: nothing is packed
    def refuse(*args):
        raise AssertionError("packed")

    monkeypatch.setattr(linalg, "_slot_width", refuse)
    assert sparse_compose_zero([{}, {}, {3: 1}], [{0: 1, 1: 2}, {1: 5}], 0)
    assert sparse_compose_zero([{}, {2: 1}], [{0: 4}], 5)
    with pytest.raises(AssertionError, match="packed"):
        sparse_compose_zero([{}, {2: 1}], [{1: 4}], 5)


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
