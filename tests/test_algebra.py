"""Structure-constant algebras: axioms, invariants, reference presentations."""

import json
import math
import random
from fractions import Fraction

import pytest

from twistlab.fields import GF, QQ
from twistlab.algebra import (
    Algebra,
    CriterionInapplicable,
    center,
    change_of_basis,
    is_separable,
    jacobson_radical,
    _radical_chain,
    radical_power_dims,
    standard_algebra,
    verify_axioms,
)
from twistlab.linalg import Matrix, rref_scalars
from twistlab.quivers import Quiver, truncated_path_algebra

from test_linalg import (
    identity_matrix,
    reference_apply,
    reference_echelon_basis,
    reference_inverse,
    reference_kernel_basis,
)


def table_is_symmetric(a) -> bool:
    """Reference: commutativity read off the integer table, e_i e_j = e_j e_i
    for every pair of basis vectors."""
    return all(a.int_table[i][j] == a.int_table[j][i]
               for i in range(a.dim) for j in range(a.dim))


def fraction_multiply(field, table, x: list, y: list) -> list:
    """Reference: x * y on a table of field scalars, one field operation per
    step (the product as ``multiply_coords`` took it before the integer
    form)."""
    p = field.characteristic
    out = [field.zero] * len(table)
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            c = xi * yj
            row = table[i][j]
            for k, v in enumerate(row):
                if v:
                    out[k] = out[k] + c * v
    return [v % p for v in out] if p else out


def fraction_verify_axioms(a) -> dict:
    """Reference: the associativity and unit scan with one field operation
    per step on the algebra's own scalars."""
    f = a.field
    d = a.dim
    table = a.table
    failing = None
    associative = True
    for i in range(d):
        if failing:
            break
        for j in range(d):
            if failing:
                break
            ij = table[i][j]
            for k in range(d):
                for l in range(d):
                    lhs = f.zero
                    rhs = f.zero
                    for m in range(d):
                        if ij[m]:
                            lhs = f.scalar(lhs + ij[m] * table[m][k][l])
                        if table[j][k][m]:
                            rhs = f.scalar(rhs + table[j][k][m] * table[i][m][l])
                    if lhs != rhs:
                        associative = False
                        failing = (i, j, k, l)
                        break
                if failing:
                    break
    unital = True
    unit_failing = None
    unit = a.unit
    for j in range(d):
        e = a.basis_element(j)
        if (fraction_multiply(f, table, unit, e) != e
                or fraction_multiply(f, table, e, unit) != e):
            unital = False
            unit_failing = (j,)
            break
    return {
        "associative": associative,
        "unital": unital,
        "failing_indices": failing or unit_failing,
    }


def trace_of_left_mult(a, x: list):
    """Reference: trace of y -> x y, one product per basis vector, on the
    algebra's own scalars."""
    f = a.field
    acc = f.zero
    for l in range(a.dim):
        acc = f.scalar(acc + a.multiply_coords(x, a.basis_element(l))[l])
    return acc


def fraction_change_of_basis(a, p, labels=None):
    """Reference: the transport through ``fraction_multiply`` and p^-1
    applied to each product, on the algebra's own scalars; the table is not
    checked again."""
    pinv = reference_inverse(p)
    d = a.dim
    old_table = a.table
    new_basis = [p.col(j) for j in range(d)]
    table = []
    for i in range(d):
        row = []
        for j in range(d):
            prod_old = fraction_multiply(a.field, old_table, new_basis[i], new_basis[j])
            row.append(reference_apply(a.field, pinv, prod_old))
        table.append(row)
    unit = reference_apply(a.field, pinv, a.unit)
    if labels is None:
        labels = [f"b{i}" for i in range(d)]
    return Algebra(a.field, labels, table, unit)


def dense_center(a) -> list:
    """Reference: the kernel of the stacked dense L(e_i) - R(e_i), built
    column by column from products with the algebra's own scalars."""
    d = a.dim
    rows = []
    for i in range(d):
        e = a.basis_element(i)
        left = [a.multiply_coords(e, a.basis_element(j)) for j in range(d)]
        right = [a.multiply_coords(a.basis_element(j), e) for j in range(d)]
        rows.extend([a.field.scalar(x - y) for x, y in zip(u, v)]
                    for u, v in zip(zip(*left), zip(*right)))
    return reference_kernel_basis(Matrix(a.field, len(rows), d, rows))


def random_scalar(field, rng):
    if field.characteristic:
        return rng.randrange(field.characteristic)
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def random_basis_change(field, d, rng):
    while True:
        p = Matrix(field, d, d, [[random_scalar(field, rng) for _ in range(d)]
                                 for _ in range(d)])
        if p.rank() == p.rows:
            return p


def wide_basis_change(d, rng):
    """An invertible d x d matrix over Q with entries a / b, b near 10^20:
    upper triangular with a nonzero diagonal, rows shuffled."""
    rows = [[Fraction(rng.randint(1, 9) * rng.choice((-1, 1)),
                      rng.randint(10**19, 10**20)) if j >= i else 0
             for j in range(d)] for i in range(d)]
    rng.shuffle(rows)
    return Matrix(QQ, d, d, rows)


def sample_algebras(field, rng, odd_dims=False):
    """Dimensions 2, 4 and 8, with odd_dims also 1, 3 and 5; over Q one of
    each dimension but 1 and 3 is moved to a rational basis, so its
    constants are Fractions and its unit no basis vector."""
    arrows = [(rng.randrange(3), rng.randrange(3)) for _ in range(5)]
    algebras = [
        standard_algebra("group_algebra_z2", field),
        standard_algebra("a_q", field, q=3),
        standard_algebra("matrix2", field),
        standard_algebra("truncated_roundtrip", field),
        truncated_path_algebra(Quiver(3, arrows), field),
    ]
    moved = [algebras[0], algebras[1], algebras[4]]
    if odd_dims:
        arrows = [(rng.randrange(2), rng.randrange(2)) for _ in range(3)]
        algebras += [
            standard_algebra("k_n", field, n=1),
            standard_algebra("k_n", field, n=3),
            truncated_path_algebra(Quiver(2, arrows), field),
        ]
        moved.append(algebras[-1])
    if field.characteristic == 0:
        algebras += [
            fraction_change_of_basis(alg, random_basis_change(field, alg.dim, rng))
            for alg in moved
        ]
    return algebras


def random_permutation(field, d, rng):
    """A permutation matrix: one nonzero cell in each row and column."""
    perm = list(range(d))
    rng.shuffle(perm)
    return Matrix(field, d, d, [[int(perm[i] == j) for j in range(d)]
                                for i in range(d)])


def last_block_fault(field, d, x):
    """A d-dim table (d >= 3) whose one non-associative triple is the last:
    e_N e_N = e_1 and e_1 e_N = x e_0 (N = d - 1, x nonzero), all other
    products zero.  (e_N e_N) e_N = x e_0 but e_N (e_N e_N) = e_N e_1 = 0,
    so the first failing indices are (N, N, N, 0)."""
    n = d - 1
    table = [[[0] * d for _ in range(d)] for _ in range(d)]
    table[n][n][1] = 1
    table[1][n][0] = x
    return Algebra(field, [f"e{i}" for i in range(d)], table, [0] * d)


def first_block_fault(field, d, x):
    """A d-dim table (d >= 2) failing in the first block: e_0 e_0 = e_1
    and e_1 e_0 = x e_0 (x nonzero), all other products zero, so
    (e_0 e_0) e_0 = x e_0 but e_0 (e_0 e_0) = e_0 e_1 = 0: (0, 0, 0, 0)."""
    table = [[[0] * d for _ in range(d)] for _ in range(d)]
    table[0][0][1] = 1
    table[1][0][0] = x
    return Algebra(field, [f"e{i}" for i in range(d)], table, [0] * d)


def extreme_slot_table(m):
    """A 2-dim table of entries +-m whose first failing slot, (0, 0, 1, 1),
    has (e_0 e_0) e_1 - e_0 (e_0 e_1) = -4 m^2 in its e_1 coordinate:
    the bound 2 d M^2 on a slot of the difference, met exactly.  For m a
    power of 2 a slot one bit narrower than the bound needs reads it as
    the next slot."""
    signs = [[[1, 1], [1, -1]], [[1, -1], [-1, -1]]]
    table = [[[m * x for x in cell] for cell in plane] for plane in signs]
    return Algebra(QQ, ["e0", "e1"], table, [0, 0])


def integer_associator(a):
    """All (e_i e_j) e_k - e_i (e_j e_k) coordinates of the integer table,
    unreduced."""
    c = a.int_table
    d = a.dim
    return [sum(c[i][j][m] * c[m][k][l] - c[j][k][m] * c[i][m][l]
                for m in range(d))
            for i in range(d) for j in range(d) for k in range(d)
            for l in range(d)]


def test_verify_axioms_standard_presentations():
    for field in (QQ, GF(3), GF(5)):
        for alg in (
            standard_algebra("k_n", field, n=4),
            standard_algebra("group_algebra_z2", field),
            standard_algebra("matrix2", field),
            standard_algebra("a_q", field, q=1),
            standard_algebra("truncated_roundtrip", field),
            standard_algebra("qtilde_path_algebra", field),
        ):
            report = verify_axioms(alg)
            assert report["associative"] and report["unital"]


def test_a_q_over_char2_still_associative():
    # the 4-dim presentation stays associative in characteristic 2
    for q in (0, 1):
        alg = standard_algebra("a_q", GF(2), q=q)
        assert verify_axioms(alg)["associative"]


def test_verify_axioms_accepts_quadratic_extension():
    # a*a = 2*1 turns k[Z2] into k[x]/(x^2-2): still associative and unital
    z2 = standard_algebra("group_algebra_z2", QQ)
    table = [[[x for x in cell] for cell in row] for row in z2.table]
    table[1][1] = [QQ.scalar(2), QQ.zero]
    report = verify_axioms(Algebra(QQ, ["1", "a"], table, [1, 0]))
    assert report["associative"] and report["unital"]


def test_verify_axioms_detects_broken_associativity():
    rt = standard_algebra("truncated_roundtrip", QQ)
    table = [[[x for x in cell] for cell in row] for row in rt.table]
    # x*e rerouted to y: (x*e)*e = 0 while x*(e*e) = y
    table[2][0] = [QQ.zero, QQ.zero, QQ.zero, QQ.one]
    bad = Algebra(QQ, rt.basis_labels, table, rt.unit)
    report = verify_axioms(bad)
    assert not report["associative"]
    # first failure in (i, j, k, l) order: (e*x)*e = 0 but e*(x*e) = e*y = y
    assert report["failing_indices"] == (0, 2, 0, 3)
    assert report == fraction_verify_axioms(bad)


def test_verify_axioms_detects_broken_unit():
    z2 = standard_algebra("group_algebra_z2", QQ)
    table = [[[x for x in cell] for cell in row] for row in z2.table]
    table[0][1] = [QQ.one, QQ.zero]  # 1*a rerouted to 1
    report = verify_axioms(Algebra(QQ, ["1", "a"], table, [1, 0]))
    assert not report["unital"]
    assert report["failing_indices"] is not None


SHAPE_ERROR = "table/unit shape does not match the basis"


def bad_shapes():
    """(table, unit) pairs for a 1- or 2-dimensional basis, each with one
    wrong length: a long cell, a short cell, a short row, a missing plane,
    a long unit."""
    z2 = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    return [
        (["1"], [[["1", "5"]]], ["1"]),
        (["1", "a"], [[[1, 0], [0, 1]], [[0, 1], [1]]], [1, 0]),
        (["1", "a"], [[[1, 0], [0, 1]], [[0, 1]]], [1, 0]),
        (["1", "a"], [[[1, 0], [0, 1]]], [1, 0]),
        (["1", "a"], z2, [1, 0, 0]),
    ]


def test_algebra_rejects_table_of_wrong_shape():
    for labels, table, unit in bad_shapes():
        with pytest.raises(ValueError, match=SHAPE_ERROR):
            Algebra(QQ, labels, table, unit)
        doc = {"field": "Q", "dim": len(labels), "basis": labels,
               "unit": unit, "table": table}
        with pytest.raises(ValueError, match=SHAPE_ERROR):
            Algebra.from_json(json.dumps(doc))


def test_a_q_verifies_at_q7():
    alg = standard_algebra("a_q", QQ, q=7)
    report = verify_axioms(alg)
    assert report["associative"] and report["unital"]


def test_multiply_examples():
    z2 = standard_algebra("group_algebra_z2", QQ)
    a = z2.basis_element(1)
    assert z2.multiply_coords(a, a) == [QQ.one, QQ.zero]
    m2 = standard_algebra("matrix2", QQ)
    e11, e12 = m2.basis_element(0), m2.basis_element(1)
    assert m2.multiply_coords(e11, e12) == e12
    for alg in (z2, m2):
        one = alg.unit
        for i in range(alg.dim):
            e = alg.basis_element(i)
            assert alg.multiply_coords(one, e) == e
            assert alg.multiply_coords(e, one) == e
    with pytest.raises(ValueError):
        z2.multiply_coords(z2.basis_element(0), m2.basis_element(0))


def test_basis_element_index_edges():
    # 0..d-1 is the range: -1 used to give e_(d-1) without a word
    for field in (QQ, GF(5)):
        alg = standard_algebra("matrix2", field)
        assert alg.basis_element(0) == [field.one] + [field.zero] * 3
        assert alg.basis_element(3) == [field.zero] * 3 + [field.one]
        for i in (-1, 4):
            with pytest.raises(ValueError, match=f"^basis index {i} is outside "
                               "0..3 for an algebra of dim 4$"):
                alg.basis_element(i)


def test_a_q_relations():
    q = 5
    alg = standard_algebra("a_q", QQ, q=q)
    one, a, b, ab = (alg.basis_element(i) for i in range(4))
    mul = alg.multiply_coords
    assert mul(a, a) == one
    assert mul(b, b) == one
    assert mul(a, b) == ab
    assert [x + y for x, y in zip(mul(a, b), mul(b, a))] == [q * x for x in one]


def test_center_dims():
    assert len(center(standard_algebra("k_n", QQ, n=4))) == 4
    assert len(center(standard_algebra("matrix2", QQ))) == 1
    assert len(center(standard_algebra("truncated_roundtrip", QQ))) == 1
    assert len(center(standard_algebra("group_algebra_z2", QQ))) == 2
    assert len(center(standard_algebra("qtilde_path_algebra", QQ))) == 2


def test_center_commutes_with_basis():
    alg = standard_algebra("truncated_roundtrip", QQ)
    for v in center(alg):
        for i in range(alg.dim):
            e = alg.basis_element(i)
            assert alg.multiply_coords(v, e) == alg.multiply_coords(e, v)


def test_jacobson_radical_dims():
    assert jacobson_radical(standard_algebra("k_n", QQ, n=4)) == []
    assert len(jacobson_radical(standard_algebra("truncated_roundtrip", QQ))) == 2
    assert len(jacobson_radical(standard_algebra("qtilde_path_algebra", QQ))) == 1
    # the two arrow classes span the roundtrip radical
    rad = jacobson_radical(standard_algebra("truncated_roundtrip", QQ))
    assert rad == [[0, 0, Fraction(1), 0], [0, 0, 0, Fraction(1)]]


def test_jacobson_radical_small_characteristic_certified():
    # char 3 < dim 4: the nilpotent-ideal verification still certifies it
    rad = jacobson_radical(standard_algebra("truncated_roundtrip", GF(3)))
    assert len(rad) == 2


def test_jacobson_radical_criterion_inapplicable():
    with pytest.raises(CriterionInapplicable):
        jacobson_radical(standard_algebra("group_algebra_z2", GF(2)))


def test_radical_power_dims():
    assert radical_power_dims(standard_algebra("truncated_roundtrip", QQ)) == [2, 0]
    assert radical_power_dims(standard_algebra("matrix2", QQ)) == []
    assert radical_power_dims(standard_algebra("qtilde_path_algebra", QQ)) == [1, 0]


def test_radical_is_nilpotent_ideal():
    alg = standard_algebra("truncated_roundtrip", QQ)
    rad = jacobson_radical(alg)

    for i in range(alg.dim):
        e = alg.basis_element(i)
        for v in rad:
            assert Matrix.from_rows(QQ, rad + [alg.multiply_coords(e, v)]).rank() == len(rad)
            assert Matrix.from_rows(QQ, rad + [alg.multiply_coords(v, e)]).rank() == len(rad)
    # square is zero
    for v in rad:
        for w in rad:
            assert not any(alg.multiply_coords(v, w))


def test_is_separable():
    assert is_separable(standard_algebra("k_n", QQ, n=2))
    assert is_separable(standard_algebra("matrix2", QQ))
    assert not is_separable(standard_algebra("truncated_roundtrip", QQ))
    assert not is_separable(standard_algebra("qtilde_path_algebra", QQ))
    assert is_separable(standard_algebra("group_algebra_z2", GF(5)))


def test_is_separable_false_negative_on_matrix2_over_f2():
    # M_2(F_2) is separable, but its trace form is zero: the documented
    # false negative, pinned so that a radical valid in every
    # characteristic flips it on purpose
    alg = standard_algebra("matrix2", GF(2))
    assert not is_separable(alg)
    with pytest.raises(CriterionInapplicable):
        radical_power_dims(alg)


def test_separable_implies_zero_radical():
    for name in ("k_n", "group_algebra_z2", "matrix2", "a_q",
                 "truncated_roundtrip", "qtilde_path_algebra"):
        kwargs = {"n": 3} if name == "k_n" else ({"q": 2} if name == "a_q" else {})
        alg = standard_algebra(name, QQ, **kwargs)
        if is_separable(alg):
            assert jacobson_radical(alg) == []


def test_change_of_basis_identity_and_roundtrip():
    alg = standard_algebra("a_q", QQ, q=3)
    same = change_of_basis(alg, identity_matrix(QQ, 4), labels=alg.basis_labels)
    assert same.table == alg.table and same.unit == alg.unit
    rng = random.Random(2)
    while True:
        p = Matrix(QQ, 4, 4, [[rng.randrange(-2, 3) for _ in range(4)] for _ in range(4)])
        if p.rank() == p.rows:
            break
    there = change_of_basis(alg, p)
    back = change_of_basis(there, Matrix.from_rows(QQ, reference_inverse(p)))
    assert back.table == alg.table and back.unit == alg.unit


def test_change_of_basis_z2_to_idempotents():
    z2 = standard_algebra("group_algebra_z2", QQ)
    # u = (1+a)/2, v = (1-a)/2 as columns
    p = Matrix(QQ, 2, 2, [["1/2", "1/2"], ["1/2", "-1/2"]])
    out = change_of_basis(z2, p, labels=["u", "v"])
    k2 = standard_algebra("k_n", QQ, n=2)
    assert out.table == k2.table
    assert out.unit == k2.unit


def test_change_of_basis_rejects_singular():
    alg = standard_algebra("group_algebra_z2", QQ)
    with pytest.raises(ValueError):
        change_of_basis(alg, Matrix(QQ, 2, 2, [[1, 1], [1, 1]]))


def test_change_of_basis_checks_the_transported_table():
    # the moved table is scanned itself: the error names the failing
    # indices of the transported table, not of the input
    rng = random.Random(71)
    for field in (QQ, GF(3), GF(7)):
        for bad in (last_block_fault(field, 3, field.one),
                    last_block_fault(field, 4, random_scalar(field, rng)
                                     or field.one)):
            for _ in range(4):
                p = random_basis_change(field, bad.dim, rng)
                want = fraction_verify_axioms(fraction_change_of_basis(bad, p))
                assert not want["associative"] and want != verify_axioms(bad)
                with pytest.raises(ValueError) as err:
                    change_of_basis(bad, p)
                assert str(err.value) == (
                    f"algebra axioms fail: {want['failing_indices']}")


def test_change_of_basis_rejects_a_wrong_label_count():
    # refused before any work: the matrix here is singular
    alg = standard_algebra("a_q", QQ, q=3)
    singular = Matrix(QQ, 4, 4, [[1, 0, 0, 0]] * 4)
    for labels in (["u", "v", "w"], ["u", "v", "w", "x", "y"]):
        with pytest.raises(ValueError, match=(
                f"change of basis needs 4 labels, got {len(labels)}$")):
            change_of_basis(alg, singular, labels=labels)


def test_change_of_basis_rejects_a_matrix_over_another_field():
    # refused before the transport, not left to the axiom check
    alg = standard_algebra("group_algebra_z2", QQ)
    with pytest.raises(ValueError, match="field mismatch"):
        change_of_basis(alg, Matrix.from_rows(GF(5), [[1, 1], [1, 2]]))


def test_truncated_roundtrip_table_entries():
    alg = standard_algebra("truncated_roundtrip", QQ)
    e, f_, x, y = (alg.basis_element(i) for i in range(4))
    mul = alg.multiply_coords
    assert mul(x, e) == x
    assert not any(mul(e, x))
    assert mul(e, y) == y
    assert mul(f_, x) == x
    assert mul(y, f_) == y
    assert not any(mul(x, y))
    assert not any(mul(y, x))


def test_k_n_orthogonal_idempotents():
    alg = standard_algebra("k_n", QQ, n=4)
    basis = [alg.basis_element(i) for i in range(4)]
    for i in range(4):
        for j in range(4):
            prod = alg.multiply_coords(basis[i], basis[j])
            assert prod == (basis[i] if i == j else [QQ.zero] * 4)


def test_standard_algebra_rejections():
    with pytest.raises(ValueError):
        standard_algebra("k_n", QQ, n=0)
    with pytest.raises(ValueError):
        standard_algebra("a_q", QQ)
    with pytest.raises(ValueError):
        standard_algebra("nothing", QQ)


def test_serialization_roundtrip_and_stability():
    alg = standard_algebra("a_q", QQ, q="-3/2")
    text = alg.to_json()
    back = Algebra.from_json(text)
    assert back.table == alg.table
    assert back.unit == alg.unit
    assert back.basis_labels == alg.basis_labels
    assert back.to_json() == text
    assert text.index('"field"') < text.index('"dim"') < text.index('"basis"')
    assert text.index('"basis"') < text.index('"unit"') < text.index('"table"')
    f5 = standard_algebra("matrix2", GF(5))
    assert Algebra.from_json(f5.to_json()).to_json() == f5.to_json()


def test_integer_form_is_the_scaled_table():
    # over Q the constants and unit times the lcm of their denominators,
    # over F_p the very same lists; for the standard algebras, their
    # transports and transports of those (Fraction constants over Q)
    rng = random.Random(97)
    scales = set()
    for field in (QQ, GF(3), GF(13)):
        p = field.characteristic
        algebras = [
            standard_algebra("k_n", field, n=3),
            standard_algebra("group_algebra_z2", field),
            standard_algebra("matrix2", field),
            standard_algebra("a_q", field, q="-3/2"),
            standard_algebra("truncated_roundtrip", field),
            standard_algebra("qtilde_path_algebra", field),
        ]
        for alg in algebras:
            moved = change_of_basis(alg, random_basis_change(field, alg.dim, rng))
            again = change_of_basis(moved, random_basis_change(field, alg.dim, rng))
            cases = [alg, moved, again]
            if not p:
                # denominators near 10^20 in P, and P^-1 from it
                wide = wide_basis_change(alg.dim, rng)
                cases += [change_of_basis(alg, wide), change_of_basis(
                    moved, Matrix.from_rows(QQ, reference_inverse(wide)))]
            for case in cases:
                cells = [x for plane in case.table for cell in plane for x in cell]
                ints = [x for plane in case.int_table for cell in plane for x in cell]
                assert all(type(x) is int for x in ints + case.int_unit)
                if p:
                    assert case.scale == 1
                    assert case.int_table == case.table
                    assert case.int_unit == case.unit
                    assert all(0 <= x < p for x in ints + case.int_unit)
                    continue
                assert case.scale == math.lcm(
                    *(x.denominator for x in cells + case.unit))
                assert case.int_table == [
                    [[case.scale * x for x in cell] for cell in plane]
                    for plane in case.table]
                assert case.int_unit == [case.scale * x for x in case.unit]
                scales.add(case.scale)
    assert 1 in scales and len(scales) >= 5
    assert max(scales) > 10**40


def test_verify_axioms_matches_fraction_reference():
    # whole reports, failing indices included, on perturbed tables; over Q
    # also with entries near 10^30 (slots past 64 bits), over GF(65521),
    # the largest allowed prime, also with slots past 32 bits
    rng = random.Random(61)
    unit_rng = random.Random(62)
    seen = set()
    failures = set()
    unit_failures = set()
    for field in (QQ, GF(3), GF(7), GF(65521)):
        for alg in sample_algebras(field, rng, odd_dims=True):
            d = alg.dim
            cases = [alg]
            for _ in range(6):
                table = [[list(cell) for cell in plane] for plane in alg.table]
                for _ in range(rng.randint(1, 2)):
                    i, j, k = (rng.randrange(d) for _ in range(3))
                    table[i][j][k] = random_scalar(field, rng)
                cases.append(Algebra(field, alg.basis_labels, table, alg.unit))
            if not field.characteristic:
                # scaled by about 10^30 (still associative, no longer
                # unital), then one entry moved by about 10^30
                big = rng.randint(10**30, 2 * 10**30)
                table = [[[big * x for x in cell] for cell in plane]
                         for plane in alg.table]
                cases.append(Algebra(field, alg.basis_labels, table, alg.unit))
                i, j, k = (rng.randrange(d) for _ in range(3))
                table[i][j][k] += rng.choice((-1, 1)) * rng.randint(10**29, 10**30)
                cases.append(Algebra(field, alg.basis_labels, table, alg.unit))
            # a fault planted in the first and in the last (i, j) block
            x = random_scalar(field, rng) or field.one
            if d >= 2:
                cases.append(first_block_fault(field, d, x))
            if d >= 3:
                cases.append(last_block_fault(field, d, x))
            # the unit perturbed on the associative table; fractions over Q
            for _ in range(3):
                unit = list(alg.unit)
                unit[unit_rng.randrange(d)] = random_scalar(field, unit_rng)
                cases.append(Algebra(field, alg.basis_labels, alg.table, unit))
            for case in cases:
                report = verify_axioms(case)
                assert report == fraction_verify_axioms(case), (field, d)
                seen.add((d, report["associative"]))
                if not report["associative"]:
                    failures.add(report["failing_indices"])
                elif not report["unital"]:
                    unit_failures.add((field.name, report["failing_indices"]))
    # a 1-dim table is always associative: e e = x e
    assert seen == {(d, ok) for d in (2, 3, 4, 5, 8) for ok in (True, False)} | {
        (1, True)}
    assert len(failures) > 20
    assert {(0, 0, 0, 0), (2, 2, 2, 0), (7, 7, 7, 0)} <= failures
    assert unit_failures >= {("Q", (0,)), ("Q", (1,)), ("F3", (0,)), ("F7", (0,)),
                             ("F65521", (0,))}


def test_verify_axioms_matches_reference_on_census_transports():
    # census products moved to a random basis, and each with one planted
    # change to a table entry: over F_p the transported residues do not
    # lift to an associative integer table, so every block needs the
    # divisibility test and only the failing one is read slot by slot
    from twistlab.twisting import census_rows, twisted_product

    rng = random.Random(89)
    failing = 0
    for field in (QQ, GF(3), GF(7), GF(13)):
        products = [twisted_product(row["map"]) for row in census_rows(field)
                    if row["map"] is not None]
        for prod in rng.sample(products, min(4, len(products))):
            for _ in range(3):
                moved = change_of_basis(prod, random_basis_change(field, 4, rng))
                table = [[list(cell) for cell in plane] for plane in moved.table]
                i, j, k = (rng.randrange(4) for _ in range(3))
                table[i][j][k] = field.scalar(
                    table[i][j][k] + (random_scalar(field, rng) or field.one))
                planted = Algebra(field, moved.basis_labels, table, moved.unit)
                for case in (moved, planted):
                    report = verify_axioms(case)
                    assert report == fraction_verify_axioms(case), field
                    failing += not report["associative"]
    assert failing >= 40


def test_verify_axioms_at_the_edges_of_its_slot_bounds():
    # over Q a first failing slot whose difference meets the bound exactly,
    # at m = 1 and at m = 2^100 (entries near 10^30)
    for m in (1, 2**100):
        case = extreme_slot_table(m)
        assert integer_associator(case)[3] == -4 * m * m
        report = verify_axioms(case)
        assert report["failing_indices"] == (0, 0, 1, 1)
        assert report == fraction_verify_axioms(case)
    # over F_p tables whose integer associator is a nonzero multiple of p
    # (the residue p - 1 stands for -1): associative all the same
    for p in (3, 7, 65521):
        for alg in (standard_algebra("a_q", GF(p), q=3),
                    standard_algebra("a_q", GF(p), q=p - 1)):
            assoc = integer_associator(alg)
            assert any(assoc) and all(x % p == 0 for x in assoc)
            assert verify_axioms(alg) == {
                "associative": True, "unital": True, "failing_indices": None}
    # a first slot whose integer difference is (p - 1)^2, 1 mod p, is
    # found: e_0 e_0 = -e_1 and e_1 e_0 = -e_0 as residues
    for p in (3, 65521):
        case = Algebra(GF(p), ["e0", "e1"], [[[0, p - 1], [0, 0]],
                                             [[p - 1, 0], [0, 0]]], [0, 0])
        assert integer_associator(case)[0] == (p - 1) ** 2
        assert verify_axioms(case) == fraction_verify_axioms(case)
        assert verify_axioms(case)["failing_indices"] == (0, 0, 0, 0)


def test_change_of_basis_matches_fraction_reference():
    # Fraction-valued p over Q (up to dimension 5 also with denominators
    # near 10^20), and permutation matrices, mostly zero cells; equal
    # table, unit and labels
    rng = random.Random(67)
    for field in (QQ, GF(3), GF(7)):
        for alg in sample_algebras(field, rng, odd_dims=True):
            d = alg.dim
            changes = [random_basis_change(field, d, rng),
                       random_basis_change(field, d, rng),
                       random_permutation(field, d, rng)]
            if not field.characteristic and d <= 5:
                changes.append(wide_basis_change(d, rng))
            for p in changes:
                got = change_of_basis(alg, p)
                want = fraction_change_of_basis(alg, p)
                assert got.table == want.table, (field, alg)
                assert got.unit == want.unit
                assert got.basis_labels == want.basis_labels


def test_center_matches_dense_reference():
    # identical echelon bases; over Q some tables carry Fraction constants
    rng = random.Random(73)
    rational = 0
    for field in (QQ, GF(3), GF(7), GF(13)):
        for alg in sample_algebras(field, rng):
            for case in (alg, change_of_basis(alg, random_basis_change(
                    field, alg.dim, rng))):
                assert center(case) == dense_center(case), (field, case)
                rational += any(getattr(v, "denominator", 1) > 1
                                for plane in case.table for row in plane
                                for v in row)
    assert rational >= 6


def test_structural_kernels_match_gauss_jordan_reference():
    # center, radical and radical powers against Gauss-Jordan on dense
    # matrices built with the algebra's own scalars
    rng = random.Random(79)
    depths = []
    refused = 0
    for field in (QQ, GF(3), GF(7), GF(13)):
        # k[x]/(x^n): J^(n-1) is the last nonzero power
        truncated = [Algebra(field, [f"x{i}" for i in range(n)], [
            [[int(i + j == k) for k in range(n)] for j in range(n)]
            for i in range(n)], [1] + [0] * (n - 1), check=True)
            for n in (3, 4)]
        for alg in sample_algebras(field, rng) + truncated:
            for case in (alg, change_of_basis(alg, random_basis_change(
                    field, alg.dim, rng))):
                d = case.dim
                basis = [case.basis_element(i) for i in range(d)]
                commutators = Matrix(field, d * d, d, [
                    [field.scalar(case.multiply_coords(x, e)[n]
                                  - case.multiply_coords(e, x)[n]) for x in basis]
                    for e in basis for n in range(d)])
                assert center(case) == reference_kernel_basis(commutators)
                try:
                    powers = [rref_scalars(field, rows) for rows in _radical_chain(case)]
                except CriterionInapplicable:
                    refused += 1
                    continue
                gram = Matrix(field, d, d, [
                    [trace_of_left_mult(case, case.multiply_coords(x, y))
                     for y in basis] for x in basis])
                rad = reference_kernel_basis(gram)
                want = [rad] if rad else []
                while want:
                    power = reference_echelon_basis(field, [
                        case.multiply_coords(x, y) for x in want[-1] for y in rad])
                    if not power:
                        break
                    want.append(power)
                assert powers == want, (field, case)
                assert jacobson_radical(case) == rad
                depths.append(len(want))
    assert refused <= 4
    assert depths.count(0) >= 10 and depths.count(1) >= 10
    assert depths.count(2) >= 4 and depths.count(3) >= 4
