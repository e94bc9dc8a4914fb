"""The integer form against the Fraction code it replaced.

An algebra holds only its integer form; the Fraction-valued ``table`` and
``unit`` are computed on each call.  The algebra-map check and the
duplicate construction moved onto integers, so each is compared here with
a copy of its Fraction code on seeded inputs, planted faults included; and
the accessors and the scalar entry point (``from_doc``) are checked at the
boundary.
"""

import itertools
import random
from fractions import Fraction

import pytest

from twistlab.fields import GF, QQ
from twistlab.algebra import (
    Algebra,
    change_of_basis,
    is_algebra_map,
    standard_algebra,
)
from twistlab.classify import reference_isomorphism
from twistlab.duplicates import (
    DuplicateDatum,
    _duplicate_algebra,
    build_duplicate,
    roundtrip_datum,
    verify_pair,
)
from twistlab.linalg import Matrix
from twistlab.quivers import standard_quiver, truncated_path_algebra
from twistlab.twisting import census_rows, twisted_product

from test_algebra import (
    fraction_multiply,
    random_basis_change,
    random_scalar,
    wide_basis_change,
)
from test_classify import census_products

FIELDS = (QQ, GF(3), GF(7), GF(13))


def fraction_is_algebra_map(m, a, b) -> bool:
    """Reference: ``is_algebra_map`` as it was, on the algebras' own
    scalars: m(1) = 1 and m(e_i e_j) = m(e_i) m(e_j)."""
    f = a.field
    ta, tb = a.table, b.table
    if m.apply(a.unit) != b.unit:
        return False
    cols = [m.col(j) for j in range(a.dim)]
    return all(m.apply(ta[i][j]) == fraction_multiply(f, tb, cols[i], cols[j])
               for i in range(a.dim) for j in range(a.dim))


def fraction_verify_pair(d) -> dict:
    """Reference: ``verify_pair`` as it was, with Matrix products and the
    base's own scalars."""
    base, fm, dm = d.base, d.f_matrix, d.delta_matrix
    f = base.field
    table = base.table
    first = second = True
    for i in range(base.dim):
        for j in range(base.dim):
            lhs = dm.apply(table[i][j])
            ei, ej = base.basis_element(i).coords, base.basis_element(j).coords
            v1 = [f.add(x, y) for x, y in zip(
                fraction_multiply(f, table, dm.col(i), fm.col(j)),
                fraction_multiply(f, table, ei, dm.col(j)))]
            v2 = [f.add(x, y) for x, y in zip(
                fraction_multiply(f, table, dm.col(i), ej),
                fraction_multiply(f, table, fm.col(i), dm.col(j)))]
            first = first and lhs == v1
            second = second and lhs == v2
    variants = {(True, True): "both", (True, False): "first_only",
                (False, True): "second_only", (False, False): "neither"}
    return {
        "endomorphism": fraction_is_algebra_map(fm, base, base),
        "idempotent_delta": (dm * dm) == dm,
        "compatibility": fm == (fm * fm) + (dm * fm) + (fm * dm),
        "leibniz_variant": variants[first, second],
    }


def fraction_duplicate_algebra(d) -> Algebra:
    """Reference: the (e_1, e_1X, ..., e_n, e_nX) table as it was built,
    from products on the base's own scalars; not checked."""
    base, fm, dm = d.base, d.f_matrix, d.delta_matrix
    f = base.field
    n = base.dim
    btab = base.table
    table = [[[f.zero] * (2 * n) for _ in range(2 * n)] for _ in range(2 * n)]
    for i in range(n):
        ei = base.basis_element(i).coords
        for j in range(n):
            plain = btab[i][j]
            u = fraction_multiply(f, btab, ei, dm.col(j))
            w = fraction_multiply(f, btab, ei, fm.col(j))
            for k in range(n):
                table[2 * i][2 * j][2 * k] = plain[k]
                table[2 * i][2 * j + 1][2 * k + 1] = plain[k]
                table[2 * i + 1][2 * j][2 * k] = u[k]
                table[2 * i + 1][2 * j][2 * k + 1] = w[k]
                table[2 * i + 1][2 * j + 1][2 * k + 1] = f.add(u[k], w[k])
    labels = [x for lbl in base.basis_labels for x in (lbl, f"{lbl}X")]
    unit = [x for u in base.unit for x in (u, f.zero)]
    return Algebra(f, labels, table, unit)


def planted(m, rng):
    """A copy of m with one entry moved by a nonzero scalar."""
    data = [row[:] for row in m.data]
    i, j = rng.randrange(m.rows), rng.randrange(m.cols)
    f = m.field
    data[i][j] = f.add(data[i][j], random_scalar(f, rng) or f.one)
    return Matrix(f, m.rows, m.cols, data)


def inclusion_maps(t):
    """(inc_a, a, prod) and (inc_b, b, prod): a -> a (x) 1 and b -> 1 (x) b."""
    a, b = t.source_a, t.source_b
    f = a.field
    prod = twisted_product(t)
    inc_a = Matrix.identity(f, a.dim).kron(Matrix.column_vector(f, b.unit))
    inc_b = Matrix.column_vector(f, a.unit).kron(Matrix.identity(f, b.dim))
    return [(inc_a, a, prod), (inc_b, b, prod)]


def test_is_algebra_map_matches_fraction_reference():
    # census products and their transports both ways, the reference
    # isomorphisms and the inclusions, each also with one entry changed;
    # the zero map and a projection of k^3 are multiplicative but do not
    # take the unit to the unit
    rng = random.Random(97)
    outcomes = set()
    for field in FIELDS:
        cases = []
        for prod in census_products(field):
            p = random_basis_change(field, 4, rng)
            moved = change_of_basis(prod, p)
            cases += [(p, moved, prod), (p.inverse(), prod, moved),
                      (Matrix.identity(field, 4), prod, prod),
                      (Matrix(field, 4, 4), moved, prod)]
            if not field.characteristic:
                wide = wide_basis_change(4, rng)
                cases.append((wide, change_of_basis(prod, wide), prod))
        for name in ("a_minus2_to_a2", "r_to_a_minus2"):
            cases.append(reference_isomorphism(name, field))
        for q in map(field.scalar, (0, 1, 3, "1/2")):
            if field.mul(q, q) != field.scalar(4):  # q = +-2 has none
                cases.append(reference_isomorphism("aq_to_matrix", field, q=q))
        for row in census_rows(field):
            if row["map"] is not None:
                cases += inclusion_maps(row["map"])
        k3 = standard_algebra("k_n", field, n=3)
        cases.append((Matrix(field, 3, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 0]]), k3, k3))
        cases += [(planted(m, rng), a, b) for m, a, b in cases]
        for m, a, b in cases:
            got = is_algebra_map(m, a, b)
            assert got == fraction_is_algebra_map(m, a, b), (field, a, b)
            outcomes.add((field.name, got))
    assert outcomes == {(f.name, ok) for f in FIELDS for ok in (True, False)}


def random_datum(field, n, rng):
    """A k^n datum with random f and delta (Fractions over Q)."""
    def matrix():
        return Matrix(field, n, n, [[random_scalar(field, rng) for _ in range(n)]
                                    for _ in range(n)])
    return DuplicateDatum(standard_algebra("k_n", field, n=n), matrix(), matrix())


def test_verify_pair_and_duplicate_table_match_fraction_reference():
    # the whole roundtrip grid, over Q with a_u, a_v in -4..4 and over F_p
    # every pair, plus random data on k^2 and k^3: identical reports, and
    # the same (e_i, e_iX) table as the Fraction construction
    rng = random.Random(101)
    variants = set()
    for field, grid in ((QQ, range(-4, 5)), (GF(5), range(5)), (GF(7), range(7))):
        data = [roundtrip_datum(field, au, av)
                for au, av in itertools.product(grid, repeat=2)]
        data += [random_datum(field, n, rng) for n in (2, 3) for _ in range(15)]
        if not field.characteristic:
            # valid pairs with denominators: a_u + a_v + 1 = 0
            data += [roundtrip_datum(field, au, -1 - au)
                     for au in (Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4))]
        for d in data:
            report = verify_pair(d)
            assert report == fraction_verify_pair(d), field
            variants.add(report["leibniz_variant"])
            got, want = _duplicate_algebra(d, check=False), fraction_duplicate_algebra(d)
            assert (got.table, got.unit, got.basis_labels) == (
                want.table, want.unit, want.basis_labels)
    # k^n is commutative, so each Leibniz rule is the other with x and y
    # swapped, and over all pairs they hold together or not at all
    assert variants == {"both", "neither"}


def boundary_algebras(field, rng):
    """Standard algebras, twisted products, duplicates, truncated path
    algebras and, over Q, transports with denominators."""
    algebras = [standard_algebra(name, field) for name in (
        "group_algebra_z2", "matrix2", "truncated_roundtrip", "qtilde_path_algebra")]
    algebras += [standard_algebra("k_n", field, n=3),
                 standard_algebra("a_q", field, q=3)]
    algebras += [twisted_product(r["map"]) for r in census_rows(field) if r["map"]]
    # the valid pairs lie on a_u + a_v + 1 = 0
    line = [0, 1, 2] + ([Fraction(1, 2), Fraction(-5, 3)] if not field.characteristic else [])
    algebras += [build_duplicate(roundtrip_datum(field, au, -1 - au)) for au in line]
    algebras += [truncated_path_algebra(standard_quiver(q), field)
                 for q in ("roundtrip", "qtilde", "kronecker", "crown(3)")]
    if not field.characteristic:
        algebras.append(standard_algebra("a_q", field, q="-3/2"))
        algebras += [change_of_basis(a, random_basis_change(field, a.dim, rng))
                     for a in algebras[:8]]
    return algebras


def test_accessors_equal_the_fraction_constants_of_the_doc():
    # table and unit are field scalars made afresh from the integer form:
    # over Q the Fractions the doc's strings spell, over F_p the residues;
    # from_doc rebuilds the same integer form
    rng = random.Random(103)
    scales = set()
    for field in (QQ, GF(3), GF(7)):
        p = field.characteristic
        for alg in boundary_algebras(field, rng):
            doc = alg.to_doc()
            kind = int if p else Fraction
            want_table = [[[kind(x) for x in cell] for cell in plane]
                          for plane in doc["table"]]
            assert alg.table == want_table and alg.unit == [kind(x) for x in doc["unit"]]
            assert all(type(x) is kind for plane in alg.table for cell in plane
                       for x in cell)
            again = Algebra.from_doc(doc)
            assert (again.int_table, again.int_unit, again.scale) == (
                alg.int_table, alg.int_unit, alg.scale)
            # a copy on each call: changing it leaves the algebra as it was
            table = alg.table
            table[0][0][0] = None
            assert alg.table == want_table
            with pytest.raises(AttributeError):
                alg.table = want_table
            scales.add(alg.scale)
    assert 1 in scales and len(scales) >= 4


@pytest.mark.parametrize("field_name, table, unit, where", [
    ("Q", [[["1/0"]]], ["1"], "table[0][0][0] = '1/0' has no image in Q"),
    ("F5", [[["1"]]], ["1/5"], "unit[0] = '1/5' has no image in F5"),
    ("F5", [[["1", "0"], ["0", "2/10"]], [["0", "0"], ["0", "1"]]], ["1", "1"],
     "table[0][1][1] = '2/10' has no image in F5"),
], ids=["Q-zero-denominator", "F5-unit", "F5-table"])
def test_from_doc_names_a_scalar_with_no_image(field_name, table, unit, where):
    doc = {"field": field_name, "dim": len(unit), "basis": [f"e{i}" for i in range(len(unit))],
           "table": table, "unit": unit}
    with pytest.raises(ValueError) as exc:
        Algebra.from_doc(doc)
    assert str(exc.value) == where


def test_fractional_doc_round_trips_byte_identically():
    # k x k with e0 e0 = e0 / 2 and e1 e1 = -3 e1 / 4: unit (2, -4/3)
    text = ('{"field":"Q","dim":2,"basis":["e0","e1"],"unit":["2","-4/3"],'
            '"table":[[["1/2","0"],["0","0"]],[["0","0"],["0","-3/4"]]]}')
    alg = Algebra.from_json(text)
    assert alg.to_json() == text
    assert alg.scale == 12
    assert alg.int_table == [[[6, 0], [0, 0]], [[0, 0], [0, -9]]]
    assert alg.int_unit == [24, -16]
