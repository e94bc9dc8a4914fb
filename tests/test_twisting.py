"""Twisting maps: verification, census enumeration, closed-form families."""

import itertools
import random
from fractions import Fraction
from functools import partial, reduce

import pytest

from twistlab.fields import GF, QQ
from twistlab.algebra import (
    Algebra,
    center,
    is_commutative,
    is_separable,
    jacobson_radical,
    radical_power_dims,
    standard_algebra,
    verify_axioms,
    change_of_basis,
)
from twistlab import census_search, twisting
from twistlab.duplicates import x_idempotent_algebra
from twistlab.linalg import Matrix
from twistlab.twisting import (
    CENSUS_ERRATA,
    CENSUS_TSV_HEADER,
    ENUM_BITS_BOUND,
    LINE_FAMILIES,
    TwistFamilyDescriptor,
    TwistingMap,
    census_rows,
    census_tsv,
    descriptor_scalars,
    enumerate_twisting_maps,
    family_member,
    flip,
    identify_family,
    inclusion_maps_are_morphisms,
    is_invertible,
    scalars_of_map,
    solve_2dim_twist,
    twisted_product,
    verify_twisting,
    _search_space_bits,
)

from test_linalg import (
    identity_matrix,
    reference_inverse,
    reference_kron,
    reference_product,
)


def parse_census_tsv(text: str, field) -> list:
    """Reference reader of ``census_tsv``: one dict per row, scalars in
    the field, "-" as None and "alpha" kept as text."""
    lines = [l for l in text.strip().split("\n") if l]
    if lines[0] != CENSUS_TSV_HEADER:
        raise ValueError("bad census header")

    def s(x):
        if x == "-":
            return None
        return x if x == "alpha" else field.scalar(x)

    rows = []
    for line in lines[1:]:
        fam, par, pv, qv, rv, sv, inv = line.split("\t")
        rows.append({
            "family": fam, "parameter": s(par), "p": s(pv), "q": s(qv),
            "r": s(rv), "s": s(sv), "invertible": inv == "yes",
        })
    return rows


def z2_pair(field):
    return (
        standard_algebra("group_algebra_z2", field),
        standard_algebra("group_algebra_z2", field),
    )


def pqrs_matrix(field, p, q, r, s):
    return Matrix(field, 4, 4, [
        [1, 0, 0, p],
        [0, 0, 1, q],
        [0, 1, 0, r],
        [0, 0, 0, s],
    ])


def _mult_matrix(a):
    """mu_A as rows of scalars A(x)A -> A: column i*d+j is e_i*e_j."""
    d = a.dim
    table = a.table
    cols = [table[i][j] for i in range(d) for j in range(d)]
    return [list(row) for row in zip(*cols)]


def _first_bad_column(got, want):
    """The first column where two matrices of field scalars differ."""
    return next((c for c, (g, w) in enumerate(zip(zip(*got), zip(*want)))
                 if g != w), None)


def _product(f, *factors):
    """The product of matrices of field scalars, taken left to right."""
    return reduce(partial(reference_product, f), factors)


def kron_twisting_report(a, b, m):
    """Reference for verify_twisting: (tw1)-(tw3) as Kronecker-product
    matrix identities on full basis tensors, with the same report."""
    da, db = a.dim, b.dim
    f = a.field
    kron = partial(reference_kron, f)
    ia = identity_matrix(f, da).data
    ib = identity_matrix(f, db).data
    ua = [[x] for x in a.unit]
    ub = [[x] for x in b.unit]
    m = m.data

    failures = {}
    # tw1: tau(b (x) 1) = 1 (x) b and tau(1 (x) a) = a (x) 1
    bad = _first_bad_column(_product(f, m, kron(ib, ua)), kron(ua, ib))
    if bad is None:
        bad = _first_bad_column(_product(f, m, kron(ub, ia)), kron(ia, ub))
        tw1 = bad is None
        if bad is not None:
            failures["tw1"] = ("unit_B (x) a", bad)
    else:
        tw1 = False
        failures["tw1"] = ("b (x) unit_A", bad)

    ma = _mult_matrix(a)
    mb = _mult_matrix(b)
    # tw2 on B(x)A(x)A
    lhs = _product(f, m, kron(ib, ma))
    rhs = _product(f, kron(ma, ib), kron(ia, m), kron(m, ia))
    bad = _first_bad_column(lhs, rhs)
    tw2 = bad is None
    if bad is not None:
        failures["tw2"] = (bad // (da * da), (bad // da) % da, bad % da)
    # tw3 on B(x)B(x)A
    lhs = _product(f, m, kron(mb, ia))
    rhs = _product(f, kron(ia, mb), kron(m, ib), kron(ib, m))
    bad = _first_bad_column(lhs, rhs)
    tw3 = bad is None
    if bad is not None:
        failures["tw3"] = (bad // (db * da), (bad // da) % db, bad % da)
    return {"tw1": tw1, "tw2": tw2, "tw3": tw3, "failures": failures}


def _random_scalar(rng, field):
    if field.characteristic:
        return rng.randrange(field.characteristic)
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _random_invertible(rng, field, n):
    while True:
        m = Matrix(field, n, n, [
            [_random_scalar(rng, field) for _ in range(n)] for _ in range(n)
        ])
        if m.rank() == n:
            return m


def test_verify_twisting_matches_kron_reference():
    # random perturbations of the flip, including units that are not basis
    # vectors (a change_of_basis'd k[Z2], k_n) and unequal dimensions
    rng = random.Random(41)
    outcomes = set()
    for field in (GF(3), GF(5), QQ):
        z2 = standard_algebra("group_algebra_z2", field)
        z2_moved = change_of_basis(z2, _random_invertible(rng, field, 2))
        k2 = standard_algebra("k_n", field, n=2)
        k3 = standard_algebra("k_n", field, n=3)
        pairs = [(z2, z2), (z2_moved, z2), (z2, k2), (k2, z2_moved),
                 (k3, z2), (z2_moved, k3)]
        for a, b in pairs:
            t = flip(a, b).matrix
            for _ in range(25):
                data = [row[:] for row in t.data]
                for _ in range(rng.randrange(4)):
                    r, c = rng.randrange(t.rows), rng.randrange(t.cols)
                    data[r][c] = _random_scalar(rng, field)
                m = Matrix(field, t.rows, t.cols, data)
                report = verify_twisting(a, b, m)
                assert report == kron_twisting_report(a, b, m), (field, a, b)
                outcomes.add((report["tw1"], report["tw2"] and report["tw3"]))
    # passes, (tw2)/(tw3)-only failures and (tw1) failures all occur
    assert outcomes >= {(True, True), (True, False), (False, False)}


def test_flip_matrix_is_the_expected_permutation():
    a, b = z2_pair(QQ)
    t = flip(a, b)
    expected = Matrix.from_rows(QQ, [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ])
    assert t.matrix == expected
    report = verify_twisting(a, b, t.matrix)
    assert report["tw1"] and report["tw2"] and report["tw3"]


def test_line_alpha_3_passes_all_conditions():
    a, b = z2_pair(QQ)
    m = pqrs_matrix(QQ, 3, 0, 0, -1)
    report = verify_twisting(a, b, m)
    assert report["tw1"] and report["tw2"] and report["tw3"]
    TwistingMap(a, b, m)


def test_printed_variant_line_at_alpha_0_fails_tw3():
    # tau(b(x)a) = -(1(x)1): not a twisting map; see CENSUS_ERRATA
    a, b = z2_pair(QQ)
    m = pqrs_matrix(QQ, -1, 0, 0, 0)
    report = verify_twisting(a, b, m)
    assert report["tw1"]
    assert not report["tw3"]
    # first failing basis triple is (b, b, a)
    assert report["failures"]["tw3"] == (1, 1, 1)
    with pytest.raises(ValueError):
        TwistingMap(a, b, m)


def test_verify_twisting_rejects_bad_shape_and_field():
    a, b = z2_pair(QQ)
    with pytest.raises(ValueError):
        verify_twisting(a, b, identity_matrix(QQ, 3))
    with pytest.raises(ValueError):
        verify_twisting(a, b, identity_matrix(GF(3), 4))


def test_twisted_product_of_flip_is_class_I_like():
    a, b = z2_pair(QQ)
    prod = twisted_product(flip(a, b))
    assert prod.dim == 4
    assert verify_axioms(prod)["associative"]
    assert is_commutative(prod)
    assert len(center(prod)) == 4
    assert jacobson_radical(prod) == []
    assert prod.basis_labels == ["1⊗1", "1⊗a", "a⊗1", "a⊗a"]


def test_line_product_matches_mixed_relation_presentation():
    # A_alpha: the product's table, with the middle basis vectors swapped,
    # equals the reference presentation with q = alpha
    for field, alpha in ((QQ, 2), (QQ, 0), (GF(5), 3)):
        a, b = z2_pair(field)
        t = family_member(
            TwistFamilyDescriptor("line_char_ne_2", alpha), a, b
        )
        prod = twisted_product(t)
        p = Matrix.from_rows(field, [
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
        ])
        permuted = change_of_basis(prod, p, labels=["1", "a", "b", "ab"])
        assert permuted.table == standard_algebra("a_q", field, q=alpha).table


def test_line_alpha_2_product_is_class_IIb_like():
    a, b = z2_pair(QQ)
    t = family_member(TwistFamilyDescriptor("line_char_ne_2", 2), a, b)
    prod = twisted_product(t)
    assert not is_commutative(prod)
    assert len(center(prod)) == 1
    assert radical_power_dims(prod) == [2, 0]
    assert not is_separable(prod)


def test_line_alpha_0_product_is_class_IIa_like():
    a, b = z2_pair(QQ)
    t = family_member(TwistFamilyDescriptor("line_char_ne_2", 0), a, b)
    prod = twisted_product(t)
    assert not is_commutative(prod)
    assert len(center(prod)) == 1
    assert jacobson_radical(prod) == []
    assert is_separable(prod)


def test_invertibility():
    a, b = z2_pair(QQ)
    assert is_invertible(flip(a, b))
    for alpha in (0, 1, -1, 2, 7):
        t = family_member(TwistFamilyDescriptor("line_char_ne_2", alpha), a, b)
        assert is_invertible(t)
    for fam in ("isolated_iii", "isolated_iv", "isolated_v", "isolated_vi"):
        t = family_member(TwistFamilyDescriptor(fam), a, b)
        assert not is_invertible(t)


def test_isolated_iii_has_the_expected_scalars():
    a, b = z2_pair(QQ)
    t = family_member(TwistFamilyDescriptor("isolated_iii"), a, b)
    assert scalars_of_map(t) == (
        QQ.scalar(-1), QQ.one, QQ.one, QQ.zero
    )


def test_census_counts():
    for p, expected in ((2, 3), (3, 8), (5, 10)):
        f = GF(p)
        a, b = z2_pair(f)
        maps = enumerate_twisting_maps(a, b)
        assert len(maps) == expected


def test_census_f7_count_and_lex_order():
    f = GF(7)
    a, b = z2_pair(f)
    maps = enumerate_twisting_maps(a, b)
    assert len(maps) == 12
    cols = [scalars_of_map(t) for t in maps]
    assert cols == sorted(cols)


def test_solve_matches_enumeration_pointwise():
    for p in (2, 3, 5, 7):
        f = GF(p)
        a, b = z2_pair(f)
        enumerated = {
            tuple(tuple(row) for row in t.matrix.data)
            for t in enumerate_twisting_maps(a, b)
        }
        solved = set()
        for desc in solve_2dim_twist(f):
            if desc.family_id in ("line_char_ne_2", "char2_line_i", "char2_line_ii"):
                members = [TwistFamilyDescriptor(desc.family_id, x)
                           for x in range(f.characteristic)]
            else:
                members = [desc]
            for d in members:
                t = family_member(d, a, b)
                solved.add(tuple(tuple(row) for row in t.matrix.data))
        assert solved == enumerated


def test_char_ne_2_invertibility_split():
    for p in (3, 5, 7):
        f = GF(p)
        a, b = z2_pair(f)
        maps = enumerate_twisting_maps(a, b)
        inv = [t for t in maps if is_invertible(t)]
        assert len(inv) == p + 1
        assert len(maps) - len(inv) == 4


def test_char0_solution_set_shape():
    descs = solve_2dim_twist(QQ)
    ids = [d.family_id for d in descs]
    assert ids == [
        "flip", "line_char_ne_2", "isolated_iii", "isolated_iv",
        "isolated_v", "isolated_vi",
    ]
    descs2 = solve_2dim_twist(GF(2))
    assert [d.family_id for d in descs2] == ["char2_line_i", "char2_line_ii"]


def test_char2_lines_intersect_at_flip():
    f = GF(2)
    a, b = z2_pair(f)
    t1 = family_member(TwistFamilyDescriptor("char2_line_i", 0), a, b)
    t2 = family_member(TwistFamilyDescriptor("char2_line_ii", 0), a, b)
    assert t1.matrix == t2.matrix
    assert scalars_of_map(t1) == (f.zero, f.zero, f.zero, f.one)


def test_char2_line_ii_at_alpha_1():
    f = GF(2)
    a, b = z2_pair(f)
    t = family_member(TwistFamilyDescriptor("char2_line_ii", 1), a, b)
    assert scalars_of_map(t) == (f.one, f.one, f.one, f.zero)


def test_family_member_errors():
    a, b = z2_pair(QQ)
    with pytest.raises(ValueError):
        family_member(TwistFamilyDescriptor("line_char_ne_2"), a, b)
    with pytest.raises(ValueError):
        family_member(TwistFamilyDescriptor("char2_line_i", 1), a, b)
    with pytest.raises(ValueError):
        family_member(TwistFamilyDescriptor("isolated_iii", 1), a, b)
    f2 = GF(2)
    a2, b2 = z2_pair(f2)
    with pytest.raises(ValueError):
        family_member(TwistFamilyDescriptor("isolated_iii"), a2, b2)
    with pytest.raises(ValueError):
        descriptor_scalars(TwistFamilyDescriptor("no_such_family"), QQ)


def test_identify_family_roundtrip():
    for p in (2, 3, 5):
        f = GF(p)
        a, b = z2_pair(f)
        for t in enumerate_twisting_maps(a, b):
            desc = identify_family(t)
            again = family_member(desc, a, b)
            assert again.matrix == t.matrix


def test_identify_family_order_and_non_member():
    # over GF(2) at p = 0 both char-2 lines hold the flip; family (i) wins
    a, b = z2_pair(GF(2))
    assert identify_family(flip(a, b)) == TwistFamilyDescriptor("char2_line_i", 0)
    # scalars outside every family: not a twisting map, so built unchecked
    for f in (GF(2), GF(3), QQ):
        t = object.__new__(TwistingMap)
        t.matrix = pqrs_matrix(f, 1, 1, 1, 1)
        with pytest.raises(ValueError, match="census family"):
            identify_family(t)


def test_inclusions_are_algebra_maps():
    a, b = z2_pair(QQ)
    for t in (
        flip(a, b),
        family_member(TwistFamilyDescriptor("line_char_ne_2", 2), a, b),
        family_member(TwistFamilyDescriptor("isolated_iii"), a, b),
        family_member(TwistFamilyDescriptor("isolated_vi"), a, b),
    ):
        assert inclusion_maps_are_morphisms(t)


def test_inclusion_maps_are_kronecker_products(monkeypatch):
    # the matrices of a -> a (x) 1 and b -> 1 (x) b, built from the integer
    # units, are I (x) 1_B and 1_A (x) I on the algebras' own scalars; most
    # of the moved units are off the basis
    seen = []
    is_algebra_map = twisting.is_algebra_map

    def spy(m, a, b):
        seen.append(m.data)
        return is_algebra_map(m, a, b)

    monkeypatch.setattr(twisting, "is_algebra_map", spy)
    maps = _seeded_twisting_maps(random.Random(53))
    assert sum(sum(map(bool, t.source_a.unit)) > 1 for t in maps) > 100
    for t in maps:
        a, b = t.source_a, t.source_b
        f = a.field
        seen.clear()
        assert inclusion_maps_are_morphisms(t)
        ua, ub = [[x] for x in a.unit], [[x] for x in b.unit]
        assert seen == [reference_kron(f, identity_matrix(f, a.dim).data, ub),
                        reference_kron(f, ua, identity_matrix(f, b.dim).data)]


def _verified_candidates(a, b):
    """Brute force: every tau that is the flip on unit pairs, as (tw1) fixes
    it, kept when verify_twisting passes it."""
    f = a.field
    da, db = a.dim, b.dim
    d = da * db
    ua, ub = a.unit.index(f.one), b.unit.index(f.one)
    free = [i * da + j for i in range(db) for j in range(da)
            if i != ub and j != ua]
    base = flip(a, b).matrix.data
    hits = set()
    for values in itertools.product(range(f.characteristic), repeat=len(free) * d):
        data = [row[:] for row in base]
        for n, c in enumerate(free):
            for r in range(d):
                data[r][c] = values[n * d + r]
        m = Matrix(f, d, d, data)
        rep = verify_twisting(a, b, m)
        if rep["tw1"] and rep["tw2"] and rep["tw3"]:
            hits.add(tuple(map(tuple, data)))
    return hits


def brute_force_twisting_maps(a, b):
    """Reference census: every assignment of the free columns, in
    itertools.product order, kept when the (tw2)/(tw3) scan over the triples
    with no unit index finds no failure."""
    f = a.field
    da, db = a.dim, b.dim
    d = da * db
    ua, ub = a.unit.index(f.one), b.unit.index(f.one)
    free_cols = [
        i * da + j for i in range(db) for j in range(da) if i != ub and j != ua
    ]
    # (tw1) makes tau the flip on every pair with a unit
    base_cols = [None] * (db * da)
    for i in range(db):
        for j in range(da):
            if i == ub or j == ua:
                col = [0] * d
                col[j * db + i] = 1
                base_cols[i * da + j] = col
    a_idx = [j for j in range(da) if j != ua]
    b_idx = [i for i in range(db) if i != ub]
    found = []
    nfree = len(free_cols)
    for assignment in itertools.product(range(f.characteristic), repeat=nfree * d):
        cols = list(base_cols)
        for ci, cidx in enumerate(free_cols):
            cols[cidx] = assignment[ci * d:(ci + 1) * d]
        if next(twisting._twist_failures(cols, a, b, a_idx, b_idx), None):
            continue
        m = Matrix(f, d, db * da, list(zip(*cols)))
        found.append(TwistingMap(a, b, m))
    return found


def k3_unit_first(field=GF(2)):
    return change_of_basis(
        standard_algebra("k_n", field, n=3),
        Matrix.from_rows(field, [[1, 0, 0], [1, 1, 0], [1, 0, 1]]),
    )


def random_unit_first(rng, alg):
    """``alg`` (2-dim) in a random basis whose first vector is the unit."""
    f = alg.field
    u0, u1 = alg.unit
    while True:
        v0, v1 = rng.randrange(f.characteristic), rng.randrange(f.characteristic)
        if f.scalar(u0 * v1 - u1 * v0):
            return change_of_basis(alg, Matrix.from_rows(f, [[u0, v0], [u1, v1]]))


def test_propagation_matches_brute_force_in_order():
    inputs = [z2_pair(GF(p)) for p in (2, 3, 5, 7, 11, 13)]
    f3 = GF(3)
    inputs.append((x_idempotent_algebra(f3), standard_algebra("group_algebra_z2", f3)))
    z2 = standard_algebra("group_algebra_z2", GF(2))
    inputs += [(k3_unit_first(), z2), (z2, k3_unit_first())]  # 4096 each
    # seeded: k[Z2], k x k and k[X]/(X^2) in random unit-first bases
    rng = random.Random(29)
    makers = [
        lambda f: standard_algebra("group_algebra_z2", f),
        lambda f: standard_algebra("k_n", f, n=2),
        lambda f: truncated_polynomial_algebra(f, 2),
    ]
    for _ in range(8):
        f = GF(rng.choice([2, 3, 5]))
        inputs.append(tuple(random_unit_first(rng, rng.choice(makers)(f))
                            for _ in range(2)))
    for a, b in inputs:
        got = enumerate_twisting_maps(a, b)
        want = brute_force_twisting_maps(a, b)
        assert [t.matrix.data for t in got] == [t.matrix.data for t in want]
        assert got == want


def test_census_matches_closed_form_at_every_prime_below_200():
    for p in [q for q in range(2, 200) if all(q % r for r in range(2, q))]:
        f = GF(p)
        rows = census_rows(f)
        got = [(r["p"], r["q"], r["r"], r["s"]) for r in rows]
        closed_form = set()
        for desc in solve_2dim_twist(f):
            params = range(p) if desc.family_id in LINE_FAMILIES else [None]
            for x in params:
                closed_form.add(descriptor_scalars(TwistFamilyDescriptor(desc.family_id, x), f))
        assert len(got) == len(set(got)) == (3 if p == 2 else p + 5), p
        assert set(got) == closed_form, p
        for r, pqrs in zip(rows, got):
            desc = TwistFamilyDescriptor(r["family"], r["parameter"])
            assert descriptor_scalars(desc, f) == pqrs


def test_fast_checker_agrees_with_matrix_verifier_on_f3():
    # the census takes its equations only from the triples without a unit
    # index; the 3-dim input has two non-unit indices, so the skip is
    # tested beyond one index per factor
    f3, f2 = GF(3), GF(2)
    inputs = [
        z2_pair(f3),  # 81 candidates
        (x_idempotent_algebra(f3), standard_algebra("group_algebra_z2", f3)),
        (k3_unit_first(), standard_algebra("group_algebra_z2", f2)),  # 4096
    ]
    for a, b in inputs:
        assert a.unit.index(a.field.one) == 0
        survivors = {
            tuple(map(tuple, t.matrix.data))
            for t in enumerate_twisting_maps(a, b)
        }
        assert survivors == _verified_candidates(a, b)


def test_verifier_census_and_closed_form_agree_on_random_pqrs():
    # a full pass of verify_twisting, membership in the census and
    # membership in a solve_2dim_twist family must coincide
    rng = random.Random(53)
    for p in (5, 7, 11):
        f = GF(p)
        a, b = z2_pair(f)
        census = {scalars_of_map(t) for t in enumerate_twisting_maps(a, b)}
        closed_form = set()
        for desc in solve_2dim_twist(f):
            params = range(p) if desc.family_id in LINE_FAMILIES else [None]
            for x in params:
                closed_form.add(descriptor_scalars(TwistFamilyDescriptor(desc.family_id, x), f))
        # every claimed solution, one random coordinate changed in each,
        # and uniform draws
        solutions = sorted(census | closed_form)
        nearby = []
        for pqrs in solutions:
            pqrs = list(pqrs)
            pqrs[rng.randrange(4)] = rng.randrange(p)
            nearby.append(tuple(pqrs))
        drawn = [tuple(rng.randrange(p) for _ in range(4)) for _ in range(40)]
        passed = set()
        for pqrs in solutions + nearby + drawn:
            m = pqrs_matrix(f, *pqrs)
            report = verify_twisting(a, b, m)
            full = report["tw1"] and report["tw2"] and report["tw3"]
            assert full == (pqrs in census) == (pqrs in closed_form), (p, pqrs)
            if full:
                passed.add(pqrs)
                desc = identify_family(TwistingMap(a, b, m))
                assert descriptor_scalars(desc, f) == pqrs
        assert passed == census and len(census) == p + 5


def test_enumeration_guards():
    a, b = z2_pair(QQ)
    with pytest.raises(ValueError):
        enumerate_twisting_maps(a, b)
    f = GF(3)
    big = standard_algebra("k_n", f, n=3)
    z2 = standard_algebra("group_algebra_z2", f)
    with pytest.raises(ValueError):
        enumerate_twisting_maps(big, big)
    shifted = change_of_basis(
        standard_algebra("group_algebra_z2", f),
        Matrix.from_rows(f, [[1, 1], [1, 2]]),
    )
    with pytest.raises(ValueError):
        enumerate_twisting_maps(shifted, z2)


def truncated_polynomial_algebra(field, n):
    # k[X]/(X^n) on 1, X, ..., X^(n-1): the unit is the first basis vector
    table = [[[int(i + j == k) for k in range(n)] for j in range(n)]
             for i in range(n)]
    return Algebra(field, [f"X{i}" for i in range(n)], table,
                   [1] + [0] * (n - 1), check=True)


def test_search_space_bound_edge(monkeypatch):
    # k[Z2] x k[X]/(X^5): 4 free columns of 10 scalars, 40 * log2(p) bits
    f2, f3 = GF(2), GF(3)
    z2 = standard_algebra("group_algebra_z2", f2)
    x5 = truncated_polynomial_algebra(f2, 5)
    assert ENUM_BITS_BOUND == 40
    assert _search_space_bits(z2, x5) == 40.0
    assert _search_space_bits(x5, z2) == 40.0
    z2, x5 = standard_algebra("group_algebra_z2", f3), truncated_polynomial_algebra(f3, 5)
    with pytest.raises(ValueError, match="63.4 bits exceeds the 40-bit bound"):
        _search_space_bits(z2, x5)
    # 4 log2(1031) = 40.04 is shown rounded up, never as the bound itself
    with pytest.raises(ValueError, match="40.1 bits exceeds the 40-bit bound"):
        _search_space_bits(*z2_pair(GF(1031)))
    assert _search_space_bits(*z2_pair(GF(1021))) <= ENUM_BITS_BOUND
    # the enumerator checks the bound before the search derives an equation
    def no_search(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(census_search, "census_equations", no_search)
    with pytest.raises(ValueError, match="63.4 bits exceeds the 40-bit bound"):
        enumerate_twisting_maps(z2, x5)


def test_census_tsv_roundtrip_and_golden_f3():
    f = GF(3)
    rows = census_rows(f)
    text = census_tsv(rows, f)
    assert text == (
        "family\tparameter\tp\tq\tr\ts\tinvertible\n"
        "flip\t-\t0\t0\t0\t1\tyes\n"
        "line_char_ne_2\t0\t0\t0\t0\t2\tyes\n"
        "line_char_ne_2\t1\t1\t0\t0\t2\tyes\n"
        "isolated_v\t-\t1\t1\t2\t0\tno\n"
        "isolated_iv\t-\t1\t2\t1\t0\tno\n"
        "line_char_ne_2\t2\t2\t0\t0\t2\tyes\n"
        "isolated_iii\t-\t2\t1\t1\t0\tno\n"
        "isolated_vi\t-\t2\t2\t2\t0\tno\n"
    )
    parsed = parse_census_tsv(text, f)
    assert len(parsed) == len(rows)
    for got, want in zip(parsed, rows):
        assert got["family"] == want["family"]
        assert got["parameter"] == want["parameter"]
        assert (got["p"], got["q"], got["r"], got["s"]) == (
            want["p"], want["q"], want["r"], want["s"]
        )
        assert got["invertible"] == want["invertible"]


def reference_census_rows_char0() -> list:
    """The symbolic census over Q as its own loop over the families: the
    second path ``census_rows`` had before it served every field."""
    z2a = standard_algebra("group_algebra_z2", QQ)
    z2b = standard_algebra("group_algebra_z2", QQ)
    rows = []
    for desc in solve_2dim_twist(QQ):
        if desc.family_id in LINE_FAMILIES:
            rows.append({
                "family": desc.family_id,
                "parameter": None,
                "p": "alpha", "q": QQ.zero, "r": QQ.zero, "s": QQ.scalar(-1),
                "invertible": True,
                "map": None,
            })
        else:
            t = family_member(desc, z2a, z2b)
            pv, qv, rv, sv = scalars_of_map(t)
            rows.append({
                "family": desc.family_id,
                "parameter": None,
                "p": pv, "q": qv, "r": rv, "s": sv,
                "invertible": is_invertible(t),
                "map": t,
            })
    return rows


def test_census_rows_over_q_match_reference():
    # dict equality compares the maps with TwistingMap.__eq__
    rows = census_rows(QQ)
    want = reference_census_rows_char0()
    assert len(rows) == len(want) == 6
    for got, ref in zip(rows, want):
        assert got == ref


def test_symbolic_line_is_invertible_at_sampled_alpha():
    # the census keeps the line symbolic and calls it invertible: its tau
    # has determinant 1 whatever alpha is
    z2 = standard_algebra("group_algebra_z2", QQ)
    for alpha in (0, 1, 2, -2, Fraction(7, 3)):
        t = family_member(TwistFamilyDescriptor("line_char_ne_2", alpha), z2, z2)
        assert is_invertible(t)


def test_char0_census_rows():
    rows = census_rows(QQ)
    fams = [r["family"] for r in rows]
    assert fams == [
        "flip", "line_char_ne_2", "isolated_iii", "isolated_iv",
        "isolated_v", "isolated_vi",
    ]
    line = rows[1]
    assert line["p"] == "alpha" and line["s"] == QQ.scalar(-1)
    assert all(r["invertible"] for r in rows[:2])
    assert not any(r["invertible"] for r in rows[2:])


def test_census_errata_records():
    assert len(CENSUS_ERRATA) == 2
    ids = {e["id"] for e in CENSUS_ERRATA}
    assert ids == {"census-line-family-form", "census-isolated-v-parameter"}
    for e in CENSUS_ERRATA:
        assert e["printed"] != e["computed"]
        assert e["adjudicated_by"] == "enumerate_twisting_maps"


def reference_twisted_product(t):
    """The twisted product with its multiplication written out on its own,
    on the field's own scalars: the form ``twisted_product`` had before it
    tabulated ``_tau_mul``."""
    a, b = t.source_a, t.source_b
    f = a.field
    da, db = a.dim, b.dim
    d = da * db
    tau = t.matrix.data
    table = [[[f.zero] * d for _ in range(d)] for _ in range(d)]
    for i in range(da):
        for j in range(db):
            for k in range(da):
                for l in range(db):
                    out = [f.zero] * d
                    tcol = j * da + k
                    for mm in range(da):
                        arow = a.table[i][mm]
                        for nn in range(db):
                            c = tau[mm * db + nn][tcol]
                            if not c:
                                continue
                            brow = b.table[nn][l]
                            for s in range(da):
                                if not arow[s]:
                                    continue
                                cs = c * arow[s]
                                for u in range(db):
                                    if brow[u]:
                                        out[s * db + u] = f.scalar(
                                            out[s * db + u] + cs * brow[u])
                    table[i * db + j][k * db + l] = out
    labels = [f"{la}⊗{lb}" for la in a.basis_labels for lb in b.basis_labels]
    unit = [f.scalar(x * y) for x in a.unit for y in b.unit]
    return Algebra(f, labels, table, unit, check=True)


def reference_twist_failures(cols, a, b, a_idx, b_idx):
    """The (tw2)/(tw3) scan with both right-hand sides unrolled, as
    (mu_A (x) B)(A (x) tau)(tau (x) A) and (A (x) mu_B)(tau (x) B)(B (x) tau):
    the form ``_twist_failures`` had before it used ``_tau_mul``."""
    p = a.field.characteristic
    atab, btab = a.table, b.table
    da, db = a.dim, b.dim
    d = da * db
    for i in b_idx:
        for j in a_idx:
            col1 = cols[i * da + j]
            for k in a_idx:
                lhs = [0] * d
                for c, col in zip(atab[j][k], cols[i * da:(i + 1) * da]):
                    for r in range(d):
                        if c and col[r]:
                            lhs[r] += c * col[r]
                rhs = [0] * d
                for mm in range(da):
                    arow = atab[mm]
                    for nn in range(db):
                        c1 = col1[mm * db + nn]
                        if not c1:
                            continue
                        col2 = cols[nn * da + k]
                        for s in range(da):
                            arow_s = arow[s]
                            for tt in range(db):
                                c2 = col2[s * db + tt]
                                if not c2:
                                    continue
                                c = c1 * c2
                                for u in range(da):
                                    if arow_s[u]:
                                        rhs[u * db + tt] += c * arow_s[u]
                if twisting._differ(lhs, rhs, p):
                    yield "tw2", (i, j, k), [x - y for x, y in zip(lhs, rhs)]
    for i in b_idx:
        for j in b_idx:
            for k in a_idx:
                col1 = cols[j * da + k]
                lhs = [0] * d
                for c, col in zip(btab[i][j], cols[k::da]):
                    for r in range(d):
                        if c and col[r]:
                            lhs[r] += c * col[r]
                rhs = [0] * d
                for mm in range(da):
                    col2 = cols[i * da + mm]
                    for nn in range(db):
                        c1 = col1[mm * db + nn]
                        if not c1:
                            continue
                        for s in range(da):
                            for tt in range(db):
                                c2 = col2[s * db + tt]
                                if not c2:
                                    continue
                                c = c1 * c2
                                brow = btab[tt][nn]
                                for u in range(db):
                                    if brow[u]:
                                        rhs[s * db + u] += c * brow[u]
                if twisting._differ(lhs, rhs, p):
                    yield "tw3", (i, j, k), [x - y for x, y in zip(lhs, rhs)]


def _reduced_failures(failures, field):
    """Yields with residuals mod p: a residual is an element of F_p, and its
    unreduced integers depend on how the product was summed."""
    p = field.characteristic
    return [(cond, triple, [x % p for x in res] if p else res)
            for cond, triple, res in failures]


def _transport(m, a, b, pa, pb):
    """(A', B', tau') for A and B in the bases pa and pb (their columns):
    tau' = (pa (x) pb)^-1 tau (pb (x) pa)."""
    f = m.field
    kron = partial(reference_kron, f)
    inverse = reference_inverse(Matrix.from_rows(f, kron(pa.data, pb.data)))
    return (change_of_basis(a, pa), change_of_basis(b, pb), Matrix.from_rows(
        f, _product(f, inverse, m.data, kron(pb.data, pa.data))))


def _seeded_twisting_maps(rng):
    """Twisting maps between k[Z2], k x k, k_3 and k[X]/(X^2 - X), and the
    flips of M_2(k) and k[Z2]: census and family members in unit-first
    bases, and each moved to random bases, where the units are mostly off
    the basis."""
    maps = []
    for f in (GF(2), GF(3), GF(5), GF(13)):
        maps += [r["map"] for r in census_rows(f)]
    for alpha in (0, 2, -3, Fraction(7, 3)):
        maps.append(family_member(
            TwistFamilyDescriptor("line_char_ne_2", alpha), *z2_pair(QQ)))
    maps += [r["map"] for r in census_rows(QQ) if r["map"] is not None]
    for f in (GF(2), GF(3), GF(5), QQ):
        algebras = [
            standard_algebra("group_algebra_z2", f),
            x_idempotent_algebra(f),
            change_of_basis(standard_algebra("k_n", f, n=2),
                            Matrix.from_rows(f, [[1, 0], [1, 1]])),
        ]
        if f.characteristic in (0, 2, 3):
            algebras.append(k3_unit_first(f))
        for a in algebras:
            for b in algebras:
                if f.characteristic and a.dim * b.dim <= 6:
                    found = enumerate_twisting_maps(a, b)
                    maps += rng.sample(found, min(3, len(found)))
                else:
                    maps.append(flip(a, b))
    # a noncommutative factor, so that the order of each product counts
    for f in (GF(3), QQ):
        m2 = standard_algebra("matrix2", f)
        z2 = standard_algebra("group_algebra_z2", f)
        maps += [flip(m2, z2), flip(z2, m2)]
    moved = []
    for t in maps:
        a, b, f = t.source_a, t.source_b, t.matrix.field
        pa, pb = (_random_invertible(rng, f, n) for n in (a.dim, b.dim))
        moved.append(TwistingMap(*_transport(t.matrix, a, b, pa, pb)))
    return maps + moved


def test_one_twisted_multiplication_matches_the_unrolled_references(monkeypatch):
    rng = random.Random(67)
    maps = _seeded_twisting_maps(rng)
    assert len(maps) > 300
    off_basis = [t for t in maps if sum(map(bool, t.source_a.unit)) > 1]
    assert len(off_basis) > 100
    outcomes = set()
    for t in maps:
        a, b, m = t.source_a, t.source_b, t.matrix
        f = a.field
        got, want = twisted_product(t), reference_twisted_product(t)
        assert (got.table, got.unit, got.basis_labels) == (
            want.table, want.unit, want.basis_labels)
        # the map, and copies with one to three entries changed
        for n in (0, 1, 2, 3):
            data = [row[:] for row in m.data]
            for _ in range(n):
                data[rng.randrange(m.rows)][rng.randrange(m.cols)] = \
                    _random_scalar(rng, f)
            cols = list(zip(*data))
            full = (range(a.dim), range(b.dim))
            # the scan compares the integer forms: a (tw2) residual is
            # D_A D_B^2 times the true one, a (tw3) residual D_A^2 D_B times it
            k = {"tw2": a.scale * b.scale ** 2, "tw3": a.scale ** 2 * b.scale}
            want = [(cond, triple, [k[cond] * x for x in res]) for cond, triple, res
                    in reference_twist_failures(cols, a, b, *full)]
            assert _reduced_failures(
                twisting._twist_failures(cols, a, b, *full), f
            ) == _reduced_failures(want, f)
            perturbed = Matrix(f, m.rows, m.cols, data)
            report = verify_twisting(a, b, perturbed)
            assert report == kron_twisting_report(a, b, perturbed)
            outcomes.add((report["tw1"], report["tw2"] and report["tw3"]))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}

    # the census equations: the scan run once on columns of variables
    inputs = [z2_pair(GF(p)) for p in (3, 5, 7, 11, 13)]
    inputs += [(k3_unit_first(f), standard_algebra("group_algebra_z2", f))
               for f in (GF(2), GF(3))]
    for a, b in inputs:
        got = census_search.census_equations(a, b)
        with monkeypatch.context() as mp:
            mp.setattr(census_search, "_twist_failures", reference_twist_failures)
            want = census_search.census_equations(a, b)
        assert got == want
        assert got[2]
