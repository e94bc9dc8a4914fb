"""(f, delta) pairs on k^n and the resulting duplicate algebras."""

import itertools

import pytest

from twistlab.fields import GF, QQ
from twistlab.algebra import (
    center,
    is_commutative,
    is_separable,
    jacobson_radical,
    radical_power_dims,
    standard_algebra,
    verify_axioms,
)
from twistlab.linalg import Matrix
from twistlab.duplicates import (
    DuplicateDatum,
    build_duplicate,
    duplicate_to_twisting_map,
    roundtrip_candidate,
    roundtrip_datum,
    verify_pair,
    x_idempotent_algebra,
)
from twistlab.twisting import flip, is_invertible, twisted_product

from test_linalg import identity_matrix


def identity_datum(field, n=2):
    base = standard_algebra("k_n", field, n=n)
    return DuplicateDatum(
        base, identity_matrix(field, n), Matrix(field, n, n)
    )


def test_x_idempotent_algebra():
    alg = x_idempotent_algebra(QQ)
    report = verify_axioms(alg)
    assert report["associative"] and report["unital"]
    x = alg.basis_element(1)
    assert alg.multiply_coords(x, x) == x


def test_identity_pair_passes_everything():
    report = verify_pair(identity_datum(QQ))
    assert report["endomorphism"]
    assert report["idempotent_delta"]
    assert report["compatibility"]
    assert report["leibniz_variant"] == "both"


def test_identity_pair_duplicate_is_split_commutative():
    dup = build_duplicate(identity_datum(QQ))
    assert dup.dim == 4
    assert is_commutative(dup)
    assert is_separable(dup)
    assert jacobson_radical(dup) == []
    assert len(center(dup)) == 4


def test_roundtrip_pair_passes_and_satisfies_both_leibniz_rules():
    for field, au, av in ((QQ, 0, -1), (QQ, 1, -2), (GF(5), 2, 2)):
        report = verify_pair(roundtrip_datum(field, au, av))
        assert report["endomorphism"]
        assert report["idempotent_delta"]
        assert report["compatibility"]
        assert report["leibniz_variant"] == "both"


def test_swap_without_delta_fails_compatibility():
    base = standard_algebra("k_n", QQ, n=2)
    fm = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    report = verify_pair(DuplicateDatum(base, fm, Matrix(QQ, 2, 2)))
    assert report["endomorphism"]
    assert report["idempotent_delta"]
    assert not report["compatibility"]
    with pytest.raises(ValueError):
        build_duplicate(DuplicateDatum(base, fm, Matrix(QQ, 2, 2)))


def test_verify_pair_rejects_bad_base_and_shapes():
    z2 = standard_algebra("group_algebra_z2", QQ)
    with pytest.raises(ValueError):
        verify_pair(
            DuplicateDatum(z2, identity_matrix(QQ, 2), Matrix(QQ, 2, 2))
        )
    base = standard_algebra("k_n", QQ, n=2)
    with pytest.raises(ValueError):
        verify_pair(
            DuplicateDatum(base, identity_matrix(QQ, 3), Matrix(QQ, 2, 2))
        )
    with pytest.raises(ValueError):
        verify_pair(
            DuplicateDatum(base, identity_matrix(GF(3), 2), Matrix(QQ, 2, 2))
        )


def test_associativity_scan_over_f5():
    f = GF(5)
    good = set()
    for au, av in itertools.product(range(5), repeat=2):
        cand = roundtrip_candidate(f, au, av)
        if verify_axioms(cand)["associative"]:
            good.add((au, av))
    assert good == {
        (au, av)
        for au, av in itertools.product(range(5), repeat=2)
        if (au + av + 1) % 5 == 0
    }
    assert len(good) == 5


def test_roundtrip_table_entries():
    # basis order (u, uX, v, vX); rule X*a = delta(a) + f(a)*X
    for field, au, av in ((QQ, 1, -2), (QQ, 0, -1), (GF(5), 2, 2)):
        alg = build_duplicate(roundtrip_datum(field, au, av))
        assert alg.basis_labels == ["u", "uX", "v", "vX"]
        auv, avv = field.scalar(au), field.scalar(av)
        z, o = field.zero, field.one
        # uX*v = a_u*u + uX
        assert alg.table[1][2] == [auv, o, z, z]
        # vX*u = a_v*v + vX
        assert alg.table[3][0] == [z, z, avv, o]
        # uX*u = -a_u*u
        assert alg.table[1][0] == [field.scalar(-au), z, z, z]
        # vX*vX = -a_v*vX
        assert alg.table[3][3] == [z, z, z, field.scalar(-av)]
        # u*vX = 0, u*uX = uX
        assert alg.table[0][3] == [z, z, z, z]
        assert alg.table[0][1] == [z, o, z, z]


def test_roundtrip_displayed_product_pair():
    for field, au, av in ((QQ, 1, -2), (GF(5), 2, 2)):
        alg = build_duplicate(roundtrip_datum(field, au, av))
        u, ux, v, vx = (alg.basis_element(i) for i in range(4))
        mul = alg.multiply_coords
        vx_u, ux_v = mul(vx, u), mul(ux, v)
        assert mul(vx_u, ux_v) == [field.scalar(au * av * x) for x in v]
        assert mul(ux_v, vx_u) == [field.scalar(au * av * x) for x in u]


def test_roundtrip_constraint_gate():
    with pytest.raises(ValueError):
        build_duplicate(roundtrip_datum(QQ, 1, 1))
    build_duplicate(roundtrip_datum(QQ, 3, -4))


def test_roundtrip_zero_product_case_is_nilpotent_type():
    alg = build_duplicate(roundtrip_datum(QQ, 0, -1))
    assert not is_commutative(alg)
    assert len(center(alg)) == 1
    assert radical_power_dims(alg) == [2, 0]
    assert not is_separable(alg)


def test_roundtrip_nonzero_product_case_is_separable_type():
    alg = build_duplicate(roundtrip_datum(QQ, 1, -2))
    assert not is_commutative(alg)
    assert len(center(alg)) == 1
    assert jacobson_radical(alg) == []
    assert is_separable(alg)


def test_identity_datum_twisting_map_is_flip():
    d = identity_datum(QQ)
    t = duplicate_to_twisting_map(d)
    assert t.matrix == flip(d.base, x_idempotent_algebra(QQ)).matrix


def test_roundtrip_twisting_map_is_invertible_and_rebuilds_duplicate():
    for au, av in ((0, -1), (1, -2)):
        d = roundtrip_datum(QQ, au, av)
        t = duplicate_to_twisting_map(d)
        assert is_invertible(t)
        prod = twisted_product(t)
        dup = build_duplicate(d)
        assert prod.table == dup.table
        assert prod.unit == dup.unit


def test_duplicate_to_twisting_map_rejects_invalid_pair():
    base = standard_algebra("k_n", QQ, n=2)
    fm = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        duplicate_to_twisting_map(DuplicateDatum(base, fm, Matrix(QQ, 2, 2)))
