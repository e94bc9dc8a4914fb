"""End-to-end acceptance gate: ten independent checks with runtime bounds.

Each test covers one headline capability and prints a single summary line
on success; `pytest -v` shows one PASSED/FAILED line per criterion.
"""

import time

import pytest

from twistlab.algebra import standard_algebra, verify_axioms
from twistlab.classify import classify_4dim, is_isomorphism, orbit_report, reference_isomorphism
from twistlab.duplicates import build_duplicate, roundtrip_candidate, roundtrip_datum
from twistlab.fields import GF, QQ
from twistlab.hochschild import (
    CROWN_READING,
    HH_ERRATA,
    READING_NOTES,
    crown_formula,
    hh_bar,
    hh_e_complex,
    hh_rsz,
    rsz_layer,
    rsz_pairs,
    thm_formula,
    verify_counterexample,
)
from twistlab.linalg import sparse_compose_zero
from twistlab.quivers import (
    Quiver,
    has_oriented_cycle,
    longest_path_length,
    standard_quiver,
    truncated_path_algebra,
)
from twistlab.twisting import (
    CENSUS_ERRATA,
    TwistFamilyDescriptor,
    census_rows,
    enumerate_twisting_maps,
    family_member,
    flip,
    is_invertible,
    twisted_product,
)

ISOLATED_QR = {
    "isolated_iii": (1, 1),
    "isolated_iv": (-1, 1),
    "isolated_v": (1, -1),
    "isolated_vi": (-1, -1),
}


def z2(field):
    return standard_algebra("group_algebra_z2", field)


def member(field, family, parameter=None):
    d = TwistFamilyDescriptor(family, parameter)
    return family_member(d, z2(field), z2(field))


def corpus_quivers():
    return [
        ("roundtrip", standard_quiver("roundtrip")),
        ("qtilde", standard_quiver("qtilde")),
        ("four_points", standard_quiver("four_points")),
        ("loop", standard_quiver("loop")),
        ("kronecker", standard_quiver("kronecker")),
        ("crown3", standard_quiver("crown", 3)),
    ]


def test_criterion_01_census_counts():
    expected = {2: 3, 3: 8, 5: 10, 7: 12}
    slowest = 0.0
    for p, want in expected.items():
        f = GF(p)
        t0 = time.monotonic()
        maps = enumerate_twisting_maps(z2(f), z2(f))
        dt = time.monotonic() - t0
        assert len(maps) == want
        assert dt < 1.0
        slowest = max(slowest, dt)
    print(
        "criterion  1 PASS: census counts F2/F3/F5/F7 = 3/8/10/12, "
        f"slowest field {slowest:.3f}s < 1s"
    )


def test_criterion_02_census_structure_and_errata():
    for p in (3, 5, 7):
        f = GF(p)
        rows = census_rows(f)
        by_family = {}
        for r in rows:
            by_family.setdefault(r["family"], []).append(r)
        assert sorted(by_family) == [
            "flip",
            "isolated_iii",
            "isolated_iv",
            "isolated_v",
            "isolated_vi",
            "line_char_ne_2",
        ]

        (flip_row,) = by_family["flip"]
        assert (flip_row["p"], flip_row["q"], flip_row["r"], flip_row["s"]) == (
            f.zero,
            f.zero,
            f.zero,
            f.one,
        )
        assert flip_row["invertible"]

        line = by_family["line_char_ne_2"]
        assert len(line) == p
        assert {r["parameter"] for r in line} == set(range(p))
        for r in line:
            assert (r["q"], r["r"], r["s"]) == (f.zero, f.zero, f.scalar(-1))
            assert r["invertible"]

        for name, (qi, ri) in ISOLATED_QR.items():
            (row,) = by_family[name]
            assert (row["p"], row["q"], row["r"], row["s"]) == (
                f.scalar(-qi * ri),
                f.scalar(qi),
                f.scalar(ri),
                f.zero,
            )
            assert not row["invertible"]

    assert len(CENSUS_ERRATA) == 2
    assert {e["id"] for e in CENSUS_ERRATA} == {
        "census-line-family-form",
        "census-isolated-v-parameter",
    }
    for e in CENSUS_ERRATA:
        assert e["printed"] and e["computed"] and e["adjudicated_by"]
    print(
        "criterion  2 PASS: census structure (1 flip + p-member invertible line "
        "+ 4 singular isolated maps) and both errata records present"
    )


def test_criterion_03_classification():
    t0 = time.monotonic()
    want = {
        3: {"I": 1, "IIa": 1, "IIb": 2, "III": 4},
        5: {"I": 1, "IIa": 3, "IIb": 2, "III": 4},
    }
    for p, counts in want.items():
        assert orbit_report(GF(p)).class_counts == counts
    for alpha, label in [
        (2, "IIb"),
        (-2, "IIb"),
        (0, "IIa"),
        (1, "IIa"),
        (3, "IIa"),
        (-1, "IIa"),
    ]:
        prod = twisted_product(member(QQ, "line_char_ne_2", alpha))
        assert classify_4dim(prod) == label
    dt = time.monotonic() - t0
    assert dt < 5.0
    print(
        "criterion  3 PASS: class counts over F3/F5 match; line alpha = +-2 "
        f"gives IIb, other samples IIa; {dt:.2f}s < 5s"
    )


def test_criterion_04_reference_isomorphisms():
    for name in ("a_minus2_to_a2", "r_to_a_minus2"):
        m, src, tgt = reference_isomorphism(name, QQ)
        assert is_isomorphism(m, src, tgt)
    for q in (-3, -2, -1, 0, 1, 2, 3):
        if q in (2, -2):
            with pytest.raises(ValueError):
                reference_isomorphism("aq_to_matrix", QQ, q=q)
        else:
            m, src, tgt = reference_isomorphism("aq_to_matrix", QQ, q=q)
            assert is_isomorphism(m, src, tgt)
    print(
        "criterion  4 PASS: all reference isomorphisms verified "
        "multiplicatively; a_q -> 2x2 matrices singular exactly at q = +-2"
    )


def test_criterion_05_duplicates():
    f5 = GF(5)
    good = set()
    for au in range(5):
        for av in range(5):
            cand = roundtrip_candidate(f5, au, av)
            if verify_axioms(cand)["associative"]:
                good.add((au, av))
    assert good == {(au, av) for au in range(5) for av in range(5) if (au + av + 1) % 5 == 0}
    assert len(good) == 5

    # parametric table entries at two generic parameter points
    for au, av in ((2, -3), (-1, 0)):
        alg = roundtrip_candidate(QQ, au, av)
        auv, avv = QQ.scalar(au), QQ.scalar(av)
        zero, one = QQ.zero, QQ.one
        assert alg.basis_labels == ["u", "uX", "v", "vX"]
        assert alg.table[1][2] == [auv, one, zero, zero]
        assert alg.table[3][0] == [zero, zero, avv, one]
        assert alg.table[1][0] == [-auv, zero, zero, zero]
        assert alg.table[3][2] == [zero, zero, -avv, zero]
        assert alg.table[1][1] == [zero, -auv, zero, zero]
        assert alg.table[3][3] == [zero, zero, zero, -avv]
        assert alg.table[0][1] == [zero, one, zero, zero]
        assert alg.table[0][3] == [zero, zero, zero, zero]

    for (au, av), label in [
        ((0, -1), "IIb"),
        ((-1, 0), "IIb"),
        ((1, -2), "IIa"),
        ((2, -3), "IIa"),
    ]:
        alg = build_duplicate(roundtrip_datum(QQ, au, av))
        assert classify_4dim(alg) == label
        assert (label == "IIb") == (au * av == 0)
    print(
        "criterion  5 PASS: 25-pair scan over F5 finds exactly the 5 "
        "associative pairs on a_u + a_v + 1 = 0; parametric table and "
        "IIb-iff-a_u*a_v=0 split confirmed"
    )


def test_criterion_06_hh_by_class():
    t0 = time.monotonic()
    prod_i = twisted_product(flip(z2(QQ), z2(QQ)))
    assert hh_bar(prod_i, 3).dims == [4, 0, 0, 0]

    prod_iia = twisted_product(member(QQ, "line_char_ne_2", 0))
    assert hh_bar(prod_iia, 3).dims == [1, 0, 0, 0]

    assert hh_rsz(standard_quiver("roundtrip"), QQ, 10).dims == [1] * 11
    prod_iib = twisted_product(member(QQ, "line_char_ne_2", 2))
    assert hh_bar(prod_iib, 4).dims == [1] * 5

    prod_iii = twisted_product(member(QQ, "isolated_iii"))
    assert hh_bar(prod_iii, 3).dims == [2, 0, 0, 0]
    assert any(e["id"] == "isolated-vertex-hh0" for e in HH_ERRATA)
    dt = time.monotonic() - t0
    assert dt < 60.0
    print(
        "criterion  6 PASS: profiles by class I/IIa/IIb/III = [4,0,0,0] / "
        f"[1,0,0,0] / all-ones / [2,0,0,0] over Q, erratum recorded, {dt:.1f}s < 60s"
    )


def test_criterion_07_three_routes_agree():
    for name, q in corpus_quivers():
        rsz = hh_rsz(q, QQ, 4)
        alg = truncated_path_algebra(q, QQ)
        idems = [alg.basis_element(v) for v in range(q.vertex_count)]
        ec = hh_e_complex(alg, idems, 4)
        n_bar = 4
        while alg.dim ** (n_bar + 2) > 4096:
            n_bar -= 1
        bar = hh_bar(alg, n_bar)
        assert rsz.dims == ec.dims, name
        assert rsz.dims[: n_bar + 1] == bar.dims, name

        # composition of consecutive coboundaries vanishes on every layer
        pairs = rsz_pairs(q, 6)
        layers = [rsz_layer(q, pairs, n, 0) for n in range(6)]
        for n in range(4):
            outer = layers[n + 1].columns
            inner = layers[n].columns
            assert sparse_compose_zero(outer, inner), (name, n)
    print(
        "criterion  7 PASS: rsz, bar, and e-complex dims agree through "
        "degree 4 on all 6 quivers; coboundary squares vanish on every layer"
    )


def test_criterion_08_closed_forms():
    connected_noncrown = [
        ("kronecker", standard_quiver("kronecker")),
        ("two_loops", Quiver(1, [(0, 0), (0, 0)])),
        ("path3", Quiver(3, [(0, 1), (1, 2)])),
    ]
    for name, q in connected_noncrown:
        prof = hh_rsz(q, QQ, 4)
        for n in range(5):
            assert thm_formula(q, n) == prof.dims[n], (name, n)
    assert thm_formula(standard_quiver("roundtrip"), 0) is None
    assert thm_formula(standard_quiver("qtilde"), 0) is None

    crown2 = hh_rsz(standard_quiver("roundtrip"), QQ, 9)
    crown3 = hh_rsz(standard_quiver("crown", 3), QQ, 9)
    for n in range(10):
        assert crown_formula(2, n) == crown2.dims[n]
        assert crown_formula(3, n) == crown3.dims[n]
    assert CROWN_READING == "n even and divisible by c"
    assert any(CROWN_READING in note["note"] for note in READING_NOTES)
    print(
        "criterion  8 PASS: non-crown closed form matches rsz in degrees 0-4; "
        "crown evaluator matches c = 2, 3 in degrees 0-9 under the recorded reading"
    )


def test_criterion_09_counterexample():
    t0 = time.monotonic()
    report = verify_counterexample(10, QQ)
    dt = time.monotonic() - t0
    assert report["factor_a_separable"] and report["factor_b_separable"]
    assert report["twist_invertible"]
    assert report["rsz_dims"] == [1] * 11
    assert all(x == 1 for x in report["bar_dims"])
    assert report["nonvanishing_through"] == 10
    assert report["verdict"] == "counterexample confirmed"
    assert dt < 30.0
    print(
        "criterion  9 PASS: separable x separable with invertible twist has "
        f"HH nonzero through degree 10 by two routes, {dt:.1f}s < 30s"
    )


def test_criterion_10_vanishing_dichotomy():
    acyclic = [
        ("qtilde", standard_quiver("qtilde")),
        ("four_points", standard_quiver("four_points")),
        ("kronecker", standard_quiver("kronecker")),
        ("path3", Quiver(3, [(0, 1), (1, 2)])),
        ("one_arrow", Quiver(2, [(0, 1)])),
    ]
    for name, q in acyclic:
        assert not has_oriented_cycle(q)
        bound = longest_path_length(q)
        prof = hh_rsz(q, QQ, 8)
        assert all(x == 0 for x in prof.dims[bound + 1 :]), name

    roundtrip = hh_rsz(standard_quiver("roundtrip"), QQ, 12)
    assert roundtrip.dims == [1] * 13
    crown3 = hh_rsz(standard_quiver("crown", 3), QQ, 12)
    assert crown3.dims == [crown_formula(3, n) for n in range(13)]
    assert crown3.dims[12] == 1
    print(
        "criterion 10 PASS: acyclic profiles vanish above the longest path "
        "degree; 2-crown and 3-crown stay nonzero through degree 12"
    )
