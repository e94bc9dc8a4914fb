"""Class labels, explicit isomorphisms, and the orbit census."""

import random
from fractions import Fraction

import pytest

from twistlab.fields import GF, QQ
from twistlab.linalg import Matrix
from twistlab.algebra import (
    Algebra,
    CriterionInapplicable,
    center,
    change_of_basis,
    commutator_rows,
    integer_rank,
    is_commutative,
    is_separable,
    radical_power_dims,
    standard_algebra,
)
from twistlab.quivers import Quiver, truncated_path_algebra

from test_algebra import trace_of_left_mult
from test_linalg import (
    gauss_jordan_rref,
    identity_matrix,
    reference_apply,
    reference_echelon_basis,
    reference_kernel_basis,
    reference_product,
)
from twistlab.twisting import (
    TwistFamilyDescriptor,
    census_rows,
    family_member,
    twisted_product,
)
from twistlab.classify import (
    CHAR2_NOTE,
    CLASS_ORDER,
    ORBIT_TSV_HEADER,
    REFERENCE_FINGERPRINTS,
    Fingerprint,
    OrbitEntry,
    OrbitReport,
    classify_4dim,
    fingerprint,
    is_isomorphism,
    orbit_report,
    orbit_tsv,
    reference_isomorphism,
)


def parse_orbit_tsv(text: str) -> list:
    """Reference reader of ``orbit_tsv``: one OrbitEntry per row."""
    lines = [l for l in text.strip().split("\n") if l]
    if lines[0] != ORBIT_TSV_HEADER:
        raise ValueError("bad orbit header")
    entries = []
    for line in lines[1:]:
        fam, par, pv, qv, rv, sv, inv, label = line.split("\t")
        entries.append(OrbitEntry(fam, par, pv, qv, rv, sv, inv == "yes", label))
    return entries


def z2_pair(field):
    return (
        standard_algebra("group_algebra_z2", field),
        standard_algebra("group_algebra_z2", field),
    )


def line_product(field, alpha):
    a, b = z2_pair(field)
    d = TwistFamilyDescriptor("line_char_ne_2", alpha)
    return twisted_product(family_member(d, a, b))


def test_reference_fingerprints_from_model_algebras():
    assert fingerprint(standard_algebra("k_n", QQ, n=4)) == Fingerprint(
        4, True, 4, (), True
    )
    assert fingerprint(standard_algebra("matrix2", QQ)) == Fingerprint(
        4, False, 1, (), True
    )
    assert fingerprint(standard_algebra("truncated_roundtrip", QQ)) == Fingerprint(
        4, False, 1, (2, 0), False
    )
    assert fingerprint(standard_algebra("qtilde_path_algebra", QQ)) == Fingerprint(
        4, False, 2, (1, 0), False
    )


def test_reference_fingerprints_pairwise_distinct():
    fps = list(REFERENCE_FINGERPRINTS.values())
    assert len(set(fps)) == 4


def test_classify_model_algebras():
    assert classify_4dim(standard_algebra("k_n", QQ, n=4)) == "I"
    assert classify_4dim(standard_algebra("matrix2", QQ)) == "IIa"
    assert classify_4dim(standard_algebra("truncated_roundtrip", QQ)) == "IIb"
    assert classify_4dim(standard_algebra("qtilde_path_algebra", QQ)) == "III"
    with pytest.raises(ValueError):
        classify_4dim(standard_algebra("k_n", QQ, n=3))


def test_classify_flip_and_isolated_products():
    a, b = z2_pair(QQ)
    flip = twisted_product(family_member(TwistFamilyDescriptor("flip"), a, b))
    assert classify_4dim(flip) == "I"
    for fam in ("isolated_iii", "isolated_iv", "isolated_v", "isolated_vi"):
        t = family_member(TwistFamilyDescriptor(fam), a, b)
        assert classify_4dim(twisted_product(t)) == "III"


def test_classify_line_products_split_at_plus_minus_2():
    for alpha in (0, 1, 3, -1):
        assert classify_4dim(line_product(QQ, alpha)) == "IIa"
    for alpha in (2, -2):
        assert classify_4dim(line_product(QQ, alpha)) == "IIb"


def random_invertible(field, d, rng):
    if field.characteristic == 0:
        pool = list(range(-3, 4))
    else:
        pool = list(range(field.characteristic))
    while True:
        m = Matrix(field, d, d, [[rng.choice(pool) for _ in range(d)]
                                 for _ in range(d)])
        if m.rank() == d:
            return m


def fraction_gram(a) -> Matrix:
    """Reference: the trace form T(e_i, e_j) = trace(L_{e_i e_j}) on the
    algebra's own scalars."""
    f = a.field
    d = a.dim
    traces = [trace_of_left_mult(a, a.basis_element(m)) for m in range(d)]
    table = a.table
    rows = [[f.zero] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            acc = f.zero
            for m in range(d):
                c = table[i][j][m]
                if c and traces[m]:
                    acc = f.scalar(acc + c * traces[m])
            rows[i][j] = acc
    return Matrix(f, d, d, rows)


def fraction_span_product(a, basis1, basis2) -> list:
    """Reference: the echelon basis of all products x y by Gauss-Jordan."""
    return reference_echelon_basis(
        a.field, [a.multiply_coords(x, y) for x in basis1 for y in basis2])


def fraction_is_ideal(a, basis) -> bool:
    """Reference: basis and every e_i v and v e_i span no more than basis."""
    units = [a.basis_element(i) for i in range(a.dim)]
    prods = [a.multiply_coords(e, v) for v in basis for e in units]
    prods += [a.multiply_coords(v, e) for v in basis for e in units]
    return len(reference_echelon_basis(a.field, basis + prods)) == len(basis)


def is_nilpotent_subspace(a, basis) -> bool:
    """Reference: some power of the span of ``basis`` up to the
    (dim + 1)-th is zero."""
    power = basis
    for _ in range(a.dim + 1):
        if not power:
            return True
        power = fraction_span_product(a, power, basis)
    return False


def fraction_fingerprint(a) -> Fingerprint:
    """Reference: each invariant on its own, on the algebra's own scalars:
    the center's kernel, the trace-form radical with its ideal and
    nilpotency checks and its powers, and the trace form's rank."""
    gram = fraction_gram(a)
    radical = reference_kernel_basis(gram)
    if radical and not (
        fraction_is_ideal(a, radical) and is_nilpotent_subspace(a, radical)
    ):
        char = a.field.characteristic
        if char == 0 or char > a.dim:
            raise AssertionError("trace criterion inconsistency in its validity range")
        raise CriterionInapplicable(
            f"criterion-inapplicable: char {char} <= dim {a.dim} and the trace-form "
            "radical is not a nilpotent ideal"
        )
    dims = []
    power = radical
    while power:
        dims.append(len(power))
        power = fraction_span_product(a, power, radical)
    if radical:
        dims.append(0)
    return Fingerprint(
        a.dim,
        is_commutative(a),
        len(center(a)),
        tuple(dims),
        len(gauss_jordan_rref(gram)[1]) == a.dim,
    )


def fingerprint_outcome(fn, a):
    try:
        return fn(a)
    except CriterionInapplicable as exc:
        return str(exc)


def group_algebra_z3(field):
    # basis (1, g, g^2): the local algebra k[X]/(X - 1)^3 over GF(3)
    table = [[[int((i + j) % 3 == k) for k in range(3)] for j in range(3)]
             for i in range(3)]
    return Algebra(field, ["1", "g", "g2"], table, [1, 0, 0], check=True)


def test_fingerprint_matches_fraction_reference():
    rng = random.Random(71)
    refused = 0
    for field in (QQ, GF(7), GF(13), GF(2), GF(3)):
        algebras = [
            standard_algebra("group_algebra_z2", field),
            group_algebra_z3(field),
            standard_algebra("k_n", field, n=3),
            standard_algebra("matrix2", field),
            standard_algebra("truncated_roundtrip", field),
            standard_algebra("qtilde_path_algebra", field),
        ]
        for _ in range(3):
            arrows = [(rng.randrange(3), rng.randrange(3))
                      for _ in range(rng.randint(1, 5))]
            algebras.append(truncated_path_algebra(Quiver(3, arrows), field))
        if field.characteristic != 2:
            algebras += [line_product(field, alpha) for alpha in (2, -2, 3)]
            algebras += [
                twisted_product(family_member(TwistFamilyDescriptor(fam), *z2_pair(field)))
                for fam in ("flip", "isolated_iii", "isolated_iv", "isolated_v",
                            "isolated_vi")
            ]
        for alg in list(algebras):
            for _ in range(2):
                p = random_invertible(field, alg.dim, rng)
                if field.characteristic == 0:
                    p = Matrix(field, alg.dim, alg.dim, [
                        [Fraction(x, rng.randint(1, 3)) for x in row] for row in p.data
                    ])
                    if p.rank() < alg.dim:
                        continue
                algebras.append(change_of_basis(alg, p))
        for alg in algebras:
            want = fingerprint_outcome(fraction_fingerprint, alg)
            assert fingerprint_outcome(fingerprint, alg) == want, (field, alg)
            refused += isinstance(want, str)
    assert refused >= 6
    with pytest.raises(CriterionInapplicable):
        fingerprint(standard_algebra("group_algebra_z2", GF(2)))


def two_pass_fingerprint(a) -> Fingerprint:
    """Reference: the fingerprint with the trace form built twice, once
    for ``is_separable`` and again, on a non-separable algebra, for
    ``radical_power_dims``."""
    d = a.dim
    separable = is_separable(a)
    return Fingerprint(
        d,
        is_commutative(a),
        d - integer_rank(commutator_rows(a.int_table), a.field.characteristic),
        () if separable else tuple(radical_power_dims(a)),
        separable,
    )


def census_products(field):
    if field.characteristic == 0:
        products = [twisted_product(r["map"]) for r in census_rows(QQ) if r["map"]]
        return products + [line_product(field, alpha) for alpha in (2, -2, 3)]
    return [twisted_product(r["map"]) for r in census_rows(field)]


def test_fingerprint_matches_two_pass_reference():
    # 200 seeded base changes of the census products, 40 per field; over
    # GF(2) every one is refused, with the same message both ways
    rng = random.Random(12)
    outcomes = []
    for field in (QQ, GF(2), GF(3), GF(7), GF(13)):
        products = census_products(field)
        for k in range(40):
            alg = products[k % len(products)]
            p = random_invertible(field, alg.dim, rng)
            if field.characteristic == 0:
                p = Matrix(field, alg.dim, alg.dim, [
                    [Fraction(x, rng.randint(1, 3)) for x in row] for row in p.data])
            moved = change_of_basis(alg, p)
            want = fingerprint_outcome(two_pass_fingerprint, moved)
            assert fingerprint_outcome(fingerprint, moved) == want, (field, k)
            outcomes.append(want)
    refusals = [o for o in outcomes if isinstance(o, str)]
    assert refusals and all(o.startswith("criterion-inapplicable") for o in refusals)
    assert {o.separable for o in outcomes if not isinstance(o, str)} == {True, False}


def test_fingerprint_invariant_under_basis_change():
    rng = random.Random(20240814)
    samples = [
        standard_algebra("matrix2", QQ),
        standard_algebra("truncated_roundtrip", QQ),
        standard_algebra("qtilde_path_algebra", QQ),
        line_product(GF(5), 2),
    ]
    for alg in samples:
        fp = fingerprint(alg)
        for _ in range(20):
            p = random_invertible(alg.field, alg.dim, rng)
            assert fingerprint(change_of_basis(alg, p)) == fp


def test_aq_to_matrix_passes_off_the_bad_points():
    for q in (0, 1, 3):
        m, src, tgt = reference_isomorphism("aq_to_matrix", QQ, q=q)
        assert is_isomorphism(m, src, tgt)
    m, src, tgt = reference_isomorphism("aq_to_matrix", GF(7), q=3)
    assert is_isomorphism(m, src, tgt)


def test_aq_to_matrix_rejected_at_plus_minus_2():
    for q in (2, -2):
        with pytest.raises(ValueError):
            reference_isomorphism("aq_to_matrix", QQ, q=q)
    # the same displayed assignment, built by hand, is not bijective
    f = QQ
    for q in (2, -2):
        qh, xh, yh = Fraction(q, 2), Fraction(2 - q, 2), Fraction(2 + q, 2)
        cols = [
            [1, 0, 0, 1],
            [1, 0, 0, -1],
            [qh, xh, yh, -qh],
            [qh, xh, -yh, qh],
        ]
        m = Matrix(f, 4, 4, list(zip(*cols)))
        assert m.rank() < 4
        assert not is_isomorphism(
            m, standard_algebra("a_q", f, q=q), standard_algebra("matrix2", f)
        )


def test_a_minus2_to_a2_and_r_fixtures():
    m, src, tgt = reference_isomorphism("a_minus2_to_a2", QQ)
    assert is_isomorphism(m, src, tgt)
    m2, src2, tgt2 = reference_isomorphism("r_to_a_minus2", QQ)
    assert is_isomorphism(m2, src2, tgt2)
    m3, src3, tgt3 = reference_isomorphism("r_to_a_minus2", GF(5))
    assert is_isomorphism(m3, src3, tgt3)


def test_fixture_composition_r_to_a2():
    phi, r_alg, aminus2 = reference_isomorphism("r_to_a_minus2", QQ)
    f_map, src, a2 = reference_isomorphism("a_minus2_to_a2", QQ)
    composed = Matrix.from_rows(QQ, reference_product(QQ, f_map.data, phi.data))
    assert is_isomorphism(composed, r_alg, a2)


def test_is_isomorphism_guards_and_negatives():
    k4 = standard_algebra("k_n", QQ, n=4)
    ident = identity_matrix(QQ, 4)
    assert is_isomorphism(ident, k4, k4)
    m2 = standard_algebra("matrix2", QQ)
    assert not is_isomorphism(ident, k4, m2)
    with pytest.raises(ValueError):
        is_isomorphism(identity_matrix(QQ, 3), k4, k4)
    with pytest.raises(ValueError):
        is_isomorphism(identity_matrix(GF(3), 4), k4, k4)
    # columns sum to the all-ones unit, so only multiplicativity can fail
    shear = Matrix.from_rows(QQ, [
        [QQ.one, QQ.zero, QQ.zero, QQ.zero],
        [QQ.zero, QQ.one, QQ.scalar(-1), QQ.one],
        [QQ.zero, QQ.zero, QQ.one, QQ.zero],
        [QQ.zero, QQ.zero, QQ.zero, QQ.one],
    ])
    assert reference_apply(QQ, shear.data, k4.unit) == k4.unit
    assert not is_isomorphism(shear, k4, k4)


def test_orbit_report_f3():
    rep = orbit_report(GF(3))
    assert rep.class_counts == {"I": 1, "IIa": 1, "IIb": 2, "III": 4}
    assert len(rep.entries) == 8
    assert rep.note is None
    line_pars = sorted(e.parameter for e in rep.entries if e.label == "IIb")
    assert line_pars == ["1", "2"]


def test_orbit_report_f5():
    rep = orbit_report(GF(5))
    assert rep.class_counts == {"I": 1, "IIa": 3, "IIb": 2, "III": 4}
    assert len(rep.entries) == 10
    iib = sorted(e.parameter for e in rep.entries if e.label == "IIb")
    assert iib == ["2", "3"]


def test_orbit_report_f7():
    rep = orbit_report(GF(7))
    assert rep.class_counts == {"I": 1, "IIa": 5, "IIb": 2, "III": 4}
    assert sum(rep.class_counts.values()) == 12


def test_orbit_report_never_unknown_on_odd_census():
    for p in (3, 5, 7):
        rep = orbit_report(GF(p))
        assert "unknown" not in rep.class_counts


def test_orbit_report_char2_unknown_with_note():
    rep = orbit_report(GF(2))
    assert rep.class_counts == {"unknown": 3}
    assert rep.note == CHAR2_NOTE
    assert {e.family for e in rep.entries} == {"char2_line_i", "char2_line_ii"}


def test_orbit_report_char0_descriptors():
    rep = orbit_report(QQ)
    assert rep.class_counts == {"I": 1, "IIa": 1, "IIb": 2, "III": 4}
    assert len(rep.entries) == 8
    by_label = {}
    for e in rep.entries:
        by_label.setdefault(e.label, []).append(e)
    assert by_label["I"][0].family == "flip"
    assert by_label["IIa"][0].parameter == "alpha^2 != 4"
    assert sorted(e.parameter for e in by_label["IIb"]) == ["-2", "2"]
    assert all(e.family.startswith("isolated_") for e in by_label["III"])


def reference_char0_report() -> OrbitReport:
    """The orbit report over Q as its own hand-written table: the second
    path ``orbit_report`` had before it served every field."""
    f = QQ
    z2a = standard_algebra("group_algebra_z2", f)
    z2b = standard_algebra("group_algebra_z2", f)

    def product_of(family, parameter=None):
        d = TwistFamilyDescriptor(family, parameter)
        return twisted_product(family_member(d, z2a, z2b))

    def s(x):
        return f.scalar_to_str(f.scalar(x))

    entries = [
        OrbitEntry("flip", "-", s(0), s(0), s(0), s(1), True,
                   classify_4dim(product_of("flip"))),
    ]
    generic = {classify_4dim(product_of("line_char_ne_2", alpha))
               for alpha in (0, 1, 3, -1, 5)}
    assert len(generic) == 1
    entries.append(OrbitEntry("line_char_ne_2", "alpha^2 != 4", "alpha",
                              s(0), s(0), s(-1), True, generic.pop()))
    for alpha in (2, -2):
        entries.append(OrbitEntry(
            "line_char_ne_2", s(alpha), s(alpha), s(0), s(0), s(-1), True,
            classify_4dim(product_of("line_char_ne_2", alpha))))
    for fam in ("isolated_iii", "isolated_iv", "isolated_v", "isolated_vi"):
        t = family_member(TwistFamilyDescriptor(fam), z2a, z2b)
        pv, qv, rv, sv = (t.matrix.data[r][3] for r in range(4))
        entries.append(OrbitEntry(
            fam, "-", f.scalar_to_str(pv), f.scalar_to_str(qv),
            f.scalar_to_str(rv), f.scalar_to_str(sv), False,
            classify_4dim(twisted_product(t))))
    counts = {}
    for e in entries:
        counts[e.label] = counts.get(e.label, 0) + 1
    return OrbitReport(f.name, 0, entries,
                       {k: counts[k] for k in CLASS_ORDER if k in counts})


def test_orbit_report_over_q_matches_reference():
    rep = orbit_report(QQ)
    want = reference_char0_report()
    assert rep.entries == want.entries
    assert rep.to_doc() == want.to_doc()


def test_orbit_report_rejects_large_prime():
    # p = 13 is the largest field covered
    rep = orbit_report(GF(13))
    assert len(rep.entries) == 13 + 5
    assert rep.class_counts == {"I": 1, "IIa": 11, "IIb": 2, "III": 4}
    with pytest.raises(ValueError):
        orbit_report(GF(17))


def test_orbit_tsv_roundtrip_and_stability():
    rep = orbit_report(GF(3))
    text = orbit_tsv(rep)
    assert text == orbit_tsv(orbit_report(GF(3)))
    assert parse_orbit_tsv(text) == rep.entries
    first = text.strip().split("\n")[1].split("\t")
    assert first == ["flip", "-", "0", "0", "0", "1", "yes", "I"]
    with pytest.raises(ValueError):
        parse_orbit_tsv("bad\n")


def test_report_doc_shape():
    doc = orbit_report(GF(3)).to_doc()
    assert doc["field"] == "F3"
    assert doc["characteristic"] == 3
    assert doc["class_counts"] == {"I": 1, "IIa": 1, "IIb": 2, "III": 4}
    assert len(doc["entries"]) == 8
    assert "note" not in doc
    assert "note" in orbit_report(GF(2)).to_doc()
