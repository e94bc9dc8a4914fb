"""Cohomology dims: three routes, closed forms, and the nonvanishing run."""

import random
from fractions import Fraction

import pytest

from twistlab.fields import GF, QQ
from twistlab import hochschild, quivers, twisting
from twistlab.algebra import (
    Element,
    change_of_basis,
    jacobson_radical,
    scale_to_integers,
    standard_algebra,
)
from twistlab.quivers import (
    Quiver,
    is_crown,
    longest_path_length,
    path_algebra_acyclic,
    standard_quiver,
    truncated_path_algebra,
)
from twistlab.hochschild import (
    CROWN_READING,
    HH_ERRATA,
    HHProfile,
    READING_NOTES,
    bar_budget,
    bar_coboundary_columns,
    complex_dims,
    crown_formula,
    hh_bar,
    hh_e_complex,
    hh_rsz,
    rsz_layer,
    rsz_pairs,
    thm_formula,
    verify_counterexample,
)
from twistlab.linalg import Matrix, echelon_basis, sparse_compose_zero, sparse_rank
from twistlab.twisting import (
    TwistFamilyDescriptor,
    family_member,
    twisted_product,
)

TWO_LOOPS = Quiver(1, [(0, 0), (0, 0)])
L3 = Quiver(3, [(0, 1), (1, 2)])
ONE_ARROW = Quiver(2, [(0, 1)])


def test_rsz_roundtrip_all_ones():
    prof = hh_rsz(standard_quiver("roundtrip"), QQ, 10)
    assert prof.dims == [1] * 11
    assert prof.method == "rsz-complex"
    assert hh_rsz(standard_quiver("roundtrip"), GF(5), 6).dims == [1] * 7


def test_rsz_qtilde():
    assert hh_rsz(standard_quiver("qtilde"), QQ, 5).dims == [2, 0, 0, 0, 0, 0]


def test_rsz_four_points():
    assert hh_rsz(standard_quiver("four_points"), QQ, 3).dims == [4, 0, 0, 0]


def test_rsz_loop_char0_and_char2():
    assert hh_rsz(standard_quiver("loop"), QQ, 6).dims == [2, 1, 1, 1, 1, 1, 1]
    assert hh_rsz(standard_quiver("loop"), GF(2), 4).dims == [2, 2, 2, 2, 2]


def test_rsz_kronecker():
    assert hh_rsz(standard_quiver("kronecker"), QQ, 4).dims == [1, 3, 0, 0, 0]


def test_rsz_crown3():
    assert hh_rsz(standard_quiver("crown(3)"), QQ, 9).dims == [
        1, 1, 0, 0, 0, 0, 1, 1, 0, 0,
    ]


def test_rsz_two_loops():
    assert hh_rsz(TWO_LOOPS, QQ, 4).dims == [3, 4, 6, 12, 24]


def test_rsz_degree_bound():
    assert hh_rsz(standard_quiver("loop"), QQ, 32).dims == [2] + [1] * 32
    with pytest.raises(ValueError):
        hh_rsz(standard_quiver("loop"), QQ, 33)
    assert hh_rsz(standard_quiver("four_points"), QQ, 0).dims == [4]


def test_rsz_layer_shapes_and_square_zero():
    q = standard_quiver("roundtrip")
    pairs = rsz_pairs(q, 6)
    layers = [rsz_layer(q, pairs, n, 0) for n in range(6)]
    for n, layer in enumerate(layers):
        expect_p0 = 2 if n % 2 == 0 else 0
        expect_p1 = 0 if n % 2 == 0 else 2
        assert len(layer.basis_p0) == expect_p0
        assert len(layer.basis_p1) == expect_p1
        assert len(layer.columns) == expect_p0 + expect_p1
        assert not any(layer.columns[expect_p0:])
    for n in range(4):
        a = layers[n].columns
        b = layers[n + 1].columns
        assert sparse_compose_zero(b, a)


def _tuple_index(t: tuple, k: int, d: int) -> int:
    idx = 0
    for x in t:
        idx = idx * d + x
    return idx * d + k


def full_bar_columns(a, n: int) -> list:
    """Reference: columns of the degree-n coboundary on the full bar complex
    Hom(A^(x)n, A), with the algebra's own scalars, one dict per basis map."""
    d = a.dim
    c = a.table
    cols = []
    for tk in range(d ** n * d):
        t_flat, k = divmod(tk, d)
        t = []
        for _ in range(n):
            t_flat, r = divmod(t_flat, d)
            t.append(r)
        t = tuple(reversed(t))
        col = {}

        def put(row, val):
            if not val:
                return
            acc = col.get(row, 0) + val
            if acc:
                col[row] = acc
            else:
                col.pop(row, None)

        for i0 in range(d):
            base = (i0,) + t
            for m in range(d):
                put(_tuple_index(base, m, d), c[i0][k][m])
        for l in range(1, n + 1):
            sgn = -1 if l % 2 else 1
            head, mid, tail = t[: l - 1], t[l - 1], t[l:]
            for x in range(d):
                for y in range(d):
                    v = c[x][y][mid]
                    if v:
                        put(_tuple_index(head + (x, y) + tail, k, d), sgn * v)
        sgn = -1 if (n + 1) % 2 else 1
        for j in range(d):
            base = t + (j,)
            for m in range(d):
                put(_tuple_index(base, m, d), sgn * c[k][j][m])
        cols.append(col)
    return cols


def integer_columns(cols: list, p: int) -> list:
    """The columns of one map scaled by one common scale; a scale per
    column would keep the rank but break the d^2 = 0 check."""
    ints, _ = scale_to_integers([list(col.values()) for col in cols], p)
    return [dict(zip(col, vals)) for col, vals in zip(cols, ints)]


def full_bar_dims(a, N: int) -> list:
    p = a.field.characteristic
    deltas = [integer_columns(full_bar_columns(a, n), p) for n in range(N + 1)]
    return complex_dims(deltas, p)


def z2_product(field, family, parameter=None):
    z2 = standard_algebra("group_algebra_z2", field)
    desc = TwistFamilyDescriptor(family, parameter)
    return twisted_product(family_member(desc, z2, z2))


def test_normalized_bar_matches_full_bar_complex():
    # several of these have a unit that is not a basis vector (k_n, matrix2,
    # truncated path algebras), so the complement of k*1 is not trivial;
    # the reversed basis puts the unit last, with a zero first coordinate
    rng = random.Random(41)
    for field in (QQ, GF(7)):
        reverse = Matrix(
            field, 4, 4, [[int(i + j == 3) for j in range(4)] for i in range(4)]
        )
        algebras = [
            change_of_basis(z2_product(field, "isolated_iii"), reverse),
            z2_product(field, "flip"),
            z2_product(field, "line_char_ne_2", 3),
            z2_product(field, "line_char_ne_2", -2),
            z2_product(field, "isolated_iii"),
            standard_algebra("k_n", field, n=1),
            standard_algebra("k_n", field, n=4),
            standard_algebra("matrix2", field),
            standard_algebra("a_q", field, q=2),
            standard_algebra("a_q", field, q=3),
        ]
        for _ in range(4):
            vertices = rng.randint(1, 2)
            arrows = [
                (rng.randrange(vertices), rng.randrange(vertices))
                for _ in range(rng.randint(1, 3 - vertices // 2))
            ]
            algebras.append(truncated_path_algebra(Quiver(vertices, arrows), field))
        for alg in algebras:
            assert hh_bar(alg, 3).dims == full_bar_dims(alg, 3), (field.name, alg)


def test_normalized_bar_invariant_under_rational_basis_change():
    # Fraction structure constants and a unit off every basis vector
    rng = random.Random(5)
    alg = z2_product(QQ, "line_char_ne_2", 3)
    while True:
        p = Matrix(QQ, 4, 4, [
            [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(4)]
            for _ in range(4)
        ])
        if p.inverse() is not None:
            break
    moved = change_of_basis(alg, p)
    assert all(x for x in moved.unit)
    assert any(v.denominator > 1 for plane in moved.table for row in plane for v in row)
    assert hh_bar(moved, 3).dims == hh_bar(alg, 3).dims == [1, 0, 0, 0]


def fraction_bar_tables(a) -> tuple:
    """Reference: the complement of k*1 and the tables c and c-bar, c-bar
    formed with the algebra's own scalars, then both scaled to integers
    by one common scale."""
    f = a.field
    d = a.dim
    u = a.unit
    j = next(i for i, x in enumerate(u) if x)
    comp = [i for i in range(d) if i != j]
    c = a.table
    cbar = [
        [
            [f.sub(c[x][y][m], f.mul(c[x][y][j], f.mul(u[m], f.inv(u[j])))) for m in range(d)]
            for y in range(d)
        ]
        for x in range(d)
    ]
    (c, cbar), _ = scale_to_integers([c, cbar], f.characteristic)
    return comp, c, cbar


def test_bar_tables_match_fraction_reference(monkeypatch):
    # the integer tables times u_j against c-bar formed in the field: the
    # same columns where the table is integral with unit e_0, the same HH
    # dims on a reversed basis (unit last) and on a transport whose unit
    # is off every basis vector (u_j != 1, Fraction constants over Q)
    rng = random.Random(89)
    families = (("flip", None), ("line_char_ne_2", 2), ("line_char_ne_2", 3),
                ("isolated_iii", None), ("isolated_vi", None))
    for field in (QQ, GF(7), GF(13)):
        reverse = Matrix(
            field, 4, 4, [[int(i + j == 3) for j in range(4)] for i in range(4)]
        )
        for family, parameter in families:
            prod = z2_product(field, family, parameter)
            moved = change_of_basis(prod, random_invertible(rng, field, 4))
            while not all(moved.unit):
                moved = change_of_basis(prod, random_invertible(rng, field, 4))
            cases = [prod, change_of_basis(prod, reverse), moved]
            cols = [bar_coboundary_columns(prod, n) for n in range(4)]
            dims = [hh_bar(case, 2).dims for case in cases]
            with monkeypatch.context() as m:
                m.setattr("twistlab.hochschild._bar_tables", fraction_bar_tables)
                assert [bar_coboundary_columns(prod, n) for n in range(4)] == cols
                assert [hh_bar(case, 2).dims for case in cases] == dims, (
                    field.name, family, parameter)


def test_bar_matrix2_and_k4():
    assert hh_bar(standard_algebra("matrix2", QQ), 3).dims == [1, 0, 0, 0]
    assert hh_bar(standard_algebra("k_n", QQ, n=4), 3).dims == [4, 0, 0, 0]


def test_bar_truncated_roundtrip_to_degree_4():
    alg = standard_algebra("truncated_roundtrip", QQ)
    assert hh_bar(alg, 4).dims == [1, 1, 1, 1, 1]


def test_bar_qtilde_reference_presentation():
    alg = standard_algebra("qtilde_path_algebra", QQ)
    assert hh_bar(alg, 3).dims == [2, 0, 0, 0]


def test_bar_a_q_presentations():
    assert hh_bar(standard_algebra("a_q", QQ, q=0), 3).dims == [1, 0, 0, 0]
    assert hh_bar(standard_algebra("a_q", QQ, q=1), 3).dims == [1, 0, 0, 0]
    assert hh_bar(standard_algebra("a_q", QQ, q=2), 3).dims == [1, 1, 1, 1]


def test_bar_budget_guard(monkeypatch):
    # the budget caps d (d-1)^(N+1): under the char-0 default of 4096,
    # dim 4 reaches N = 5 (2916) but not N = 6 (8748)
    alg = standard_algebra("k_n", QQ, n=4)
    assert hh_bar(alg, 5).dims == [4, 0, 0, 0, 0, 0]
    with pytest.raises(ValueError):
        hh_bar(alg, 6)
    monkeypatch.setenv("TWISTLAB_BUDGET", "100")
    hh_bar(alg, 1)
    with pytest.raises(ValueError):
        hh_bar(alg, 2)
    monkeypatch.setenv("TWISTLAB_BUDGET", "300")
    assert hh_bar(alg, 2).dims == [4, 0, 0]


def test_bar_budget_edge_and_malformed_budget(monkeypatch):
    # dim 4 at degree 2 builds 4 * 3^3 = 108 rows in its top coboundary
    alg = standard_algebra("k_n", QQ, n=4)
    monkeypatch.setenv("TWISTLAB_BUDGET", "108")
    assert hh_bar(alg, 2).dims == [4, 0, 0]
    monkeypatch.setenv("TWISTLAB_BUDGET", "107")
    with pytest.raises(ValueError, match="budget"):
        hh_bar(alg, 2)
    for bad in ("abc", "0", "-5"):
        monkeypatch.setenv("TWISTLAB_BUDGET", bad)
        with pytest.raises(ValueError, match="TWISTLAB_BUDGET"):
            bar_budget(QQ)
        with pytest.raises(ValueError, match="TWISTLAB_BUDGET"):
            hh_bar(alg, 1)


def test_e_complex_truncated_roundtrip():
    alg = standard_algebra("truncated_roundtrip", QQ)
    idems = [alg.basis_element(0), alg.basis_element(1)]
    assert hh_e_complex(alg, idems, 6).dims == [1] * 7
    alg3 = standard_algebra("truncated_roundtrip", GF(3))
    idems3 = [alg3.basis_element(0), alg3.basis_element(1)]
    assert hh_e_complex(alg3, idems3, 4).dims == [1] * 5


def test_e_complex_qtilde():
    alg = standard_algebra("qtilde_path_algebra", QQ)
    idems = [alg.basis_element(i) for i in range(3)]
    assert hh_e_complex(alg, idems, 3).dims == [2, 0, 0, 0]


def test_e_complex_k4_collapses():
    alg = standard_algebra("k_n", QQ, n=4)
    idems = [alg.basis_element(i) for i in range(4)]
    assert hh_e_complex(alg, idems, 2).dims == [4, 0, 0]


def random_invertible(rng, field, d):
    while True:
        if field.characteristic:
            entries = [[rng.randrange(field.characteristic) for _ in range(d)]
                       for _ in range(d)]
        else:
            entries = [[Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
                        for _ in range(d)] for _ in range(d)]
        p = Matrix(field, d, d, entries)
        if p.inverse() is not None:
            return p


def test_e_complex_on_transported_truncated_path_algebras():
    # a random base change gives Fraction structure constants over Q, and
    # the vertex idempotents P^-1 e_v are no longer basis vectors; a scale
    # per coboundary column keeps ranks but breaks d^2 = 0 on such tables
    rng = random.Random(83)
    rational = 0
    for trial in range(30):
        field = (QQ, GF(11), GF(13))[trial % 3]
        vertices = rng.randint(1, 3)
        arrows = [
            (rng.randrange(vertices), rng.randrange(vertices))
            for _ in range(rng.randint(1, vertices + 1))
        ]
        q = Quiver(vertices, arrows)
        alg = truncated_path_algebra(q, field)
        p = random_invertible(rng, field, alg.dim)
        moved = change_of_basis(alg, p)
        if field == QQ:
            rational += any(v.denominator > 1
                            for plane in moved.table for row in plane for v in row)
        pinv = p.inverse()
        idems = [pinv.apply(alg.basis_element(v).coords) for v in range(vertices)]
        rng.shuffle(idems)
        rsz = hh_rsz(q, field, 5).dims
        assert hh_e_complex(moved, idems, 5).dims == rsz, (field.name, arrows)
        assert hh_bar(moved, 2).dims == rsz[:3], (field.name, arrows)
    assert rational >= 5


def test_e_complex_alpha_2_product_with_non_basis_idempotents():
    # e = (-1/2, -1, 1/2, 1) and 1 - e split the alpha = 2 product, J^2 = 0
    for field in (QQ, GF(5)):
        prod = z2_product(field, "line_char_ne_2", 2)
        e = prod.element([Fraction(-1, 2), -1, Fraction(1, 2), 1])
        assert e * e == e
        assert hh_e_complex(prod, [e, prod.unit_element() - e], 8).dims == [1] * 9


def test_e_complex_rejects_negative_degree():
    alg = standard_algebra("truncated_roundtrip", QQ)
    idems = [alg.basis_element(0), alg.basis_element(1)]
    assert hh_e_complex(alg, idems, 0).dims == [1]
    with pytest.raises(ValueError, match="N must be >= 0"):
        hh_e_complex(alg, idems, -1)


def test_e_complex_hypothesis_errors():
    alg = standard_algebra("truncated_roundtrip", QQ)
    e, f = alg.basis_element(0), alg.basis_element(1)
    with pytest.raises(ValueError):
        hh_e_complex(alg, [e.algebra.unit_element(), e], 2)
    with pytest.raises(ValueError):
        hh_e_complex(alg, [e], 2)
    x = alg.basis_element(2)
    with pytest.raises(ValueError):
        hh_e_complex(alg, [e, f, x], 2)
    cubic = path_algebra_acyclic(L3, QQ)
    idems = [cubic.basis_element(i) for i in range(3)]
    with pytest.raises(ValueError):
        hh_e_complex(cubic, idems, 2)


def test_e_complex_degree_bound():
    alg = truncated_path_algebra(standard_quiver("loop"), QQ)
    idems = [alg.basis_element(0)]
    assert hh_e_complex(alg, idems, 32).dims == [2] + [1] * 32
    with pytest.raises(ValueError, match="N must be between 0 and 32"):
        hh_e_complex(alg, idems, 33)


def test_e_complex_path_layer_bound(monkeypatch):
    # two loops double each layer: degree N reads the 2^(N+1) paths of
    # length N+1, so a bound of 2^6 admits N = 5 and refuses N = 6
    monkeypatch.setattr(quivers, "PATH_LAYER_BOUND", 1 << 6)
    alg = truncated_path_algebra(TWO_LOOPS, QQ)
    idems = [alg.basis_element(0)]
    assert hh_e_complex(alg, idems, 5).dims == hh_rsz(TWO_LOOPS, QQ, 5).dims
    with pytest.raises(ValueError, match="128 paths of length 7 exceed the "
                                         "64-path layer bound"):
        hh_e_complex(alg, idems, 6)


def reference_hh_e_complex(a, idempotents, N, basis=None):
    """hh_e_complex as written before its split was certified by one
    isomorphism: hand-written hypothesis checks, the algebra moved into
    its Peirce basis by change_of_basis, and its own chain loop. A list
    given as ``basis`` receives the basis of degrees 0..N+1, each element
    (chain, m): Peirce indices of radical vectors, and a Peirce index."""
    if N < 0:
        raise ValueError("N must be >= 0")
    f = a.field
    p = f.characteristic
    d = a.dim
    eps = [e.coords if isinstance(e, Element) else list(e) for e in idempotents]
    ne = len(eps)
    zero = [f.zero] * d
    for i, e in enumerate(eps):
        if a.multiply_coords(e, e) != e:
            raise ValueError(f"idempotent {i} is not idempotent")
        for j in range(i + 1, ne):
            if (
                a.multiply_coords(e, eps[j]) != zero
                or a.multiply_coords(eps[j], e) != zero
            ):
                raise ValueError(f"idempotents {i}, {j} are not orthogonal")
    total = [f.zero] * d
    for e in eps:
        total = [f.add(x, y) for x, y in zip(total, e)]
    if total != a.unit:
        raise ValueError("idempotents do not sum to the unit")
    if len(echelon_basis(f, eps)) != ne:
        raise ValueError("idempotents are linearly dependent")
    jbas = jacobson_radical(a)
    if ne + len(jbas) != d:
        raise ValueError("span of idempotents plus radical is not everything")
    if len(echelon_basis(f, eps + jbas)) != d:
        raise ValueError("idempotent span meets the radical")
    for u in jbas:
        for v in jbas:
            if a.multiply_coords(u, v) != zero:
                raise ValueError("radical square is nonzero")

    peirce = list(eps)
    blocks = [(u, u) for u in range(ne)]
    for u in range(ne):
        for v in range(ne):
            part = echelon_basis(f, [
                a.multiply_coords(eps[u], a.multiply_coords(w, eps[v]))
                for w in jbas
            ])
            peirce.extend(part)
            blocks.extend([(u, v)] * len(part))
    if len(peirce) != d:
        raise ValueError("radical does not split along the idempotent blocks")
    moved = change_of_basis(a, Matrix(f, d, d, [list(r) for r in zip(*peirce)]))
    c = moved.int_table

    rad = range(ne, d)
    in_block = {}
    for m, uv in enumerate(blocks):
        in_block.setdefault(uv, []).append(m)
    chains = [()]
    bases = [[((), m) for m, (u, v) in enumerate(blocks) if u == v]]
    for _ in range(N + 1):
        chains = [ch + (k,) for ch in chains for k in rad
                  if not ch or blocks[k][0] == blocks[ch[-1]][1]]
        bases.append([(ch, m) for ch in chains
                      for m in in_block.get((blocks[ch[0]][0], blocks[ch[-1]][1]), ())])
    left = [[(k, r, x) for k in rad for r, x in enumerate(c[k][m]) if x]
            for m in range(d)]
    right = [[(k, r, x) for k in rad for r, x in enumerate(c[m][k]) if x]
             for m in range(d)]

    def delta(n):
        sign = 1 if n % 2 else -1
        rows = {key: i for i, key in enumerate(bases[n + 1])}
        cols = []
        for ch, m in bases[n]:
            col = {}
            try:
                for k, r, x in left[m]:
                    i = rows[(k,) + ch, r]
                    col[i] = col.get(i, 0) + x
                for k, r, x in right[m]:
                    i = rows[ch + (k,), r]
                    col[i] = col.get(i, 0) + sign * x
            except KeyError:
                raise AssertionError("image escapes its block") from None
            cols.append(hochschild._reduced(col, p))
        return cols

    if basis is not None:
        basis.extend(bases)
    dims = hochschild.complex_dims([delta(n) for n in range(N + 1)], p)
    return HHProfile(dims, "e-complex", f"e-complex:dim{d}")


def e_complex_differential_inputs(rng):
    """(algebra, idempotents) pairs: 60 random truncated path algebras over
    Q, GF(7), GF(11) and GF(13), every other one moved to a random basis
    with its vertex idempotents shuffled; the alpha = 2 product split by
    e = (-1/2, -1, 1/2, 1) over Q and GF(5); and bad idempotent lists on
    the truncated roundtrip over Q, GF(3) and GF(5) and on the path
    algebra of L3, where J^2 != 0."""
    for trial in range(60):
        field = (QQ, GF(7), GF(11), GF(13))[trial % 4]
        vertices = rng.randint(1, 3)
        arrows = [(rng.randrange(vertices), rng.randrange(vertices))
                  for _ in range(rng.randint(1, vertices + 1))]
        alg = truncated_path_algebra(Quiver(vertices, arrows), field)
        idems = [alg.basis_element(v).coords for v in range(vertices)]
        if trial % 2:
            p = random_invertible(rng, field, alg.dim)
            alg = change_of_basis(alg, p)
            pinv = p.inverse()
            idems = [pinv.apply(e) for e in idems]
            rng.shuffle(idems)
        yield alg, idems
    for field in (QQ, GF(5)):
        prod = z2_product(field, "line_char_ne_2", 2)
        e = prod.element([Fraction(-1, 2), -1, Fraction(1, 2), 1])
        yield prod, [e, prod.unit_element() - e]
    for field in (QQ, GF(3), GF(5)):
        alg = standard_algebra("truncated_roundtrip", field)
        e, f, x = (alg.basis_element(i) for i in range(3))
        one = alg.unit_element()
        for idems in ([], [e], [one], [one, e], [e, e], [e, f, f],
                      [e, f, x], [e + x, f]):
            yield alg, idems
    cubic = path_algebra_acyclic(L3, QQ)
    yield cubic, [cubic.basis_element(i) for i in range(3)]


def test_e_complex_matches_reference(monkeypatch):
    # the same dims, or the same exception type, and a refused split names
    # its hypotheses; each answer's columns are the reference's, times
    # (-1)^(n+1), once its basis (chain, m) is relabelled as rsz_layer's
    # pair (path, vertex m) for m < ne and (path, arrow m - ne) otherwise
    seen, pairs = [], []

    def spy(deltas, p, stats=None):
        seen.append(deltas)
        return complex_dims(deltas, p, stats)

    def spy_pairs(q, top):
        pairs.append(rsz_pairs(q, top))
        return pairs[-1]

    def outcome(route, alg, idems, **kw):
        seen.clear()
        try:
            dims = route(alg, idems, 4, **kw).dims
        except Exception as exc:
            return type(exc), str(exc)
        return dims, seen[0]

    monkeypatch.setattr(hochschild, "complex_dims", spy)
    monkeypatch.setattr(hochschild, "rsz_pairs", spy_pairs)
    answered = refused = 0
    for alg, idems in e_complex_differential_inputs(random.Random(61)):
        pairs.clear()
        got = outcome(hh_e_complex, alg, idems)
        ref_basis = []
        want = outcome(reference_hh_e_complex, alg, idems, basis=ref_basis)
        if not isinstance(want[0], list):
            refused += want[0] is ValueError
            assert got[0] is want[0], (alg, idems, got, want)
            if got[0] is ValueError:
                assert "complete orthogonal idempotents" in got[1], got
            continue
        answered += 1
        assert got[0] == want[0], (alg, idems)
        [(p0, p1)] = pairs
        ne, p = len(idems), alg.field.characteristic
        # the route's position of each reference label (path, m)
        where = [{**{(x, v): i for i, (x, v) in enumerate(p0[n])},
                  **{(x, ne + a): len(p0[n]) + i for i, (x, a) in enumerate(p1[n])}}
                 for n in range(len(ref_basis))]
        place = [[where[n][tuple(k - ne for k in ch), m] for ch, m in keys]
                 for n, keys in enumerate(ref_basis)]
        for n, (cols, ref_cols) in enumerate(zip(got[1], want[1])):
            assert sorted(place[n]) == list(range(len(cols))), (alg, n)
            sign = (-1) ** (n + 1)
            for j, ref_col in zip(place[n], ref_cols):
                moved = {place[n + 1][r]: sign * x for r, x in ref_col.items()}
                assert cols[j] == hochschild._reduced(moved, p), (alg, idems, n)
    assert (answered, refused) == (62, 25)


def corpus():
    quivers = [
        standard_quiver("roundtrip"),
        standard_quiver("qtilde"),
        standard_quiver("four_points"),
        standard_quiver("loop"),
        standard_quiver("kronecker"),
        standard_quiver("crown(3)"),
        TWO_LOOPS,
    ]
    return quivers


def test_three_methods_agree_on_corpus():
    for q in corpus():
        rsz = hh_rsz(q, QQ, 4).dims
        alg = truncated_path_algebra(q, QQ)
        idems = [alg.basis_element(v) for v in range(q.vertex_count)]
        assert hh_e_complex(alg, idems, 4).dims == rsz
        n_bar = 4
        while alg.dim ** (n_bar + 2) > 4096:
            n_bar -= 1
        assert hh_bar(alg, n_bar).dims == rsz[: n_bar + 1]


def test_methods_agree_over_f5():
    for name in ("roundtrip", "qtilde", "loop"):
        q = standard_quiver(name)
        f = GF(5)
        rsz = hh_rsz(q, f, 3).dims
        alg = truncated_path_algebra(q, f)
        idems = [alg.basis_element(v) for v in range(q.vertex_count)]
        assert hh_e_complex(alg, idems, 3).dims == rsz
        assert hh_bar(alg, 3).dims == rsz


def test_routes_agree_on_random_quivers():
    # GF(11): the trace-form radical needs char > dim, and dim <= 7 here
    # the last four draws are oriented cycles, for the crown formula
    rng = random.Random(29)
    formulas = [0, 0]
    for trial in range(16):
        field = (QQ, GF(11))[trial % 2]
        if trial < 12:
            vertices = rng.randint(1, 3)
            arrows = [
                (rng.randrange(vertices), rng.randrange(vertices))
                for _ in range(rng.randint(1, vertices + 1))
            ]
        else:
            vertices = rng.randint(2, 3)
            order = rng.sample(range(vertices), vertices)
            arrows = [(order[i - 1], order[i]) for i in range(vertices)]
        q = Quiver(vertices, arrows)
        rsz = hh_rsz(q, field, 3).dims
        alg = truncated_path_algebra(q, field)
        idems = [alg.basis_element(v) for v in range(vertices)]
        assert hh_e_complex(alg, idems, 3).dims == rsz, (field.name, arrows)
        n_bar = 3
        while alg.dim * (alg.dim - 1) ** (n_bar + 1) > bar_budget(field):
            n_bar -= 1
        assert hh_bar(alg, n_bar).dims == rsz[: n_bar + 1], (field.name, arrows)
        crown = is_crown(q)
        if crown is None:
            closed = [thm_formula(q, n) for n in range(4)]
            if closed[0] is not None:
                assert rsz == closed, (field.name, arrows)
                formulas[0] += 1
        elif crown >= 2:
            assert rsz == [crown_formula(crown, n, field.characteristic)
                           for n in range(4)], (field.name, arrows)
            formulas[1] += 1
    assert formulas == [6, 4]


def test_complex_dims_checks_square_zero():
    # e -> r0 + r1 and r0, r1 -> s: the composite sends e to 2s
    inner = [{0: 1, 1: 1}]
    outer = [{0: 1}, {0: 1}]
    with pytest.raises(AssertionError):
        complex_dims([inner, outer, [{}]], 0)
    assert complex_dims([inner, outer, [{}]], 2) == [0, 0, 0]


def test_routes_check_every_consecutive_pair_once(monkeypatch):
    # the d^2 check runs once per pair (n, n + 1) on each route, the rsz
    # pairs included, though there it returns before packing anything
    calls = []

    def spy(outer, inner, p=0):
        calls.append((len(inner), len(outer)))
        return sparse_compose_zero(outer, inner, p)

    monkeypatch.setattr(hochschild, "sparse_compose_zero", spy)
    prod = z2_product(GF(5), "line_char_ne_2", 2)
    e = prod.element([Fraction(-1, 2), -1, Fraction(1, 2), 1])
    for run, N in (
        (lambda N: hh_rsz(standard_quiver("roundtrip"), QQ, N), 6),
        (lambda N: hh_bar(prod, N), 4),
        (lambda N: hh_e_complex(prod, [e, prod.unit_element() - e], N), 5),
    ):
        calls.clear()
        prof = run(N)
        assert len(calls) == N
        assert calls == [(s["cochain_dim"], t["cochain_dim"])
                         for s, t in zip(prof.stats, prof.stats[1:])]


def test_stats_records_recheck_rank_nullity():
    # dim C^n = HH^n + rank d^n + rank d^(n-1) in every degree, from the
    # records of one bar run and one rsz run
    for prof, N in ((hh_bar(z2_product(QQ, "line_char_ne_2", 2), 4), 4),
                    (hh_rsz(standard_quiver("roundtrip"), GF(3), 8), 8)):
        stats = prof.stats
        assert [s["degree"] for s in stats] == list(range(N + 1))
        for n, s in enumerate(stats):
            below = stats[n - 1]["rank"] if n else 0
            assert s["cochain_dim"] == prof.dims[n] + s["rank"] + below
            assert 0 <= s["cleared"] <= below
            assert s["nnz"] >= s["rank"]
            assert s["d2_s"] >= 0 and s["rank_s"] >= 0
        assert stats[-1]["d2_s"] == 0.0
        assert sum(s["cleared"] for s in stats) > 0
        assert set(prof.to_doc()) == {"algebra_tag", "method", "dims"}


def test_integerized_fraction_columns_rank_matches_dense():
    rng = random.Random(17)

    def entry():
        return Fraction(rng.randrange(-3, 4), rng.randrange(1, 6))

    for _ in range(40):
        r, c = rng.randrange(1, 7), rng.randrange(1, 6)
        cols = [
            {i: entry() for i in range(r) if rng.random() < 0.6}
            for _ in range(c)
        ]
        if c >= 2:
            # a dependent column, so the rank is not always full
            x, y = entry(), entry()
            cols.append({
                i: x * cols[0].get(i, 0) + y * cols[1].get(i, 0)
                for i in range(r)
            })
        dense = Matrix(
            QQ, r, len(cols), [[col.get(i, 0) for col in cols] for i in range(r)]
        )
        assert sparse_rank(integer_columns(cols, 0)) == dense.rank()


def test_thm_formula_values_and_hypotheses():
    kron = standard_quiver("kronecker")
    assert thm_formula(kron, 0) == 1
    assert thm_formula(kron, 1) == 3
    assert thm_formula(kron, 2) == 0
    assert thm_formula(standard_quiver("roundtrip"), 0) is None
    assert thm_formula(standard_quiver("loop"), 0) is None
    assert thm_formula(standard_quiver("four_points"), 0) is None
    assert thm_formula(standard_quiver("qtilde"), 0) is None
    with pytest.raises(ValueError):
        thm_formula(kron, -1)


def test_thm_formula_degree_bound():
    # the same bound as hh_rsz: an answer at 32, a ValueError at 33, and
    # None off-hypothesis at any degree
    kron = standard_quiver("kronecker")
    assert thm_formula(kron, 32) == 0
    tailed_loop = Quiver(2, [(0, 0), (0, 1)])
    assert thm_formula(tailed_loop, 32) == hh_rsz(tailed_loop, QQ, 32).dims[32]
    with pytest.raises(ValueError):
        thm_formula(kron, 33)
    for name in ("roundtrip", "crown(3)", "qtilde"):
        assert thm_formula(standard_quiver(name), 33) is None


def test_thm_formula_matches_rsz_on_connected_non_crowns():
    for q in (standard_quiver("kronecker"), TWO_LOOPS, L3, ONE_ARROW):
        dims = hh_rsz(q, QQ, 6).dims
        for n in range(7):
            assert thm_formula(q, n) == dims[n]


def test_crown_formula_readings():
    assert [crown_formula(2, n) for n in range(13)] == [1] * 13
    assert [crown_formula(3, n) for n in range(10)] == [
        1, 1, 0, 0, 0, 0, 1, 1, 0, 0,
    ]
    assert crown_formula(3, 2) == 0
    assert [crown_formula(4, n) for n in range(10)] == [
        1, 1, 0, 0, 1, 1, 0, 0, 1, 1,
    ]
    assert "even" in CROWN_READING
    with pytest.raises(ValueError):
        crown_formula(1, 0)
    with pytest.raises(ValueError):
        crown_formula(3, 0, characteristic=2)


def test_crown_formula_matches_rsz():
    assert [crown_formula(2, n) for n in range(13)] == hh_rsz(
        standard_quiver("roundtrip"), QQ, 12
    ).dims
    assert [crown_formula(3, n) for n in range(10)] == hh_rsz(
        standard_quiver("crown(3)"), QQ, 9
    ).dims
    assert [crown_formula(4, n) for n in range(10)] == hh_rsz(
        standard_quiver("crown(4)"), QQ, 9
    ).dims


def test_acyclic_vanishing_and_cyclic_persistence():
    for q in (
        standard_quiver("qtilde"),
        standard_quiver("four_points"),
        standard_quiver("kronecker"),
        L3,
        ONE_ARROW,
    ):
        top = longest_path_length(q)
        dims = hh_rsz(q, QQ, top + 3).dims
        assert all(x == 0 for x in dims[top + 1:])
    assert hh_rsz(standard_quiver("roundtrip"), QQ, 12).dims[12] == 1
    crown3 = hh_rsz(standard_quiver("crown(3)"), QQ, 13).dims
    assert crown3[12] == 1 and crown3[13] == 1


def test_counterexample_confirmed_over_q():
    report = verify_counterexample(10)
    assert report["verdict"] == "counterexample confirmed"
    assert report["factor_a_separable"] and report["factor_b_separable"]
    assert report["twist_invertible"]
    assert report["rsz_dims"] == [1] * 11
    assert report["bar_dims"] == [1] * 5
    assert report["product_radical_dims"] == [2, 0]
    assert report["product_center_dim"] == 1


def test_counterexample_minimal_and_finite_field():
    assert verify_counterexample(2)["verdict"] == "counterexample confirmed"
    rep = verify_counterexample(4, GF(5))
    assert rep["verdict"] == "counterexample confirmed"
    assert rep["rsz_dims"] == [1] * 5
    assert rep["bar_dims"] == [1] * 5


def test_counterexample_guards():
    with pytest.raises(ValueError):
        verify_counterexample(1)
    with pytest.raises(ValueError):
        verify_counterexample(4, GF(2))


def test_counterexample_degree_bound_edge(monkeypatch):
    for field in (QQ, GF(5)):
        report = verify_counterexample(32, field)
        assert report["rsz_dims"] == [1] * 33, field.name
        assert report["nonvanishing_through"] == 32

    def no_product(t):
        raise AssertionError("the product was built")

    # refused up front, before the product is built
    monkeypatch.setattr(twisting, "twisted_product", no_product)
    for N in (1, 33):
        for field in (QQ, GF(5)):
            with pytest.raises(ValueError, match="^N must be between 2 and 32$"):
                verify_counterexample(N, field)


def test_profile_doc_and_errata():
    prof = HHProfile([1, 2], "bar-complex", "demo")
    assert prof.to_doc() == {
        "algebra_tag": "demo", "method": "bar-complex", "dims": [1, 2],
    }
    assert len(HH_ERRATA) == 1
    assert HH_ERRATA[0]["id"] == "isolated-vertex-hh0"
    assert {n["id"] for n in READING_NOTES} == {
        "semisimple-vanishing-reading",
        "crown-formula-reading",
        "single-loop-exclusion",
    }
