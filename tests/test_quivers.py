"""Quivers, paths, crowns, and path algebras."""

import random
from collections import Counter

import pytest

from twistlab.fields import GF, QQ
from twistlab.algebra import (
    center,
    change_of_basis,
    radical_power_dims,
    standard_algebra,
    verify_axioms,
)
from twistlab.hochschild import hh_rsz, rsz_pairs, thm_formula
from twistlab.linalg import Matrix
from twistlab.quivers import (
    PATH_LAYER_BOUND,
    Quiver,
    has_oriented_cycle,
    is_connected,
    is_crown,
    longest_path_length,
    path_algebra_acyclic,
    standard_quiver,
    truncated_path_algebra,
    walks,
)


def test_standard_layouts():
    assert standard_quiver("roundtrip") == Quiver(2, [(0, 1), (1, 0)])
    assert standard_quiver("qtilde") == Quiver(3, [(1, 2)])
    assert standard_quiver("four_points") == Quiver(4, [])
    assert standard_quiver("loop") == Quiver(1, [(0, 0)])
    assert standard_quiver("kronecker") == Quiver(2, [(0, 1), (0, 1)])
    assert standard_quiver("crown", 3) == Quiver(3, [(0, 1), (1, 2), (2, 0)])
    assert standard_quiver("crown(3)") == standard_quiver("crown", 3)
    with pytest.raises(ValueError):
        standard_quiver("pentagon")


def test_paths_of_length_examples():
    rt = standard_quiver("roundtrip")
    assert len(walks(rt, 3)[3]) == 2
    assert len(walks(standard_quiver("qtilde"), 2)[2]) == 0
    assert len(walks(standard_quiver("crown", 3), 3)[3]) == 3
    assert len(walks(rt, 0)[0]) == 2
    # walks bounds the paths of one length, not the length; hh_rsz and
    # thm_formula bound n
    assert walks(standard_quiver("loop"), 32)[32] == [(0, 0, (0,) * 32)]


def test_path_layer_bound_edge_on_two_loops():
    # one vertex with two loops has 2^n paths of length n
    q = Quiver(1, [(0, 0), (0, 0)])
    edge = PATH_LAYER_BOUND.bit_length() - 1
    assert 2 ** edge == PATH_LAYER_BOUND
    # #(Q_n || Q_1) - #(Q_(n-1) || Q_0) = 2^(n+1) - 2^(n-1)
    assert thm_formula(q, edge) == 3 * 2 ** (edge - 1)
    past = f"{2 ** (edge + 1)} paths of length {edge + 1} exceed"
    with pytest.raises(ValueError, match=past):
        thm_formula(q, edge + 1)
    # refused at that layer, not after building 2^32 paths
    with pytest.raises(ValueError, match=past):
        hh_rsz(q, GF(7), 31)


def test_crown_path_count_invariant():
    for c in (1, 2, 3, 4):
        q = standard_quiver("crown", c)
        assert [len(layer) for layer in walks(q, 7)] == [c] * 8


def test_paths_lexicographic_order():
    q = standard_quiver("kronecker")
    assert [x for _, _, x in walks(q, 1)[1]] == [(0,), (1,)]
    two = Quiver(1, [(0, 0), (0, 0)])
    assert [x for _, _, x in walks(two, 2)[2]] == [
        (0, 0), (0, 1), (1, 0), (1, 1)]


def test_parallel_count_examples():
    # P0[n] lists Q_n || Q_0, P1[n] lists Q_n || Q_1
    p0, p1 = rsz_pairs(standard_quiver("roundtrip"), 6)
    for n in (2, 4, 6):
        assert len(p0[n]) == 2
    for n in (1, 3, 5):
        assert len(p0[n]) == 0
        assert len(p1[n + 1]) == 0
    assert len(rsz_pairs(standard_quiver("kronecker"), 1)[1][1]) == 4


def test_parallel_count_symmetry():
    # #(Q_n || Q_m) = #(Q_m || Q_n): counted from the Q_m side through
    # the walks' endpoints, it matches rsz_pairs' count from the Q_n side
    for name in ("roundtrip", "qtilde", "kronecker", "loop"):
        q = standard_quiver(name)
        layers = walks(q, 3)
        pairs = rsz_pairs(q, 3)
        for n in range(4):
            ends = Counter((s, t) for s, t, _ in layers[n])
            for m in (0, 1):
                assert sum(ends[s, t] for s, t, _ in layers[m]) == len(pairs[m][n])


def test_parallel_pairs_share_endpoints():
    q = standard_quiver("crown", 3)
    p0, p1 = rsz_pairs(q, 3)
    for x, v in p0[3]:
        assert q.arrows[x[0]][0] == v == q.arrows[x[-1]][1]
    kron = standard_quiver("kronecker")
    for (x,), a in rsz_pairs(kron, 1)[1][1]:
        assert kron.arrows[x] == kron.arrows[a]


def test_is_crown():
    assert is_crown(standard_quiver("roundtrip")) == 2
    assert is_crown(standard_quiver("loop")) == 1
    assert is_crown(standard_quiver("qtilde")) is None
    assert is_crown(standard_quiver("kronecker")) is None
    assert is_crown(standard_quiver("crown", 5)) == 5
    assert is_crown(Quiver(2, [(0, 0), (1, 1)])) is None


def test_connectivity_and_cycles():
    qt = standard_quiver("qtilde")
    assert not is_connected(qt) and not has_oriented_cycle(qt)
    rt = standard_quiver("roundtrip")
    assert is_connected(rt) and has_oriented_cycle(rt)
    kr = standard_quiver("kronecker")
    assert is_connected(kr) and not has_oriented_cycle(kr)
    assert has_oriented_cycle(standard_quiver("loop"))


def test_longest_path_length():
    assert longest_path_length(standard_quiver("qtilde")) == 1
    assert longest_path_length(standard_quiver("four_points")) == 0
    line3 = Quiver(3, [(0, 1), (1, 2)])
    assert longest_path_length(line3) == 2
    with pytest.raises(ValueError):
        longest_path_length(standard_quiver("roundtrip"))


def test_truncated_roundtrip_matches_reference_table():
    built = truncated_path_algebra(standard_quiver("roundtrip"), QQ)
    ref = standard_algebra("truncated_roundtrip", QQ)
    # (e, f, x, y) = (e0, e1, a1, a0): x is the arrow 1 -> 0
    p = Matrix(QQ, 4, 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert change_of_basis(built, p, labels=ref.basis_labels).table == ref.table


def test_truncated_four_points_is_k4():
    built = truncated_path_algebra(standard_quiver("four_points"), QQ)
    assert built.table == standard_algebra("k_n", QQ, n=4).table


def test_truncated_loop_is_dual_numbers():
    built = truncated_path_algebra(standard_quiver("loop"), GF(7))
    assert built.dim == 2
    x = built.basis_element(1)
    assert (x * x).is_zero()
    assert verify_axioms(built)["associative"]


def test_truncated_path_algebras_satisfy_the_axioms():
    # truncated_path_algebra skips the verify_axioms scan, since its table is
    # associative and unital by construction; the scan runs here instead
    rng = random.Random(97)
    fields = (QQ, GF(2), GF(3), GF(7))
    loops = multiple = 0
    for trial in range(120):
        vertices = rng.randint(1, 4)
        arrows = [(rng.randrange(vertices), rng.randrange(vertices))
                  for _ in range(rng.randint(0, vertices + 2))]
        field = fields[trial % len(fields)]
        report = verify_axioms(truncated_path_algebra(Quiver(vertices, arrows), field))
        assert report["associative"] and report["unital"], (field.name, arrows)
        loops += any(s == t for s, t in arrows)
        multiple += len(set(arrows)) < len(arrows)
    assert loops >= 40 and multiple >= 20


def test_truncated_radical_square_zero():
    for name in ("roundtrip", "qtilde", "kronecker", "loop"):
        q = standard_quiver(name)
        alg = truncated_path_algebra(q, QQ)
        if q.arrows:
            assert radical_power_dims(alg) == [len(q.arrows), 0]
        else:
            assert radical_power_dims(alg) == []


def test_truncated_roundtrip_center_one_dimensional():
    assert len(center(truncated_path_algebra(standard_quiver("roundtrip"), QQ))) == 1


def test_path_algebra_qtilde():
    built = path_algebra_acyclic(standard_quiver("qtilde"), QQ)
    assert built.dim == 4
    ref = standard_algebra("qtilde_path_algebra", QQ)
    assert built.table == ref.table
    assert built.unit == ref.unit


def test_path_algebra_two_vertex_one_arrow():
    alg = path_algebra_acyclic(Quiver(2, [(0, 1)]), QQ)
    assert alg.dim == 3
    assert verify_axioms(alg)["associative"]


def test_path_algebra_rejects_cycles():
    with pytest.raises(ValueError):
        path_algebra_acyclic(standard_quiver("roundtrip"), QQ)


def test_truncation_equals_path_algebra_without_length_two_paths():
    for q in (standard_quiver("qtilde"), standard_quiver("kronecker"),
              standard_quiver("four_points")):
        assert not walks(q, 2)[2]
        assert truncated_path_algebra(q, QQ).dim == path_algebra_acyclic(q, QQ).dim
    line3 = Quiver(3, [(0, 1), (1, 2)])
    assert walks(line3, 2)[2]
    assert truncated_path_algebra(line3, QQ).dim != path_algebra_acyclic(line3, QQ).dim


def test_quiver_serialization_roundtrip():
    q = standard_quiver("crown", 4)
    text = q.to_json()
    assert Quiver.from_json(text) == q
    assert Quiver.from_json(text).to_json() == text
    assert text == '{"vertex_count":4,"arrows":[[0,1],[1,2],[2,3],[3,0]]}'


def test_quiver_validation():
    with pytest.raises(ValueError):
        Quiver(2, [(0, 5)])
    with pytest.raises(ValueError):
        Quiver(0, [])
    for arrow in ((0,), (0, 1, 1)):
        with pytest.raises(ValueError, match=r"arrow 1 is \[0"):
            Quiver(2, [(0, 1), arrow])
