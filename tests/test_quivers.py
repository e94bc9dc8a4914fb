"""Quivers, paths, crowns, and path algebras."""

import pytest

from twistlab.fields import GF, QQ
from twistlab.algebra import (
    center,
    change_of_basis,
    radical_power_dims,
    standard_algebra,
    verify_axioms,
)
from twistlab.linalg import Matrix
from twistlab.quivers import (
    PATH_LENGTH_BOUND,
    Path,
    Quiver,
    has_oriented_cycle,
    is_connected,
    is_crown,
    longest_path_length,
    parallel_count,
    parallel_pairs,
    path_algebra_acyclic,
    paths_of_length,
    standard_quiver,
    truncated_path_algebra,
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


def test_path_composition_rules():
    q = standard_quiver("roundtrip")
    p = Path(q, (0, 1))
    assert p.source == 0 and p.target == 0 and p.length == 2
    with pytest.raises(ValueError):
        Path(q, (0, 0))
    vertex = Path(q, (), 1)
    assert vertex.source == vertex.target == 1 and vertex.length == 0


def test_paths_of_length_examples():
    rt = standard_quiver("roundtrip")
    assert len(paths_of_length(rt, 3)) == 2
    assert len(paths_of_length(standard_quiver("qtilde"), 2)) == 0
    assert len(paths_of_length(standard_quiver("crown", 3), 3)) == 3
    assert len(paths_of_length(rt, 0)) == 2
    loop = standard_quiver("loop")
    assert PATH_LENGTH_BOUND == 32
    assert [p.length for p in paths_of_length(loop, 32)] == [32]
    with pytest.raises(ValueError):
        paths_of_length(loop, 33)


def test_crown_path_count_invariant():
    for c in (1, 2, 3, 4):
        q = standard_quiver("crown", c)
        for n in range(8):
            assert len(paths_of_length(q, n)) == c


def test_paths_lexicographic_order():
    q = standard_quiver("kronecker")
    assert [p.arrow_indices for p in paths_of_length(q, 1)] == [(0,), (1,)]
    two = Quiver(1, [(0, 0), (0, 0)])
    assert [p.arrow_indices for p in paths_of_length(two, 2)] == [
        (0, 0), (0, 1), (1, 0), (1, 1)]


def test_parallel_count_examples():
    rt = standard_quiver("roundtrip")
    for n in (2, 4, 6):
        assert parallel_count(rt, n, 0) == 2
    for n in (1, 3, 5):
        assert parallel_count(rt, n, 0) == 0
        assert parallel_count(rt, n + 1, 1) == 0
    assert parallel_count(standard_quiver("kronecker"), 1, 1) == 4


def test_parallel_count_symmetry():
    for name in ("roundtrip", "qtilde", "kronecker", "loop"):
        q = standard_quiver(name)
        for n in range(4):
            for m in range(4):
                assert parallel_count(q, n, m) == parallel_count(q, m, n)


def test_parallel_pairs_share_endpoints():
    q = standard_quiver("crown", 3)
    for x, y in parallel_pairs(q, 3, 0):
        assert x.source == y.source and x.target == y.target


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
        assert not paths_of_length(q, 2)
        assert truncated_path_algebra(q, QQ).dim == path_algebra_acyclic(q, QQ).dim
    line3 = Quiver(3, [(0, 1), (1, 2)])
    assert paths_of_length(line3, 2)
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
