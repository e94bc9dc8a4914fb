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
    is_connected,
    is_crown,
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


def test_path_layer_bound_edge_on_vertices_and_arrows(monkeypatch):
    wide = Quiver(PATH_LAYER_BOUND, [])
    assert len(walks(wide, 2)[0]) == PATH_LAYER_BOUND
    loops = Quiver(1, [(0, 0)] * PATH_LAYER_BOUND)
    assert len(walks(loops, 1)[1]) == PATH_LAYER_BOUND
    more = Quiver(1, [(0, 0)] * (PATH_LAYER_BOUND + 1))
    # Q_1 is not checked when only Q_0 is asked for
    assert walks(more, 0) == [[(0, 0, ())]]
    past = f"{PATH_LAYER_BOUND + 1} paths of length"

    # one step past the bound is refused before any layer is built
    def refuse(self):
        raise AssertionError("built")

    monkeypatch.setattr(Quiver, "out_lists", refuse)
    for top in (0, 1, 2):
        with pytest.raises(ValueError, match=past + " 0 exceed"):
            walks(Quiver(PATH_LAYER_BOUND + 1, []), top)
    for top in (1, 2):
        with pytest.raises(ValueError, match=past + " 1 exceed"):
            walks(more, top)


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


def walks_find_a_cycle(q: Quiver) -> bool:
    """A quiver on n vertices has an oriented cycle exactly when it has a
    path of length n."""
    return bool(walks(q, q.vertex_count)[-1])


def test_connectivity_and_cycles():
    qt = standard_quiver("qtilde")
    assert not is_connected(qt) and not walks_find_a_cycle(qt)
    rt = standard_quiver("roundtrip")
    assert is_connected(rt) and walks_find_a_cycle(rt)
    kr = standard_quiver("kronecker")
    assert is_connected(kr) and not walks_find_a_cycle(kr)
    assert walks_find_a_cycle(standard_quiver("loop"))


def test_topological_pass_matches_walks():
    # a quiver on n vertices has an oriented cycle exactly when it has a
    # path of length n; acyclic quivers are drawn as arrows up a shuffled
    # order, with parallel arrows, and then a back arrow is added
    rng = random.Random(59)
    cyclic = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        order = rng.sample(range(n), n)
        arrows = []
        for _ in range(rng.randint(0, n + 2) if n > 1 else 0):
            i, j = sorted(rng.sample(range(n), 2))
            arrows.append((order[i], order[j]))
        q = Quiver(n, arrows)
        assert not walks(q, n)[n], q
        if arrows and rng.random() < 0.5:
            s, t = rng.choice(arrows)
            back = Quiver(n, arrows + [(t, s)])
            assert walks(back, n)[n], back
            cyclic += 1
    assert cyclic > 50


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
    assert not any(built.multiply_coords(x, x))
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
    q = standard_quiver("qtilde")
    built = truncated_path_algebra(q, QQ, q.vertex_count)
    assert built.dim == 4
    ref = standard_algebra("qtilde_path_algebra", QQ)
    assert built.table == ref.table
    assert built.unit == ref.unit


def test_path_algebra_two_vertex_one_arrow():
    q = Quiver(2, [(0, 1)])
    alg = truncated_path_algebra(q, QQ, q.vertex_count)
    assert alg.dim == 3
    assert verify_axioms(alg)["associative"]


def test_truncation_equals_path_algebra_without_length_two_paths():
    for q in (standard_quiver("qtilde"), standard_quiver("kronecker"),
              standard_quiver("four_points")):
        assert not walks(q, 2)[2]
        assert (truncated_path_algebra(q, QQ).dim
                == truncated_path_algebra(q, QQ, q.vertex_count).dim)
    line3 = Quiver(3, [(0, 1), (1, 2)])
    assert walks(line3, 2)[2]
    assert truncated_path_algebra(line3, QQ).dim != truncated_path_algebra(line3, QQ, 3).dim


def concatenation_product(paths: list, m: int, i: int, j: int) -> list:
    """Reference: the coordinates of paths[i] * paths[j] in kQ/J^m, the
    concatenation when the paths meet and it is shorter than m, else 0."""
    (s, t, x), (s2, t2, y) = paths[i], paths[j]
    out = [0] * len(paths)
    if t == s2 and len(x) + len(y) < m:
        out[paths.index((s, t2, x + y))] = 1
    return out


def test_truncated_path_algebra_multiplies_paths_by_concatenation():
    # kQ/J^m for m = 1, 2, 3, and kQ itself (m = |Q0|) on acyclic quivers:
    # every product of two basis paths against the concatenation reference,
    # and the verify_axioms scan that check=False skips
    rng = random.Random(131)
    quivers = [standard_quiver(name) for name in
               ("roundtrip", "qtilde", "four_points", "loop", "kronecker", "crown(3)")]
    for _ in range(40):
        n = rng.randint(1, 4)
        quivers.append(Quiver(n, [(rng.randrange(n), rng.randrange(n))
                                  for _ in range(rng.randint(0, 5))]))
    full = 0
    for q in quivers:
        powers = [1, 2, 3]
        if not walks_find_a_cycle(q):
            powers.append(q.vertex_count)
            full += 1
        for field in (QQ, GF(3)):
            for m in powers:
                alg = truncated_path_algebra(q, field, m)
                paths = [p for layer in walks(q, m - 1) for p in layer]
                assert alg.dim == len(paths), (q, m)
                assert alg.unit == [int(not x) for _, _, x in paths], (q, m)
                for i in range(alg.dim):
                    for j in range(alg.dim):
                        got = alg.multiply_coords(alg.basis_element(i),
                                                  alg.basis_element(j))
                        assert got == concatenation_product(paths, m, i, j), (q, m, i, j)
                report = verify_axioms(alg)
                assert report["associative"] and report["unital"], (q, field.name, m)
    assert full > 10
    for m in (0, -1):
        with pytest.raises(ValueError, match="m >= 1"):
            truncated_path_algebra(standard_quiver("loop"), QQ, m)


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
