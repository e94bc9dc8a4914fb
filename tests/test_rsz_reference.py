"""The parallel-paths (rsz) complex against a reference built path by path.

The reference is the earlier construction: a recursive path enumerator
making one ``Path`` per path, parallel pairs of ``Path`` objects, the
coboundary D as columns over those pairs, and the block map (0 0; D 0)
assembled from D in a second step. ``walks``, ``rsz_pairs`` and
``rsz_layer`` must reproduce it exactly: the same paths in the same
order, the same layers, the same columns and the same dimensions. The
closed form ``thm_formula`` must give the same values from its
``rsz_pairs`` counts as from the reference pairs.
"""

import random

import pytest

from twistlab.fields import GF, QQ
from twistlab.hochschild import (
    complex_dims,
    hh_rsz,
    rsz_layer,
    rsz_pairs,
    thm_formula,
)
from twistlab.quivers import Quiver, is_connected, is_crown, standard_quiver, walks


class Path:
    """A composable arrow sequence; an empty path sits at base_vertex."""

    __slots__ = ("quiver", "arrow_indices", "base_vertex")

    def __init__(self, quiver, arrow_indices, base_vertex=None):
        self.quiver = quiver
        self.arrow_indices = tuple(arrow_indices)
        if self.arrow_indices:
            for a, b in zip(self.arrow_indices, self.arrow_indices[1:]):
                if quiver.arrows[a][1] != quiver.arrows[b][0]:
                    raise ValueError("arrows do not compose")
            base_vertex = quiver.arrows[self.arrow_indices[0]][0]
        elif base_vertex is None:
            raise ValueError("an empty path needs a base vertex")
        self.base_vertex = base_vertex

    @property
    def source(self):
        return self.base_vertex

    @property
    def target(self):
        if not self.arrow_indices:
            return self.base_vertex
        return self.quiver.arrows[self.arrow_indices[-1]][1]

    def key(self):
        return (self.arrow_indices, None if self.arrow_indices else self.base_vertex)


def reference_paths(q, n):
    """All length-n paths in lexicographic arrow order, by recursion."""
    if n == 0:
        return [Path(q, (), v) for v in range(q.vertex_count)]
    out_by_vertex = [q.arrows_from(v) for v in range(q.vertex_count)]
    paths = []

    def extend(prefix, at, remaining):
        if remaining == 0:
            paths.append(Path(q, tuple(prefix)))
            return
        for a in out_by_vertex[at]:
            prefix.append(a)
            extend(prefix, q.arrows[a][1], remaining - 1)
            prefix.pop()

    for a in range(len(q.arrows)):
        extend([a], q.arrows[a][1], n - 1)
    return paths


def reference_pairs(q, n, m):
    """All pairs (x, y) in Q_n x Q_m sharing source and target."""
    by_ends = {}
    for y in reference_paths(q, m):
        by_ends.setdefault((y.source, y.target), []).append(y)
    return [(x, y) for x in reference_paths(q, n)
            for y in by_ends.get((x.source, x.target), ())]


def reference_layer(q, p, n):
    """(Q_n || Q_0 pairs, Q_n || Q_1 pairs, the columns of D)."""
    p0 = reference_pairs(q, n, 0)
    p1 = reference_pairs(q, n, 1)
    index = {(x.key(), y.key()): i
             for i, (x, y) in enumerate(reference_pairs(q, n + 1, 1))}
    sign = 1 if (n + 1) % 2 == 0 else -1
    cols = []
    for gamma, e in p0:
        col = {}
        v = e.base_vertex
        for a in q.arrows_from(v):
            x = Path(q, gamma.arrow_indices + (a,))
            row = index[x.key(), Path(q, (a,)).key()]
            col[row] = col.get(row, 0) + 1
        for a in (i for i, (_, t) in enumerate(q.arrows) if t == v):
            x = Path(q, (a,) + gamma.arrow_indices)
            row = index[x.key(), Path(q, (a,)).key()]
            col[row] = col.get(row, 0) + sign
        cols.append({r: x % p if p else x for r, x in col.items()
                     if (x % p if p else x)})
    return p0, p1, cols


def reference_coboundary(layer, next_p0):
    """The block map (0 0; D 0) into a degree whose Q_0 block has next_p0
    rows."""
    p0, p1, cols = layer
    return [{next_p0 + r: v for r, v in col.items()} for col in cols] + [
        {} for _ in p1
    ]


def reference_hh_rsz(q, field, n_top):
    p = field.characteristic
    layers = [reference_layer(q, p, n) for n in range(n_top + 1)]
    next_p0 = [len(layer[0]) for layer in layers[1:]]
    next_p0.append(len(reference_pairs(q, n_top + 1, 0)))
    deltas = [reference_coboundary(layers[n], next_p0[n])
              for n in range(n_top + 1)]
    return complex_dims(deltas, p)


def reference_thm_formula(q, n):
    """The closed form with its counts taken from the reference pairs."""
    if not is_connected(q) or is_crown(q) is not None:
        return None
    if n == 0:
        return len(reference_pairs(q, 1, 0)) + 1
    if n == 1:
        return len(reference_pairs(q, 1, 1)) - q.vertex_count + 1
    return len(reference_pairs(q, n, 1)) - len(reference_pairs(q, n - 1, 0))


def random_quiver(rng):
    """1-3 vertices and 0 to v+2 arrows: loops, multiple arrows and
    isolated vertices all occur."""
    v = rng.randint(1, 3)
    return Quiver(v, [(rng.randrange(v), rng.randrange(v))
                      for _ in range(rng.randint(0, v + 2))])


FIXED = [
    standard_quiver("loop"),
    Quiver(1, [(0, 0), (0, 0)]),
    Quiver(3, [(0, 0), (0, 1)]),  # a loop, an arrow out of it, vertex 2 isolated
    standard_quiver("four_points"),
    standard_quiver("kronecker"),
    standard_quiver("crown(3)"),
]


def test_walks_layers():
    q = Quiver(2, [(1, 0), (0, 1), (0, 0)])
    assert walks(q, 0) == [[(0, 0, ()), (1, 1, ())]]
    q0, q1, q2 = walks(q, 2)
    assert q1 == [(1, 0, (0,)), (0, 1, (1,)), (0, 0, (2,))]
    assert q2 == [(1, 1, (0, 1)), (1, 0, (0, 2)), (0, 0, (1, 0)),
                  (0, 1, (2, 1)), (0, 0, (2, 2))]
    assert walks(standard_quiver("qtilde"), 3)[2:] == [[], []]


def test_walks_match_recursive_enumerator():
    rng = random.Random(41)
    quivers = FIXED + [random_quiver(rng) for _ in range(30)]
    for q in quivers:
        layers = walks(q, 5)
        for n in range(6):
            assert layers[n] == [(x.source, x.target, x.arrow_indices)
                                 for x in reference_paths(q, n)], (q, n)


def test_thm_formula_matches_reference_counts():
    # 400 seeded random quivers at n <= 6, then every standard quiver at
    # n <= 7; off-hypothesis quivers must give None on both sides
    rng = random.Random(53)
    quivers = [random_quiver(rng) for _ in range(400)]
    cases = [(q, n) for q in quivers for n in range(7)]
    for name in ("roundtrip", "qtilde", "four_points", "loop", "kronecker",
                 "crown(2)", "crown(3)"):
        cases.extend((standard_quiver(name), n) for n in range(8))
    answered = 0
    for q, n in cases:
        want = reference_thm_formula(q, n)
        assert thm_formula(q, n) == want, (q, n)
        answered += want is not None
    assert answered > 1000


def test_rsz_layers_match_reference():
    # pairs as (arrows, vertex) and (arrows, arrow), the columns of the
    # whole block map, over Q and GF(2) (where 1 + (-1)^(n+1) vanishes)
    rng = random.Random(43)
    quivers = FIXED + [random_quiver(rng) for _ in range(20)]
    for i, q in enumerate(quivers):
        p = (0, 2)[i % 2]
        n_top = 4 if len(q.arrows) <= 3 else 3
        pairs = rsz_pairs(q, n_top + 1)
        ref = [reference_layer(q, p, n) for n in range(n_top + 2)]
        for n in range(n_top + 1):
            layer = rsz_layer(q, pairs, n, p)
            p0, p1, _ = ref[n]
            assert layer.degree == n
            assert layer.basis_p0 == [
                (x.arrow_indices, y.base_vertex) for x, y in p0]
            assert layer.basis_p1 == [
                (x.arrow_indices, y.arrow_indices[0]) for x, y in p1]
            assert layer.columns == reference_coboundary(
                ref[n], len(ref[n + 1][0])), (q, n)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(11)],
                         ids=lambda f: f.name)
def test_hh_rsz_matches_reference_on_random_quivers(field):
    # GF(2) is the one field where no other route checks hh_rsz
    rng = random.Random(47 + field.characteristic)
    cases = [(q, n) for q in FIXED for n in (0, 3)]
    for _ in range(40):
        q = random_quiver(rng)
        n_top = rng.randint(0, 6 if len(q.arrows) <= 3 else 3)
        cases.append((q, n_top))
    assert any(n == 0 for _, n in cases)
    for q, n_top in cases:
        assert hh_rsz(q, field, n_top).dims == reference_hh_rsz(
            q, field, n_top), (q, n_top)
