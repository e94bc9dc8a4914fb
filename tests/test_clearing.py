"""Clearing in ``complex_dims`` against the un-cleared elimination.

The reference takes the rank of every column of every coboundary, with
no column skipped, by the full-reduction kernel of test_linalg, so it
shares no elimination code with ``complex_dims``; on the way it checks
that ``sparse_echelon`` keeps the reference's pivot set on each d^n.
Seeded inputs on all three routes must give the same dims both ways, over
Q, GF(2), GF(3) and GF(7): census products and their transports to a
random basis through ``bar_coboundary_columns``, random quivers through
``rsz_layer``, and truncated path algebras through the columns
``hh_e_complex`` hands to ``complex_dims``.
"""

import random

import twistlab.hochschild as hochschild
from twistlab.algebra import change_of_basis, standard_algebra
from twistlab.fields import GF, QQ
from twistlab.hochschild import (
    bar_coboundary_columns,
    complex_dims,
    rsz_layer,
    rsz_pairs,
)
from twistlab.quivers import Quiver, truncated_path_algebra
from twistlab.twisting import (
    TwistFamilyDescriptor,
    census_rows,
    family_member,
    twisted_product,
)

from test_hochschild import random_invertible
from test_linalg import reference_pivots

FIELDS = (QQ, GF(2), GF(3), GF(7))


def reference_dims(deltas, p):
    """dim H^n from the ranks of all columns of every d^n."""
    ranks = [len(reference_pivots(cols, p)) for cols in deltas]
    return [len(cols) - ranks[n] - (ranks[n - 1] if n else 0)
            for n, cols in enumerate(deltas)]


def census_products(field):
    """Every census product over F_p; over Q the isolated members and three
    points of the line family."""
    if field.characteristic:
        return [twisted_product(row["map"]) for row in census_rows(field)]
    maps = [row["map"] for row in census_rows(QQ) if row["map"] is not None]
    z2 = standard_algebra("group_algebra_z2", QQ)
    maps += [family_member(TwistFamilyDescriptor("line_char_ne_2", alpha), z2, z2)
             for alpha in (2, -2, 3)]
    return [twisted_product(t) for t in maps]


def random_quiver(rng, p):
    """1-3 vertices and up to two more arrows than vertices. Over F_p the
    trace-form radical of the truncated path algebra needs p not to divide
    1 + the out-degree of any vertex, so such draws are drawn again."""
    while True:
        vertices = rng.randint(1, 3)
        arrows = [(rng.randrange(vertices), rng.randrange(vertices))
                  for _ in range(rng.randint(1, vertices + 2))]
        out = [1 + sum(s == v for s, _ in arrows) for v in range(vertices)]
        if not p or all(x % p for x in out):
            return Quiver(vertices, arrows)


def test_clearing_matches_reference_on_bar_complex():
    rng = random.Random(41)
    moved = 0
    for field in FIELDS:
        p = field.characteristic
        for prod in census_products(field):
            transport = change_of_basis(prod, random_invertible(rng, field, 4))
            moved += transport.scale > 1
            # dense Fraction constants make the un-cleared ranks slow over Q
            for alg, N in ((prod, 3), (transport, 3 if p else 2)):
                deltas = [bar_coboundary_columns(alg, n) for n in range(N + 1)]
                assert complex_dims(deltas, p) == reference_dims(deltas, p), (
                    field.name, alg.table)
    assert moved >= 5


def test_clearing_matches_reference_on_rsz_complex():
    rng = random.Random(43)
    for trial in range(24):
        field = FIELDS[trial % len(FIELDS)]
        p = field.characteristic
        q = random_quiver(rng, 0)
        N = 5
        pairs = rsz_pairs(q, N + 1)
        deltas = [rsz_layer(q, pairs, n, p).columns for n in range(N + 1)]
        assert complex_dims(deltas, p) == reference_dims(deltas, p), (
            field.name, q.arrows)


def test_clearing_matches_reference_on_e_complex(monkeypatch):
    rng = random.Random(47)
    seen = []

    def spy(deltas, p, stats=None):
        seen.append((deltas, p))
        return complex_dims(deltas, p, stats)

    monkeypatch.setattr(hochschild, "complex_dims", spy)
    for trial in range(24):
        field = FIELDS[trial % len(FIELDS)]
        q = random_quiver(rng, field.characteristic)
        alg = truncated_path_algebra(q, field)
        idems = [alg.basis_element(v) for v in range(q.vertex_count)]
        hochschild.hh_e_complex(alg, idems, 5)
    assert len(seen) == 24
    for deltas, p in seen:
        assert complex_dims(deltas, p) == reference_dims(deltas, p)

