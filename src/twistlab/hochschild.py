"""Hochschild cohomology dimensions by three routes.

Routes: the parallel-paths cochain complex for radical-square-zero
quiver algebras (Cibils 1998), the normalized bar complex
Hom((A/k*1)^(x)n, A) for arbitrary small algebras (quasi-isomorphic to
the full bar complex, with cochain dimension d (d-1)^n instead of
d^(n+1)), and the reduced complex Hom_(E-E)(J^(x)_E n, A) of a
decomposition A = E + J with J^2 = 0, where E is spanned by complete
orthogonal idempotents. ``block_quiver`` reads the block quiver of such
a decomposition off the Peirce basis and certifies it by one explicit
isomorphism from the quiver's truncated path algebra; the reduced complex
is then the quiver's parallel-paths complex, so the last route runs the
first on the quiver, and the counterexample runs the bar route on that
path algebra. The two column builders, ``rsz_layer`` and
``bar_coboundary_columns``, emit sparse integer columns into one
function, ``complex_dims``, which checks d^2 = 0 and then takes the ranks
with clearing: each degree eliminates only the columns that are not
pivots of the degree before. The bar route reads an integer table
(``Algebra.int_table``). Closed-form evaluators cover connected
non-crown quivers and crowns.

Ground-truth hierarchy when values disagree: normalized bar complex, then
the two structural complexes, then closed-form formulas, then printed
sources.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from time import perf_counter

from .fields import Field, QQ
from .algebra import (
    Algebra,
    _product,
    _radical_chain,
    center,
    is_isomorphism,
    is_separable,
    radical_power_dims,
)
from .linalg import (Matrix, entry_values, integer_echelon,
                     scale_to_integers, sparse_compose_zero, sparse_echelon)
from .quivers import (
    Quiver,
    is_connected,
    is_crown,
    standard_quiver,
    truncated_path_algebra,
    walks,
)

RSZ_DEGREE_BOUND = 32
DEFAULT_BUDGET_CHAR0 = 4096
DEFAULT_BUDGET_CHARP = 16384

CROWN_READING = "n even and divisible by c"

HH_ERRATA = [
    {
        "id": "isolated-vertex-hh0",
        "printed": "HH^0 = k^3 for the path algebra of the three-vertex "
                    "one-arrow quiver",
        "computed": "dimension 2: the center is spanned by the isolated "
                    "vertex idempotent and the sum of the two idempotents "
                    "joined by the arrow",
        "adjudicated_by": "hh_rsz, hh_bar, hh_e_complex, center",
    },
]

READING_NOTES = [
    {
        "id": "semisimple-vanishing-reading",
        "note": "printed 'HH^n = 0 for any n >= 0' next to a nonzero HH^0 "
                "is read as n >= 1",
    },
    {
        "id": "crown-formula-reading",
        "note": f"crown evaluator uses the reading '{CROWN_READING}'; the "
                "2-crown all-ones computation is the deciding case",
    },
    {
        "id": "single-loop-exclusion",
        "note": "the closed-form non-crown evaluator excludes c = 1 crowns "
                "(one loop): its degree-0 value disagrees with the dual "
                "numbers computation there",
    },
]


@dataclass
class HHProfile:
    dims: list
    method: str
    algebra_tag: str
    # complex_dims' per-degree records; left out of to_doc
    stats: list = dataclass_field(default_factory=list, compare=False,
                                  repr=False)

    def to_doc(self) -> dict:
        return {
            "algebra_tag": self.algebra_tag,
            "method": self.method,
            "dims": list(self.dims),
        }


def _reduced(col: dict, p: int) -> dict:
    """A sparse integer column without its zero entries: over Q the column
    itself when no entry cancelled; over F_p (p > 0) the signed residues in
    (-p/2, p/2], the one form of an F_p cochain column."""
    if p:
        half, out = p >> 1, {}
        for r, x in col.items():
            x %= p
            if x:
                out[r] = x - p if x > half else x
        return out
    return col if all(col.values()) else {r: x for r, x in col.items() if x}


def complex_dims(deltas: list, p: int, stats: list | None = None) -> list:
    """Cohomology dims of a cochain complex given by sparse integer columns.

    ``deltas[n]`` maps degree n into degree n+1, one dict {row: int} per
    basis element of degree n, so dim C^n is its length; entries are
    integers over Q (p = 0) and signed residues over F_p (``_reduced``).
    The composite of each consecutive pair is checked to vanish, on the
    full columns, before any rank is taken (``sparse_compose_zero``: every
    entry of the composite packed by Kronecker substitution into slots
    wider than its bound B, so that a zero integer over Q, and over F_p one
    divisibility test and one mask, decide exactly by the uniqueness of
    signed-digit forms; the bound and both arguments are in its docstring
    and ``linalg._slot_test``);
    then rank-nullity gives dim H^n = dim C^n - rank d^n - rank d^(n-1).
    The check reads each degree's set of entry values at most once, and
    only for the pairs that its vacuity test does not settle.

    Clearing: rank d^(n+1) is the rank of its columns j that are not
    pivots of d^n, so only those are eliminated. Each row ``sparse_echelon``
    keeps for d^n has as pivot i its largest index, and no two share one,
    so the rows are triangular: a change of basis puts them in place of
    the basis vectors i of C^(n+1). Each is a coboundary, which d^(n+1)
    kills. The rule rests on these distinct largest indices, on d^2 = 0
    (checked first), and on the row numbering of ``deltas[n]`` being the
    column numbering of ``deltas[n+1]``. Only the pivot set is carried
    over.

    A ``stats`` list receives one record per degree n: ``cochain_dim``,
    ``rank`` of d^n, the columns of d^n that clearing skipped
    (``cleared``), its nonzeros (``nnz``), and the seconds spent on the
    check that d^(n+1) d^n = 0 (``d2_s``, 0 in the top degree) and on the
    rank (``rank_s``). The routes add the seconds each degree's columns
    took to build (``build_s``, see ``_timed_dims``).
    """
    value_sets = {}

    # each degree's entry values, made when the check first reads them
    def values(cols: list) -> set:
        key = id(cols)
        if key not in value_sets:
            value_sets[key] = entry_values(cols)
        return value_sets[key]

    d2_s = []
    for n in range(len(deltas) - 1):
        start = perf_counter()
        if not sparse_compose_zero(deltas[n + 1], deltas[n], p, values):
            raise AssertionError(f"coboundary square nonzero at degree {n}")
        d2_s.append(perf_counter() - start)
    d2_s.append(0.0)
    pivots = set()
    records = []
    for n, cols in enumerate(deltas):
        start = perf_counter()
        kept = [col for j, col in enumerate(cols) if j not in pivots]
        pivots = set(sparse_echelon(kept, p))
        records.append({
            "degree": n, "cochain_dim": len(cols), "rank": len(pivots),
            "cleared": len(cols) - len(kept), "nnz": sum(map(len, cols)),
            "d2_s": d2_s[n], "rank_s": perf_counter() - start,
        })
    if stats is not None:
        stats.extend(records)
    return [
        rec["cochain_dim"] - rec["rank"] - (records[n - 1]["rank"] if n else 0)
        for n, rec in enumerate(records)
    ]


def _timed_dims(build, N: int, p: int, start: float) -> tuple:
    """(dims, stats) of ``complex_dims`` on the columns build(n), n = 0..N;
    each record gains ``build_s``, the seconds build(n) took, the first
    counted from start."""
    deltas, build_s = [], []
    for n in range(N + 1):
        deltas.append(build(n))
        now = perf_counter()
        build_s.append(now - start)
        start = now
    stats = []
    dims = complex_dims(deltas, p, stats)
    for record, seconds in zip(stats, build_s):
        record["build_s"] = seconds
    return dims, stats


@dataclass
class RszComplexLayer:
    degree: int
    basis_p0: list
    basis_p1: list
    columns: list


def rsz_pairs(q: Quiver, top: int) -> tuple:
    """(P0, P1): P0[n] lists Q_n || Q_0 and P1[n] lists Q_n || Q_1, n = 0..top.

    One ``walks`` pass gives every path. A Q_0 pair is (arrows, vertex), a
    closed path at that vertex; a Q_1 pair is (arrows, arrow), a path with
    the arrow's source and target. Both lists are in lexicographic order
    of the path, then of the arrow index.
    """
    between = {}
    for a, ends in enumerate(q.arrows):
        between.setdefault(ends, []).append(a)
    layers = walks(q, top)
    p0 = [[(x, s) for s, t, x in layer if s == t] for layer in layers]
    p1 = [[(x, a) for s, t, x in layer for a in between.get((s, t), ())]
          for layer in layers]
    return p0, p1


def rsz_layer(q: Quiver, pairs: tuple, n: int, p: int) -> RszComplexLayer:
    """Layer n, k(Q_n || Q_0) + k(Q_n || Q_1), and its coboundary.

    ``pairs`` comes from ``rsz_pairs`` and reaches degree n+1. The columns
    are the block map (0 0; D 0) into degree n+1, whose rows are the
    (Q_(n+1) || Q_0) pairs, then the (Q_(n+1) || Q_1) pairs:
    D(gamma, e) = sum over arrows a leaving e of (gamma.a, a), plus
    (-1)^(n+1) times the sum over arrows a entering e of (a.gamma, a),
    and each Q_1 pair maps to zero. Entries are integers over Q (p = 0)
    and signed residues in (-p/2, p/2] over F_p (``_reduced``).
    """
    p0, p1 = pairs[0][n], pairs[1][n]
    shift = len(pairs[0][n + 1])
    rows = {pair: shift + i for i, pair in enumerate(pairs[1][n + 1])}
    sign = 1 if (n + 1) % 2 == 0 else -1
    cols = []
    for gamma, v in p0:
        col = {}
        for a, (s, t) in enumerate(q.arrows):
            if s == v:
                r = rows[gamma + (a,), a]
                col[r] = col.get(r, 0) + 1
            if t == v:
                r = rows[(a,) + gamma, a]
                col[r] = col.get(r, 0) + sign
        cols.append(_reduced(col, p))
    return RszComplexLayer(n, p0, p1, cols + [{} for _ in p1])


def hh_rsz(q: Quiver, field: Field = QQ, N: int = 10) -> HHProfile:
    """Cohomology dims of the radical-square-zero algebra of q, degrees 0..N.

    One ``rsz_pairs`` pass enumerates the paths up to length N+1, at most
    PATH_LAYER_BOUND of each length (``walks``), and ``rsz_layer`` builds
    each degree's block map from it; degree 0's ``build_s`` includes
    that pass. The d^2 = 0 check that `complex_dims` runs here holds by
    the block shape (0 0; D 0) for any D, so it certifies nothing for
    this route; the route is cross-checked by `hh_bar` and the closed
    forms.
    """
    if not (0 <= N <= RSZ_DEGREE_BOUND):
        raise ValueError(f"N must be between 0 and {RSZ_DEGREE_BOUND}")
    p = field.characteristic
    start = perf_counter()
    pairs = rsz_pairs(q, N + 1)
    dims, stats = _timed_dims(lambda n: rsz_layer(q, pairs, n, p).columns,
                              N, p, start)
    return HHProfile(dims, "rsz-complex",
                     f"rsz:{q.vertex_count}v{len(q.arrows)}a", stats)


def bar_budget(field: Field) -> int:
    """The cap on d (d-1)^(N+1), the rows of hh_bar's top coboundary to
    degree N: TWISTLAB_BUDGET when set, else a per-characteristic default."""
    env = os.environ.get("TWISTLAB_BUDGET")
    if env is None:
        if field.characteristic == 0:
            return DEFAULT_BUDGET_CHAR0
        return DEFAULT_BUDGET_CHARP
    try:
        budget = int(env)
    except ValueError:
        budget = 0
    if budget <= 0:
        raise ValueError(f"TWISTLAB_BUDGET must be a positive integer, got {env!r}")
    return budget


def _bar_tables(a: Algebra) -> tuple:
    """The complement of k*1 and the integer tables c and c-bar, times u_j.

    j is the first basis index where the unit u is nonzero; the other basis
    vectors span a complement of k*1. c-bar drops the k*1 component of each
    product, u_j cbar[x][y][m] = u_j c[x][y][m] - c[x][y][j] u[m], which a
    normalized cochain kills.
    """
    p = a.field.characteristic
    c, u = a.int_table, a.int_unit
    j = next(i for i, x in enumerate(u) if x)
    uj = u[j]
    comp = [i for i in range(a.dim) if i != j]
    cu = [[[x * uj for x in cell] for cell in plane] for plane in c]
    cbar = [[[x * uj - cell[j] * y for x, y in zip(cell, u)] for cell in plane]
            for plane in c]
    if p:
        cbar = [[[x % p for x in cell] for cell in plane] for plane in cbar]
    return comp, cu, cbar


def bar_coboundary_columns(a: Algebra, n: int) -> list:
    """Sparse integer columns of the degree-n normalized bar coboundary.

    Column (t, k), t in comp^n, is the normalized cochain sending e_t to
    e_k; row (s, m), s in comp^(n+1), is the e_m coordinate of its
    coboundary at e_s. Tuples over comp are numbered in base e = d - 1,
    and (s, m) sits at s * d + m. Entries are integers over Q and signed
    residues in (-p/2, p/2] over F_p (``_reduced``).
    """
    d = a.dim
    p = a.field.characteristic
    comp, c, cbar = _bar_tables(a)
    e = len(comp)
    # e_x f(t) and +-f(t) e_y land at fixed offsets from t * d and t * e * d
    sign = -1 if (n + 1) % 2 else 1
    first = [
        [(i * e ** n * d + m, c[x][k][m])
         for i, x in enumerate(comp) for m in range(d) if c[x][k][m]]
        for k in range(d)
    ]
    last = [
        [(i * d + m, sign * c[k][y][m])
         for i, y in enumerate(comp) for m in range(d) if c[k][y][m]]
        for k in range(d)
    ]
    # f(.., x y, ..) at digit q: the pair (x, y) replaces digit z of t
    inner = []
    for q in range(n):
        sgn = 1 if q % 2 else -1
        scale = e ** (n - 1 - q) * d
        inner.append([
            [((i * e + i2) * scale, sgn * cbar[x][y][z])
             for i, x in enumerate(comp) for i2, y in enumerate(comp)
             if cbar[x][y][z]]
            for z in comp
        ])
    cols = []
    for t in range(e ** n):
        # per digit q of t: its value z, and t with that digit widened to two
        splits = []
        for q in range(n):
            low = e ** (n - 1 - q)
            head, rest = divmod(t, low * e)
            z, tail = divmod(rest, low)
            splits.append(((head * e * e * low + tail) * d, inner[q][z]))
        for k in range(d):
            col = {}
            for off, v in first[k]:
                r = t * d + off
                col[r] = col.get(r, 0) + v
            for base, terms in splits:
                for off, v in terms:
                    r = base + k + off
                    col[r] = col.get(r, 0) + v
            for off, v in last[k]:
                r = t * e * d + off
                col[r] = col.get(r, 0) + v
            cols.append(_reduced(col, p))
    return cols


def check_bar_budget(field: Field, d: int, N: int) -> None:
    """A ValueError unless N >= 0 and d (d-1)^(N+1), the rows of hh_bar's
    top coboundary for a dim-d algebra to degree N, is within the budget."""
    if N < 0:
        raise ValueError("N must be >= 0")
    budget = bar_budget(field)
    rows = d * (d - 1) ** (N + 1)
    if rows > budget:
        raise ValueError(
            f"the bar budget of {budget} caps d (d-1)^(N+1), which is {rows} "
            f"for dim {d} at degree {N}; lower N or raise TWISTLAB_BUDGET"
        )


def hh_bar(a: Algebra, N: int) -> HHProfile:
    """Cohomology dims, degrees 0..N, from the normalized bar complex
    Hom((A/k*1)^(x)n, A), by exact sparse elimination."""
    check_bar_budget(a.field, a.dim, N)
    dims, stats = _timed_dims(lambda n: bar_coboundary_columns(a, n), N,
                              a.field.characteristic, perf_counter())
    return HHProfile(dims, "bar-complex", f"bar:dim{a.dim}", stats)


def block_quiver(a: Algebra, idempotents: list) -> Quiver:
    """The block quiver of a = E + J, certified by one isomorphism.

    Requires E spanned by the given complete orthogonal idempotents e_u, J
    the radical, and J^2 = 0. The Peirce basis (the e_u, then the
    ``integer_echelon`` rows of each block e_u J e_v, spanned by integer
    products of the rows of J from ``_radical_chain`` and the idempotents
    times their common scale D) names the block quiver Q: a vertex u per
    idempotent and an arrow u -> v per vector of e_u J e_v, in that order.
    Under the hypotheses the Peirce basis maps the truncated path algebra
    of Q isomorphically onto a, and one ``is_isomorphism`` check certifies
    all of them at once; a ValueError when it fails. Its matrix is the
    Peirce basis over D: the e_u exactly, each arrow's image a nonzero
    multiple of its block vector, which is as good for an isomorphism. So
    every isomorphism invariant of a, HH among them, may be computed on
    ``truncated_path_algebra(Q)``.
    """
    f = a.field
    p = f.characteristic
    d = a.dim
    c = a.int_table
    if any(len(e) != d for e in idempotents):
        raise ValueError(f"each idempotent needs {d} coordinates")
    ne = len(idempotents)
    ints, scale = scale_to_integers(idempotents, p)
    chain = _radical_chain(a)
    jrows = chain[0] if chain else []
    peirce, arrows = list(ints), []
    for u in range(ne):
        for v in range(ne):
            part = integer_echelon([
                _product(c, ints[u], _product(c, w, ints[v])) for w in jrows], p)
            peirce.extend(part)
            arrows.extend([(u, v)] * len(part))
    no_split = ("the Peirce basis is not an isomorphism from the block "
                "quiver's truncated path algebra: a = E + J needs complete "
                "orthogonal idempotents spanning E and J^2 = 0")
    if len(peirce) != d:
        raise ValueError(no_split)
    q = Quiver(ne, arrows)
    iso = Matrix._from_integer_form(f, d, d, [list(r) for r in zip(*peirce)], scale)
    if not is_isomorphism(iso, truncated_path_algebra(q, f), a):
        raise ValueError(no_split)
    return q


def hh_e_complex(a: Algebra, idempotents: list, N: int) -> HHProfile:
    """Cohomology of 0 -> R^E -> Hom(J, R) -> Hom(J (x)_E J, R) -> ...

    Requires a = E + J with E spanned by the given complete orthogonal
    idempotents, J the radical, and J^2 = 0; ``block_quiver`` reads the
    block quiver Q off the Peirce basis and certifies the split, a
    ValueError when it fails. The complex is then Q's parallel-paths
    complex (Cibils 1998): its basis pair (path, m), a path of Q from u to
    v and a basis vector m of the block (u, v), is ``rsz_layer``'s pair
    (path, vertex m) or (path, arrow m - |Q_0|), and each column is
    ``rsz_layer``'s times (-1)^(n+1). So the dims are ``hh_rsz``'s on Q,
    with its degree bound RSZ_DEGREE_BOUND and its path-layer bound
    (``walks``).
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    if N > RSZ_DEGREE_BOUND:
        raise ValueError(f"N must be between 0 and {RSZ_DEGREE_BOUND}")
    rsz = hh_rsz(block_quiver(a, idempotents), a.field, N)
    return HHProfile(rsz.dims, "e-complex", f"e-complex:dim{a.dim}", rsz.stats)


def thm_formula(q: Quiver, n: int):
    """Closed form for connected non-crown quivers; None off-hypothesis.

    Degree 0: #(Q_1 || Q_0) + 1. Degree 1: #(Q_1 || Q_1) - #Q_0 + 1.
    Degree n >= 2: #(Q_n || Q_1) - #(Q_{n-1} || Q_0). The counts come from
    one ``rsz_pairs`` pass; n is bounded by RSZ_DEGREE_BOUND, as in hh_rsz,
    and each path layer by PATH_LAYER_BOUND (``walks``).
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    if not is_connected(q) or is_crown(q) is not None:
        return None
    if n > RSZ_DEGREE_BOUND:
        raise ValueError(f"degree {n} exceeds bound {RSZ_DEGREE_BOUND}")
    p0, p1 = rsz_pairs(q, max(n, 1))
    if n == 0:
        return len(p0[1]) + 1
    if n == 1:
        return len(p1[1]) - q.vertex_count + 1
    return len(p1[n]) - len(p0[n - 1])


def crown_formula(c: int, n: int, characteristic: int = 0) -> int:
    """dim HH^n for the c-crown: 1 when n or n-1 is an even multiple of c."""
    if c < 2:
        raise ValueError("crown formula needs c >= 2")
    if characteristic == 2:
        raise ValueError("crown formula assumes characteristic != 2")
    if n < 0:
        raise ValueError("degree must be >= 0")

    def hit(m: int) -> bool:
        return m >= 0 and m % 2 == 0 and m % c == 0

    return 1 if hit(n) or hit(n - 1) else 0


def verify_counterexample(N: int, field: Field = QQ) -> dict:
    """Separable x separable with invertible twist, yet HH^n nonzero for all n.

    Builds the line-family map at alpha = 2, checks both factors are
    separable and the map invertible, and certifies nonvanishing
    cohomology of the product through degree N by two routes, both on
    the block quiver of the split e = (-1/2, -1, 1/2, 1), 1 - e, which
    ``block_quiver`` certifies: ``hh_rsz`` through N, and ``hh_bar``
    through 4 over Q and 5 over F_p on its truncated path algebra, with 6
    nonzero structure constants to the product's 20. Refutes
    any bound of the form 'Hochschild dimension of a twisted tensor
    product is at most the sum of the factors' dimensions' (both
    factors have dimension 0 here).
    """
    from .algebra import standard_algebra
    from .twisting import (
        TwistFamilyDescriptor,
        family_member,
        is_invertible,
        twisted_product,
    )

    if field.characteristic == 2:
        raise ValueError("the counterexample needs characteristic != 2")
    if not (2 <= N <= RSZ_DEGREE_BOUND):
        raise ValueError(f"N must be between 2 and {RSZ_DEGREE_BOUND}")
    a = standard_algebra("group_algebra_z2", field)
    b = standard_algebra("group_algebra_z2", field)
    t = family_member(TwistFamilyDescriptor("line_char_ne_2", 2), a, b)
    prod = twisted_product(t)
    e = [field.scalar(x) for x in (Fraction(-1, 2), -1, Fraction(1, 2), 1)]
    if prod.multiply_coords(e, e) != e:
        raise RuntimeError("e = (-1/2, -1, 1/2, 1) is not idempotent in the "
                           "alpha = 2 product")
    # 1 - e, the unit being e_0: block_quiver's isomorphism needs e + (1 - e) = 1
    e_bar = [field.scalar(x) for x in (Fraction(3, 2), 1, Fraction(-1, 2), -1)]
    q = block_quiver(prod, [e, e_bar])
    rsz = hh_rsz(q, field, N)
    n_bar = min(N, 4 if field.characteristic == 0 else 5)
    bar = hh_bar(truncated_path_algebra(q, field), n_bar)
    report = {
        "field": field.name,
        "alpha": field.scalar_to_str(field.scalar(2)),
        "factor_a_separable": is_separable(a),
        "factor_b_separable": is_separable(b),
        "twist_invertible": is_invertible(t),
        "product_radical_dims": radical_power_dims(prod),
        "product_center_dim": len(center(prod)),
        "block_quiver": q.to_doc(),
        "rsz_dims": rsz.dims,
        "bar_dims": bar.dims,
        "nonvanishing_through": N,
        "refuted_bound": "sum of factor Hochschild dimensions (= 0 + 0)",
    }
    ok = (
        report["factor_a_separable"]
        and report["factor_b_separable"]
        and report["twist_invertible"]
        and report["product_radical_dims"] == [2, 0]
        and report["product_center_dim"] == 1
        and q == standard_quiver("roundtrip")
        and all(x == 1 for x in rsz.dims)
        and all(x == 1 for x in bar.dims)
    )
    if not ok:
        raise RuntimeError(f"counterexample sub-assertion failed: {report}")
    report["verdict"] = "counterexample confirmed"
    return report
