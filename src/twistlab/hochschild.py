"""Hochschild cohomology dimensions by three independent routes.

Routes: the parallel-paths cochain complex for radical-square-zero
quiver algebras, the normalized bar complex Hom((A/k*1)^(x)n, A) for
arbitrary small algebras (quasi-isomorphic to the full bar complex, with
cochain dimension d (d-1)^n instead of d^(n+1)), and the reduced complex
Hom_(E-E)(J^(x)_E n, A) of a decomposition A = E + J with J^2 = 0, where E
is spanned by complete orthogonal idempotents. The last one works in the
Peirce basis (the idempotents, then a basis of each block e_u J e_v), in
which each cochain space is an index set and each coboundary entry is one
signed structure constant, 0 or 1 there. Every route emits sparse integer
columns into one function, ``complex_dims``, which checks d^2 = 0 and then
takes the ranks with clearing: each degree eliminates only the columns
that are not pivots of the degree before. The two table-driven routes
read the algebra's integer table (``Algebra.int_table``). Closed-form
evaluators cover connected non-crown quivers and crowns.

Ground-truth hierarchy when values disagree: normalized bar complex, then
the two structural complexes, then closed-form formulas, then printed
sources.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .fields import Field, QQ
from .algebra import (
    Algebra,
    Element,
    center,
    change_of_basis,
    is_separable,
    jacobson_radical,
    radical_power_dims,
)
from .linalg import Matrix, echelon_basis, sparse_compose_zero, sparse_echelon
from .quivers import Quiver, standard_quiver, walks

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

    def to_doc(self) -> dict:
        return {
            "algebra_tag": self.algebra_tag,
            "method": self.method,
            "dims": list(self.dims),
        }


def _reduced(col: dict, p: int) -> dict:
    """A sparse integer column without its zero entries, reduced mod p
    over F_p (p > 0)."""
    if p:
        return {r: x % p for r, x in col.items() if x % p}
    return {r: x for r, x in col.items() if x}


def complex_dims(deltas: list, p: int) -> list:
    """Cohomology dims of a cochain complex given by sparse integer columns.

    ``deltas[n]`` maps degree n into degree n+1, one dict {row: int} per
    basis element of degree n, so dim C^n is its length; entries are
    integers over Q (p = 0) and residues over F_p. The composite of each
    consecutive pair is checked to vanish, on the full columns, before any
    rank is taken; then rank-nullity gives
    dim H^n = dim C^n - rank d^n - rank d^(n-1).

    Clearing: rank d^(n+1) is the rank of its columns j that are not
    pivots of d^n, so only those are eliminated. Each row ``sparse_echelon``
    keeps for d^n has as pivot i its largest index, and no two share one,
    so the rows are triangular: a change of basis puts them in place of
    the basis vectors i of C^(n+1). Each is a coboundary, which d^(n+1)
    kills. The rule rests on these distinct largest indices, on d^2 = 0
    (checked first), and on the row numbering of ``deltas[n]`` being the
    column numbering of ``deltas[n+1]``. Only the pivot set is carried
    over.
    """
    for n in range(len(deltas) - 1):
        if not sparse_compose_zero(deltas[n + 1], deltas[n], p):
            raise AssertionError(f"coboundary square nonzero at degree {n}")
    ranks = []
    pivots = set()
    for cols in deltas:
        pivots = set(sparse_echelon(
            [col for j, col in enumerate(cols) if j not in pivots], p))
        ranks.append(len(pivots))
    return [
        len(cols) - ranks[n] - (ranks[n - 1] if n else 0)
        for n, cols in enumerate(deltas)
    ]


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
    and residues over F_p.
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

    One ``rsz_pairs`` pass enumerates the paths up to length N+1, and
    ``rsz_layer`` builds each degree's block map from it. The d^2 = 0 check
    that `complex_dims` runs here holds by the block shape (0 0; D 0) for
    any D, so it certifies nothing for this route; the route is
    cross-checked by `hh_e_complex` and the closed forms.
    """
    if not (0 <= N <= RSZ_DEGREE_BOUND):
        raise ValueError(f"N must be between 0 and {RSZ_DEGREE_BOUND}")
    p = field.characteristic
    pairs = rsz_pairs(q, N + 1)
    layers = [rsz_layer(q, pairs, n, p) for n in range(N + 1)]
    dims = complex_dims([layer.columns for layer in layers], p)
    return HHProfile(dims, "rsz-complex", f"rsz:{q.vertex_count}v{len(q.arrows)}a")


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
    and (s, m) sits at s * d + m. Entries are integers over Q and residues
    over F_p.
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


def hh_bar(a: Algebra, N: int) -> HHProfile:
    """Cohomology dims, degrees 0..N, from the normalized bar complex
    Hom((A/k*1)^(x)n, A), by exact sparse elimination."""
    if N < 0:
        raise ValueError("N must be >= 0")
    d = a.dim
    budget = bar_budget(a.field)
    rows = d * (d - 1) ** (N + 1)
    if rows > budget:
        raise ValueError(
            f"the bar budget of {budget} caps d (d-1)^(N+1), which is {rows} "
            f"for dim {d} at degree {N}; lower N or raise TWISTLAB_BUDGET"
        )
    deltas = [bar_coboundary_columns(a, n) for n in range(N + 1)]
    dims = complex_dims(deltas, a.field.characteristic)
    return HHProfile(dims, "bar-complex", f"bar:dim{d}")


def hh_e_complex(a: Algebra, idempotents: list, N: int) -> HHProfile:
    """Cohomology of 0 -> R^E -> Hom(J, R) -> Hom(J (x)_E J, R) -> ...

    Requires a = E + J with E spanned by the given complete orthogonal
    idempotents, J the radical, and J^2 = 0. The algebra is moved once
    into its Peirce basis (``change_of_basis``): the idempotents e_u, then
    an echelon basis of each block e_u J e_v, so that each basis vector
    lies in one block e_u A e_v. There R^E is spanned by the diagonal-block
    vectors, and degree n by the pairs (chain, m): radical basis vectors
    j_1, ..., j_n in blocks (u_1, v_1), ..., (u_n, v_n) with v_i = u_(i+1),
    and a basis vector m in block (u_1, v_n); degree 0 is the empty chain
    with a diagonal m. The coboundary
        (df)(j_0, ..., j_n) = j_0 f(j_1, ..., j_n)
                              + (-1)^(n+1) f(j_0, ..., j_(n-1)) j_n
    has as entries the signed constants c[k][m] and c[m][k] of the
    transported integer table. Since e_u j = j = j e_v for j in e_u J e_v
    and J^2 = 0, each product of two Peirce basis vectors is 0 or a basis
    vector: the constants are 0 and 1, whatever fractions the given table
    has.
    """
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

    # the Peirce basis and the block (u, v) of each of its vectors
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
    # b_k b_m and b_m b_k for radical b_k as (k, row, constant), nonzero only
    left = [[(k, r, x) for k in rad for r, x in enumerate(c[k][m]) if x]
            for m in range(d)]
    right = [[(k, r, x) for k in rad for r, x in enumerate(c[m][k]) if x]
             for m in range(d)]

    def delta(n: int) -> list:
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
            cols.append(_reduced(col, p))
        return cols

    dims = complex_dims([delta(n) for n in range(N + 1)], p)
    return HHProfile(dims, "e-complex", f"e-complex:dim{d}")


def thm_formula(q: Quiver, n: int):
    """Closed form for connected non-crown quivers; None off-hypothesis.

    Degree 0: #(Q_1 || Q_0) + 1. Degree 1: #(Q_1 || Q_1) - #Q_0 + 1.
    Degree n >= 2: #(Q_n || Q_1) - #(Q_{n-1} || Q_0).
    """
    from .quivers import is_connected, is_crown, parallel_count

    if n < 0:
        raise ValueError("degree must be >= 0")
    if not is_connected(q) or is_crown(q) is not None:
        return None
    if n == 0:
        return parallel_count(q, 1, 0) + 1
    if n == 1:
        return parallel_count(q, 1, 1) - q.vertex_count + 1
    return parallel_count(q, n, 1) - parallel_count(q, n - 1, 0)


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
    cohomology of the product through degree N by two routes. Refutes
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
    if N < 2:
        raise ValueError("N must be >= 2")
    a = standard_algebra("group_algebra_z2", field)
    b = standard_algebra("group_algebra_z2", field)
    t = family_member(TwistFamilyDescriptor("line_char_ne_2", 2), a, b)
    prod = twisted_product(t)
    rsz = hh_rsz(standard_quiver("roundtrip"), field, N)
    n_bar = min(N, 4 if field.characteristic == 0 else 5)
    bar = hh_bar(prod, n_bar)
    report = {
        "field": field.name,
        "alpha": field.scalar_to_str(field.scalar(2)),
        "factor_a_separable": is_separable(a),
        "factor_b_separable": is_separable(b),
        "twist_invertible": is_invertible(t),
        "product_radical_dims": radical_power_dims(prod),
        "product_center_dim": len(center(prod)),
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
        and all(x == 1 for x in rsz.dims)
        and all(x == 1 for x in bar.dims)
    )
    if not ok:
        raise RuntimeError(f"counterexample sub-assertion failed: {report}")
    report["verdict"] = "counterexample confirmed"
    return report
