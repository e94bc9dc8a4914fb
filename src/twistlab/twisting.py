"""Twisting maps tau: B(x)A -> A(x)B and their twisted tensor products.

Basis convention, fixed globally: the input index of e_i^B (x) e_j^A is
i*dim_A + j and the output index of e_k^A (x) e_l^B is k*dim_B + l.

The complete finite-field census is the ground truth here; the
closed-form solution set is validated against it, and two typos in the
published census list are carried as erratum records, not reproduced.

The product (mu_A (x) mu_B)(A (x) tau (x) B) of A (x)_tau B is written
once, in `_tau_mul`: `twisted_product` tabulates it, and `_twist_failures`,
an exact scan of basis triples, checks (tw2) and (tw3) as two identities
in it, tau(b (x) aa') = tau(b (x) a)(a' (x) 1) and
tau(bb' (x) a) = (1 (x) b) tau(b' (x) a).  `verify_twisting` runs the scan
over every triple.  The census runs it once, on columns of polynomial
variables, over the triples with no unit index (once (tw1) makes tau the
flip on unit pairs, (tw2) and (tw3) hold on any triple with the unit), and
solves the equations it yields mod p by constraint propagation
(`census_search`).

All of it is on integers: the scan, the product and the unit checks read
the integer forms of tau (``Matrix.ints``, scale D_tau) and of the two
algebras, and multiply each side of an identity by the scales it lacks.

`census_rows` gives the census over any field: the enumerated maps over
F_p, the closed-form families over Q with the line left symbolic.
`census_row_strings` is the one place a row becomes text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fields import Field
from .algebra import Algebra, _combine, _differ, standard_algebra
from .linalg import Matrix

ENUM_BITS_BOUND = 40

CENSUS_ERRATA = [
    {
        "id": "census-line-family-form",
        "printed": "tau(b(x)a) = -(1(x)1) + alpha*(a(x)b)",
        "computed": "tau(b(x)a) = alpha*(1(x)1) - (a(x)b); the printed form "
                    "fails (tw2) or (tw3) except at alpha = -1, e.g. (tw3) "
                    "fails at alpha = 0",
        "adjudicated_by": "enumerate_twisting_maps",
    },
    {
        "id": "census-isolated-v-parameter",
        "printed": "tau(b(x)a) = (1(x)1) + alpha*(1(x)b) - (a(x)1) with a stray "
                    "free parameter",
        "computed": "a single map, at alpha = 1: tau(b(x)a) = (1(x)1) + (1(x)b) "
                    "- (a(x)1)",
        "adjudicated_by": "enumerate_twisting_maps",
    },
]


class TwistingMap:
    """A verified solution of (tw1)-(tw3); only issued after the check."""

    __slots__ = ("source_a", "source_b", "matrix")

    def __init__(self, source_a: Algebra, source_b: Algebra, matrix: Matrix):
        report = verify_twisting(source_a, source_b, matrix)
        if not (report["tw1"] and report["tw2"] and report["tw3"]):
            raise ValueError(f"not a twisting map: {report}")
        self.source_a = source_a
        self.source_b = source_b
        self.matrix = matrix

    def __repr__(self) -> str:
        return f"TwistingMap({self.source_b!r} (x) {self.source_a!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TwistingMap)
            and other.matrix == self.matrix
            and [(x.int_table, x.scale) for x in (other.source_a, other.source_b)]
            == [(x.int_table, x.scale) for x in (self.source_a, self.source_b)]
        )


def _tau_mul(cols, a: Algebra, b: Algebra):
    """The product (x, y) -> x * y of A (x)_tau B, where ``cols[j*dim_A+k]``
    is tau(e_j^B (x) e_k^A): the sum of x_(i,j) y_(k,l) a_i tau(b_j (x) a_k)
    b_l, on integers or `census_search.Poly` values, left unreduced.
    It reads the integer tables, so it is D_A D_B times the product.  Only
    nonzero entries are multiplied."""
    da, db = a.dim, b.dim
    pos = [divmod(r, db) for r in range(da * db)]
    taus = [[(m, n, c) for (m, n), c in zip(pos, col) if c] for col in cols]
    acells = [[(s * db, c) for s, c in enumerate(cell) if c]
              for plane in a.int_table for cell in plane]
    bcells = [[(u, c) for u, c in enumerate(cell) if c]
              for plane in b.int_table for cell in plane]

    def mul(x, y) -> list:
        out = [0] * len(pos)
        for (k, l), cy in zip(pos, y):
            if cy:
                for (i, j), cx in zip(pos, x):
                    if cx:
                        # unit and basis tensors have coefficients 1
                        cxy = cx if cy == 1 else cx * cy
                        for m, n, ct in taus[j * da + k]:
                            c = cxy * ct
                            for sdb, ca in acells[i * da + m]:
                                for u, cb in bcells[n * db + l]:
                                    out[sdb + u] += c * (ca * cb)
        return out

    return mul


def _unit_tensors(a: Algebra, b: Algebra) -> tuple:
    """([a_k (x) 1_B for each k], [1_A (x) b_i for each i]), from the
    integer units: D_B and D_A times the true ones."""
    da, db = a.dim, b.dim
    one_b = [[0] * (da * db) for _ in range(db)]
    for i, v in enumerate(one_b):
        v[i::db] = a.int_unit
    return [[0] * (k * db) + b.int_unit + [0] * ((da - 1 - k) * db)
            for k in range(da)], one_b


def _twist_failures(cols, a: Algebra, b: Algebra, a_idx, b_idx, scale=1):
    """Yield each basis triple where (tw2) or (tw3) fails, all (tw2) first.

    ``cols[i*dim_A+j]`` is scale times tau(e_i^B (x) e_j^A) in the output
    basis, as integers or `census_search.Poly` values.  (tw2) is
    tau(b_i (x) a_j a_k) = tau(b_i (x) a_j) * (a_k (x) 1_B) and (tw3) is
    tau(b_i b_j (x) a_k) = (1_A (x) b_i) * tau(b_j (x) a_k), both products
    in A (x)_tau B (`_tau_mul`).  They are tried with B-indices from
    ``b_idx`` and A-indices from ``a_idx``, each triple in lexicographic
    order; each failure is yielded as ``("tw2", (i, j, k), residual)`` or
    ``("tw3", ...)``, with the unreduced coordinates of lhs - rhs as
    ``residual``.  Both sides are on the integer forms (scales D_A, D_B,
    and D_tau = ``scale`` for tau): the (tw2) right side is quadratic in
    tau, D_A D_B^2 D_tau^2 times the true one (`_tau_mul` and the unit in
    a_k (x) 1_B), and the left side linear, so it is read from D_B^2 D_tau
    times A's table; likewise (tw3) reads D_A^2 D_tau times B's table.
    """
    p = a.field.characteristic
    da, d = a.dim, a.dim * b.dim
    mul = _tau_mul(cols, a, b)
    a_one, one_b = _unit_tensors(a, b)
    atab, btab = ([[[k * x for x in cell] for cell in plane] for plane in t.int_table]
                  for k, t in ((b.scale ** 2 * scale, a), (a.scale ** 2 * scale, b)))
    for i in b_idx:
        for j in a_idx:
            for k in a_idx:
                lhs = _combine(atab[j][k], cols[i * da:(i + 1) * da], d)
                rhs = mul(cols[i * da + j], a_one[k])
                if _differ(lhs, rhs, p):
                    yield "tw2", (i, j, k), [x - y for x, y in zip(lhs, rhs)]
    for i in b_idx:
        for j in b_idx:
            for k in a_idx:
                lhs = _combine(btab[i][j], cols[k::da], d)
                rhs = mul(one_b[i], cols[j * da + k])
                if _differ(lhs, rhs, p):
                    yield "tw3", (i, j, k), [x - y for x, y in zip(lhs, rhs)]


def verify_twisting(a: Algebra, b: Algebra, m: Matrix) -> dict:
    """Check (tw1)-(tw3) exactly on basis tensors of the matrix columns.

    (tw1) is read off the columns directly, on the integer forms (each
    side of tau(b (x) 1) = 1 (x) b is D_A D_tau times the true one, and
    each side of tau(1 (x) a) = a (x) 1 D_B D_tau times it, D_tau the
    matrix scale).  (tw2) and (tw3) come from
    `_twist_failures` over every basis triple, units included: unlike the
    census filter, which skips the triples with a unit index, this check
    cannot assume (tw1), and the unit need not be a basis vector.
    Reports the first failing basis tuple per condition: an index for the
    unitality checks, a triple for the multiplicativity checks.
    """
    if a.field != b.field or a.field != m.field:
        raise ValueError("field mismatch")
    da, db = a.dim, b.dim
    if (m.rows, m.cols) != (da * db, db * da):
        raise ValueError(f"twisting matrix must be {da * db}x{db * da}")
    p = a.field.characteristic
    d = da * db
    cols = list(zip(*m.ints))
    a_one, one_b = ([[m.scale * x for x in v] for v in side]
                    for side in _unit_tensors(a, b))

    failures = {}
    # tw1: tau(b (x) 1) = 1 (x) b and tau(1 (x) a) = a (x) 1
    bad = next((i for i in range(db) if _differ(
        _combine(a.int_unit, cols[i * da:(i + 1) * da], d), one_b[i], p)),
        None)
    if bad is not None:
        failures["tw1"] = ("b (x) unit_A", bad)
    else:
        bad = next((j for j in range(da) if _differ(
            _combine(b.int_unit, cols[j::da], d), a_one[j], p)), None)
        if bad is not None:
            failures["tw1"] = ("unit_B (x) a", bad)
    for cond, triple, _ in _twist_failures(cols, a, b, range(da), range(db),
                                           m.scale):
        failures.setdefault(cond, triple)
    return {
        "tw1": "tw1" not in failures,
        "tw2": "tw2" not in failures,
        "tw3": "tw3" not in failures,
        "failures": failures,
    }


def flip(a: Algebra, b: Algebra) -> TwistingMap:
    """tau(b (x) a) = a (x) b on every basis pair."""
    if a.field != b.field:
        raise ValueError("field mismatch")
    da, db = a.dim, b.dim
    d = da * db
    # column i*da + j, for b_i (x) a_j, is 1 at row j*db + i, for a_j (x) b_i
    ints = [[int(r == c % da * db + c // da) for c in range(d)] for r in range(d)]
    return TwistingMap(a, b, Matrix._from_integer_form(a.field, d, d, ints, 1))


def twisted_product(t: TwistingMap) -> Algebra:
    """The algebra on A(x)B with product (mu_A (x) mu_B)(A (x) tau (x) B):
    `_tau_mul` on pairs of basis tensors, with unit 1_A (x) 1_B.  On the
    integer forms of tau (scale D_tau), A and B, the table and unit are
    D_tau D_A D_B times the true ones, handed over as the product's
    integer form."""
    a, b = t.source_a, t.source_b
    d = a.dim * b.dim
    dt = t.matrix.scale
    mul = _tau_mul(list(zip(*t.matrix.ints)), a, b)
    basis = [[int(r == s) for r in range(d)] for s in range(d)]
    labels = [f"{la}⊗{lb}" for la in a.basis_labels for lb in b.basis_labels]
    return Algebra._from_integer_form(
        a.field, labels, [[mul(x, y) for y in basis] for x in basis],
        [dt * x * y for x in a.int_unit for y in b.int_unit],
        dt * a.scale * b.scale)


def is_invertible(t: TwistingMap) -> bool:
    return t.matrix.rank() == t.matrix.rows


def _unit_basis_index(alg: Algebra) -> int:
    nz = [i for i, x in enumerate(alg.int_unit) if x]
    if len(nz) != 1 or alg.int_unit[nz[0]] != alg.scale:
        raise ValueError(
            "enumeration requires the unit to be a basis vector; "
            "change basis first"
        )
    return nz[0]


def _search_space_bits(a: Algebra, b: Algebra) -> float:
    """log2 of the size of the space ``enumerate_twisting_maps`` searches.

    Both units must be basis vectors; every column but those on unit pairs
    is free: (dim a - 1)(dim b - 1) columns of dim a * dim b scalars.  A
    ValueError when that exceeds ENUM_BITS_BOUND, so the bound is checked
    without running a search.  The bound caps the size of the space, not
    the number of assignments tried, which propagation keeps far smaller.
    """
    f = a.field
    if f != b.field:
        raise ValueError("field mismatch")
    if f.characteristic == 0:
        raise ValueError("enumeration needs a finite prime field")
    for alg in (a, b):
        _unit_basis_index(alg)
    da, db = a.dim, b.dim
    bits = (da - 1) * (db - 1) * da * db * math.log2(f.characteristic)
    if bits > ENUM_BITS_BOUND:
        # rounded up: a space just past the bound must not read as on it
        raise ValueError(
            f"search space of {math.ceil(bits * 10) / 10:.1f} bits exceeds "
            f"the {ENUM_BITS_BOUND}-bit bound"
        )
    return bits


def enumerate_twisting_maps(a: Algebra, b: Algebra) -> list:
    """The complete census over a prime field, by constraint propagation.

    tau is fixed on unit pairs by (tw1); (tw2) and (tw3) are then equations
    in the scalars of the other columns, derived once and solved exactly
    (`census_search`).  The maps come in the lexicographic order of those
    scalars, each verified in full by TwistingMap.
    """
    # loaded on first use, so that importing twistlab does not load it
    from .census_search import census_equations, common_zeros

    _search_space_bits(a, b)
    f = a.field
    cols, nvars, equations = census_equations(a, b)
    found = []
    for values in common_zeros(equations, nvars, f.characteristic):
        it = iter(values)
        tau = [[x if isinstance(x, int) else next(it) for x in col]
               for col in cols]
        m = Matrix(f, len(tau), len(tau), list(zip(*tau)))
        found.append(TwistingMap(a, b, m))
    return found


@dataclass(frozen=True)
class TwistFamilyDescriptor:
    """A census family; parameter is the line coordinate when materialized."""

    family_id: str
    parameter: object = None


LINE_FAMILIES = {"line_char_ne_2", "char2_line_i", "char2_line_ii"}

_ISOLATED_QR = {
    "isolated_iii": (1, 1),
    "isolated_iv": (-1, 1),
    "isolated_v": (1, -1),
    "isolated_vi": (-1, -1),
}


def solve_2dim_twist(field: Field) -> list:
    """Solution set of the (tw2)/(tw3) system for two copies of k[Z2].

    Writing tau(b(x)a) = p(1(x)1) + q(1(x)b) + r(a(x)1) + s(a(x)b), the
    system reduces to q^2+s^2 = 1, r^2+s^2 = 1, 2qs = 2rs = 0,
    pq + r(1+s) = 0, p(1+s) + qr = 0, q(1+s) + rp = 0.
    """
    if field.characteristic == 2:
        return [
            TwistFamilyDescriptor("char2_line_i"),
            TwistFamilyDescriptor("char2_line_ii"),
        ]
    return [
        TwistFamilyDescriptor("flip"),
        TwistFamilyDescriptor("line_char_ne_2"),
        TwistFamilyDescriptor("isolated_iii"),
        TwistFamilyDescriptor("isolated_iv"),
        TwistFamilyDescriptor("isolated_v"),
        TwistFamilyDescriptor("isolated_vi"),
    ]


def descriptor_scalars(d: TwistFamilyDescriptor, field: Field) -> tuple:
    """The (p, q, r, s) coordinates of tau(b(x)a) for a census family."""
    char2 = field.characteristic == 2
    if d.family_id == "flip":
        if char2:
            raise ValueError("the char-2 census lists the flip inside family (i)")
        pqrs = (0, 0, 0, 1)
    elif d.family_id == "line_char_ne_2":
        if char2:
            raise ValueError("line_char_ne_2 requires characteristic != 2")
        if d.parameter is None:
            raise ValueError("line family needs a parameter value")
        pqrs = (d.parameter, 0, 0, -1)
    elif d.family_id in _ISOLATED_QR:
        if char2:
            raise ValueError("the isolated maps require characteristic != 2")
        if d.parameter is not None:
            raise ValueError("isolated maps carry no parameter")
        q, r = _ISOLATED_QR[d.family_id]
        pqrs = (-q * r, q, r, 0)
    elif d.family_id in ("char2_line_i", "char2_line_ii"):
        if not char2:
            raise ValueError(f"{d.family_id} requires characteristic 2")
        if d.parameter is None:
            raise ValueError("line family needs a parameter value")
        alpha = field.scalar(d.parameter)
        pqrs = ((alpha, 0, 0, 1) if d.family_id == "char2_line_i"
                else (alpha, alpha, alpha, alpha + 1))
    else:
        raise ValueError(f"unknown family {d.family_id!r}")
    return tuple(map(field.scalar, pqrs))


def family_member(d: TwistFamilyDescriptor, a: Algebra, b: Algebra) -> TwistingMap:
    """Materialize a census family member between two k[Z2] presentations."""
    f = a.field
    if f != b.field:
        raise ValueError("field mismatch")
    if a.dim != 2 or b.dim != 2 or _unit_basis_index(a) != 0 or _unit_basis_index(b) != 0:
        raise ValueError("census families live on 2-dim algebras with unit first")
    pv, qv, rv, sv = descriptor_scalars(d, f)
    # columns: 1(x)1 -> 1(x)1, 1(x)a -> a(x)1, b(x)1 -> 1(x)b, then tau(b(x)a)
    cols = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [pv, qv, rv, sv]]
    return TwistingMap(a, b, Matrix(f, 4, 4, list(zip(*cols))))


def scalars_of_map(t: TwistingMap) -> tuple:
    """(p, q, r, s) of tau(b(x)a) for a 2-dim census member."""
    return tuple(t.matrix.col(3))


def identify_family(t: TwistingMap) -> TwistFamilyDescriptor:
    """Match a 2-dim census member to its family, parameter included.

    The first family of ``solve_2dim_twist`` whose ``descriptor_scalars``
    equal the map's wins; a line family takes p as its parameter. Over
    GF(2) at p = 0 both char-2 lines hold the map, and family (i) wins.
    """
    f = t.matrix.field
    scalars = scalars_of_map(t)
    for desc in solve_2dim_twist(f):
        if desc.family_id in LINE_FAMILIES:
            desc = TwistFamilyDescriptor(desc.family_id, scalars[0])
        if descriptor_scalars(desc, f) == scalars:
            return desc
    raise ValueError("map does not match any census family")


CENSUS_TSV_HEADER = "family\tparameter\tp\tq\tr\ts\tinvertible"


def census_rows(field: Field) -> list:
    """One record per census member, over F_p or over Q.

    Over F_p every enumerated map is matched to its family.  Over Q the rows
    are the families of ``solve_2dim_twist``; the line stays symbolic, with
    p = "alpha" and no map, and is invertible for every alpha (its tau has
    determinant 1).
    """
    f = field
    z2 = standard_algebra("group_algebra_z2", f)
    if f.characteristic:
        members = [(identify_family(t), t) for t in enumerate_twisting_maps(z2, z2)]
    else:
        members = [(d, None if d.family_id in LINE_FAMILIES
                    else family_member(d, z2, z2)) for d in solve_2dim_twist(f)]
    rows = []
    for desc, t in members:
        if t is None:
            pv, qv, rv, sv = "alpha", f.zero, f.zero, f.scalar(-1)
        else:
            pv, qv, rv, sv = scalars_of_map(t)
        rows.append({
            "family": desc.family_id,
            "parameter": desc.parameter,
            "p": pv, "q": qv, "r": rv, "s": sv,
            "invertible": t is None or is_invertible(t),
            "map": t,
        })
    return rows


def census_row_strings(row: dict, field: Field) -> dict:
    """The row's cells as text, ``invertible`` kept a bool: "-" for no
    parameter, a symbolic value such as "alpha" kept as it is."""
    def s(x):
        if x is None:
            return "-"
        return x if isinstance(x, str) else field.scalar_to_str(x)

    cells = {k: s(row[k]) for k in ("family", "parameter", "p", "q", "r", "s")}
    cells["invertible"] = row["invertible"]
    return cells


def census_tsv(rows, field: Field) -> str:
    lines = [CENSUS_TSV_HEADER]
    for r in rows:
        cells = census_row_strings(r, field)
        invertible = cells.pop("invertible")
        lines.append("\t".join([*cells.values(), "yes" if invertible else "no"]))
    return "\n".join(lines) + "\n"
