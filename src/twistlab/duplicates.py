"""Duplicates of k^n: algebras A(x)k[X]/(X^2-X) from an (f, delta) pair.

The defining rule is X*a = delta(a) + f(a)*X. Validity of a pair is
decided by the checkable matrix conditions plus associativity of the
built product; which twisted-Leibniz rule delta satisfies is reported
as metadata rather than assumed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul

from .fields import Field
from .algebra import Algebra, _differ, is_algebra_map
from .linalg import Matrix, scale_to_integers
from .twisting import TwistingMap


@dataclass
class DuplicateDatum:
    """Base k^n plus the pair (f, delta); certify with verify_pair.

    ``f_matrix`` and ``delta_matrix`` act on coordinate columns, so
    column j holds the image of the j-th basis idempotent.
    """

    base: Algebra
    f_matrix: Matrix
    delta_matrix: Matrix


def x_idempotent_algebra(field: Field) -> Algebra:
    """k[X]/(X^2 - X) on basis (1, X)."""
    return Algebra._from_integer_form(
        field, ["1", "X"], [[[1, 0], [0, 1]], [[0, 1], [0, 1]]], [1, 0], 1)


def _integer_pair(d: DuplicateDatum) -> tuple:
    """(F, Dl, s): f and delta times one common scale s, as integer
    matrices (``scale_to_integers``), once the base is checked to be k^n in
    its idempotent basis, where e_i e_j = [i = j] e_i and a product is
    taken coordinatewise."""
    base, fm, dm = d.base, d.f_matrix, d.delta_matrix
    n = base.dim
    kn = [[[int(i == j == k) for k in range(n)] for j in range(n)] for i in range(n)]
    if (base.int_table, base.int_unit, base.scale) != (kn, [1] * n, 1):
        raise ValueError("base must be k^n in the idempotent basis")
    if fm.field != base.field or dm.field != base.field:
        raise ValueError("field mismatch")
    if (fm.rows, fm.cols) != (n, n) or (dm.rows, dm.cols) != (n, n):
        raise ValueError(f"f and delta must be {n}x{n}")
    (fi, di), s = scale_to_integers([fm.data, dm.data], base.field.characteristic)
    return fi, di, s


def _matmul(x: list, y: list) -> list:
    return [[sum(map(mul, row, col)) for col in zip(*y)] for row in x]


def verify_pair(d: DuplicateDatum) -> dict:
    """Check the three defining conditions and report the Leibniz rule.

    leibniz_variant is one of "both", "first_only" (delta(xy) =
    delta(x)f(y) + x delta(y)), "second_only" (delta(xy) = delta(x)y +
    f(x)delta(y)), "neither".

    On F = s f and Dl = s delta (``_integer_pair``) each condition is
    cleared of s: Dl^2 = s Dl, s F = F^2 + Dl F + F Dl, and at (e_i, e_j)
    the Leibniz rules read, in coordinate k, s [i = j] Dl[k][i] =
    Dl[k][i] F[k][j] + s [k = i] Dl[k][j] and = s [k = j] Dl[k][i] +
    F[k][i] Dl[k][j]; compared exactly over Q and mod p over F_p.
    """
    fi, di, s = _integer_pair(d)
    p = d.base.field.characteristic
    n = d.base.dim

    def same(x, y) -> bool:
        return not any(_differ(u, v, p) for u, v in zip(x, y))

    first = second = True
    for i, j in itertools.product(range(n), repeat=2):
        lhs = [s * (i == j) * di[k][i] for k in range(n)]
        v1 = [di[k][i] * fi[k][j] + s * (k == i) * di[k][j] for k in range(n)]
        v2 = [s * (k == j) * di[k][i] + fi[k][i] * di[k][j] for k in range(n)]
        first = first and not _differ(lhs, v1, p)
        second = second and not _differ(lhs, v2, p)
    variants = {(True, True): "both", (True, False): "first_only",
                (False, True): "second_only", (False, False): "neither"}
    return {
        "endomorphism": is_algebra_map(d.f_matrix, d.base, d.base),
        "idempotent_delta": same(_matmul(di, di), [[s * x for x in row] for row in di]),
        "compatibility": same([[s * x for x in row] for row in fi], [
            [u + v + w for u, v, w in zip(*rows)]
            for rows in zip(_matmul(fi, fi), _matmul(di, fi), _matmul(fi, di))]),
        "leibniz_variant": variants[first, second],
    }


def _duplicate_algebra(d: DuplicateDatum, check: bool) -> Algebra:
    """Table on basis (e_1, e_1X, ..., e_n, e_nX) from the X*a rule, as an
    integer form of scale s (``_integer_pair``): e_i e_j = [i = j] e_i and
    X e_j = delta(e_j) + f(e_j) X, so e_i X e_j = Dl[i][j] e_i +
    F[i][j] e_i X, and X^2 = X."""
    base = d.base
    fi, di, s = _integer_pair(d)
    n = base.dim
    dim = 2 * n
    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        table[2 * i][2 * i][2 * i] = table[2 * i][2 * i + 1][2 * i + 1] = s
        for j in range(n):
            table[2 * i + 1][2 * j][2 * i] = di[i][j]
            table[2 * i + 1][2 * j][2 * i + 1] = fi[i][j]
            table[2 * i + 1][2 * j + 1][2 * i + 1] = di[i][j] + fi[i][j]
    labels = []
    for lbl in base.basis_labels:
        labels.extend([lbl, f"{lbl}X"])
    return Algebra._from_integer_form(base.field, labels, table, [s, 0] * n, s, check)


def _require_valid_pair(d: DuplicateDatum) -> None:
    report = verify_pair(d)
    if not (
        report["endomorphism"]
        and report["idempotent_delta"]
        and report["compatibility"]
    ):
        raise ValueError(f"invalid (f, delta) pair: {report}")


def build_duplicate(d: DuplicateDatum) -> Algebra:
    _require_valid_pair(d)
    return _duplicate_algebra(d, check=True)


def roundtrip_datum(field: Field, a_u, a_v) -> DuplicateDatum:
    """The swap-with-rank-one-delta datum on k^2; no constraint gate."""
    au, av = field.scalar(a_u), field.scalar(a_v)
    base = Algebra._from_integer_form(
        field, ["u", "v"], [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [1, 1], 1)
    fm = Matrix.from_rows(field, [[0, 1], [1, 0]])
    dm = Matrix.from_rows(field, [[-au, au], [av, -av]])
    return DuplicateDatum(base, fm, dm)


def roundtrip_candidate(field: Field, a_u, a_v) -> Algebra:
    """The (u, uX, v, vX) table for arbitrary parameters, unchecked."""
    return _duplicate_algebra(roundtrip_datum(field, a_u, a_v), check=False)


def duplicate_to_twisting_map(d: DuplicateDatum) -> TwistingMap:
    """tau: k[X]/(X^2-X) (x) k^n -> k^n (x) k[X]/(X^2-X) from the X*a rule."""
    _require_valid_pair(d)
    base, fm, dm = d.base, d.f_matrix, d.delta_matrix
    f = base.field
    n = base.dim
    b = x_idempotent_algebra(f)
    m = Matrix(f, n * 2, 2 * n)
    for j in range(n):
        m.data[j * 2][j] = f.one
        for k in range(n):
            m.data[k * 2][n + j] = dm.data[k][j]
            m.data[k * 2 + 1][n + j] = fm.data[k][j]
    return TwistingMap(base, b, m)
