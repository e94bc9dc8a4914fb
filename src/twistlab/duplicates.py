"""Duplicates of k^n: algebras A(x)k[X]/(X^2-X) from an (f, delta) pair.

The defining rule is X*a = delta(a) + f(a)*X. Validity of a pair is
decided by the checkable matrix conditions plus associativity of the
built product; which twisted-Leibniz rule delta satisfies is reported
as metadata rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import Field
from .algebra import Algebra, is_algebra_map
from .linalg import Matrix
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
    o, z = field.one, field.zero
    return Algebra(
        field,
        ["1", "X"],
        [[[o, z], [z, o]], [[z, o], [z, o]]],
        [o, z],
        check=True,
    )


def _require_kn_idempotent_base(base: Algebra) -> None:
    f = base.field
    n = base.dim
    for i in range(n):
        for j in range(n):
            want = [f.zero] * n
            if i == j:
                want[i] = f.one
            if base.table[i][j] != want:
                raise ValueError(
                    "base must be k^n in the idempotent basis"
                )
    if base.unit != [f.one] * n:
        raise ValueError("base must be k^n in the idempotent basis")


def verify_pair(d: DuplicateDatum) -> dict:
    """Check the three defining conditions and report the Leibniz rule.

    leibniz_variant is one of "both", "first_only" (delta(xy) =
    delta(x)f(y) + x delta(y)), "second_only" (delta(xy) = delta(x)y +
    f(x)delta(y)), "neither".
    """
    base, fm, dm = d.base, d.f_matrix, d.delta_matrix
    _require_kn_idempotent_base(base)
    f = base.field
    n = base.dim
    if fm.field != f or dm.field != f:
        raise ValueError("field mismatch")
    if (fm.rows, fm.cols) != (n, n) or (dm.rows, dm.cols) != (n, n):
        raise ValueError(f"f and delta must be {n}x{n}")

    endo = is_algebra_map(fm, base, base)

    idem = (dm * dm) == dm
    compat = fm == (fm * fm) + (dm * fm) + (fm * dm)

    first = second = True
    for i in range(n):
        for j in range(n):
            lhs = dm.apply(base.table[i][j])
            ei, ej = base.basis_element(i).coords, base.basis_element(j).coords
            v1 = [
                f.add(x, y)
                for x, y in zip(
                    base.multiply_coords(dm.col(i), fm.col(j)),
                    base.multiply_coords(ei, dm.col(j)),
                )
            ]
            v2 = [
                f.add(x, y)
                for x, y in zip(
                    base.multiply_coords(dm.col(i), ej),
                    base.multiply_coords(fm.col(i), dm.col(j)),
                )
            ]
            first = first and lhs == v1
            second = second and lhs == v2
    if first and second:
        variant = "both"
    elif first:
        variant = "first_only"
    elif second:
        variant = "second_only"
    else:
        variant = "neither"
    return {
        "endomorphism": endo,
        "idempotent_delta": idem,
        "compatibility": compat,
        "leibniz_variant": variant,
    }


def _duplicate_algebra(d: DuplicateDatum, check: bool) -> Algebra:
    """Table on basis (e_1, e_1X, ..., e_n, e_nX) from the X*a rule."""
    base, fm, dm = d.base, d.f_matrix, d.delta_matrix
    f = base.field
    n = base.dim
    dim = 2 * n
    table = [[[f.zero] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        ei = base.basis_element(i).coords
        for j in range(n):
            plain = base.table[i][j]
            u = base.multiply_coords(ei, dm.col(j))
            w = base.multiply_coords(ei, fm.col(j))
            for k in range(n):
                table[2 * i][2 * j][2 * k] = plain[k]
                table[2 * i][2 * j + 1][2 * k + 1] = plain[k]
                table[2 * i + 1][2 * j][2 * k] = u[k]
                table[2 * i + 1][2 * j][2 * k + 1] = w[k]
                table[2 * i + 1][2 * j + 1][2 * k + 1] = f.add(u[k], w[k])
    labels = []
    for lbl in base.basis_labels:
        labels.extend([lbl, f"{lbl}X"])
    unit = [f.zero] * dim
    for k in range(n):
        unit[2 * k] = base.unit[k]
    return Algebra(f, labels, table, unit, check=check)


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
    base = Algebra(
        field,
        ["u", "v"],
        [
            [[field.one, field.zero], [field.zero, field.zero]],
            [[field.zero, field.zero], [field.zero, field.one]],
        ],
        [field.one, field.one],
        check=True,
    )
    fm = Matrix.from_rows(field, [[0, 1], [1, 0]])
    dm = Matrix(field, 2, 2)
    dm.data[0][0] = field.neg(au)
    dm.data[0][1] = au
    dm.data[1][0] = av
    dm.data[1][1] = field.neg(av)
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
