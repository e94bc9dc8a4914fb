"""The radical chain on integer rows against the earlier Fraction one.

The reference is the earlier Fraction radical chain: the trace-form kernel as a
dense Fraction kernel, the ideal check as one rank of the scaled basis and
its products with every e_i on both sides, and each power J^(k+1) as the
echelon basis of the products of J^k with J, until a power vanishes or the
dimension is used up. Its eliminations here are the Gauss-Jordan
references of test_linalg, so it shares no elimination with the library.
The ``_radical_chain`` rows, each made field scalars by ``rref_scalars``,
must be identical echelon bases, and the chain must refuse with
``CriterionInapplicable`` on exactly the inputs the reference refuses.
"""

import random

import pytest

from twistlab.algebra import (
    Algebra,
    CriterionInapplicable,
    _radical_chain,
    change_of_basis,
    jacobson_radical,
    radical_power_dims,
    trace_form_gram,
)
from twistlab.fields import GF, QQ
from twistlab.linalg import Matrix, rref_scalars, scale_to_integers

from test_algebra import random_basis_change, sample_algebras
from test_linalg import gauss_jordan_rref, reference_echelon_basis, reference_kernel_basis


def reference_rank(field, rows: list) -> int:
    if not rows:
        return 0
    return len(gauss_jordan_rref(Matrix.from_rows(field, rows))[1])


def reference_is_ideal(a, basis: list) -> bool:
    p = a.field.characteristic
    rows, _ = scale_to_integers(basis, p)
    c = a.int_table
    d = a.dim
    prods = [[sum(x * side[m][n] for m, x in terms) for n in range(d)]
             for terms in ([(m, x) for m, x in enumerate(v) if x] for v in rows)
             for pair in zip(c, zip(*c)) for side in pair]
    return reference_rank(a.field, rows + prods) == len(rows)


def reference_span_product(a, basis1: list, basis2: list) -> list:
    p = a.field.characteristic
    c = a.int_table
    rows1, _ = scale_to_integers(basis1, p)
    rows2, _ = scale_to_integers(basis2, p)
    prods = []
    for x in rows1:
        for y in rows2:
            out = [0] * len(c)
            for i, xi in enumerate(x):
                for j, yj in enumerate(y):
                    if xi and yj:
                        out = [o + xi * yj * v for o, v in zip(out, c[i][j])]
            prods.append(out)
    return reference_echelon_basis(a.field, prods)


def reference_radical_powers(a) -> list:
    candidate = reference_kernel_basis(
        Matrix(a.field, a.dim, a.dim, trace_form_gram(a.int_table)))
    if not candidate:
        return []
    char = a.field.characteristic
    if reference_is_ideal(a, candidate):
        powers = [candidate]
        for _ in range(a.dim):
            power = reference_span_product(a, powers[-1], candidate)
            if not power:
                return powers
            powers.append(power)
    if char == 0 or char > a.dim:
        raise AssertionError("trace criterion inconsistency in its validity range")
    raise CriterionInapplicable(
        f"criterion-inapplicable: char {char} <= dim {a.dim} and the trace-form "
        "radical is not a nilpotent ideal"
    )


def radical_powers(a) -> list:
    """[J, J^2, ...] as echelon bases of field scalars, from the library's
    integer chain."""
    return [rref_scalars(a.field, rows) for rows in _radical_chain(a)]


def outcome(fn, a):
    try:
        return fn(a)
    except CriterionInapplicable as exc:
        return ("refused", str(exc))


def truncated_polynomial(field, n):
    """k[x]/(x^n): J = (x), J^(n-1) the last nonzero power."""
    return Algebra(field, [f"x{i}" for i in range(n)], [
        [[int(i + j == k) for k in range(n)] for j in range(n)]
        for i in range(n)], [1] + [0] * (n - 1), check=True)


def cyclic_group_algebra(field, n):
    """k[Z_n]; in characteristic dividing n its trace form vanishes and the
    whole algebra is the (non-nilpotent) candidate."""
    return Algebra(field, [f"g{i}" for i in range(n)], [
        [[int((i + j) % n == k) for k in range(n)] for j in range(n)]
        for i in range(n)], [1] + [0] * (n - 1), check=True)


def differential_inputs(field, rng):
    algebras = sample_algebras(field, rng, odd_dims=True)
    algebras += [truncated_polynomial(field, n) for n in (2, 3, 4, 5)]
    algebras += [cyclic_group_algebra(field, n) for n in (2, 3, 4, 6)]
    return algebras + [change_of_basis(alg, random_basis_change(
        field, alg.dim, rng)) for alg in algebras]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5), GF(7)],
                         ids=lambda f: f.name)
def test_radical_powers_match_fraction_reference(field):
    rng = random.Random(83 + field.characteristic)
    refused = depths = 0
    for alg in differential_inputs(field, rng):
        want = outcome(reference_radical_powers, alg)
        assert outcome(radical_powers, alg) == want, (field, alg)
        if isinstance(want, tuple):
            refused += 1
            with pytest.raises(CriterionInapplicable):
                radical_power_dims(alg)
            continue
        assert radical_power_dims(alg) == ([len(j) for j in want] + [0]
                                           if want else [])
        assert jacobson_radical(alg) == (want[0] if want else [])
        depths = max(depths, len(want))
    # refusals come only where char(k) <= dim: most inputs in
    # characteristic 2, and in characteristic 3 k[Z_3], k[Z_6], k[x]/(x^3)
    # and some path algebras, each also transported
    if field.characteristic in (0, 7):
        assert refused == 0
    assert refused >= {2: 15, 3: 8}.get(field.characteristic, 0)
    assert depths >= 3
