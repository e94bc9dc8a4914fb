"""The census search: (tw2)/(tw3) as polynomials mod p, then their zeros.

`Poly` supports what the scan `twisting._twist_failures` does to a scalar
(+, -, *, % p, truth), so that run once on columns of `Poly` variables the
scan itself derives the equations (`census_equations`); `common_zeros`
finds every solution by constraint propagation.  Only
`enumerate_twisting_maps` uses this module, and it imports it on first
use, so that importing twistlab does not load it.
"""

from __future__ import annotations

import math

from .algebra import Algebra
from .twisting import _twist_failures, _unit_basis_index


class Poly(dict):
    """A polynomial {sorted tuple of variable indices: integer coefficient}."""

    __slots__ = ()

    def __add__(self, other):
        out = Poly(self)
        for mono, c in _terms(other):
            out[mono] = out.get(mono, 0) + c
        return out

    def __mul__(self, other):
        out = Poly()
        for m1, c1 in self.items():
            out += {tuple(sorted(m1 + m2)): c1 * c2 for m2, c2 in _terms(other)}
        return out

    def __sub__(self, other):
        return self + -1 * other

    def __rsub__(self, other):
        return -1 * self + other

    def __mod__(self, p):
        return Poly({m: c % p for m, c in self.items() if c % p})

    def __bool__(self):
        return any(self.values())

    __radd__, __rmul__ = __add__, __mul__


def _terms(x):
    return x.items() if isinstance(x, dict) else [((), x)]


def census_equations(a: Algebra, b: Algebra) -> tuple:
    """(columns of tau, number of variables, (tw2)/(tw3) equations mod p).

    (tw1) makes tau the flip on every pair with a unit; every other column
    holds `Poly` variables, numbered in column order.  Given (tw1), (tw2)
    and (tw3) hold on every triple with a unit index, so one run of
    `_twist_failures` over the others yields every equation: each distinct
    nonzero coordinate of a residual.
    """
    da, db = a.dim, b.dim
    d = da * db
    ua, ub = _unit_basis_index(a), _unit_basis_index(b)
    cols, nvars = [], 0
    for i in range(db):
        for j in range(da):
            if i == ub or j == ua:
                cols.append([int(r == j * db + i) for r in range(d)])
            else:
                cols.append([Poly({(nvars + r,): 1}) for r in range(d)])
                nvars += d
    a_idx = [j for j in range(da) if j != ua]
    b_idx = [i for i in range(db) if i != ub]
    equations = []
    for _, _, residual in _twist_failures(cols, a, b, a_idx, b_idx):
        for x in residual:
            e = (Poly() + x) % a.field.characteristic
            if e and e not in equations:
                equations.append(e)
    return cols, nvars, equations


def common_zeros(equations: list, nvars: int, p: int) -> list:
    """Every common zero in F_p^nvars of polynomials of degree <= 2, sorted.

    The variables are set one at a time in a greedy order: next comes the
    one that closes most equations (sets their last variable), ties to the
    one nearest to closing one, then to the lower index.  An equation is
    tested as soon as it closes, as a polynomial in the variable just set
    with the others substituted, so a branch dies at its first failure.
    """
    eq_vars = [{v for mono in e for v in mono} for e in equations]
    if not all(eq_vars):
        return []  # a nonzero constant
    order, closing, left = [], [], set(range(nvars))
    while left:
        def key(v):
            rest = [len(s & left) - 1 for s in eq_vars if v in s]
            return -rest.count(0), min(rest, default=nvars), v
        v = min(left, key=key)
        left.remove(v)
        order.append(v)
        closing.append([e for e, s in zip(equations, eq_vars)
                        if v in s and not s & left])
    hits = []
    _assign(0, order, closing, [0] * nvars, p, hits)
    return sorted(hits)


def _assign(k: int, order: list, closing: list, vals: list, p: int,
            hits: list) -> None:
    """Set variables order[k:] in turn, appending each full solution to
    hits; closing[k] are the equations that close at order[k]."""
    if k == len(order):
        hits.append(tuple(vals))
        return
    v, xs = order[k], range(p)
    for e in closing[k]:
        c = [0, 0, 0]
        for mono, coef in e.items():
            c[mono.count(v)] += coef * math.prod(vals[u] for u in mono if u != v)
        c0, c1, c2 = c
        xs = [x for x in xs if not (c0 + x * (c1 + x * c2)) % p]
    for x in xs:
        vals[v] = x
        _assign(k + 1, order, closing, vals, p, hits)
