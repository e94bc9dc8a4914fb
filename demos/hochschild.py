"""Hochschild cohomology dimensions by three routes, plus closed forms.

The three routes run on two independent column builders: the e-complex
route runs the parallel-paths builder on its certified block quiver.
"""

from twistlab import (
    GF,
    QQ,
    Quiver,
    crown_formula,
    hh_bar,
    hh_e_complex,
    hh_rsz,
    standard_quiver,
    thm_formula,
    truncated_path_algebra,
)
from twistlab.hochschild import check_bar_budget


def bar_degree(alg, top: int = 4) -> int:
    """The largest N <= top that hh_bar's budget accepts for alg."""
    for n in range(top, 0, -1):
        try:
            check_bar_budget(alg.field, alg.dim, n)
            return n
        except ValueError:
            pass
    return 0


def main() -> None:
    print("cohomology of radical-square-zero path algebras, three ways")
    print()

    corpus = [
        ("roundtrip", standard_quiver("roundtrip")),
        ("qtilde", standard_quiver("qtilde")),
        ("four_points", standard_quiver("four_points")),
        ("loop", standard_quiver("loop")),
        ("kronecker", standard_quiver("kronecker")),
        ("crown(3)", standard_quiver("crown", 3)),
    ]
    for name, q in corpus:
        rsz = hh_rsz(q, QQ, 4)
        alg = truncated_path_algebra(q, QQ)
        idems = [alg.basis_element(v) for v in range(q.vertex_count)]
        ec = hh_e_complex(alg, idems, 4)
        n_bar = bar_degree(alg)
        bar = hh_bar(alg, n_bar)
        agree = rsz.dims == ec.dims and rsz.dims[: n_bar + 1] == bar.dims
        print(f"  {name:>12}: {rsz.dims}  (bar through degree {n_bar}, "
              f"three routes agree: {agree})")
    print()

    print("closed form for connected non-crown quivers, degrees 0..6:")
    for name, q in [
        ("kronecker", standard_quiver("kronecker")),
        ("two loops", Quiver(1, [(0, 0), (0, 0)])),
    ]:
        vals = [thm_formula(q, n) for n in range(7)]
        print(f"  {name:>12}: {vals}")
    print()

    print("crown evaluator ('n even and divisible by c'), degrees 0..12:")
    for c in (2, 3, 4):
        vals = [crown_formula(c, n) for n in range(13)]
        print(f"  crown({c}): {vals}")
    print("  crown(2) cross-check vs complex:",
          hh_rsz(standard_quiver("roundtrip"), QQ, 12).dims == [1] * 13)
    print()

    print("characteristic matters: the one-loop quiver over Q vs GF(2):")
    print(f"  Q:     {hh_rsz(standard_quiver('loop'), QQ, 5).dims}")
    print(f"  GF(2): {hh_rsz(standard_quiver('loop'), GF(2), 5).dims}")


if __name__ == "__main__":
    main()
