"""Batch command-line driver.

Verbs: census, classify, hh, counterexample, reproduce-paper.  Artifacts go
to stdout or the -o path; advisory notes go to stderr so emitted files stay
parseable.  The TWISTLAB_BUDGET environment variable (a positive integer)
caps d (d-1)^(N+1), the rows of the top coboundary of the normalized bar
complex of a dim-d algebra to degree N.  A bad input, or a file that
cannot be read or written, ends in one ``error:`` line and exit status 2.
"""

import argparse
import json
import os
import sys

from .fields import QQ, GF, field_from_name
from .algebra import Algebra, CriterionInapplicable, is_isomorphism, standard_algebra
from .quivers import Quiver, standard_quiver, truncated_path_algebra
from .twisting import (
    CENSUS_ERRATA,
    census_row_strings,
    census_rows,
    census_tsv,
    twisted_product,
)
from .duplicates import (
    build_duplicate,
    duplicate_to_twisting_map,
    roundtrip_datum,
    verify_pair,
)
from .classify import (
    classify_4dim,
    orbit_report,
    orbit_tsv,
    reference_isomorphism,
)
from .hochschild import (
    HH_ERRATA,
    check_bar_budget,
    crown_formula,
    hh_bar,
    hh_e_complex,
    hh_rsz,
    thm_formula,
    verify_counterexample,
)

HH_TSV_HEADER = "degree\tdim"


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _erratum_line(e: dict) -> str:
    return (
        f"erratum[{e['id']}] printed: {e['printed']} | "
        f"computed: {e['computed']} | adjudicated by: {e['adjudicated_by']}"
    )


def run_census(args) -> int:
    f = field_from_name(args.field)
    rows = census_rows(f)
    if args.format == "tsv":
        body = census_tsv(rows, f)
    else:
        body = json.dumps({
            "field": f.name,
            "rows": [census_row_strings(r, f) for r in rows],
            "errata": CENSUS_ERRATA,
        }, indent=2) + "\n"
    _emit(body, args.output)
    for e in CENSUS_ERRATA:
        _note(_erratum_line(e))
    return 0


def run_classify(args) -> int:
    f = field_from_name(args.field)
    rep = orbit_report(f)
    if args.format == "tsv":
        body = orbit_tsv(rep)
    else:
        body = json.dumps(rep.to_doc(), indent=2) + "\n"
    _emit(body, args.output)
    if rep.note:
        _note(f"note: {rep.note}")
    return 0


def _load_quiver(spec: str) -> Quiver:
    if os.path.exists(spec):
        with open(spec) as fh:
            return Quiver.from_json(fh.read())
    return standard_quiver(spec)


def _load_algebra(spec: str, field) -> Algebra:
    if os.path.exists(spec):
        with open(spec) as fh:
            return Algebra.from_json(fh.read())
    name, _, par = spec.partition(":")
    if name in ("k_n", "a_q"):
        if not par.removeprefix("-").isdecimal():
            raise ValueError(f"{name} takes an integer parameter, got {par!r}")
        return standard_algebra(name, field, **{name[-1]: int(par)})  # n or q
    if par:
        raise ValueError(f"{name} takes no parameter")
    return standard_algebra(name, field)


def _basis_idempotent_split(a: Algebra) -> list:
    """The basis vectors e_i with e_i e_i = e_i and unit coordinate 1, when
    they add up to the unit; read off the integer form (scale D), where
    those are C[i][i] = D e_i and U_i = D."""
    c, u, s = a.int_table, a.int_unit, a.scale
    picked = [i for i in range(a.dim)
              if u[i] == s and c[i][i] == [s * (k == i) for k in range(a.dim)]]
    if u != [s * (i in picked) for i in range(a.dim)]:
        raise ValueError(
            "no orthogonal idempotent basis split: give a quiver instead"
        )
    return [a.basis_element(i) for i in picked]


def _is_three_vertex_one_arrow(q: Quiver) -> bool:
    return (
        q.vertex_count == 3
        and len(q.arrows) == 1
        and q.arrows[0][0] != q.arrows[0][1]
    )


def run_hh(args) -> int:
    f = field_from_name(args.field or "Q")
    if args.stats and args.format == "tsv":
        raise ValueError("--stats needs --format structured")
    if (args.quiver is None) == (args.algebra is None):
        raise ValueError("give exactly one of --quiver or --algebra")
    notes = []
    if args.quiver is not None:
        q = _load_quiver(args.quiver)
        method = "rsz" if args.method == "auto" else args.method
        if _is_three_vertex_one_arrow(q):
            notes.extend(HH_ERRATA)
        if method == "bar":  # before the d^3 table of the path algebra
            check_bar_budget(f, q.vertex_count + len(q.arrows), args.N)
        alg = None if method == "rsz" else truncated_path_algebra(q, f)
    else:
        alg = _load_algebra(args.algebra, f)
        if args.field is not None and alg.field != f:
            raise ValueError(f"--field {f.name} contradicts the algebra "
                             f"file's field {alg.field.name}")
        f = alg.field  # a JSON file is over its own field
        method = "bar" if args.method == "auto" else args.method
        if method == "rsz":
            raise ValueError("the rsz method needs a quiver input")
    if method == "rsz":
        prof = hh_rsz(q, f, args.N)
    elif method == "bar":
        prof = hh_bar(alg, args.N)
    elif method == "e-complex":
        prof = hh_e_complex(alg, _basis_idempotent_split(alg), args.N)
    else:
        raise ValueError(f"unknown method {method!r}")
    if args.format == "tsv":
        lines = [HH_TSV_HEADER]
        lines.extend(f"{n}\t{d}" for n, d in enumerate(prof.dims))
        body = "\n".join(lines) + "\n"
    else:
        doc = prof.to_doc()
        doc["field"] = f.name
        if notes:
            doc["errata"] = notes
        if args.stats:
            doc["stats"] = prof.stats
        body = json.dumps(doc, indent=2) + "\n"
    _emit(body, args.output)
    for e in notes:
        _note(_erratum_line(e))
    return 0


def run_counterexample(args) -> int:
    f = field_from_name(args.field)
    report = verify_counterexample(args.N, f)
    _emit(json.dumps(report, indent=2) + "\n", args.output)
    return 0


# reproduce-paper checks


def _expected_counts(char: int) -> dict:
    if char == 0:
        return {"I": 1, "IIa": 1, "IIb": 2, "III": 4}
    return {"I": 1, "IIa": char - 2, "IIb": 2, "III": 4}


def _check_census(f) -> tuple:
    # over Q the line family is one symbolic row
    rows = census_rows(f)
    want = f.characteristic + 5 if f.characteristic else 6
    return len(rows) == want, f"{len(rows)} rows (expected {want})"


def _check_classify(f) -> tuple:
    rep = orbit_report(f)
    want = _expected_counts(f.characteristic)
    return rep.class_counts == want, f"counts {rep.class_counts}"


def _check_isomorphisms(f) -> tuple:
    for name in ("a_minus2_to_a2", "r_to_a_minus2"):
        m, src, tgt = reference_isomorphism(name, f)
        if not is_isomorphism(m, src, tgt):
            return False, f"{name} rejected"
    m, src, tgt = reference_isomorphism("aq_to_matrix", f, q=0)
    if not is_isomorphism(m, src, tgt):
        return False, "aq_to_matrix(0) rejected"
    try:
        reference_isomorphism("aq_to_matrix", f, q=2)
        return False, "q = 2 not rejected"
    except ValueError:
        pass
    return True, "3 fixtures pass, q = 2 rejected"


def _check_duplicate(f) -> tuple:
    d = roundtrip_datum(f, 1, -2)
    rep = verify_pair(d)
    if rep["leibniz_variant"] != "both":
        return False, f"leibniz {rep['leibniz_variant']}"
    direct = build_duplicate(d)
    via_twist = twisted_product(duplicate_to_twisting_map(d))
    ok = ((direct.int_table, direct.int_unit, direct.scale)
          == (via_twist.int_table, via_twist.int_unit, via_twist.scale))
    return ok, "duplicate table matches its twisted product"


def _check_duplicate_split_char0() -> tuple:
    for au, av, want in ((0, -1, "IIb"), (-1, 0, "IIb"),
                         (1, -2, "IIa"), (2, -3, "IIa")):
        alg = build_duplicate(roundtrip_datum(QQ, au, av))
        got = classify_4dim(alg)
        if got != want:
            return False, f"(a_u, a_v) = ({au}, {av}) gave {got}"
    return True, "IIb exactly when a_u * a_v = 0"


def _check_hh_roundtrip(f) -> tuple:
    dims = hh_rsz(standard_quiver("roundtrip"), f, 8).dims
    return dims == [1] * 9, f"dims {dims}"


def _check_hh_profiles(f) -> tuple:
    got = {
        "qtilde": hh_rsz(standard_quiver("qtilde"), f, 4).dims,
        "four_points": hh_rsz(standard_quiver("four_points"), f, 3).dims,
        "loop": hh_rsz(standard_quiver("loop"), f, 3).dims,
        "kronecker": hh_rsz(standard_quiver("kronecker"), f, 3).dims,
    }
    want = {
        "qtilde": [2, 0, 0, 0, 0],
        "four_points": [4, 0, 0, 0],
        "loop": [2, 1, 1, 1],
        "kronecker": [1, 3, 0, 0],
    }
    if got != want:
        return False, f"profiles {got}"
    crown = hh_rsz(standard_quiver("crown(3)"), f, 6).dims
    formula = [crown_formula(3, n, f.characteristic) for n in range(7)]
    return crown == formula, "profiles and crown formula agree"


def _check_hh_routes(f) -> tuple:
    for name in ("roundtrip", "qtilde"):
        q = standard_quiver(name)
        rsz = hh_rsz(q, f, 4).dims
        alg = truncated_path_algebra(q, f)
        if hh_e_complex(alg, _basis_idempotent_split(alg), 4).dims != rsz:
            return False, f"e-complex disagrees on {name}"
        if hh_bar(alg, 4).dims != rsz:
            return False, f"bar disagrees on {name}"
    return True, "rsz = bar = e-complex on roundtrip and qtilde"


def _check_formula(f) -> tuple:
    q = standard_quiver("kronecker")
    dims = hh_rsz(q, f, 4).dims
    formula = [thm_formula(q, n) for n in range(5)]
    return dims == formula, f"parallel-path formula gives {formula}"


def _check_counterexample(f) -> tuple:
    n = 10 if f.characteristic == 0 else 5
    report = verify_counterexample(n, f)
    ok = report["verdict"] == "counterexample confirmed"
    return ok, f"nonvanishing through degree {n}"


def run_reproduce(args) -> int:
    fields = [QQ, GF(3), GF(5)]
    if args.field is not None:
        extra = field_from_name(args.field)
        if extra.characteristic == 2:
            raise ValueError("reproduce-paper's expected counts and HH profiles "
                             "assume characteristic != 2; F2 has characteristic 2")
        if extra.name not in [f.name for f in fields]:
            fields.append(extra)
    checks = []
    for f in fields:
        tag = f.name
        checks.append((f"census-count-{tag}", lambda f=f: _check_census(f)))
        checks.append((f"classify-counts-{tag}", lambda f=f: _check_classify(f)))
        checks.append((f"iso-fixtures-{tag}", lambda f=f: _check_isomorphisms(f)))
        checks.append((f"duplicate-roundtrip-{tag}", lambda f=f: _check_duplicate(f)))
        checks.append((f"hh-roundtrip-{tag}", lambda f=f: _check_hh_roundtrip(f)))
        checks.append((f"hh-profiles-{tag}", lambda f=f: _check_hh_profiles(f)))
        checks.append((f"hh-three-routes-{tag}", lambda f=f: _check_hh_routes(f)))
        checks.append((f"hh-formula-{tag}", lambda f=f: _check_formula(f)))
        checks.append((
            f"counterexample-{tag}", lambda f=f: _check_counterexample(f),
        ))
    checks.append(("duplicate-case-split-Q", _check_duplicate_split_char0))

    results = []
    for cid, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append({"id": cid, "ok": ok, "detail": detail})
    errata = list(CENSUS_ERRATA) + list(HH_ERRATA)
    passed = sum(1 for r in results if r["ok"])

    if args.format == "structured":
        body = json.dumps({
            "checks": results,
            "errata": errata,
            "passed": passed,
            "total": len(results),
            "ok": passed == len(results),
        }, indent=2) + "\n"
    else:
        lines = []
        for r in results:
            mark = "pass" if r["ok"] else "FAIL"
            lines.append(f"{mark}  {r['id']}: {r['detail']}")
        lines.append("")
        lines.append("errata (documented print discrepancies, not failures):")
        for e in errata:
            lines.append("  " + _erratum_line(e))
        lines.append("")
        lines.append(f"summary: {passed}/{len(results)} checks pass, "
                     f"{len(errata)} errata")
        body = "\n".join(lines) + "\n"
    _emit(body, args.output)
    return 0 if passed == len(results) else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="twistlab",
        description="census, classification, and cohomology of twisted "
                    "tensor products of two copies of k[Z2]",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    def common(p, choices, fmt_default):
        p.add_argument("--field", default="Q", help="Q or Fp (prime p)")
        p.add_argument("--format", choices=choices, default=fmt_default)
        p.add_argument("-o", "--output", default=None, metavar="PATH")

    p = sub.add_parser("census", help="enumerate all twisting maps")
    common(p, ("tsv", "structured"), "tsv")
    p.set_defaults(fn=run_census)

    p = sub.add_parser("classify", help="classify every census product")
    common(p, ("tsv", "structured"), "tsv")
    p.set_defaults(fn=run_classify)

    p = sub.add_parser("hh", help="Hochschild cohomology dimensions")
    common(p, ("tsv", "structured"), "structured")
    p.add_argument("--quiver", default=None,
                   help="standard quiver name or a quiver JSON path")
    p.add_argument("--algebra", default=None,
                   help="standard algebra name (k_n:4, a_q:3, matrix2, ...) "
                        "or an algebra JSON path")
    p.add_argument("--N", type=int, required=True, help="top degree")
    p.add_argument("--method", choices=("rsz", "bar", "e-complex", "auto"),
                   default="auto")
    p.add_argument("--stats", action="store_true",
                   help="add the per-degree cochain dims, ranks, nonzeros "
                        "and phase seconds to the structured output")
    # no flag: Q, or an algebra file's own field
    p.set_defaults(fn=run_hh, field=None)

    p = sub.add_parser("counterexample",
                       help="verify the nonvanishing counterexample")
    common(p, ("structured",), "structured")
    p.add_argument("--N", type=int, default=10, help="top degree")
    p.set_defaults(fn=run_counterexample)

    p = sub.add_parser("reproduce-paper",
                       help="run every acceptance check and list the errata")
    common(p, ("text", "structured"), "text")
    p.set_defaults(fn=run_reproduce)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, RuntimeError, CriterionInapplicable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
