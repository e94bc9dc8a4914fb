"""The four workloads: seeded inputs, the fixed job list, and answer oracles.

Each workload is a pair ``(draw, make)``. ``draw(rng)`` makes every seeded
choice from a ``random.Random`` seeded from ``--seed`` and returns it as
plain data, without touching twistlab; it runs once, untimed, and its
result is the run record's description of the inputs. ``make(tl, plan,
scratch)`` takes the imported ``twistlab`` package, that plan and a
directory for CLI output files, builds the program's input objects and
returns the job list; set-up time covers it. Jobs look twistlab names up
at call time, so span wrappers installed after set-up see every call. Each job's output is checked against a closed form
or an independent route; a check raises ``Mismatch`` on a wrong answer.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

WHY = {
    "bar-Q": "headline bar-complex computation over Q: Fraction-valued "
             "coboundary build plus bigint sparse elimination, one product "
             "per class",
    "bar-Fp": "same bar layers over a seeded GF(p), bounded residues, so "
              "sparse_rank dominates; splits field-specific kernel changes "
              "from bar-Q",
    "quiver-sweep": "seeded random quivers through the dense Matrix routes "
                    "(hh_rsz, hh_e_complex) over Q and GF(p), no bar complex",
    "census-classify": "exhaustive census enumeration plus fingerprinting of "
                       "seeded basis-change transports and the duplicate grid",
}

# quiver-sweep sizing. Every cochain layer stays under LAYER_CAP (dense
# Fraction matrices past that exhaust memory), the degree N+2 that hh_rsz
# maps layer N+1 into under TARGET_CAP (a 1701-wide one raised the peak RSS
# of its seeds from 30 to 36 MB) and paths enumerated per degree under
# PATH_CAP; degrees go at most to DEGREE_CEILING, past which
# job_cost overestimates long, sparse complexes (one N = 15 job ran in a
# fifth of its predicted time) and acyclic quivers add only empty layers.
# Each of the SWEEP_JOBS growing jobs, Q and GF(p) alternating, is sized to
# a fixed cost (see job_cost): its degree is the largest within the field's
# JOB_COST, and a quiver whose cost there falls under JOB_BAND times it is
# redrawn, so every seed gives about the same amount of work. Per unit of
# cost a Q job takes about six times as long as a GF(p) one. The band
# rejects every quiver whose layers stay small (one vertex, crowns, acyclic
# quivers), so three more jobs take one of each at its natural degree: the
# one-vertex quiver over GF(p), where even its largest cost is about 2% of
# a pass, the crown and the acyclic quiver over Q.
LAYER_CAP = 700
TARGET_CAP = 2 * LAYER_CAP
PATH_CAP = 8 * LAYER_CAP
DEGREE_CEILING = 12
SWEEP_JOBS = 8
JOB_COST = {"Q": 330_000, "Fp": 950_000}
JOB_BAND = 0.75

# census-classify sizing: transports per product over Q and over GF(p).
TRANSPORTS_Q = 16
TRANSPORTS_P = 48
DUPLICATE_GRID_Q = range(-4, 5)

ISOLATED = ("isolated_iii", "isolated_iv", "isolated_v", "isolated_vi")


class Mismatch(Exception):
    """A job returned an answer that disagrees with its oracle."""


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


def expect(got, want, what):
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


def z2_product(tl, field, family, parameter=None):
    z2a = tl.algebra.standard_algebra("group_algebra_z2", field)
    z2b = tl.algebra.standard_algebra("group_algebra_z2", field)
    desc = tl.twisting.TwistFamilyDescriptor(family, parameter)
    return tl.twisting.twisted_product(tl.twisting.family_member(desc, z2a, z2b))


def generic_alpha(rng, p):
    """A line parameter with alpha^2 != 4 (class IIa). Never 0 or +-1: those
    give sparser tables, whose elimination is up to 20% cheaper, so the
    draw alone would move wall_s between seeds."""
    if p == 0:
        return rng.choice([-7, -5, -3, 3, 5, 7])
    return rng.choice([a for a in range(2, p - 1) if (a * a - 4) % p])


# bar-Q and bar-Fp


def bar_jobs(tl, field, alpha, main_degree, small_degree, cli_degree, scratch):
    """Flip (I), generic alpha (IIa), alpha = -2 (IIb), an isolated map (III),
    and alpha = 2 through the counterexample command."""
    H = tl.hochschild

    def rsz_oracle(quiver, n):
        return H.hh_rsz(tl.quivers.standard_quiver(quiver), field, n).dims

    def bar_job(label, product, n, expected):
        def check(profile):
            want = expected(n) if callable(expected) else expected
            expect(profile.dims, want, f"{label} HH dims")
        return Job(label, lambda: H.hh_bar(product, n), check)

    def roundtrip_dims(n):
        dims = rsz_oracle("roundtrip", n)
        expect(dims, [H.crown_formula(2, k) for k in range(n + 1)],
               "hh_rsz(roundtrip) against the crown formula")
        return dims

    def qtilde_dims(n):
        dims = rsz_oracle("qtilde", n)
        expect(dims, [2] + [0] * n, "hh_rsz(qtilde)")
        return dims

    jobs = [
        bar_job("I-flip", z2_product(tl, field, "flip"), main_degree,
                [4] + [0] * main_degree),
        bar_job(f"IIa-alpha={alpha}",
                z2_product(tl, field, "line_char_ne_2", alpha), main_degree,
                [1] + [0] * main_degree),
        bar_job("IIb-alpha=-2", z2_product(tl, field, "line_char_ne_2", -2),
                small_degree, roundtrip_dims),
        bar_job("III-isolated_iii", z2_product(tl, field, "isolated_iii"),
                small_degree, qtilde_dims),
    ]
    out_path = os.path.join(scratch, f"counterexample-{field.name}.json")
    argv = ["counterexample", "--field", field.name, "--N", str(cli_degree),
            "-o", out_path]

    def run_cli():
        if os.path.exists(out_path):
            os.remove(out_path)
        code = tl.cli.main(argv)
        with open(out_path) as fh:
            return code, json.load(fh)

    def check_cli(out):
        code, doc = out
        expect(code, 0, "counterexample exit code")
        n_bar = min(cli_degree, 4 if field.characteristic == 0 else 5)
        expect(doc["field"], field.name, "field")
        expect(doc["verdict"], "counterexample confirmed", "verdict")
        expect(doc["rsz_dims"], [1] * (cli_degree + 1), "rsz dims")
        expect(doc["bar_dims"], [1] * (n_bar + 1), "bar dims")
        expect(doc["product_radical_dims"], [2, 0], "radical dims")
        expect(doc["product_center_dim"], 1, "center dim")
        expect((doc["factor_a_separable"], doc["factor_b_separable"],
                doc["twist_invertible"]), (True, True, True), "hypotheses")

    jobs.append(Job("cli-counterexample-alpha=2", run_cli, check_cli))
    return jobs


def draw_bar_q(rng):
    return {"field": "Q", "generic_alpha": generic_alpha(rng, 0), "degree": 4,
            "cli_N": 10}


def make_bar_q(tl, plan, scratch):
    return bar_jobs(tl, tl.QQ, plan["generic_alpha"], 4, 4, 10, scratch)


def draw_bar_fp(rng):
    # GF(5) is left out: its elimination runs about 20% longer than over
    # the larger primes, so the prime draw alone would move wall_s
    p = rng.choice([7, 11, 13])
    return {"field": f"F{p}", "generic_alpha": generic_alpha(rng, p),
            "degree_I_IIa": 5, "degree_IIb_III": 4, "cli_N": 5}


def make_bar_fp(tl, plan, scratch):
    # class III stays at degree 4: at degree 5 its elimination alone takes
    # longer than the other four jobs together
    field = tl.fields.field_from_name(plan["field"])
    return bar_jobs(tl, field, plan["generic_alpha"], 5, 4, 5, scratch)


# quiver-sweep


def layer_shapes(vertices, arrows):
    """Yield (cochain dim, number of length-n paths) for n = 0, 1, 2, ...

    Counts come from powers of the adjacency matrix, so nothing is built:
    dim C^n = #(Q_n || Q_0) + #(Q_n || Q_1).
    """
    adj = [[0] * vertices for _ in range(vertices)]
    for s, t in arrows:
        adj[s][t] += 1
    walk = [[int(i == j) for j in range(vertices)] for i in range(vertices)]
    while any(map(any, walk)):
        dim = sum(walk[v][v] for v in range(vertices))
        dim += sum(walk[s][t] for s, t in arrows)
        yield dim, sum(map(sum, walk))
        walk = [[sum(walk[i][k] * adj[k][j] for k in range(vertices))
                 for j in range(vertices)] for i in range(vertices)]
    while True:
        yield 0, 0


def job_cost(dims, n_top):
    """Dense matrix entries one route touches through degree n_top: every
    coboundary C^n -> C^(n+1) for its rank, and for each d^2 = 0 check one
    more pass over the inner factor plus the C^n -> C^(n+2) product."""
    cost = sum(dims[n] * dims[n + 1] for n in range(n_top + 1))
    return cost + sum(dims[n] * (dims[n + 1] + dims[n + 2])
                      for n in range(n_top))


def fit_degree(vertices, arrows, budget):
    """Largest N with layers 0..N+1 under LAYER_CAP, degree N+2 under
    TARGET_CAP, paths up to length N+2 under PATH_CAP (hh_rsz builds layer
    N+1 with its map into degree N+2, whose rows are pairs of such paths)
    and cost within budget. Returns
    (N, cost, largest layer); N = -1 when even degree 0 is over."""
    shapes = layer_shapes(vertices, arrows)
    dims, paths = [], []
    best = (-1, 0, 0)
    for n in range(DEGREE_CEILING + 1):
        while len(dims) < n + 3:
            dim, count = next(shapes)
            dims.append(dim)
            paths.append(count)
        cost = job_cost(dims, n)
        if (max(dims[: n + 2]) > LAYER_CAP or dims[n + 2] > TARGET_CAP
                or max(paths) > PATH_CAP or cost > budget):
            break
        best = (n, cost, max(dims[: n + 2]))
    return best


def random_quiver(rng):
    vertices = rng.randint(1, 3)
    arrows = [(rng.randrange(vertices), rng.randrange(vertices))
              for _ in range(rng.randint(1, vertices + 2))]
    return vertices, arrows


def loops_quiver(rng):
    """One vertex with one to three loops."""
    return 1, [(0, 0)] * rng.randint(1, 3)


def crown_quiver(rng):
    """The c-crown, one oriented c-cycle, for c = 2 or 3."""
    c = rng.randint(2, 3)
    return c, [(v, (v + 1) % c) for v in range(c)]


def acyclic_quiver(rng):
    """A connected quiver on two or three vertices, every arrow from a lower
    to a higher vertex, so thm_formula applies."""
    while True:
        vertices = rng.randint(2, 3)
        arrows = [tuple(sorted(rng.sample(range(vertices), 2)))
                  for _ in range(rng.randint(1, vertices + 2))]
        reached = {0}
        for _ in range(vertices):
            reached.update(v for arrow in arrows if reached & set(arrow)
                           for v in arrow)
        if len(reached) == vertices:
            return vertices, arrows


def draw_quiver_sweep(rng):
    # p > 8 = the largest algebra dimension here: the trace-form radical
    # used by hh_e_complex is only certified for char 0 or char > dim
    p = rng.choice([11, 13])
    listing, draws = [], 0

    def add(field, vertices, arrows, n_top, cost, largest):
        listing.append({"field": field, "vertices": vertices, "arrows": arrows,
                        "N": n_top, "cost": cost, "max_layer_dim": largest})

    while len(listing) < SWEEP_JOBS:
        field = "Q" if len(listing) % 2 == 0 else f"F{p}"
        budget = JOB_COST["Fp" if field != "Q" else "Q"]
        vertices, arrows = random_quiver(rng)
        draws += 1
        n_top, cost, largest = fit_degree(vertices, arrows, budget)
        if cost >= JOB_BAND * budget:
            add(field, vertices, arrows, n_top, cost, largest)
    for field, draw in ((f"F{p}", loops_quiver), ("Q", crown_quiver),
                        ("Q", acyclic_quiver)):
        vertices, arrows = draw(rng)
        budget = JOB_COST["Fp" if field != "Q" else "Q"]
        add(field, vertices, arrows, *fit_degree(vertices, arrows, budget))
    return {"p": p, "quivers": listing, "draws": draws}


def make_quiver_sweep(tl, plan, scratch):
    jobs = []
    for row in plan["quivers"]:
        quiver = tl.quivers.Quiver(row["vertices"],
                                   [tuple(a) for a in row["arrows"]])
        field = tl.fields.field_from_name(row["field"])
        jobs.append(_quiver_job(tl, len(jobs), quiver, field, row["N"]))
    return jobs


def _quiver_job(tl, index, quiver, field, n_top):
    H, Qv = tl.hochschild, tl.quivers

    def run():
        rsz = H.hh_rsz(quiver, field, n_top).dims
        alg = Qv.truncated_path_algebra(quiver, field)
        idems = [alg.basis_element(v) for v in range(quiver.vertex_count)]
        return rsz, H.hh_e_complex(alg, idems, n_top).dims

    def check(out):
        rsz, ecx = out
        expect(len(rsz), n_top + 1, "degrees returned")
        expect(ecx, rsz, "hh_e_complex against hh_rsz")
        crown = Qv.is_crown(quiver)
        if crown is None:
            closed = [H.thm_formula(quiver, n) for n in range(n_top + 1)]
            if closed[0] is not None:
                expect(rsz, closed, "hh_rsz against thm_formula")
        elif crown >= 2:
            closed = [H.crown_formula(crown, n, field.characteristic)
                      for n in range(n_top + 1)]
            expect(rsz, closed, "hh_rsz against crown_formula")

    name = f"q{index}-{field.name}-{quiver.vertex_count}v{len(quiver.arrows)}a-N{n_top}"
    return Job(name, run, check)


# census-classify


def expected_label(family, alpha, p):
    """The four-class table over Q (p = 0) or GF(p): flip I, line IIa off
    alpha = +-2 and IIb on it, isolated III."""
    if family == "flip":
        return "I"
    if family == "line_char_ne_2":
        disc = alpha * alpha - 4
        return "IIb" if (disc % p if p else disc) == 0 else "IIa"
    return "III"


def check_orbit_entries(entries, counts, p):
    """entries: (family, parameter string, class label) per census member."""
    expect(len(entries), p + 5, f"F{p} census size")
    expect(counts, {"I": 1, "IIa": p - 2, "IIb": 2, "III": 4},
           f"F{p} class counts")
    families = sorted(fam for fam, _, _ in entries if fam != "line_char_ne_2")
    expect(families, sorted(("flip",) + ISOLATED), f"F{p} non-line members")
    alphas = sorted(int(par) % p for fam, par, _ in entries
                    if fam == "line_char_ne_2")
    expect(alphas, list(range(p)), f"F{p} line parameters")
    for fam, par, label in entries:
        alpha = int(par) if fam == "line_char_ne_2" else None
        expect(label, expected_label(fam, alpha, p), f"F{p} class of {fam} {par}")


def census_scalars(p):
    """Closed-form census: flip, the alpha line, four isolated maps."""
    out = {(0, 0, 0, 1)}
    out.update((a, 0, 0, p - 1) for a in range(p))
    out.update(((-q * r) % p, q % p, r % p, 0)
               for q in (1, -1) for r in (1, -1))
    return out


def random_invertible(rng, field, size=4):
    """L*U with L unit lower triangular and U upper triangular with a
    nonzero diagonal, so the determinant is nonzero by construction."""
    p = field.characteristic
    if p:
        entry = lambda: rng.randrange(p)
        pivot = lambda: rng.randrange(1, p)
    else:
        entry = lambda: rng.randint(-2, 2)
        pivot = lambda: rng.choice([-2, -1, 1, 2])
    low = [[1 if i == j else (entry() if j < i else 0) for j in range(size)]
           for i in range(size)]
    up = [[pivot() if i == j else (entry() if j > i else 0) for j in range(size)]
          for i in range(size)]
    return [[sum(low[i][k] * up[k][j] for k in range(size)) for j in range(size)]
            for i in range(size)]


def draw_census_classify(rng):
    # GF(5) has no generic alpha outside 0, +-1, +-2 (see generic_alpha)
    p = rng.choice([7, 11, 13])
    return {"transport_prime": p,
            "generic_alpha_Q": generic_alpha(rng, 0),
            f"generic_alpha_F{p}": generic_alpha(rng, p),
            "matrix_seed": rng.getrandbits(32),
            "transports": {"Q": 8 * TRANSPORTS_Q, f"F{p}": 8 * TRANSPORTS_P}}


def make_census_classify(tl, plan, scratch):
    T, C = tl.twisting, tl.classify
    jobs = []

    def orbit_job(p):
        def check(rep):
            entries = [(e.family, e.parameter, e.label) for e in rep.entries]
            check_orbit_entries(entries, rep.class_counts, p)
        return Job(f"orbit-F{p}", lambda: C.orbit_report(tl.GF(p)), check)

    jobs.extend(orbit_job(p) for p in (3, 5, 7, 11))

    out_path = os.path.join(scratch, "classify-F13.json")

    def run_cli():
        if os.path.exists(out_path):
            os.remove(out_path)
        code = tl.cli.main(["classify", "--field", "F13", "--format",
                            "structured", "-o", out_path])
        with open(out_path) as fh:
            return code, json.load(fh)

    def check_cli(out):
        code, doc = out
        expect(code, 0, "classify exit code")
        entries = [(e["family"], e["parameter"], e["class"])
                   for e in doc["entries"]]
        check_orbit_entries(entries, doc["class_counts"], 13)

    jobs.append(Job("cli-classify-F13", run_cli, check_cli))

    def check_census(rows):
        p = 17
        expect(len(rows), p + 5, "F17 census size")
        got = {(r["p"], r["q"], r["r"], r["s"]) for r in rows}
        expect(got, census_scalars(p), "F17 census scalars")
        for r in rows:
            expect(r["invertible"], not r["family"].startswith("isolated"),
                   f"F17 invertibility of {r['family']}")

    jobs.append(Job("census-F17", lambda: T.census_rows(tl.GF(17)),
                    check_census))

    # the basis changes come from their own generator, so building them is
    # part of set-up while the plan stays small
    rng = random.Random(plan["matrix_seed"])
    p = plan["transport_prime"]
    for field, count in ((tl.QQ, TRANSPORTS_Q), (tl.GF(p), TRANSPORTS_P)):
        char = field.characteristic
        alpha = plan[f"generic_alpha_{field.name}"]
        members = [("flip", None), ("line_char_ne_2", alpha),
                   ("line_char_ne_2", 2), ("line_char_ne_2", -2)]
        members += [(fam, None) for fam in ISOLATED]
        cases = []
        for fam, par in members:
            product = z2_product(tl, field, fam, par)
            label = expected_label(fam, par, char)
            for _ in range(count):
                mat = tl.linalg.Matrix(field, 4, 4, random_invertible(rng, field))
                cases.append((product, mat, label))
        jobs.append(_transport_job(tl, field, cases))
        grid = DUPLICATE_GRID_Q if char == 0 else range(char)
        jobs.append(_duplicate_job(tl, field, grid))
    return jobs


def _transport_job(tl, field, cases):
    A, C = tl.algebra, tl.classify

    def run():
        return [C.classify_4dim(A.change_of_basis(prod, mat))
                for prod, mat, _ in cases]

    def check(labels):
        expect(labels, [label for _, _, label in cases],
               f"classes under basis change over {field.name}")

    return Job(f"transport-{field.name}", run, check)


def _duplicate_job(tl, field, grid):
    D, C = tl.duplicates, tl.classify
    pairs = list(itertools.product(grid, repeat=2))

    def run():
        out = []
        for au, av in pairs:
            datum = D.roundtrip_datum(field, au, av)
            rep = D.verify_pair(datum)
            valid = (rep["endomorphism"] and rep["idempotent_delta"]
                     and rep["compatibility"])
            label = C.classify_4dim(D.build_duplicate(datum)) if valid else None
            out.append((valid, label))
        return out

    def check(out):
        p = field.characteristic
        want = []
        for au, av in pairs:
            on_line = (au + av + 1) % p == 0 if p else au + av + 1 == 0
            if not on_line:
                want.append((False, None))
                continue
            zero = (au * av) % p == 0 if p else au * av == 0
            want.append((True, "IIb" if zero else "IIa"))
        expect(out, want, f"duplicate grid over {field.name}")

    return Job(f"duplicates-{field.name}", run, check)


WORKLOADS = {
    "bar-Q": (draw_bar_q, make_bar_q),
    "bar-Fp": (draw_bar_fp, make_bar_fp),
    "quiver-sweep": (draw_quiver_sweep, make_quiver_sweep),
    "census-classify": (draw_census_classify, make_census_classify),
}
