"""The benchmark's tracer hooks resolve against the program.

``twistbench/tracer.py`` patches named twistlab functions from outside and
reads their arguments and results (the columns ``sparse_rank`` gets, the
``int`` it returns, an ``RszComplexLayer``'s bases). This test loads it
read-only, traces a tiny ``hh_rsz``, ``hh_bar`` and ``is_separable``, and
checks that every traced name resolved and every count it reads is nonzero.

The cochain ranks of ``complex_dims`` go through ``sparse_echelon``, which
the tracer does not wrap: its ``sparse_rank`` spans come from
``is_separable`` (through ``integer_rank``), not from the three routes, and
the cochain rank time lands in the routes' own spans.
"""

import importlib.util
from pathlib import Path

import twistlab
import twistlab.cli  # noqa: F401  (the tracer patches only loaded modules)
from twistlab.algebra import standard_algebra
from twistlab.fields import QQ
from twistlab.hochschild import hh_bar, hh_rsz
from twistlab.quivers import standard_quiver

TRACER = Path(__file__).resolve().parent.parent / "twistbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("twistbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_resolve_and_count():
    tracer_mod = load_tracer()
    tracer = tracer_mod.Tracer()
    original = twistlab.algebra.sparse_rank
    assert not hasattr(twistlab.hochschild, "sparse_rank")
    tracer.install()
    try:
        assert twistlab.algebra.sparse_rank is not original
        rsz = twistlab.hochschild.hh_rsz(standard_quiver("roundtrip"), QQ, 3)
        bar = twistlab.hochschild.hh_bar(
            standard_algebra("group_algebra_z2", QQ), 2)
        separable = twistlab.algebra.is_separable(
            standard_algebra("group_algebra_z2", QQ))
    finally:
        tracer.uninstall()
    assert twistlab.algebra.sparse_rank is original
    # Matrix.kernel_basis and Matrix.__mul__ were deleted when Matrix became
    # a record of its integer form, parallel_pairs when walks became the
    # only path enumerator, and _fast_candidate_ok with the brute-force
    # census; these are the four known stale names
    assert tracer.missing == ["linalg.Matrix.kernel_basis", "linalg.Matrix.__mul__",
                              "quivers.parallel_pairs", "twisting._fast_candidate_ok"]
    assert rsz.dims == hh_rsz(standard_quiver("roundtrip"), QQ, 3).dims
    assert bar.dims == hh_bar(standard_algebra("group_algebra_z2", QQ), 2).dims
    assert separable
    counts = tracer.counts
    for name in ("bar.nnz", "sparse_rank.rank_sum", "rsz.cochain_dim_sum"):
        assert counts[name] > 0, name
    names = {span[2] for span in tracer.spans}
    assert {"hh_rsz", "rsz_layer", "hh_bar", "bar_coboundary_columns",
            "sparse_rank", "sparse_compose_zero"} <= names
    # every sparse_rank span sits under is_separable, none under a route
    by_id = {span[0]: span for span in tracer.spans}
    parents = {by_id[span[1]][2] for span in tracer.spans
               if span[2] == "sparse_rank"}
    assert parents == {"is_separable"}
