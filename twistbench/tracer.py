"""Spans around the calls into each twistlab module, recorded from outside.

Each traced name is replaced where its callers look it up: every loaded
``twistlab`` module attribute that is the original function, and the class
attribute for ``Matrix`` methods. Spans live in memory as tuples
``(id, parent, name, start, end, seq)``; ``seq`` is the call's position
among same-named siblings under one parent, so the n-th
``bar_coboundary_columns`` or ``sparse_rank`` span under an ``hh_bar`` span
is degree n. ``fields`` is not wrapped: its per-scalar calls are so short
that a wrapper would measure itself. Functions in COUNTED are called too
often for spans; their wrapper only counts calls.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute, metric name); a ``Class.method`` attribute is patched
# on the class. Names missing at this commit are skipped and listed.
TRACED = [
    ("hochschild", "hh_bar", "hh_bar"),
    ("hochschild", "bar_coboundary_columns", "bar_coboundary_columns"),
    ("hochschild", "hh_rsz", "hh_rsz"),
    ("hochschild", "rsz_layer", "rsz_layer"),
    ("hochschild", "hh_e_complex", "hh_e_complex"),
    ("linalg", "sparse_rank", "sparse_rank"),
    ("linalg", "sparse_compose_zero", "sparse_compose_zero"),
    ("linalg", "Matrix.rank", "Matrix.rank"),
    ("linalg", "Matrix.kernel_basis", "Matrix.kernel_basis"),
    ("linalg", "Matrix.__mul__", "Matrix.mul"),
    ("quivers", "parallel_pairs", "parallel_pairs"),
    ("twisting", "enumerate_twisting_maps", "enumerate_twisting_maps"),
    ("twisting", "twisted_product", "twisted_product"),
    ("algebra", "jacobson_radical", "jacobson_radical"),
    ("algebra", "center", "center"),
    ("algebra", "is_separable", "is_separable"),
    ("algebra", "change_of_basis", "change_of_basis"),
    ("classify", "classify_4dim", "classify_4dim"),
    ("classify", "orbit_report", "orbit_report"),
    ("duplicates", "verify_pair", "verify_pair"),
    ("duplicates", "build_duplicate", "build_duplicate"),
    ("cli", "main", "main"),
]


def _observe_bar_columns(counts, args, result):
    counts["bar.cochain_dim_max"] = max(counts["bar.cochain_dim_max"], len(result))
    counts["bar.nnz"] += sum(len(col) for col in result)


def _observe_sparse_rank(counts, args, result):
    counts["sparse_rank.nnz_in"] += sum(len(v) for v in args[0])
    counts["sparse_rank.rank_sum"] += result


def _observe_rsz_layer(counts, args, result):
    counts["rsz.cochain_dim_sum"] += len(result.basis_p0) + len(result.basis_p1)


def _observe_enumeration(counts, args, result):
    counts["found"] += len(result)


def _observe_classify(counts, args, result):
    counts["unknown"] += result == "unknown"


OBSERVERS = {
    "bar_coboundary_columns": _observe_bar_columns,
    "sparse_rank": _observe_sparse_rank,
    "rsz_layer": _observe_rsz_layer,
    "enumerate_twisting_maps": _observe_enumeration,
    "classify_4dim": _observe_classify,
}


# (module, attribute, count name): functions called so often that a span
# would measure the wrapper; only their calls are counted
COUNTED = [
    ("twisting", "_fast_candidate_ok", "candidates"),
]


class Tracer:
    """Installs span-recording wrappers and keeps the spans of one pass."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.seq = Counter()
        self.paused = False
        self.missing = []
        self._patches = []

    def reset(self):
        self.spans, self.stack = [], []
        self.counts, self.seq = Counter(), Counter()

    def install(self):
        self.missing = []
        for mod_name, attr, name in TRACED:
            module = sys.modules.get(f"twistlab.{mod_name}")
            owner_name, _, key = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, key, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(name, original)
            if owner_name:
                self._patch(owner, key, original, wrapper)
                continue
            for mod_key, mod in list(sys.modules.items()):
                if mod_key == "twistlab" or mod_key.startswith("twistlab."):
                    for mod_attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, mod_attr, original, wrapper)
        for mod_name, attr, name in COUNTED:
            module = sys.modules.get(f"twistlab.{mod_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._patch(module, attr, original, self._count(name, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            seq = tracer.seq[(parent, name)]
            tracer.seq[(parent, name)] = seq + 1
            tracer.spans.append(None)
            tracer.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[sid] = (sid, parent, name, start, end, seq)
            tracer.counts[f"{name}.calls"] += 1
            if observe is not None:
                observe(tracer.counts, args, result)
            return result

        return traced

    def _count(self, name, fn):
        tracer = self

        def counted(*args, **kwargs):
            if not tracer.paused:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def root(self, name):
        """A root span for one job, so all spans of the job share an ancestor."""
        sid = len(self.spans)
        self.spans.append(None)
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[sid] = (sid, -1, name, start, end, 0)


def layer_times(spans):
    """Per name: inclusive seconds (outermost spans only) and self seconds."""
    child_time = defaultdict(float)
    for sid, parent, name, start, end, seq in spans:
        if parent >= 0:
            child_time[parent] += end - start
    names = {sid: name for sid, _, name, *_ in spans}
    parents = {sid: parent for sid, parent, *_ in spans}
    inclusive, self_time = defaultdict(float), defaultdict(float)
    for sid, parent, name, start, end, seq in spans:
        dur = end - start
        self_time[name] += dur - child_time[sid]
        anc = parent
        while anc >= 0 and names[anc] != name:
            anc = parents[anc]
        if anc < 0:
            inclusive[name] += dur
    return inclusive, self_time
