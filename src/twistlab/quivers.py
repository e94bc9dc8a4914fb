"""Quivers, their paths (``walks``), and their algebras kQ/J^m.

A path is the tuple (source, target, arrow indices). Composition is
diagrammatic: a path (a_1, ..., a_n) requires target(a_i) =
source(a_{i+1}), and p*q traverses p first.
"""

from __future__ import annotations

import json

from .fields import Field
from .algebra import Algebra, require_fields

# the most paths of one length that ``walks`` builds; a quiver with two
# loops at a vertex doubles its layers, so a degree bound alone does not
# bound the work
PATH_LAYER_BOUND = 1 << 15


class Quiver:
    __slots__ = ("vertex_count", "arrows")

    def __init__(self, vertex_count: int, arrows):
        if vertex_count < 1:
            raise ValueError("a quiver needs at least one vertex")
        arrows = list(arrows)
        for i, arrow in enumerate(arrows):
            if len(arrow) != 2:
                raise ValueError(f"arrow {i} is {list(arrow)}, not [source, target]")
        arrows = [(int(s), int(t)) for s, t in arrows]
        for s, t in arrows:
            if not (0 <= s < vertex_count and 0 <= t < vertex_count):
                raise ValueError(f"arrow ({s},{t}) out of range")
        self.vertex_count = vertex_count
        self.arrows = arrows

    def __repr__(self) -> str:
        return f"Quiver({self.vertex_count} vertices, arrows {self.arrows})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Quiver)
            and other.vertex_count == self.vertex_count
            and other.arrows == self.arrows
        )

    def out_lists(self) -> list:
        """Per vertex, the indices of the arrows leaving it in index order,
        from one pass over the arrows."""
        out = [[] for _ in range(self.vertex_count)]
        for a, (s, _) in enumerate(self.arrows):
            out[s].append(a)
        return out

    def to_doc(self) -> dict:
        return {
            "vertex_count": self.vertex_count,
            "arrows": [[s, t] for s, t in self.arrows],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), separators=(",", ":"))

    @classmethod
    def from_doc(cls, doc: dict) -> "Quiver":
        require_fields(doc, {"vertex_count": int, "arrows": [[int]]}, "quiver")
        return cls(doc["vertex_count"], doc["arrows"])

    @classmethod
    def from_json(cls, text: str) -> "Quiver":
        return cls.from_doc(json.loads(text))


def walks(q: Quiver, top: int) -> list:
    """[Q_0, ..., Q_top] in one pass, each path as (source, target, arrows).

    Q_0 holds (v, v, ()) and Q_1 the arrows in index order; each longer
    layer extends the one before by the arrows leaving each target, so
    every layer is in lexicographic arrow order.  A ValueError, before it
    is built, for a layer of more than PATH_LAYER_BOUND paths, Q_0 included.
    """
    layers = []
    for n in range(top + 1):
        count = (q.vertex_count if n == 0 else len(q.arrows) if n == 1
                 else sum(len(out[t]) for _, t, _ in layers[-1]))
        if count > PATH_LAYER_BOUND:
            raise ValueError(
                f"{count} paths of length {n} exceed the "
                f"{PATH_LAYER_BOUND}-path layer bound"
            )
        if n == 0:
            layers.append([(v, v, ()) for v in range(q.vertex_count)])
        elif n == 1:
            layers.append([(s, t, (a,)) for a, (s, t) in enumerate(q.arrows)])
            out = q.out_lists()
        else:
            layers.append([(s, q.arrows[a][1], arrows + (a,))
                           for s, t, arrows in layers[-1] for a in out[t]])
    return layers


def is_crown(q: Quiver):
    """c when the quiver is a single oriented c-cycle (a loop is c = 1)."""
    c = q.vertex_count
    if len(q.arrows) != c:
        return None
    succ = {}
    for s, t in q.arrows:
        if s in succ:
            return None
        succ[s] = t
    if len(succ) != c:
        return None
    seen = 1
    v = succ[0]
    while v != 0:
        seen += 1
        if seen > c:
            return None
        v = succ[v]
    return c if seen == c else None


def is_connected(q: Quiver) -> bool:
    neighbours = [[] for _ in range(q.vertex_count)]
    for s, t in q.arrows:
        neighbours[s].append(t)
        neighbours[t].append(s)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in neighbours[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == q.vertex_count


def truncated_path_algebra(q: Quiver, field: Field, m: int = 2) -> Algebra:
    """kQ/J^m on the paths of length < m from one ``walks`` pass, as an
    integer form of 0s and 1s: two paths multiply to their concatenation
    when it is shorter than m, and to 0 otherwise. m = 2 gives dim
    |Q0| + |Q1|; an acyclic quiver's kQ is m = |Q0|. Associative and
    unital by construction, so ``verify_axioms`` does not rescan it. A
    ValueError for m < 1."""
    if m < 1:
        raise ValueError(f"kQ/J^m needs m >= 1, got m = {m}")
    paths = [p for layer in walks(q, m - 1) for p in layer]
    index = {p: i for i, p in enumerate(paths)}
    starting = [[] for _ in range(q.vertex_count)]
    for j, (s, t, y) in enumerate(paths):
        starting[s].append((j, t, y))
    d = len(paths)
    table = [[[0] * d for _ in range(d)] for _ in range(d)]
    for row, (s, t, x) in zip(table, paths):
        for j, t2, y in starting[t]:  # shortest first, as walks lists them
            if len(x) + len(y) >= m:
                break
            row[j][index[s, t2, x + y]] = 1
    labels = ["*".join(map("a{}".format, x)) if x else f"e{s}" for s, _, x in paths]
    return Algebra._from_integer_form(field, labels, table,
                                      [int(not x) for _, _, x in paths], 1,
                                      check=False)


def standard_quiver(name: str, c: int = None) -> Quiver:
    """Fixed layouts: roundtrip, qtilde, four_points, loop, kronecker, crown(c)."""
    if name.startswith("crown(") and name.endswith(")"):
        if not name[6:-1].isdecimal():
            raise ValueError(f"crown(c) takes a decimal integer c, got {name!r}")
        c = int(name[6:-1])
        name = "crown"
    if name == "roundtrip":
        return Quiver(2, [(0, 1), (1, 0)])
    if name == "qtilde":
        return Quiver(3, [(1, 2)])
    if name == "four_points":
        return Quiver(4, [])
    if name == "loop":
        return Quiver(1, [(0, 0)])
    if name == "kronecker":
        return Quiver(2, [(0, 1), (0, 1)])
    if name == "crown":
        if c is None or c < 1:
            raise ValueError("crown(c) requires c >= 1")
        return Quiver(c, [(i, (i + 1) % c) for i in range(c)])
    raise ValueError(f"unknown standard quiver {name!r}")
