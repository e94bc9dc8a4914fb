"""Quivers, their paths (``walks``), and (truncated) path algebras.

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

    def arrows_from(self, v: int) -> list:
        return [i for i, (s, _) in enumerate(self.arrows) if s == v]

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
    is built, for a layer of more than PATH_LAYER_BOUND paths.
    """
    out = [q.arrows_from(v) for v in range(q.vertex_count)]
    layers = [
        [(v, v, ()) for v in range(q.vertex_count)],
        [(s, t, (a,)) for a, (s, t) in enumerate(q.arrows)],
    ]
    for n in range(2, top + 1):
        count = sum(len(out[t]) for _, t, _ in layers[-1])
        if count > PATH_LAYER_BOUND:
            raise ValueError(
                f"{count} paths of length {n} exceed the "
                f"{PATH_LAYER_BOUND}-path layer bound"
            )
        layers.append([(s, q.arrows[a][1], arrows + (a,))
                       for s, t, arrows in layers[-1] for a in out[t]])
    return layers[: top + 1]


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


_WHITE, _GREY, _BLACK = 0, 1, 2


def has_oriented_cycle(q: Quiver) -> bool:
    color = [_WHITE] * q.vertex_count
    out = [q.arrows_from(v) for v in range(q.vertex_count)]
    return any(color[v] == _WHITE and _reaches_grey(q, out, color, v)
               for v in range(q.vertex_count))


def _reaches_grey(q: Quiver, out: list, color: list, v: int) -> bool:
    """Depth-first visit of v: whether it reaches a vertex still on the
    stack (grey), that is, closes an oriented cycle."""
    color[v] = _GREY
    for a in out[v]:
        w = q.arrows[a][1]
        if color[w] == _GREY:
            return True
        if color[w] == _WHITE and _reaches_grey(q, out, color, w):
            return True
    color[v] = _BLACK
    return False


def longest_path_length(q: Quiver) -> int:
    """Longest path length in an acyclic quiver."""
    if has_oriented_cycle(q):
        raise ValueError("quiver has an oriented cycle")
    return max(n for n, layer in enumerate(walks(q, q.vertex_count - 1)) if layer)


def truncated_path_algebra(q: Quiver, field: Field) -> Algebra:
    """kQ modulo all paths of length >= 2; dim = |Q0| + |Q1|, as an
    integer form of 0s and 1s. Associative and unital by construction, so
    ``verify_axioms`` does not rescan it."""
    nv = q.vertex_count
    na = len(q.arrows)
    d = nv + na
    labels = [f"e{v}" for v in range(nv)] + [f"a{i}" for i in range(na)]
    table = [[[0] * d for _ in range(d)] for _ in range(d)]
    for v in range(nv):
        table[v][v][v] = 1
    for i, (s, t) in enumerate(q.arrows):
        table[s][nv + i][nv + i] = 1  # e_s * a = a
        table[nv + i][t][nv + i] = 1  # a * e_t = a
    return Algebra._from_integer_form(field, labels, table, [1] * nv + [0] * na,
                                      1, check=False)


def path_algebra_acyclic(q: Quiver, field: Field) -> Algebra:
    """Full path algebra, basis all paths; only for acyclic quivers."""
    if has_oriented_cycle(q):
        raise ValueError("path algebra is infinite-dimensional: oriented cycle present")
    # an acyclic path visits each vertex at most once
    paths = [p for layer in walks(q, q.vertex_count - 1) for p in layer]
    index = {p: i for i, p in enumerate(paths)}
    d = len(paths)
    table = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i, (s, t, x) in enumerate(paths):
        for j, (s2, t2, y) in enumerate(paths):
            if t == s2:
                table[i][j][index[s, t2, x + y]] = 1
    labels = ["*".join(f"a{a}" for a in x) if x else f"e{s}" for s, _, x in paths]
    return Algebra._from_integer_form(field, labels, table,
                                      [int(not x) for _, _, x in paths], 1)


def standard_quiver(name: str, c: int = None) -> Quiver:
    """Fixed layouts: roundtrip, qtilde, four_points, loop, kronecker, crown(c)."""
    if name.startswith("crown(") and name.endswith(")"):
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
