"""Isomorphism classes of the 4-dimensional products and the orbit census.

Four reference classes over a field of characteristic != 2:

  I    k^4                          commutative, semisimple
  IIa  2x2 matrix ring              central simple
  IIb  round-trip quiver mod J^2    radical of dimension 2
  III  three-vertex one-arrow path  radical of dimension 1, center of 2

Each class is pinned by a basis-independent fingerprint, so membership is
decided by computing invariants, never by searching for an isomorphism.
`orbit_report` labels every row of `census_rows`, over F_p and Q alike.
"""

from dataclasses import dataclass
from fractions import Fraction

from .fields import Field
from .linalg import Matrix
from .algebra import (
    Algebra,
    commutator_rows,
    integer_rank,
    is_isomorphism,  # noqa: F401  (re-exported: classify.is_isomorphism)
    radical_power_dims,
    standard_algebra,
)
from .twisting import (
    TwistFamilyDescriptor,
    census_row_strings,
    census_rows,
    family_member,
    twisted_product,
)

CLASS_ORDER = ("I", "IIa", "IIb", "III", "unknown")

CHAR2_NOTE = (
    "the four-class table assumes characteristic != 2; "
    "char-2 census members are reported as unknown"
)


@dataclass(frozen=True)
class Fingerprint:
    """Basis-independent discriminating data of a finite-dim algebra."""

    dim: int
    commutative: bool
    center_dim: int
    radical_dims: tuple
    separable: bool

    def to_doc(self) -> dict:
        return {
            "dim": self.dim,
            "commutative": self.commutative,
            "center_dim": self.center_dim,
            "radical_dims": list(self.radical_dims),
            "separable": self.separable,
        }


REFERENCE_FINGERPRINTS = {
    "I": Fingerprint(4, True, 4, (), True),
    "IIa": Fingerprint(4, False, 1, (), True),
    "IIb": Fingerprint(4, False, 1, (2, 0), False),
    "III": Fingerprint(4, False, 2, (1, 0), False),
}


def fingerprint(a: Algebra) -> Fingerprint:
    """The invariants from the integer table.  The trace form is built
    once, in ``radical_power_dims``, whose integer rows are only counted:
    the algebra is separable exactly when its kernel is empty (rank d), so
    exactly when the radical dims are [], and only a nonzero kernel goes on
    to the ideal and nilpotency checks.  The center has dimension d minus
    the rank of ``commutator_rows``, and the algebra is commutative exactly
    when that is d."""
    d = a.dim
    dims = radical_power_dims(a)
    center_dim = d - integer_rank(commutator_rows(a.int_table),
                                  a.field.characteristic)
    return Fingerprint(d, center_dim == d, center_dim, tuple(dims), not dims)


def classify_4dim(a: Algebra) -> str:
    """Class label of a 4-dim algebra, or "unknown" outside the table."""
    if a.dim != 4:
        raise ValueError("the class table covers dimension 4 only")
    if a.field.characteristic == 2:
        return "unknown"
    fp = fingerprint(a)
    for label, ref in REFERENCE_FINGERPRINTS.items():
        if fp == ref:
            return label
    return "unknown"


def reference_isomorphism(name: str, field: Field, q=None) -> tuple:
    """One of the fixed explicit isomorphisms, as (matrix, source, target).

    aq_to_matrix(q): A_q -> 2x2 matrices via a -> diag(1,-1) and
        b -> [[q/2, (2-q)/2], [(2+q)/2, -q/2]]; the induced linear map is
        singular exactly at q = 2 and q = -2, where it is rejected.
    a_minus2_to_a2: A_{-2} -> A_2 via a -> b - 2a, b -> a, ab -> -ab.
    r_to_a_minus2: round-trip-mod-J^2 -> A_{-2} via the idempotent pair
        (1 -+ a)/2 and the radical images (1 + a)(1 + b)/4, (1 - a)(1 - b)/4.
    """
    f = field
    if f.characteristic == 2:
        raise ValueError("the reference isomorphisms need characteristic != 2")
    h, u = Fraction(1, 2), Fraction(1, 4)
    if name == "aq_to_matrix":
        if q is None:
            raise ValueError("aq_to_matrix needs the parameter q")
        qv = f.scalar(q)
        if not f.scalar(qv * qv - 4):
            raise ValueError(
                "no isomorphism at q = 2 or q = -2: "
                "the induced linear map is singular there"
            )
        src = standard_algebra("a_q", f, q=q)
        tgt = standard_algebra("matrix2", f)
        qh, xh, yh = qv * h, (2 - qv) * h, (2 + qv) * h
        cols = [
            [1, 0, 0, 1],
            [1, 0, 0, -1],
            [qh, xh, yh, -qh],
            [qh, xh, -yh, qh],
        ]
    elif q is not None:
        raise ValueError(f"{name} takes no parameter")
    elif name == "a_minus2_to_a2":
        src = standard_algebra("a_q", f, q=-2)
        tgt = standard_algebra("a_q", f, q=2)
        cols = [
            [1, 0, 0, 0],
            [0, -2, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, -1],
        ]
    elif name == "r_to_a_minus2":
        src = standard_algebra("truncated_roundtrip", f)
        tgt = standard_algebra("a_q", f, q=-2)
        cols = [
            [h, -h, 0, 0],
            [h, h, 0, 0],
            [u, u, u, u],
            [u, -u, -u, u],
        ]
    else:
        raise ValueError(f"unknown reference isomorphism {name!r}")
    return Matrix(f, 4, 4, list(zip(*cols))), src, tgt


@dataclass(frozen=True)
class OrbitEntry:
    """One census member with its class label; scalars kept as strings."""

    family: str
    parameter: str
    p: str
    q: str
    r: str
    s: str
    invertible: bool
    label: str


@dataclass
class OrbitReport:
    field_name: str
    characteristic: int
    entries: list
    class_counts: dict
    note: str = None

    def to_doc(self) -> dict:
        doc = {
            "field": self.field_name,
            "characteristic": self.characteristic,
            "entries": [
                {
                    "family": e.family,
                    "parameter": e.parameter,
                    "p": e.p, "q": e.q, "r": e.r, "s": e.s,
                    "invertible": e.invertible,
                    "class": e.label,
                }
                for e in self.entries
            ],
            "class_counts": dict(self.class_counts),
        }
        if self.note is not None:
            doc["note"] = self.note
        return doc


def _count_labels(entries: list) -> dict:
    counts = {}
    for label in CLASS_ORDER:
        n = sum(1 for e in entries if e.label == label)
        if n:
            counts[label] = n
    return counts


def orbit_report(field: Field) -> OrbitReport:
    """Classify every row of ``census_rows`` over the given field.

    Prime fields go up to p = 13.  Over Q the symbolic line row becomes one
    generic entry plus its two special points.  In characteristic 2 every
    entry is unknown (``classify_4dim``) and the report carries CHAR2_NOTE.
    """
    f = field
    if f.characteristic > 13:
        raise ValueError("orbit report covers prime fields up to p = 13")
    z2 = standard_algebra("group_algebra_z2", f)

    def entry(row, label):
        return OrbitEntry(**census_row_strings(row, f), label=label)

    def line_label(alpha):
        t = family_member(TwistFamilyDescriptor("line_char_ne_2", alpha), z2, z2)
        return classify_4dim(twisted_product(t))

    entries = []
    for row in census_rows(f):
        if row["map"] is not None:
            entries.append(entry(row, classify_4dim(twisted_product(row["map"]))))
            continue
        # every alpha with alpha^2 != 4 admits the matrix-units isomorphism,
        # so spot samples stand in for the whole punctured line
        generic = {line_label(alpha) for alpha in (0, 1, 3, -1, 5)}
        if len(generic) != 1:
            raise RuntimeError("punctured-line samples disagree on the class")
        entries.append(entry(dict(row, parameter="alpha^2 != 4"), generic.pop()))
        for alpha in map(f.scalar, (2, -2)):
            entries.append(entry(dict(row, parameter=alpha, p=alpha),
                                 line_label(alpha)))
    return OrbitReport(
        f.name, f.characteristic, entries, _count_labels(entries),
        note=CHAR2_NOTE if f.characteristic == 2 else None,
    )


ORBIT_TSV_HEADER = "family\tparameter\tp\tq\tr\ts\tinvertible\tclass"


def orbit_tsv(report: OrbitReport) -> str:
    lines = [ORBIT_TSV_HEADER]
    for e in report.entries:
        lines.append("\t".join([
            e.family, e.parameter, e.p, e.q, e.r, e.s,
            "yes" if e.invertible else "no", e.label,
        ]))
    return "\n".join(lines) + "\n"
