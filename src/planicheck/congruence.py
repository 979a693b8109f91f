"""Triangle congruence criteria over measured element sets.

Criteria are decision procedures on ``TriangleElements`` (squared sides plus
angle cosines) under an explicit vertex correspondence:

* criterion_a: two sides and the included angle,
* criterion_b: two angles and one side,
* criterion_c: all three sides,
* criterion_d: two sides and the angle opposite the strictly greater one.

criterion_d is three-valued: when the designated angle sits opposite the
smaller (or an equal) matched side its premise fails, which is reported as
NOT_APPLICABLE rather than False; that regime is exactly where two distinct
triangles can share the designated elements.

``congruent_any`` searches the six correspondences over the same measured
sets, so a caller measures each triangle once and hands the sets on.
"""

from __future__ import annotations

import enum
from itertools import permutations
from typing import Dict, Optional, Tuple

from .kernel import LABELS, Triangle, angle_cos, squared_distance
from .record import Record, _set
from .scalars import Backend, Scalar, common_backend


class TriangleElements(Record):
    """Squared side lengths and angle cosines, both keyed by vertex label.

    ``side_sq[X]`` is the squared side opposite vertex X; ``cos_at[X]`` the
    cosine of the interior angle at X.  Treat the dicts as immutable.
    """

    __slots__ = ("side_sq", "cos_at")

    def __init__(self, side_sq: Dict[str, Scalar], cos_at: Dict[str, Scalar]):
        _set(self, "side_sq", side_sq)
        _set(self, "cos_at", cos_at)

    @property
    def backend(self) -> Backend:
        return self.side_sq["A"].backend


def measure(t: Triangle) -> TriangleElements:
    """Extract the element set of a triangle once; criteria then reuse it."""
    a, b, c = t.A, t.B, t.C
    return TriangleElements(
        {"A": squared_distance(b, c), "B": squared_distance(a, c),
         "C": squared_distance(a, b)},
        {"A": angle_cos(a, b, c), "B": angle_cos(b, a, c),
         "C": angle_cos(c, a, b)})


class Correspondence(Record):
    """Vertex bijection from a first triangle onto a second one.

    ``mapping`` lists the images of (A, B, C) in order.
    """

    __slots__ = ("mapping",)

    def __init__(self, mapping: Tuple[str, str, str]):
        if sorted(mapping) != sorted(LABELS):
            raise ValueError("mapping must be a permutation of A, B, C")
        _set(self, "mapping", mapping)

    def image(self, label: str) -> str:
        return self.mapping[LABELS.index(label)]

    def inverse(self) -> "Correspondence":
        inv = [None, None, None]
        for src, dst in zip(LABELS, self.mapping):
            inv[LABELS.index(dst)] = src
        return Correspondence(tuple(inv))


def _canonical_key(corr: Correspondence):
    # inversion-symmetric key so congruent_any(e1, e2) and congruent_any(e2, e1)
    # pick mutually inverse correspondences even for symmetric triangles
    return (min(corr.mapping, corr.inverse().mapping), corr.mapping)


# in canonical order, the identity first; the keys are unique
ALL_CORRESPONDENCES = tuple(sorted(
    (Correspondence(p) for p in permutations(LABELS)), key=_canonical_key))


class Applicability(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    NOT_APPLICABLE = "not-applicable"


class ElementTriple(Record):
    """Designation of two given sides and one given angle, by labels of the
    first triangle.  Sides are named by their opposite vertices; the angle by
    the vertex it sits at.  Included means the angle is between the sides."""

    __slots__ = ("side_labels", "angle_label")

    def __init__(self, side_labels: Tuple[str, str], angle_label: str):
        y, z = side_labels
        if y == z or y not in LABELS or z not in LABELS or angle_label not in LABELS:
            raise ValueError("element designation needs two distinct side labels")
        _set(self, "side_labels", side_labels)
        _set(self, "angle_label", angle_label)

    @property
    def included(self) -> bool:
        return self.angle_label not in self.side_labels


def _sides_match(e1, e2, corr, labels) -> bool:
    eq = common_backend(e1.backend, e2.backend).eq
    s1, s2 = e1.side_sq, e2.side_sq
    for l in labels:
        if not eq(s1[l]._v, s2[corr.image(l)]._v):
            return False
    return True


def _angle_matches(e1, e2, corr, label) -> bool:
    eq = common_backend(e1.backend, e2.backend).eq
    return eq(e1.cos_at[label]._v, e2.cos_at[corr.image(label)]._v)


def criterion_a(e1: TriangleElements, e2: TriangleElements,
                corr: Correspondence,
                triple: Optional[ElementTriple] = None) -> bool:
    """Two sides and the included angle agree under corr."""
    if triple is not None:
        if not triple.included:
            raise ValueError("criterion_a needs an included angle designation")
        triples = (triple,)
    else:
        triples = tuple(ElementTriple(tuple(l for l in LABELS if l != x), x)
                        for x in LABELS)
    return any(_sides_match(e1, e2, corr, t.side_labels)
               and _angle_matches(e1, e2, corr, t.angle_label)
               for t in triples)


def criterion_b(e1: TriangleElements, e2: TriangleElements,
                corr: Correspondence) -> bool:
    """Two angles and one side agree under corr."""
    angles = sum(_angle_matches(e1, e2, corr, x) for x in LABELS)
    side = any(_sides_match(e1, e2, corr, (x,)) for x in LABELS)
    return angles >= 2 and side


def criterion_c(e1: TriangleElements, e2: TriangleElements,
                corr: Correspondence) -> bool:
    """All three sides agree under corr."""
    return _sides_match(e1, e2, corr, LABELS)


def criterion_d(e1: TriangleElements, e2: TriangleElements,
                corr: Correspondence,
                triple: Optional[ElementTriple] = None) -> Applicability:
    """Two sides and the angle opposite the strictly greater one.

    With an explicit non-included designation: HOLDS/FAILS when the designated
    angle is opposite the strictly greater matched side, NOT_APPLICABLE when it
    is opposite the smaller or an equal side (no strict greater exists).
    Without one, searches all designations; HOLDS wins over NOT_APPLICABLE.
    """
    if triple is not None:
        if triple.included:
            raise ValueError("criterion_d needs the angle opposite a given side")
        triples = (triple,)
    else:
        triples = tuple(ElementTriple((y, z), x)
                        for y, z in permutations(LABELS, 2)
                        for x in (y,))
    best = Applicability.FAILS
    for t in triples:
        if not (_sides_match(e1, e2, corr, t.side_labels)
                and _angle_matches(e1, e2, corr, t.angle_label)):
            continue
        x = t.angle_label
        w = next(l for l in t.side_labels if l != x)
        if e1.side_sq[x].gt(e1.side_sq[w]):
            return Applicability.HOLDS
        best = Applicability.NOT_APPLICABLE
    return best


def congruent_any(e1: TriangleElements,
                  e2: TriangleElements) -> Optional[Correspondence]:
    """The first of the six correspondences, in canonical order, under
    which all three sides match (criterion_c); None if none does."""
    return next((c for c in ALL_CORRESPONDENCES if criterion_c(e1, e2, c)),
                None)
