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

A ``TriangleElements`` holds one backend and two payload triples in label
order, as a ``kernel.Point`` holds one backend and its coordinates'
payloads.  Each criterion checks once that its two sets share a backend,
then compares payloads by index: every correspondence has an index triple,
and the designations a criterion searches when it is given none have index
triples too, all built at import.  The SSA verdicts read a cosine by its
position, as payloads too.
"""

from __future__ import annotations

import enum
from itertools import permutations
from typing import Optional, Tuple

from .kernel import LABELS, Triangle, angle_cos
from .record import Record, setters
from .scalars import Backend, common_backend

# a label's position in a payload triple
_AT = {label: i for i, label in enumerate(LABELS)}

_new = object.__new__


class TriangleElements(Record):
    """Squared side lengths and angle cosines of one triangle: ``backend``
    and two payload triples in label order, ``_sides`` (the squared side
    opposite A, B and C) and ``_cosines`` (the cosine of the interior
    angle at A, B and C).

    ``measure`` builds one.  Equality, hashing, ``repr``, ``copy`` and
    ``pickle`` go by the backend and the payload triples, as ``Record``
    gives them."""

    __slots__ = ("backend", "_sides", "_cosines")


_set_backend, _set_sides, _set_cosines = setters(TriangleElements)


def measure(t: Triangle) -> TriangleElements:
    """Extract the element set of a triangle once; criteria then reuse it.

    The squared sides come from the vertices' payloads; each cosine is
    what ``angle_cos`` returns."""
    a, b, c = t.A, t.B, t.C
    ax, ay, bx, by, cx, cy = a._x, a._y, b._x, b._y, c._x, c._y
    dx, dy = cx - bx, cy - by
    sa = dx * dx + dy * dy
    dx, dy = cx - ax, cy - ay
    sb = dx * dx + dy * dy
    dx, dy = bx - ax, by - ay
    e = _new(TriangleElements)
    _set_backend(e, a.backend)
    _set_sides(e, (sa, sb, dx * dx + dy * dy))
    _set_cosines(e, (angle_cos(a, b, c), angle_cos(b, a, c),
                     angle_cos(c, a, b)))
    return e


class Correspondence(Record):
    """Vertex bijection from a first triangle onto a second one.

    ``mapping`` lists the images of (A, B, C) in order.
    """

    __slots__ = ("mapping",)

    def __init__(self, mapping: Tuple[str, str, str]):
        if sorted(mapping) != sorted(LABELS):
            raise ValueError("mapping must be a permutation of A, B, C")
        _set_mapping(self, mapping)

    def image(self, label: str) -> str:
        return self.mapping[LABELS.index(label)]

    def inverse(self) -> "Correspondence":
        inv = [None, None, None]
        for src, dst in zip(LABELS, self.mapping):
            inv[LABELS.index(dst)] = src
        return Correspondence(tuple(inv))


_set_mapping, = setters(Correspondence)


def _canonical_key(corr: Correspondence):
    # inversion-symmetric key so congruent_any(e1, e2) and congruent_any(e2, e1)
    # pick mutually inverse correspondences even for symmetric triangles
    return (min(corr.mapping, corr.inverse().mapping), corr.mapping)


# in canonical order, the identity first; the keys are unique
ALL_CORRESPONDENCES = tuple(sorted(
    (Correspondence(p) for p in permutations(LABELS)), key=_canonical_key))

# mapping -> the positions of the images of A, B and C in a payload triple
_IMAGES = {c.mapping: tuple(_AT[l] for l in c.mapping)
           for c in ALL_CORRESPONDENCES}


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
        _set_side_labels(self, side_labels)
        _set_angle_label(self, angle_label)

    @property
    def included(self) -> bool:
        return self.angle_label not in self.side_labels


_set_side_labels, _set_angle_label = setters(ElementTriple)


def _positions(triple: ElementTriple) -> Tuple[int, int, int]:
    """The payload positions of a designation: its two sides, its angle."""
    y, z = triple.side_labels
    return _AT[y], _AT[z], _AT[triple.angle_label]


# the designations criterion_a and criterion_d search when given none, in
# their search order, as payload positions
_INCLUDED = tuple(
    _positions(ElementTriple(tuple(l for l in LABELS if l != x), x))
    for x in LABELS)
_OPPOSITE = tuple(_positions(ElementTriple((y, z), y))
                  for y, z in permutations(LABELS, 2))


def _backend(e1: TriangleElements, e2: TriangleElements) -> Backend:
    """The backend of ``e1``, once ``e2`` shares it: the one check a
    criterion makes before it compares payloads of the two sets."""
    backend = e1.backend
    if e2.backend is not backend:
        common_backend(backend, e2.backend)
    return backend


def _designated_match(eq, e1, e2, image, designation) -> bool:
    """Whether the two sides and the angle at payload positions
    ``designation`` of e1 equal their images in e2."""
    i, j, k = designation
    s1, s2 = e1._sides, e2._sides
    return (eq(s1[i], s2[image[i]]) and eq(s1[j], s2[image[j]])
            and eq(e1._cosines[k], e2._cosines[image[k]]))


def criterion_a(e1: TriangleElements, e2: TriangleElements,
                corr: Correspondence,
                triple: Optional[ElementTriple] = None) -> bool:
    """Two sides and the included angle agree under corr."""
    if triple is not None:
        if not triple.included:
            raise ValueError("criterion_a needs an included angle designation")
        designations = (_positions(triple),)
    else:
        designations = _INCLUDED
    eq = _backend(e1, e2).eq
    image = _IMAGES[corr.mapping]
    return any(_designated_match(eq, e1, e2, image, d) for d in designations)


def criterion_b(e1: TriangleElements, e2: TriangleElements,
                corr: Correspondence) -> bool:
    """Two angles and one side agree under corr."""
    eq = _backend(e1, e2).eq
    image = _IMAGES[corr.mapping]
    c1, c2, s1, s2 = e1._cosines, e2._cosines, e1._sides, e2._sides
    angles = sum(eq(c1[i], c2[m]) for i, m in enumerate(image))
    return angles >= 2 and any(eq(s1[i], s2[m]) for i, m in enumerate(image))


def criterion_c(e1: TriangleElements, e2: TriangleElements,
                corr: Correspondence) -> bool:
    """All three sides agree under corr."""
    eq = _backend(e1, e2).eq
    i, j, k = _IMAGES[corr.mapping]
    s1, s2 = e1._sides, e2._sides
    return eq(s1[0], s2[i]) and eq(s1[1], s2[j]) and eq(s1[2], s2[k])


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
        designations = (_positions(triple),)
    else:
        designations = _OPPOSITE
    backend = _backend(e1, e2)
    eq, lt = backend.eq, backend.lt
    image = _IMAGES[corr.mapping]
    s1 = e1._sides
    best = Applicability.FAILS
    for d in designations:
        if not _designated_match(eq, e1, e2, image, d):
            continue
        i, j, k = d
        # the angle sits at one of the two sides' labels; w is the other side
        w = j if k == i else i
        if lt(s1[w], s1[k]):
            return Applicability.HOLDS
        best = Applicability.NOT_APPLICABLE
    return best


def congruent_any(e1: TriangleElements,
                  e2: TriangleElements) -> Optional[Correspondence]:
    """The first of the six correspondences, in canonical order, under
    which all three sides match (criterion_c); None if none does."""
    return next((c for c in ALL_CORRESPONDENCES if criterion_c(e1, e2, c)),
                None)
