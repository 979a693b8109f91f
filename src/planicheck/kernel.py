"""Planar geometry kernel: points, isometries, triangles, and the angle,
side-of-line and concyclicity predicates the SSA solver and the common-side
lemma run on.

All values are immutable and tied to one scalar backend.  Angles are handled
through their cosines, which are injective on (0, pi); degrees never appear
below the CLI.  Degenerate inputs raise, they are not silently patched.
Constructions that only an audit needs (the circle through three points,
the incenter, mirror images) are not part of it; the test suite builds them
from this public API.

``Point``, ``Triangle`` and ``Isometry`` are ``record.Record``s, as is
every value class of the layers above: ``__slots__`` classes that refuse
assignment and compare, hash and print by their fields as frozen
dataclasses do, without loading ``dataclasses`` or building each class by
``exec``.  Each of the three validates in its own ``__init__``.  A
``Triangle`` checks that its vertices share a backend and
that ``side`` does not call them collinear; ``trusted_triangle`` builds one
without those checks, for ``solve_ssa`` alone, whose kept roots have
already cleared a collinearity band at least as wide.

A ``Point`` holds one backend and the raw payloads of its coordinates, as
a point of the kernels of Hert, Hoffmann, Kettner, Pion and Seel ("An
adaptable and extensible geometry kernel", CGTA 38, 2007) is parameterised
by one kernel and holds plain numbers.  Its public constructor takes two
``Scalar``s and checks that they share a backend; ``point`` converts two
numbers by the backend's ``payload``, and ``payload_point`` takes two
payloads of one backend, so neither has a check to skip.  ``x`` and ``y``
wrap a payload in a ``Scalar`` on each read, for callers at the package
boundary; the kernel reads the payloads.  ``squared_distance``,
``angle_cos``, ``side`` (the orientation and its scale in one pass),
``concyclic``, ``concyclicity_determinant``, ``dot``, ``cross``, ``Point``
subtraction and ``Isometry.apply`` compute on the payloads, after checking
that the values share one backend, and wrap in a ``Scalar`` only the values
they return.

Every zero test goes through the backend's ``vanishes(value, scale,
degree)`` on a payload: exact zero on the exact backend, |value| <=
eps * scale^degree on the float backend, with ``scale`` the configuration
size, the backend's ``size`` of the coordinates (max of 1 and their
magnitudes on the float backend, never converted on the exact one), and
``degree`` the quantity's degree in lengths:
the side of a line (and so collinearity) 2, concyclicity 4 (its points
must lie more than eps*scale apart, a length test of degree 1).  So the
predicates are written once for both backends, and every side-of-line
question (a triangle's validity, the lemma's opposite sides, the common-side
placement) is answered by the one rule in ``side``.
"""

from __future__ import annotations

from typing import Tuple

from .record import Record, _set
from .scalars import (
    Backend,
    BackendMismatchError,
    DegenerateInputError,
    LengthMismatchError,
    Scalar,
    common_backend,
    same_backend,
    to_float,
)

LABELS = ("A", "B", "C")


_new = object.__new__


class Point(Record):
    """A point of one backend: ``backend`` and the payloads ``_x`` and
    ``_y`` of its coordinates.  ``x`` and ``y`` wrap them in a ``Scalar``
    on each read, for callers at the package boundary; equality and
    hashing go by the backend and the payloads."""

    __slots__ = ("backend", "_x", "_y")

    def __init__(self, x: Scalar, y: Scalar):
        backend = x.backend
        if y.backend is not backend and not same_backend(backend, y.backend):
            raise BackendMismatchError("point coordinates from different backends")
        _set(self, "backend", backend)
        _set(self, "_x", x._v)
        _set(self, "_y", y._v)

    @property
    def x(self) -> Scalar:
        return Scalar(self.backend, self._x)

    @property
    def y(self) -> Scalar:
        return Scalar(self.backend, self._y)

    def __repr__(self):
        return f"Point(x={self.x!r}, y={self.y!r})"

    def __reduce__(self):
        # through the public constructor, whose fields are x and y
        return Point, (self.x, self.y)

    def __sub__(self, other: "Point") -> "Point":
        return payload_point(_backend(self, other), self._x - other._x,
                             self._y - other._y)

    def eq(self, other: "Point") -> bool:
        eq = _backend(self, other).eq
        return eq(self._x, other._x) and eq(self._y, other._y)

    def as_floats(self) -> Tuple[float, float]:
        """The coordinates as binary64, without a ``Scalar``."""
        return to_float(self._x), to_float(self._y)


def payload_point(backend: Backend, x, y) -> Point:
    """The ``Point`` of payloads ``x`` and ``y`` of ``backend``: one
    backend for both, so ``Point``'s check has nothing to test."""
    p = _new(Point)
    _set(p, "backend", backend)
    _set(p, "_x", x)
    _set(p, "_y", y)
    return p


def point(backend: Backend, x, y) -> Point:
    return payload_point(backend, backend.payload(x), backend.payload(y))


def dot(u: Point, v: Point) -> Scalar:
    return Scalar(_backend(u, v), u._x * v._x + u._y * v._y)


def cross(u: Point, v: Point) -> Scalar:
    return Scalar(_backend(u, v), u._x * v._y - u._y * v._x)


def _backend(p: Point, *others: Point) -> Backend:
    """The backend of ``p``, once every point of ``others`` shares it: the
    check before a function combines the payloads of several points."""
    backend = p.backend
    for q in others:
        if q.backend is not backend:
            common_backend(backend, q.backend)
    return backend


def squared_distance(p: Point, q: Point) -> Scalar:
    backend = _backend(p, q)
    dx, dy = q._x - p._x, q._y - p._y
    return Scalar(backend, dx * dx + dy * dy)


def coord_scale(*points: Point) -> float:
    """Configuration size that scales the backend's tolerance: the
    backend's ``size`` of the coordinates (on the float backend their
    largest magnitude, floored at 1)."""
    return _backend(*points).size(
        *[v for p in points for v in (p._x, p._y)])


def _orientation(p: Point, q: Point, r: Point):
    """(backend, twice the signed area of pqr as a payload, the
    configuration size ``coord_scale(p, q, r)``), in one pass over the
    payloads."""
    backend = _backend(p, q, r)
    px, py, qx, qy, rx, ry = p._x, p._y, q._x, q._y, r._x, r._y
    value = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    return backend, value, backend.size(px, py, qx, qy, rx, ry)


def side(p: Point, q: Point, r: Point) -> int:
    """Side of the directed line pq that r lies on: 1 left, -1 right, and 0
    when the orientation vanishes at degree 2 (r on the line)."""
    backend, value, scale = _orientation(p, q, r)
    if backend.vanishes(value, scale, 2):
        return 0
    return backend.sign(value)


def collinear(p: Point, q: Point, r: Point) -> bool:
    return side(p, q, r) == 0


def angle_cos(vertex: Point, end1: Point, end2: Point) -> Scalar:
    """Cosine of the angle at ``vertex`` subtended by the two ends,
    dot(u, w) / sqrt(|u|^2 |w|^2), as the backend's ``cosine`` forms it.

    On rational coordinates the exact backend gives an exactly comparable
    single radical, which collapses to a rational when possible.
    """
    backend = _backend(vertex, end1, end2)
    eq = backend.eq
    vx, vy = vertex._x, vertex._y
    x1, y1, x2, y2 = end1._x, end1._y, end2._x, end2._y
    if (eq(vx, x1) and eq(vy, y1)) or (eq(vx, x2) and eq(vy, y2)):
        raise DegenerateInputError("angle at coincident points")
    ux, uy, wx, wy = x1 - vx, y1 - vy, x2 - vx, y2 - vy
    return Scalar(backend, backend.cosine(ux * wx + uy * wy,
                                          ux * ux + uy * uy,
                                          wx * wx + wy * wy))


def supplementary(cos1: Scalar, cos2: Scalar) -> bool:
    """True iff the two angles sum to a straight angle (cos1 == -cos2),
    decided on the payloads once the two backends may meet."""
    backend = common_backend(cos1.backend, cos2.backend)
    return backend.eq(cos1._v, -cos2._v)


class Isometry(Record):
    """Rigid motion p -> R * M * p + t with R a rotation and M an optional
    mirror across the x axis (applied first when ``mirror`` is set)."""

    __slots__ = ("cos_t", "sin_t", "tx", "ty", "mirror")

    def __init__(self, cos_t: Scalar, sin_t: Scalar, tx: Scalar, ty: Scalar,
                 mirror: bool = False):
        for v in (sin_t, tx, ty):
            common_backend(cos_t.backend, v.backend)
        n = cos_t * cos_t + sin_t * sin_t
        if not n.eq(1):
            raise ValueError("rotation part must satisfy cos^2 + sin^2 = 1")
        Record.__init__(self, cos_t, sin_t, tx, ty, mirror)

    def apply(self, obj):
        if isinstance(obj, Point):
            # on the payloads: the rotated (and mirrored) point, then the shift
            backend = common_backend(self.cos_t.backend, obj.backend)
            c, s = self.cos_t._v, self.sin_t._v
            x, y = (obj._x, -obj._y) if self.mirror else (obj._x, obj._y)
            return payload_point(backend, (c * x - s * y) + self.tx._v,
                                 (s * x + c * y) + self.ty._v)
        if isinstance(obj, Triangle):
            return Triangle(self.apply(obj.A), self.apply(obj.B), self.apply(obj.C))
        raise TypeError(f"cannot apply isometry to {type(obj).__name__}")


def isometry_taking_segment_to_segment(src1: Point, src2: Point,
                                       dst1: Point, dst2: Point,
                                       mirror: bool = False) -> Isometry:
    """The isometry sending src1 -> dst1 and src2 -> dst2.

    Requires equal segment lengths; with equal lengths the rotation part is
    rational for rational inputs, so the exact backend stays exact.
    """
    su = src2 - src1
    dv = dst2 - dst1
    n2 = dot(su, su)
    if n2.sign() == 0 or not n2.eq(dot(dv, dv)):
        raise LengthMismatchError("segments must be nonzero and of equal length")
    if mirror:
        su = payload_point(su.backend, su._x, -su._y)
    c = dot(su, dv) / n2
    s = cross(su, dv) / n2
    # renormalize against float rounding drift; the exact norm is 1
    n = (c * c + s * s).sqrt()
    c, s = c / n, s / n
    g0 = Isometry(c, s, c - c, c - c, mirror)  # zero translation, same backend
    t = dst1 - g0.apply(src1)
    return Isometry(c, s, t.x, t.y, mirror)


class Triangle(Record):
    """Labeled, strictly non-collinear triangle."""

    __slots__ = ("A", "B", "C")

    def __init__(self, A: Point, B: Point, C: Point):
        backend = A.backend
        if not (same_backend(backend, B.backend)
                and same_backend(backend, C.backend)):
            raise BackendMismatchError("triangle vertices from different backends")
        if collinear(A, B, C):
            raise DegenerateInputError("collinear triangle")
        _set(self, "A", A)
        _set(self, "B", B)
        _set(self, "C", C)

    @property
    def backend(self) -> Backend:
        return self.A.backend

    def vertex(self, label: str) -> Point:
        return getattr(self, label)

    def others(self, label: str):
        return tuple(l for l in LABELS if l != label)


def trusted_triangle(A: Point, B: Point, C: Point) -> Triangle:
    """The ``Triangle`` ABC, built without the checks of ``Triangle``: for
    a caller that has already shown that the vertices share one backend
    and that ``side(A, B, C)`` is not 0.  ``solve_ssa`` is its one caller,
    and an import rule of the test suite keeps it so."""
    t = _new(Triangle)
    _set(t, "A", A)
    _set(t, "B", B)
    _set(t, "C", C)
    return t


def concyclicity_determinant(p1: Point, p2: Point, p3: Point, p4: Point) -> Scalar:
    """Determinant of rows [x, y, x^2 + y^2, 1]; zero iff concyclic (given the
    no-three-collinear precondition).  Homogeneous of degree 4 in coordinates.

    Computed on the payloads, reducing each of the first three rows by the
    fourth: rows (x - x4, y - y4, (x^2 + y^2) - (x4^2 + y4^2)) and their
    3x3 determinant, expanded along the first row."""
    backend = _backend(p1, p2, p3, p4)
    x4, y4 = p4._x, p4._y
    n4 = x4 * x4 + y4 * y4
    rows = []
    for p in (p1, p2, p3):
        x, y = p._x, p._y
        rows.append((x - x4, y - y4, (x * x + y * y) - n4))
    (a1, b1, c1), (a2, b2, c2), (a3, b3, c3) = rows
    return Scalar(backend, a1 * (b2 * c3 - b3 * c2)
                  - b1 * (a2 * c3 - a3 * c2)
                  + c1 * (a2 * b3 - a3 * b2))


def concyclic(p1: Point, p2: Point, p3: Point,
              p4: Point) -> Tuple[bool, Scalar]:
    """Whether the four points lie on one circle, that is whether their
    ``concyclicity_determinant`` vanishes at degree 4, and that determinant.

    Preconditions: four distinct points (no distance between two of them
    vanishes at degree 1), no three collinear.
    """
    pts = (p1, p2, p3, p4)
    backend = _backend(*pts)
    scale = backend.size(*[v for p in pts for v in (p._x, p._y)])
    for i in range(4):
        for j in range(i + 1, 4):
            p, q = pts[i], pts[j]
            dx, dy = q._x - p._x, q._y - p._y
            if backend.vanishes(backend.sqrt(dx * dx + dy * dy), scale, 1):
                raise DegenerateInputError("concyclicity needs 4 distinct points")
    for i in range(4):
        trio = [p for k, p in enumerate(pts) if k != i]
        if collinear(*trio):
            raise DegenerateInputError("three of the points are collinear")
    det = concyclicity_determinant(*pts)
    return backend.vanishes(det._v, scale, 4), det
