"""Classical constructions on the geometry kernel, for audits.

Lines, circumcircle, incenter with bisector feet, internal bisector line,
signed distance and reflection.  The program itself needs none of them: the
scenario residuals build their points in raw binary64 (``planicheck.
scenarios``' figure builders), and the kernel answers side-of-line questions
with ``side``.  These constructions use only the public kernel API, on
either backend, so the tests can check those figures against a second,
independent construction.

``reference_measure``, ``reference_orient`` and ``reference_solutions`` are
``measure``, ``orient`` and ``solve_ssa`` written in ``Scalar`` arithmetic
on ``dot``, ``cross`` and ``Point`` subtraction.  The program computes on
the payloads instead; on the float backend both must perform the same IEEE
operations in the same order, so their results agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from planicheck.kernel import (
    LABELS,
    Point,
    Triangle,
    cross,
    dot,
    orient,
    point,
    squared_distance,
)
from planicheck.scalars import (
    Backend,
    DegenerateInputError,
    ExactValueError,
    Scalar,
)


@dataclass(frozen=True)
class Line:
    """Locus u*x + v*y + w = 0, canonicalized at construction.

    Exact lines divide through by the first nonzero of (u, v); float lines
    carry a unit normal, so evaluating a point gives its signed distance.
    """

    u: Scalar
    v: Scalar
    w: Scalar

    def __post_init__(self):
        n2 = self.u * self.u + self.v * self.v
        if n2.sign() == 0:
            raise DegenerateInputError("line normal must be nonzero")
        if self.u.is_exact:
            lead = self.u if self.u.sign() != 0 else self.v
            object.__setattr__(self, "u", self.u / lead)
            object.__setattr__(self, "v", self.v / lead)
            object.__setattr__(self, "w", self.w / lead)
        else:
            n = n2.sqrt()
            u, v, w = self.u / n, self.v / n, self.w / n
            if u.as_float() < 0 or (u.as_float() == 0.0 and v.as_float() < 0):
                u, v, w = -u, -v, -w
            object.__setattr__(self, "u", u)
            object.__setattr__(self, "v", v)
            object.__setattr__(self, "w", w)

    @property
    def backend(self) -> Backend:
        return self.u.backend

    def eval(self, p: Point) -> Scalar:
        return self.u * p.x + self.v * p.y + self.w


def line_through(p: Point, q: Point) -> Line:
    if squared_distance(p, q).sign() == 0:
        raise DegenerateInputError("line through two coincident points")
    u = p.y - q.y
    v = q.x - p.x
    w = p.x * q.y - q.x * p.y
    return Line(u, v, w)


def triangle(backend, a, b, c) -> Triangle:
    """Triangle from three (x, y) pairs on one backend."""
    return Triangle(point(backend, *a), point(backend, *b), point(backend, *c))


@dataclass(frozen=True)
class Circle:
    center: Point
    radius_sq: Scalar

    def __post_init__(self):
        if self.radius_sq.sign() <= 0:
            raise DegenerateInputError("circle needs positive squared radius")


def circumcircle(t: Triangle) -> Circle:
    """Circle through the three vertices (perpendicular-bisector intersection)."""
    a, b, c = t.A, t.B, t.C
    d = orient(a, b, c) * 2
    aa, bb, cc = dot(a, a), dot(b, b), dot(c, c)
    ux = (aa * (b.y - c.y) + bb * (c.y - a.y) + cc * (a.y - b.y)) / d
    uy = (aa * (c.x - b.x) + bb * (a.x - c.x) + cc * (b.x - a.x)) / d
    center = Point(ux, uy)
    return Circle(center, squared_distance(center, a))


class IncenterResult(NamedTuple):
    incenter: Point
    foot_a: Point  # internal bisector from A meets BC
    foot_b: Point  # from B, on CA
    foot_c: Point  # from C, on AB


def _length(p: Point, q: Point, what: str) -> Scalar:
    try:
        return squared_distance(p, q).sqrt()
    except ExactValueError:
        raise ExactValueError(
            f"{what} needs rational lengths on the exact backend") from None


def _along(p: Point, q: Point, k) -> Point:
    """The point p + k (q - p)."""
    return Point(p.x + (q.x - p.x) * k, p.y + (q.y - p.y) * k)


def incenter_and_bisector_feet(t: Triangle) -> IncenterResult:
    """Incenter (aA + bB + cC)/(a+b+c) and the three bisector feet.

    Each foot divides its side in the ratio of the adjacent sides, e.g. the
    foot from A splits BC with BA1 : A1C = c : b.
    """
    a = _length(t.B, t.C, "incenter")
    b = _length(t.A, t.C, "incenter")
    c = _length(t.A, t.B, "incenter")
    p = a + b + c
    j = Point((t.A.x * a + t.B.x * b + t.C.x * c) / p,
              (t.A.y * a + t.B.y * b + t.C.y * c) / p)
    return IncenterResult(j, _along(t.B, t.C, c / (b + c)),
                          _along(t.A, t.C, c / (a + c)),
                          _along(t.A, t.B, b / (a + b)))


def internal_bisector_line(t: Triangle, label: str) -> Line:
    """Internal angle bisector at the given vertex, as a full line."""
    v = t.vertex(label)
    p, q = (t.vertex(l) for l in t.others(label))
    lp = _length(v, p, "bisector")
    lq = _length(v, q, "bisector")
    dx = (p.x - v.x) / lp + (q.x - v.x) / lq
    dy = (p.y - v.y) / lp + (q.y - v.y) / lq
    return line_through(v, Point(v.x + dx, v.y + dy))


def signed_distance(l: Line, p: Point) -> Scalar:
    """Signed distance from p to l (sign follows the stored normal)."""
    val = l.eval(p)
    if not val.is_exact:
        return val
    n2 = l.u * l.u + l.v * l.v
    return (val * val / n2).sqrt() * val.sign()


def reflect(obj, l: Line):
    """Mirror a Point or Triangle across a line."""
    if isinstance(obj, Triangle):
        return Triangle(reflect(obj.A, l), reflect(obj.B, l), reflect(obj.C, l))
    if not isinstance(obj, Point):
        raise TypeError(f"cannot reflect {type(obj).__name__}")
    n2 = l.u * l.u + l.v * l.v
    k = (l.eval(obj) / n2) * 2
    return Point(obj.x - k * l.u, obj.y - k * l.v)


def reference_orient(p: Point, q: Point, r: Point) -> Scalar:
    """Twice the signed area of pqr."""
    return cross(q - p, r - p)


def reference_measure(t: Triangle):
    """(squared side opposite, cosine at) each vertex label of ``t``."""
    side_sq, cos_at = {}, {}
    for label in LABELS:
        v = t.vertex(label)
        p, q = (t.vertex(l) for l in t.others(label))
        d = q - p
        side_sq[label] = dot(d, d)
        u, w = p - v, q - v
        cos_at[label] = dot(u, w) / (dot(u, u) * dot(w, w)).sqrt()
    return side_sq, cos_at


def reference_solutions(spec):
    """Per solution of an SSA spec, ascending by third side: the apex B of
    the canonical pose, the third side, and the cosines at B and at C."""
    a, b, c0 = spec.side_a, spec.side_b, spec.cos_angle
    sin2 = 1 - c0 * c0
    sin_t = sin2.sqrt()
    s = max(1.0, a.as_float(), b.as_float())
    disc = a * a - b * b * sin2
    bc0 = b * c0
    if disc.vanishes(s, 2):
        roots = [bc0]
    elif disc.sign() < 0:
        roots = []
    else:
        root = disc.sqrt()
        roots = [bc0 - root, bc0 + root]
    out = []
    for t in roots:
        scale = max(s, t.as_float())
        height = t * sin_t
        if (t.sign() <= 0 or t.vanishes(scale, 1)
                or (height * b).vanishes(scale, 2)):
            continue
        tc0 = t * c0
        out.append((Point(tc0, height), t, (t - bc0) / a, (b - tc0) / a))
    return out
