"""Classical constructions on the geometry kernel, for audits, and the
raw-float figure compositions the scenario residuals are checked against.

Lines, circumcircle, incenter with bisector feet, internal bisector line,
signed distance and reflection.  The program itself needs none of them: the
scenario residuals compute in straight-line binary64 (``planicheck.
scenarios``), and the kernel answers side-of-line questions with ``side``.
These constructions use only the public kernel API, on either backend, so
the tests can check the scenario figures against a second, independent
construction.

``medial_figure``, ``incenter_figure`` and ``inscribed_figure`` build the
labelled points of each scenario figure in raw binary64, from small point
helpers (``d2``, ``cos_at``, ``lerp``, ``circumcenter``,
``bisector_signed_distance``), and ``REFERENCE_RESIDUALS`` composes each
scenario residual from them.  The straight-line residuals must perform the
same IEEE operations in the same order, so both agree bit for bit; the
kernel audits check these figures.

``reference_measure``, ``reference_orient`` and ``reference_solutions`` are
``measure``, ``orient`` and ``solve_ssa`` written in ``Scalar`` arithmetic
on ``dot``, ``cross`` and ``Point`` subtraction.  The program computes on
the payloads instead; on the float backend both must perform the same IEEE
operations in the same order, so their results agree bit for bit.
``orient`` wraps the payload orientation that ``kernel.side`` decides on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from planicheck.kernel import (
    LABELS,
    Point,
    Triangle,
    _orientation,
    cross,
    dot,
    point,
    squared_distance,
)
from planicheck.scalars import (
    Backend,
    DegenerateInputError,
    ExactBackend,
    ExactValueError,
    Scalar,
)
from planicheck.scenarios import FeetOffSegmentError


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
        if isinstance(self.u.backend, ExactBackend):
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
    if not isinstance(val.backend, ExactBackend):
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


def orient(p: Point, q: Point, r: Point) -> Scalar:
    """Twice the signed area of pqr, as ``kernel.side`` computes it."""
    backend, value, _scale = _orientation(p, q, r)
    return Scalar(backend, value)


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
    the canonical pose and the third side."""
    backend = spec.backend
    a, b, c0 = spec.side_a, spec.side_b, spec.cos_angle
    sin2 = backend.scalar(1) - c0 * c0
    sin_t = sin2.sqrt()
    s = max(1.0, a.as_float(), b.as_float())
    disc = a * a - b * b * sin2
    bc0 = b * c0
    if backend.vanishes(disc._v, s, 2):
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
        if (t.sign() <= 0 or backend.vanishes(t._v, scale, 1)
                or backend.vanishes((height * b)._v, scale, 2)):
            continue
        out.append((Point(t * c0, height), t))
    return out


# -- raw-float scenario figures ------------------------------------------------

_COS_30 = math.cos(math.pi / 6)
_RIGHT_ANGLE = math.pi / 2


def apex(alpha, beta):
    """C for A = (0, 0), B = (1, 0) and base angles alpha, beta."""
    g = math.pi - alpha - beta
    sg = math.sin(g)
    sb = math.sin(beta)
    return (sb * math.cos(alpha) / sg, sb * math.sin(alpha) / sg)


def d2(p, q):
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2


def cos_at(v, p, q):
    ux, uy = p[0] - v[0], p[1] - v[1]
    wx, wy = q[0] - v[0], q[1] - v[1]
    return (ux * wx + uy * wy) / math.sqrt((ux * ux + uy * uy) * (wx * wx + wy * wy))


def lerp(p, q, s):
    return (p[0] + (q[0] - p[0]) * s, p[1] + (q[1] - p[1]) * s)


def circumcenter(p, q, r):
    d = 2.0 * ((q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]))
    pp = p[0] * p[0] + p[1] * p[1]
    qq = q[0] * q[0] + q[1] * q[1]
    rr = r[0] * r[0] + r[1] * r[1]
    ux = (pp * (q[1] - r[1]) + qq * (r[1] - p[1]) + rr * (p[1] - q[1])) / d
    uy = (pp * (r[0] - q[0]) + qq * (p[0] - r[0]) + rr * (q[0] - p[0])) / d
    return (ux, uy)


def bisector_signed_distance(v, p, q, x):
    """Distance from x to the internal bisector at v of angle pvq, signed
    positive toward p's side."""
    lp = math.sqrt(d2(v, p))
    lq = math.sqrt(d2(v, q))
    dx = (p[0] - v[0]) / lp + (q[0] - v[0]) / lq
    dy = (p[1] - v[1]) / lp + (q[1] - v[1]) / lq
    n = math.hypot(dx, dy)
    nx, ny = -dy / n, dx / n
    if nx * (p[0] - v[0]) + ny * (p[1] - v[1]) < 0:
        nx, ny = -nx, -ny
    return nx * (x[0] - v[0]) + ny * (x[1] - v[1])


def medial_figure(alpha, beta):
    """A, B, C, the midpoints F of BC, D of CA and E of AB, and G, the
    circumcenter of the medial triangle FDE."""
    a_pt, b_pt = (0.0, 0.0), (1.0, 0.0)
    cx, cy = c_pt = apex(alpha, beta)
    f = ((b_pt[0] + cx) / 2, (b_pt[1] + cy) / 2)
    d = ((cx + a_pt[0]) / 2, (cy + a_pt[1]) / 2)
    e = (0.5, 0.0)
    return a_pt, b_pt, c_pt, f, d, e, circumcenter(f, d, e)


def incenter_figure(alpha, beta):
    """A, B, C, the incenter J, and the feet A1 on BC and B1 on CA of the
    bisectors from A and B."""
    a_pt, b_pt = (0.0, 0.0), (1.0, 0.0)
    c_pt = apex(alpha, beta)
    a = math.sqrt(d2(b_pt, c_pt))
    b = math.sqrt(d2(a_pt, c_pt))
    c = 1.0
    p = a + b + c
    j = ((a * a_pt[0] + b * b_pt[0] + c * c_pt[0]) / p,
         (a * a_pt[1] + b * b_pt[1] + c * c_pt[1]) / p)
    foot_a = lerp(b_pt, c_pt, c / (b + c))   # on BC, from A
    foot_b = lerp(a_pt, c_pt, c / (a + c))   # on CA, from B
    return a_pt, b_pt, c_pt, j, foot_a, foot_b


def inscribed_figure(alpha, beta, t=None):
    """C, the rectangle MNPQ on AB of height fraction t over the altitude
    from C, and its center O.  ``t=None`` is the inscribed square: its side
    is s = h/(1+h) for base 1 and altitude h, so t = s/h = 1/(1+h)."""
    if not (alpha <= _RIGHT_ANGLE and beta <= _RIGHT_ANGLE):
        raise FeetOffSegmentError(
            "inscribed square/rectangle needs alpha, beta <= 90 deg "
            "(feet would leave segment AB)")
    cx, h = c_pt = apex(alpha, beta)
    if t is None:
        t = 1.0 / (1.0 + h)
    y0 = t * h
    xq = t * cx
    xp = 1.0 - t * (1.0 - cx)
    return (c_pt, (xq, 0.0), (xp, 0.0), (xp, y0), (xq, y0),
            ((xq + xp) / 2, y0 / 2))


def _medial(alpha, beta):
    a_pt, b_pt, c_pt, _, _, _, g = medial_figure(alpha, beta)
    return bisector_signed_distance(c_pt, a_pt, b_pt, g)


def _incenter(alpha, beta):
    _, _, _, j, foot_a, foot_b = incenter_figure(alpha, beta)
    return d2(j, foot_a) - d2(j, foot_b)


def _center_offset(c_pt, o):
    return cos_at(c_pt, (0.0, 0.0), o) - cos_at(c_pt, (1.0, 0.0), o)


def _square(alpha, beta):
    c_pt, _, _, _, _, o = inscribed_figure(alpha, beta)
    return _center_offset(c_pt, o)


def _rectangle(alpha, beta, t=0.5):
    if not 0.0 < t < 1.0:
        raise DegenerateInputError("height fraction t must lie in (0, 1)")
    c_pt, _, _, _, _, o = inscribed_figure(alpha, beta, t)
    return _center_offset(c_pt, o)


def _bisector30(alpha, beta):
    _, b_pt, _, _, foot_a, foot_b = incenter_figure(alpha, beta)
    return cos_at(foot_b, b_pt, foot_a) - _COS_30


# each scenario residual composed from its figure, by scenario name
REFERENCE_RESIDUALS = {
    "medial-circumcenter": _medial,
    "incenter-segments": _incenter,
    "square-center": _square,
    "rectangle-center": _rectangle,
    "bisector-30": _bisector30,
}
