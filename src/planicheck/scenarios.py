"""Shape-space scenarios and level-set scanning.

A triangle shape is the pair of base angles (alpha at A, beta at B) with the
base AB frozen to length 1, which quotients out similarity.  Each scenario
defines a signed hypothesis residual over shape space whose zero set is the
hypothesis locus of one classical statement.  One figure builder per scenario
constructs the points that its residual reads.

Each conclusion branch is declared once, as a ``Branch``: a line in
(alpha, beta) plus the range of its free angle.  ``level_set_scan`` samples
the residual on a grid, refines every sign change by bisection, and checks
that each refined root lies within a containment tolerance of one of the
scenario's branches; the forward checks in ``suites`` walk the same lines.
Scenario numerics run on raw binary64; the test suite audits the figure
builders against constructions made on the geometry kernel's points.

Registered scenarios:

* ``medial-circumcenter``: the circumcenter of the medial triangle lies on
  the internal bisector of angle C.
* ``incenter-segments``: the incenter is equidistant from the feet of the
  bisectors from A and B.
* ``square-center``: the center of the inscribed square on side AB is seen
  from C under equal angles to A and B.
* ``rectangle-center``: same for an inscribed rectangle of height fraction t
  (exploratory: only the isosceles branch is an established conclusion).
* ``bisector-30``: the angle between the bisector foot chain B1, A1 and B
  equals 30 degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .scalars import DegenerateInputError

_GAMMA_FLOOR = 1e-3  # scan guard: skip the numerically wild sliver gamma < ~0.06 deg
_COS_30 = math.cos(math.pi / 6)
_RIGHT_ANGLE = math.pi / 2


class UnknownScenarioError(ValueError):
    def __init__(self, name: str, available):
        super().__init__(f"unknown scenario {name!r}; available: {', '.join(available)}")
        self.available = tuple(available)


class FeetOffSegmentError(DegenerateInputError):
    """Inscribed square/rectangle feet would leave segment AB."""


@dataclass(frozen=True)
class Branch:
    """A conclusion branch: the line ``alpha + k*beta = w`` in shape space.

    ``distance`` is the defect |alpha + k*beta - w| in radians.  The free
    angle is alpha, or beta on a line with k = 0; ``free_deg`` is the open
    range, in degrees, over which the forward checks draw it.
    """

    name: str
    k: float
    w: float
    free_deg: Tuple[float, float]

    def distance(self, alpha: float, beta: float) -> float:
        return abs(alpha + self.k * beta - self.w)

    def point(self, free: float) -> Tuple[float, float]:
        """(alpha, beta) on the line at free angle ``free`` (radians)."""
        if self.k == 0.0:
            return self.w, free
        return free, (self.w - free) / self.k


# gamma = g is the line alpha + beta = pi - g.  The free ranges keep clear of
# degenerate slivers and, on isosceles and gamma-90, inside the square domain.
ISOSCELES = Branch("isosceles", -1.0, 0.0, (1.0, 89.5))
GAMMA_60 = Branch("gamma-60", 1.0, 2 * math.pi / 3, (0.6, 119.4))
GAMMA_90 = Branch("gamma-90", 1.0, math.pi / 2, (1.0, 89.0))
ALPHA_120 = Branch("alpha-120", 0.0, 2 * math.pi / 3, (0.5, 59.5))


# -- raw-float helpers ------------------------------------------------------

def _apex(alpha: float, beta: float) -> Tuple[float, float]:
    # C for A=(0,0), B=(1,0); robust across right angles via the sine form
    g = math.pi - alpha - beta
    sg = math.sin(g)
    sb = math.sin(beta)
    return (sb * math.cos(alpha) / sg, sb * math.sin(alpha) / sg)


def _d2(p, q):
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2


def _cos_at(v, p, q):
    ux, uy = p[0] - v[0], p[1] - v[1]
    wx, wy = q[0] - v[0], q[1] - v[1]
    return (ux * wx + uy * wy) / math.sqrt((ux * ux + uy * uy) * (wx * wx + wy * wy))


def angle_at(v, p, q) -> float:
    """Angle pvq in [0, pi] between raw (x, y) points; the atan2 form keeps
    full precision near 0 and pi."""
    ux, uy = p[0] - v[0], p[1] - v[1]
    wx, wy = q[0] - v[0], q[1] - v[1]
    return math.atan2(abs(ux * wy - uy * wx), ux * wx + uy * wy)


def _lerp(p, q, s):
    return (p[0] + (q[0] - p[0]) * s, p[1] + (q[1] - p[1]) * s)


def _circumcenter(p, q, r):
    d = 2.0 * ((q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]))
    pp = p[0] * p[0] + p[1] * p[1]
    qq = q[0] * q[0] + q[1] * q[1]
    rr = r[0] * r[0] + r[1] * r[1]
    ux = (pp * (q[1] - r[1]) + qq * (r[1] - p[1]) + rr * (p[1] - q[1])) / d
    uy = (pp * (r[0] - q[0]) + qq * (p[0] - r[0]) + rr * (q[0] - p[0])) / d
    return (ux, uy)


def _bisector_signed_distance(v, p, q, x):
    """Distance from x to the internal bisector at v of angle pvq, signed
    positive toward p's side."""
    lp = math.sqrt(_d2(v, p))
    lq = math.sqrt(_d2(v, q))
    dx = (p[0] - v[0]) / lp + (q[0] - v[0]) / lq
    dy = (p[1] - v[1]) / lp + (q[1] - v[1]) / lq
    n = math.hypot(dx, dy)
    nx, ny = -dy / n, dx / n
    if nx * (p[0] - v[0]) + ny * (p[1] - v[1]) < 0:
        nx, ny = -nx, -ny
    return nx * (x[0] - v[0]) + ny * (x[1] - v[1])


# -- figure builders: the points each residual reads --------------------------

def _medial_figure(alpha, beta):
    """A, B, C, the midpoints F of BC, D of CA and E of AB, and G, the
    circumcenter of the medial triangle FDE."""
    a_pt, b_pt = (0.0, 0.0), (1.0, 0.0)
    cx, cy = c_pt = _apex(alpha, beta)
    f = ((b_pt[0] + cx) / 2, (b_pt[1] + cy) / 2)
    d = ((cx + a_pt[0]) / 2, (cy + a_pt[1]) / 2)
    e = (0.5, 0.0)
    return a_pt, b_pt, c_pt, f, d, e, _circumcenter(f, d, e)


def _incenter_figure(alpha, beta):
    """A, B, C, the incenter J, and the feet A1 on BC and B1 on CA of the
    bisectors from A and B."""
    a_pt, b_pt = (0.0, 0.0), (1.0, 0.0)
    c_pt = _apex(alpha, beta)
    a = math.sqrt(_d2(b_pt, c_pt))
    b = math.sqrt(_d2(a_pt, c_pt))
    c = 1.0
    p = a + b + c
    j = ((a * a_pt[0] + b * b_pt[0] + c * c_pt[0]) / p,
         (a * a_pt[1] + b * b_pt[1] + c * c_pt[1]) / p)
    foot_a = _lerp(b_pt, c_pt, c / (b + c))   # on BC, from A
    foot_b = _lerp(a_pt, c_pt, c / (a + c))   # on CA, from B
    return a_pt, b_pt, c_pt, j, foot_a, foot_b


def _square_domain(alpha, beta):
    return alpha <= _RIGHT_ANGLE and beta <= _RIGHT_ANGLE


def _inscribed_figure(alpha, beta, t=None):
    """C, the rectangle MNPQ on AB of height fraction t over the altitude
    from C, and its center O.  ``t=None`` is the inscribed square: its side
    is s = h/(1+h) for base 1 and altitude h, so t = s/h = 1/(1+h)."""
    if not _square_domain(alpha, beta):
        raise FeetOffSegmentError(
            "inscribed square/rectangle needs alpha, beta <= 90 deg "
            "(feet would leave segment AB)")
    cx, h = c_pt = _apex(alpha, beta)
    if t is None:
        t = 1.0 / (1.0 + h)
    y0 = t * h
    xq = t * cx
    xp = 1.0 - t * (1.0 - cx)
    return (c_pt, (xq, 0.0), (xp, 0.0), (xp, y0), (xq, y0),
            ((xq + xp) / 2, y0 / 2))


# -- residuals --------------------------------------------------------------

def medial_residual(alpha: float, beta: float) -> float:
    """Signed distance from the medial-triangle circumcenter to the internal
    bisector at C; positive on the side containing A."""
    a_pt, b_pt, c_pt, _, _, _, g = _medial_figure(alpha, beta)
    return _bisector_signed_distance(c_pt, a_pt, b_pt, g)


def incenter_residual(alpha: float, beta: float) -> float:
    """JA1^2 - JB1^2 for the incenter J and the bisector feet from A and B."""
    _, _, _, j, foot_a, foot_b = _incenter_figure(alpha, beta)
    return _d2(j, foot_a) - _d2(j, foot_b)


def _center_offset(c_pt, o):
    # cos(angle ACO) - cos(angle BCO)
    return _cos_at(c_pt, (0.0, 0.0), o) - _cos_at(c_pt, (1.0, 0.0), o)


def square_residual(alpha: float, beta: float) -> float:
    """cos(angle ACO) - cos(angle BCO) for the inscribed-square center O."""
    c_pt, _, _, _, _, o = _inscribed_figure(alpha, beta)
    return _center_offset(c_pt, o)


def rectangle_residual(alpha: float, beta: float, t: float = 0.5) -> float:
    """Same residual for the inscribed rectangle of height fraction t."""
    if not 0.0 < t < 1.0:
        raise DegenerateInputError("height fraction t must lie in (0, 1)")
    c_pt, _, _, _, _, o = _inscribed_figure(alpha, beta, t)
    return _center_offset(c_pt, o)


def bisector30_residual(alpha: float, beta: float) -> float:
    """cos(angle B B1 A1) - cos(30 deg) for the bisector feet A1, B1."""
    _, b_pt, _, _, foot_a, foot_b = _incenter_figure(alpha, beta)
    return _cos_at(foot_b, b_pt, foot_a) - _COS_30


# -- registry and scanning ----------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    name: str
    residual: Callable[..., float]
    branches: Tuple[Branch, ...]
    asserted: bool = True          # containment is an established conclusion
    domain: Optional[Callable[[float, float], bool]] = None


SCENARIOS: Dict[str, Scenario] = {
    s.name: s for s in (
        Scenario("medial-circumcenter", medial_residual, (ISOSCELES, GAMMA_60)),
        Scenario("incenter-segments", incenter_residual, (ISOSCELES, GAMMA_60)),
        Scenario("square-center", square_residual, (ISOSCELES, GAMMA_90),
                 domain=_square_domain),
        Scenario("rectangle-center", rectangle_residual, (ISOSCELES,),
                 asserted=False, domain=_square_domain),
        Scenario("bisector-30", bisector30_residual, (GAMMA_60, ALPHA_120)),
    )
}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise UnknownScenarioError(name, sorted(SCENARIOS)) from None


@dataclass(frozen=True)
class ScanRoot:
    alpha: float
    beta: float
    gamma: float
    residual: float
    branch: Optional[str]
    distance: float


@dataclass
class ScanReport:
    scenario: str
    grid_step: float
    refine_tol: float
    delta: float
    evaluations: int
    roots: List[ScanRoot]
    contained: bool
    violations: List[ScanRoot]
    asserted: bool


def level_set_scan(name: str, grid_step: float, refine_tol: float = 1e-12,
                   delta: float = 1e-6, **scenario_kwargs) -> ScanReport:
    """Grid-scan a scenario residual and bisect every sign change to a root.

    The grid holds the nodes (i, j) * ``grid_step`` in the scenario's domain
    above the gamma floor; with none, it raises ``DegenerateInputError``.
    Every refined root is attributed to the nearest conclusion branch within
    ``delta`` (ties go to the isosceles branch first); roots matching no
    branch are reported as violations of containment.
    """
    sc = get_scenario(name)
    h = grid_step
    if h <= 0:
        raise ValueError("grid step must be positive")
    if not math.pi / h < math.inf:
        raise DegenerateInputError(f"grid step {h:g} rad is too fine for binary64")

    def f(a, b):
        return sc.residual(a, b, **scenario_kwargs)

    # nodes go in increasing (i, j) order, which the sign-change walk below
    # keeps; gamma = pi - a - b falls as j grows, so a row ends at the first
    # node under the floor
    vals = {}
    imax = int(math.pi / h) + 1
    for i in range(1, imax + 1):
        a = i * h
        for j in range(1, imax + 1):
            b = j * h
            if math.pi - a - b < _GAMMA_FLOOR:
                break
            if sc.domain is None or sc.domain(a, b):
                vals[(i, j)] = f(a, b)
    evaluations = len(vals)
    if not vals:
        raise DegenerateInputError("scan region contains no valid grid nodes")

    raw_roots: List[Tuple[float, float, float]] = []
    seen = set()

    def note(a, b, r):
        key = (round(a, 12), round(b, 12))
        if key not in seen:
            seen.add(key)
            raw_roots.append((a, b, r))

    def bisect(p1, p2, f1, f2):
        # run past |f| <= tol until the bracket is tight, else a root at a
        # tangency/branch crossing is localized no better than sqrt(tol)
        nonlocal evaluations
        (ax, ay), (bx, by) = p1, p2
        span = math.hypot(bx - ax, by - ay)
        lo, hi, flo = 0.0, 1.0, f1
        best = None
        for _ in range(90):
            mid = (lo + hi) / 2
            m = (ax + (bx - ax) * mid, ay + (by - ay) * mid)
            fm = f(*m)
            evaluations += 1
            if best is None or abs(fm) < abs(best[2]):
                best = (m[0], m[1], fm)
            if (abs(fm) <= refine_tol and (hi - lo) * span <= 1e-10) \
                    or hi - lo < 1e-16:
                break
            if (flo < 0) == (fm < 0):
                lo, flo = mid, fm
            else:
                hi = mid
        return best

    for (i, j), f1 in vals.items():
        if f1 == 0.0:
            note(i * h, j * h, 0.0)
            continue
        for nb in ((i + 1, j), (i, j + 1)):
            f2 = vals.get(nb)
            if f2 is None or f2 == 0.0:
                continue
            if (f1 < 0) != (f2 < 0):
                note(*bisect((i * h, j * h), (nb[0] * h, nb[1] * h), f1, f2))

    roots: List[ScanRoot] = []
    violations: List[ScanRoot] = []
    for a, b, r in sorted(raw_roots):
        branch, dist = None, math.inf
        for br in sc.branches:
            d = br.distance(a, b)
            if d <= delta:
                branch, dist = br.name, d
                break
            if d < dist:
                dist = d
        root = ScanRoot(a, b, math.pi - a - b, r, branch, dist)
        roots.append(root)
        if branch is None:
            violations.append(root)

    return ScanReport(name, h, refine_tol, delta, evaluations, roots,
                      not violations, violations, sc.asserted)
