"""Shape-space scenarios and level-set scanning.

A triangle shape is the pair of base angles (alpha at A, beta at B) with the
base AB frozen to length 1, which quotients out similarity.  Each scenario
defines a signed hypothesis residual over shape space whose zero set is the
hypothesis locus of one classical statement.  Each residual is
straight-line binary64 code on the base A = (0, 0), B = (1, 0) and the apex
C; the residuals share only ``_apex`` and ``bisector_feet``.  The spot
checks measure angles with ``rawgeom.angle_at``, the raw-float helper the
SSA oracle of ``suites`` shares, so this module imports no SSA layer and
``suites`` imports no scenario layer.

Each conclusion branch is declared once, as a ``Branch``: a line in
(alpha, beta) plus the range of its free angle.  ``level_set_scan`` samples
the residual on a grid in one pass over its rows, holding two rows at a time
and queueing every exact zero and sign change; once the grid pass ends it
refines the queue by bisection, and checks that each refined root lies
within a containment tolerance of one of the scenario's branches.  Its memory
grows with one grid row and the number of roots, not with the whole grid.
The forward checks walk the same branch lines: ``run_scenario_suites``
gives each claimed branch one ``suite_forward`` check, run by
``report.run_check`` and bounded by ``TOL``, and bisector-30 the off-branch
spot set, whose angle gaps ``MIN_GAP`` bounds from below.
The test suite keeps each residual's figure composition (the labelled points
and the residual built from them) as a reference that the residual must
equal bit for bit, and audits those figures against constructions made on
the geometry kernel's points.

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

import functools
import math
from dataclasses import dataclass
from random import Random
from typing import Callable, Dict, List, Optional, Tuple

from .errors import DegenerateInputError, UsageError
from .rawgeom import angle_at
from .record import Record
from .report import TOL, CheckResult, run_check

_GAMMA_FLOOR = 1e-3  # scan guard: skip the numerically wild sliver gamma < ~0.06 deg
_COS_30 = math.cos(math.pi / 6)
_RIGHT_ANGLE = math.pi / 2
MIN_GAP = 1e-3


class UnknownScenarioError(UsageError, ValueError):
    def __init__(self, name: str, available):
        super().__init__(f"unknown scenario {name!r}; available: {', '.join(available)}")
        self.available = tuple(available)


class FeetOffSegmentError(DegenerateInputError):
    """Inscribed square/rectangle feet would leave segment AB."""


class Branch(Record):
    """A conclusion branch ``name``: the line ``alpha + k*beta = w`` in
    shape space.

    ``distance`` is the defect |alpha + k*beta - w| in radians.  The free
    angle is alpha, or beta on a line with k = 0; ``free_deg`` is the open
    range, in degrees, over which the forward checks draw it.
    """

    __slots__ = ("name", "k", "w", "free_deg")

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


# -- residuals --------------------------------------------------------------
#
# Each residual is straight-line binary64 code on A = (0, 0), B = (1, 0) and
# the apex C.  Terms of the fixed base are folded (x + 0.0, 1.0 * x and the
# like are dropped), which changes no nonzero value; every other operation is
# the one the construction makes, in its order, so the residuals agree bit for
# bit with the figure compositions that ``tests/kernel_constructions.py``
# keeps as their reference.

def _apex(alpha: float, beta: float) -> Tuple[float, float]:
    # C for A=(0,0), B=(1,0); robust across right angles via the sine form
    g = math.pi - alpha - beta
    sg = math.sin(g)
    sb = math.sin(beta)
    return (sb * math.cos(alpha) / sg, sb * math.sin(alpha) / sg)


def bisector_feet(alpha: float, beta: float) -> Tuple[float, ...]:
    """C = (cx, cy), the sides a = BC and b = CA, and the feet A1 = (a1x,
    a1y) on BC and B1 = (b1x, b1y) on CA of the bisectors from A and B, as
    the flat tuple (cx, cy, a, b, a1x, a1y, b1x, b1y).  Each foot divides
    its side in the ratio of the adjacent sides (AB = 1)."""
    cx, cy = _apex(alpha, beta)
    a = math.sqrt((1.0 - cx) ** 2 + (0.0 - cy) ** 2)
    b = math.sqrt((0.0 - cx) ** 2 + (0.0 - cy) ** 2)
    s_a = 1.0 / (b + 1.0)
    s_b = 1.0 / (a + 1.0)
    return cx, cy, a, b, 1.0 + (cx - 1.0) * s_a, cy * s_a, cx * s_b, cy * s_b


def medial_residual(alpha: float, beta: float) -> float:
    """Signed distance from the medial-triangle circumcenter to the internal
    bisector at C; positive on the side containing A."""
    cx, cy = _apex(alpha, beta)
    # midpoints F of BC and D of CA share the height cy/2, so the terms of
    # their height difference drop out; E = (1/2, 0)
    fx = (1.0 + cx) / 2
    dx = cx / 2
    hy = cy / 2
    # G, the circumcenter of FDE (the nine-point center)
    den = 2.0 * ((dx - fx) * (0.0 - hy))
    ff = fx * fx + hy * hy
    dd = dx * dx + hy * hy
    gx = (ff * hy + dd * (0.0 - hy)) / den
    gy = (ff * (0.5 - dx) + dd * (fx - 0.5) + 0.25 * (dx - fx)) / den
    # unit normal of the bisector at C, turned toward A
    ax, ay = 0.0 - cx, 0.0 - cy
    lp = math.sqrt(cx ** 2 + cy ** 2)
    lq = math.sqrt((cx - 1.0) ** 2 + cy ** 2)
    ux = ax / lp + (1.0 - cx) / lq
    uy = ay / lp + ay / lq
    n = math.hypot(ux, uy)
    nx, ny = -uy / n, ux / n
    if nx * ax + ny * ay < 0:
        nx, ny = -nx, -ny
    return nx * (gx - cx) + ny * (gy - cy)


def incenter_residual(alpha: float, beta: float) -> float:
    """JA1^2 - JB1^2 for the incenter J and the bisector feet from A and B."""
    cx, cy, a, b, a1x, a1y, b1x, b1y = bisector_feet(alpha, beta)
    p = a + b + 1.0
    jx = (b + cx) / p
    jy = cy / p
    return ((jx - a1x) ** 2 + (jy - a1y) ** 2) \
        - ((jx - b1x) ** 2 + (jy - b1y) ** 2)


def _square_domain(alpha, beta):
    return alpha <= _RIGHT_ANGLE and beta <= _RIGHT_ANGLE


def _center_offset(alpha, beta, t):
    """cos(angle ACO) - cos(angle BCO) for the center O of the rectangle
    MNPQ on AB of height fraction t over the altitude h from C.  ``t=None``
    is the inscribed square: its side is s = h/(1+h) for base 1, so
    t = s/h = 1/(1+h)."""
    if not _square_domain(alpha, beta):
        raise FeetOffSegmentError(
            "inscribed square/rectangle needs alpha, beta <= 90 deg "
            "(feet would leave segment AB)")
    cx, h = _apex(alpha, beta)
    if t is None:
        t = 1.0 / (1.0 + h)
    # O is the midpoint of Q = (t cx, t h) and P = (1 - t (1 - cx), t h)
    wx = (t * cx + (1.0 - t * (1.0 - cx))) / 2 - cx
    wy = t * h / 2 - h
    ww = wx * wx + wy * wy
    # CA = (ax, ay) and CB = (bx, ay)
    ax, ay = 0.0 - cx, 0.0 - h
    bx = 1.0 - cx
    return ((ax * wx + ay * wy) / math.sqrt((ax * ax + ay * ay) * ww)
            - (bx * wx + ay * wy) / math.sqrt((bx * bx + ay * ay) * ww))


def square_residual(alpha: float, beta: float) -> float:
    """cos(angle ACO) - cos(angle BCO) for the inscribed-square center O."""
    return _center_offset(alpha, beta, None)


def rectangle_residual(alpha: float, beta: float, t: float = 0.5) -> float:
    """Same residual for the inscribed rectangle of height fraction t."""
    if not 0.0 < t < 1.0:
        raise DegenerateInputError("height fraction t must lie in (0, 1)")
    return _center_offset(alpha, beta, t)


def bisector30_residual(alpha: float, beta: float) -> float:
    """cos(angle B B1 A1) - cos(30 deg) for the bisector feet A1, B1."""
    _, _, _, _, a1x, a1y, b1x, b1y = bisector_feet(alpha, beta)
    ux, uy = 1.0 - b1x, 0.0 - b1y
    wx, wy = a1x - b1x, a1y - b1y
    return ((ux * wx + uy * wy)
            / math.sqrt((ux * ux + uy * uy) * (wx * wx + wy * wy)) - _COS_30)


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


class ScanRoot(Record):
    """A refined root at shape angles ``alpha``, ``beta`` and ``gamma``,
    its ``residual``, and the ``branch`` (None off every branch) at
    ``distance``."""

    __slots__ = ("alpha", "beta", "gamma", "residual", "branch", "distance")


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
    The grid pass evaluates the nodes row by row in increasing (i, j) order
    and keeps only two rows alive; every bisection runs after it, in the
    order the pass queued the sign changes.  Every refined root is
    attributed to the nearest conclusion branch within ``delta`` (ties go to
    the isosceles branch first); roots matching no branch are reported as
    violations of containment.
    """
    sc = get_scenario(name)
    h = grid_step
    if h <= 0:
        raise ValueError("grid step must be positive")
    if not math.pi / h < math.inf:
        raise DegenerateInputError(f"grid step {h:g} rad is too fine for binary64")

    f = functools.partial(sc.residual, **scenario_kwargs)
    domain = sc.domain
    imax = int(math.pi / h) + 1
    evaluations = 0

    def grid_row(i):
        # row[j - 1] is the value at node (i, j), None outside the domain;
        # gamma = pi - a - b falls as j grows, so a row ends at the first
        # node under the floor
        nonlocal evaluations
        a = i * h
        top = math.pi - a
        row = []
        for j in range(1, imax + 1):
            b = j * h
            if top - b < _GAMMA_FLOOR:
                break
            row.append(f(a, b) if domain is None or domain(a, b) else None)
        evaluations += len(row) - row.count(None)
        return row

    # the grid pass evaluates the nodes in increasing (i, j) order and keeps
    # two rows alive: row i is walked against row i + 1 (an empty one past
    # the last row), each node against its neighbours (i + 1, j) and
    # (i, j + 1).  It queues each exact-zero node as (a, b, a, b, 0.0) and
    # each sign-change edge with the value at its start.  Refinement waits
    # until every node is evaluated, so that grid and bisection calls stay
    # apart by call order (the benchmark's tracer splits them so), and takes
    # the queue in walk order, which decides the root the dedupe keeps.
    queue: List[Tuple[float, float, float, float, float]] = []
    row = grid_row(1)
    for i in range(1, imax + 1):
        below = grid_row(i + 1) if i < imax else []
        n_row, n_below = len(row), len(below)
        a, a_next = i * h, (i + 1) * h
        for j, f1 in enumerate(row, 1):
            if f1 is None:
                continue
            if f1 == 0.0:
                queue.append((a, j * h, a, j * h, 0.0))
                continue
            neg = f1 < 0
            if j <= n_below:
                f2 = below[j - 1]
                if f2 is not None and f2 != 0.0 and (f2 < 0) != neg:
                    queue.append((a, j * h, a_next, j * h, f1))
            if j < n_row:
                f2 = row[j]
                if f2 is not None and f2 != 0.0 and (f2 < 0) != neg:
                    queue.append((a, j * h, a, (j + 1) * h, f1))
        row = below
    if not evaluations:
        raise DegenerateInputError("scan region contains no valid grid nodes")

    raw_roots: List[Tuple[float, float, float]] = []
    seen = set()

    def note(a, b, r):
        key = (round(a, 12), round(b, 12))
        if key not in seen:
            seen.add(key)
            raw_roots.append((a, b, r))

    def bisect(ax, ay, bx, by, flo):
        # run past |f| <= tol until the bracket is tight, else a root at a
        # tangency/branch crossing is localized no better than sqrt(tol)
        nonlocal evaluations
        span = math.hypot(bx - ax, by - ay)
        lo, hi = 0.0, 1.0
        best = None
        for _ in range(90):
            mid = (lo + hi) / 2
            ma, mb = ax + (bx - ax) * mid, ay + (by - ay) * mid
            fm = f(ma, mb)
            evaluations += 1
            if best is None or abs(fm) < abs(best[2]):
                best = (ma, mb, fm)
            if (abs(fm) <= refine_tol and (hi - lo) * span <= 1e-10) \
                    or hi - lo < 1e-16:
                break
            if (flo < 0) == (fm < 0):
                lo, flo = mid, fm
            else:
                hi = mid
        return best

    for ax, ay, bx, by, flo in queue:
        if flo == 0.0:
            note(ax, ay, 0.0)
        else:
            note(*bisect(ax, ay, bx, by, flo))

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


# -- proven forward implications ------------------------------------------------

def suite_forward(scenario: Scenario, branch: Branch, samples: int,
                  rng: Random, **scenario_kwargs) -> CheckResult:
    """Shapes drawn uniformly along one claimed branch of a scenario must
    zero its residual within ``TOL``; ``scenario_kwargs`` go to the residual
    as in the scan."""
    def sample(_index, witness):
        alpha, beta = branch.point(math.radians(rng.uniform(*branch.free_deg)))
        witness.update(alpha_deg=math.degrees(alpha),
                       beta_deg=math.degrees(beta))
        resid = abs(scenario.residual(alpha, beta, **scenario_kwargs))
        return resid, ({"residual": resid} if resid > TOL else None)

    return run_check(f"forward-{branch.name}", samples, sample)


# right isosceles plus five more shapes off both conclusion branches
OFFSET_SPOT_SHAPES_DEG = ((45.0, 45.0), (80.0, 45.0), (50.0, 10.0),
                          (100.0, 50.0), (30.0, 30.0), (90.0, 35.0))


def suite_offset_bisector_spots() -> CheckResult:
    """Shapes off both branches keep the bisector-foot angle away from 30
    degrees by more than ``MIN_GAP`` radians."""
    result = CheckResult("offset-bisector-spot-set", True,
                         len(OFFSET_SPOT_SHAPES_DEG), math.inf)
    worst_gap = math.inf
    for a_deg, b_deg in OFFSET_SPOT_SHAPES_DEG:
        *_, a1x, a1y, b1x, b1y = bisector_feet(math.radians(a_deg),
                                               math.radians(b_deg))
        gap = abs(angle_at((b1x, b1y), (1.0, 0.0), (a1x, a1y))
                  - math.pi / 6)
        worst_gap = min(worst_gap, gap)
        if not gap > MIN_GAP:   # a NaN gap fails too
            result.add_failure({"alpha_deg": a_deg, "beta_deg": b_deg,
                                "angle_gap": gap})
    result.worst_residual = worst_gap
    return result


def run_scenario_suites(name: str, samples: int, seed: int,
                        **scenario_kwargs) -> List[CheckResult]:
    """One forward check per claimed branch of the scenario, in registry
    order and each on its own seeded stream, plus the off-branch spot set
    for bisector-30.  ``scenario_kwargs`` are the scan's residual
    arguments (the rectangle height ``t``)."""
    scenario = get_scenario(name)
    master = Random(seed)
    results = [suite_forward(scenario, branch, samples,
                             Random(master.getrandbits(64)), **scenario_kwargs)
               for branch in scenario.branches]
    if name == "bisector-30":
        results.append(suite_offset_bisector_spots())
    return results
