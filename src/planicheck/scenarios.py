"""Shape-space scenarios and level-set scanning.

A triangle shape is the pair of base angles (alpha at A, beta at B) with the
base AB frozen to length 1, which quotients out similarity.  Each scenario
defines a signed hypothesis residual over shape space whose zero set is the
hypothesis locus of one classical statement.  Each residual is a row
function: one call takes an alpha and a list of betas and returns the
residual at each node, computing the row's trigonometry of alpha once, and
a single node is a row of one.  Along the row it is straight-line binary64
code on the base A = (0, 0), B = (1, 0) and the apex C, with the apex, and
the bisector feet where a residual reads them, written out in its loop; only
the square and the rectangle share one loop, ``_center_offsets``.
``bisector_feet`` is the single-node copy of the feet that the bisector-30
spot checks read.  The spot checks measure angles with
``rawgeom.angle_at``, the raw-float helper the SSA oracle of ``suites``
shares, so this module imports no SSA layer and
``suites`` imports no scenario layer.

Each conclusion branch is declared once, as a ``Branch``: a line in (alpha,
beta) plus the range of its free angle.  ``level_set_scan`` samples the
residual on a grid as marching squares over its sign: it computes the beta
column once, cut at the scenario's ``max_angle``, and lists the rows with
their lengths, found with a pointer that only moves down.  It hands the
row indices, weighted by node count, to ``checks.run_parts``, which runs
the ``verify`` battery too: that cuts them into one contiguous chunk per
usable CPU and scans each chunk after the first in a forked worker.  A
chunk's pass evaluates a row in one residual call and walks two rows at a
time, its last row against the next chunk's first, visiting only the nodes
that hold an exact zero or a sign change, then bisects each queued change.
The chunks' queues make the queue of one serial pass, so the calling
process only concatenates their roots and dedupes them in that order, and
the report does not depend on the number of CPUs; ``taskset -c 0`` runs the
scan in one process.  It checks that each root lies within a containment
tolerance of one of the scenario's branches.  Its memory grows with two
grid rows per chunk and the number of roots, not with the whole grid.
The forward checks walk the same branch lines: ``run_scenario_suites``
gives each claimed branch one ``suite_forward`` check, run by
``checks.run_check`` and bounded by ``TOL``, and bisector-30 the off-branch
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
import os
import re
from bisect import bisect_right
from dataclasses import dataclass
from random import Random
from typing import Callable, Dict, List, Tuple

from .checks import TOL, run_check, run_parts
from .errors import DegenerateInputError, UsageError
from .rawgeom import angle_at
from .record import Record
from .report import CheckResult

_GAMMA_FLOOR = 1e-3  # scan guard: skip the numerically wild sliver gamma < ~0.06 deg
_COS_30 = math.cos(math.pi / 6)
_RIGHT_ANGLE = math.pi / 2
MIN_GAP = 1e-3
# the scan walk's finds: a zero or a flip along a row, and a flip down
_ZERO_OR_FLIP_ALONG = re.compile(b"\x01|\x02(?=\x06)|\x06(?=\x02)")
_FLIP_DOWN = re.compile(b"\x04")


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
# degenerate slivers and, on isosceles and gamma-90, within the square's bound.
ISOSCELES = Branch("isosceles", -1.0, 0.0, (1.0, 89.5))
GAMMA_60 = Branch("gamma-60", 1.0, 2 * math.pi / 3, (0.6, 119.4))
GAMMA_90 = Branch("gamma-90", 1.0, math.pi / 2, (1.0, 89.0))
ALPHA_120 = Branch("alpha-120", 0.0, 2 * math.pi / 3, (0.5, 59.5))


# -- residuals --------------------------------------------------------------
#
# Each residual is a row function: it takes one alpha and a list of betas and
# returns the residual at each node (alpha, beta) in order, and a node is a
# row of one.  Along the row it is straight-line binary64 code on A = (0, 0),
# B = (1, 0) and the apex C = sin(beta) (cos(alpha), sin(alpha)) / sin(gamma),
# the sine form, which holds across right angles.  cos(alpha), sin(alpha) and
# pi - alpha are taken once per row; (pi - alpha) - beta is what
# pi - alpha - beta evaluates.  The apex, and the bisector feet where a
# residual reads them, are written out in each loop: a call per node costs
# more than the arithmetic it would share.  Terms of the fixed base are
# folded (x + 0.0, 1.0 * x and the like are dropped), which changes no
# nonzero value; every other operation is the one the construction makes, in
# its order, so the residuals agree bit for bit with the figure compositions
# that ``tests/kernel_constructions.py`` keeps as their reference.  So a
# square stays ``x ** 2`` or ``x * x`` as written there: pow's last bit
# differs from ``x * x`` for about one double in 1,100 (879 of 10**6 drawn
# uniformly from [-2, 2] with seed 1).

def bisector_feet(alpha: float, beta: float) -> Tuple[float, ...]:
    """C = (cx, cy), the sides a = BC and b = CA, and the feet A1 = (a1x,
    a1y) on BC and B1 = (b1x, b1y) on CA of the bisectors from A and B, as
    the flat tuple (cx, cy, a, b, a1x, a1y, b1x, b1y).  Each foot divides
    its side in the ratio of the adjacent sides (AB = 1)."""
    sg = math.sin(math.pi - alpha - beta)
    sb = math.sin(beta)
    cx = sb * math.cos(alpha) / sg
    cy = sb * math.sin(alpha) / sg
    a = math.sqrt((1.0 - cx) ** 2 + (0.0 - cy) ** 2)
    b = math.sqrt((0.0 - cx) ** 2 + (0.0 - cy) ** 2)
    s_a = 1.0 / (b + 1.0)
    s_b = 1.0 / (a + 1.0)
    return cx, cy, a, b, 1.0 + (cx - 1.0) * s_a, cy * s_a, cx * s_b, cy * s_b


def medial_residual(alpha: float, betas: List[float]) -> List[float]:
    """Signed distance from the medial-triangle circumcenter to the internal
    bisector at C; positive on the side containing A."""
    top, ca, sa = math.pi - alpha, math.cos(alpha), math.sin(alpha)
    out = []
    for beta in betas:
        sg = math.sin(top - beta)
        sb = math.sin(beta)
        cx = sb * ca / sg
        cy = sb * sa / sg
        # midpoints F of BC and D of CA share the height cy/2, so the terms
        # of their height difference drop out; E = (1/2, 0)
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
        out.append(nx * (gx - cx) + ny * (gy - cy))
    return out


def incenter_residual(alpha: float, betas: List[float]) -> List[float]:
    """JA1^2 - JB1^2 for the incenter J and the bisector feet A1, B1 from A
    and B (as in ``bisector_feet``)."""
    top, ca, sa = math.pi - alpha, math.cos(alpha), math.sin(alpha)
    out = []
    for beta in betas:
        sg = math.sin(top - beta)
        sb = math.sin(beta)
        cx = sb * ca / sg
        cy = sb * sa / sg
        a = math.sqrt((1.0 - cx) ** 2 + (0.0 - cy) ** 2)
        b = math.sqrt((0.0 - cx) ** 2 + (0.0 - cy) ** 2)
        s_a = 1.0 / (b + 1.0)
        s_b = 1.0 / (a + 1.0)
        a1x, a1y = 1.0 + (cx - 1.0) * s_a, cy * s_a
        b1x, b1y = cx * s_b, cy * s_b
        p = a + b + 1.0
        jx = (b + cx) / p
        jy = cy / p
        out.append(((jx - a1x) ** 2 + (jy - a1y) ** 2)
                   - ((jx - b1x) ** 2 + (jy - b1y) ** 2))
    return out


def _center_offsets(alpha, betas, t):
    """cos(angle ACO) - cos(angle BCO) along the row, for the center O of
    the rectangle MNPQ on AB of height fraction t over the altitude h from
    C.  ``t=None`` is the inscribed square: its side is s = h/(1+h) for base
    1, so t = s/h = 1/(1+h)."""
    top, ca, sa = math.pi - alpha, math.cos(alpha), math.sin(alpha)
    out = []
    for beta in betas:
        if not (alpha <= _RIGHT_ANGLE and beta <= _RIGHT_ANGLE):
            raise FeetOffSegmentError(
                "inscribed square/rectangle needs alpha, beta <= 90 deg "
                "(feet would leave segment AB)")
        sg = math.sin(top - beta)
        sb = math.sin(beta)
        cx = sb * ca / sg
        h = sb * sa / sg
        s = 1.0 / (1.0 + h) if t is None else t
        # O is the midpoint of Q = (s cx, s h) and P = (1 - s (1 - cx), s h)
        wx = (s * cx + (1.0 - s * (1.0 - cx))) / 2 - cx
        wy = s * h / 2 - h
        ww = wx * wx + wy * wy
        # CA = (ax, ay) and CB = (bx, ay)
        ax, ay = 0.0 - cx, 0.0 - h
        bx = 1.0 - cx
        out.append((ax * wx + ay * wy) / math.sqrt((ax * ax + ay * ay) * ww)
                   - (bx * wx + ay * wy) / math.sqrt((bx * bx + ay * ay) * ww))
    return out


def square_residual(alpha: float, betas: List[float]) -> List[float]:
    """cos(angle ACO) - cos(angle BCO) for the inscribed-square center O."""
    return _center_offsets(alpha, betas, None)


def rectangle_residual(alpha: float, betas: List[float],
                       t: float = 0.5) -> List[float]:
    """Same residual for the inscribed rectangle of height fraction t."""
    if not 0.0 < t < 1.0:
        raise DegenerateInputError("height fraction t must lie in (0, 1)")
    return _center_offsets(alpha, betas, t)


def bisector30_residual(alpha: float, betas: List[float]) -> List[float]:
    """cos(angle B B1 A1) - cos(30 deg) for the bisector feet A1, B1 (as in
    ``bisector_feet``)."""
    top, ca, sa = math.pi - alpha, math.cos(alpha), math.sin(alpha)
    out = []
    for beta in betas:
        sg = math.sin(top - beta)
        sb = math.sin(beta)
        cx = sb * ca / sg
        cy = sb * sa / sg
        a = math.sqrt((1.0 - cx) ** 2 + (0.0 - cy) ** 2)
        b = math.sqrt((0.0 - cx) ** 2 + (0.0 - cy) ** 2)
        s_a = 1.0 / (b + 1.0)
        s_b = 1.0 / (a + 1.0)
        a1x, a1y = 1.0 + (cx - 1.0) * s_a, cy * s_a
        b1x, b1y = cx * s_b, cy * s_b
        ux, uy = 1.0 - b1x, 0.0 - b1y
        wx, wy = a1x - b1x, a1y - b1y
        out.append((ux * wx + uy * wy)
                   / math.sqrt((ux * ux + uy * uy) * (wx * wx + wy * wy))
                   - _COS_30)
    return out


# -- registry and scanning ----------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """``name``, the ``residual``, a row function over (alpha, [beta, ...]),
    the ``branches`` that hold its roots, whether that containment is
    ``asserted``, and ``max_angle``, the scan's bound on both base angles
    (radians)."""
    name: str
    residual: Callable[..., List[float]]
    branches: Tuple[Branch, ...]
    asserted: bool = True
    max_angle: float = math.pi


SCENARIOS: Dict[str, Scenario] = {
    s.name: s for s in (
        Scenario("medial-circumcenter", medial_residual, (ISOSCELES, GAMMA_60)),
        Scenario("incenter-segments", incenter_residual, (ISOSCELES, GAMMA_60)),
        Scenario("square-center", square_residual, (ISOSCELES, GAMMA_90),
                 max_angle=_RIGHT_ANGLE),
        Scenario("rectangle-center", rectangle_residual, (ISOSCELES,),
                 asserted=False, max_angle=_RIGHT_ANGLE),
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


def _grid_rows(h: float, max_angle: float):
    """The beta column of the grid of step ``h`` (node j at ``col[j - 1]``)
    and the grid rows, as (alpha, row length), in order.

    j * h grows with j, so the angle bound keeps a prefix of the column, of
    the rows' alphas (i * h = col[i - 1]) too; gamma = pi - a - b falls as a
    or b grows (its rounding too), so a row's length only moves down, and the
    rows end at the first one the gamma floor leaves empty."""
    col = [j * h for j in range(1, int(math.pi / h) + 2)]
    rows: List[Tuple[float, int]] = []
    n = bisect_right(col, max_angle)
    for a in col[:n]:
        while n and math.pi - a - col[n - 1] < _GAMMA_FLOOR:
            n -= 1
        if not n:
            break
        rows.append((a, n))
    return col, rows


def level_set_scan(name: str, grid_step: float, refine_tol: float = 1e-12,
                   delta: float = 1e-6, **scenario_kwargs) -> ScanReport:
    """Grid-scan a scenario residual and bisect every sign change to a root.

    The grid holds the nodes (i, j) * ``grid_step`` with alpha, beta <= the
    scenario's ``max_angle`` and gamma above the floor; with none, it raises
    ``DegenerateInputError``.  The residual is called once per grid row and
    once per bisection midpoint, as a row of one.  Each node is zero,
    negative, or positive-or-NaN, and the walk visits only the nodes that
    hold an exact zero or a sign change.  ``checks.run_parts`` cuts the rows
    into one contiguous chunk per usable CPU, balanced by node count, and
    scans each chunk after the first in a forked worker while this process
    scans the first.  A chunk's pass keeps two rows alive and walks each of
    its rows against the next, its last row against the next chunk's first,
    which it evaluates but does not count; then it bisects what the walk
    queued.  So the chunks' queues, in order, are the queue of one serial
    pass, the roots are deduped in its order, and the report is the
    one-process report bit for bit (``taskset -c 0`` runs that one process).
    ``evaluations`` counts the nodes that the one-process scan evaluates:
    the row that each chunk after the first shares with the chunk before it
    is counted once, though both evaluate it.  A worker that fails has its
    chunk rerun here, which raises its error.  Every refined root is
    attributed to the nearest conclusion branch within ``delta`` (ties go to
    the isosceles branch first); roots matching no branch are violations of
    containment.
    """
    sc = get_scenario(name)
    h = grid_step
    if not h > 0:   # a NaN step too
        raise ValueError("grid step must be positive")
    if not math.pi / h < math.inf:
        raise DegenerateInputError(f"grid step {h:g} rad is too fine for binary64")

    f = (functools.partial(sc.residual, **scenario_kwargs) if scenario_kwargs
         else sc.residual)
    col, rows = _grid_rows(h, sc.max_angle)
    if not rows:
        raise DegenerateInputError("scan region contains no valid grid nodes")

    def walk(above, below):
        # the queue of row above, (alpha a, values row, classes 2 negative,
        # 6 positive or NaN, 1 zero), against the row below, a row alike or
        # None: a flip down is where their classes XOR to 4, as only 2 ^ 6
        # does.  Zero nodes queue as (a, b, a, b, 0.0), flip edges with the
        # value at their start, in node order and the edge down first;
        # queue order decides the root the dedupe keeps
        a, row, classes = above
        marks = [(m.start(), 1) for m in _ZERO_OR_FLIP_ALONG.finditer(classes)]
        if below:
            a_next, _, under = below
            n = len(under)
            flips = (int.from_bytes(classes[:n], "little")
                     ^ int.from_bytes(under, "little")).to_bytes(n, "little")
            marks += [(m.start(), 0) for m in _FLIP_DOWN.finditer(flips)]
        queue = []
        for j, along in sorted(marks):
            b = col[j]
            if not along:
                queue.append((a, b, a_next, b, row[j]))
            elif classes[j] == 1:
                queue.append((a, b, a, b, 0.0))
            else:
                queue.append((a, b, a, col[j + 1], row[j]))
        return queue

    def refine(queue):
        # the root of each queued edge, in order, and the midpoints
        # evaluated.  A zero node is its own root.  An edge is bisected past
        # |f| <= tol until the bracket is tight, else a root at a
        # tangency/branch crossing is localized no better than sqrt(tol); lo
        # keeps the sign of flo, and the first midpoint is the best so far
        # even if NaN
        roots, evaluations = [], 0
        for ax, ay, bx, by, flo in queue:
            if flo == 0.0:
                roots.append((ax, ay, 0.0))
                continue
            dx, dy, neg = bx - ax, by - ay, flo < 0
            span = math.hypot(dx, dy)
            lo, hi, mid = 0.0, 1.0, 0.5
            ma, mb = ax + dx * mid, ay + dy * mid
            fm = f(ma, [mb])[0]
            best, least, calls = (ma, mb, fm), abs(fm), 1
            while calls < 90 and hi - lo >= 1e-16 and not (
                    abs(fm) <= refine_tol and (hi - lo) * span <= 1e-10):
                if neg == (fm < 0):
                    lo = mid
                else:
                    hi = mid
                mid = (lo + hi) / 2
                ma, mb = ax + dx * mid, ay + dy * mid
                fm = f(ma, [mb])[0]
                calls += 1
                if abs(fm) < least:
                    best, least = (ma, mb, fm), abs(fm)
            roots.append(best)
            evaluations += calls
        return roots, evaluations

    owner = os.getpid()

    def evaluate(i):
        # grid row i as (alpha, values, classes); a worker stops once the
        # scanning process, its parent, is gone
        if os.getpid() != owner != os.getppid():
            os._exit(1)
        a, n = rows[i]
        row = f(a, col[:n])
        return a, row, bytes([2 if v < 0.0 else 6 if v != 0.0 else 1
                              for v in row])

    def scan_chunk(chunk):
        # the rows of chunk, a range of row indices, each walked against the
        # next, and the queue bisected after the last, so that a process's
        # grid calls come before its bisection calls, in increasing (alpha,
        # betas) (the benchmark's tracer splits them so); returns the roots
        # in queue order and the nodes evaluated, not counting the next
        # chunk's first row
        queue, evaluations = [], 0
        above = evaluate(chunk[0])
        for i in chunk:
            evaluations += rows[i][1]
            below = evaluate(i + 1) if i + 1 < len(rows) else None
            queue += walk(above, below)
            above = below
        roots, calls = refine(queue)
        return roots, evaluations + calls

    evaluations = 0
    raw_roots: Dict[Tuple[float, float], Tuple[float, float, float]] = {}
    for chunk_roots, calls in run_parts(range(len(rows)),
                                        [n for _, n in rows], scan_chunk):
        evaluations += calls
        for a, b, r in chunk_roots:
            raw_roots.setdefault((round(a, 12), round(b, 12)), (a, b, r))

    roots: List[ScanRoot] = []
    for a, b, r in sorted(raw_roots.values()):
        branch, dist = None, math.inf
        for br in sc.branches:
            d = br.distance(a, b)
            if d <= delta:
                branch, dist = br.name, d
                break
            dist = min(dist, d)
        roots.append(ScanRoot(a, b, math.pi - a - b, r, branch, dist))
    violations = [root for root in roots if root.branch is None]

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
        resid = abs(scenario.residual(alpha, [beta], **scenario_kwargs)[0])
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
