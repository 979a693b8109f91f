"""The level-set scan as it was before the grid pass streamed its rows.

``reference_scan`` holds every grid value until the grid pass ends, then
walks the stored rows for exact zeros and sign changes, bisecting each as
the walk meets it, all in one process.  It calls the registered residual, a
row function, once per node, as a row of one.
``planicheck.scenarios.level_set_scan`` must return the same report and,
cut into one chunk (one usable CPU, as under ``taskset -c 0``), evaluate
the same nodes in the same order: its calls, one per grid row and one per
bisection midpoint, flattened into their (alpha, beta) nodes, must give the
reference's sequence of calls; ``tests/test_scenarios.py`` compares the
two.  With more chunks the scan keeps two rows alive per chunk and the
workers' residual calls are made in other processes, so those tests pin one
chunk and compare the chunked scan with the one-chunk scan instead.
"""

import functools
import math
from typing import List, Optional, Tuple

from planicheck.scalars import DegenerateInputError
from planicheck.scenarios import (
    _GAMMA_FLOOR,
    ScanReport,
    ScanRoot,
    get_scenario,
)


def reference_scan(name: str, grid_step: float, refine_tol: float = 1e-12,
                   delta: float = 1e-6, **scenario_kwargs) -> ScanReport:
    sc = get_scenario(name)
    h = grid_step
    if h <= 0:
        raise ValueError("grid step must be positive")
    if not math.pi / h < math.inf:
        raise DegenerateInputError(f"grid step {h:g} rad is too fine for binary64")

    f = functools.partial(sc.residual, **scenario_kwargs)
    bound = sc.max_angle

    # rows[i - 1][j - 1] is the value at node (i, j), None past the angle
    # bound; a row ends at the first node under the gamma floor
    rows: List[List[Optional[float]]] = []
    evaluations = 0
    imax = int(math.pi / h) + 1
    for i in range(1, imax + 1):
        a = i * h
        top = math.pi - a
        row = []
        for j in range(1, imax + 1):
            b = j * h
            if top - b < _GAMMA_FLOOR:
                break
            row.append(f(a, [b])[0] if a <= bound and b <= bound else None)
        evaluations += len(row) - row.count(None)
        rows.append(row)
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
        nonlocal evaluations
        span = math.hypot(bx - ax, by - ay)
        lo, hi = 0.0, 1.0
        best = None
        for _ in range(90):
            mid = (lo + hi) / 2
            ma, mb = ax + (bx - ax) * mid, ay + (by - ay) * mid
            fm = f(ma, [mb])[0]
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

    # each node against (i + 1, j) in the row below (an empty one past the
    # last row) and (i, j + 1)
    rows.append([])
    for i in range(1, len(rows)):
        row, below = rows[i - 1], rows[i]
        n_row, n_below = len(row), len(below)
        a, a_next = i * h, (i + 1) * h
        for j, f1 in enumerate(row, 1):
            if f1 is None:
                continue
            if f1 == 0.0:
                note(a, j * h, 0.0)
                continue
            neg = f1 < 0
            if j <= n_below:
                f2 = below[j - 1]
                if f2 is not None and f2 != 0.0 and (f2 < 0) != neg:
                    note(*bisect(a, j * h, a_next, j * h, f1))
            if j < n_row:
                f2 = row[j]
                if f2 is not None and f2 != 0.0 and (f2 < 0) != neg:
                    note(*bisect(a, j * h, a, (j + 1) * h, f1))

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
