"""Seeded property suites behind the ``verify`` command.

Each sampled check is a per-sample function run by ``checks.run_check``,
the one sample loop; it draws from the ``random.Random`` its suite is
handed (the caller owns seeding, so results are reproducible).
``run_verify_suites`` draws every suite's seed first and hands the suites
to ``checks.run_parts``, which runs the scan too: it cuts them into at most
one contiguous group per usable CPU and runs each group after the first in
a forked worker, so the checks, and the report, do not depend on the
number of CPUs; ``taskset -c 0`` runs every suite in one process.  The
scenario forward checks live in ``scenarios``, so a ``scenario`` run loads
no SSA layer, and the oracle's ``angle_at`` lives in ``rawgeom``, so a
``verify`` run loads no scenario layer (nor the ``dataclasses`` and
``inspect`` it brings).  The suites compute on the payloads that the
solver, the verdicts and the lemma report hand out, and read a point's
coordinates as binary64 through ``Point.as_floats``; only the exact
dichotomy's witness reads a spec through its ``Scalar`` views.

Sample counts scale the acceptance defaults: with the standard 100000
samples the verify runner executes 100000 oracle comparisons, 10000 float
and 1000 exact dichotomy classifications, 1000 lemma configurations, and
1000 backend cross-validations.
"""

from __future__ import annotations

import math
from fractions import Fraction
from random import Random
from typing import Callable, Dict, List, Optional, Tuple

from .scalars import EXACT, FloatBackend
from .kernel import Isometry, Point, Triangle, collinear, coord_scale, point
from .ssa import (Congruent, NotSsaMatched, SsaSpec, Supplementary,
                  classify_pair, lemma_common_side_check, solve_ssa)
from .rawgeom import angle_at
from .checks import TOL, run_check, run_parts
from .report import CheckResult

FLOAT = FloatBackend()


# -- law-of-sines oracle -------------------------------------------------------

def law_of_sines_oracle(a: float, b: float, cos_theta: float,
                        eps: float = 1e-9) -> List[Tuple[float, float, float]]:
    """Independent SSA resolution: angle-sum bookkeeping instead of the
    solver's quadratic.  Returns (apex angle at B, base angle at C, third
    side) per solution, ascending by third side.

    The right-angle boundary band and the positive-third-side floor use the
    same quantities as the solver so the two sides of the comparison split
    cases identically.  Each max and min is written as the builtin's own
    comparisons, which cost a fraction of its call on every sample.
    """
    theta = math.acos(cos_theta)
    sin2 = 1.0 - cos_theta * cos_theta
    sin_theta = math.sqrt(sin2)
    s = a if a > 1.0 else 1.0
    s = b if b > s else s  # max(1, a, b)
    disc = a * a - b * b * sin2
    if abs(disc) <= eps * s * s:
        apex_candidates = [math.pi / 2]
    elif disc < 0.0:
        apex_candidates = []
    else:
        ratio = b * sin_theta / a
        apex = math.asin(ratio if ratio < 1.0 else 1.0)  # min(1, ratio)
        apex_candidates = [math.pi - apex, apex]
    out = []
    for apex in apex_candidates:
        base = math.pi - theta - apex
        third = a * math.sin(theta + apex) / sin_theta
        scale = third if third > s else s  # max(s, third)
        if third > eps * scale and third * sin_theta * b > eps * scale * scale:
            out.append((apex, base, third))
    return out


def suite_ssa_oracle(samples: int, rng: Random,
                     float_backend: FloatBackend = FLOAT) -> CheckResult:
    """Solver vs law-of-sines oracle on uniform random specs: equal solution
    counts, remaining angles within ``TOL`` radians."""
    def sample(_index, witness):
        a = rng.uniform(0.1, 10.0)
        b = rng.uniform(0.1, 10.0)
        theta_deg = rng.uniform(1.0, 179.0)
        cos_t = math.cos(math.radians(theta_deg))
        witness.update(a=a, b=b, theta_deg=theta_deg)
        tris = solve_ssa(SsaSpec(float_backend, a, b, cos_t))
        expected = law_of_sines_oracle(a, b, cos_t, eps=float_backend.eps)
        witness.update(solver_count=len(tris), oracle_count=len(expected))
        if len(tris) != len(expected):
            return 0.0, {}
        worst = 0.0
        for tri, (apex, base, _third) in zip(tris, expected):
            pa, pb, pc = (tri.A.as_floats(), tri.B.as_floats(),
                          tri.C.as_floats())
            # max(worst, the two angle errors), by the builtin's own > tests
            diff = abs(angle_at(pb, pa, pc) - apex)
            if diff > worst:
                worst = diff
            diff = abs(angle_at(pc, pa, pb) - base)
            if diff > worst:
                worst = diff
        return worst, ({"angle_diff": worst} if worst > TOL else None)

    return run_check("ssa-oracle-equivalence", samples, sample)


# -- dichotomy exhaustion ------------------------------------------------------

def sample_two_solution_spec(rng: Random,
                             float_backend: FloatBackend = FLOAT,
                             witness: Optional[Dict] = None) -> SsaSpec:
    """Spec drawn inside the two-solution regime: an acute angle theta and
    b sin(theta) < a < b, with a kept off both ends of that interval.  The
    solver is not consulted, so a caller that gets a count other than 2
    has found a failure, not a rejected draw.  The draw, its cosine
    included, goes into ``witness`` before the spec is validated, so a
    rejected draw is reported with its values."""
    theta_deg = rng.uniform(1.0, 89.0)
    b = rng.uniform(0.1, 10.0)
    lo = b * math.sin(math.radians(theta_deg))
    u = rng.uniform(1e-6, 1.0 - 1e-6)
    a = lo + u * (b - lo)
    cos_angle = math.cos(math.radians(theta_deg))
    if witness is not None:
        witness.update(theta_deg=theta_deg, a=a, b=b, cos_angle=cos_angle)
    return SsaSpec(float_backend, a, b, cos_angle)


def _draw_two_solutions(rng: Random, float_backend: FloatBackend,
                        witness: Dict) -> Optional[Tuple[Triangle, ...]]:
    """Draw a two-solution spec, record it in ``witness`` and solve it; the
    two triangles, or None after recording any other solution ``count``."""
    tris = solve_ssa(sample_two_solution_spec(rng, float_backend, witness))
    if len(tris) != 2:
        witness["count"] = len(tris)
        return None
    return tris


def suite_dichotomy_float(samples: int, rng: Random,
                          float_backend: FloatBackend = FLOAT) -> CheckResult:
    """Every two-solution pair classifies as Supplementary with cosine sum
    within ``TOL``; NotSsaMatched and silent third outcomes are failures."""
    def sample(_index, witness):
        pair = _draw_two_solutions(rng, float_backend, witness)
        if pair is None:
            return 0.0, {}
        verdict = classify_pair(*pair)
        witness["verdict"] = type(verdict).__name__
        if not isinstance(verdict, Supplementary):
            return 0.0, {}
        resid = abs(verdict.cos1 + verdict.cos2)
        return resid, ({"cos_sum": resid} if resid > TOL else None)

    return run_check("dichotomy-supplementary-float", samples, sample)


def sample_rational_two_solution_spec(rng: Random) -> SsaSpec:
    """Exact-backend spec with rational cosine and sine and a perfect-square
    discriminant, built so both roots are rational and distinct.

    A Pythagorean direction gives the rational angle; the two intended third
    sides t1 != t2 are chosen with t1 + t2 = 2 b cos(theta), and side_a is
    read off the quadratic's constant term (side_a may be a square root)."""
    m = rng.randint(2, 8)
    n = rng.randint(1, m - 1)
    hyp = m * m + n * n
    cos_t = Fraction(m * m - n * n, hyp)
    b = Fraction(rng.randint(1, 20), rng.randint(1, 5))
    k = rng.choice([i for i in range(1, 20) if i != 10])
    t1 = 2 * b * cos_t * Fraction(k, 20)
    t2 = 2 * b * cos_t - t1
    a_sq = b * b - t1 * t2
    return SsaSpec(EXACT, EXACT.sqrt(EXACT.payload(a_sq)), b, cos_t)


def suite_dichotomy_exact(samples: int, rng: Random) -> CheckResult:
    """Exact-backend dichotomy: rational-cosine two-solution specs classify
    as Supplementary with an exactly zero cosine sum."""
    def sample(_index, witness):
        spec = sample_rational_two_solution_spec(rng)
        witness.update(a_sq=str((spec.side_a * spec.side_a).exact_value()),
                       b=str(spec.side_b.exact_value()),
                       cos_angle=str(spec.cos_angle.exact_value()))
        tris = solve_ssa(spec)
        witness["count"] = len(tris)
        if len(tris) != 2:
            return 0.0, {}
        verdict = classify_pair(*tris)
        if not isinstance(verdict, Supplementary):
            return 0.0, {"verdict": type(verdict).__name__}
        if EXACT.sign(verdict.cos1 + verdict.cos2) != 0:
            return 0.0, {"cos_sum": "nonzero"}
        return 0.0, None

    return run_check("dichotomy-supplementary-exact", samples, sample)


# -- the common-side lemma -----------------------------------------------------

def suite_lemma(samples: int, rng: Random,
                float_backend: FloatBackend = FLOAT) -> CheckResult:
    """Constructed non-congruent common-side pairs: remaining angles
    supplementary, C and D on opposite sides of AB and concyclic
    (determinant within TOL * scale^4), and the strict inequality AC < AB."""
    def sample(_index, witness):
        pair = _draw_two_solutions(rng, float_backend, witness)
        if pair is None:
            return 0.0, {}
        apex1, apex2 = pair[0].B, pair[1].B
        shared_a = pair[0].C     # lemma's A, at (b, 0)
        shared_b = pair[0].A     # lemma's B, at the origin
        t_abc = Triangle(shared_a, shared_b, apex1)
        x2, y2 = apex2.as_floats()
        t_abd = Triangle(shared_a, shared_b, point(float_backend, x2, -y2))
        report = lemma_common_side_check(t_abc, t_abd)
        residual = abs(report.cos_acb + report.cos_adb)
        det_norm = None  # the report has no determinant for a same-side pair
        if report.opposite_sides:
            scale = coord_scale(shared_a, shared_b, t_abc.C, t_abd.C)
            det_norm = abs(report.concyclicity_det) / scale ** 4
            residual = max(det_norm, residual)
        if (report.supplementary_angles and report.opposite_sides
                and report.is_concyclic and report.ac_less_than_ab
                and det_norm <= TOL):
            return residual, None
        return residual, {"supplementary": report.supplementary_angles,
                          "opposite_sides": report.opposite_sides,
                          "concyclic": report.is_concyclic,
                          "ac_less_than_ab": report.ac_less_than_ab,
                          "det_norm": det_norm}

    return run_check("lemma-common-side", samples, sample)


# -- backend cross-validation --------------------------------------------------

_RATIONAL_DIRECTIONS = ((Fraction(3, 5), Fraction(4, 5)),
                        (Fraction(5, 13), Fraction(12, 13)),
                        (Fraction(8, 17), Fraction(15, 17)),
                        (Fraction(20, 29), Fraction(21, 29)))


def _to_float_triangle(tri: Triangle) -> Triangle:
    return Triangle(*(point(FLOAT, *p.as_floats())
                      for p in (tri.A, tri.B, tri.C)))


def _rational_triangle(rng: Random) -> Triangle:
    while True:
        xs = [Fraction(rng.randint(-8, 8), rng.randint(1, 4))
              for _ in range(6)]
        pts = [point(EXACT, x, y) for x, y in zip(xs[::2], xs[1::2])]
        if not collinear(*pts):
            return Triangle(*pts)


def _rational_isometry_image(tri: Triangle, rng: Random) -> Triangle:
    c, s = rng.choice(_RATIONAL_DIRECTIONS)
    if rng.random() < 0.5:
        s = -s
    if rng.random() < 0.5:
        c, s = s, c
    tx, ty = (Fraction(rng.randint(-5, 5), 2) for _ in range(2))
    g = Isometry(EXACT, *map(EXACT.payload, (c, s, tx, ty)),
                 mirror=rng.random() < 0.5)
    return g.apply(tri)


def suite_backend_cross(samples: int, rng: Random) -> CheckResult:
    """Exact and float backends must return the same verdict type on
    rational-coordinate instances covering all three dichotomy outcomes."""
    n_other = samples // 5
    kinds = (["supplementary"] * (samples - 2 * n_other)
             + ["congruent"] * n_other + ["mismatch"] * n_other)
    expected = {"supplementary": Supplementary, "congruent": Congruent,
                "mismatch": NotSsaMatched}

    def sample(index, witness):
        kind = witness["kind"] = kinds[index]
        if kind == "supplementary":
            tris = solve_ssa(sample_rational_two_solution_spec(rng))
            if len(tris) != 2:
                return 0.0, {"count": len(tris)}
            e1, e2 = tris
        else:
            e1 = _rational_triangle(rng)
            e2 = _rational_isometry_image(e1, rng)
            if kind == "mismatch":
                grow = EXACT.payload(Fraction(101, 100))
                a, c = e2.A, e2.C
                e2 = Triangle(a, e2.B,
                              Point(EXACT, a._x + (c._x - a._x) * grow,
                                    a._y + (c._y - a._y) * grow))
        exact_verdict = classify_pair(e1, e2)
        float_verdict = classify_pair(_to_float_triangle(e1),
                                      _to_float_triangle(e2))
        if type(exact_verdict) is not type(float_verdict):
            return 0.0, {"exact": type(exact_verdict).__name__,
                         "float": type(float_verdict).__name__}
        if not isinstance(exact_verdict, expected[kind]):
            return 0.0, {"verdict": type(exact_verdict).__name__}
        return 0.0, None

    return run_check("backend-cross-validation", samples, sample)


# -- runners --------------------------------------------------------------------

VERIFY_SUITES: Tuple[Tuple[str, int, Callable[[int, Random], CheckResult]], ...] = (
    ("ssa-oracle-equivalence", 1, suite_ssa_oracle),
    ("dichotomy-supplementary-float", 10, suite_dichotomy_float),
    ("dichotomy-supplementary-exact", 100, suite_dichotomy_exact),
    ("lemma-common-side", 100, suite_lemma),
    ("backend-cross-validation", 100, suite_backend_cross),
)


def run_verify_suites(samples: int, seed: int, backend: str = "float",
                      eps: float = 1e-9) -> List[CheckResult]:
    """Run the verify suite battery; per-suite sample counts divide the
    requested total by each suite's scale factor (minimum one sample).

    ``backend`` chooses which dichotomy family carries the bulk: the exact
    backend drops the float dichotomy suite and promotes the exact one.
    ``eps`` configures the float backend used by the float-domain suites.

    Each suite's seed is drawn from the master stream first, in table order,
    the dropped suite's too.  ``run_parts`` cuts the suites into contiguous
    groups balanced by sample count; this process runs the first group and
    a forked worker each later one, which sends back the fields of its
    checks.  The checks are rebuilt in suite order, so they are the
    one-process checks on any number of CPUs."""
    fb = FloatBackend(eps)
    takes_backend = {"ssa-oracle-equivalence", "dichotomy-supplementary-float",
                     "lemma-common-side"}
    master = Random(seed)
    # at least one sample per suite; a total below one goes through
    # unchanged, for run_check to reject
    floor = min(1, samples)
    runs = []
    for name, divisor, fn in VERIFY_SUITES:
        suite_seed = master.getrandbits(64)
        if backend == "exact" and name == "dichotomy-supplementary-float":
            continue
        n = max(floor, samples // divisor)
        if backend == "exact" and name == "dichotomy-supplementary-exact":
            n = max(floor, samples // 10)
        kwargs = {"float_backend": fb} if name in takes_backend else {}
        runs.append((fn, n, suite_seed, kwargs))

    def run_group(group):
        checks = [fn(n, Random(suite_seed), **kwargs)
                  for fn, n, suite_seed, kwargs in group]
        return [(c.name, c.passed, c.samples, c.worst_residual, c.witnesses)
                for c in checks]

    results = run_parts(runs, [n for _, n, _, _ in runs], run_group)
    return [CheckResult(*fields) for group in results for fields in group]


def __getattr__(name):
    # PEP 562: ``suites.run_scenario_suites``, the name bench/tracing.py
    # wraps, is ``scenarios.run_scenario_suites`` itself, imported on that
    # read alone, so a verify run loads no scenario layer and the tracer
    # rebinds the function that cmd_scenario imports.  The benchmark change
    # of ROADMAP item 2, which points the tracer at scenarios, deletes it
    if name == "run_scenario_suites":
        from .scenarios import run_scenario_suites
        return run_scenario_suites
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
