"""Seeded property suites behind the ``verify`` and ``scenario`` commands.

Each suite draws its samples from a ``random.Random`` it is handed, checks
one family of claims, and returns a ``CheckResult``; the caller owns seeding
so results are reproducible.  Sample counts scale the acceptance defaults:
with the standard 100000 samples the verify runner executes 100000 oracle
comparisons, 10000 float and 1000 exact dichotomy classifications, 1000
lemma configurations, and 1000 backend cross-validations.

The scenario forward checks are not written per scenario: ``suite_forward``
walks one ``Branch`` of the scenario registry, so every claimed branch of
every scenario gets one check.

``TOL`` bounds every float residual (radians, cosine sums, normalized
determinants) and ``MIN_GAP`` the bisector-30 spot gaps from below.  In the
oracle, float-dichotomy and lemma suites, a sample that the float backend
rejects as degenerate (as a coarse ``eps`` may) is a failing witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Callable, Dict, List, Tuple

from .scalars import EXACT, DegenerateInputError, FloatBackend
from .kernel import Point, Triangle, coord_scale, point
from .ssa import (Congruent, LemmaPreconditionError, NotSsaMatched, SsaSpec,
                  Supplementary, classify_pair, lemma_common_side_check,
                  solve_ssa)
from . import scenarios as sc

FLOAT = FloatBackend()
TOL = 1e-9
MIN_GAP = 1e-3


@dataclass
class CheckResult:
    name: str
    passed: bool
    samples: int
    worst_residual: float
    witnesses: List[Dict] = field(default_factory=list)

    def add_failure(self, witness: Dict):
        self.passed = False
        if len(self.witnesses) < 5:
            self.witnesses.append(witness)


# -- law-of-sines oracle -------------------------------------------------------

def law_of_sines_oracle(a: float, b: float, cos_theta: float,
                        eps: float = 1e-9) -> List[Tuple[float, float, float]]:
    """Independent SSA resolution: angle-sum bookkeeping instead of the
    solver's quadratic.  Returns (apex angle at B, base angle at C, third
    side) per solution, ascending by third side.

    The right-angle boundary band and the positive-third-side floor use the
    same quantities as the solver so the two sides of the comparison split
    cases identically.
    """
    theta = math.acos(cos_theta)
    sin2 = 1.0 - cos_theta * cos_theta
    sin_theta = math.sqrt(sin2)
    s = max(1.0, a, b)
    disc = a * a - b * b * sin2
    if abs(disc) <= eps * s * s:
        apex_candidates = [math.pi / 2]
    elif disc < 0.0:
        apex_candidates = []
    else:
        apex = math.asin(min(1.0, b * sin_theta / a))
        apex_candidates = [math.pi - apex, apex]
    out = []
    for apex in apex_candidates:
        base = math.pi - theta - apex
        third = a * math.sin(theta + apex) / sin_theta
        scale = max(s, third)
        if third > eps * scale and third * sin_theta * b > eps * scale * scale:
            out.append((apex, base, third))
    return out


def suite_ssa_oracle(samples: int, rng: Random,
                     float_backend: FloatBackend = FLOAT) -> CheckResult:
    """Solver vs law-of-sines oracle on uniform random specs: equal solution
    counts, remaining angles within ``TOL`` radians."""
    result = CheckResult("ssa-oracle-equivalence", True, samples, 0.0)
    for _ in range(samples):
        a = rng.uniform(0.1, 10.0)
        b = rng.uniform(0.1, 10.0)
        theta_deg = rng.uniform(1.0, 179.0)
        cos_t = math.cos(math.radians(theta_deg))
        witness = {"a": a, "b": b, "theta_deg": theta_deg}
        try:
            sols = solve_ssa(SsaSpec.from_values(float_backend, a, b, cos_t))
        except DegenerateInputError as exc:
            result.add_failure({**witness, "error": str(exc)})
            continue
        expected = law_of_sines_oracle(a, b, cos_t, eps=float_backend.eps)
        witness["solver_count"] = sols.count
        witness["oracle_count"] = len(expected)
        if sols.count != len(expected):
            result.add_failure(witness)
            continue
        worst = 0.0
        for tri, (apex, base, _third) in zip(sols.triangles, expected):
            a, b, c = [(p.x.as_float(), p.y.as_float())
                       for p in (tri.A, tri.B, tri.C)]
            worst = max(worst, abs(sc.angle_at(b, a, c) - apex),
                        abs(sc.angle_at(c, a, b) - base))
        result.worst_residual = max(result.worst_residual, worst)
        if worst > TOL:
            result.add_failure({**witness, "angle_diff": worst})
    return result


# -- dichotomy exhaustion ------------------------------------------------------

def sample_two_solution_spec(rng: Random,
                             float_backend: FloatBackend = FLOAT) -> SsaSpec:
    """Spec drawn inside the two-solution regime: an acute angle theta and
    b sin(theta) < a < b, with a kept off both ends of that interval.  The
    solver is not consulted, so a caller that gets a count other than 2
    has found a failure, not a rejected draw."""
    theta_deg = rng.uniform(1.0, 89.0)
    b = rng.uniform(0.1, 10.0)
    lo = b * math.sin(math.radians(theta_deg))
    u = rng.uniform(1e-6, 1.0 - 1e-6)
    a = lo + u * (b - lo)
    return SsaSpec.from_values(float_backend, a, b,
                               math.cos(math.radians(theta_deg)))


def suite_dichotomy_float(samples: int, rng: Random,
                          float_backend: FloatBackend = FLOAT) -> CheckResult:
    """Every two-solution pair classifies as Supplementary with cosine sum
    within ``TOL``; NotSsaMatched and silent third outcomes are failures."""
    result = CheckResult("dichotomy-supplementary-float", True, samples, 0.0)
    for _ in range(samples):
        witness = {}
        try:
            spec = sample_two_solution_spec(rng, float_backend)
            witness = {"a": spec.side_a.as_float(), "b": spec.side_b.as_float(),
                       "cos_angle": spec.cos_angle.as_float()}
            sols = solve_ssa(spec)
            if sols.count != 2:
                result.add_failure({**witness, "count": sols.count})
                continue
            verdict = classify_pair(sols.triangles[0], sols.triangles[1])
        except DegenerateInputError as exc:
            result.add_failure({**witness, "error": str(exc)})
            continue
        witness["verdict"] = type(verdict).__name__
        if not isinstance(verdict, Supplementary):
            result.add_failure(witness)
            continue
        resid = abs(verdict.cos1.as_float() + verdict.cos2.as_float())
        result.worst_residual = max(result.worst_residual, resid)
        if resid > TOL:
            result.add_failure({**witness, "cos_sum": resid})
    return result


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
    side_a = EXACT.scalar(a_sq).sqrt()
    return SsaSpec(side_a, EXACT.scalar(b), EXACT.scalar(cos_t))


def suite_dichotomy_exact(samples: int, rng: Random) -> CheckResult:
    """Exact-backend dichotomy: rational-cosine two-solution specs classify
    as Supplementary with an exactly zero cosine sum."""
    result = CheckResult("dichotomy-supplementary-exact", True, samples, 0.0)
    for _ in range(samples):
        spec = sample_rational_two_solution_spec(rng)
        sols = solve_ssa(spec)
        witness = {"a_sq": str((spec.side_a * spec.side_a).exact_value()),
                   "b": str(spec.side_b.exact_value()),
                   "cos_angle": str(spec.cos_angle.exact_value()),
                   "count": sols.count}
        if sols.count != 2:
            result.add_failure(witness)
            continue
        verdict = classify_pair(sols.triangles[0], sols.triangles[1])
        if not isinstance(verdict, Supplementary):
            result.add_failure({**witness, "verdict": type(verdict).__name__})
            continue
        if (verdict.cos1 + verdict.cos2).sign() != 0:
            result.add_failure({**witness, "cos_sum": "nonzero"})
    return result


# -- the common-side lemma -----------------------------------------------------

def suite_lemma(samples: int, rng: Random,
                float_backend: FloatBackend = FLOAT) -> CheckResult:
    """Constructed non-congruent common-side pairs: remaining angles
    supplementary, the four vertices concyclic (determinant within
    TOL * scale^4), and the strict side inequality AC < AB."""
    result = CheckResult("lemma-common-side", True, samples, 0.0)
    for _ in range(samples):
        witness = {}
        try:
            spec = sample_two_solution_spec(rng, float_backend)
            witness = {"a": spec.side_a.as_float(), "b": spec.side_b.as_float(),
                       "cos_angle": spec.cos_angle.as_float()}
            sols = solve_ssa(spec)
            if sols.count != 2:
                result.add_failure({**witness, "count": sols.count})
                continue
            apex1, apex2 = sols.triangles[0].B, sols.triangles[1].B
            shared_a = sols.triangles[0].C     # lemma's A, at (b, 0)
            shared_b = sols.triangles[0].A     # lemma's B, at the origin
            t_abc = Triangle(shared_a, shared_b, apex1)
            t_abd = Triangle(shared_a, shared_b,
                             point(float_backend, apex2.x.as_float(),
                                   -apex2.y.as_float()))
            report = lemma_common_side_check(t_abc, t_abd)
        except (DegenerateInputError, LemmaPreconditionError) as exc:
            result.add_failure({**witness, "error": str(exc)})
            continue
        scale = coord_scale(shared_a, shared_b, t_abc.C, t_abd.C)
        det_norm = abs(report.concyclicity_det.as_float()) / scale ** 4
        cos_sum = abs(report.cos_acb.as_float() + report.cos_adb.as_float())
        result.worst_residual = max(result.worst_residual, det_norm, cos_sum)
        if not (report.supplementary_angles and report.opposite_sides
                and report.is_concyclic and report.ac_less_than_ab
                and det_norm <= TOL):
            result.add_failure({
                **witness,
                "supplementary": report.supplementary_angles,
                "concyclic": report.is_concyclic,
                "ac_less_than_ab": report.ac_less_than_ab,
                "det_norm": det_norm})
    return result


# -- backend cross-validation --------------------------------------------------

_RATIONAL_DIRECTIONS = ((Fraction(3, 5), Fraction(4, 5)),
                        (Fraction(5, 13), Fraction(12, 13)),
                        (Fraction(8, 17), Fraction(15, 17)),
                        (Fraction(20, 29), Fraction(21, 29)))


def _to_float_triangle(tri: Triangle) -> Triangle:
    return Triangle(*(point(FLOAT, p.x.as_float(), p.y.as_float())
                      for p in (tri.A, tri.B, tri.C)))


def _rational_triangle(rng: Random) -> Triangle:
    while True:
        coords = [Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                  for _ in range(6)]
        try:
            return Triangle(Point(EXACT.scalar(coords[0]), EXACT.scalar(coords[1])),
                            Point(EXACT.scalar(coords[2]), EXACT.scalar(coords[3])),
                            Point(EXACT.scalar(coords[4]), EXACT.scalar(coords[5])))
        except DegenerateInputError:
            continue


def _rational_isometry_image(tri: Triangle, rng: Random) -> Triangle:
    from .kernel import Isometry
    c, s = rng.choice(_RATIONAL_DIRECTIONS)
    if rng.random() < 0.5:
        s = -s
    if rng.random() < 0.5:
        c, s = s, c
    g = Isometry(EXACT.scalar(c), EXACT.scalar(s),
                 EXACT.scalar(Fraction(rng.randint(-5, 5), 2)),
                 EXACT.scalar(Fraction(rng.randint(-5, 5), 2)),
                 mirror=rng.random() < 0.5)
    return g.apply(tri)


def suite_backend_cross(samples: int, rng: Random) -> CheckResult:
    """Exact and float backends must return the same verdict type on
    rational-coordinate instances covering all three dichotomy outcomes."""
    result = CheckResult("backend-cross-validation", True, samples, 0.0)
    n_congruent = samples // 5
    n_mismatch = samples // 5
    n_supplementary = samples - n_congruent - n_mismatch
    cases = (["supplementary"] * n_supplementary
             + ["congruent"] * n_congruent + ["mismatch"] * n_mismatch)
    for kind in cases:
        if kind == "supplementary":
            spec = sample_rational_two_solution_spec(rng)
            sols = solve_ssa(spec)
            if sols.count != 2:
                result.add_failure({"kind": kind, "count": sols.count})
                continue
            e1, e2 = sols.triangles
        else:
            e1 = _rational_triangle(rng)
            e2 = _rational_isometry_image(e1, rng)
            if kind == "mismatch":
                grow = EXACT.scalar(Fraction(101, 100))
                e2 = Triangle(e2.A, e2.B,
                              Point(e2.A.x + (e2.C.x - e2.A.x) * grow,
                                    e2.A.y + (e2.C.y - e2.A.y) * grow))
        exact_verdict = classify_pair(e1, e2)
        float_verdict = classify_pair(_to_float_triangle(e1),
                                      _to_float_triangle(e2))
        if type(exact_verdict) is not type(float_verdict):
            result.add_failure({
                "kind": kind,
                "exact": type(exact_verdict).__name__,
                "float": type(float_verdict).__name__})
            continue
        expected = {"supplementary": Supplementary, "congruent": Congruent,
                    "mismatch": NotSsaMatched}[kind]
        if not isinstance(exact_verdict, expected):
            result.add_failure({"kind": kind,
                                "verdict": type(exact_verdict).__name__})
    return result


# -- proven forward implications ------------------------------------------------

def suite_forward(scenario: sc.Scenario, branch: sc.Branch, samples: int,
                  rng: Random, **scenario_kwargs) -> CheckResult:
    """Shapes drawn uniformly along one claimed branch of a scenario must
    zero its residual within ``TOL``; ``scenario_kwargs`` go to the residual
    as in the scan."""
    result = CheckResult(f"forward-{branch.name}", True, samples, 0.0)
    lo, hi = branch.free_deg
    for _ in range(samples):
        alpha, beta = branch.point(math.radians(rng.uniform(lo, hi)))
        resid = abs(scenario.residual(alpha, beta, **scenario_kwargs))
        result.worst_residual = max(result.worst_residual, resid)
        if resid > TOL:
            result.add_failure({"alpha_deg": math.degrees(alpha),
                                "beta_deg": math.degrees(beta),
                                "residual": resid})
    return result


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
        _, b_pt, _, _, foot_a, foot_b = sc._incenter_figure(
            math.radians(a_deg), math.radians(b_deg))
        gap = abs(sc.angle_at(foot_b, b_pt, foot_a) - math.pi / 6)
        worst_gap = min(worst_gap, gap)
        if gap <= MIN_GAP:
            result.add_failure({"alpha_deg": a_deg, "beta_deg": b_deg,
                                "angle_gap": gap})
    result.worst_residual = worst_gap
    return result


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
    ``eps`` configures the float backend used by the float-domain suites."""
    if samples < 1:
        raise ValueError("sample count must be at least 1")
    fb = FloatBackend(eps)
    takes_backend = {"ssa-oracle-equivalence", "dichotomy-supplementary-float",
                     "lemma-common-side"}
    master = Random(seed)
    results = []
    for name, divisor, fn in VERIFY_SUITES:
        suite_rng = Random(master.getrandbits(64))
        if backend == "exact" and name == "dichotomy-supplementary-float":
            continue
        n = max(1, samples // divisor)
        if backend == "exact" and name == "dichotomy-supplementary-exact":
            n = max(1, samples // 10)
        if name in takes_backend:
            results.append(fn(n, suite_rng, float_backend=fb))
        else:
            results.append(fn(n, suite_rng))
    return results


def run_scenario_suites(name: str, samples: int, seed: int,
                        **scenario_kwargs) -> List[CheckResult]:
    """One forward check per claimed branch of the scenario, in registry
    order and each on its own seeded stream, plus the off-branch spot set
    for bisector-30.  ``scenario_kwargs`` are the scan's residual
    arguments (the rectangle height ``t``)."""
    scenario = sc.get_scenario(name)
    master = Random(seed)
    results = [suite_forward(scenario, branch, samples,
                             Random(master.getrandbits(64)), **scenario_kwargs)
               for branch in scenario.branches]
    if name == "bisector-30":
        results.append(suite_offset_bisector_spots())
    return results
