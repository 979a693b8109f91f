"""Shape-space scenarios: residuals, traces, audits, and level-set scans."""

import math
import random

import pytest

from planicheck.kernel import (
    Triangle,
    circumcircle,
    incenter_and_bisector_feet,
    internal_bisector_line,
    line_through,
    point,
    reflect,
    signed_distance,
)
from planicheck.scalars import DegenerateInputError, FloatBackend
from planicheck.scenarios import (
    SCENARIOS,
    FeetOffSegmentError,
    ShapeParams,
    UnknownScenarioError,
    bisector30_residual,
    bisector_30,
    get_scenario,
    incenter_equal_segments,
    incenter_residual,
    inscribed_rectangle,
    inscribed_square,
    level_set_scan,
    medial_circumcenter,
    medial_residual,
    rectangle_residual,
    square_residual,
)
from planicheck.suites import run_scenario_suites

STEP_1DEG = math.radians(1.0)


def shape(alpha_deg, beta_deg):
    return ShapeParams.from_degrees(alpha_deg, beta_deg)


def angle_at(v, p, q):
    ux, uy = p[0] - v[0], p[1] - v[1]
    wx, wy = q[0] - v[0], q[1] - v[1]
    c = (ux * wx + uy * wy) / math.sqrt((ux * ux + uy * uy) * (wx * wx + wy * wy))
    return math.acos(max(-1.0, min(1.0, c)))


def random_shapes(n, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        a = rng.uniform(math.radians(2), math.radians(176))
        b = rng.uniform(math.radians(2), math.radians(176))
        if a + b < math.radians(178):
            out.append(ShapeParams(a, b))
    return out


def test_shape_params_validation():
    with pytest.raises(DegenerateInputError):
        ShapeParams(0.0, 1.0)
    with pytest.raises(DegenerateInputError):
        shape(120.0, 60.0)
    assert shape(60.0, 60.0).gamma == pytest.approx(math.pi / 3)


# -- raw-float figures against the float-backend kernel ----------------------

FB = FloatBackend()


def kernel_points(trace, labels):
    return [point(FB, *trace.points[k]) for k in labels]


def gap(p, xy):
    return math.hypot(p.x.as_float() - xy[0], p.y.as_float() - xy[1])


def test_traces_match_kernel_constructions():
    for params in random_shapes(40, 707):
        tr = medial_circumcenter(params)
        t = Triangle(*kernel_points(tr, "ABC"))
        g = circumcircle(Triangle(*kernel_points(tr, "FDE"))).center
        assert gap(g, tr.points["G"]) < 1e-9
        bisector_c = internal_bisector_line(t, "C")
        assert abs(abs(signed_distance(bisector_c, g).as_float())
                   - abs(tr.residual)) < 1e-9

        tr = incenter_equal_segments(params)
        feet = incenter_and_bisector_feet(t)
        assert gap(feet.incenter, tr.points["J"]) < 1e-9
        assert gap(feet.foot_a, tr.points["A1"]) < 1e-9
        assert gap(feet.foot_b, tr.points["B1"]) < 1e-9

        tr = bisector_30(params)
        a_prime = reflect(feet.foot_a, line_through(t.B, feet.foot_b))
        assert gap(a_prime, tr.points["A_prime"]) < 1e-9


# -- medial-circumcenter ------------------------------------------------------

def test_medial_residual_zero_on_both_branches():
    assert abs(medial_residual(math.radians(60), math.radians(60))) < 1e-12
    assert abs(medial_residual(math.radians(50), math.radians(50))) < 1e-12
    # gamma = 60, scalene
    assert abs(medial_residual(math.radians(70), math.radians(50))) < 1e-12


def test_medial_residual_nonzero_off_the_conclusion_set():
    assert abs(medial_residual(math.radians(70), math.radians(60))) > 1e-4


def test_medial_trace_nine_point_oracle():
    for params in random_shapes(40, 101):
        tr = medial_circumcenter(params)
        assert tr.audits["G equals nine-point center"] < 1e-9
        assert tr.audits["G equidistant from midpoints"] < 1e-9


def test_medial_trace_points_are_midpoints():
    tr = medial_circumcenter(shape(55.0, 70.0))
    a, b, c = tr.points["A"], tr.points["B"], tr.points["C"]
    assert tr.points["F"] == pytest.approx(((b[0] + c[0]) / 2, (b[1] + c[1]) / 2))
    assert tr.points["D"] == pytest.approx(((c[0] + a[0]) / 2, (c[1] + a[1]) / 2))
    assert tr.points["E"] == pytest.approx(((a[0] + b[0]) / 2, (a[1] + b[1]) / 2))


def test_medial_flags():
    tr = medial_circumcenter(shape(50.0, 50.0))
    assert tr.flags["isosceles"] and not tr.flags["gamma-60"]
    tr = medial_circumcenter(shape(70.0, 50.0))
    assert tr.flags["gamma-60"] and not tr.flags["isosceles"]


# -- incenter-segments --------------------------------------------------------

def test_incenter_residual_branches():
    assert abs(incenter_residual(math.radians(47), math.radians(47))) < 1e-12
    assert abs(incenter_residual(math.radians(75), math.radians(45))) < 1e-12
    assert abs(incenter_residual(math.radians(80), math.radians(50))) > 1e-4


def test_incenter_trace_exterior_angle_predictions():
    for params in random_shapes(40, 202):
        tr = incenter_equal_segments(params)
        assert tr.angles["CB1J"] == pytest.approx(tr.angles["CB1J predicted"],
                                                  abs=1e-9)
        assert tr.angles["CA1J"] == pytest.approx(tr.angles["CA1J predicted"],
                                                  abs=1e-9)
        for name in ("A1 on BC", "B1 on CA", "J on AA1", "J on BB1"):
            assert tr.audits[name] < 1e-9


# -- square-center / rectangle-center ----------------------------------------

def test_square_residual_branches():
    assert abs(square_residual(math.radians(50), math.radians(40))) < 1e-12
    assert abs(square_residual(math.radians(70), math.radians(70))) < 1e-12
    assert abs(square_residual(math.radians(60), math.radians(40))) > 1e-4


def test_inscribed_square_side_for_half_altitude():
    # AB = 1 and altitude 1/2 (the 45-45 shape): side = h/(1+h) = 1/3,
    # matching c*h/(c+h) after scaling AB = 2, h = 1 to side 2/3
    tr = inscribed_square(shape(45.0, 45.0))
    m, n, p, q = tr.points["M"], tr.points["N"], tr.points["P"], tr.points["Q"]
    assert n[0] - m[0] == pytest.approx(1.0 / 3.0)
    assert p[1] == pytest.approx(1.0 / 3.0)
    assert q == pytest.approx((1.0 / 3.0, 1.0 / 3.0))
    for name, value in tr.audits.items():
        assert value < 1e-12, name


def test_inscribed_square_audits_on_random_shapes():
    for params in random_shapes(40, 303):
        if params.alpha > math.pi / 2 or params.beta > math.pi / 2:
            continue
        tr = inscribed_square(params)
        for name, value in tr.audits.items():
            assert value < 1e-9, name


def test_inscribed_square_feet_domain():
    with pytest.raises(FeetOffSegmentError):
        inscribed_square(shape(100.0, 50.0))
    with pytest.raises(FeetOffSegmentError):
        rectangle_residual(math.radians(100), math.radians(50))
    # boundary right angle stays valid: Q coincides with M on the vertical leg
    tr = inscribed_square(shape(90.0, 45.0))
    assert tr.points["Q"][0] == pytest.approx(tr.points["M"][0])


def test_rectangle_residual_zero_for_every_height_when_isosceles():
    for t in (0.3, 0.5, 0.7):
        assert abs(rectangle_residual(math.radians(65), math.radians(65), t)) \
            < 1e-12


def test_rectangle_residual_validates_height():
    with pytest.raises(DegenerateInputError):
        rectangle_residual(math.radians(50), math.radians(40), 0.0)
    with pytest.raises(DegenerateInputError):
        rectangle_residual(math.radians(50), math.radians(40), 1.0)


def test_rectangle_at_square_height_matches_square_trace():
    params = shape(70.0, 50.0)
    h = math.sin(params.beta) * math.sin(params.alpha) / math.sin(params.gamma)
    t_star = 1.0 / (1.0 + h)
    sq = inscribed_square(params)
    rect = inscribed_rectangle(params, t_star)
    for label in ("M", "N", "P", "Q", "O"):
        assert rect.points[label] == pytest.approx(sq.points[label])
    assert rectangle_residual(params.alpha, params.beta, t_star) == \
        pytest.approx(square_residual(params.alpha, params.beta), abs=1e-15)


# -- bisector-30 --------------------------------------------------------------

def test_bisector30_residual_on_both_branches():
    # gamma = 60 (full angles 70, 50, 60)
    assert abs(bisector30_residual(math.radians(70), math.radians(50))) < 1e-12
    # alpha = 120, beta = 25
    assert abs(bisector30_residual(math.radians(120), math.radians(25))) < 1e-12
    # right isosceles is off both branches
    assert abs(bisector30_residual(math.radians(45), math.radians(45))) > 1e-3


def test_bisector30_angle_value_on_gamma60():
    tr = bisector_30(shape(70.0, 50.0))
    assert tr.angles["BB1A1"] == pytest.approx(math.pi / 6, abs=1e-12)
    assert tr.flags["gamma-60"] and not tr.flags["alpha-120"]


def test_bisector30_proof_angle_predictions_on_hypothesis_locus():
    # the predicted exterior-angle values assume angle BB1A1 = 30 deg, so
    # they are checked where that holds: gamma = 60 and alpha = 120 shapes
    rng = random.Random(404)
    on_set = [shape(a, 120.0 - a) for a in (rng.uniform(1.0, 119.0)
                                            for _ in range(15))]
    on_set += [shape(120.0, b) for b in (rng.uniform(1.0, 59.0)
                                         for _ in range(15))]
    for params in on_set:
        tr = bisector_30(params)
        assert tr.angles["AB1A1"] == pytest.approx(tr.angles["AB1A1 predicted"],
                                                   abs=1e-9)
        assert tr.angles["AA'A1"] == pytest.approx(tr.angles["AA'A1 predicted"],
                                                   abs=1e-9)


def test_bisector30_mirror_audit_everywhere():
    for params in random_shapes(40, 405):
        assert bisector_30(params).audits["A' mirrors A1"] < 1e-9


def test_bisector30_concyclic_audit_on_gamma60_slice():
    tr = bisector_30(shape(80.0, 40.0))
    assert tr.angles["AJB"] == pytest.approx(2 * math.pi / 3, abs=1e-12)
    assert tr.audits["CA1JB1 concyclic"] < 1e-9
    assert "CA1JB1 concyclic" not in bisector_30(shape(80.0, 50.0)).audits


def test_bisector30_equidistance_audit_on_alpha120_slice():
    tr = bisector_30(shape(120.0, 30.0))
    assert tr.audits["B1 equidistant from BA, BC"] < 1e-9
    assert tr.audits["B1 equidistant from BA, AA1"] < 1e-9
    assert "B1 equidistant from BA, BC" not in bisector_30(shape(90.0, 30.0)).audits


# -- symmetry ----------------------------------------------------------------

def test_residuals_are_odd_under_label_swap():
    for f in (medial_residual, incenter_residual, square_residual,
              rectangle_residual):
        for params in random_shapes(25, 505):
            a, b = params.alpha, params.beta
            if f in (square_residual, rectangle_residual) and \
                    (a > math.pi / 2 or b > math.pi / 2):
                continue
            assert f(a, b) == pytest.approx(-f(b, a), abs=1e-12)


def test_bisector30_swap_matches_mirrored_angle():
    for params in random_shapes(25, 606):
        a, b = params.alpha, params.beta
        tr = bisector_30(params)
        mirrored = angle_at(tr.points["A1"], tr.points["A"], tr.points["B1"])
        assert bisector30_residual(b, a) == pytest.approx(
            math.cos(mirrored) - math.cos(math.pi / 6), abs=1e-12)


# -- branch registry ---------------------------------------------------------

def test_branch_points_lie_on_their_lines_inside_the_domain():
    for sc in SCENARIOS.values():
        for branch in sc.branches:
            for free_deg in branch.free_deg:
                a, b = branch.point(math.radians(free_deg))
                assert branch.distance(a, b) < 1e-15, (sc.name, branch.name)
                ShapeParams(a, b)
                assert sc.domain is None or sc.domain(a, b), sc.name


def test_trace_flags_follow_the_branches():
    for sc in SCENARIOS.values():
        tr = sc.trace(shape(45.0, 45.0))
        assert list(tr.flags) == [br.name for br in sc.branches], sc.name


def test_forward_checks_pass_the_scan_kwargs():
    checks = run_scenario_suites("rectangle-center", 20, 1, t=0.3)
    assert [c.name for c in checks] == ["forward-isosceles"]
    assert checks[0].passed
    with pytest.raises(DegenerateInputError):
        run_scenario_suites("rectangle-center", 20, 1, t=1.5)


# -- scans -------------------------------------------------------------------

def test_scan_containment_smoke():
    for name in ("medial-circumcenter", "incenter-segments", "square-center",
                 "bisector-30"):
        report = level_set_scan(name, STEP_1DEG)
        assert report.contained, name
        assert not report.violations
        assert report.asserted
        assert report.roots, name
        assert report.evaluations > 0
        for root in report.roots:
            assert abs(root.residual) <= 1e-9
            assert root.branch is not None
            assert root.distance <= 1e-6


def test_scan_roots_are_sorted():
    report = level_set_scan("bisector-30", STEP_1DEG)
    keys = [(r.alpha, r.beta) for r in report.roots]
    assert keys == sorted(keys)


def test_scan_finds_both_branches():
    report = level_set_scan("square-center", STEP_1DEG)
    branches = {r.branch for r in report.roots}
    assert branches == {"isosceles", "gamma-90"}


def test_rectangle_scan_is_exploratory():
    report = level_set_scan("rectangle-center", math.radians(2.0), t=0.5)
    assert not report.asserted
    # the zero set leaves the isosceles line, which is exactly why this
    # scenario carries no containment assertion
    assert not report.contained


def test_scan_restricted_region_has_no_roots():
    def region(a, b):
        g = math.pi - a - b
        return g > math.radians(61) and abs(a - b) >= math.radians(1)

    report = level_set_scan("medial-circumcenter", STEP_1DEG, region=region)
    assert report.roots == []
    assert report.contained


def test_scan_empty_region_raises():
    with pytest.raises(DegenerateInputError):
        level_set_scan("medial-circumcenter", STEP_1DEG,
                       region=lambda a, b: False)


def test_unknown_scenario():
    with pytest.raises(UnknownScenarioError) as err:
        get_scenario("no-such")
    assert "bisector-30" in str(err.value)
    assert set(SCENARIOS) == {"medial-circumcenter", "incenter-segments",
                              "square-center", "rectangle-center",
                              "bisector-30"}


def test_isosceles_tie_break_on_branch_crossing():
    # at (60, 60) both branches meet; attribution must prefer isosceles
    report = level_set_scan("incenter-segments", STEP_1DEG)
    near_cross = [r for r in report.roots
                  if abs(r.alpha - math.pi / 3) < 1e-3
                  and abs(r.beta - math.pi / 3) < 1e-3]
    assert near_cross
    assert all(r.branch == "isosceles" for r in near_cross)
