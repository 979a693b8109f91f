"""Shape-space scenarios: residuals, figure audits, and level-set scans.

Each residual is a row function of straight-line binary64 code: one alpha
and a list of betas in, one value per node out.  The tests read one node as
a row of one (``node``), and the residuals they plant, written over one
node, go into the registry through ``row_function``.
``kernel_constructions`` keeps the figure compositions the residuals were
written from: the labelled points of each scenario figure, and each
residual composed from them.  The residuals must equal those compositions
bit for bit, row by row and node by node, and the compositions' figures are
audited with constructions on the geometry kernel and incidence tests of the
public kernel API, never with code of ``planicheck.scenarios`` itself.  The
scan tests also hold the scan to the call order that the benchmark's tracer
splits grid from bisection time by, and to ``scan_reference``, a scan that
holds the whole grid before it bisects; those tests pin the scan to one
chunk, as they watch residual calls that a worker process would make out of
their sight.  A scan cut into chunks must equal the one-chunk scan bit for
bit.
"""

import dataclasses
import functools
import math
import os
import random
import tracemalloc
from itertools import pairwise

import pytest

import kernel_constructions
from conftest import assert_no_child_left, pin_cpus
from kernel_constructions import (
    REFERENCE_RESIDUALS,
    circumcircle,
    incenter_and_bisector_feet,
    incenter_figure,
    inscribed_figure,
    internal_bisector_line,
    line_through,
    medial_figure,
    orient,
    reflect,
    signed_distance,
)
from planicheck import cli
from planicheck.checks import balanced_parts
from planicheck.kernel import (
    Triangle,
    angle_cos,
    concyclic,
    concyclicity_determinant,
    point,
    squared_distance,
)
from planicheck.scalars import DegenerateInputError, FloatBackend
from planicheck.scenarios import (
    ALPHA_120,
    GAMMA_60,
    ISOSCELES,
    SCENARIOS,
    FeetOffSegmentError,
    Scenario,
    UnknownScenarioError,
    _grid_rows,
    bisector30_residual,
    bisector_feet,
    get_scenario,
    incenter_residual,
    level_set_scan,
    medial_residual,
    rectangle_residual,
    run_scenario_suites,
    square_residual,
)
from scan_reference import reference_scan

STEP_1DEG = math.radians(1.0)
FB = FloatBackend()


def shape(alpha_deg, beta_deg):
    return math.radians(alpha_deg), math.radians(beta_deg)


def node(residual, alpha, beta, *args):
    """A row residual's value at one node: its row of one."""
    return residual(alpha, [beta], *args)[0]


def row_function(node_residual):
    """The row residual, as the registry holds it, of a residual written
    over one node."""
    def residual(alpha, betas):
        return [node_residual(alpha, beta) for beta in betas]
    return residual


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
            out.append((a, b))
    return out


def kpt(xy):
    return point(FB, *xy)


def gap(p, xy):
    x, y = p.as_floats()
    return math.hypot(x - xy[0], y - xy[1])


def off_line(p, q, x):
    """Twice the area of pqx: zero iff x lies on line pq."""
    return abs(orient(kpt(p), kpt(q), kpt(x)))


def on_branches(name, alpha, beta, tol=1e-9):
    return {br.name for br in get_scenario(name).branches
            if br.distance(alpha, beta) <= tol}


# -- figures against the float-backend kernel --------------------------------

def test_traces_match_kernel_constructions():
    # every reference figure a residual is composed from, rebuilt on the
    # kernel
    for alpha, beta in random_shapes(40, 707):
        a_pt, b_pt, c_pt, f, d, e, g = medial_figure(alpha, beta)
        t = Triangle(kpt(a_pt), kpt(b_pt), kpt(c_pt))
        g_kernel = circumcircle(Triangle(kpt(f), kpt(d), kpt(e))).center
        assert gap(g_kernel, g) < 1e-9
        bisector_c = internal_bisector_line(t, "C")
        assert abs(abs(signed_distance(bisector_c, g_kernel))
                   - abs(node(medial_residual, alpha, beta))) < 1e-9

        a_pt, b_pt, c_pt, j, foot_a, foot_b = incenter_figure(alpha, beta)
        assert gap(t.C, c_pt) == 0.0
        feet = incenter_and_bisector_feet(t)
        assert gap(feet.incenter, j) < 1e-9
        assert gap(feet.foot_a, foot_a) < 1e-9
        assert gap(feet.foot_b, foot_b) < 1e-9
        assert abs((squared_distance(feet.incenter, feet.foot_a)
                    - squared_distance(feet.incenter, feet.foot_b))
                   - node(incenter_residual, alpha, beta)) < 1e-9
        cos_b1 = angle_cos(feet.foot_b, t.B, feet.foot_a)
        assert abs(cos_b1 - math.cos(math.pi / 6)
                   - node(bisector30_residual, alpha, beta)) < 1e-9


# -- straight-line residuals against their reference compositions -------------

RESIDUALS = {"medial-circumcenter": medial_residual,
             "incenter-segments": incenter_residual,
             "square-center": square_residual,
             "rectangle-center": rectangle_residual,
             "bisector-30": bisector30_residual}


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raises."""
    try:
        return fn(*args)
    except (DegenerateInputError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def guard_inputs():
    """Every node of the 1 degree grid, past the angle sum and the square
    domain too, and 2,000 seeded shapes."""
    grid = [shape(i, j) for i in range(1, 180) for j in range(1, 180)]
    return grid + random_shapes(2000, 909)


@pytest.mark.parametrize("name", sorted(RESIDUALS))
def test_residuals_equal_their_reference_compositions_bit_for_bit(name):
    # the pinned bodies round to 12 digits, so only == sees a reordered
    # operation.  Each row of the scan's 1 degree grid, continued past the
    # square domain, equals the reference node by node or raises what its
    # first raising node raises; a row of one through each guard input gives
    # that node's value, or raises its error and message
    fn, ref = RESIDUALS[name], REFERENCE_RESIDUALS[name]
    heights = ((), (0.25,), (0.5,), (0.9,)) if name == "rectangle-center" \
        else ((),)
    col, rows = _grid_rows(STEP_1DEG, math.pi)
    raised = 0
    for extra in heights:
        for alpha, n in rows:
            want = [outcome(ref, alpha, beta, *extra) for beta in col[:n]]
            errors = [w for w in want if isinstance(w, tuple)]
            got = outcome(fn, alpha, col[:n], *extra)
            assert got == (errors[0] if errors else want), (name, alpha, extra)
        for alpha, beta in guard_inputs():
            want = outcome(ref, alpha, beta, *extra)
            got = outcome(node, fn, alpha, beta, *extra)
            assert got == want, (name, alpha, beta, extra)
            raised += isinstance(want, tuple)
    if name in ("square-center", "rectangle-center"):
        assert raised > 0  # the grid reaches past the square domain
    for t in (0.0, 1.0, 1.5):
        if name == "rectangle-center":
            assert outcome(node, fn, 0.8, 0.6, t) \
                == outcome(ref, 0.8, 0.6, t) \
                == (DegenerateInputError,
                    "height fraction t must lie in (0, 1)")


def test_the_spot_checks_feet_equal_the_reference_figure_bit_for_bit():
    # the bisector-30 spot checks read C and the feet from bisector_feet,
    # which keeps its own copy of the code of the residuals' loops
    def spot_points(alpha, beta):
        cx, cy, _, _, *feet = bisector_feet(alpha, beta)
        return cx, cy, *feet

    def reference_points(alpha, beta):
        _, _, c_pt, _, foot_a, foot_b = incenter_figure(alpha, beta)
        return *c_pt, *foot_a, *foot_b

    for alpha, beta in guard_inputs():
        assert outcome(spot_points, alpha, beta) \
            == outcome(reference_points, alpha, beta), (alpha, beta)


def pow_d2(p, q):
    """``d2`` squaring with libm's pow, which is not correctly rounded."""
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2


@pytest.mark.parametrize("name", ["medial-circumcenter", "incenter-segments",
                                  "bisector-30", "spot-check feet"])
def test_the_bit_for_bit_checks_see_a_pow_square_in_the_reference(
        monkeypatch, name):
    # every figure that reads d2 feeds one of these checks; with pow's last
    # bit in d2, the reference no longer equals the products of the code
    monkeypatch.setattr(kernel_constructions, "d2", pow_d2)
    check = (test_the_spot_checks_feet_equal_the_reference_figure_bit_for_bit
             if name == "spot-check feet" else functools.partial(
                 test_residuals_equal_their_reference_compositions_bit_for_bit,
                 name))
    with pytest.raises(AssertionError):
        check()


# -- medial-circumcenter ------------------------------------------------------

def test_medial_residual_zero_on_both_branches():
    assert abs(node(medial_residual, *shape(60, 60))) < 1e-12
    assert abs(node(medial_residual, *shape(50, 50))) < 1e-12
    # gamma = 60, scalene
    assert abs(node(medial_residual, *shape(70, 50))) < 1e-12


def test_medial_residual_nonzero_off_the_conclusion_set():
    assert abs(node(medial_residual, *shape(70, 60))) > 1e-4


def test_medial_trace_nine_point_oracle():
    # G is the nine-point center: the midpoint of the circumcenter O and the
    # orthocenter H = A + B + C - 2 O of ABC
    for alpha, beta in random_shapes(40, 101):
        a_pt, b_pt, c_pt, f, d, e, g = medial_figure(alpha, beta)
        o = circumcircle(Triangle(kpt(a_pt), kpt(b_pt), kpt(c_pt))).center
        ox, oy = o.as_floats()
        hx = a_pt[0] + b_pt[0] + c_pt[0] - 2 * ox
        hy = a_pt[1] + b_pt[1] + c_pt[1] - 2 * oy
        assert math.hypot(g[0] - (ox + hx) / 2, g[1] - (oy + hy) / 2) < 1e-9
        gk = kpt(g)
        r2 = squared_distance(gk, kpt(e))
        for m in (f, d):
            assert abs(squared_distance(gk, kpt(m)) - r2) < 1e-9


def test_medial_trace_points_are_midpoints():
    a, b, c, f, d, e, _ = medial_figure(*shape(55.0, 70.0))
    assert f == pytest.approx(((b[0] + c[0]) / 2, (b[1] + c[1]) / 2))
    assert d == pytest.approx(((c[0] + a[0]) / 2, (c[1] + a[1]) / 2))
    assert e == pytest.approx(((a[0] + b[0]) / 2, (a[1] + b[1]) / 2))


def test_medial_flags():
    # the branch defects the scan attributes roots by
    name = "medial-circumcenter"
    assert on_branches(name, *shape(50.0, 50.0)) == {"isosceles"}
    assert on_branches(name, *shape(70.0, 50.0)) == {"gamma-60"}
    assert on_branches(name, *shape(60.0, 60.0)) == {"isosceles", "gamma-60"}
    assert on_branches(name, *shape(70.0, 60.0)) == set()


# -- incenter-segments --------------------------------------------------------

def test_incenter_residual_branches():
    assert abs(node(incenter_residual, *shape(47, 47))) < 1e-12
    assert abs(node(incenter_residual, *shape(75, 45))) < 1e-12
    assert abs(node(incenter_residual, *shape(80, 50))) > 1e-4


def test_incenter_trace_exterior_angle_predictions():
    # the exterior angles at the feet satisfy angle(C B1 J) = alpha + beta/2
    # and angle(C A1 J) = beta + alpha/2 identically
    for alpha, beta in random_shapes(40, 202):
        a_pt, b_pt, c_pt, j, foot_a, foot_b = incenter_figure(alpha, beta)
        assert angle_at(foot_b, c_pt, j) == pytest.approx(alpha + beta / 2,
                                                          abs=1e-9)
        assert angle_at(foot_a, c_pt, j) == pytest.approx(beta + alpha / 2,
                                                          abs=1e-9)
        # feet on their sides, J on both bisector segments
        assert off_line(b_pt, c_pt, foot_a) < 1e-9
        assert off_line(a_pt, c_pt, foot_b) < 1e-9
        assert off_line(a_pt, foot_a, j) < 1e-9
        assert off_line(b_pt, foot_b, j) < 1e-9


# -- square-center / rectangle-center ----------------------------------------

def test_square_residual_branches():
    assert abs(node(square_residual, *shape(50, 40))) < 1e-12
    assert abs(node(square_residual, *shape(70, 70))) < 1e-12
    assert abs(node(square_residual, *shape(60, 40))) > 1e-4


def inscribed_audits(alpha, beta, t=None):
    """Incidence defects of the inscribed figure: M, N on AB, Q on CA,
    P on CB, O the midpoint of both diagonals, and the width 1 - t of the
    rectangle (for the square, width equal to height)."""
    c_pt, m, n, p, q, o = inscribed_figure(alpha, beta, t)
    a_pt, b_pt = (0.0, 0.0), (1.0, 0.0)
    width = n[0] - m[0]
    return {
        "M on AB": off_line(a_pt, b_pt, m),
        "N on AB": off_line(a_pt, b_pt, n),
        "Q on CA": off_line(a_pt, c_pt, q),
        "P on CB": off_line(b_pt, c_pt, p),
        "diagonals share midpoint O": gap(kpt(o), ((n[0] + q[0]) / 2,
                                                   (n[1] + q[1]) / 2))
        + gap(kpt(o), ((m[0] + p[0]) / 2, (m[1] + p[1]) / 2)),
        "width": abs(width - (p[1] if t is None else 1.0 - t)),
    }


def test_inscribed_square_side_for_half_altitude():
    # AB = 1 and altitude 1/2 (the 45-45 shape): side = h/(1+h) = 1/3,
    # matching c*h/(c+h) after scaling AB = 2, h = 1 to side 2/3
    _, m, n, p, q, _ = inscribed_figure(*shape(45.0, 45.0))
    assert n[0] - m[0] == pytest.approx(1.0 / 3.0)
    assert p[1] == pytest.approx(1.0 / 3.0)
    assert q == pytest.approx((1.0 / 3.0, 1.0 / 3.0))
    for name, value in inscribed_audits(*shape(45.0, 45.0)).items():
        assert value < 1e-12, name


def test_inscribed_square_audits_on_random_shapes():
    for alpha, beta in random_shapes(40, 303):
        if alpha > math.pi / 2 or beta > math.pi / 2:
            continue
        for name, value in inscribed_audits(alpha, beta).items():
            assert value < 1e-9, name
        for name, value in inscribed_audits(alpha, beta, 0.3).items():
            assert value < 1e-9, name


def test_inscribed_square_feet_domain():
    with pytest.raises(FeetOffSegmentError):
        inscribed_figure(*shape(100.0, 50.0))
    with pytest.raises(FeetOffSegmentError):
        node(square_residual, *shape(100.0, 50.0))
    with pytest.raises(FeetOffSegmentError):
        node(rectangle_residual, *shape(100, 50))
    # boundary right angle stays valid: Q coincides with M on the vertical leg
    _, m, _, _, q, _ = inscribed_figure(*shape(90.0, 45.0))
    assert q[0] == pytest.approx(m[0])


def test_rectangle_residual_zero_for_every_height_when_isosceles():
    for t in (0.3, 0.5, 0.7):
        assert abs(node(rectangle_residual, *shape(65, 65), t)) < 1e-12


def test_rectangle_residual_validates_height():
    with pytest.raises(DegenerateInputError):
        node(rectangle_residual, *shape(50, 40), 0.0)
    with pytest.raises(DegenerateInputError):
        node(rectangle_residual, *shape(50, 40), 1.0)


def test_rectangle_at_square_height_matches_square_trace():
    alpha, beta = shape(70.0, 50.0)
    h = math.sin(beta) * math.sin(alpha) / math.sin(math.pi - alpha - beta)
    t_star = 1.0 / (1.0 + h)
    square = inscribed_figure(alpha, beta)
    rect = inscribed_figure(alpha, beta, t_star)
    for sq_pt, rect_pt in zip(square, rect):
        assert rect_pt == pytest.approx(sq_pt)
    assert node(rectangle_residual, alpha, beta, t_star) == \
        pytest.approx(node(square_residual, alpha, beta), abs=1e-15)


# -- bisector-30 --------------------------------------------------------------

def test_bisector30_residual_on_both_branches():
    # gamma = 60 (full angles 70, 50, 60)
    assert abs(node(bisector30_residual, *shape(70, 50))) < 1e-12
    # alpha = 120, beta = 25
    assert abs(node(bisector30_residual, *shape(120, 25))) < 1e-12
    # right isosceles is off both branches
    assert abs(node(bisector30_residual, *shape(45, 45))) > 1e-3


def mirror_of_a1(alpha, beta):
    """The incenter figure and A', the mirror of A1 across line B B1."""
    fig = incenter_figure(alpha, beta)
    _, b_pt, _, _, foot_a, foot_b = fig
    a_mirror = reflect(kpt(foot_a), line_through(kpt(b_pt), kpt(foot_b)))
    return fig, a_mirror.as_floats()


def test_bisector30_angle_value_on_gamma60():
    alpha, beta = shape(70.0, 50.0)
    _, b_pt, _, _, foot_a, foot_b = incenter_figure(alpha, beta)
    assert angle_at(foot_b, b_pt, foot_a) == pytest.approx(math.pi / 6,
                                                           abs=1e-12)
    assert on_branches("bisector-30", alpha, beta) == {"gamma-60"}


def test_bisector30_proof_angle_predictions_on_hypothesis_locus():
    # the predicted exterior-angle values assume angle BB1A1 = 30 deg, so
    # they are checked where that holds: gamma = 60 and alpha = 120 shapes
    rng = random.Random(404)
    on_set = [shape(a, 120.0 - a) for a in (rng.uniform(1.0, 119.0)
                                            for _ in range(15))]
    on_set += [shape(120.0, b) for b in (rng.uniform(1.0, 59.0)
                                         for _ in range(15))]
    for alpha, beta in on_set:
        (a_pt, _, _, _, foot_a, foot_b), a_mirror = mirror_of_a1(alpha, beta)
        half_g = (math.pi - alpha - beta) / 2
        assert angle_at(foot_b, a_pt, foot_a) == pytest.approx(
            2 * math.pi / 3 + half_g - alpha / 2, abs=1e-9)
        assert angle_at(a_mirror, a_pt, foot_a) == pytest.approx(
            math.pi / 2 + beta / 2, abs=1e-9)


def test_bisector30_mirror_audit_everywhere():
    # B B1 bisects the angle at B, so A' lies on line BA, as far from B1
    # as A1 is
    for alpha, beta in random_shapes(40, 405):
        (a_pt, b_pt, _, _, foot_a, foot_b), a_mirror = mirror_of_a1(alpha, beta)
        b1 = kpt(foot_b)
        assert abs(squared_distance(b1, kpt(a_mirror))
                   - squared_distance(b1, kpt(foot_a))) < 1e-9
        assert off_line(b_pt, a_pt, a_mirror) < 1e-9


def test_bisector30_concyclic_audit_on_gamma60_slice():
    # on gamma = 60 the angle AJB is 90 + gamma/2 = 120 deg, and C, A1, J,
    # B1 lie on one circle; off the slice they do not
    _, _, c_pt, j, foot_a, foot_b = fig = incenter_figure(*shape(80.0, 40.0))
    assert angle_at(j, fig[0], fig[1]) == pytest.approx(2 * math.pi / 3,
                                                        abs=1e-12)
    pts = [kpt(xy) for xy in (c_pt, foot_a, j, foot_b)]
    assert abs(concyclicity_determinant(*pts)) < 1e-9
    assert concyclic(*pts)[0]
    _, _, c_pt, j, foot_a, foot_b = incenter_figure(*shape(80.0, 50.0))
    is_cyc, _ = concyclic(*(kpt(xy) for xy in (c_pt, foot_a, j, foot_b)))
    assert not is_cyc


def test_bisector30_equidistance_audit_on_alpha120_slice():
    def distances(alpha_deg, beta_deg):
        a_pt, b_pt, c_pt, _, foot_a, foot_b = incenter_figure(
            *shape(alpha_deg, beta_deg))
        b1 = kpt(foot_b)
        return [abs(signed_distance(line_through(kpt(p), kpt(q)), b1))
                for p, q in ((b_pt, a_pt), (b_pt, c_pt), (a_pt, foot_a))]

    # B1 is on the bisector from B, so it is equidistant from BA and BC; on
    # alpha = 120, AA1 bisects the exterior angle at A too
    d_ba, d_bc, d_aa1 = distances(120.0, 30.0)
    assert abs(d_ba - d_bc) < 1e-9
    assert abs(d_ba - d_aa1) < 1e-9
    assert ALPHA_120.distance(*shape(120.0, 30.0)) < 1e-12
    d_ba, d_bc, d_aa1 = distances(90.0, 30.0)
    assert abs(d_ba - d_bc) < 1e-9
    assert abs(d_ba - d_aa1) > 1e-3


# -- symmetry ----------------------------------------------------------------

def test_residuals_are_odd_under_label_swap():
    for f in (medial_residual, incenter_residual, square_residual,
              rectangle_residual):
        for a, b in random_shapes(25, 505):
            if f in (square_residual, rectangle_residual) and \
                    (a > math.pi / 2 or b > math.pi / 2):
                continue
            assert node(f, a, b) == pytest.approx(-node(f, b, a),
                                                  abs=1e-12)


def test_bisector30_swap_matches_mirrored_angle():
    for a, b in random_shapes(25, 606):
        a_pt, _, _, _, foot_a, foot_b = incenter_figure(a, b)
        mirrored = angle_at(foot_a, a_pt, foot_b)
        assert node(bisector30_residual, b, a) == pytest.approx(
            math.cos(mirrored) - math.cos(math.pi / 6), abs=1e-12)


# -- branch registry ---------------------------------------------------------

def test_branch_points_lie_on_their_lines_inside_the_domain():
    for sc in SCENARIOS.values():
        for branch in sc.branches:
            for free_deg in branch.free_deg:
                a, b = branch.point(math.radians(free_deg))
                assert branch.distance(a, b) < 1e-15, (sc.name, branch.name)
                assert a > 0 and b > 0 and a + b < math.pi, sc.name
                assert max(a, b) <= sc.max_angle, sc.name


def test_forward_checks_pass_the_scan_kwargs():
    checks = run_scenario_suites("rectangle-center", 20, 1, t=0.3)
    assert [c.name for c in checks] == ["forward-isosceles"]
    assert checks[0].passed
    # an out-of-range height rejects every sample: a failed check, not a raise
    [check] = run_scenario_suites("rectangle-center", 20, 1, t=1.5)
    assert check.name == "forward-isosceles" and not check.passed
    assert len(check.witnesses) == 5
    assert all(w["error"] == "height fraction t must lie in (0, 1)"
               for w in check.witnesses)


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


def scan_with_calls(monkeypatch, scan, name, step, **kwargs):
    """``scan``'s report and the (alpha, betas) of each residual call."""
    original = SCENARIOS[name]
    calls = []

    def counting_residual(a, betas, **kw):
        # the tracer orders calls as (alpha, betas) tuples, which a tuple of
        # betas would break on a tie in alpha
        assert type(betas) is list
        calls.append((a, betas))
        assert kw == kwargs
        return original.residual(a, betas, **kw)

    monkeypatch.setitem(SCENARIOS, name, dataclasses.replace(
        original, residual=counting_residual))
    report = scan(name, step, **kwargs)
    monkeypatch.setitem(SCENARIOS, name, original)
    return report, calls


def nodes_of(calls):
    """The (alpha, beta) of each node of the row calls ``calls``, in
    order."""
    return [(a, b) for a, betas in calls for b in betas]


@pytest.mark.parametrize("name,kwargs", [
    *((name, {}) for name in sorted(SCENARIOS)),
    ("rectangle-center", {"t": 0.3})], ids=str)
@pytest.mark.usefixtures("one_chunk")
def test_scan_call_order_splits_grid_from_bisection(monkeypatch, name, kwargs):
    # the benchmark's tracer swaps a counting residual into the registry
    # and tells grid from bisection calls by their order: the grid comes
    # first, in strictly increasing (alpha, betas), and whatever breaks that
    # order is bisection
    bound = SCENARIOS[name].max_angle
    plain = level_set_scan(name, STEP_1DEG, **kwargs)
    counted, calls = scan_with_calls(monkeypatch, level_set_scan, name,
                                     STEP_1DEG, **kwargs)

    assert counted == plain
    assert len(nodes_of(calls)) == plain.evaluations
    n_grid = 1
    while n_grid < len(calls) and calls[n_grid] > calls[n_grid - 1]:
        n_grid += 1
    # every node of the 1 degree grid (gamma >= 1 deg, above the floor)
    # within the angle bound, each once, before the first bisection call
    nodes = sorted(shape(i, j) for i in range(1, 180) for j in range(1, 180)
                   if i + j < 180 and max(shape(i, j)) <= bound)
    assert nodes_of(calls[:n_grid]) == nodes
    assert len(calls) > n_grid  # the scan bisected after the grid


@pytest.mark.parametrize("name,kwargs", [
    *((name, {}) for name in sorted(SCENARIOS)),
    ("rectangle-center", {"t": 0.3})], ids=str)
@pytest.mark.usefixtures("one_chunk")
def test_a_one_chunk_scan_calls_the_residual_once_per_grid_row(monkeypatch,
                                                               name, kwargs):
    # the grid pass makes one call per row, on the row's alpha and its
    # prefix of the beta column; each bisection midpoint is a row of one
    report, calls = scan_with_calls(monkeypatch, level_set_scan, name,
                                    STEP_1DEG, **kwargs)
    col, rows = _grid_rows(STEP_1DEG, SCENARIOS[name].max_angle)
    grid, bisection = calls[:len(rows)], calls[len(rows):]
    assert grid == [(a, col[:n]) for a, n in rows]
    assert bisection and all(len(betas) == 1 for _, betas in bisection)
    assert report.evaluations == sum(n for _, n in rows) + len(bisection)


def assert_scan_matches_reference(monkeypatch, name, step, **kwargs):
    streamed, calls = scan_with_calls(monkeypatch, level_set_scan, name,
                                      step, **kwargs)
    held, reference_calls = scan_with_calls(monkeypatch, reference_scan,
                                            name, step, **kwargs)
    # repr compares every float bit for bit, and a NaN equal to itself; the
    # roots go one by one, so that a mismatch reports its first index
    for field in ("roots", "violations"):
        assert list(map(repr, getattr(streamed, field))) \
            == list(map(repr, getattr(held, field)))
    assert repr(streamed) == repr(held)
    assert nodes_of(calls) == nodes_of(reference_calls)
    return streamed


@pytest.mark.parametrize("name,kwargs,step_deg", [
    *((name, {}, step) for name in sorted(SCENARIOS) for step in (1, 2, 3)),
    # the 90 degree bound: at 1 and 2 degrees a node lies exactly on pi/2
    # and inside it, at 1.2 degrees node 75 is 1 ulp below and inside it, at
    # 3 degrees node 30 is 1 ulp above and outside it
    ("square-center", {}, 1.2), ("rectangle-center", {}, 1.2),
    ("rectangle-center", {"t": 0.3}, 1)], ids=str)
@pytest.mark.usefixtures("one_chunk")
def test_streamed_scan_matches_the_whole_grid_reference(monkeypatch, name,
                                                         kwargs, step_deg):
    assert_scan_matches_reference(monkeypatch, name, math.radians(step_deg),
                                  **kwargs)


_PLANTED_NODE = (40 * STEP_1DEG, 20 * STEP_1DEG)


def planted_node(alpha, beta):
    """(alpha - beta) * g * 1e30 on the 1 degree grid, NaN past beta = 2.09.

    alpha - beta is exactly 0.0 on the diagonal nodes, which the scan notes
    without bisecting.  g is the squared distance to the node (40, 20) less
    (1e-14)^2, negative only at that node, so its four edges all bisect to
    points 1e-14 from it that share one dedupe key; the 1e30 keeps |f| above
    the refinement tolerance until the bracket is spent.  The NaN nodes
    count as positive against the negative nodes next to them."""
    if beta > 2.09:
        return math.nan
    pa, pb = _PLANTED_NODE
    g = (alpha - pa) ** 2 + (beta - pb) ** 2 - 1e-28
    return (alpha - beta) * g * 1e30


@pytest.mark.usefixtures("one_chunk")
def test_streamed_scan_matches_the_reference_on_zeros_nans_and_duplicates(
        monkeypatch):
    monkeypatch.setitem(SCENARIOS, "planted", PLANTED["planted"])
    report = assert_scan_matches_reference(monkeypatch, "planted", STEP_1DEG)

    zeros = [r for r in report.roots if r.residual == 0.0]
    assert [(r.alpha, r.beta) for r in zeros] == [
        shape(i, i) for i in range(1, 90)]
    near_node = [r for r in report.roots
                 if math.dist((r.alpha, r.beta), _PLANTED_NODE) < 1e-12]
    # four edges refine into the node's key and the first in walk order,
    # from the node above, is kept
    assert len(near_node) == 1
    assert near_node[0].alpha < _PLANTED_NODE[0]
    assert near_node[0].beta == _PLANTED_NODE[1]
    nan_edges = [r for r in report.roots if 2.07 < r.beta < 2.1]
    assert nan_edges and all(r.residual < 0 for r in nan_edges)


def row_end_node(alpha, beta):
    """alpha + beta - 178.5 deg, negative on all but the last node of each
    row; its sign is turned at beta < 45.5 deg on rows 55 to 75, and it is
    NaN at beta 40 and 50 deg on rows 61 to 69, so that on those rows the
    flip at 45.5 deg lies between NaN nodes, which count as positive."""
    a, b = math.degrees(alpha), math.degrees(beta)
    if 60.5 < a < 69.5 and min(abs(b - 40), abs(b - 50)) < 0.25:
        return math.nan
    r = a + b - 178.5
    return -r if 54.5 < a < 75.5 and b < 45.5 else r


@pytest.mark.usefixtures("one_chunk")
def test_streamed_scan_matches_the_reference_around_nans_and_row_ends(
        monkeypatch):
    # row i has 179 - i nodes, so each row below is one node shorter, and
    # the sign flips into the last node of every row along it and down from
    # it
    monkeypatch.setitem(SCENARIOS, "row-ends", PLANTED["row-ends"])
    report = assert_scan_matches_reference(monkeypatch, "row-ends", STEP_1DEG)

    ends = [(math.degrees(r.alpha), math.degrees(r.beta)) for r in report.roots
            if abs(math.degrees(r.alpha + r.beta) - 178.5) < 1e-6]
    along = [a for a, b in ends if abs(a - round(a)) < 1e-9]
    down = [b for a, b in ends if abs(b - round(b)) < 1e-9]
    # rows 1 to 177 have a last node with a neighbour before it and a row
    # below, whose last node is the one under that neighbour
    assert len(along) == len(down) == 177 and len(ends) == 354
    # the flip at beta 45.5 deg is found on every turned row, between the
    # NaN nodes too
    cut = {round(math.degrees(r.alpha), 9) for r in report.roots
           if abs(math.degrees(r.beta) - 45.5) < 1e-6 and r.alpha < 1.5}
    assert cut == set(range(55, 76))
    # an edge into a NaN node refines to where the NaN band begins; one out
    # of a NaN node keeps its first midpoint, as NaN is never the least |f|
    nan_edges = {(round(math.degrees(r.alpha), 9),
                  round(math.degrees(r.beta), 9)) for r in report.roots
                 if 60 < math.degrees(r.alpha) < 70
                 and 49 < math.degrees(r.beta) < 51}
    assert nan_edges == {(60.5, 50), (69.5, 50),
                         *((i, 49.75) for i in range(61, 70)),
                         *((i, 50.5) for i in range(61, 70))}


PLANTED = {sc.name: sc for sc in (
    Scenario("planted", row_function(planted_node), (ISOSCELES,),
             asserted=False),
    Scenario("row-ends", row_function(row_end_node), (ISOSCELES,),
             asserted=False))}


def boundary_marks(name, step, parts, **kwargs):
    """The zero nodes and flips down that the scan, cut into ``parts``
    chunks, finds on the last row of every chunk but the last."""
    sc = SCENARIOS[name]
    f = functools.partial(sc.residual, **kwargs)
    col, rows = _grid_rows(step, sc.max_angle)
    chunks = balanced_parts(rows, [n for _, n in rows], parts)
    assert len(chunks) == parts
    marks = 0
    for chunk, following in pairwise(chunks):
        (a, n), (a_below, n_below) = chunk[-1], following[0]
        row = f(a, col[:n])
        below = f(a_below, col[:n_below])
        marks += row.count(0.0)   # never a NaN
        marks += sum(u != 0.0 and v != 0.0 and (u < 0) != (v < 0)
                     for u, v in zip(row, below))
    return marks


@pytest.mark.parametrize("parts", [2, 3, 4])
@pytest.mark.parametrize("name,kwargs,step_deg", [
    *((name, {}, step) for name in sorted(SCENARIOS) for step in (1, 2, 3)),
    ("square-center", {}, 1.2), ("rectangle-center", {}, 1.2),
    ("rectangle-center", {"t": 0.3}, 1),
    ("planted", {}, 1), ("row-ends", {}, 1)], ids=str)
def test_a_chunked_scan_equals_the_one_chunk_scan(monkeypatch, name, kwargs,
                                                  step_deg, parts):
    if name in PLANTED:
        monkeypatch.setitem(SCENARIOS, name, PLANTED[name])
    step = math.radians(step_deg)
    pin_cpus(monkeypatch, 1)
    whole = level_set_scan(name, step, **kwargs)
    pin_cpus(monkeypatch, parts)
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    chunked = level_set_scan(name, step, **kwargs)
    assert len(forks) == parts - 1   # one worker per chunk after the first
    assert chunked.evaluations == whole.evaluations
    assert list(map(repr, chunked.roots)) == list(map(repr, whole.roots))
    assert repr(chunked) == repr(whole)


@pytest.mark.parametrize("parts", [2, 3, 4])
def test_the_chunks_meet_on_zero_nodes_and_flips_down(monkeypatch, parts):
    # at 1 degree, each scan above has chunks that meet on a row whose zero
    # node or flip down is queued by the chunk that ends there, whose walk
    # of its last row against the next chunk's first row the dedupe must
    # order as one serial pass does
    for name, sc in PLANTED.items():
        monkeypatch.setitem(SCENARIOS, name, sc)
    for name in SCENARIOS:
        assert boundary_marks(name, STEP_1DEG, parts) > 0, name
    assert boundary_marks("rectangle-center", STEP_1DEG, parts, t=0.3) > 0


@pytest.mark.parametrize("parts", [2, 3, 4])
def test_a_chunked_scan_keeps_the_serial_root_of_each_key(monkeypatch,
                                                          parts):
    # a negative node, as in planted_node, on each side of every cut:
    # its four edges refine into one key, and the scan keeps the root of the
    # edge down from the node above, which one serial pass queues first,
    # though another process queues the other edges
    _, rows = _grid_rows(STEP_1DEG, math.pi)
    chunks = balanced_parts(rows, [n for _, n in rows], parts)
    nodes = [*((chunk[-1][0], 5 * STEP_1DEG) for chunk in chunks[:-1]),
             *((chunk[0][0], 10 * STEP_1DEG) for chunk in chunks[1:])]

    def cut_node(alpha, beta):
        g = min((alpha - pa) ** 2 + (beta - pb) ** 2
                for pa, pb in nodes) - 1e-28
        return (alpha - beta) * g * 1e30

    monkeypatch.setitem(SCENARIOS, "cuts", Scenario(
        "cuts", row_function(cut_node), (ISOSCELES,), asserted=False))
    pin_cpus(monkeypatch, 1)
    whole = level_set_scan("cuts", STEP_1DEG)
    pin_cpus(monkeypatch, parts)
    chunked = level_set_scan("cuts", STEP_1DEG)
    assert repr(chunked) == repr(whole)
    for pa, pb in nodes:
        [near] = [r for r in chunked.roots
                  if math.dist((r.alpha, r.beta), (pa, pb)) < 1e-12]
        assert near.alpha < pa and near.beta == pb


def test_a_failing_worker_raises_its_error_here_and_leaves_no_child(
        monkeypatch, capfd):
    _, rows = _grid_rows(STEP_1DEG, math.pi)
    first_alpha = balanced_parts(rows, [n for _, n in rows], 2)[1][0][0]
    last_alpha = rows[-1][0]

    def failing_node(alpha, beta):
        if alpha >= first_alpha:   # a grid row of the second chunk
            raise DegenerateInputError(f"no residual at alpha {alpha!r}")
        return node(medial_residual, alpha, beta)

    monkeypatch.setitem(SCENARIOS, "failing", Scenario(
        "failing", row_function(failing_node), (ISOSCELES,)))
    assert first_alpha < last_alpha
    pin_cpus(monkeypatch, 1)
    with pytest.raises(DegenerateInputError) as serial:
        level_set_scan("failing", STEP_1DEG)
    assert str(serial.value) == f"no residual at alpha {first_alpha!r}"

    pin_cpus(monkeypatch, 2)
    assert level_set_scan("medial-circumcenter", STEP_1DEG).contained
    assert_no_child_left()
    with pytest.raises(DegenerateInputError) as chunked:
        level_set_scan("failing", STEP_1DEG)
    assert str(chunked.value) == str(serial.value)
    assert_no_child_left()
    # a worker that dies without raising has its chunk rerun here too
    scanner = os.getpid()

    def dying_node(alpha, beta):
        if os.getpid() != scanner:
            os._exit(1)
        return node(medial_residual, alpha, beta)

    monkeypatch.setitem(SCENARIOS, "dying", Scenario(
        "dying", row_function(dying_node), (ISOSCELES, GAMMA_60)))
    rerun = level_set_scan("dying", STEP_1DEG)
    assert_no_child_left()
    pin_cpus(monkeypatch, 1)
    whole = level_set_scan("dying", STEP_1DEG)
    assert list(map(repr, rerun.roots)) == list(map(repr, whole.roots))
    assert repr(rerun) == repr(whole)
    pin_cpus(monkeypatch, 2)
    # the first chunk raises here while a worker scans the second
    assert cli.main(["scenario", "rectangle-center", "--rect-t", "1.5"]) == 2
    assert capfd.readouterr() == (
        "", "error: height fraction t must lie in (0, 1)\n")
    assert_no_child_left()


def traced_peak_bytes(scan):
    """Peak traced allocation of one 1 degree incenter-segments scan: the
    grid and the roots of medial-circumcenter's, at half its traced time,
    because its residual allocates fewer floats per node."""
    tracemalloc.start()
    try:
        scan("incenter-segments", STEP_1DEG)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.usefixtures("one_chunk")
def test_scan_memory_grows_with_the_roots_not_the_grid():
    # the grid pass keeps two rows alive: at 1 degree the streamed scan
    # peaks near 0.13 MB and the reference scan, which holds the whole grid,
    # near 0.66 MB, so the bound tells the two designs apart
    bound = 0.45e6
    assert traced_peak_bytes(level_set_scan) < bound
    assert traced_peak_bytes(reference_scan) > bound


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


def test_scan_empty_region_raises():
    # a 300 degree step puts every node past the angle sum of a triangle
    with pytest.raises(DegenerateInputError):
        level_set_scan("medial-circumcenter", math.radians(300))


@pytest.mark.parametrize("step", [0.0, -STEP_1DEG, math.nan], ids=repr)
def test_scan_step_must_be_positive(step):
    with pytest.raises(ValueError, match="^grid step must be positive$"):
        level_set_scan("medial-circumcenter", step)


def test_a_scenario_declares_its_angle_bound_as_a_number():
    # the scan clips its grid to max_angle; the residual is the one field
    # it calls
    for sc in SCENARIOS.values():
        called = [field.name for field in dataclasses.fields(sc)
                  if callable(getattr(sc, field.name))]
        assert called == ["residual"], sc.name
        square = sc.name in ("square-center", "rectangle-center")
        assert sc.max_angle == (math.pi / 2 if square else math.pi), sc.name


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
