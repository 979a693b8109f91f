"""Geometry kernel: predicates, isometries, and the audit constructions of
``kernel_constructions`` with their independent oracles."""

import copy
import math
import random
from fractions import Fraction

import pytest

from kernel_constructions import (
    Circle,
    circumcircle,
    incenter_and_bisector_feet,
    internal_bisector_line,
    line_through,
    orient,
    reflect,
    signed_distance,
    triangle,
)
from planicheck.kernel import (
    Isometry,
    Point,
    Triangle,
    angle_cos,
    collinear,
    concyclic,
    concyclicity_determinant,
    isometry_taking_segment_to_segment,
    point,
    side,
    squared_distance,
    supplementary,
)
from planicheck.scalars import (
    EXACT,
    BackendMismatchError,
    DegenerateInputError,
    FloatBackend,
    LengthMismatchError,
    Scalar,
)

FB = FloatBackend()


def exact_pt(x, y):
    return point(EXACT, x, y)


def test_points_and_triangles_keep_to_one_backend():
    # equal float backends are one backend; exact and float never mix
    Triangle(point(FB, 0, 0), point(FloatBackend(), 1, 0), point(FB, 0, 1))
    with pytest.raises(BackendMismatchError,
                       match="point coordinates from different backends"):
        Point(FB.scalar(0.0), EXACT.scalar(1))
    with pytest.raises(BackendMismatchError,
                       match="triangle vertices from different backends"):
        Triangle(exact_pt(0, 0), exact_pt(1, 0), point(FB, 0, 1))
    # and so do the predicates that combine the payloads of several points
    for other in (EXACT, FloatBackend(1e-6)):
        p, q, r = point(FB, 0, 0), point(FB, 1, 0), point(other, 0, 1)
        for predicate in (angle_cos, orient, side):
            with pytest.raises(BackendMismatchError):
                predicate(p, q, r)
        with pytest.raises(BackendMismatchError):
            squared_distance(p, r)


def test_points_and_triangles_are_values():
    # the records compare, hash and print by their fields, as the frozen
    # dataclasses they replace did, and refuse assignment
    # a point holds its backend and the coordinates' payloads, and hashes
    # by them; it prints by the coordinates' Scalars
    p, q = point(FB, 1, 2), point(FB, 1.0, 2.0)
    assert p == q and p is not q and hash(p) == hash(q) == hash((FB, 1.0, 2.0))
    assert p == Point(p.x, p.y) and hash(p) == hash(Point(p.x, p.y))
    assert p != point(FB, 2, 1) and p != point(EXACT, 1, 2)
    assert p != (p.x, p.y)
    assert repr(p) == "Point(x=Scalar(1.0), y=Scalar(2.0))"
    t = Triangle(exact_pt(0, 0), exact_pt(4, 0), exact_pt(0, 3))
    u = Triangle(exact_pt(0, 0), exact_pt(4, 0), exact_pt(0, 3))
    assert t == u and hash(t) == hash(u) and len({t, u}) == 1
    assert t != Triangle(t.B, t.A, t.C)
    assert {p: 1}[q] == 1
    assert copy.copy(t) == t and copy.copy(p) == p
    for record, field in ((p, "x"), (t, "A")):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    # a collinear triangle is refused, exactly and inside the float band
    with pytest.raises(DegenerateInputError, match="collinear triangle"):
        Triangle(exact_pt(0, 0), exact_pt(1, 1), exact_pt(3, 3))
    with pytest.raises(DegenerateInputError, match="collinear triangle"):
        Triangle(point(FB, 0, 0), point(FB, 1, 0), point(FB, 0.5, 1e-10))


def test_angle_cos_right_angle():
    c = angle_cos(exact_pt(0, 0), exact_pt(1, 0), exact_pt(0, 1))
    assert c.exact_value() == 0


def test_angle_cos_45_degrees():
    c = angle_cos(point(FB, 0.0, 0.0), point(FB, 1.0, 0.0), point(FB, 1.0, 1.0))
    assert c.as_float() == pytest.approx(math.sqrt(2) / 2)


def test_angle_cos_rational_value():
    # dot = 6, |u| |v| = 2 * 5
    c = angle_cos(exact_pt(0, 0), exact_pt(2, 0), exact_pt(3, 4))
    assert c.exact_value() == Fraction(3, 5)


def test_angle_cos_keeps_its_bits_in_range_and_its_value_past_it():
    # where |u|^2 |w|^2 is a normal double the cosine is dot / sqrt of it,
    # bit for bit; past it (sides beyond about 1e77 or below about 1e-77,
    # where the product overflowed to a cosine of 0 or underflowed to a
    # division by zero) it must still be the cosine of the same angle: a
    # power-of-two scale moves no bit of the coordinates
    fb = FloatBackend(1e-300)
    rng = random.Random(19)
    for _ in range(500):
        xy = [rng.uniform(-10.0, 10.0) for _ in range(6)]
        for k in (rng.randint(-60, 60), 0):
            s = 10.0 ** k
            vx, vy, x1, y1, x2, y2 = (v * s for v in xy)
            ux, uy, wx, wy = x1 - vx, y1 - vy, x2 - vx, y2 - vy
            expected = (ux * wx + uy * wy) / math.sqrt(
                (ux * ux + uy * uy) * (wx * wx + wy * wy))
            c = angle_cos(point(fb, vx, vy), point(fb, x1, y1),
                          point(fb, x2, y2))
            assert c.as_float() == expected
        for scale in (2.0 ** 330, 2.0 ** -330):
            pts = [point(fb, xy[i] * scale, xy[i + 1] * scale)
                   for i in (0, 2, 4)]
            assert angle_cos(*pts).as_float() == pytest.approx(
                expected, rel=1e-14, abs=1e-15)
    # where even |u| |w| is not a normal double the cosine is a named error
    tiny = FloatBackend(1e-320)
    with pytest.raises(DegenerateInputError, match="out of binary64 range"):
        angle_cos(point(tiny, 0.0, 0.0), point(tiny, 1e-160, 0.0),
                  point(tiny, 0.0, 1e-160))


def test_angle_cos_coincident_vertex_raises():
    with pytest.raises(DegenerateInputError):
        angle_cos(exact_pt(1, 1), exact_pt(1, 1), exact_pt(0, 0))


def test_supplementary():
    assert supplementary(FB.scalar(0.5), FB.scalar(-0.5))
    assert supplementary(FB.scalar(0.0), FB.scalar(0.0))
    assert not supplementary(FB.scalar(0.5), FB.scalar(-0.4))


HALF = EXACT.scalar(Fraction(1, 2))
ROOT_HALF = EXACT.scalar(Fraction(1, 2)).sqrt()  # cos 45 deg, a radical


@pytest.mark.parametrize("cos1, cos2, verdict", [
    (FB.scalar(0.5), FB.scalar(-0.5), True),
    (FB.scalar(0.5), FB.scalar(-0.5 + 1e-12), True),   # within eps
    (FB.scalar(0.5), FB.scalar(-0.4), False),
    (FB.scalar(0.0), FB.scalar(-0.0), True),
    (FB.scalar(math.sqrt(0.5)), FB.scalar(-math.sqrt(0.5)), True),
    (HALF, -HALF, True),
    (HALF, HALF, False),
    (EXACT.scalar(0), EXACT.scalar(0), True),
    (ROOT_HALF, -ROOT_HALF, True),
    (ROOT_HALF, ROOT_HALF, False),
    (ROOT_HALF, -HALF, False),
], ids=str)
def test_supplementary_decides_alike_on_both_backends(monkeypatch, cos1, cos2,
                                                       verdict):
    # the verdict of the Scalar comparison cos1 == -cos2, without building
    # the negated Scalar
    assert cos1.eq(-cos2) is verdict and cos2.eq(-cos1) is verdict
    built = []
    init = Scalar.__init__

    def counting_init(scalar, backend, payload):
        built.append(payload)
        init(scalar, backend, payload)

    monkeypatch.setattr(Scalar, "__init__", counting_init)
    assert supplementary(cos1, cos2) is verdict
    assert supplementary(cos2, cos1) is verdict
    assert built == []


def test_supplementary_rejects_mixed_backends():
    for cos1, cos2 in ((HALF, FB.scalar(-0.5)), (FB.scalar(0.5), -HALF),
                       (FB.scalar(0.5), FloatBackend(1e-6).scalar(-0.5))):
        with pytest.raises(BackendMismatchError):
            cos1.eq(-cos2)
        with pytest.raises(BackendMismatchError):
            supplementary(cos1, cos2)


def test_circumcircle_right_triangle():
    t = triangle(EXACT, (0, 0), (2, 0), (0, 2))
    k = circumcircle(t)
    assert k.center.eq(exact_pt(1, 1))
    assert k.radius_sq.exact_value() == 2
    for v in (t.A, t.B, t.C):
        assert squared_distance(k.center, v).eq(k.radius_sq)


def test_circumcircle_equilateral_center():
    t = triangle(FB, (0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2))
    k = circumcircle(t)
    assert k.center.x.as_float() == pytest.approx(0.5)
    assert k.center.y.as_float() == pytest.approx(math.sqrt(3) / 6)


def test_circumcircle_collinear_raises():
    with pytest.raises(DegenerateInputError):
        triangle(EXACT, (0, 0), (1, 0), (2, 0))


def test_incenter_of_3_4_5():
    t = triangle(EXACT, (0, 0), (4, 0), (0, 3))
    res = incenter_and_bisector_feet(t)
    assert res.incenter.eq(exact_pt(1, 1))


def test_bisector_foot_ratio():
    # the foot from A splits BC with BA1 : A1C = AB : AC = 4 : 3, which for
    # the right angle at A is also the point of y = x on BC
    t = triangle(EXACT, (0, 0), (4, 0), (0, 3))
    res = incenter_and_bisector_feet(t)
    assert res.foot_a.eq(exact_pt(Fraction(12, 7), Fraction(12, 7)))
    ba1 = squared_distance(t.B, res.foot_a)
    a1c = squared_distance(res.foot_a, t.C)
    assert (ba1 * 9).eq(a1c * 16)


def test_incenter_on_bisector_segments():
    t = triangle(EXACT, (0, 0), (4, 0), (0, 3))
    res = incenter_and_bisector_feet(t)
    assert orient(t.A, res.incenter, res.foot_a).sign() == 0
    assert orient(t.B, res.incenter, res.foot_b).sign() == 0
    assert orient(t.C, res.incenter, res.foot_c).sign() == 0


def test_incenter_equidistant_from_sides():
    # r = area / s = 6 / 6 = 1 for the 3-4-5
    t = triangle(EXACT, (0, 0), (4, 0), (0, 3))
    j = incenter_and_bisector_feet(t).incenter
    for p, q in ((t.A, t.B), (t.B, t.C), (t.C, t.A)):
        d = signed_distance(line_through(p, q), j)
        assert (d * d).exact_value() == 1


def test_incenter_equilateral_is_centroid():
    t = triangle(FB, (0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2))
    j = incenter_and_bisector_feet(t).incenter
    assert j.x.as_float() == pytest.approx(0.5)
    assert j.y.as_float() == pytest.approx(math.sqrt(3) / 6)


def test_internal_bisector_line_passes_through_foot():
    t = triangle(EXACT, (0, 0), (4, 0), (0, 3))
    res = incenter_and_bisector_feet(t)
    bis = internal_bisector_line(t, "A")
    assert bis.eval(res.foot_a).sign() == 0
    assert bis.eval(res.incenter).sign() == 0


def test_concyclic_unit_circle_and_square():
    pts = [exact_pt(1, 0), exact_pt(0, 1), exact_pt(-1, 0), exact_pt(0, -1)]
    assert concyclic(*pts)[0]
    square = [exact_pt(0, 0), exact_pt(1, 0), exact_pt(1, 1), exact_pt(0, 1)]
    assert concyclic(*square)[0]


def test_concyclic_rejects_off_circle_point():
    pts = [exact_pt(0, 0), exact_pt(1, 0), exact_pt(0, 1), exact_pt(2, 2)]
    is_cyc, det = concyclic(*pts)
    assert not is_cyc
    assert det.exact_value() == -4
    assert det.eq(concyclicity_determinant(*pts))


def test_concyclic_degenerate_inputs_raise():
    with pytest.raises(DegenerateInputError):
        concyclic(exact_pt(0, 0), exact_pt(1, 0), exact_pt(2, 0), exact_pt(0, 1))
    with pytest.raises(DegenerateInputError):
        concyclic(exact_pt(0, 0), exact_pt(0, 0), exact_pt(1, 0), exact_pt(0, 1))


def test_concyclic_float_distinctness_is_a_length_test():
    # a lemma configuration from verify seed 60: C lies 4.7e-6 from B, far
    # above eps * scale, though its squared distance is below eps
    pts = [point(FB, 0.9674774153305156, 0),
           point(FB, 2.0799278754502017e-07, 4.742178447868172e-06),
           point(FB, 0, 0),
           point(FB, 0.003714947036079352, -0.08469977241712791)]
    assert concyclic(*pts)[0]
    with pytest.raises(DegenerateInputError):
        concyclic(pts[0], point(FB, 1e-10, 1e-10), pts[2], pts[3])


def test_reflect_examples():
    x_axis = line_through(exact_pt(0, 0), exact_pt(1, 0))
    y_axis = line_through(exact_pt(0, 0), exact_pt(0, 1))
    diag = line_through(exact_pt(0, 0), exact_pt(1, 1))
    assert reflect(exact_pt(1, 1), x_axis).eq(exact_pt(1, -1))
    assert reflect(exact_pt(3, 0), y_axis).eq(exact_pt(-3, 0))
    assert reflect(exact_pt(1, 2), diag).eq(exact_pt(2, 1))


def test_reflect_is_an_exact_isometric_involution():
    axis = line_through(exact_pt(0, 1), exact_pt(3, 2))
    pts = [exact_pt(Fraction(1, 2), 2), exact_pt(-1, Fraction(7, 3)),
           exact_pt(4, 0)]
    images = [reflect(p, axis) for p in pts]
    for p, q in zip(pts, images):
        assert reflect(q, axis).eq(p)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert squared_distance(pts[i], pts[j]).eq(
                squared_distance(images[i], images[j]))


def test_collinear():
    assert collinear(exact_pt(0, 0), exact_pt(2, 1), exact_pt(4, 2))
    assert not collinear(exact_pt(0, 0), exact_pt(2, 1), exact_pt(4, 3))


def test_side_of_a_directed_line():
    p, q = exact_pt(0, 0), exact_pt(2, 1)
    assert side(p, q, exact_pt(0, 1)) == 1
    assert side(p, q, exact_pt(1, 0)) == -1
    assert side(q, p, exact_pt(1, 0)) == 1
    assert side(p, q, exact_pt(4, 2)) == 0


def test_exact_coordinates_beyond_binary64_build_and_decide():
    # the exact backend's zero test takes no binary64 scale, so no
    # coordinate is converted and none has to fit
    big = 10 ** 400
    t = Triangle(exact_pt(0, 0), exact_pt(big, 0), exact_pt(0, big))
    assert side(t.A, t.B, t.C) == 1
    on_circle, _ = concyclic(exact_pt(big, 0), exact_pt(0, big),
                             exact_pt(-big, 0), exact_pt(0, -big))
    assert on_circle


def test_side_uses_the_triangle_validity_rule():
    # the orientation 2e-9 clears eps * scale^2 = 1e-9, so the triangle is
    # valid and its apex lies strictly on one side of AB
    a, b = point(FB, -1.0, -1.0), point(FB, 1.0, 1.0)
    c = point(FB, 0.5 - 5e-10, 0.5 + 5e-10)
    assert not collinear(a, b, c)
    assert side(a, b, c) == 1
    assert side(a, b, point(FB, 0.5, 0.5 + 1e-10)) == 0


def test_tolerance_overflow_is_a_degenerate_input():
    # eps * scale^degree overflows: degree 2 at 1e160, degree 4 at 1e80
    big = 1e160
    with pytest.raises(DegenerateInputError, match="too large for binary64"):
        side(point(FB, big, 0.0), point(FB, 0.0, big), point(FB, -big, 3.0))
    big = 1e80
    with pytest.raises(DegenerateInputError, match="too large for binary64"):
        concyclic(point(FB, big, 0.0), point(FB, 0.0, big),
                  point(FB, -big, 0.0), point(FB, 0.0, -big))


def test_isometry_segment_to_segment():
    src1, src2 = exact_pt(0, 0), exact_pt(5, 0)
    dst1, dst2 = exact_pt(1, 1), exact_pt(4, 5)   # length 5 again
    g = isometry_taking_segment_to_segment(src1, src2, dst1, dst2)
    assert g.apply(src1).eq(dst1)
    assert g.apply(src2).eq(dst2)
    assert not g.mirror
    gm = isometry_taking_segment_to_segment(src1, src2, dst1, dst2, mirror=True)
    assert gm.apply(src1).eq(dst1)
    assert gm.apply(src2).eq(dst2)
    assert gm.mirror


def test_isometry_length_mismatch_raises():
    with pytest.raises(LengthMismatchError):
        isometry_taking_segment_to_segment(
            exact_pt(0, 0), exact_pt(1, 0), exact_pt(0, 0), exact_pt(2, 0))


def test_angle_cos_is_isometry_invariant():
    g = Isometry(EXACT.scalar(Fraction(3, 5)), EXACT.scalar(Fraction(4, 5)),
                 EXACT.scalar(2), EXACT.scalar(-1), mirror=True)
    v, p, q = exact_pt(0, 0), exact_pt(2, 0), exact_pt(3, 4)
    before = angle_cos(v, p, q)
    after = angle_cos(g.apply(v), g.apply(p), g.apply(q))
    assert before.eq(after)


def test_float_triangle_collinear_within_tolerance_raises():
    with pytest.raises(DegenerateInputError):
        triangle(FB, (0.0, 0.0), (1.0, 0.0), (0.5, 1e-12))


def test_circle_rejects_zero_radius():
    with pytest.raises(DegenerateInputError):
        Circle(exact_pt(0, 0), EXACT.scalar(0))


def test_float_agrees_with_exact_on_rational_inputs():
    rng = random.Random(20240814)
    for _ in range(50):
        coords = [Fraction(rng.randint(-20, 20), rng.randint(1, 5))
                  for _ in range(8)]
        e_pts = [exact_pt(coords[i], coords[i + 1]) for i in range(0, 8, 2)]
        f_pts = [point(FB, float(c.x.exact_value()), float(c.y.exact_value()))
                 for c in e_pts]
        try:
            want = concyclic(*e_pts)[0]
        except DegenerateInputError:
            continue
        det = concyclicity_determinant(*f_pts).as_float()
        # only compare when the float margin is decisive
        if abs(det) > 10 * FB.eps or want:
            assert concyclic(*f_pts)[0] == want
        assert collinear(*e_pts[:3]) == collinear(*f_pts[:3])
