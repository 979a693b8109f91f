"""SSA solver, case predictor, pair classifier, and the common-side lemma."""

import gc
import math
import random
from fractions import Fraction

import pytest

from kernel_constructions import (
    orient,
    rational,
    reference_measure,
    reference_orient,
    reference_solutions,
    triangle,
)
from planicheck import congruence, kernel, ssa, suites
from planicheck.congruence import Correspondence, measure
from planicheck.kernel import (
    LABELS,
    Isometry,
    Point,
    Triangle,
    collinear,
    coord_scale,
    dot,
    point,
    squared_distance,
)
from planicheck.scalars import (
    EXACT,
    BackendMismatchError,
    DegenerateInputError,
    ExactValueError,
    FloatBackend,
    Scalar,
    is_rational,
)
from planicheck.ssa import (
    Congruent,
    CriterionCase,
    LemmaPreconditionError,
    NotSsaMatched,
    SsaSpec,
    Supplementary,
    classify_pair,
    lemma_common_side_check,
    predict_case,
    solve_ssa,
    to_common_side,
)

FB = FloatBackend()
IDENT = Correspondence(LABELS)


def float_spec(a, b, theta_deg):
    return SsaSpec(FB, a, b, math.cos(math.radians(theta_deg)))


def deg(cos):
    return math.degrees(math.acos(max(-1.0, min(1.0, float(cos)))))


def exact_isometry(cos_t, sin_t, tx, ty, mirror=False):
    """The ``Isometry`` of the exact backend at four numbers."""
    return Isometry(EXACT, *map(EXACT.payload, (cos_t, sin_t, tx, ty)),
                    mirror)


def elements(tri):
    """The payloads of the third side |AB| of a solved triangle, and of its
    cosines at B (the remaining angle) and at C, as ``measure`` reads
    them."""
    e = measure(tri)
    return e.backend.sqrt(e._sides[2]), e._cosines[1], e._cosines[2]


def test_two_solution_case():
    tris = solve_ssa(float_spec(1.0, math.sqrt(3), 30.0))
    assert len(tris) == 2
    solved = [elements(t) for t in tris]
    assert [third for third, _, _ in solved] == pytest.approx(
        [1.0, 2.0])
    angle_pairs = [(deg(apex), deg(base)) for _, apex, base in solved]
    assert angle_pairs[0] == pytest.approx((120.0, 30.0))
    assert angle_pairs[1] == pytest.approx((60.0, 90.0))


def test_equal_sides_give_one_triangle():
    tris = solve_ssa(float_spec(1.0, 1.0, 60.0))
    assert len(tris) == 1
    third, apex, _ = elements(tris[0])
    assert third == pytest.approx(1.0)
    assert deg(apex) == pytest.approx(60.0)


def test_no_solution_when_sine_exceeds_one():
    assert solve_ssa(float_spec(1.0, 3.0, 30.0)) == ()


def test_greater_side_forces_unique_solution():
    assert len(solve_ssa(float_spec(2.0, 1.0, 40.0))) == 1


def test_right_angle_boundary_returns_one_right_triangle():
    tris = solve_ssa(float_spec(1.0, 2.0, 30.0))   # b sin(theta) == a exactly
    assert len(tris) == 1
    third, apex, _ = elements(tris[0])
    assert FB.sign(apex) == 0
    assert third == pytest.approx(math.sqrt(3))


def test_obtuse_angle_opposite_not_greater_side_has_no_solution():
    assert len(solve_ssa(float_spec(1.0, 1.2, 120.0))) == 0
    assert len(solve_ssa(float_spec(1.0, 1.0, 120.0))) == 0
    # opposite the greater side the obtuse case is fine
    assert len(solve_ssa(float_spec(2.0, 1.0, 120.0))) == 1


def test_solutions_reproduce_the_given_elements():
    rng = random.Random(99)
    for _ in range(200):
        spec = float_spec(rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0),
                          rng.uniform(5.0, 175.0))
        for t in solve_ssa(spec):
            assert math.isclose(squared_distance(t.C, t.B),
                                spec.side_a.as_float() ** 2, rel_tol=1e-9)
            assert math.isclose(squared_distance(t.A, t.C),
                                spec.side_b.as_float() ** 2, rel_tol=1e-9)
            assert math.isclose(measure(t)._cosines[0],
                                spec.cos_angle.as_float(), abs_tol=1e-9)


def test_ssa_spec_validation():
    # non-positive sides and an angle outside the open range (0, pi)
    for backend in (FB, EXACT):
        for values in [(-1, 2, Fraction(1, 2)), (1, 0, Fraction(1, 2)),
                       (0, 1, 0), (1, 2, 1), (1, 2, -1), (1, 2, Fraction(3, 2))]:
            with pytest.raises(DegenerateInputError):
                SsaSpec(backend, *values)


def test_ssa_spec_is_a_value():
    spec = SsaSpec(EXACT, 4, 5, Fraction(3, 5))
    same = SsaSpec(EXACT, EXACT.payload(4), EXACT.payload(5), "3/5")
    assert spec == same and hash(spec) == hash(same)
    assert spec != SsaSpec(EXACT, 5, 4, Fraction(3, 5))
    assert (spec.side_a, spec.side_b, spec.cos_angle) == tuple(
        EXACT.scalar(v) for v in (4, 5, Fraction(3, 5)))
    with pytest.raises(AttributeError):
        spec.side_a = spec.side_b


def test_predict_case():
    a, b = FB.scalar(1.0), FB.scalar(2.0)
    assert predict_case(a, b, included=True) is CriterionCase.INCLUDED_ANGLE
    assert predict_case(a, a) is CriterionCase.ISOSCELES_EQUAL_SIDES
    assert predict_case(b, a) is CriterionCase.ANGLE_OPPOSITE_GREATER
    assert predict_case(a, b) is CriterionCase.ANGLE_OPPOSITE_SMALLER


def test_exact_rational_two_solution_spec():
    # t^2 - 6t + 8 = 0: third sides 2 and 4 for b=5, cos=3/5, a=sqrt(17)
    spec = SsaSpec(EXACT, EXACT.sqrt(EXACT.payload(17)), 5, Fraction(3, 5))
    tris = solve_ssa(spec)
    assert len(tris) == 2
    assert EXACT.eq(elements(tris[0])[0], 2)
    assert EXACT.eq(elements(tris[1])[0], 4)
    verdict = classify_pair(*tris)
    assert isinstance(verdict, Supplementary)
    assert EXACT.sign(verdict.cos1 + verdict.cos2) == 0


# rational specs (side_a, side_b, cos_angle, count) in every count regime
RATIONAL_REGIMES = {
    "two-solutions": (Fraction(41, 10), 5, Fraction(3, 5), 2),
    "right-angle-boundary": (4, 5, Fraction(3, 5), 1),
    "equal-sides": (5, 5, Fraction(3, 5), 1),
    "opposite-greater": (Fraction(20, 3), 5, Fraction(3, 5), 1),
    "no-solution": (3, 5, Fraction(3, 5), 0),
    "obtuse-opposite-smaller": (Fraction(41, 10), 5, Fraction(-3, 5), 0),
    "obtuse-opposite-greater": (Fraction(20, 3), 5, Fraction(-3, 5), 1),
    # a rational cosine whose sine is a radical
    "half-two-solutions": (7, 8, Fraction(1, 2), 2),
    "half-equilateral": (1, 1, Fraction(1, 2), 1),
    "third-no-solution": (3, 4, Fraction(1, 3), 0),
}


@pytest.mark.parametrize("regime", sorted(RATIONAL_REGIMES))
def test_exact_and_float_solutions_agree(regime):
    a, b, cos, count = RATIONAL_REGIMES[regime]
    exact = solve_ssa(SsaSpec(EXACT, a, b, cos))
    approx = solve_ssa(SsaSpec(FB, float(a), float(b), float(cos)))
    assert len(exact) == len(approx) == count
    for e, f in zip(exact, approx):
        assert list(map(float, elements(e))) == pytest.approx(
            list(elements(f)), abs=1e-12)


def test_textbook_pair_is_supplementary_with_exact_cosines():
    # third sides 3 and 5 at a 60 deg angle: the sine and the apex heights
    # are radicals, and the payload arithmetic represents every value the
    # solve and the classification need
    tris = solve_ssa(SsaSpec(EXACT, 7, 8, Fraction(1, 2)))
    assert [rational(elements(t)[0]) for t in tris] == [3, 5]
    verdict = classify_pair(*tris)
    assert isinstance(verdict, Supplementary)
    assert (rational(verdict.cos1), rational(verdict.cos2)) == (
        Fraction(-1, 7), Fraction(1, 7))
    # the lemma's determinant subtracts the heights 3 sqrt(3)/2 and
    # -5 sqrt(3)/2, two radicals of distinct squares, which the single
    # radical payload cannot add
    t1, t2 = tris
    t_abc = Triangle(t1.C, t1.A, t1.B)
    t_abd = Triangle(t1.C, t1.A, Point(EXACT, t2.B._x, -t2.B._y))
    with pytest.raises(ExactValueError,
                       match="sum of distinct radicals is not representable"):
        lemma_common_side_check(t_abc, t_abd)


def test_classify_pair_congruent_under_isometry():
    t1 = triangle(EXACT, (0, 0), (5, 0), (Fraction(16, 5), Fraction(12, 5)))
    g = exact_isometry(Fraction(3, 5), Fraction(4, 5), 2, -7, mirror=True)
    verdict = classify_pair(t1, g.apply(t1))
    assert isinstance(verdict, Congruent)


def test_classify_pair_not_matched():
    t1 = triangle(FB, (0.0, 0.0), (5.0, 0.0), (3.2, 2.4))
    x = 43.0 / 12.0
    t2 = triangle(FB, (0.0, 0.0), (6.0, 0.0), (x, math.sqrt(16.0 - x * x)))
    # designation: sides a=3, b=4, angle opposite a; the angle differs
    assert isinstance(classify_pair(t1, t2), NotSsaMatched)


def test_classify_pair_is_symmetric():
    t1, t2 = solve_ssa(float_spec(1.3, 2.0, 35.0))
    v12 = classify_pair(t1, t2)
    v21 = classify_pair(t2, t1)
    assert isinstance(v12, Supplementary) and isinstance(v21, Supplementary)
    assert FB.eq(v12.cos1, v21.cos2) and FB.eq(v12.cos2, v21.cos1)


def test_unambiguous_cases_never_classify_supplementary():
    rng = random.Random(5)
    for _ in range(100):
        b = rng.uniform(0.5, 5.0)
        theta = rng.uniform(10.0, 80.0)
        a = b * rng.uniform(1.01, 2.0)     # angle opposite the greater side
        assert len(solve_ssa(float_spec(a, b, theta))) <= 1


def lemma_pair(a, b, theta_deg):
    """Build the two-triangle common-side configuration from an SSA spec."""
    tris = solve_ssa(float_spec(a, b, theta_deg))
    assert len(tris) == 2
    ax = tris[0].C.as_floats()[0]
    x2, y2 = tris[1].B.as_floats()
    t_abc = triangle(FB, (ax, 0.0), (0.0, 0.0), tris[0].B.as_floats())
    t_abd = triangle(FB, (ax, 0.0), (0.0, 0.0), (x2, -y2))
    return t_abc, t_abd


def test_lemma_example_configuration():
    # A=(2,0) shared with B=(0,0); both apex segments from A have length 1.2
    t_abc, t_abd = lemma_pair(1.2, 2.0, 30.0)
    report = lemma_common_side_check(t_abc, t_abd)
    assert report.supplementary_angles
    assert report.opposite_sides
    assert report.is_concyclic
    assert report.ac_less_than_ab


def test_lemma_rejects_mirror_copy():
    tris = solve_ssa(float_spec(1.2, 2.0, 30.0))
    x1, y1 = tris[0].B.as_floats()
    ax = tris[0].C.as_floats()[0]
    t_abc = triangle(FB, (ax, 0.0), (0.0, 0.0), (x1, y1))
    t_abd = triangle(FB, (ax, 0.0), (0.0, 0.0), (x1, -y1))
    with pytest.raises(LemmaPreconditionError) as err:
        lemma_common_side_check(t_abc, t_abd)
    assert err.value.reason == "congruent"


def test_lemma_same_side_pair_reports_no_concyclicity():
    solved = solve_ssa(float_spec(1.2, 2.0, 30.0))
    ax = solved[0].C.as_floats()[0]
    tris = [triangle(FB, (ax, 0.0), (0.0, 0.0), t.B.as_floats())
            for t in solved]
    report = lemma_common_side_check(tris[0], tris[1])
    assert report.supplementary_angles
    assert not report.opposite_sides
    assert report.is_concyclic is None


def test_lemma_precondition_reasons():
    t_abc, t_abd = lemma_pair(1.2, 2.0, 30.0)
    shifted = triangle(FB, (t_abd.A.as_floats()[0], 0.0), (0.1, 0.0),
                       t_abd.C.as_floats())
    with pytest.raises(LemmaPreconditionError) as err:
        lemma_common_side_check(t_abc, shifted)
    assert err.value.reason == "shared-side"

    other_len, _ = lemma_pair(1.3, 2.0, 30.0)
    with pytest.raises(LemmaPreconditionError) as err:
        lemma_common_side_check(t_abc, other_len)
    assert err.value.reason == "unequal-ac-ad"

    other_angle, _ = lemma_pair(1.2, 2.0, 25.0)
    with pytest.raises(LemmaPreconditionError) as err:
        lemma_common_side_check(t_abc, other_angle)
    assert err.value.reason == "unequal-angles"


def count_measuring(monkeypatch):
    """Rebind ``measure`` and ``angle_cos`` wherever a module holds them and
    count the calls; ``angle_cos_outside`` counts those not made by measure."""
    counts = {"measure": 0, "angle_cos": 0, "angle_cos_outside": 0}
    depth = 0
    real_measure, real_angle_cos = congruence.measure, kernel.angle_cos

    def counting_measure(t):
        nonlocal depth
        counts["measure"] += 1
        depth += 1
        try:
            return real_measure(t)
        finally:
            depth -= 1

    def counting_angle_cos(vertex, end1, end2):
        counts["angle_cos"] += 1
        counts["angle_cos_outside"] += depth == 0
        return real_angle_cos(vertex, end1, end2)

    for mod in (kernel, congruence, ssa):
        for name, value in list(vars(mod).items()):
            if value is real_measure:
                monkeypatch.setattr(mod, name, counting_measure)
            elif value is real_angle_cos:
                monkeypatch.setattr(mod, name, counting_angle_cos)
    return counts


def test_matched_classify_pair_measures_each_triangle_once(monkeypatch):
    solved = solve_ssa(float_spec(1.3, 2.0, 35.0))
    t1 = triangle(EXACT, (0, 0), (5, 0), (Fraction(16, 5), Fraction(12, 5)))
    g = exact_isometry(Fraction(3, 5), Fraction(4, 5), 2, -7, mirror=True)
    counts = count_measuring(monkeypatch)
    pairs = ((*solved, Supplementary),
             (t1, g.apply(t1), Congruent))
    for a, b, verdict in pairs:
        assert isinstance(classify_pair(a, b), verdict)
    assert counts["measure"] == 2 * len(pairs)


def test_lemma_reads_every_angle_from_the_two_measures(monkeypatch):
    t_abc, t_abd = lemma_pair(1.2, 2.0, 30.0)
    counts = count_measuring(monkeypatch)
    assert lemma_common_side_check(t_abc, t_abd).supplementary_angles
    assert counts == {"measure": 2, "angle_cos": 6, "angle_cos_outside": 0}


def test_lemma_evaluates_the_concyclicity_determinant_once(monkeypatch):
    # concyclic hands back the determinant it decides by, and the report
    # carries that one: one evaluation per opposite-sides pair, none for a
    # same-side pair
    evaluations = []
    determinant = kernel.concyclicity_determinant

    def counting_determinant(*pts):
        evaluations.append(pts)
        return determinant(*pts)

    reports = []
    check = suites.lemma_common_side_check

    def recording_check(*triangles):
        reports.append(check(*triangles))
        return reports[-1]

    for module in (kernel, ssa, suites):
        if vars(module).get("concyclicity_determinant") is determinant:
            monkeypatch.setattr(module, "concyclicity_determinant",
                                counting_determinant)
    monkeypatch.setattr(suites, "lemma_common_side_check", recording_check)
    assert suites.suite_lemma(100, random.Random(1)).passed
    opposite = sum(report.opposite_sides for report in reports)
    assert opposite > 0
    assert len(evaluations) == opposite


def floats(*scalars):
    return [x.as_float() for x in scalars]


def lemma_triangles(tris):
    """The lemma's pair ABC, ABD from two SSA solutions: A and B are the
    first solution's C and A, C its apex, and D the second's apex mirrored
    across AB."""
    t1, t2 = tris
    return (Triangle(t1.C, t1.A, t1.B),
            Triangle(t1.C, t1.A, Point(t2.backend, t2.B._x, -t2.B._y)))


def test_float_payload_arithmetic_matches_scalar_arithmetic_bit_for_bit():
    # solve_ssa, measure and orient compute on the payloads; the reference
    # does the same in Scalar arithmetic, so a reordered operation shows as
    # a last-bit difference that rounded report bodies would hide
    rng = random.Random(20)
    for i in range(200):
        if i % 2:
            spec = suites.sample_two_solution_spec(rng)
        else:
            spec = float_spec(rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0),
                              rng.uniform(1.0, 179.0))
        tris = solve_ssa(spec)
        expected = reference_solutions(spec)
        assert len(tris) == len(expected)
        shapes = [triangle(FB, *[(rng.uniform(-9.0, 9.0),
                                  rng.uniform(-9.0, 9.0)) for _ in "ABC"])]
        for tri, (apex, _third) in zip(tris, expected):
            assert list(tri.B.as_floats()) == floats(*apex)
            assert [*tri.C.as_floats(), *tri.A.as_floats()] == floats(
                spec.side_b) + [0.0] * 3
            shapes.append(tri)
        for t in shapes:
            e = measure(t)
            side_sq, cos_at = reference_measure(t)
            assert list(e._sides) == floats(*(side_sq[l] for l in LABELS))
            assert list(e._cosines) == floats(*(cos_at[l] for l in LABELS))
            assert [orient(t.A, t.B, t.C)] == floats(
                reference_orient(t.A, t.B, t.C))


@pytest.mark.parametrize("first, second",
                         [(EXACT, FB), (FB, FloatBackend(1e-6))],
                         ids=["exact-float", "eps-1e-9-1e-6"])
def test_two_backends_never_meet(first, second):
    # the functions compare payloads, not Scalars, so each checks the
    # backends of its two arguments first: without that check these two
    # unmatched triangles would quietly be neither matched nor congruent
    t1 = triangle(first, (0, 0), (4, 0), (0, 3))
    t2 = triangle(second, (0, 0), (5, 0), (0, 3))
    e1, e2 = measure(t1), measure(t2)
    with pytest.raises(BackendMismatchError):
        classify_pair(t1, t2)
    with pytest.raises(BackendMismatchError):
        congruence.congruent_any(e1, e2)
    with pytest.raises(BackendMismatchError):
        congruence.criterion_c(e1, e2, IDENT)
    with pytest.raises(BackendMismatchError):
        lemma_common_side_check(t1, t2)
    with pytest.raises(BackendMismatchError):
        to_common_side(t1, t2, IDENT)


def test_solve_ssa_overflow_is_a_degenerate_input():
    with pytest.raises(DegenerateInputError, match="too large for binary64"):
        solve_ssa(float_spec(1e200, 1e200, 60.0))


def test_exact_solve_ssa_takes_sides_beyond_binary64():
    # the exact backend sizes its tolerances without converting a side,
    # so the 5-5 spec with cos 3/5 solves at 5 * 10**400 as it does at 5
    for n in (5, 5 * 10**400):
        spec = SsaSpec(EXACT, n, n, Fraction(3, 5))
        tris = solve_ssa(spec)
        assert len(tris) == 1
        assert rational(elements(tris[0])[0]) == Fraction(6, 5) * n


def test_lemma_longer_equal_sides_leave_no_pair():
    # AC = AD = 2.5 > AB = 2: the solver is unique, so no second triangle
    assert len(solve_ssa(float_spec(2.5, 2.0, 30.0))) == 1


def test_to_common_side_identity_overlay():
    t1 = triangle(EXACT, (0, 0), (5, 0), (Fraction(16, 5), Fraction(12, 5)))
    shift = exact_isometry(1, 0, 11, -4)
    kept, moved, g = to_common_side(t1, shift.apply(t1), IDENT, "C", "same")
    assert kept is t1
    assert not g.mirror
    for lab in "ABC":
        assert moved.vertex(lab).eq(t1.vertex(lab))


def test_to_common_side_mirror_flag():
    t1 = triangle(EXACT, (0, 0), (5, 0), (Fraction(16, 5), Fraction(12, 5)))
    far_axis = triangle(EXACT, (20, 3), (25, 3),
                        (20 + Fraction(16, 5), 3 - Fraction(12, 5)))
    kept, moved, g = to_common_side(t1, far_axis, IDENT, "C", "same")
    assert g.mirror
    for lab in "ABC":
        assert moved.vertex(lab).eq(t1.vertex(lab))


def test_to_common_side_opposite_placement():
    t1 = triangle(EXACT, (0, 0), (5, 0), (Fraction(16, 5), Fraction(12, 5)))
    _, moved, _ = to_common_side(t1, t1, IDENT, "C", "opposite")
    assert moved.C.eq(point(EXACT, Fraction(16, 5), Fraction(-12, 5)))


def test_to_common_side_moves_a_radical_side_exactly():
    # the textbook triangle's common side AB runs from the origin to
    # B = (3/2, sqrt(27/4)), at 60 deg, so the rotation that places the
    # triangle opposite divides radicals; C = (8, 0) reflects to
    # (-4, sqrt(48))
    t1 = solve_ssa(SsaSpec(EXACT, 7, 8, Fraction(1, 2)))[0]
    _, moved, g = to_common_side(t1, t1, IDENT, "C", "opposite")
    assert g.mirror
    assert moved.A.eq(t1.A) and moved.B.eq(t1.B)
    assert moved.C.eq(Point(EXACT, EXACT.payload(-4),
                            EXACT.sqrt(EXACT.payload(48))))


def test_to_common_side_mirrors_a_thin_float_triangle():
    # the apex sits 7e-10 from AB: a valid triangle, so "opposite" must
    # reflect it across AB rather than hand back an unmoved copy
    t = triangle(FB, (-1.0, -1.0), (1.0, 1.0), (0.5 - 5e-10, 0.5 + 5e-10))
    _, moved, g = to_common_side(t, t, IDENT, "C", "opposite")
    assert g.mirror is True
    before = FB.sign(orient(t.A, t.B, t.C))
    assert before != 0
    assert FB.sign(orient(t.A, t.B, moved.C)) == -before


def test_to_common_side_validation():
    t1 = triangle(EXACT, (0, 0), (5, 0), (Fraction(16, 5), Fraction(12, 5)))
    bigger = triangle(EXACT, (0, 0), (7, 0), (3, 3))
    with pytest.raises(Exception):
        to_common_side(t1, bigger, IDENT, "C", "same")
    with pytest.raises(ValueError):
        to_common_side(t1, t1, IDENT, "C", "sideways")


def test_to_common_side_two_ssa_solutions_give_figure_one():
    # the classic pair: overlaying the smaller solution below the shared side
    # and reflecting it back lands its apex G between B and C
    t_small, t_big = solve_ssa(float_spec(1.0, math.sqrt(3), 30.0))
    _, moved, g = to_common_side(t_big, t_small, IDENT, "B", "opposite")
    assert g.mirror
    bx, by = moved.B.as_floats()
    assert by == pytest.approx(-0.5)
    mirror_back = point(FB, bx, -by)
    assert mirror_back.as_floats() == pytest.approx((math.sqrt(3) / 2, 0.5))
    # G sits strictly between B and C of the bigger triangle
    b_pt, c_pt = t_big.A, t_big.B
    assert collinear(b_pt, mirror_back, c_pt)
    along = dot(mirror_back - b_pt, c_pt - b_pt)
    total = dot(c_pt - b_pt, c_pt - b_pt)
    assert 0.0 < along < total


def trust_table(rng, size=2400):
    """Float specs with sides from 1e-3 to 1e6, a quarter of each kind:
    log-uniform sides and uniform angles; a next to b sin(theta), inside
    and just outside the right-angle band; a next to b, where one root
    nears zero; and angles within 1.5e-3 rad of 0 or pi, where the apex
    nears the base line."""
    specs = []
    while len(specs) < size:
        kind = len(specs) % 4
        b = 10 ** rng.uniform(-3.0, 6.0)
        cos_t = math.cos(math.radians(rng.uniform(1.0, 179.0)))
        near = rng.choice((-1, 1)) * 10 ** rng.uniform(-16.0, -6.0)
        if kind == 0:
            a = 10 ** rng.uniform(-3.0, 6.0)
        elif kind == 1:
            a = b * math.sqrt(1.0 - cos_t * cos_t) * (1.0 + near)
        elif kind == 2:
            a = b * (1.0 + near)
        else:
            cos_t = rng.choice((-1, 1)) * (1.0 - 10 ** rng.uniform(-8.5, -6.0))
            a = 10 ** rng.uniform(-3.0, 6.0)
        if 1e-3 <= a <= 1e6:
            specs.append(SsaSpec(FB, a, b, cos_t))
    return specs


def test_solve_ssa_triangles_pass_the_checks_they_skip():
    # solve_ssa builds its triangles through trusted_triangle, without
    # Triangle's checks; on every triangle it returns those checks pass:
    # its orientation is -(height * b) and its size at most the solver's
    # size(a, b, t), so the band the solver cleared covers Triangle's
    counts, kept, margins = [0, 0, 0], 0, []
    for spec in trust_table(random.Random(31)):
        a, b = spec._a, spec._b
        tris = solve_ssa(spec)
        counts[len(tris)] += 1
        # the reference's apex equals the solver's bit for bit, so its t is
        # the solver's root
        expected = reference_solutions(spec)
        assert [list(tri.B.as_floats()) for tri in tris] == [
            floats(*apex) for apex, _ in expected]
        for tri, (_apex, third) in zip(tris, expected):
            assert Triangle(tri.A, tri.B, tri.C) == tri
            value = orient(tri.A, tri.B, tri.C)
            assert abs(value) == abs(tri.B._y * b)
            size = FB.size(a, b, third._v)
            assert coord_scale(tri.A, tri.B, tri.C) <= size
            margins.append(abs(value) / (FB.eps * size * size))
            kept += 1
    assert all(counts) and kept > 1000
    # the table reaches the band: some kept triangle is within a factor
    # of 10 of the collinearity bound
    assert min(margins) < 10
    # on the exact backend the orientation is -(height * b) exactly, also
    # where the height is a radical, and it is not zero
    radical = 0
    for spec, thirds in exact_radical_table():
        b = spec._b
        tris = solve_ssa(spec)
        assert [rational(elements(tri)[0]) for tri in tris] == thirds
        for tri in tris:
            assert Triangle(tri.A, tri.B, tri.C) == tri
            value = orient(tri.A, tri.B, tri.C)
            assert value == -(tri.B._y * b) and EXACT.sign(value) == -1
            radical += not is_rational(tri.B._y)
    assert radical == 25


def exact_radical_table():
    """(exact spec, its rational third sides) for given angles with a
    rational cosine c and a radical sine: the third sides are the positive
    roots of t^2 - 2 b c t + t1 t2 for rational t1 < t2, with
    b = (t1 + t2) / (2c) and a = sqrt(b^2 - t1 t2), a rational or one
    radical."""
    table = []
    for c in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 7),
              Fraction(-1, 2), Fraction(-3, 4)):
        for t1, t2 in ((3, 5), (1, 2), (Fraction(1, 3), Fraction(7, 4)),
                       (-2, 5), (-5, 2), (-3, Fraction(1, 2))):
            b = (t1 + t2) / (2 * c)
            a2 = b * b - t1 * t2
            if b > 0 and a2 > 0:
                spec = SsaSpec(EXACT, EXACT.sqrt(EXACT.payload(a2)), b, c)
                table.append((spec, [t for t in (t1, t2) if t > 0]))
    return table


@pytest.mark.parametrize("make_spec", [
    lambda: float_spec(1.0, math.sqrt(3), 30.0),
    lambda: suites.sample_rational_two_solution_spec(random.Random(4)),
], ids=["float", "exact"])
def test_scalar_init_sees_no_scalar_of_a_solve_classify_and_lemma(
        monkeypatch, make_spec):
    # the benchmark counts scalars.constructed by wrapping Scalar.__init__;
    # a finalizer sees every Scalar that goes away, so one built without
    # __init__ would show as a death with no birth: the solver, the verdict
    # and the lemma report compute on payloads, and build none either way
    spec = make_spec()
    gc.collect()
    born, strays = set(), []
    init = Scalar.__init__

    def counting_init(scalar, backend, payload):
        born.add(id(scalar))
        init(scalar, backend, payload)

    def finalize(scalar):
        if id(scalar) in born:
            born.remove(id(scalar))
        else:
            strays.append(scalar._v)

    monkeypatch.setattr(Scalar, "__init__", counting_init)
    monkeypatch.setattr(Scalar, "__del__", finalize, raising=False)
    gc.disable()
    try:
        tris = solve_ssa(spec)
        assert isinstance(classify_pair(*tris), Supplementary)
        report = lemma_common_side_check(*lemma_triangles(tris))
        assert report.supplementary_angles and report.is_concyclic
        assert born == set()
        del tris, report
    finally:
        gc.enable()
        gc.collect()
    assert born == set() and strays == []


@pytest.mark.parametrize("backend, values, kept", [
    (FB, (1.0, 3.0, 0.5), 0),
    (FB, (2.0, 1.0, 0.5), 1),
    (FB, (1.0, math.sqrt(3), math.cos(math.pi / 6)), 2),
    (EXACT, (3, 5, Fraction(3, 5)), 0),
    (EXACT, (4, 5, Fraction(3, 5)), 1),
    (EXACT, (Fraction(41, 10), 5, Fraction(3, 5)), 2),
], ids=["float-0", "float-1", "float-2", "exact-0", "exact-1", "exact-2"])
def test_solve_ssa_builds_no_scalar(monkeypatch, backend, values, kept):
    # the solver's points hold payloads, the shared zero of the base and the
    # apex coordinates among them; measure reads a solution's sides and
    # angles, so a kept triangle costs no Scalar
    spec = SsaSpec(backend, *values)
    built = []
    init = Scalar.__init__

    def counting_init(scalar, backend, payload):
        built.append(payload)
        init(scalar, backend, payload)

    monkeypatch.setattr(Scalar, "__init__", counting_init)
    assert len(solve_ssa(spec)) == kept
    assert built == []


@pytest.mark.parametrize("backend", [FB, EXACT], ids=["float", "exact"])
def test_classify_pair_builds_no_scalar(monkeypatch, backend):
    # measure keeps angle_cos's payloads and forms the squared sides on the
    # points' payloads, the criteria compare payloads, and a Supplementary
    # verdict holds the payloads of the two angles at B
    solved = solve_ssa(SsaSpec(backend, Fraction(41, 10), 5, Fraction(3, 5)))
    t1, mirrored, wider = (
        triangle(backend, (0, 0), (width, 0), (Fraction(16, 5), y))
        for width, y in ((5, Fraction(12, 5)), (5, Fraction(-12, 5)),
                         (6, Fraction(12, 5))))
    built = []
    init = Scalar.__init__

    def counting_init(scalar, backend, payload):
        built.append(payload)
        init(scalar, backend, payload)

    monkeypatch.setattr(Scalar, "__init__", counting_init)
    verdicts = [classify_pair(*solved), classify_pair(t1, mirrored),
                classify_pair(t1, wider)]
    assert [type(v) for v in verdicts] == [Supplementary, Congruent,
                                           NotSsaMatched]
    assert built == []
