"""Congruence criteria A-D and the exhaustive correspondence search."""

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from planicheck.congruence import (
    ALL_CORRESPONDENCES,
    Applicability,
    Correspondence,
    ElementTriple,
    congruent_any,
    criterion_a,
    criterion_b,
    criterion_c,
    criterion_d,
    measure,
)
from kernel_constructions import (line_through, rational, reference_measure,
                                  reflect, triangle)
from planicheck.kernel import LABELS, Isometry, Point, Triangle, point
from planicheck.scalars import (EXACT, BackendMismatchError,
                                DegenerateInputError, FloatBackend)
from planicheck.ssa import SsaSpec, solve_ssa

FB = FloatBackend()

# 3-4-5 with rational coordinates: sides a=3 (opposite A), b=4, c=5
T345 = triangle(EXACT, (0, 0), (5, 0), (Fraction(16, 5), Fraction(12, 5)))
IDENT = Correspondence(LABELS)


def float_345():
    return triangle(FB, (0.0, 0.0), (5.0, 0.0), (3.2, 2.4))


def float_346():
    # sides a=3, b=4, c=6; apex solved from the two distance equations
    x = 43.0 / 12.0
    y = math.sqrt(16.0 - x * x)
    return triangle(FB, (0.0, 0.0), (6.0, 0.0), (x, y))


def test_measure_elements_of_3_4_5():
    e = measure(T345)
    assert e._sides == (9, 16, 25)
    # law of cosines: cos A = (16 + 25 - 9) / (2 * 4 * 5)
    # the cosines in label order, as payloads
    cos_a, _, cos_c = map(rational, e._cosines)
    assert cos_a == Fraction(4, 5)
    assert cos_c == 0


def test_criterion_a_on_identical_elements():
    e = measure(T345)
    assert criterion_a(e, e, IDENT)
    triple = ElementTriple(("A", "B"), "C")
    assert criterion_a(e, e, IDENT, triple)


def test_criterion_a_rejects_non_included_designation():
    e = measure(T345)
    with pytest.raises(ValueError):
        criterion_a(e, e, IDENT, ElementTriple(("A", "B"), "A"))


def test_criterion_a_shared_sides_different_included_angle():
    e1, e2 = measure(float_345()), measure(float_346())
    for corr in ALL_CORRESPONDENCES:
        assert not criterion_a(e1, e2, corr)


def test_criterion_b_two_angles_and_side():
    e = measure(T345)
    assert criterion_b(e, e, IDENT)
    e2 = measure(float_346())
    assert not criterion_b(measure(float_345()), e2, IDENT)


def test_criterion_c_under_rotating_correspondence():
    # same triangle relabeled A->B->C->A
    t2 = type(T345)(T345.B, T345.C, T345.A)
    corr = Correspondence(("C", "A", "B"))
    assert criterion_c(measure(T345), measure(t2), corr)
    assert not criterion_c(measure(T345), measure(t2), IDENT)


def test_criterion_d_angle_opposite_greater_side():
    e = measure(T345)
    # angle at C is opposite c=5, the greater of (5, 4)
    triple = ElementTriple(("C", "B"), "C")
    assert criterion_d(e, e, IDENT, triple) is Applicability.HOLDS


def test_criterion_d_angle_opposite_smaller_side_not_applicable():
    e = measure(T345)
    # angle at A is opposite a=3, smaller than b=4: the ambiguous regime
    triple = ElementTriple(("A", "B"), "A")
    assert criterion_d(e, e, IDENT, triple) is Applicability.NOT_APPLICABLE


def test_criterion_d_fails_when_elements_differ():
    e1, e2 = measure(float_345()), measure(float_346())
    triple = ElementTriple(("C", "B"), "C")
    assert criterion_d(e1, e2, IDENT, triple) is Applicability.FAILS


def test_criterion_d_search_prefers_holds():
    e = measure(T345)
    assert criterion_d(e, e, IDENT) is Applicability.HOLDS


def test_criterion_d_rejects_included_designation():
    e = measure(T345)
    with pytest.raises(ValueError):
        criterion_d(e, e, IDENT, ElementTriple(("A", "B"), "C"))


def test_congruent_any_mirror_image():
    axis = line_through(point(EXACT, 0, 0), point(EXACT, 1, 3))
    assert congruent_any(measure(T345), measure(reflect(T345, axis))) is not None


def test_congruent_any_similar_but_scaled_is_none():
    t2 = triangle(EXACT, (0, 0), (10, 0), (Fraction(32, 5), Fraction(24, 5)))
    assert congruent_any(measure(T345), measure(t2)) is None


def test_congruent_any_finds_the_relabeling():
    t2 = type(T345)(T345.B, T345.C, T345.A)
    corr = congruent_any(measure(T345), measure(t2))
    assert corr.mapping == ("C", "A", "B")


def test_congruent_any_is_inverse_symmetric():
    cases = [
        (T345, type(T345)(T345.C, T345.A, T345.B)),
        # equilateral: six matches, the canonical pick must stay consistent
        (triangle(FB, (0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)),
         triangle(FB, (2.0, 0.0), (3.0, 0.0), (2.5, math.sqrt(3) / 2))),
    ]
    for t1, t2 in cases:
        c12 = congruent_any(measure(t1), measure(t2))
        c21 = congruent_any(measure(t2), measure(t1))
        assert c21.mapping == c12.inverse().mapping


def test_congruent_any_takes_the_canonical_minimum_of_several_matches():
    # the key congruent_any documents: inversion-symmetric, then the mapping
    def key(c):
        return (min(c.mapping, c.inverse().mapping), c.mapping)

    h = math.sqrt(3) / 2
    cases = [
        # equilateral: all six correspondences match
        (triangle(FB, (0.0, 0.0), (1.0, 0.0), (0.5, h)),
         triangle(FB, (2.5, h), (3.0, 0.0), (2.0, 0.0))),
        # isosceles with CA = CB, relabeled: two correspondences match
        (triangle(EXACT, (0, 0), (4, 0), (2, 3)),
         triangle(EXACT, (2, 3), (4, 0), (0, 0))),
    ]
    for t1, t2 in cases:
        e1, e2 = measure(t1), measure(t2)
        found = [c for c in ALL_CORRESPONDENCES if criterion_c(e1, e2, c)]
        assert len(found) >= 2
        assert congruent_any(e1, e2) == min(found, key=key)


def test_sss_implies_sas_and_aas():
    rng = random.Random(7)
    rotations = ((Fraction(3, 5), Fraction(4, 5)),
                 (Fraction(5, 13), Fraction(12, 13)),
                 (Fraction(8, 17), Fraction(15, 17)))
    bases = (T345,
             triangle(EXACT, (0, 0), (7, 1), (2, 6)),
             triangle(EXACT, (-1, -1), (3, 0), (Fraction(1, 2), 5)))
    for _ in range(25):
        t1 = bases[rng.randrange(len(bases))]
        c, s = rotations[rng.randrange(3)]
        tx, ty = rng.randint(-3, 3), rng.randint(-3, 3)
        g = Isometry(EXACT, *map(EXACT.payload, (c, s, tx, ty)),
                     mirror=rng.random() < 0.5)
        t2 = g.apply(t1)
        e1, e2 = measure(t1), measure(t2)
        corr = congruent_any(e1, e2)
        assert criterion_c(e1, e2, corr)
        assert criterion_a(e1, e2, corr)
        assert criterion_b(e1, e2, corr)


def test_correspondence_validation_and_inverse():
    with pytest.raises(ValueError):
        Correspondence(("A", "A", "B"))
    corr = Correspondence(("B", "C", "A"))
    assert corr.inverse().mapping == ("C", "A", "B")
    assert corr.image("A") == "B"


def test_element_triple_validation():
    with pytest.raises(ValueError):
        ElementTriple(("A", "A"), "B")
    assert ElementTriple(("A", "B"), "C").included
    assert not ElementTriple(("A", "B"), "A").included


# -- the index tables against a dict-of-Scalars reference ---------------------

CORRESPONDENCES = [Correspondence(p) for p in permutations(LABELS)]
DESIGNATIONS = [ElementTriple((y, z), x)
                for y, z in permutations(LABELS, 2) for x in LABELS]


def ref_matches(r1, r2, corr, triple):
    """Whether the designated sides and angle of reference measure r1
    equal their images in r2, compared as Scalars."""
    (s1, c1), (s2, c2) = r1, r2
    return (all(s1[l].eq(s2[corr.image(l)]) for l in triple.side_labels)
            and c1[triple.angle_label].eq(c2[corr.image(triple.angle_label)]))


def ref_d(r1, r2, corr, triple):
    if not ref_matches(r1, r2, corr, triple):
        return Applicability.FAILS
    x = triple.angle_label
    w = next(l for l in triple.side_labels if l != x)
    return (Applicability.HOLDS if r1[0][x].gt(r1[0][w])
            else Applicability.NOT_APPLICABLE)


def ref_verdicts(r1, r2, corr):
    """Every criterion's verdict under corr, with and without each
    designation, in the order ``verdicts`` lists them."""
    (s1, c1), (s2, c2) = r1, r2
    included = [t for t in DESIGNATIONS if t.included]
    opposite = [t for t in DESIGNATIONS if not t.included]
    d_each = [ref_d(r1, r2, corr, t) for t in opposite]
    d_search = (Applicability.HOLDS if Applicability.HOLDS in d_each else
                Applicability.NOT_APPLICABLE
                if Applicability.NOT_APPLICABLE in d_each
                else Applicability.FAILS)
    a_each = [ref_matches(r1, r2, corr, t) for t in included]
    angles = sum(c1[l].eq(c2[corr.image(l)]) for l in LABELS)
    side = any(s1[l].eq(s2[corr.image(l)]) for l in LABELS)
    sss = all(s1[l].eq(s2[corr.image(l)]) for l in LABELS)
    return [any(a_each), *a_each, angles >= 2 and side, sss, d_search,
            *d_each]


def verdicts(e1, e2, corr):
    included = [t for t in DESIGNATIONS if t.included]
    opposite = [t for t in DESIGNATIONS if not t.included]
    return [criterion_a(e1, e2, corr),
            *(criterion_a(e1, e2, corr, t) for t in included),
            criterion_b(e1, e2, corr), criterion_c(e1, e2, corr),
            criterion_d(e1, e2, corr),
            *(criterion_d(e1, e2, corr, t) for t in opposite)]


def canonical_key(c):
    # the key congruent_any documents: inversion-symmetric, then the mapping
    return (min(c.mapping, c.inverse().mapping), c.mapping)


def seeded_triangles(backend, seed, n):
    rng = random.Random(seed)
    if backend is EXACT:
        def coord():
            return Fraction(rng.randint(-40, 40), rng.randint(1, 6))
        shapes = [[(0, 0), (4, 0), (2, 3)],           # isosceles
                  [(0, 0), (5, 0), (Fraction(16, 5), Fraction(12, 5))]]
    else:
        def coord():
            return rng.uniform(-9.0, 9.0)
        shapes = [[(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)]]
    tris = [triangle(backend, *s) for s in shapes]
    while len(tris) < n:
        try:
            tris.append(triangle(backend, *[(coord(), coord()) for _ in "ABC"]))
        except DegenerateInputError:
            continue
    return tris


def partners(t, rng):
    """The six relabellings of t, a rational isometric image and a copy
    stretched by 1%."""
    backend = t.backend
    pts = (t.A, t.B, t.C)
    out = [Triangle(*(pts[LABELS.index(l)] for l in p))
           for p in permutations(LABELS)]
    c, s = rng.choice([(Fraction(3, 5), Fraction(4, 5)),
                       (Fraction(5, 13), Fraction(-12, 13))])
    tx, ty = Fraction(rng.randint(-9, 9), 4), rng.randint(-3, 3)
    g = Isometry(backend, *map(backend.payload, (c, s, tx, ty)),
                 mirror=rng.random() < 0.5)
    out.append(g.apply(t))
    k = backend.payload(Fraction(101, 100))
    out.append(Triangle(*(Point(backend, k * p._x, k * p._y) for p in pts)))
    return out


# two-solution SSA specs (a, b, cos of the angle at A): each pair of
# solutions shares two sides and a non-included angle, and no more
SSA_SPECS = {FB: [(1.3, 2.0, math.cos(math.radians(35.0))),
                  (1.0, math.sqrt(3), math.cos(math.radians(30.0)))],
             EXACT: [(7, 8, Fraction(1, 2)),
                     (Fraction(41, 10), 5, Fraction(3, 5))]}


@pytest.mark.parametrize("backend, seed", [(FB, 11), (EXACT, 12)],
                         ids=["float", "exact"])
def test_the_index_tables_agree_with_a_scalar_reference(backend, seed):
    rng = random.Random(seed)
    pairs = [(t1, t2) for t1 in seeded_triangles(backend, seed, 8)
             for t2 in partners(t1, rng)]
    for values in SSA_SPECS[backend]:
        solved = solve_ssa(SsaSpec(backend, *values))
        assert len(solved) == 2
        pairs += [solved, solved[::-1]]
    seen = set()
    for t1, t2 in pairs:
        e1, r1 = measure(t1), reference_measure(t1)
        e2, r2 = measure(t2), reference_measure(t2)
        found = []
        for corr in CORRESPONDENCES:
            expected = ref_verdicts(r1, r2, corr)
            assert verdicts(e1, e2, corr) == expected, corr.mapping
            seen.update(expected)
            if expected[5]:
                found.append(corr)
        pick = congruent_any(e1, e2)
        assert pick == (min(found, key=canonical_key) if found else None)
    # the table reached every verdict each criterion can give
    assert seen == {True, False, *Applicability}


def test_every_criterion_refuses_two_backends():
    e_exact = measure(T345)
    e_float = measure(float_345())
    included = ElementTriple(("C", "B"), "A")
    opposite = ElementTriple(("C", "B"), "C")
    calls = [
        lambda e1, e2: criterion_a(e1, e2, IDENT),
        lambda e1, e2: criterion_a(e1, e2, IDENT, included),
        lambda e1, e2: criterion_b(e1, e2, IDENT),
        lambda e1, e2: criterion_c(e1, e2, IDENT),
        lambda e1, e2: criterion_d(e1, e2, IDENT),
        lambda e1, e2: criterion_d(e1, e2, IDENT, opposite),
        congruent_any,
    ]
    for call in calls:
        for e1, e2 in ((e_exact, e_float), (e_float, e_exact)):
            with pytest.raises(BackendMismatchError):
                call(e1, e2)
