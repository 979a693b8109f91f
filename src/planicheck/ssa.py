"""The ambiguous SSA configuration and its congruence dichotomy.

Given two sides and an angle opposite one of them, zero, one or two triangles
exist.  When two exist they are never congruent, and the two angles opposite
the greater given side are supplementary; ``classify_pair`` decides, for any
pair of triangles agreeing on the solver's element triple, between
congruence and that supplementary outcome.  No third outcome exists.  Its
premise is ``congruence.criterion_d`` on that triple: a pair it FAILS on
is not matched.

Canonical solution pose: the given adjacent side lies on the x axis from
A = (0, 0) to C = (side_b, 0); the apex B sits in the open upper half plane
on the ray from A at the given angle.  ``solve_ssa`` returns the solutions
as a tuple of triangles ordered by ascending third side |AB|; it keeps no
copy of their sides or angles, which ``congruence.measure`` reads.

``SsaSpec`` is a slotted ``Record`` of one backend and three payloads.
Its one constructor, ``SsaSpec(backend, side_a, side_b, cos_angle)``,
converts three numbers or payloads of ``backend`` by its ``payload`` and
runs the side and angle checks, so ``copy`` and ``pickle`` rebuild a spec
from its fields through it.  ``side_a``, ``side_b`` and ``cos_angle`` wrap
a payload in a ``Scalar`` on each read, the one place below the ``cli``
that builds one, for the ``ssa`` command's printed arithmetic and the exact
dichotomy's witness.  Everything else here computes on payloads:
``solve_ssa`` builds its points (the origin, the base end and each apex)
from the spec's payloads, the verdicts hold the payloads of the cosines
and the determinant they were decided on, and two angles are
supplementary when ``backend.eq(cos1, -cos2)``.  ``solve_ssa`` builds each
kept triangle with ``kernel.trusted_triangle``, the one constructor that
skips ``Triangle``'s checks: the triangle's orientation is -(height * b), bit
for bit on the float backend and exactly on the exact one (a radical there
when the height is), and its size max(1, |t cos|, t sin, b) is at most the
solver's size(a, b, t), so the collinearity band the solver cleared is at
least as wide as the one ``Triangle`` would test.
"""

from __future__ import annotations

import enum
from typing import Tuple, Union

from .congruence import (
    Applicability,
    Correspondence,
    ElementTriple,
    congruent_any,
    criterion_d,
    measure,
)
from .errors import DichotomyViolationError, LemmaPreconditionError
from .kernel import (
    LABELS,
    Isometry,
    Point,
    Triangle,
    concyclic,
    isometry_taking_segment_to_segment,
    side,
    squared_distance,
    trusted_triangle,
)
from .record import Record, setters
from .scalars import (
    Backend,
    DegenerateInputError,
    LengthMismatchError,
    Scalar,
    common_backend,
)


class SsaSpec(Record):
    """Two sides and the angle opposite the first of them.

    ``side_a`` is opposite the given angle, ``side_b`` adjacent to it, and
    ``cos_angle`` the cosine of the angle (strictly between -1 and 1).  The
    spec holds one ``backend`` and the three payloads; those three names
    wrap a payload in a ``Scalar`` on each read, for the command boundary.
    """

    __slots__ = ("backend", "_a", "_b", "_cos")

    def __init__(self, backend: Backend, side_a, side_b, cos_angle):
        payload = backend.payload
        a, b, c = payload(side_a), payload(side_b), payload(cos_angle)
        if backend.sign(a) <= 0 or backend.sign(b) <= 0:
            raise DegenerateInputError("sides must be positive")
        if not (backend.lt(c, 1) and backend.lt(-1, c)):
            raise DegenerateInputError("angle must be strictly inside (0, pi)")
        _set_backend(self, backend)
        _set_a(self, a)
        _set_b(self, b)
        _set_cos(self, c)

    @property
    def side_a(self) -> Scalar:
        return Scalar(self.backend, self._a)

    @property
    def side_b(self) -> Scalar:
        return Scalar(self.backend, self._b)

    @property
    def cos_angle(self) -> Scalar:
        return Scalar(self.backend, self._cos)


_set_backend, _set_a, _set_b, _set_cos = setters(SsaSpec)


class CriterionCase(enum.Enum):
    """The four-way case split for two given sides and one given angle."""

    INCLUDED_ANGLE = "included-angle"
    ISOSCELES_EQUAL_SIDES = "isosceles-equal-sides"
    ANGLE_OPPOSITE_GREATER = "angle-opposite-greater"
    ANGLE_OPPOSITE_SMALLER = "angle-opposite-smaller"


def predict_case(opposite_side: Scalar, adjacent_side: Scalar,
                 included: bool = False) -> CriterionCase:
    """Which uniqueness regime a designation of given elements falls in.

    Only ANGLE_OPPOSITE_SMALLER admits two solutions; the others force at most
    one triangle (each is settled by one of the congruence criteria).
    """
    if included:
        return CriterionCase.INCLUDED_ANGLE
    if opposite_side.eq(adjacent_side):
        return CriterionCase.ISOSCELES_EQUAL_SIDES
    if opposite_side.gt(adjacent_side):
        return CriterionCase.ANGLE_OPPOSITE_GREATER
    return CriterionCase.ANGLE_OPPOSITE_SMALLER


def solve_ssa(spec: SsaSpec) -> Tuple[Triangle, ...]:
    """All triangles realizing the given side-side-angle data, in
    canonical pose and ascending by third side |AB|.

    The given elements are BC = a, CA = b and the angle at A; the angle at
    B is the remaining one, and for two solutions the two angles at B are
    supplementary.  ``measure`` reads every side and angle of a solution.

    The apex distance t along the given ray satisfies
    t^2 - 2 b cos(theta) t + (b^2 - a^2) = 0; solutions are its positive
    roots.  The count is 0 when b sin(theta) > a, 1 on the right-angle
    boundary b sin(theta) = a (one triangle, not two coincident ones) and
    when a >= b, and 2 when b sin(theta) < a < b with an acute given angle.
    An obtuse given angle opposite a not-greater side yields no triangle.

    One algorithm serves both backends, computing on the spec's payloads
    and building its points from payloads, without a ``Scalar``.
    Its three zero tests (the boundary band on the discriminant, degree 2,
    and the kept triangle's third side, degree 1, and doubled area,
    degree 2) go through the backend's ``vanishes`` at the backend's
    ``size`` of a and b, and of t for a root: exact zero on the exact
    backend, which converts nothing to binary64.  On the exact backend
    the payload arithmetic alone decides what is representable: the sine,
    the discriminant root and so the apex height may each be a single
    radical, and a root b cos(theta) -/+ sqrt(disc) that would add a
    rational to a radical, or two distinct radicals, raises
    ``ExactValueError``.
    """
    backend = spec.backend
    a, b, c0 = spec._a, spec._b, spec._cos
    sin2 = 1 - c0 * c0
    sin_t = backend.sqrt(sin2)
    s = backend.size(a, b)
    disc = a * a - b * b * sin2
    on_boundary = backend.vanishes(disc, s, 2)
    root = (None if on_boundary or backend.sign(disc) < 0
            else backend.sqrt(disc))
    bc0 = b * c0
    if on_boundary:
        roots = [bc0]  # right-angle boundary: one triangle, not two coincident
    elif root is None:
        roots = []
    else:
        roots = [bc0 - root, bc0 + root]
    tris = []
    origin = base_end = None
    for t in roots:
        # keep a positive third side whose triangle clears the collinearity band
        if backend.sign(t) <= 0:
            continue
        scale = backend.size(a, b, t)
        height = t * sin_t
        if backend.vanishes(t, scale, 1) or backend.vanishes(height * b, scale, 2):
            continue
        if origin is None:
            zero = backend.payload(0)
            origin = Point(backend, zero, zero)
            base_end = Point(backend, b, zero)
        # the band just cleared covers Triangle's checks (module docstring)
        tris.append(trusted_triangle(
            origin, Point(backend, t * c0, height), base_end))
    return tuple(tris)


class Congruent(Record):
    __slots__ = ("correspondence",)


class Supplementary(Record):
    __slots__ = ("cos1", "cos2")


class NotSsaMatched(Record):
    __slots__ = ()


DichotomyVerdict = Union[Congruent, Supplementary, NotSsaMatched]

# the solver's designation: sides BC and CA (opposite A and B) and the angle
# at A, opposite BC
_SOLVER_TRIPLE = ElementTriple(("A", "B"), "A")
_IDENTITY = Correspondence(LABELS)


def classify_pair(t1: Triangle, t2: Triangle) -> DichotomyVerdict:
    """Decide the dichotomy for two triangles sharing the solver's element
    triple: sides BC and CA and the angle at A, as ``solve_ssa`` places
    them, with the remaining angle at B.

    Returns NotSsaMatched when ``criterion_d`` FAILS under the identity
    correspondence and that designation, that is unless those sides and
    that angle agree label for label; then either Congruent (with a
    witnessing correspondence found by a full-side search over the same
    measured element sets) or Supplementary with the two angles at B, which
    must sum to a straight angle.  The theorem guarantees no third outcome;
    a violation raises.

    Each triangle is measured once.  ``criterion_d`` checks that the two
    element sets share a backend before any comparison, and it and
    ``congruent_any`` compare their payloads by index; a Supplementary
    verdict holds the payloads of the two angles' cosines at B.
    """
    e1, e2 = measure(t1), measure(t2)
    if criterion_d(e1, e2, _IDENTITY, _SOLVER_TRIPLE) is Applicability.FAILS:
        return NotSsaMatched()
    witness = congruent_any(e1, e2)
    if witness is not None:
        return Congruent(witness)
    # payload position 1 is B
    cos1, cos2 = e1._cosines[1], e2._cosines[1]
    if not e1.backend.eq(cos1, -cos2):
        raise DichotomyViolationError(
            "non-congruent matched pair with non-supplementary remaining angles")
    return Supplementary(cos1, cos2)


class LemmaReport(Record):
    """Outcome of the common-side configuration check.

    The cosines and the determinant are payloads.  ``is_concyclic`` and
    ``concyclicity_det`` are None for a same-side pair; otherwise the
    determinant is the one ``concyclic`` decided by.
    """

    __slots__ = ("supplementary_angles", "cos_acb", "cos_adb",
                 "opposite_sides", "is_concyclic", "concyclicity_det",
                 "ac_less_than_ab")


def lemma_common_side_check(t_abc: Triangle, t_abd: Triangle) -> LemmaReport:
    """Check the common-side configuration: triangles ABC and ABD on a shared
    segment AB with AC = AD, equal angles at B, and not congruent.

    Asserts that the angles at C and D are supplementary, that A, C, B, D are
    concyclic when C and D lie strictly on opposite sides of AB, and that
    AC < AB.  Precondition failures raise with an individual reason.
    """
    backend = common_backend(t_abc.backend, t_abd.backend)
    a1, b1, c = t_abc.A, t_abc.B, t_abc.C
    a2, b2, d = t_abd.A, t_abd.B, t_abd.C
    if not (a1.eq(a2) and b1.eq(b2)):
        raise LemmaPreconditionError("shared-side", "triangles do not share side AB")
    e_abc, e_abd = measure(t_abc), measure(t_abd)
    # payload position 1 is B: the side AC (resp. AD) and the angle at B;
    # position 2 is C (resp. D): the side AB and the angle at C
    ac, ab = e_abc._sides[1], e_abc._sides[2]
    if not backend.eq(ac, e_abd._sides[1]):
        raise LemmaPreconditionError("unequal-ac-ad", "AC and AD differ")
    if not backend.eq(e_abc._cosines[1], e_abd._cosines[1]):
        raise LemmaPreconditionError("unequal-angles", "angles at B differ")
    if congruent_any(e_abc, e_abd) is not None:
        raise LemmaPreconditionError("congruent", "the triangles are congruent")

    cos_acb, cos_adb = e_abc._cosines[2], e_abd._cosines[2]
    supp = backend.eq(cos_acb, -cos_adb)

    opposite = side(a1, b1, c) * side(a1, b1, d) < 0
    is_cyc = det = None
    if opposite:
        is_cyc, det = concyclic(a1, c, b1, d)

    ac_lt_ab = backend.lt(ac, ab)
    return LemmaReport(supp, cos_acb, cos_adb, opposite, is_cyc, det, ac_lt_ab)


def to_common_side(t1: Triangle, t2: Triangle, corr: Correspondence,
                   common_label: str = "C",
                   placement: str = "same") -> Tuple[Triangle, Triangle, Isometry]:
    """Rigidly move t2 so its side corresponding to t1's side opposite
    ``common_label`` coincides with that side pointwise.

    ``placement`` puts t2's remaining vertex on the same side of the common
    line as t1's ("same") or on the other one ("opposite").  Returns t1
    unchanged, the moved copy of t2 (labels preserved), and the isometry used;
    its mirror flag tells whether a reflection was needed.
    """
    if placement not in ("same", "opposite"):
        raise ValueError("placement must be 'same' or 'opposite'")
    p_lab, q_lab = t1.others(common_label)
    dst1, dst2 = t1.vertex(p_lab), t1.vertex(q_lab)
    src1, src2 = t2.vertex(corr.image(p_lab)), t2.vertex(corr.image(q_lab))
    backend = common_backend(t1.backend, t2.backend)
    if not backend.eq(squared_distance(src1, src2),
                      squared_distance(dst1, dst2)):
        raise LengthMismatchError("matched sides differ in length")
    want = side(dst1, dst2, t1.vertex(common_label))
    if placement == "opposite":
        want = -want
    third = t2.vertex(corr.image(common_label))
    for mirror in (False, True):
        g = isometry_taking_segment_to_segment(src1, src2, dst1, dst2, mirror)
        if side(dst1, dst2, g.apply(third)) == want:
            return t1, g.apply(t2), g
    raise DegenerateInputError("third vertex lies on the common line")
