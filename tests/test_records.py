"""Each value class built on ``record.Record`` behaves as the dataclass it
replaced: ``==`` and ``hash`` over its fields in order, the dataclass
``repr``, ``AttributeError`` on assignment and deletion, construction by
keyword, ``copy`` and ``pickle``, and the validation errors of the classes
that validate.  The table passes on the dataclasses too, which is how its
reprs were pinned, except where it deep-copies or pickles a ``Scalar``:
``Scalar`` is now a ``Record`` as well, so every value that holds one
copies and pickles."""

import copy
import pickle
from fractions import Fraction
from random import Random

import pytest

from planicheck.congruence import (Correspondence, ElementTriple,
                                   TriangleElements, measure)
from planicheck import suites
from planicheck.kernel import (Isometry, Point, Triangle, point,
                               trusted_triangle)
from planicheck.logic import (And, Atom, EquivalenceResult, Iff, Implies,
                              LogicCheck, Not, Or, ProblemScheme, Xor,
                              compose_scheme)
from planicheck.report import CheckResult
from planicheck.scalars import (EXACT, DegenerateInputError, ExactBackend,
                                FloatBackend)
from planicheck.scenarios import ISOSCELES, Branch, ScanRoot
from planicheck.ssa import (Congruent, LemmaReport, NotSsaMatched, SsaSpec,
                           Supplementary, solve_ssa)

FB = FloatBackend()
P, Q = Atom("p"), Atom("q")


def iso(tx=2, mirror=True):
    return Isometry(EXACT, *map(EXACT.payload, (Fraction(3, 5), Fraction(4, 5),
                                                tx, -7)), mirror=mirror)


def right_triangle(build=Triangle, apex=3):
    return build(*(point(EXACT, x, y) for x, y in ((0, 0), (4, 0), (0, apex))))


def lemma(det=None):
    c = 0.5
    return LemmaReport(True, c, -c, det is not None, det is not None, det, True)


# (build, a different value, field names in order, repr); build makes a new
# object on each call
CASES = {
    "Atom": (lambda: Atom("p"), lambda: Atom("q"), "name", "Atom(name='p')"),
    "Not": (lambda: Not(Atom("p")), lambda: Not(Q), "operand",
            "Not(operand=Atom(name='p'))"),
    **{cls.__name__: (lambda cls=cls: cls(P, Q), lambda cls=cls: cls(Q, P),
                      "lhs rhs",
                      f"{cls.__name__}(lhs=Atom(name='p'), rhs=Atom(name='q'))")
       for cls in (And, Or, Xor, Implies, Iff)},
    "EquivalenceResult": (
        lambda: EquivalenceResult(True, None, 16, 12),
        lambda: EquivalenceResult(True, None, 16, 16),
        "equivalent witness rows constrained_rows",
        "EquivalenceResult(equivalent=True, witness=None, rows=16, "
        "constrained_rows=12)"),
    "ProblemScheme": (
        lambda: compose_scheme("t", "p", "q", "r", "exclusive"),
        lambda: compose_scheme("t", "p", "q", "r", "inclusive"),
        "premise condition_p condition_q conclusion kind generating_1 "
        "generating_2 combined inverse",
        "ProblemScheme(premise='t', condition_p='p', condition_q='q', "
        "conclusion='r', kind='exclusive', generating_1=Implies(lhs=And("
        "lhs=Atom(name='t'), rhs=Atom(name='p')), rhs=Atom(name='r')), "
        "generating_2=Implies(lhs=And(lhs=Atom(name='t'), rhs=Atom(name='q')"
        "), rhs=Atom(name='r')), combined=Implies(lhs=And(lhs=Atom(name='t')"
        ", rhs=Xor(lhs=Atom(name='p'), rhs=Atom(name='q'))), rhs=Atom(name="
        "'r')), inverse=Implies(lhs=And(lhs=Atom(name='t'), rhs=Atom(name="
        "'r')), rhs=Xor(lhs=Atom(name='p'), rhs=Atom(name='q'))))"),
    "LogicCheck": (
        lambda: LogicCheck("x", EquivalenceResult(True, None, 4, 3), True),
        lambda: LogicCheck("x", EquivalenceResult(True, None, 4, 3), False),
        "name result constrained",
        "LogicCheck(name='x', result=EquivalenceResult(equivalent=True, "
        "witness=None, rows=4, constrained_rows=3), constrained=True)"),
    "Congruent": (
        lambda: Congruent(Correspondence(("B", "C", "A"))),
        lambda: Congruent(Correspondence(("A", "B", "C"))),
        "correspondence",
        "Congruent(correspondence=Correspondence(mapping=('B', 'C', 'A')))"),
    "Supplementary": (
        lambda: Supplementary(0.5, -0.5),
        lambda: Supplementary(-0.5, 0.5),
        "cos1 cos2", "Supplementary(cos1=0.5, cos2=-0.5)"),
    "NotSsaMatched": (NotSsaMatched, lambda: Supplementary(0, 0), "",
                      "NotSsaMatched()"),
    "LemmaReport": (
        lambda: lemma(0.0), lemma,
        "supplementary_angles cos_acb cos_adb opposite_sides is_concyclic "
        "concyclicity_det ac_less_than_ab",
        "LemmaReport(supplementary_angles=True, cos_acb=0.5, "
        "cos_adb=-0.5, opposite_sides=True, is_concyclic=True, "
        "concyclicity_det=0.0, ac_less_than_ab=True)"),
    "Correspondence": (
        lambda: Correspondence(("C", "A", "B")),
        lambda: Correspondence(("B", "C", "A")), "mapping",
        "Correspondence(mapping=('C', 'A', 'B'))"),
    "ElementTriple": (
        lambda: ElementTriple(("A", "B"), "A"),
        lambda: ElementTriple(("A", "B"), "C"), "side_labels angle_label",
        "ElementTriple(side_labels=('A', 'B'), angle_label='A')"),
    "Isometry": (
        iso, lambda: iso(mirror=False), "backend cos_t sin_t tx ty mirror",
        "Isometry(backend=ExactBackend(), cos_t=_Rational(3, 5), "
        "sin_t=_Rational(4, 5), tx=_Rational(2, 1), ty=_Rational(-7, 1), "
        "mirror=True)"),
    # built without Triangle's __init__, it is the Triangle that validates
    "Triangle-trusted": (
        lambda: right_triangle(trusted_triangle),
        lambda: right_triangle(trusted_triangle, apex=5), "A B C",
        "Triangle(A=Point(backend=ExactBackend(), _x=_Rational(0, 1), "
        "_y=_Rational(0, 1)), B=Point(backend=ExactBackend(), "
        "_x=_Rational(4, 1), _y=_Rational(0, 1)), C=Point(backend="
        "ExactBackend(), _x=_Rational(0, 1), _y=_Rational(3, 1)))"),
    "ExactBackend": (ExactBackend, FloatBackend, "", "ExactBackend()"),
    "FloatBackend": (lambda: FloatBackend(1e-9), lambda: FloatBackend(1e-6),
                     "eps", "FloatBackend(eps=1e-09)"),
    "Branch": (
        lambda: Branch("isosceles", -1.0, 0.0, (1.0, 89.5)),
        lambda: Branch("isosceles", -1.0, 0.0, (1.0, 89.0)),
        "name k w free_deg",
        "Branch(name='isosceles', k=-1.0, w=0.0, free_deg=(1.0, 89.5))"),
    "ScanRoot": (
        lambda: ScanRoot(0.5, 0.75, 1.25, 1e-13, "isosceles", 0.0),
        lambda: ScanRoot(0.5, 0.75, 1.25, 1e-13, None, 0.0),
        "alpha beta gamma residual branch distance",
        "ScanRoot(alpha=0.5, beta=0.75, gamma=1.25, residual=1e-13, "
        "branch='isosceles', distance=0.0)"),
}


@pytest.mark.parametrize("name", CASES)
def test_a_record_compares_hashes_and_prints_as_its_dataclass(name):
    build, different, names, text = CASES[name]
    a, b = build(), build()
    fields = tuple(getattr(a, n) for n in names.split())
    assert a == b and a is not b and not a != b
    assert hash(a) == hash(b) == hash(fields)
    assert len({a, b}) == 1
    assert a != different() and a != fields
    assert repr(a) == text
    # every field, and nothing else, builds the value by keyword
    assert type(a)(**dict(zip(names.split(), fields))) == a
    assert copy.copy(a) == a
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("name", CASES)
def test_a_record_refuses_assignment_and_deletion(name):
    a = CASES[name][0]()
    for field in CASES[name][2].split() or ["anything"]:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)


def ssa_pair():
    return solve_ssa(SsaSpec(EXACT, 7, 8, Fraction(1, 2)))


def public_elements():
    e = measure(ssa_pair()[1])
    return TriangleElements(e.backend, e._sides, e._cosines)


def sampled_radical_spec():
    spec = suites.sample_rational_two_solution_spec(Random(0))
    assert type(spec._a).__name__ == "_Sqrt"
    return spec


# values that hold a Scalar or a payload, from both backends, radicals
# among them; a Point, an SsaSpec and a TriangleElements come both through
# their one constructor, which copy and pickle call with the fields, and
# through the converter or ``measure``, which the package calls
HOLDERS = {
    "Scalar-float": lambda: FB.scalar(0.5),
    "Scalar-exact": lambda: EXACT.scalar(3).sqrt(),
    "Point": lambda: Point(EXACT, EXACT.payload(Fraction(1, 3)),
                           EXACT.payload(-2)),
    "Point-converted": lambda: point(EXACT, Fraction(1, 3), -2),
    "Point-exact": lambda: point(EXACT, 1, "3/7"),
    "Point-radical": lambda: ssa_pair()[1].B,
    "Triangle": lambda: ssa_pair()[0],
    "Triangle-checked": lambda: right_triangle(),
    "Triangle-trusted": lambda: right_triangle(trusted_triangle),
    "SsaSpec": lambda: SsaSpec(FB, *map(FB.payload, (1, 2, Fraction(1, 4)))),
    "SsaSpec-converted": lambda: SsaSpec(FB, 1.0, 2.0, 0.25),
    "SsaSpec-exact": lambda: SsaSpec(
        EXACT, EXACT.sqrt(EXACT.payload(2)), 3, Fraction(1, 2)),
    "SsaSpec-sampled": sampled_radical_spec,
    "TriangleElements": public_elements,
    "TriangleElements-measured": lambda: measure(ssa_pair()[1]),
    "TriangleElements-float": lambda: measure(solve_ssa(
        SsaSpec(FB, 1.3, 2.0, 0.8))[0]),
}


@pytest.mark.parametrize("name", HOLDERS)
def test_a_value_that_holds_scalars_copies_and_pickles(name):
    a = HOLDERS[name]()
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and type(b) is type(a) and repr(b) == repr(a)


@pytest.mark.parametrize("built, converted", [
    ("Point", "Point-converted"), ("SsaSpec", "SsaSpec-converted"),
    ("TriangleElements", "TriangleElements-measured"),
    ("Triangle-checked", "Triangle-trusted")])
def test_the_converter_builds_the_constructed_value(built, converted):
    a, b = HOLDERS[built](), HOLDERS[converted]()
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert len({a, b}) == 1
    for c in (copy.copy(b), copy.deepcopy(b), pickle.loads(pickle.dumps(b))):
        assert c == a and hash(c) == hash(a)


def test_a_payload_value_prints_its_payloads_and_reads_its_scalars():
    p = HOLDERS["Point-converted"]()
    assert repr(p) == ("Point(backend=ExactBackend(), _x=_Rational(1, 3), "
                       "_y=_Rational(-2, 1))")
    assert p.as_floats() == (1 / 3, -2.0)
    assert Point(EXACT, p._x, p._y) == p
    spec = HOLDERS["SsaSpec-exact"]()
    assert repr(spec) == (
        "SsaSpec(backend=ExactBackend(), "
        "_a=_Sqrt(sign=1, square=_Rational(2, 1)), _b=_Rational(3, 1), "
        "_cos=_Rational(1, 2))")
    assert (spec.side_a, spec.side_b, spec.cos_angle) == (
        EXACT.scalar(2).sqrt(), EXACT.scalar(3), EXACT.scalar(Fraction(1, 2)))
    assert SsaSpec(EXACT, spec._a, spec._b, spec._cos) == spec
    assert SsaSpec(backend=EXACT, side_a=spec._a, side_b=spec._b,
                   cos_angle=spec._cos) == spec
    e = HOLDERS["TriangleElements-measured"]()
    assert repr(e) == (
        "TriangleElements(backend=ExactBackend(), "
        "_sides=(_Rational(49, 1), _Rational(64, 1), _Rational(25, 1)), "
        "_cosines=(_Rational(1, 2), _Rational(1, 7), _Rational(11, 14)))")
    assert e._cosines[2] == EXACT.payload(Fraction(11, 14))
    for value, field in ((p, "_x"), (p, "backend"), (spec, "side_a"),
                         (spec, "backend"), (e, "backend"), (e, "_sides")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)


# (side_a, side_b, cos_angle, message)
BAD_SPECS = [
    (0, 2, "1/2", "sides must be positive"),
    (1, -2, "1/2", "sides must be positive"),
    (1, 2, 1, "angle must be strictly inside"),
    (1, 2, -1, "angle must be strictly inside"),
]


@pytest.mark.parametrize("backend", [FB, EXACT], ids=["float", "exact"])
@pytest.mark.parametrize("a, b, c, message", BAD_SPECS)
def test_the_spec_rejects_bad_numbers(backend, a, b, c, message):
    values = [Fraction(v) if backend is EXACT else float(Fraction(v))
              for v in (a, b, c)]
    with pytest.raises(DegenerateInputError, match=message):
        SsaSpec(backend, *values)


@pytest.mark.parametrize("backend", [FB, EXACT], ids=["float", "exact"])
def test_the_spec_and_point_refuse_a_scalar(backend):
    # both convert numbers and payloads; a Scalar of either backend is
    # neither, so its backend is never asked
    for scalar in (FB.scalar(1), EXACT.scalar(1)):
        with pytest.raises(TypeError):
            SsaSpec(backend, 2, scalar, Fraction(1, 2))
        for x, y in ((scalar, 2), (1, scalar)):
            with pytest.raises(TypeError):
                point(backend, x, y)


def test_a_scalar_refuses_assignment_and_deletion():
    x = FB.scalar(1.0)
    for field in ("backend", "_v", "other"):
        with pytest.raises(AttributeError):
            setattr(x, field, None)
        with pytest.raises(AttributeError):
            delattr(x, field)
    assert x._v == 1.0 and x.backend is FB
    assert x == FloatBackend().scalar(1.0) and hash(x) == hash((FB, 1.0))
    assert x != EXACT.scalar(1) and x != 1.0


def test_backends_compare_by_their_fields():
    assert FloatBackend(1e-9) == FloatBackend(1e-9) == FloatBackend() == FB
    assert ExactBackend() == EXACT and ExactBackend() is not EXACT
    assert {ExactBackend(): 1}[EXACT] == 1
    assert FloatBackend(1e-9) != EXACT and FloatBackend(1e-6) != FB
    assert FloatBackend(eps=1e-6) == FloatBackend(1e-6)


def test_keyword_construction_where_the_package_uses_it():
    at, ap, aq, ar = Atom("t"), Atom("p"), Atom("q"), Atom("r")
    scheme = ProblemScheme(
        premise="t", condition_p="p", condition_q="q", conclusion="r",
        kind="inclusive", generating_1=Implies(And(at, ap), ar),
        generating_2=Implies(And(at, aq), ar),
        combined=Implies(And(at, Or(ap, aq)), ar),
        inverse=Implies(And(at, ar), Or(ap, aq)))
    assert scheme == compose_scheme("t", "p", "q", "r", "inclusive")
    assert iso(mirror=True).mirror is True and iso(mirror=False).mirror is False
    g = iso()
    assert Isometry(g.backend, g.cos_t, g.sin_t, g.tx, g.ty).mirror is False
    assert Branch("isosceles", -1.0, 0.0, (1.0, 89.5)) == ISOSCELES


@pytest.mark.parametrize("build, message", [
    (lambda: Correspondence(("A", "A", "B")), "permutation of A, B, C"),
    (lambda: Correspondence(("A", "B")), "permutation of A, B, C"),
    (lambda: ElementTriple(("A", "A"), "B"), "two distinct side labels"),
    (lambda: ElementTriple(("A", "D"), "B"), "two distinct side labels"),
    (lambda: ElementTriple(("A", "B"), "D"), "two distinct side labels"),
    (lambda: FloatBackend(0.0), "eps must be positive"),
    (lambda: FloatBackend(-1e-9), "eps must be positive"),
    (lambda: FloatBackend(float("nan")), "eps must be positive"),
    (lambda: Isometry(EXACT, *map(EXACT.payload, (1, 1, 0, 0))),
     "rotation part must satisfy"),
])
def test_a_validating_record_raises_its_dataclass_error(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_a_record_takes_its_fields_and_no_others():
    with pytest.raises(TypeError):
        Atom()
    with pytest.raises(TypeError):
        Atom("p", "q")
    with pytest.raises(TypeError):
        Atom(label="p")
    with pytest.raises(TypeError):
        And(P)


def test_each_check_result_has_its_own_witness_list():
    a = CheckResult("x", True, 3, 0.0)
    b = CheckResult("x", True, 3, 0.0)
    assert a == b and a.witnesses == [] and a.witnesses is not b.witnesses
    assert repr(a) == ("CheckResult(name='x', passed=True, samples=3, "
                       "worst_residual=0.0, witnesses=[])")
    a.add_failure({"i": 1})
    assert (a.passed, a.witnesses, b.passed, b.witnesses) == (
        False, [{"i": 1}], True, [])
    assert a != b
    # mutable, so unhashable, as a dataclass that is not frozen
    b.worst_residual = 0.5
    assert b.worst_residual == 0.5
    with pytest.raises(TypeError):
        hash(b)
    d = copy.deepcopy(a)
    assert d == a and d.witnesses is not a.witnesses
    witnesses = [{"i": 2}]
    c = CheckResult(name="y", passed=False, samples=1, worst_residual=1.0,
                    witnesses=witnesses)
    assert c.witnesses is witnesses
