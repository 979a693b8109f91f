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

import pytest

from planicheck.congruence import (Correspondence, ElementTriple,
                                   TriangleElements, measure)
from planicheck.kernel import LABELS
from planicheck.kernel import Isometry, Point, payload_point, point
from planicheck.logic import (And, Atom, EquivalenceResult, Iff, Implies,
                              LogicCheck, Not, Or, ProblemScheme, Xor,
                              compose_scheme)
from planicheck.report import CheckResult
from planicheck.scalars import (EXACT, BackendMismatchError,
                                DegenerateInputError, ExactBackend,
                                FloatBackend)
from planicheck.scenarios import ISOSCELES, Branch, ScanRoot
from planicheck.ssa import (Congruent, LemmaReport, NotSsaMatched, SsaSpec,
                           Supplementary, solve_ssa)

FB = FloatBackend()
P, Q = Atom("p"), Atom("q")


def iso(tx=2, mirror=True):
    return Isometry(EXACT.scalar(Fraction(3, 5)), EXACT.scalar(Fraction(4, 5)),
                    EXACT.scalar(tx), EXACT.scalar(-7), mirror=mirror)


def lemma(det=None):
    c = FB.scalar(0.5)
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
        lambda: Supplementary(FB.scalar(0.5), FB.scalar(-0.5)),
        lambda: Supplementary(FB.scalar(-0.5), FB.scalar(0.5)),
        "cos1 cos2", "Supplementary(cos1=Scalar(0.5), cos2=Scalar(-0.5))"),
    "NotSsaMatched": (NotSsaMatched, lambda: Supplementary(0, 0), "",
                      "NotSsaMatched()"),
    "LemmaReport": (
        lambda: lemma(FB.scalar(0.0)), lemma,
        "supplementary_angles cos_acb cos_adb opposite_sides is_concyclic "
        "concyclicity_det ac_less_than_ab",
        "LemmaReport(supplementary_angles=True, cos_acb=Scalar(0.5), "
        "cos_adb=Scalar(-0.5), opposite_sides=True, is_concyclic=True, "
        "concyclicity_det=Scalar(0.0), ac_less_than_ab=True)"),
    "Correspondence": (
        lambda: Correspondence(("C", "A", "B")),
        lambda: Correspondence(("B", "C", "A")), "mapping",
        "Correspondence(mapping=('C', 'A', 'B'))"),
    "ElementTriple": (
        lambda: ElementTriple(("A", "B"), "A"),
        lambda: ElementTriple(("A", "B"), "C"), "side_labels angle_label",
        "ElementTriple(side_labels=('A', 'B'), angle_label='A')"),
    "Isometry": (
        iso, lambda: iso(mirror=False), "cos_t sin_t tx ty mirror",
        "Isometry(cos_t=Scalar(3/5), sin_t=Scalar(4/5), tx=Scalar(2), "
        "ty=Scalar(-7), mirror=True)"),
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
    return solve_ssa(SsaSpec.from_values(EXACT, 7, 8, Fraction(1, 2)))


def public_elements():
    e = measure(ssa_pair()[1])
    return TriangleElements(tuple(e.side_sq(l) for l in LABELS),
                            tuple(e.cos_at(l) for l in LABELS))


# values that hold a Scalar or a payload, from both backends, a radical
# among them; a Point, an SsaSpec and a TriangleElements come both through
# their public constructors and through the payload path
HOLDERS = {
    "Scalar-float": lambda: FB.scalar(0.5),
    "Scalar-exact": lambda: EXACT.scalar(3).sqrt(),
    "Point": lambda: Point(EXACT.scalar(Fraction(1, 3)), EXACT.scalar(-2)),
    "Point-payload": lambda: point(EXACT, Fraction(1, 3), -2),
    "Point-radical": lambda: ssa_pair()[1].B,
    "Triangle": lambda: ssa_pair()[0],
    "SsaSpec": lambda: SsaSpec(FB.scalar(1.0), FB.scalar(2.0),
                               FB.scalar(0.25)),
    "SsaSpec-payload": lambda: SsaSpec.from_values(FB, 1.0, 2.0, 0.25),
    "SsaSpec-exact": lambda: SsaSpec.from_values(
        EXACT, EXACT.scalar(2).sqrt(), 3, Fraction(1, 2)),
    "TriangleElements": public_elements,
    "TriangleElements-payload": lambda: measure(ssa_pair()[1]),
    "TriangleElements-float": lambda: measure(solve_ssa(
        SsaSpec.from_values(FB, 1.3, 2.0, 0.8))[0]),
}


@pytest.mark.parametrize("name", HOLDERS)
def test_a_value_that_holds_scalars_copies_and_pickles(name):
    a = HOLDERS[name]()
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and type(b) is type(a) and repr(b) == repr(a)


@pytest.mark.parametrize("public, payload", [
    ("Point", "Point-payload"), ("SsaSpec", "SsaSpec-payload"),
    ("TriangleElements", "TriangleElements-payload")])
def test_the_payload_path_builds_the_public_value(public, payload):
    a, b = HOLDERS[public](), HOLDERS[payload]()
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert len({a, b}) == 1
    for c in (copy.copy(b), copy.deepcopy(b), pickle.loads(pickle.dumps(b))):
        assert c == a and hash(c) == hash(a)


def test_a_payload_value_prints_and_reads_its_scalars():
    p = HOLDERS["Point-payload"]()
    assert repr(p) == "Point(x=Scalar(1/3), y=Scalar(-2))"
    assert (p.x, p.y) == (EXACT.scalar(Fraction(1, 3)), EXACT.scalar(-2))
    assert payload_point(EXACT, p.x._v, p.y._v) == p
    spec = HOLDERS["SsaSpec-exact"]()
    assert repr(spec) == ("SsaSpec(side_a=Scalar(sqrt(2)), side_b=Scalar(3), "
                          "cos_angle=Scalar(1/2))")
    assert SsaSpec(spec.side_a, spec.side_b, spec.cos_angle) == spec
    assert SsaSpec(side_a=spec.side_a, side_b=spec.side_b,
                   cos_angle=spec.cos_angle) == spec
    e = HOLDERS["TriangleElements-payload"]()
    assert repr(e) == (
        "TriangleElements(side_sq=(Scalar(49), Scalar(64), Scalar(25)), "
        "cos_at=(Scalar(1/2), Scalar(1/7), Scalar(11/14)))")
    assert e.side_sq("C") == EXACT.scalar(25)
    with pytest.raises(BackendMismatchError, match="cannot mix"):
        TriangleElements((e.side_sq("A"), FB.scalar(64.0), e.side_sq("C")),
                         tuple(e.cos_at(l) for l in LABELS))
    for value, field in ((p, "x"), (p, "backend"), (spec, "side_a"),
                         (spec, "backend"), (e, "backend"), (e, "_sides")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)


# (side_a, side_b, cos_angle, error, message); ``other`` stands for a Scalar
# of the backend the spec is not built on
BAD_SPECS = [
    (0, 2, "1/2", DegenerateInputError, "sides must be positive"),
    (1, -2, "1/2", DegenerateInputError, "sides must be positive"),
    (1, 2, 1, DegenerateInputError, "angle must be strictly inside"),
    (1, 2, -1, DegenerateInputError, "angle must be strictly inside"),
    (1, "other", "1/2", BackendMismatchError, "cannot mix"),
    (1, 2, "other", BackendMismatchError, "cannot mix"),
]


@pytest.mark.parametrize("backend", [FB, EXACT], ids=["float", "exact"])
@pytest.mark.parametrize("a, b, c, error, message", BAD_SPECS)
def test_both_spec_constructors_reject_alike(backend, a, b, c, error, message):
    other = EXACT if backend is FB else FB

    def value(v):
        if v == "other":
            return other.scalar(1)
        return Fraction(v) if backend is EXACT else float(Fraction(v))

    values = [value(v) for v in (a, b, c)]
    with pytest.raises(error, match=message) as public:
        SsaSpec(*(v if hasattr(v, "_v") else backend.scalar(v)
                  for v in values))
    with pytest.raises(error, match=message) as payload:
        SsaSpec.from_values(backend, *values)
    assert str(public.value) == str(payload.value)


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
    assert Isometry(g.cos_t, g.sin_t, g.tx, g.ty).mirror is False
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
    (lambda: Isometry(EXACT.scalar(1), EXACT.scalar(1), EXACT.scalar(0),
                      EXACT.scalar(0)), "rotation part must satisfy"),
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
