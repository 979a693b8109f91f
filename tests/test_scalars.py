"""Dual-backend scalar arithmetic: exact radicals and tolerant floats."""

import math
import operator
import sys
from fractions import Fraction
from random import Random

import pytest

from planicheck.scalars import (
    EXACT,
    BackendMismatchError,
    DegenerateInputError,
    ExactValueError,
    FloatBackend,
    Scalar,
    _Rational,
    _Sqrt,
    same_backend,
)

FB = FloatBackend()


def test_exact_rational_arithmetic():
    third = EXACT.scalar(Fraction(1, 3))
    assert (third * EXACT.scalar(3)).eq(EXACT.scalar(1))
    assert (third + third + third).exact_value() == 1
    assert EXACT.scalar("3/7").exact_value() == Fraction(3, 7)


def test_exact_rejects_float_literals():
    with pytest.raises(TypeError):
        EXACT.scalar(0.5)


def test_perfect_square_root_collapses_to_rational():
    assert EXACT.scalar(4).sqrt().exact_value() == 2
    assert EXACT.scalar(Fraction(9, 4)).sqrt().exact_value() == Fraction(3, 2)


def test_single_radical_arithmetic():
    r2 = EXACT.scalar(2).sqrt()
    assert (r2 * r2).exact_value() == 2
    assert (r2 * EXACT.scalar(8).sqrt()).exact_value() == 4
    assert (r2 + r2).eq(EXACT.scalar(8).sqrt())
    assert (r2 - r2).exact_value() == 0
    # 1/sqrt(2) == sqrt(1/2)
    assert (EXACT.scalar(1) / r2).eq(EXACT.scalar(Fraction(1, 2)).sqrt())


def test_sum_across_distinct_radicals_raises():
    r2 = EXACT.scalar(2).sqrt()
    r3 = EXACT.scalar(3).sqrt()
    with pytest.raises(ExactValueError):
        r2 + r3
    with pytest.raises(ExactValueError):
        EXACT.scalar(1) + r2


def test_zero_plus_radical_is_fine():
    r2 = EXACT.scalar(2).sqrt()
    assert (EXACT.scalar(0) + r2).eq(r2)
    assert (r2 - EXACT.scalar(0)).eq(r2)


def test_nested_radical_raises():
    with pytest.raises(ExactValueError):
        EXACT.scalar(2).sqrt().sqrt()


def test_sqrt_of_negative_raises():
    with pytest.raises(ValueError):
        EXACT.scalar(-1).sqrt()
    with pytest.raises(ValueError):
        FB.scalar(-1.0).sqrt()


def test_exact_total_order_on_radicals():
    r2 = EXACT.scalar(2).sqrt()
    r3 = EXACT.scalar(3).sqrt()
    assert r3.gt(r2)
    assert EXACT.scalar(0).gt(r2 * EXACT.scalar(-1))
    assert r2.gt(EXACT.scalar(1))
    assert EXACT.scalar(Fraction(3, 2)).gt(r2)
    assert EXACT.scalar(Fraction(9, 4)).sqrt().eq(EXACT.scalar(Fraction(3, 2)))


def test_exact_equality_agrees_with_the_total_order():
    # payloads are canonical (perfect squares collapse to rationals), so
    # equality compares them structurally; it must never disagree with
    # the order
    rng = Random(4)
    pool = [EXACT.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            for _ in range(30)]
    zero, four = EXACT.scalar(0), EXACT.scalar(4)
    pool += [x.sqrt() * EXACT.scalar(sign) for x in pool if x.gt(zero)
             for sign in (1, -1)]
    # equal values built in different ways: 3/2, sqrt(1/2), sqrt(2)/4
    pool += [EXACT.scalar(Fraction(9, 4)).sqrt(), EXACT.scalar("3/2"),
             EXACT.scalar(8).sqrt() / four, EXACT.scalar("1/2").sqrt(),
             (EXACT.scalar(1) / EXACT.scalar(8)).sqrt(),
             EXACT.scalar(2).sqrt() / four]
    for x in pool:
        for y in pool:
            assert x.eq(y) == (not x.gt(y) and not y.gt(x)), (x, y)


def test_exact_sign_and_zero():
    assert EXACT.sign(EXACT.payload(0)) == 0
    assert EXACT.sign(-EXACT.sqrt(EXACT.payload(3))) == -1


def test_float_relative_equality():
    big = FB.scalar(1e12)
    assert big.eq(FB.scalar(1e12 + 1.0))  # relative slack grows with magnitude
    assert not FB.scalar(1.0).eq(FB.scalar(1.0 + 1e-8))
    assert FB.scalar(0.0).eq(FB.scalar(1e-10))  # floor at absolute eps
    assert FB.sign(1e-10) == 0


def test_float_strict_comparisons_respect_tolerance():
    a = FB.scalar(1.0)
    assert not FB.scalar(1.0 + 1e-12).gt(a)
    assert a.eq(FB.scalar(1.0 + 1e-12))
    assert FB.scalar(1.1).gt(a)
    assert FB.scalar(2.0).gt(a)


def test_backends_do_not_mix():
    with pytest.raises(BackendMismatchError):
        EXACT.scalar(1) + FB.scalar(1.0)
    with pytest.raises(BackendMismatchError):
        FloatBackend(1e-6).scalar(1.0) + FB.scalar(1.0)


BACKEND_ONES = pytest.mark.parametrize("backend, one", [(EXACT, 1), (FB, 1.0)],
                                       ids=["exact", "float"])


@BACKEND_ONES
def test_a_backend_converts_numbers_and_refuses_a_scalar(backend, one):
    # payload is each backend's one conversion rule: a number converts, a
    # payload passes as it is, and scalar wraps what payload returns
    v = backend.payload(one)
    assert backend.payload(v) is v
    assert backend.scalar(Fraction(3, 4)) == Scalar(
        backend, backend.payload(Fraction(3, 4)))
    # a Scalar is neither a number nor a payload, whatever its backend
    for s in (EXACT.scalar(1), FB.scalar(1.0)):
        with pytest.raises(TypeError):
            backend.payload(s)
        with pytest.raises(TypeError):
            backend.scalar(s)


@BACKEND_ONES
def test_scalar_arithmetic_takes_only_a_scalar(backend, one):
    # a Scalar meets another Scalar only: a plain number has no backend to
    # read on the right, and no reflected operator takes it on the left
    s = backend.scalar(one)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        assert op(s, s) == Scalar(backend, op(s._v, s._v))
        with pytest.raises(AttributeError):
            op(s, one)
        with pytest.raises(TypeError):
            op(one, s)
    for compare in (s.eq, s.gt):
        with pytest.raises(AttributeError):
            compare(one)



def test_equal_backends_are_one_backend():
    assert same_backend(FB, FB) and same_backend(EXACT, EXACT)
    assert same_backend(FloatBackend(1e-6), FloatBackend(1e-6))
    assert not same_backend(FloatBackend(1e-6), FB)
    assert not same_backend(EXACT, FB)
    assert (FloatBackend().scalar(1.0) + FB.scalar(2.0)).eq(FB.scalar(3.0))


def test_radical_converts_where_its_square_overflows():
    # sqrt(2e616) fits binary64 though 2e616 does not; sqrt(2e617) does not
    assert EXACT.scalar(2 * 10 ** 616).sqrt().as_float() == pytest.approx(
        math.sqrt(2) * 1e308, rel=1e-15)
    with pytest.raises(DegenerateInputError):
        EXACT.scalar(2 * 10 ** 617).sqrt().as_float()


def test_radical_conversion_rounds_as_converting_its_square_does():
    rng = Random(5)
    for _ in range(3000):
        q = Fraction(rng.getrandbits(rng.randint(1, 1100)) + 1,
                     rng.getrandbits(rng.randint(1, 1100)) + 1)
        try:
            direct = math.sqrt(q)
        except OverflowError:
            continue
        assert EXACT.scalar(q).sqrt().as_float() == direct, q


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        EXACT.scalar(1) / EXACT.scalar(0)
    with pytest.raises(ZeroDivisionError):
        FB.scalar(1.0) / FB.scalar(0.0)


def test_division_by_radical():
    r3 = EXACT.scalar(3).sqrt()
    assert (EXACT.scalar(6) / r3).eq(EXACT.scalar(12).sqrt())
    assert (r3 / r3).exact_value() == 1


def test_exact_value_refuses_irrationals_and_floats():
    with pytest.raises(ExactValueError):
        EXACT.scalar(2).sqrt().exact_value()
    with pytest.raises(ExactValueError):
        FB.scalar(1.0).exact_value()


def test_as_float_matches_radical():
    r2 = EXACT.scalar(2).sqrt()
    assert r2.as_float() == pytest.approx(2 ** 0.5)
    assert (r2 * EXACT.scalar(-1)).as_float() == pytest.approx(-(2 ** 0.5))


def test_eps_must_be_positive():
    with pytest.raises(ValueError):
        FloatBackend(0.0)


# -- the float tolerance rule, written out in eq, lt and sign ------------------

def _ulps(x: float, k: int) -> float:
    """x moved by k ulps (toward +inf for k > 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


def _tolerance_table(rng: Random):
    """Seeded single values and pairs that straddle the tolerance bands of
    eps 1e-9 and 1e-6: signed zeros, subnormals, values a few ulp either
    side of eps * scale, the binary64 extremes, infinities and nan."""
    values = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
              sys.float_info.min, -sys.float_info.min, 1.0, -1.0,
              1e308, -1e308, sys.float_info.max, -sys.float_info.max,
              math.inf, -math.inf, math.nan]
    pairs = []
    for eps in (1e-9, 1e-6):
        for scale in (1.0, 3.7, 2.5e6, 1e300):
            for k in range(-4, 5):
                bound = _ulps(eps * scale, k)
                values += [bound, -bound]
        for x in (1.0, -3.7, 2.5e6, 0.25, 1e300):
            # y - x crosses eps * max(1, |x|, |y|) within these ulps
            y0 = x + eps * max(1.0, abs(x)) * (1.0 + eps)
            pairs += [(x, _ulps(y0, k)) for k in range(-40, 41, 3)]
            pairs += [(_ulps(y0, k), x) for k in range(-40, 41, 3)]
    values += [rng.uniform(-10.0, 10.0) for _ in range(20)]
    values += [math.ldexp(rng.random(), rng.randint(-1074, 1023))
               * rng.choice((1, -1)) for _ in range(20)]
    pairs += [(x, y) for x in values for y in values]
    return values, pairs


def test_float_eq_lt_and_sign_are_vanishes_at_degree_one():
    values, pairs = _tolerance_table(Random(13))
    for eps in (1e-9, 1e-6):
        fb = FloatBackend(eps)
        decided = {"eq": set(), "lt": set(), "sign": set()}
        for x, y in pairs:
            want_eq = fb.vanishes(x - y, max(1.0, abs(x), abs(y)), 1)
            assert fb.eq(x, y) == want_eq, (eps, x, y)
            assert fb.lt(x, y) == (x < y and not want_eq), (eps, x, y)
            decided["eq"].add(want_eq)
            decided["lt"].add(x < y and not want_eq)
        for v in values:
            want = (0 if fb.vanishes(v, 1.0, 1) else 1 if v > 0.0 else -1)
            assert fb.sign(v) == want, (eps, v)
            decided["sign"].add(want)
        # the table reaches both sides of every decision
        assert decided == {"eq": {False, True}, "lt": {False, True},
                           "sign": {-1, 0, 1}}


# -- the exact rational payload against fractions.Fraction ---------------------

def _payload(f: Fraction):
    return EXACT.scalar(f)._v


def _outcome(fn, *args):
    """fn(*args), or the type of the exception it raises."""
    try:
        return fn(*args)
    except (ZeroDivisionError, OverflowError, ExactValueError) as exc:
        return type(exc)


def _as_fraction(v):
    """A result as a Fraction, so that both sides compare by value and
    by representation."""
    if isinstance(v, _Rational):
        return (Fraction(v.numerator, v.denominator), v.numerator,
                v.denominator)
    if isinstance(v, Fraction):
        return v, v.numerator, v.denominator
    return v


def _fraction_pool(rng: Random):
    pool = [Fraction(0), Fraction(1), Fraction(-1), Fraction(7),
            Fraction(-12, 5), Fraction(1, 3)]
    pool += [Fraction(rng.randint(-60, 60), rng.randint(1, 36))
             for _ in range(30)]
    pool += [Fraction(rng.getrandbits(1100) - (1 << 1099),
                      rng.getrandbits(rng.randint(1, 90)) + 1)
             for _ in range(4)]
    return pool


# a rational payload's operators with a payload, Fraction or int on their
# right; with a Fraction or int on their left only the reflected ones run,
# as / and < take a number only on their right
_BINARY = (operator.add, operator.sub, operator.mul, operator.truediv,
           operator.lt, operator.eq, operator.ne)
_REFLECTED = (operator.add, operator.sub, operator.mul, operator.eq,
              operator.ne)


def test_rational_payload_matches_fraction():
    pool = _fraction_pool(Random(21))
    ints = [0, 1, -3, 10 ** 30]
    for f in pool:
        q = _payload(f)
        assert type(q) is _Rational
        assert (q.numerator, q.denominator) == (f.numerator, f.denominator)
        for unary in (operator.neg, float, str):
            assert _as_fraction(_outcome(unary, q)) == _as_fraction(
                _outcome(unary, f)), (unary, f)
        assert hash(q) == hash(f)
        for g in pool:
            r = _payload(g)
            for op in _BINARY:
                want = _as_fraction(_outcome(op, f, g))
                # payload with payload, and with a Fraction on either side
                for left, right in ((q, r), (q, g), (f, r)):
                    if left is f and op not in _REFLECTED:
                        continue
                    got = _outcome(op, left, right)
                    if isinstance(want, tuple):
                        assert type(got) is _Rational, (op, f, g)
                    assert _as_fraction(got) == want, (op, left, right)
            if q == r:
                assert hash(q) == hash(r)
        for n in ints:
            for op in _BINARY:
                assert _as_fraction(_outcome(op, q, n)) == _as_fraction(
                    _outcome(op, f, n)), (op, f, n)
            for op in _REFLECTED:
                assert _as_fraction(_outcome(op, n, q)) == _as_fraction(
                    _outcome(op, n, f)), (op, n, f)
            if q == n:
                assert hash(q) == hash(n)


def _signed_square(v):
    """An exact payload v as (sign(v), v^2) in Fraction arithmetic."""
    if isinstance(v, _Sqrt):
        return v.sign, Fraction(v.square.numerator, v.square.denominator)
    f = Fraction(v.numerator, v.denominator)
    return (f > 0) - (f < 0), f * f


def _magnitude(v):
    """|v| of an exact payload, negated by its Fraction-arithmetic sign (the
    payloads define no ``__abs__``; nothing in the package takes one)."""
    return -v if _signed_square(v)[0] < 0 else v


def _is_perfect_square(q: Fraction) -> bool:
    return all(math.isqrt(k) ** 2 == k for k in (q.numerator, q.denominator))


def _reference(op, x, y):
    """The signed square of x op y by Fraction arithmetic on signed
    squares, or ExactValueError where the sum leaves the representable
    set, or ZeroDivisionError."""
    (sx, qx), (sy, qy) = _signed_square(x), _signed_square(y)
    if op is operator.mul:
        return sx * sy, qx * qy
    if op is operator.truediv:
        if sy == 0:
            return ZeroDivisionError
        return sx * sy, qx / qy
    if op is operator.sub:
        sy = -sy
    if sy == 0:
        return sx, qx
    if sx == 0:
        return sy, qy
    if qx != qy or not isinstance(x, _Sqrt) or not isinstance(y, _Sqrt):
        return ExactValueError  # distinct radicals, or rational + radical
    c = sx + sy
    return (c > 0) - (c < 0), c * c * qx


def test_radical_payload_ops_match_fraction_arithmetic():
    rng = Random(22)
    rationals = [_payload(f) for f in _fraction_pool(rng)]
    radicals = [EXACT.sqrt(_magnitude(q)) for q in rationals if q]
    radicals = [v for v in radicals if isinstance(v, _Sqrt)]
    radicals += [-v for v in radicals]
    # equal squares, so that sums of radicals are representable
    radicals += [_payload(Fraction(k)) * radicals[0] for k in (2, -1, -2)]
    assert all(type(v.square) is _Rational for v in radicals)
    for x in radicals:
        assert _signed_square(-x) == (-x.sign, _signed_square(x)[1])
        assert _magnitude(x) == _Sqrt(1, x.square)
        for y in radicals + rationals + [0, 3]:
            for op in (operator.add, operator.sub, operator.mul,
                       operator.truediv):
                for left, right in ((x, y), (y, x)):
                    if isinstance(right, int):
                        right = _payload(Fraction(right))
                    want = _reference(op, left, right)
                    got = _outcome(op, left, right)
                    if not isinstance(want, tuple):
                        assert got is want, (op, left, right)
                        continue
                    assert _signed_square(got) == want, (op, left, right)
                    # canonical: a perfect square collapses to a rational
                    assert isinstance(got, _Sqrt) != (
                        want[0] == 0 or _is_perfect_square(want[1]))
                    if isinstance(got, _Sqrt):
                        assert type(got.square) is _Rational


def test_radical_float_conversion_matches_fraction_squares():
    rng = Random(23)
    squares = [Fraction(2), Fraction(3, 7), Fraction(rng.getrandbits(64) + 1,
                                                     rng.getrandbits(40) + 1)]
    # above 2^1000, where the conversion scales the square down first,
    # both below and above the binary64 range of the square itself
    squares += [Fraction((1 << 1010) + 1, 3), Fraction((1 << 1023) * 3 + 1),
                Fraction((1 << 1500) + 7, (1 << 100) + 1),
                Fraction(rng.getrandbits(1900) | 1 << 1899,
                         rng.getrandbits(300) + 1)]
    for f in squares:
        assert not _is_perfect_square(f)
        for sign in (1, -1):
            got = float(_Sqrt(sign, _payload(f)))
            assert got == float(_Sqrt(sign, f)), f
            if f < 2 ** 1000:
                assert got == sign * math.sqrt(f)
    # the table reaches the scaled conversion, in and above binary64 range
    assert 2 ** 1000 < squares[3] < 2 ** 1024 < squares[4]
